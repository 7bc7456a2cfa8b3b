//! Benchmark harness regenerating every table and figure of the MESA
//! paper's evaluation (§6).
//!
//! Each `figN`/`tableN` function returns structured rows; the `figures`
//! binary prints them, and the benches under `benches/` time the
//! underlying simulations on the `mesa-test` timer. `EXPERIMENTS.md`
//! records paper-reported vs measured values.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod figures;
pub mod harness;
pub mod kernelgen;
pub mod pool;
pub mod serve;

pub use figures::{
    crossover, fig11, fig12, fig13, fig14, fig15, fig16, reject_tag, table1, table2,
    CrossoverRow, Fig11Row, Fig12Row, Fig13Report, Fig14Row, Fig15Row, Table2Row,
    BASELINE_CORES,
};
pub use harness::{
    cpu_multicore, cpu_single, geomean, mesa_offload, mesa_offload_with, mesa_profile,
    region_ldfg, BaselineRun, MesaRun,
};
pub use kernelgen::{
    controller_episode, differential_episode, tenant_jobs, tenants_episode_fleet, EpisodeStats,
    TenantsStats,
};
pub use cli::CliError;
pub use pool::{jobs, par_map, set_jobs};
pub use serve::{
    bench_request, loadgen, one_shot, synthetic_kernel, GridSpec, KernelSpec, ServeEngine,
    ServeRequest, ServeResponse, SERVE_KERNELS,
};
