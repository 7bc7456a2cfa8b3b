//! Wall-time benches: one per table/figure of the paper's evaluation.
//! Each bench times the full simulation behind the corresponding figure at
//! the `Tiny` problem size (the `figures` binary reproduces the actual
//! numbers at `Small`/`Large`).
//!
//! Run with `cargo bench --bench figures`.

use mesa_bench as bench;
use mesa_test::BenchSuite;
use mesa_workloads::KernelSize;
use std::hint::black_box;

const ITERS: u64 = 10;

fn main() {
    let mut suite = BenchSuite::new();
    suite.run("fig11_perf_energy_vs_multicore/all_kernels_m128_m512", ITERS, || {
        black_box(bench::fig11(KernelSize::Tiny, false))
    });
    suite.run("fig12_ipc_vs_opencgra/compatible_kernels", ITERS, || {
        black_box(bench::fig12(KernelSize::Tiny, false))
    });
    suite.run("fig13_component_breakdown/four_kernel_average", ITERS, || {
        black_box(bench::fig13(KernelSize::Tiny, false))
    });
    suite.run("fig14_vs_dynaspam/shared_kernels_m64", ITERS, || {
        black_box(bench::fig14(KernelSize::Tiny, false))
    });
    suite.run("fig15_pe_scaling/nn_16_to_512_pes", ITERS, || {
        black_box(bench::fig15(KernelSize::Tiny, false))
    });
    suite.run("fig16_amortization/nn_energy_per_iteration", ITERS, || {
        black_box(bench::fig16(KernelSize::Tiny, false))
    });
    suite.run("table1_area_power", 100, || black_box(bench::table1()));
    suite.run("table2_config_latency/all_kernels", ITERS, || {
        black_box(bench::table2(KernelSize::Tiny))
    });
}
