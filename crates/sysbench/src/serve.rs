//! `mesa-serve` core: a batch offload service over a shared artifact
//! cache.
//!
//! A [`ServeRequest`] names a kernel (a workloads benchmark or a
//! seed-generated synthetic loop), a grid configuration, a data seed, and
//! a tenant id. [`ServeEngine`] admits requests onto fresh controllers
//! that all share one [`SharedArtifactCache`], so repeat kernels skip the
//! host-side detect → translate → map work while staying architecturally
//! invisible: a warm response is **byte-identical** to the same request
//! served cold, at any worker count ([`ServeEngine::handle_batch`] fans
//! out over [`crate::pool::par_map`], which preserves input order) — the
//! property [`one_shot`] exists to check against.
//!
//! The module also ships the kernelgen-based load generator ([`loadgen`])
//! and the warm-vs-cold soak/bench helpers the `mesa-serve` binary and
//! `benches/components.rs` drive; `scripts/ci.sh` gates both.

use crate::kernelgen::{tenant_jobs, ARR_A, ARR_OUT};
use mesa_core::{
    run_offload_with, run_tenants_fleet, ArtifactCacheStats, FleetRun, RunOptions,
    SharedArtifactCache, SystemConfig, TenantJob,
};
use mesa_isa::reg::abi::*;
use mesa_isa::{ArchState, Asm, Program, Xlen};
use mesa_mem::MemorySystem;
use mesa_test::{splitmix64, Rng};
use mesa_trace::NullTracer;
use mesa_workloads::{by_name, KernelSize};
use std::sync::Arc;

/// Trip count of every synthetic serving kernel: enough iterations to
/// clear loop detection (LSD warmup) and the C3 profitability floor of
/// 50 expected iterations, while keeping the accelerator run short.
const SYNTH_ITERS: u64 = 60;

/// The workloads kernels the load generator draws from (a serving-shaped
/// subset: all translate and offload cleanly at `Tiny` size).
pub const SERVE_KERNELS: [&str; 8] =
    ["nn", "pathfinder", "hotspot", "kmeans", "lud", "srad", "cfd", "backprop"];

/// Which program a request asks the service to offload.
#[derive(Debug, Clone)]
pub enum KernelSpec {
    /// A named workloads benchmark (e.g. `"nn"`) at a given size.
    Named {
        /// Kernel name, resolved via [`mesa_workloads::by_name`].
        name: String,
        /// Problem size.
        size: KernelSize,
    },
    /// A seed-generated synthetic loop: a dependent ALU chain of `nodes`
    /// operations between a load and a store, `SYNTH_ITERS` iterations.
    Synthetic {
        /// ALU chain length (mapping cost grows with it).
        nodes: u32,
        /// Kernel-shape seed (same seed ⇒ same machine code).
        seed: u64,
    },
}

/// Accelerator grid a request targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GridSpec {
    /// 64-PE fabric.
    M64,
    /// 128-PE fabric (the paper's default).
    M128,
    /// 512-PE fabric.
    M512,
    /// 512-PE fabric with an exhaustive full-grid mapper window: every
    /// free PE is a candidate for every node instead of the RTL's fixed
    /// 4×8 window. Mapping quality is maximal; Algorithm 1's row
    /// pruning keeps the map cost to the rows nearest each node's latest
    /// source. The warm-vs-cold soak bench serves this shape.
    M512Wide,
}

impl GridSpec {
    /// The grid names `--grid` accepts, in [`GridSpec::from_index`] order.
    pub const NAMES: [&'static str; 4] = ["m64", "m128", "m512", "m512w"];

    /// Grid for an index into [`GridSpec::NAMES`] (wraps, so any u64 —
    /// e.g. a loadgen pick — selects a valid grid).
    #[must_use]
    pub fn from_index(i: usize) -> Self {
        match i % 4 {
            0 => GridSpec::M64,
            1 => GridSpec::M128,
            2 => GridSpec::M512,
            _ => GridSpec::M512Wide,
        }
    }

    /// The display name (`m64`/`m128`/`m512`/`m512w`).
    #[must_use]
    pub fn name(self) -> &'static str {
        Self::NAMES[self as usize]
    }

    /// The matching [`SystemConfig`].
    #[must_use]
    pub fn system(self) -> SystemConfig {
        match self {
            GridSpec::M64 => SystemConfig::m64(),
            GridSpec::M128 => SystemConfig::m128(),
            GridSpec::M512 => SystemConfig::m512(),
            GridSpec::M512Wide => {
                let mut system = SystemConfig::m512();
                system.mapper.window_rows = system.accel.rows;
                system.mapper.window_cols = system.accel.cols;
                system
            }
        }
    }
}

/// One offload request: kernel, grid, data seed, tenant.
#[derive(Debug, Clone)]
pub struct ServeRequest {
    /// What to run.
    pub kernel: KernelSpec,
    /// Where to run it.
    pub grid: GridSpec,
    /// Seed for the synthetic input data (ignored by `Named` kernels,
    /// whose data image is part of the benchmark definition).
    pub data_seed: u64,
    /// Requesting tenant (labelling only in solo mode; fleet mode maps
    /// tenants onto fabric bands).
    pub tenant: u32,
}

/// The service's answer: figures-grade summary numbers plus the full
/// canonical rendering used for byte-identity checks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeResponse {
    /// Echo of the requesting tenant.
    pub tenant: u32,
    /// Resolved kernel label.
    pub kernel: String,
    /// Whether the offload produced a report (vs a typed decline).
    pub ok: bool,
    /// Iterations executed on the accelerator (0 on decline).
    pub accel_iterations: u64,
    /// Cycles the accelerator ran (0 on decline).
    pub accel_cycles: u64,
    /// Canonical rendering of the episode outcome: every scalar figure
    /// of the `OffloadReport` (or the typed decline) plus the complete
    /// final architectural state. Two responses are "the same result"
    /// iff these strings are byte-identical — the form the
    /// cache-invisibility property and `--selfcheck` compare. (Equality
    /// of the report's per-node vectors across cache states is proven
    /// separately by the mesa-core controller tests.)
    pub render: String,
}

/// Builds a deterministic synthetic serving kernel: `lw` feeding a
/// dependent chain of `nodes` ALU ops, a store, and the induction +
/// `bltu` closing pair, followed by an exit stub. Mapping cost grows
/// with the chain length — the shape the warm-vs-cold benchmark leans
/// on.
#[must_use]
pub fn synthetic_kernel(nodes: u32, seed: u64) -> (Program, ArchState) {
    let mut rng = Rng::seed_from_u64(seed ^ 0x5EED_5EED);
    let temps = [T0, T1, T2, T3, T4];
    let mut a = Asm::new(0x1000);
    a.label("loop");
    a.lw(T0, A0, 0);
    let mut prev = T0;
    for k in 0..nodes {
        let rd = temps[(k as usize + 1) % temps.len()];
        let rs2 = temps[rng.gen_range(0..temps.len())];
        match rng.gen_range(0..5) {
            0 => a.add(rd, prev, rs2),
            1 => a.sub(rd, prev, rs2),
            2 => a.xor(rd, prev, rs2),
            3 => a.or(rd, prev, rs2),
            _ => a.addi(rd, prev, rng.gen_range(-32..32)),
        };
        prev = rd;
    }
    a.sw(prev, A4, 0);
    a.addi(A4, A4, 4);
    a.addi(A0, A0, 4);
    a.bltu(A0, A1, "loop");
    a.li(A7, 93);
    a.ecall();
    let program = a.finish().expect("synthetic serving loop assembles");

    let mut st = ArchState::new(0x1000, Xlen::Rv32);
    for r in [T0, T1, T2, T3, T4] {
        st.write(r, u64::from(rng.gen::<u32>() % 1000));
    }
    st.write(A0, ARR_A);
    st.write(A1, ARR_A + 4 * SYNTH_ITERS);
    st.write(A4, ARR_OUT);
    (program, st)
}

/// Materializes a request into a runnable (label, program, entry state,
/// populated memory) quadruple.
///
/// # Errors
/// Returns a message for requests naming an unknown kernel.
fn materialize(
    req: &ServeRequest,
    system: &SystemConfig,
) -> Result<(String, Program, ArchState, MemorySystem), String> {
    match &req.kernel {
        KernelSpec::Named { name, size } => {
            let kernel =
                by_name(name, *size).ok_or_else(|| format!("unknown kernel {name:?}"))?;
            let mut mem = MemorySystem::new(system.mem, 2);
            kernel.populate(mem.data_mut());
            Ok((kernel.name.to_string(), kernel.program, kernel.entry, mem))
        }
        KernelSpec::Synthetic { nodes, seed } => {
            let (program, entry) = synthetic_kernel(*nodes, *seed);
            let mut mem = MemorySystem::new(system.mem, 2);
            let mut rng = Rng::seed_from_u64(req.data_seed ^ 0xDA7A);
            for i in 0..SYNTH_ITERS {
                mem.data_mut().store_u32(ARR_A + 4 * i, rng.gen::<u32>() % 10_000);
            }
            Ok((format!("synth{nodes}x{seed:#x}"), program, entry, mem))
        }
    }
}

/// Runs one request, through the shared cache when one is given, with
/// CPU warmup fast-forwarded when `fast_forward` is set.
fn run_request(
    req: &ServeRequest,
    cache: Option<&Arc<SharedArtifactCache>>,
    fast_forward: bool,
) -> ServeResponse {
    let system = SystemConfig { fast_forward, ..req.grid.system() };
    let (label, program, mut state, mut mem) = match materialize(req, &system) {
        Ok(parts) => parts,
        Err(msg) => {
            return ServeResponse {
                tenant: req.tenant,
                kernel: "?".to_string(),
                ok: false,
                accel_iterations: 0,
                accel_cycles: 0,
                render: format!("request error: {msg}"),
            }
        }
    };
    let opts = RunOptions { faults: None, cache: cache.cloned() };
    let result = run_offload_with(&program, &mut state, &mut mem, &system, &opts, &mut NullTracer);
    let (ok, accel_iterations, accel_cycles) = match &result {
        Ok(r) => (true, r.accel_iterations, r.accel_cycles),
        Err(_) => (false, 0, 0),
    };
    // Render the episode's observable outcome: every scalar figure of the
    // report plus the complete final architectural state. The full
    // `OffloadReport` Debug form (placement/counters vectors, ~23 KiB) is
    // deliberately left out of the hot path — it costs more to format
    // than a cache hit saves, and cold/warm/solo equality of the *whole*
    // report is proven field-for-field by the mesa-core controller tests.
    let render = match &result {
        Ok(r) => format!(
            "{label} grid={} warmup={}/{}ff cfg={:?} overlap={}/{} reconf={}/{} \
             accel={}c/{}i tiles={} pipe={} unmapped={} exp={} est={} cached={} \
             reopt={} tenant={} migr={} || {state:?}",
            req.grid.name(),
            r.warmup_cycles,
            r.ff_instrs,
            r.config,
            r.config_phase_cpu_cycles,
            r.cpu_iterations_during_config,
            r.reconfig_cycles,
            r.reconfigurations,
            r.accel_cycles,
            r.accel_iterations,
            r.tiles,
            r.pipelined,
            r.unmapped_nodes,
            r.expected_iterations,
            r.initial_estimate,
            r.from_cache,
            r.reopt_rounds.len(),
            r.tenant,
            r.migrations,
        ),
        Err(e) => format!("{label} grid={} {e:?} || {state:?}", req.grid.name()),
    };
    ServeResponse {
        tenant: req.tenant,
        kernel: label.clone(),
        ok,
        accel_iterations,
        accel_cycles,
        render,
    }
}

/// The reference path: the same request served with **no** shared cache,
/// exactly like the one-shot `inspect`/`run_offload` flow. Any
/// [`ServeEngine::new`] response must be byte-identical to this
/// ([`ServeEngine::reference`] is the same path for any engine).
#[must_use]
pub fn one_shot(req: &ServeRequest) -> ServeResponse {
    run_request(req, None, false)
}

/// The long-running service: an in-process request queue front-end over
/// the scoped-thread worker pool, with one generation-keyed
/// [`SharedArtifactCache`] shared by every request it ever serves.
#[derive(Debug, Default)]
pub struct ServeEngine {
    cache: Arc<SharedArtifactCache>,
    /// Every request fast-forwards its CPU warmup
    /// (`mesa-serve --fast-forward`).
    fast_forward: bool,
}

impl ServeEngine {
    /// A fresh engine with an empty (cold) cache.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// A fresh engine whose requests and fleets run their CPU warmup
    /// through the functional fast-forward interpreter when
    /// `fast_forward` is set.
    #[must_use]
    pub fn with_fast_forward(fast_forward: bool) -> Self {
        ServeEngine { fast_forward, ..Self::default() }
    }

    /// The engine's shared cache (e.g. to hand to fleet mode, so banded
    /// tenants and solo requests warm each other).
    #[must_use]
    pub fn cache(&self) -> &Arc<SharedArtifactCache> {
        &self.cache
    }

    /// Cumulative cache counters across everything served so far.
    #[must_use]
    pub fn stats(&self) -> ArtifactCacheStats {
        self.cache.stats()
    }

    /// Serves one request.
    #[must_use]
    pub fn handle(&self, req: &ServeRequest) -> ServeResponse {
        run_request(req, Some(&self.cache), self.fast_forward)
    }

    /// The uncached reference for this engine's responses: `req` served
    /// with no shared cache, under the engine's fast-forward setting.
    /// [`ServeEngine::handle`] must be byte-identical to it.
    #[must_use]
    pub fn reference(&self, req: &ServeRequest) -> ServeResponse {
        run_request(req, None, self.fast_forward)
    }

    /// Serves a batch over the worker pool ([`crate::pool::par_map`]),
    /// returning responses in request order. Because the shared cache is
    /// architecturally invisible, the responses are byte-identical at any
    /// `--jobs N` and any prior cache state.
    #[must_use]
    pub fn handle_batch(&self, reqs: Vec<ServeRequest>) -> Vec<ServeResponse> {
        crate::pool::par_map(reqs, |req| self.handle(&req))
    }

    /// Fleet mode: admits `tenants` seed-derived workloads onto one
    /// shared M-128 fabric (the same `tenant_jobs` derivation `soak` and
    /// `mesa-top` replay), with every tenant controller wired to this
    /// engine's cache — so banded tenants hit artifacts that earlier solo
    /// requests (or each other) populated. The returned run's
    /// `stats.artifacts` carries the cache counters.
    #[must_use]
    pub fn serve_fleet(&self, seed: u64, tenants: usize, migrate_every: u64) -> FleetRun {
        let system = SystemConfig { fast_forward: self.fast_forward, ..SystemConfig::m128() };
        let (quantum, named) = tenant_jobs(seed, tenants);
        let mut jobs: Vec<TenantJob> = named.into_iter().map(|(_, j)| j).collect();
        let cache = Some(self.cache.clone());
        run_tenants_fleet(&system, &mut jobs, quantum, migrate_every, cache, &mut NullTracer)
    }
}

/// Deterministic request mix for the load generator and soak client:
/// `n` requests drawn from a pool of `pool` named kernels plus a small
/// family of synthetic loops, on `grid`, round-robining 4 tenants. A
/// pool smaller than `n` guarantees repeats, which is what exercises the
/// cross-request cache.
#[must_use]
pub fn loadgen(seed: u64, n: usize, pool: usize, grid: GridSpec) -> Vec<ServeRequest> {
    let pool = pool.clamp(1, SERVE_KERNELS.len());
    let mut s = seed ^ 0x5E4E_C0DE;
    (0..n)
        .map(|i| {
            let pick = splitmix64(&mut s);
            let kernel = if pick % 4 == 3 {
                KernelSpec::Synthetic { nodes: 6 + (pick >> 8) as u32 % 6, seed: (pick >> 32) % 4 }
            } else {
                KernelSpec::Named {
                    name: SERVE_KERNELS[(pick >> 16) as usize % pool].to_string(),
                    size: KernelSize::Tiny,
                }
            };
            ServeRequest { kernel, grid, data_seed: splitmix64(&mut s), tenant: (i % 4) as u32 }
        })
        .collect()
}

/// The repeat request the warm-vs-cold benchmark serves: a synthetic
/// chain (160 dependent ALU nodes) on the exhaustive-window 512-PE grid,
/// whose detect, translate and map a warm cache hit skips.
#[must_use]
pub fn bench_request(data_seed: u64) -> ServeRequest {
    ServeRequest {
        kernel: KernelSpec::Synthetic { nodes: 160, seed: 7 },
        grid: GridSpec::M512Wide,
        data_seed,
        tenant: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loadgen_is_deterministic_and_mixed() {
        let a = loadgen(11, 32, 4, GridSpec::M128);
        let b = loadgen(11, 32, 4, GridSpec::M128);
        assert_eq!(a.len(), 32);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(format!("{x:?}"), format!("{y:?}"));
        }
        let named = a
            .iter()
            .filter(|r| matches!(r.kernel, KernelSpec::Named { .. }))
            .count();
        assert!(named > 0 && named < 32, "mix must contain both kinds ({named} named)");
        assert!(a.iter().any(|r| r.tenant != a[0].tenant), "multiple tenants");
    }

    /// The service's core contract: warm responses are byte-identical to
    /// cold ones and to the uncached one-shot path, while the repeat
    /// kernel actually hits the cache.
    #[test]
    fn served_responses_are_byte_identical_to_one_shot() {
        let engine = ServeEngine::new();
        let req = ServeRequest {
            kernel: KernelSpec::Named { name: "nn".to_string(), size: KernelSize::Tiny },
            grid: GridSpec::M128,
            data_seed: 3,
            tenant: 1,
        };
        let cold = engine.handle(&req);
        assert!(cold.ok, "{}", cold.render);
        assert_eq!(engine.stats().hits(), 0);
        let warm = engine.handle(&req);
        assert!(engine.stats().artifact_hits > 0, "repeat must hit the artifact cache");
        assert_eq!(cold, warm, "cache state leaked into the response");
        assert_eq!(cold, one_shot(&req), "shared path diverged from the one-shot path");
    }

    #[test]
    fn synthetic_kernels_offload_and_are_cache_keyed_by_shape() {
        let engine = ServeEngine::new();
        let r1 = engine.handle(&ServeRequest {
            kernel: KernelSpec::Synthetic { nodes: 8, seed: 1 },
            grid: GridSpec::M128,
            data_seed: 5,
            tenant: 0,
        });
        assert!(r1.ok, "{}", r1.render);
        assert!(r1.accel_iterations > 0);
        // Same shape, different data: the code artifacts are reusable.
        let r2 = engine.handle(&ServeRequest {
            kernel: KernelSpec::Synthetic { nodes: 8, seed: 1 },
            grid: GridSpec::M128,
            data_seed: 6,
            tenant: 2,
        });
        assert!(r2.ok, "{}", r2.render);
        assert!(engine.stats().artifact_hits > 0, "same-shape request must hit");
        // Different shape at the same PCs: must not collide.
        let r3 = engine.handle(&ServeRequest {
            kernel: KernelSpec::Synthetic { nodes: 9, seed: 1 },
            grid: GridSpec::M128,
            data_seed: 5,
            tenant: 0,
        });
        assert!(r3.ok, "{}", r3.render);
        assert_eq!(
            r3,
            one_shot(&ServeRequest {
                kernel: KernelSpec::Synthetic { nodes: 9, seed: 1 },
                grid: GridSpec::M128,
                data_seed: 5,
                tenant: 0,
            }),
            "rewritten region served a stale artifact"
        );
    }

    #[test]
    fn batches_match_per_request_one_shots() {
        let engine = ServeEngine::new();
        let reqs = loadgen(3, 12, 3, GridSpec::M128);
        let responses = engine.handle_batch(reqs.clone());
        assert_eq!(responses.len(), reqs.len());
        for (resp, req) in responses.iter().zip(&reqs) {
            assert_eq!(resp, &one_shot(req), "batch response diverged for {req:?}");
        }
        let stats = engine.stats();
        assert!(stats.hits() > 0, "a 12-request mix over a 3-kernel pool must repeat");
    }

    #[test]
    fn fleet_mode_exports_cache_counters() {
        let engine = ServeEngine::new();
        let run = engine.serve_fleet(2, 2, 3);
        assert_eq!(run.outcomes.len(), 2);
        let artifacts = run.stats.artifacts.expect("shared fleet exports cache stats");
        assert!(artifacts.misses() > 0, "cold fleet must miss");
        let json = run.stats.to_json();
        assert!(json.get("artifact_cache").is_some(), "{json}");
    }
}
