//! Micro-benchmarks of MESA's individual hardware-algorithm components:
//! LDFG construction, the Algorithm-1 mapper, the accelerator engine, the
//! OoO core model, and the instruction codec. These track the simulator's
//! own performance (useful when extending the repo), independent of the
//! paper's figures.
//!
//! Run with `cargo bench --bench components`. Each benchmark prints one
//! JSON line, and the whole suite is written to `BENCH_components.json`
//! at the repository root so performance can be diffed across commits
//! (set `MESA_BENCH_OUT=<path>` to write elsewhere — `scripts/bench_diff.sh`
//! uses this to compare a fresh run against the committed baseline).

use mesa_accel::{AccelConfig, Coord, FaultPlan, SessionRequest, SpatialAccelerator};
use mesa_bench::serve::{bench_request, synthetic_kernel, KernelSpec, ServeEngine};
use mesa_core::{
    analyze_memopts, build_accel_program, map_instructions, FabricManager, Ldfg, MapperConfig,
    OptFlags, SystemConfig, TenantProgress,
};
use mesa_cpu::{CoreConfig, HybridCpu, NullMonitor, OoOCore, RunLimits};
use mesa_isa::{codec, OpClass};
use mesa_mem::{MemConfig, MemorySystem};
use mesa_test::BenchSuite;
use mesa_trace::{host, NullTracer};
use mesa_workloads::{by_name, KernelSize};
use std::hint::black_box;

/// Counting allocator, switched on for the whole suite so the
/// `host/*_off` vs `host/*_profiled` pair isolates the span profiler's
/// overhead (both sides pay the same allocation-accounting cost).
#[global_allocator]
static ALLOC: mesa_trace::CountingAlloc = mesa_trace::CountingAlloc;

const OUT_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_components.json");

fn region(kernel: &str) -> mesa_isa::Program {
    let k = by_name(kernel, KernelSize::Tiny).expect("kernel");
    let (start, end) = k.loop_region();
    let base = ((start - k.program.base_pc) / 4) as usize;
    let len = ((end - start) / 4) as usize;
    mesa_isa::Program {
        base_pc: start,
        instrs: k.program.instrs[base..base + len].to_vec(),
        annotations: vec![],
    }
}

fn bench_codec(suite: &mut BenchSuite) {
    let words: Vec<u32> = region("srad").encode().expect("encodes");
    suite.run("codec/decode_srad_body", 2_000, || {
        for &w in &words {
            black_box(codec::decode(w).expect("valid"));
        }
    });
}

fn bench_ldfg_build(suite: &mut BenchSuite) {
    let r = region("srad");
    suite.run("ldfg/build_srad_body", 1_000, || {
        black_box(Ldfg::build(&r).expect("builds"))
    });
}

fn bench_mapper(suite: &mut BenchSuite) {
    let r = region("srad");
    let ldfg = Ldfg::build(&r).expect("builds");
    let accel = AccelConfig::m128();
    let sa = SpatialAccelerator::new(accel);
    let supports = |coord: Coord, class: OpClass| accel.supports(coord, class);
    suite.run("mapper/algorithm1_srad_on_m128", 500, || {
        black_box(map_instructions(
            &ldfg,
            accel.grid(),
            &supports,
            sa.latency_model(),
            &MapperConfig::default(),
        ))
    });

    // The serve benches' 160-node chain on the exhaustive-window m512w
    // grid: every free PE of the 64×8 grid is in every node's window, so
    // this times Algorithm 1's row pruning rather than a small window.
    let req = bench_request(0);
    let KernelSpec::Synthetic { nodes, seed } = req.kernel else {
        unreachable!("the serve bench request is a synthetic chain")
    };
    let (mut chain, _) = synthetic_kernel(nodes, seed);
    let loop_end = chain.instrs.iter().position(|i| i.op.is_branch()).expect("loop branch");
    chain.instrs.truncate(loop_end + 1);
    let ldfg = Ldfg::build(&chain).expect("builds");
    let system = req.grid.system();
    let accel = system.accel;
    let sa = SpatialAccelerator::new(accel);
    let supports = |coord: Coord, class: OpClass| accel.supports(coord, class);
    suite.run("mapper/algorithm1_chain_on_m512w", 200, || {
        black_box(map_instructions(
            &ldfg,
            accel.grid(),
            &supports,
            sa.latency_model(),
            &system.mapper,
        ))
    });
}

fn nn_engine_setup() -> (mesa_workloads::Kernel, SpatialAccelerator, mesa_accel::AccelProgram) {
    let kernel = by_name("nn", KernelSize::Tiny).expect("nn");
    let r = region("nn");
    let ldfg = Ldfg::build(&r).expect("builds");
    let accel_cfg = AccelConfig::m128();
    let sa = SpatialAccelerator::new(accel_cfg);
    let supports = |coord: Coord, class: OpClass| accel_cfg.supports(coord, class);
    let sdfg = map_instructions(
        &ldfg,
        accel_cfg.grid(),
        &supports,
        sa.latency_model(),
        &MapperConfig::default(),
    );
    let plan = analyze_memopts(&ldfg);
    let prog = build_accel_program(
        &ldfg,
        &sdfg,
        Some(&plan),
        None,
        &accel_cfg,
        &OptFlags::none(),
        kernel.iterations,
    );
    (kernel, sa, prog)
}

/// The nn engine episode four ways, interleaved so the gated ratios
/// between them see one host speed:
/// - `engine/nn_512_iterations_on_m128`: the plain `execute` run.
/// - `tracer/null_engine_nn_on_m128`: a solo session through
///   [`SpatialAccelerator::run_session`] with a [`NullTracer`], gated
///   against the plain run so the disabled-tracing fast path stays free.
/// - `fabric/nn_single_tenant_session_on_m128`: a single tenant of a
///   [`FabricManager`] (admission, band placement, session bookkeeping,
///   completion tracking), gated within 10% of the plain run so
///   virtualizing the fabric stays cheap for the solo case.
/// - `fabric/nn_sliced_session_on_m128`: the same tenant advanced in
///   fixed ~1,000-cycle quanta (about 24 slices), each resuming from and
///   re-freezing a snapshot; its ratio to the single session is the
///   per-slice overhead.
///
/// The gates live in `scripts/bench_gates.sh`.
fn bench_engine_and_fabric(suite: &mut BenchSuite) {
    let (kernel, sa, prog) = nn_engine_setup();
    let cfg = AccelConfig::m128();
    let faults = FaultPlan::none();
    let req = SessionRequest::solo(0, 1_000_000, &faults, sa.config().grid());
    let fresh_mem = || {
        let mut mem = MemorySystem::new(MemConfig::default(), 1);
        kernel.populate(mem.data_mut());
        mem
    };
    let admitted = || {
        let mut manager = FabricManager::new(cfg);
        let (id, _) = manager
            .admit(prog.clone(), kernel.entry.clone(), FaultPlan::none(), 1_000_000)
            .expect("admits");
        (manager, id)
    };
    let mut plain = || {
        let mut mem = fresh_mem();
        black_box(sa.execute(&prog, &kernel.entry, &mut mem, 0, 1_000_000).expect("runs")).cycles
    };
    let mut null_traced = || {
        let mut mem = fresh_mem();
        black_box(
            sa.run_session(&prog, &kernel.entry, &mut mem, &req, None, &mut NullTracer, 0)
                .expect("runs")
                .into_result(&prog),
        )
        .cycles
    };
    let mut single_tenant = || {
        let mut mem = fresh_mem();
        let (mut manager, id) = admitted();
        match black_box(
            manager
                .advance(id, &mut mem, 0, u64::MAX, &mut NullTracer, 0)
                .expect("runs"),
        ) {
            TenantProgress::Paused(cycles) | TenantProgress::Completed(cycles) => cycles,
            TenantProgress::Queued => 0,
        }
    };
    let mut sliced = || {
        let mut mem = fresh_mem();
        let (mut manager, id) = admitted();
        loop {
            match black_box(
                manager
                    .advance(id, &mut mem, 0, 1_000, &mut NullTracer, 0)
                    .expect("runs"),
            ) {
                TenantProgress::Paused(_) => {}
                TenantProgress::Completed(cycles) => break cycles,
                TenantProgress::Queued => break 0,
            }
        }
    };
    suite.run_group(
        20,
        true,
        &mut [
            ("engine/nn_512_iterations_on_m128", &mut plain),
            ("tracer/null_engine_nn_on_m128", &mut null_traced),
            ("fabric/nn_single_tenant_session_on_m128", &mut single_tenant),
            ("fabric/nn_sliced_session_on_m128", &mut sliced),
        ],
    );

    // Checkpoint + restore round trip of a tenant frozen mid-episode: the
    // snapshot wire format (serialize, checksum, decode) plus the
    // compatibility re-validation against the tenant's binding.
    let mut mem = MemorySystem::new(MemConfig::default(), 1);
    kernel.populate(mem.data_mut());
    let (mut manager, id) = admitted();
    let progress = manager
        .advance(id, &mut mem, 0, 64, &mut NullTracer, 0)
        .expect("first slice");
    assert!(matches!(progress, TenantProgress::Paused(_)), "must freeze: {progress:?}");
    suite.run("fabric/nn_checkpoint_restore_roundtrip", 2_000, || {
        let words = manager.checkpoint(id).expect("frozen");
        manager.restore(id, black_box(&words)).expect("restores");
    });
}

fn bench_ooo_core(suite: &mut BenchSuite) {
    let kernel = by_name("pathfinder", KernelSize::Tiny).expect("pathfinder");
    let fresh = || {
        let mut mem = MemorySystem::new(MemConfig::default(), 1);
        kernel.populate(mem.data_mut());
        (kernel.entry.clone(), mem)
    };
    // Reference: the same run loop with fusion off, every micro-op through
    // `step` and the generic timing arm. The fused run is timing-identical,
    // so `pathfinder_fused / pathfinder_tiny_to_halt` measures the fast
    // paths' simulator speedup (gated ≤ 0.75 by ci.sh).
    let mut unfused = || {
        let (mut state, mut mem) = fresh();
        let mut cpu = OoOCore::new(CoreConfig { fusion: false, ..CoreConfig::boom_baseline() });
        let limits = RunLimits::none();
        black_box(cpu.run(&kernel.program, &mut state, &mut mem, 0, limits, &mut NullMonitor))
            .cycles
    };
    let mut fused = || {
        let (mut state, mut mem) = fresh();
        let mut cpu = OoOCore::new(CoreConfig::boom_baseline());
        let limits = RunLimits::none();
        black_box(cpu.run(&kernel.program, &mut state, &mut mem, 0, limits, &mut NullMonitor))
            .cycles
    };
    // Whole-program hybrid fast-forward: interpreter speed outside the
    // sampled hot-loop windows (gated ≤ 0.40 of the fusion-off run by ci.sh).
    let mut fastfwd = || {
        let (mut state, mut mem) = fresh();
        let mut cpu = HybridCpu::new(CoreConfig::boom_baseline());
        let limits = RunLimits::none();
        black_box(cpu.run(&kernel.program, &mut state, &mut mem, 0, limits, &mut NullMonitor))
            .cycles
    };
    suite.run_group(
        20,
        true,
        &mut [
            ("ooo_core/pathfinder_tiny_to_halt", &mut unfused),
            ("ooo_core/pathfinder_fused", &mut fused),
            ("cpu/pathfinder_full_fastfwd", &mut fastfwd),
        ],
    );
}

/// The same full offload episode with the host span profiler off and
/// then on (real clock, per-span allocation deltas included): the
/// `host/*_profiled` vs `host/*_off` ratio is gated at ≤ 1.05 by
/// `scripts/ci.sh` and `scripts/bench_diff.sh`. One profiler stays
/// installed for the pair and each side switches profiling on or off
/// before its episode, so the two interleave.
fn bench_host_profiler(suite: &mut BenchSuite) {
    let kernel = by_name("nn", KernelSize::Tiny).expect("nn");
    let system = SystemConfig::m128();
    let episode = |profiled: bool| {
        if profiled {
            host::enable(host::ClockSpec::Real);
        } else {
            host::disable();
        }
        mesa_bench::mesa_offload(&kernel, &system, mesa_bench::BASELINE_CORES).cycles
    };
    host::enable(host::ClockSpec::Real);
    host::install();
    let (mut off, mut profiled) = (|| episode(false), || episode(true));
    suite.run_group(
        20,
        true,
        &mut [
            ("host/offload_nn_on_m128_off", &mut off),
            ("host/offload_nn_on_m128_profiled", &mut profiled),
        ],
    );
    let _ = host::take();
    host::disable();
}

/// Warm-vs-cold serving episodes over the shared artifact cache,
/// interleaved. The bench request is the repeat kernel (`bench_request`):
/// cold serves it from a fresh engine each rep (every detect → translate
/// → map runs), warm serves it from one persistent engine (artifacts come
/// from the cache, only the simulated phases run). `scripts/ci.sh` gates
/// warm against cold.
fn bench_serve(suite: &mut BenchSuite) {
    // Both sides fast-forward warmup, as `mesa-serve --fast-forward`
    // does.
    let serve = |engine: &ServeEngine, data_seed: u64| {
        let r = engine.handle(&bench_request(data_seed));
        assert!(r.ok, "bench kernel must offload: {}", r.render);
        black_box(r);
        0
    };
    let warm_engine = ServeEngine::with_fast_forward(true);
    serve(&warm_engine, u64::MAX);
    let (mut i, mut j) = (0u64, 0u64);
    let mut cold = || {
        i += 1;
        serve(&ServeEngine::with_fast_forward(true), i)
    };
    let mut warm = || {
        j += 1;
        serve(&warm_engine, j)
    };
    suite.run_group(
        48,
        false,
        &mut [("serve/repeat_kernel_cold", &mut cold), ("serve/repeat_kernel_warm", &mut warm)],
    );
    assert!(warm_engine.stats().hits() > 0, "warm side must hit the shared cache");
}

fn main() {
    mesa_trace::alloc::set_counting(true);
    let mut suite = BenchSuite::new();
    bench_codec(&mut suite);
    bench_ldfg_build(&mut suite);
    bench_mapper(&mut suite);
    bench_engine_and_fabric(&mut suite);
    bench_ooo_core(&mut suite);
    bench_host_profiler(&mut suite);
    bench_serve(&mut suite);
    let out = std::env::var("MESA_BENCH_OUT").ok().filter(|p| !p.is_empty());
    let out = out.as_deref().unwrap_or(OUT_PATH);
    suite.write_json(out).expect("writes the bench suite JSON");
    println!("wrote {out}");
}
