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

fn bench_engine(suite: &mut BenchSuite) {
    let (kernel, sa, prog) = nn_engine_setup();
    suite.run_cycles("engine/nn_512_iterations_on_m128", 20, || {
        let mut mem = MemorySystem::new(MemConfig::default(), 1);
        kernel.populate(mem.data_mut());
        black_box(
            sa.execute(&prog, &kernel.entry, &mut mem, 0, 1_000_000)
                .expect("runs"),
        )
        .cycles
    });
}

/// The same engine workload as a solo session through
/// [`SpatialAccelerator::run_session`] with a [`NullTracer`]:
/// `scripts/ci.sh` gates this against the plain run above, so the
/// disabled-tracing fast path stays free.
fn bench_engine_null_tracer(suite: &mut BenchSuite) {
    let (kernel, sa, prog) = nn_engine_setup();
    let faults = FaultPlan::none();
    let req = SessionRequest::solo(0, 1_000_000, &faults, sa.config().grid());
    suite.run_cycles("tracer/null_engine_nn_on_m128", 20, || {
        let mut mem = MemorySystem::new(MemConfig::default(), 1);
        kernel.populate(mem.data_mut());
        black_box(
            sa.run_session(&prog, &kernel.entry, &mut mem, &req, None, &mut NullTracer, 0)
                .expect("runs")
                .into_result(&prog),
        )
        .cycles
    });
}

/// The same engine workload as a single tenant of a [`FabricManager`]:
/// admission, band placement, session bookkeeping, and completion tracking
/// on top of the raw engine run. `scripts/ci.sh` and `scripts/bench_diff.sh`
/// gate this against `engine/nn_512_iterations_on_m128`, so virtualizing
/// the fabric stays within 10% of the pre-fabric baseline for the solo
/// case everyone else pays for.
fn bench_fabric(suite: &mut BenchSuite) {
    let (kernel, _sa, prog) = nn_engine_setup();
    let cfg = AccelConfig::m128();
    suite.run_cycles("fabric/nn_single_tenant_session_on_m128", 20, || {
        let mut mem = MemorySystem::new(MemConfig::default(), 1);
        kernel.populate(mem.data_mut());
        let mut manager = FabricManager::new(cfg);
        let (id, _) = manager
            .admit(prog.clone(), kernel.entry.clone(), FaultPlan::none(), 1_000_000)
            .expect("admits");
        match black_box(
            manager
                .advance(id, &mut mem, 0, u64::MAX, &mut NullTracer, 0)
                .expect("runs"),
        ) {
            TenantProgress::Paused(cycles) | TenantProgress::Completed(cycles) => cycles,
            TenantProgress::Queued => 0,
        }
    });

    // The same episode advanced in fixed ~1,000-cycle quanta (about 24
    // slices): every slice resumes from and re-freezes a snapshot, so the
    // ratio to the single-session run above is the per-slice overhead
    // (gated by ci.sh).
    suite.run_cycles("fabric/nn_sliced_session_on_m128", 20, || {
        let mut mem = MemorySystem::new(MemConfig::default(), 1);
        kernel.populate(mem.data_mut());
        let mut manager = FabricManager::new(cfg);
        let (id, _) = manager
            .admit(prog.clone(), kernel.entry.clone(), FaultPlan::none(), 1_000_000)
            .expect("admits");
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
    });

    // Checkpoint + restore round trip of a tenant frozen mid-episode: the
    // snapshot wire format (serialize, checksum, decode) plus the
    // compatibility re-validation against the tenant's binding.
    let mut mem = MemorySystem::new(MemConfig::default(), 1);
    kernel.populate(mem.data_mut());
    let mut manager = FabricManager::new(cfg);
    let (id, _) = manager
        .admit(prog, kernel.entry.clone(), FaultPlan::none(), 1_000_000)
        .expect("admits");
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
    // Reference: the same run loop with fusion off, every micro-op through
    // `step` and the generic timing arm. The fused run is timing-identical,
    // so `pathfinder_fused / pathfinder_tiny_to_halt` measures the fast
    // paths' simulator speedup (gated ≤ 0.75 by ci.sh).
    suite.run_cycles("ooo_core/pathfinder_tiny_to_halt", 20, || {
        let mut mem = MemorySystem::new(MemConfig::default(), 1);
        kernel.populate(mem.data_mut());
        let mut state = kernel.entry.clone();
        let mut cpu = OoOCore::new(CoreConfig { fusion: false, ..CoreConfig::boom_baseline() });
        black_box(cpu.run(
            &kernel.program,
            &mut state,
            &mut mem,
            0,
            RunLimits::none(),
            &mut NullMonitor,
        ))
        .cycles
    });
    suite.run_cycles("ooo_core/pathfinder_fused", 20, || {
        let mut mem = MemorySystem::new(MemConfig::default(), 1);
        kernel.populate(mem.data_mut());
        let mut state = kernel.entry.clone();
        let mut cpu = OoOCore::new(CoreConfig::boom_baseline());
        black_box(cpu.run(
            &kernel.program,
            &mut state,
            &mut mem,
            0,
            RunLimits::none(),
            &mut NullMonitor,
        ))
        .cycles
    });
    // Whole-program hybrid fast-forward: interpreter speed outside the
    // sampled hot-loop windows (gated ≤ 0.40 of the fusion-off run by ci.sh).
    suite.run_cycles("cpu/pathfinder_full_fastfwd", 20, || {
        let mut mem = MemorySystem::new(MemConfig::default(), 1);
        kernel.populate(mem.data_mut());
        let mut state = kernel.entry.clone();
        let mut cpu = HybridCpu::new(CoreConfig::boom_baseline());
        black_box(cpu.run(
            &kernel.program,
            &mut state,
            &mut mem,
            0,
            RunLimits::none(),
            &mut NullMonitor,
        ))
        .cycles
    });
}

/// The same full offload episode with the host span profiler off and
/// then on (real clock, per-span allocation deltas included): the
/// `host/*_profiled` vs `host/*_off` ratio is gated at ≤ 1.05 by
/// `scripts/ci.sh` and `scripts/bench_diff.sh`. Measuring both sides in
/// one process run cancels machine-speed noise out of the ratio.
fn bench_host_profiler(suite: &mut BenchSuite) {
    let kernel = by_name("nn", KernelSize::Tiny).expect("nn");
    let system = SystemConfig::m128();
    suite.run_cycles("host/offload_nn_on_m128_off", 20, || {
        mesa_bench::mesa_offload(&kernel, &system, mesa_bench::BASELINE_CORES).cycles
    });
    host::enable(host::ClockSpec::Real);
    host::install();
    suite.run_cycles("host/offload_nn_on_m128_profiled", 20, || {
        mesa_bench::mesa_offload(&kernel, &system, mesa_bench::BASELINE_CORES).cycles
    });
    let _ = host::take();
    host::disable();
}

/// Warm-vs-cold serving episodes over the shared artifact cache. The
/// bench request is the map-heavy repeat kernel (`bench_request`): cold
/// serves it from a fresh engine each rep (every detect → translate →
/// map runs), warm serves it from one persistent engine (artifacts come
/// from the cache, only the simulated phases run). `scripts/ci.sh`
/// gates warm at ≤ 0.77× cold (≥ 1.3× episodes/sec).
fn bench_serve(suite: &mut BenchSuite) {
    use mesa_bench::serve::{bench_request, ServeEngine};
    // The serving layer fast-forwards warmup by default in production
    // use; pin it on for the pair and restore so other benches keep
    // their configuration.
    let was_ff = mesa_core::fast_forward_enabled();
    mesa_core::set_fast_forward(true);
    let mut i = 0u64;
    suite.run("serve/repeat_kernel_cold", 48, || {
        let engine = ServeEngine::new();
        i += 1;
        let r = engine.handle(&bench_request(i));
        assert!(r.ok, "bench kernel must offload: {}", r.render);
        black_box(r)
    });
    let engine = ServeEngine::new();
    let prime = engine.handle(&bench_request(u64::MAX));
    assert!(prime.ok, "bench kernel must offload: {}", prime.render);
    let mut j = 0u64;
    suite.run("serve/repeat_kernel_warm", 48, || {
        j += 1;
        let r = engine.handle(&bench_request(j));
        assert!(r.ok, "bench kernel must offload: {}", r.render);
        black_box(r)
    });
    assert!(engine.stats().hits() > 0, "warm side must hit the shared cache");
    mesa_core::set_fast_forward(was_ff);
}

fn main() {
    mesa_trace::alloc::set_counting(true);
    let mut suite = BenchSuite::new();
    bench_codec(&mut suite);
    bench_ldfg_build(&mut suite);
    bench_mapper(&mut suite);
    bench_engine(&mut suite);
    bench_engine_null_tracer(&mut suite);
    bench_fabric(&mut suite);
    bench_ooo_core(&mut suite);
    bench_host_profiler(&mut suite);
    bench_serve(&mut suite);
    let out = std::env::var("MESA_BENCH_OUT").ok().filter(|p| !p.is_empty());
    let out = out.as_deref().unwrap_or(OUT_PATH);
    suite.write_json(out).expect("writes the bench suite JSON");
    println!("wrote {out}");
}
