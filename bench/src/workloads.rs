//! The four workloads: seeded op sequences over the repository's public
//! entry points, plus the oracles that check what the ops produced.
//!
//! Every sequence is built from *cycles*: a cycle is one seed-shuffled
//! pass over a fixed, balanced set of inputs (the serving pool, the 16
//! Rodinia kernels, ...). Phases always run whole cycles, so the mix of
//! work in a run is the same for every seed; the seed only decides order,
//! data and shapes. That keeps the end-to-end numbers comparable across
//! seeds.

use crate::runner::OpRec;
use mesa_bench::serve::{
    one_shot, GridSpec, KernelSpec, ServeEngine, ServeRequest, ServeResponse, SERVE_KERNELS,
};
use mesa_core::{
    run_offload, run_tenants_fleet_shared, ArtifactCacheStats, FleetRun, MesaController, MesaError,
    OffloadReport, SharedArtifactCache, SystemConfig, TenantJob,
};
use mesa_cpu::OoOCore;
use mesa_isa::{ArchState, MemoryIo};
use mesa_mem::MemorySystem;
use mesa_test::{splitmix64, Rng};
use mesa_trace::{host, NullTracer};
use mesa_workloads::{all, run_functional, Kernel, KernelSize, DATA_OUT};
use std::sync::Arc;

/// Workload names, in the order a full run executes them.
pub const NAMES: [&str; 4] = ["serve-hot", "serve-cold", "program-large", "fleet-migrate"];

/// Node counts of the two synthetic chains in the serve-hot pool: the two
/// ends of the 6–11 range, so the pool's cost does not depend on the seed.
const HOT_SYNTH_NODES: [u32; 2] = [6, 11];
/// serve-cold chain lengths are a shuffled pass over `24..128`.
const COLD_NODES: std::ops::Range<u32> = 24..128;
/// Every 64th served request is re-served through `one_shot`.
const SERVE_CHECK_EVERY: u64 = 64;
/// Fleet runs migrate each tenant every 3 slices.
const MIGRATE_EVERY: u64 = 3;
/// Tenants per fleet run.
const TENANTS: usize = 4;
/// Every 16th fleet run is replayed solo.
const FLEET_CHECK_EVERY: u64 = 16;
/// Quantum of the runs that prime the fleet's cache in set-up.
const PRIME_QUANTUM: u64 = 300;

macro_rules! tally {
    ($($(#[$doc:meta])* $field:ident),* $(,)?) => {
        /// Simulation counts of one op (or a sum of ops). Every field is a
        /// pure function of the op's inputs: a speed-only change to the
        /// simulator leaves them byte-identical.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct Tally {
            $($(#[$doc])* pub $field: u64,)*
        }

        impl Tally {
            /// Field-wise (wrapping) sum.
            pub fn add(&mut self, other: &Tally) {
                $(self.$field = self.$field.wrapping_add(other.$field);)*
            }
        }
    };
}

tally! {
    /// Simulated cycles of the op's episodes (or of the whole program).
    cycles,
    /// CPU monitoring (F1 warmup) cycles.
    warmup_cycles,
    /// Analytic configuration latency (translate + map + write + transfer).
    config_cycles,
    /// Accelerator execution cycles.
    accel_cycles,
    /// CPU cycles simulated during warmup and configuration overlap.
    cpu_cycles,
    /// Loop iterations executed on the accelerator.
    accel_iterations,
    /// Offload episodes attempted (accepted + declined).
    episodes,
    /// Episodes declined (rejected region, truncated config, no capacity).
    declines,
    /// F3 re-optimization rounds.
    reopt_rounds,
    /// F3 rounds that reconfigured the fabric.
    reconfigs,
    /// Fabric scheduling slices granted to tenants.
    slices,
    /// Tenant migrations.
    migrations,
    /// Fleet cycles tenants waited for a band.
    queue_wait_cycles,
    /// L1 accesses (CPU and accelerator ports).
    l1_accesses,
    /// Shared-L2 accesses.
    l2_accesses,
    /// DRAM line fills.
    dram_accesses,
    /// Digest of the op's architectural results.
    digest,
}

impl Tally {
    fn add_report(&mut self, r: &OffloadReport) {
        self.cycles += r.total_cycles();
        self.warmup_cycles += r.warmup_cycles;
        self.config_cycles += r.config.total();
        self.accel_cycles += r.accel_cycles;
        self.cpu_cycles += r.warmup_cycles + r.config_phase_cpu_cycles;
        self.accel_iterations += r.accel_iterations;
        self.reopt_rounds += r.reopt_rounds.len() as u64;
        self.reconfigs += u64::from(r.reconfigurations);
    }

    fn add_traffic(&mut self, mem: &MemorySystem) {
        let t = mem.traffic();
        self.l1_accesses += t.l1_accesses;
        self.l2_accesses += t.l2_accesses;
        self.dram_accesses += t.dram_accesses;
    }
}

/// One benchmark workload: a seeded, endless sequence of ops.
pub trait Workload: Sync {
    /// Closed-loop clients that drain the sequence concurrently.
    fn clients(&self) -> usize;
    /// Ops per cycle (phases run whole cycles).
    fn cycle_len(&self) -> u64;
    /// Runs op `i` of the sequence.
    ///
    /// # Errors
    /// A message when the op produced no valid result.
    fn op(&self, i: u64) -> Result<Tally, String>;
    /// Resets state the traced phase must start from. serve-cold serves
    /// the traced phase from a fresh engine, so its lookups miss again.
    fn fresh_for_trace(&mut self) {}
    /// Counters of the workload's shared artifact cache (zero without one).
    fn cache_stats(&self) -> ArtifactCacheStats {
        ArtifactCacheStats::default()
    }
    /// Checks the results of finished ops (`done`) against the workload's
    /// oracle; one message per failed check.
    fn verify(&self, done: &[OpRec]) -> Vec<String>;
}

/// Builds (sets up) the named workload for `seed`; `None` for an unknown
/// name.
#[must_use]
pub fn build(name: &str, seed: u64) -> Option<Box<dyn Workload>> {
    Some(match name {
        "serve-hot" => Box::new(Serve::hot(seed)),
        "serve-cold" => Box::new(Serve::cold(seed)),
        "program-large" => Box::new(ProgramLarge::new(seed)),
        "fleet-migrate" => Box::new(Fleet::new(seed)),
        _ => return None,
    })
}

/// A value derived from the seed, a purpose tag and an index.
fn derive(seed: u64, tag: u64, i: u64) -> u64 {
    let mut s = seed ^ tag.rotate_left(17) ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    splitmix64(&mut s)
}

/// The seed-shuffled order of cycle `cycle`: a permutation of `0..n`.
fn permutation(seed: u64, tag: u64, cycle: u64, n: usize) -> Vec<usize> {
    let mut rng = Rng::seed_from_u64(derive(seed, tag, cycle));
    let mut p: Vec<usize> = (0..n).collect();
    for k in (1..n).rev() {
        p.swap(k, rng.gen_range(0..=k));
    }
    p
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv(h: &mut u64, v: u64) {
    *h ^= v;
    *h = h.wrapping_mul(0x0000_0100_0000_01B3);
}

fn fnv_bytes(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        fnv(&mut h, u64::from(b));
    }
    h
}

/// Digest of a kernel run's results: the final architectural state, every
/// word of the kernel's input blocks (some kernels update them in place)
/// and its output window.
fn result_digest<M: MemoryIo>(kernel: &Kernel, mem: &mut M, state: &ArchState) -> u64 {
    let mut h = FNV_OFFSET;
    fnv(&mut h, state.pc);
    for &x in &state.x {
        fnv(&mut h, x);
    }
    for &f in &state.f {
        fnv(&mut h, u64::from(f));
    }
    let windows = kernel
        .init
        .iter()
        .map(|b| (b.addr, b.words.len() as u64))
        .chain(std::iter::once((DATA_OUT, kernel.iterations)));
    for (addr, words) in windows {
        for k in 0..words {
            fnv(&mut h, mem.load(addr + 4 * k, 4));
        }
    }
    h
}

/// The outcome kind of an episode: `ok` or the error variant's name.
fn outcome_kind(r: &Result<OffloadReport, MesaError>) -> String {
    match r {
        Ok(_) => "ok".to_string(),
        Err(e) => {
            let debug = format!("{e:?}");
            let end = debug.find(|c: char| !c.is_alphanumeric()).unwrap_or(debug.len());
            debug[..end].to_string()
        }
    }
}

// --- serving ---------------------------------------------------------------

/// serve-hot and serve-cold: two clients calling `ServeEngine::handle`.
struct Serve {
    engine: ServeEngine,
    grid: GridSpec,
    /// serve-hot's kernel pool; empty for serve-cold.
    pool: Vec<KernelSpec>,
    seed: u64,
}

impl Serve {
    /// A 10-kernel pool (the 8 serving Rodinia kernels at Tiny size plus
    /// two synthetic chains), primed once so every later lookup hits.
    fn hot(seed: u64) -> Self {
        let mut pool: Vec<KernelSpec> = SERVE_KERNELS
            .iter()
            .map(|name| KernelSpec::Named { name: (*name).to_string(), size: KernelSize::Tiny })
            .collect();
        pool.extend(HOT_SYNTH_NODES.iter().enumerate().map(|(k, &nodes)| KernelSpec::Synthetic {
            nodes,
            seed: derive(seed, 0x5E, k as u64),
        }));
        let serve = Serve { engine: ServeEngine::new(), grid: GridSpec::M128, pool, seed };
        for (k, kernel) in serve.pool.iter().enumerate() {
            let prime = ServeRequest {
                kernel: kernel.clone(),
                grid: serve.grid,
                data_seed: k as u64,
                tenant: 0,
            };
            let _ = serve.engine.handle(&prime);
        }
        serve
    }

    /// A fresh engine that has answered one probe request, the longest
    /// chain with a shape no op of the sequence uses: the cost of bringing
    /// the service up.
    fn cold(seed: u64) -> Self {
        let serve =
            Serve { engine: ServeEngine::new(), grid: GridSpec::M512Wide, pool: Vec::new(), seed };
        let probe = ServeRequest {
            kernel: KernelSpec::Synthetic { nodes: COLD_NODES.end - 1, seed: u64::MAX },
            grid: serve.grid,
            data_seed: 0,
            tenant: 0,
        };
        let _ = serve.engine.handle(&probe);
        serve
    }

    /// Request `i` of the sequence.
    fn request(&self, i: u64) -> ServeRequest {
        let n = self.cycle_len();
        let slot = permutation(self.seed, 0x5E4E, i / n, n as usize)[(i % n) as usize];
        let kernel = if self.pool.is_empty() {
            // Distinct shape seeds make every serve-cold request a new kernel.
            KernelSpec::Synthetic {
                nodes: COLD_NODES.start + slot as u32,
                seed: derive(self.seed, 0xC0, 0).wrapping_add(i),
            }
        } else {
            self.pool[slot].clone()
        };
        ServeRequest {
            kernel,
            grid: self.grid,
            data_seed: derive(self.seed, 0xDA7A, i),
            tenant: (i % 4) as u32,
        }
    }
}

/// Leading decimal number after `key` in `text` (0 when absent).
fn number_after(text: &str, key: &str) -> u64 {
    text.find(key).map_or(0, |at| {
        text[at + key.len()..]
            .bytes()
            .take_while(u8::is_ascii_digit)
            .fold(0u64, |acc, d| acc.wrapping_mul(10).wrapping_add(u64::from(d - b'0')))
    })
}

/// Digest of everything a response carries.
fn response_digest(resp: &ServeResponse) -> u64 {
    let mut h = fnv_bytes(resp.render.as_bytes());
    fnv(&mut h, u64::from(resp.tenant));
    h
}

/// Simulation counts of a served request, read back from its canonical
/// rendering (the only place `ServeEngine::handle` reports them).
fn serve_tally(resp: &ServeResponse) -> Tally {
    let head = resp.render.split(" || ").next().unwrap_or("");
    let warmup = number_after(head, " warmup=");
    let transfer = number_after(head, "transfer_cycles: ");
    let config = number_after(head, "ldfg_cycles: ")
        + number_after(head, " map_cycles: ")
        + number_after(head, "write_cycles: ")
        + transfer;
    let overlap = number_after(head, " overlap=");
    let reconfig = number_after(head, " reconf=");
    let reconfig_count = head
        .find(" reconf=")
        .and_then(|at| head[at..].find('/').map(|slash| at + slash))
        .map_or(0, |slash| number_after(&head[slash..], "/"));
    let mut t = Tally {
        episodes: 1,
        declines: u64::from(!resp.ok),
        accel_cycles: resp.accel_cycles,
        accel_iterations: resp.accel_iterations,
        digest: response_digest(resp),
        ..Tally::default()
    };
    if resp.ok {
        t.cycles = warmup + config.max(overlap) + reconfig + resp.accel_cycles + transfer;
        t.warmup_cycles = warmup;
        t.config_cycles = config;
        t.cpu_cycles = warmup + overlap;
        t.reopt_rounds = number_after(head, " reopt=");
        t.reconfigs = reconfig_count;
    }
    t
}

impl Workload for Serve {
    fn clients(&self) -> usize {
        2
    }

    fn cycle_len(&self) -> u64 {
        if self.pool.is_empty() {
            u64::from(COLD_NODES.end - COLD_NODES.start)
        } else {
            self.pool.len() as u64
        }
    }

    fn op(&self, i: u64) -> Result<Tally, String> {
        let req = self.request(i);
        let resp = {
            let _serve = host::span("sysbench.serve");
            self.engine.handle(&req)
        };
        Ok(serve_tally(&resp))
    }

    fn fresh_for_trace(&mut self) {
        if self.pool.is_empty() {
            self.engine = ServeEngine::new();
        }
    }

    fn cache_stats(&self) -> ArtifactCacheStats {
        self.engine.stats()
    }

    /// The first cycle (every pool entry once) and every 64th request,
    /// re-served through `one_shot`.
    fn verify(&self, done: &[OpRec]) -> Vec<String> {
        done.iter()
            .filter(|r| r.ok && (r.index < self.cycle_len() || r.index % SERVE_CHECK_EVERY == 0))
            .filter(|r| response_digest(&one_shot(&self.request(r.index))) != r.digest)
            .map(|r| format!("request {}: served response differs from one_shot", r.index))
            .collect()
    }
}

// --- whole programs ----------------------------------------------------------

/// program-large: one thread running whole Large Rodinia programs.
struct ProgramLarge {
    kernels: Vec<Kernel>,
    system: SystemConfig,
    seed: u64,
}

impl ProgramLarge {
    fn new(seed: u64) -> Self {
        ProgramLarge { kernels: all(KernelSize::Large), system: SystemConfig::m128(), seed }
    }

    /// The kernel op `i` runs.
    fn kernel_of(&self, i: u64) -> usize {
        let n = self.cycle_len();
        permutation(self.seed, 0x960, i / n, n as usize)[(i % n) as usize]
    }
}

impl Workload for ProgramLarge {
    fn clients(&self) -> usize {
        1
    }

    fn cycle_len(&self) -> u64 {
        self.kernels.len() as u64
    }

    fn op(&self, i: u64) -> Result<Tally, String> {
        let kernel = &self.kernels[self.kernel_of(i)];
        let mut mem = {
            let _setup = host::span("mem.setup");
            let mut mem = MemorySystem::new(self.system.mem, 2);
            kernel.populate(mem.data_mut());
            mem
        };
        let mut controller = MesaController::new(self.system.clone());
        let mut cpu = OoOCore::new(self.system.core);
        let mut state = kernel.entry.clone();
        let budget = kernel.iterations * 1000 + 1_000_000;
        let report =
            controller.run_program(&kernel.program, &mut state, &mut mem, &mut cpu, budget);
        if !report.halted {
            return Err(format!("{} did not reach its exit", kernel.name));
        }
        let mut t = Tally::default();
        for r in &report.offloads {
            t.add_report(r);
        }
        t.cycles = report.total_cycles;
        t.declines = report.rejections.len() as u64 + report.config_declines;
        t.episodes = report.offloads.len() as u64 + t.declines;
        t.add_traffic(&mem);
        t.digest = result_digest(kernel, mem.data_mut(), &state);
        Ok(t)
    }

    /// Every op's results against the functional golden model.
    fn verify(&self, done: &[OpRec]) -> Vec<String> {
        let golden: Vec<u64> = self
            .kernels
            .iter()
            .map(|kernel| {
                let (state, mut mem) = run_functional(kernel);
                result_digest(kernel, &mut mem, &state)
            })
            .collect();
        done.iter()
            .filter(|r| r.ok && golden[self.kernel_of(r.index)] != r.digest)
            .map(|r| {
                let name = self.kernels[self.kernel_of(r.index)].name;
                format!("op {} ({name}): results differ from the functional model", r.index)
            })
            .collect()
    }
}

// --- virtualized fabric --------------------------------------------------------

/// fleet-migrate: one thread running 4-tenant fleets over one shared cache.
struct Fleet {
    kernels: Vec<Kernel>,
    system: SystemConfig,
    cache: Arc<SharedArtifactCache>,
    seed: u64,
}

impl Fleet {
    /// The kernels and a shared cache primed with each of them, as a
    /// running fleet service would hold.
    fn new(seed: u64) -> Self {
        let fleet = Fleet {
            kernels: all(KernelSize::Tiny),
            system: SystemConfig::m128(),
            cache: Arc::new(SharedArtifactCache::new()),
            seed,
        };
        let every: Vec<usize> = (0..fleet.kernels.len()).collect();
        for picks in every.chunks(TENANTS) {
            let _ = fleet.run(picks, PRIME_QUANTUM);
        }
        fleet
    }

    /// Run `i`'s tenants and quantum. A cycle of 4 runs deals out the 16
    /// kernels once and draws one quantum from each quarter of `[100,500)`.
    fn plan(&self, i: u64) -> (Vec<usize>, u64) {
        let runs = self.cycle_len();
        let (cycle, run) = (i / runs, (i % runs) as usize);
        let deal = permutation(self.seed, 0xF1EE7, cycle, self.kernels.len());
        let quarter = permutation(self.seed, 0x9A47, cycle, runs as usize)[run] as u64;
        let quantum = 100 + 100 * quarter + derive(self.seed, 0x9, i) % 100;
        (deal[TENANTS * run..TENANTS * (run + 1)].to_vec(), quantum)
    }

    fn job(&self, kernel: &Kernel) -> TenantJob {
        let mut mem = MemorySystem::new(self.system.mem, 2);
        kernel.populate(mem.data_mut());
        TenantJob::new(kernel.program.clone(), kernel.entry.clone(), mem)
    }

    /// One fleet run of the `picks` kernels, returning its jobs too.
    fn run(&self, picks: &[usize], quantum: u64) -> (FleetRun, Vec<TenantJob>) {
        let mut jobs: Vec<TenantJob> = {
            let _setup = host::span("mem.setup");
            picks.iter().map(|&k| self.job(&self.kernels[k])).collect()
        };
        let _driver = host::span("core.fabric.driver");
        let run = run_tenants_fleet_shared(
            &self.system,
            &mut jobs,
            quantum,
            MIGRATE_EVERY,
            &mut NullTracer,
            &self.cache,
        );
        (run, jobs)
    }

    /// Folds one tenant's outcome kind and result digest into a run digest.
    fn fold(
        run: &mut u64,
        outcome: &Result<OffloadReport, MesaError>,
        job: &mut TenantJob,
        kernel: &Kernel,
    ) {
        let kind = outcome_kind(outcome);
        fnv(
            run,
            fnv_bytes(kind.as_bytes()) ^ result_digest(kernel, job.mem.data_mut(), &job.state),
        );
    }
}

impl Workload for Fleet {
    fn clients(&self) -> usize {
        1
    }

    fn cycle_len(&self) -> u64 {
        (self.kernels.len() / TENANTS) as u64
    }

    fn op(&self, i: u64) -> Result<Tally, String> {
        let (picks, quantum) = self.plan(i);
        let (run, mut jobs) = self.run(&picks, quantum);
        let mut t = Tally {
            slices: run.stats.tenants.iter().map(|s| s.slices).sum(),
            migrations: run.stats.migrations,
            queue_wait_cycles: run.stats.tenants.iter().map(|s| s.queue_wait_cycles).sum(),
            digest: FNV_OFFSET,
            ..Tally::default()
        };
        for ((job, outcome), &k) in jobs.iter_mut().zip(&run.outcomes).zip(&picks) {
            t.episodes += 1;
            match outcome {
                Ok(r) => t.add_report(r),
                Err(_) => t.declines += 1,
            }
            t.add_traffic(&job.mem);
            Self::fold(&mut t.digest, outcome, job, &self.kernels[k]);
        }
        Ok(t)
    }

    fn cache_stats(&self) -> ArtifactCacheStats {
        self.cache.stats()
    }

    /// Every 16th run, each tenant replayed alone through `run_offload`:
    /// same outcome kind, final state and output words.
    fn verify(&self, done: &[OpRec]) -> Vec<String> {
        done.iter()
            .filter(|r| r.ok && r.index % FLEET_CHECK_EVERY == 0)
            .filter(|r| {
                let mut solo = FNV_OFFSET;
                for &k in &self.plan(r.index).0 {
                    let mut job = self.job(&self.kernels[k]);
                    let outcome =
                        run_offload(&job.program, &mut job.state, &mut job.mem, &self.system);
                    Self::fold(&mut solo, &outcome, &mut job, &self.kernels[k]);
                }
                solo != r.digest
            })
            .map(|r| format!("fleet run {}: tenants differ from their solo run_offload", r.index))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequences_are_deterministic_per_seed_and_differ_across_seeds() {
        let a = Serve::cold(1);
        let b = Serve::cold(1);
        let c = Serve::cold(2);
        let render =
            |s: &Serve| (0..300).map(|i| format!("{:?}", s.request(i))).collect::<Vec<_>>();
        assert_eq!(render(&a), render(&b));
        assert_ne!(render(&a), render(&c));

        let f1 = Fleet::new(1);
        let f2 = Fleet::new(2);
        let plans = |f: &Fleet| (0..16).map(|i| f.plan(i)).collect::<Vec<_>>();
        assert_eq!(plans(&f1), plans(&Fleet::new(1)));
        assert_ne!(plans(&f1), plans(&f2));

        assert_eq!(permutation(1, 0x960, 3, 16), permutation(1, 0x960, 3, 16));
        assert_ne!(permutation(1, 0x960, 3, 16), permutation(2, 0x960, 3, 16));
    }

    #[test]
    fn cycles_are_balanced() {
        let cold = Serve::cold(7);
        let mut nodes: Vec<u32> = (0..cold.cycle_len())
            .map(|i| match cold.request(i).kernel {
                KernelSpec::Synthetic { nodes, .. } => nodes,
                KernelSpec::Named { .. } => 0,
            })
            .collect();
        nodes.sort_unstable();
        assert_eq!(nodes, COLD_NODES.collect::<Vec<_>>());

        let fleet = Fleet::new(7);
        for cycle in 0..3 {
            let mut dealt: Vec<usize> = Vec::new();
            let mut quarters: Vec<u64> = Vec::new();
            for run in 0..fleet.cycle_len() {
                let (picks, quantum) = fleet.plan(cycle * fleet.cycle_len() + run);
                assert!((100..500).contains(&quantum));
                dealt.extend(picks);
                quarters.push((quantum - 100) / 100);
            }
            dealt.sort_unstable();
            quarters.sort_unstable();
            assert_eq!(dealt, (0..16).collect::<Vec<_>>());
            assert_eq!(quarters, vec![0, 1, 2, 3]);
        }
    }

    #[test]
    fn serve_tally_reads_the_rendered_report() {
        let engine = ServeEngine::new();
        let resp = engine.handle(&ServeRequest {
            kernel: KernelSpec::Named { name: "nn".to_string(), size: KernelSize::Tiny },
            grid: GridSpec::M128,
            data_seed: 0,
            tenant: 0,
        });
        assert!(resp.ok, "{}", resp.render);
        let t = serve_tally(&resp);
        assert!(t.warmup_cycles > 0 && t.config_cycles > 0, "{t:?} from {}", resp.render);
        assert!(t.cycles > t.accel_cycles + t.warmup_cycles);
        assert_eq!(t.accel_cycles, resp.accel_cycles);
    }
}
