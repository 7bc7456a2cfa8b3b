//! Phases: closed-loop clients draining a workload's op sequence, timed
//! on one shared clock, optionally under the host span profiler.

use crate::stats::percentile;
use crate::workloads::{Tally, Workload};
use mesa_trace::host::{self, ClockSpec, HostClock, HostProfile};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
use std::sync::Mutex;

/// Rounds a timed phase is split into (see [`timing`]).
pub const ROUNDS: u64 = 32;

/// The wall clock every client of a run reads (one epoch for all).
pub struct Clock(Mutex<Box<dyn HostClock>>);

impl Clock {
    /// A clock built from `spec` (real for measurements, mock in tests).
    #[must_use]
    pub fn new(spec: ClockSpec) -> Self {
        Clock(Mutex::new(spec.make()))
    }

    /// Nanoseconds since the clock's epoch.
    pub fn now(&self) -> u64 {
        self.0.lock().expect("clock readers never panic").now_ns()
    }
}

/// When a phase stops claiming ops. Phases always end on a cycle boundary
/// and run at least one cycle.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// Finish the cycle running once this many nanoseconds have passed.
    After(u64),
    /// Run this many ops, rounded up to whole cycles.
    Ops(u64),
}

/// One finished op.
#[derive(Debug, Clone, Copy)]
pub struct OpRec {
    /// Position in the workload's sequence.
    pub index: u64,
    /// Latency of the op.
    pub lat_ns: u64,
    /// Clock reading when it finished.
    pub done_ns: u64,
    /// Simulated cycles of the op ([`Tally::cycles`]).
    pub sim_cycles: u64,
    /// Digest of the op's results ([`Tally::digest`]).
    pub digest: u64,
    /// Whether it produced a result (no error, no panic).
    pub ok: bool,
}

/// A finished phase: ops `[start, end)` of the sequence.
#[derive(Debug)]
pub struct Phase {
    /// First op index.
    pub start: u64,
    /// One past the last op index (a cycle boundary).
    pub end: u64,
    /// Clock reading when the phase began.
    pub started_ns: u64,
    /// Merged host profile of the clients (traced phases only).
    pub profile: Option<HostProfile>,
}

/// Runs `w`'s ops from `start` (a cycle boundary) until `stop`, with
/// `w.clients()` closed-loop clients: each claims the next op only after
/// its previous one returned. Each op's record is appended to `recs`; its
/// tally is summed into `cycles[i / cycle_len]`.
///
/// Both buffers are the caller's, so they can be allocated before
/// allocation counting starts.
pub fn run_phase(
    w: &dyn Workload,
    clock: &Clock,
    start: u64,
    stop: Stop,
    traced: bool,
    recs: &mut Vec<OpRec>,
    cycles: &mut Vec<Tally>,
) -> Phase {
    let cycle = w.cycle_len();
    let round_up = |i: u64| i.div_ceil(cycle) * cycle;
    let next = AtomicU64::new(start);
    let end = AtomicU64::new(match stop {
        Stop::Ops(n) => start + round_up(n.max(1)),
        Stop::After(_) => u64::MAX,
    });
    let sink = Mutex::new((recs, cycles));
    let started_ns = clock.now();
    let deadline = match stop {
        Stop::After(ns) => started_ns.saturating_add(ns),
        Stop::Ops(_) => u64::MAX,
    };
    let client = || loop {
        let i = next.fetch_add(1, SeqCst);
        if i >= end.load(SeqCst) {
            break;
        }
        if deadline != u64::MAX && clock.now() >= deadline {
            // Close the phase at the end of the cycle op `i` belongs to.
            end.fetch_min(round_up(i + 1), SeqCst);
            if i >= end.load(SeqCst) {
                break;
            }
        }
        let t0 = clock.now();
        let outcome = {
            let _op = host::span("op");
            catch_unwind(AssertUnwindSafe(|| w.op(i)))
        };
        let t1 = clock.now();
        let (tally, ok) = match outcome {
            Ok(Ok(tally)) => (tally, true),
            Ok(Err(msg)) => {
                eprintln!("mesa-e2e: op {i} failed: {msg}");
                (Tally::default(), false)
            }
            Err(_) => {
                eprintln!("mesa-e2e: op {i} panicked");
                (Tally::default(), false)
            }
        };
        let mut guard = sink.lock().expect("no panic while holding the sink");
        let (recs, cycles) = &mut *guard;
        recs.push(OpRec {
            index: i,
            lat_ns: t1.saturating_sub(t0),
            done_ns: t1,
            sim_cycles: tally.cycles,
            digest: tally.digest,
            ok,
        });
        let c = (i / cycle) as usize;
        if cycles.len() <= c {
            cycles.resize(c + 1, Tally::default());
        }
        cycles[c].add(&tally);
    };
    let profiles: Vec<Option<HostProfile>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..w.clients())
            .map(|_| {
                s.spawn(|| {
                    if traced {
                        host::scoped(client).1
                    } else {
                        client();
                        None
                    }
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client loop itself never panics")).collect()
    });
    let profile = profiles.into_iter().flatten().reduce(|mut a, b| {
        a.merge(&b);
        a
    });
    Phase { start, end: end.load(SeqCst), started_ns, profile }
}

/// Throughput and latency of one phase.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    /// Ops run.
    pub ops: u64,
    /// Ops that produced no result.
    pub failed: u64,
    /// Upper quartile over rounds of ops per second.
    pub ops_per_s: f64,
    /// Upper quartile over rounds of simulated Mcycles per host second.
    pub sim_mcyc_per_s: f64,
    /// Lower quartile over rounds of the round's median op latency.
    pub p50_ns: u64,
    /// 99th-percentile latency over all ops.
    pub p99_ns: u64,
}

/// Splits the phase into up to [`ROUNDS`] rounds of whole cycles, each
/// measured from the end of the previous one. `recs` are the phase's own
/// records.
///
/// Other tenants of a shared host only ever slow a round down, so the
/// rates are read at the faster rounds: throughput at the upper quartile
/// of the rounds and the median latency at their lower quartile. On a
/// 2-vCPU VM this halved the run-to-run spread of the plain medians.
#[must_use]
pub fn timing(phase: &Phase, recs: &[OpRec], cycle: u64) -> Timing {
    let n_cycles = ((phase.end - phase.start) / cycle).max(1);
    let rounds = ROUNDS.min(n_cycles);
    let mut groups: Vec<Vec<&OpRec>> = vec![Vec::new(); rounds as usize];
    for r in recs {
        groups[((r.index - phase.start) / cycle * rounds / n_cycles) as usize].push(r);
    }
    let mut prev = phase.started_ns;
    let (mut rates, mut sim_rates, mut p50s) = (Vec::new(), Vec::new(), Vec::new());
    for group in &groups {
        let end = group.iter().map(|r| r.done_ns).max().unwrap_or(prev).max(prev);
        let dt = end.saturating_sub(prev).max(1) as f64;
        prev = end;
        rates.push(group.len() as f64 * 1e9 / dt);
        sim_rates.push(group.iter().map(|r| r.sim_cycles).sum::<u64>() as f64 * 1e3 / dt);
        let lat: Vec<u64> = group.iter().map(|r| r.lat_ns).collect();
        p50s.push(percentile(&lat, 0.5).unwrap_or(0));
    }
    let lat: Vec<u64> = recs.iter().map(|r| r.lat_ns).collect();
    Timing {
        ops: recs.len() as u64,
        failed: recs.iter().filter(|r| !r.ok).count() as u64,
        ops_per_s: percentile(&rates, 0.75).unwrap_or(0.0),
        sim_mcyc_per_s: percentile(&sim_rates, 0.75).unwrap_or(0.0),
        p50_ns: percentile(&p50s, 0.25).unwrap_or(0),
        p99_ns: percentile(&lat, 0.99).unwrap_or(0),
    }
}
