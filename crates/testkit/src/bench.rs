//! Microbenchmark timing: warmup, median-of-k batch samples, and JSON
//! line output. A deliberate, tiny replacement for `criterion` — enough
//! to track the simulator's own performance trajectory across PRs
//! without any external dependency.
//!
//! A bench binary drives one [`BenchSuite`]: [`BenchSuite::run`] times a
//! lone workload, and [`BenchSuite::run_group`] times workloads whose
//! medians are compared against each other, interleaving their
//! iterations so a change of host speed hits every member alike. Group
//! members may report the simulated cycles each iteration advanced, to
//! record sim-cycles/iteration and the derived simulation throughput
//! (`sim_mcycles_per_sec`) alongside ns/iter in `BENCH_components.json`.
//!
//! Timing goes through `mesa-trace`'s [`HostClock`] abstraction (the
//! workspace's single sanctioned wall-clock seam): the suite uses the
//! real clock, and the unit tests drive the same timer against a
//! deterministic [`mesa_trace::MockClock`].

use mesa_trace::host::{HostClock, RealClock};
use mesa_trace::Json;

/// One benchmark measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchResult {
    /// Benchmark name (`group/function` by convention).
    pub name: String,
    /// Iterations per timed batch.
    pub iters: u64,
    /// Number of timed batches.
    pub samples: usize,
    /// Median per-iteration time over the batches, in nanoseconds.
    pub median_ns: f64,
    /// Fastest batch's per-iteration time, in nanoseconds.
    pub min_ns: f64,
    /// Slowest batch's per-iteration time, in nanoseconds.
    pub max_ns: f64,
    /// Mean per-iteration time over the batches, in nanoseconds.
    pub mean_ns: f64,
    /// Simulated cycles advanced per iteration, when the workload
    /// reports them (see [`BenchSuite::run_group`]).
    pub sim_cycles_per_iter: Option<f64>,
}

impl BenchResult {
    /// Simulation throughput in millions of simulated cycles per host
    /// second, derived from the median timing (`None` when the
    /// workload reported no cycles or the measurement was too fast to
    /// time).
    #[must_use]
    pub fn sim_mcycles_per_sec(&self) -> Option<f64> {
        let cycles = self.sim_cycles_per_iter?;
        if cycles > 0.0 && self.median_ns > 0.0 {
            // cycles/ns × 1e9 → cycles/s; ÷ 1e6 → Mcycles/s.
            Some(cycles * 1e3 / self.median_ns)
        } else {
            None
        }
    }

    /// The result as one JSON object. The sim throughput fields only
    /// appear for cycle-reporting benches, so consumers that read only
    /// `median_ns` are unaffected.
    fn to_json(&self) -> Json {
        let ns = |v: f64| Json::fixed(v, 1);
        let mut fields = vec![
            ("name", Json::from(self.name.as_str())),
            ("iters", self.iters.into()),
            ("samples", self.samples.into()),
            ("median_ns", ns(self.median_ns)),
            ("min_ns", ns(self.min_ns)),
            ("max_ns", ns(self.max_ns)),
            ("mean_ns", ns(self.mean_ns)),
        ];
        if let Some(cycles) = self.sim_cycles_per_iter {
            fields.push(("sim_cycles_per_iter", ns(cycles)));
            if let Some(rate) = self.sim_mcycles_per_sec() {
                fields.push(("sim_mcycles_per_sec", Json::fixed(rate, 3)));
            }
        }
        Json::obj(fields)
    }
}

/// Number of timed batches per benchmark.
const SAMPLES: usize = 7;

/// A named workload of a bench group: each call runs one iteration and
/// returns the simulated cycles it advanced (0 when it reports none).
pub type GroupMember<'a> = (&'a str, &'a mut dyn FnMut() -> u64);

/// Times every member of `group`: two untimed warmup rounds, then
/// [`SAMPLES`] timed rounds of `iters` iterations per member. A lone bench
/// times each round's batch whole. Group members are timed per iteration
/// and take turns every iteration, in `a b b a a b ...` order, so members
/// compared against each other sample the same moments of host speed and
/// neither always runs first.
fn bench_group(
    group: &mut [GroupMember<'_>],
    iters: u64,
    clock: &mut dyn HostClock,
    track_cycles: bool,
) -> Vec<BenchResult> {
    assert!(iters > 0, "bench needs at least one iteration");
    let n = group.len();
    let (turns, chunk) = if n == 1 { (1, iters) } else { (iters, 1) };
    // One round: per member, the per-iteration time and the cycles its
    // iterations reported.
    let mut round = |clock: &mut dyn HostClock| {
        let mut ns = vec![0u64; n];
        let mut cycles = vec![0u64; n];
        for turn in 0..turns {
            for j in 0..n {
                let k = if turn % 2 == 0 { j } else { n - 1 - j };
                let f = &mut group[k].1;
                let start = clock.now_ns();
                for _ in 0..chunk {
                    cycles[k] = cycles[k].saturating_add(std::hint::black_box(f()));
                }
                ns[k] += clock.now_ns().saturating_sub(start);
            }
        }
        ns.into_iter()
            .zip(cycles)
            .map(|(t, c)| (t as f64 / iters as f64, c))
            .collect::<Vec<_>>()
    };

    // Two untimed warmup rounds: the first touches caches and pages the
    // code in; the second settles allocator free lists and branch history
    // so the first *timed* sample is not an outlier (the fabric benches'
    // max/median spread motivated the second pass).
    round(clock);
    round(clock);

    let mut per_iter: Vec<Vec<f64>> = vec![Vec::with_capacity(SAMPLES); n];
    let mut batch_cycles = vec![0u64; n];
    for _ in 0..SAMPLES {
        for (k, (ns, cycles)) in round(clock).into_iter().enumerate() {
            per_iter[k].push(ns);
            batch_cycles[k] = cycles;
        }
    }
    group
        .iter()
        .zip(per_iter)
        .zip(batch_cycles)
        .map(|(((name, _), mut per_iter), batch_cycles)| {
            per_iter.sort_by(|a, b| a.total_cmp(b));
            BenchResult {
                name: (*name).to_string(),
                iters,
                samples: SAMPLES,
                median_ns: per_iter[SAMPLES / 2],
                min_ns: per_iter[0],
                max_ns: per_iter[SAMPLES - 1],
                mean_ns: per_iter.iter().sum::<f64>() / SAMPLES as f64,
                sim_cycles_per_iter: track_cycles.then(|| batch_cycles as f64 / iters as f64),
            }
        })
        .collect()
}

/// Collects [`BenchResult`]s across a bench binary and serializes them
/// as a JSON array (one file per suite, e.g. `BENCH_components.json`).
#[derive(Debug, Default)]
pub struct BenchSuite {
    results: Vec<BenchResult>,
}

impl BenchSuite {
    /// Empty suite.
    #[must_use]
    pub fn new() -> Self {
        BenchSuite::default()
    }

    /// Times `f` over `iters` iterations per batch: two untimed warmup
    /// batches, then [`SAMPLES`] timed batches, reporting the median
    /// (robust against scheduler noise), min, max, and mean
    /// per-iteration time. Prints the result's JSON line to stdout and
    /// records it. The closure's return value is passed through
    /// [`std::hint::black_box`] so the work is not optimized away.
    ///
    /// # Panics
    /// Panics if `iters` is zero.
    pub fn run<T>(&mut self, name: &str, iters: u64, mut f: impl FnMut() -> T) -> &BenchResult {
        let mut timed = || {
            std::hint::black_box(f());
            0
        };
        &self.run_group(iters, false, &mut [(name, &mut timed)])[0]
    }

    /// Runs a group of benchmarks whose timings are compared against
    /// each other, with their iterations interleaved (see [`bench_group`])
    /// so a change of host speed during the run hits every member alike.
    /// Prints and records one result per member, in group order; with
    /// `track_cycles` each records the simulated cycles its iterations
    /// returned and the derived simulation throughput.
    ///
    /// # Panics
    /// Panics if `iters` is zero.
    pub fn run_group(
        &mut self,
        iters: u64,
        track_cycles: bool,
        group: &mut [GroupMember<'_>],
    ) -> &[BenchResult] {
        let first = self.results.len();
        for r in bench_group(group, iters, &mut RealClock::new(), track_cycles) {
            println!("{}", r.to_json());
            self.results.push(r);
        }
        &self.results[first..]
    }

    /// The recorded results, in run order.
    #[must_use]
    pub fn results(&self) -> &[BenchResult] {
        &self.results
    }

    /// The suite as a JSON array.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::arr(self.results.iter().map(BenchResult::to_json))
    }

    /// Writes the JSON array to `path`, one result per line.
    ///
    /// # Errors
    /// Propagates filesystem errors.
    pub fn write_json(&self, path: &str) -> std::io::Result<()> {
        std::fs::write(path, self.to_json().to_lines())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mesa_trace::MockClock;

    /// One workload timed by [`bench_group`] against a mock clock that
    /// steps 1 µs per read.
    fn mock_bench(name: &str, iters: u64, track_cycles: bool, f: &mut dyn FnMut() -> u64) -> BenchResult {
        bench_group(&mut [(name, f)], iters, &mut MockClock::new(1_000), track_cycles).remove(0)
    }

    #[test]
    fn run_measures_and_orders_stats() {
        let mut suite = BenchSuite::new();
        let r = suite.run("noop", 1000, || 1 + 1);
        assert_eq!(r.iters, 1000);
        assert_eq!(r.samples, SAMPLES);
        assert!(r.min_ns <= r.median_ns && r.median_ns <= r.max_ns);
        assert!(r.min_ns >= 0.0);
        assert_eq!(r.sim_cycles_per_iter, None);
    }

    #[test]
    fn json_line_is_wellformed() {
        let r = mock_bench("codec/decode", 100, false, &mut || 42);
        let line = r.to_json().to_string();
        assert!(line.starts_with('{') && line.ends_with('}'));
        assert!(line.contains("\"name\":\"codec/decode\""));
        assert!(line.contains("\"median_ns\":"));
        assert!(!line.contains("sim_cycles_per_iter"));
        assert!(!line.contains('\n'));
    }

    #[test]
    fn mock_clock_timing_is_deterministic() {
        // Each batch reads the clock twice, so per-iteration time is
        // exactly step_ns / iters regardless of the actual work.
        let a = mock_bench("mock", 10, false, &mut || 7);
        let b = mock_bench("mock", 10, false, &mut || 7);
        assert_eq!(a, b);
        assert!((a.median_ns - 100.0).abs() < f64::EPSILON);
        assert_eq!(a.min_ns, a.max_ns, "mock batches are identical");
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn cycle_reporting_benches_record_throughput() {
        let r = mock_bench("engine/fake", 8, true, &mut || 1_000);
        assert_eq!(r.sim_cycles_per_iter, Some(1_000.0));
        // 1 000 cycles per 125 ns iteration.
        assert_eq!(r.sim_mcycles_per_sec(), Some(8_000.0));
        let line = r.to_json().to_string();
        assert!(line.contains("\"sim_cycles_per_iter\":1000.0"));
        assert!(line.contains("\"sim_mcycles_per_sec\":8000.000"));
    }

    #[test]
    fn suite_collects_and_serializes() {
        let mut suite = BenchSuite::new();
        suite.run("a", 10, || 1);
        suite.run_group(10, true, &mut [("b", &mut || 2)]);
        let json = suite.to_json().to_lines();
        assert!(json.starts_with("[\n") && json.trim_end().ends_with(']'));
        let doc = mesa_trace::json::parse(&json).expect("suite JSON parses");
        assert_eq!(doc.to_lines(), json, "re-renders to the same bytes");
        assert_eq!(json.matches("\"name\"").count(), 2);
        assert_eq!(json.matches("sim_cycles_per_iter").count(), 1);
        assert_eq!(suite.results().len(), 2);
    }

    #[test]
    fn group_members_take_turns_every_iteration() {
        // Every call of a member appends its name, so the log shows the
        // call order: nine rounds (two warmup) of two iterations each.
        let log = std::cell::RefCell::new(String::new());
        let mut a = || {
            log.borrow_mut().push('a');
            1u64
        };
        let mut b = || {
            log.borrow_mut().push('b');
            2u64
        };
        let mut clock = MockClock::new(1_000);
        let results = bench_group(&mut [("a", &mut a), ("b", &mut b)], 2, &mut clock, true);
        assert_eq!(*log.borrow(), "abba".repeat(2 + SAMPLES));
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].name, "a");
        assert_eq!(results[1].sim_cycles_per_iter, Some(2.0));
        // Each timed call spans one mock-clock step.
        assert!((results[0].median_ns - 1_000.0).abs() < f64::EPSILON);

        let mut suite = BenchSuite::new();
        let (mut x, mut y) = (|| 0u64, || 0u64);
        let recorded = suite.run_group(10, false, &mut [("x", &mut x), ("y", &mut y)]);
        assert_eq!(recorded.len(), 2);
        assert_eq!(recorded[1].name, "y");
        assert!(!suite.to_json().to_string().contains("sim_cycles_per_iter"));
    }

    #[test]
    fn timed_work_scales_with_iters() {
        // A busy loop long enough to rise above timer resolution.
        let spin = |n: u64| {
            move || {
                let mut acc = 0u64;
                for i in 0..n {
                    acc = acc.wrapping_add(std::hint::black_box(i));
                }
                acc
            }
        };
        let mut suite = BenchSuite::new();
        let short = suite.run("spin1k", 50, spin(1_000)).median_ns;
        let long = suite.run("spin100k", 50, spin(100_000)).median_ns;
        assert!(
            long > short * 5.0,
            "100x the work should be at least 5x slower ({long} vs {short})"
        );
    }
}
