//! Zero-dependency worker pool for the experiment harness.
//!
//! The figure generators run many independent simulations (one per
//! kernel, per configuration, per PE count). [`par_map`] fans those out
//! over scoped threads while keeping the *result order* identical to the
//! input order, so every caller produces byte-identical output regardless
//! of the worker count — `figures --jobs 8` prints exactly what
//! `--jobs 1` prints, just sooner.
//!
//! Worker count resolution (first match wins):
//! 1. an explicit [`set_jobs`] call (the `--jobs N` flag),
//! 2. the `MESA_JOBS` environment variable,
//! 3. [`std::thread::available_parallelism`].
//!
//! When host profiling is enabled ([`mesa_trace::host::enabled`]),
//! every work item runs under its own scoped profiler
//! ([`mesa_trace::host::scoped`]) — on the sequential path too, so the
//! tree shape is identical — and the per-item profiles merge back into
//! the caller's profiler **in input order**, keeping the aggregated
//! host profile byte-identical at any `--jobs N` under the mock clock.

use mesa_trace::host;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Explicit override from `--jobs`/[`set_jobs`]; 0 = unset.
static JOBS_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Sets the worker count for all subsequent [`par_map`] calls
/// (process-wide). `0` clears the override, restoring `MESA_JOBS` /
/// auto-detection.
pub fn set_jobs(n: usize) {
    JOBS_OVERRIDE.store(n, Ordering::SeqCst);
}

/// The worker count [`par_map`] will use right now.
#[must_use]
pub fn jobs() -> usize {
    let explicit = JOBS_OVERRIDE.load(Ordering::SeqCst);
    if explicit > 0 {
        return explicit;
    }
    if let Ok(v) = std::env::var("MESA_JOBS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Applies `f` to every item, using up to [`jobs`] worker threads, and
/// returns the results **in input order**.
///
/// Work is handed out through a shared atomic cursor, so threads never
/// contend on more than one `fetch_add` per item; each result lands in
/// its input's slot, making the output independent of scheduling.
///
/// # Panics
/// Propagates a panic from `f` (the scope re-raises it on join).
pub fn par_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    let workers = jobs().min(n);
    if workers <= 1 {
        // Sequential path: still run each item under a scoped profiler
        // so the host-profile tree has the same shape as the parallel
        // path (host::scoped is a passthrough when profiling is off).
        return items
            .into_iter()
            .map(|item| {
                let (r, prof) = host::scoped(|| f(item));
                if let Some(p) = prof {
                    host::adopt(&p);
                }
                r
            })
            .collect();
    }

    /// A worker's result plus the host profile its scoped profiler
    /// collected (None when host profiling is off).
    type ResultSlot<R> = Mutex<Option<(R, Option<host::HostProfile>)>>;
    let slots: Vec<Mutex<Option<T>>> =
        items.into_iter().map(|item| Mutex::new(Some(item))).collect();
    let results: Vec<ResultSlot<R>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let item = slots[i]
                    .lock()
                    .expect("pool item lock")
                    .take()
                    .expect("each slot is claimed exactly once");
                let r = host::scoped(|| f(item));
                *results[i].lock().expect("pool result lock") = Some(r);
            });
        }
    });

    results
        .into_iter()
        .map(|slot| {
            let (r, prof) = slot
                .into_inner()
                .expect("pool result lock")
                .expect("every slot was filled");
            // Merging in input order (this iteration) makes the
            // aggregate independent of which worker ran what.
            if let Some(p) = prof {
                host::adopt(&p);
            }
            r
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `set_jobs` is process-global; serialize the tests that touch it.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn results_keep_input_order() {
        let _g = TEST_LOCK.lock().unwrap();
        set_jobs(4);
        let out = par_map((0..100u64).collect(), |x| x * x);
        set_jobs(0);
        assert_eq!(out, (0..100u64).map(|x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn sequential_and_parallel_agree() {
        let _g = TEST_LOCK.lock().unwrap();
        set_jobs(1);
        let seq = par_map((0..37i64).collect(), |x| x * 3 - 1);
        set_jobs(3);
        let par = par_map((0..37i64).collect(), |x| x * 3 - 1);
        set_jobs(0);
        assert_eq!(seq, par);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let _g = TEST_LOCK.lock().unwrap();
        set_jobs(8);
        let empty: Vec<u32> = par_map(Vec::new(), |x: u32| x);
        assert!(empty.is_empty());
        let one = par_map(vec![7u32], |x| x + 1);
        set_jobs(0);
        assert_eq!(one, vec![8]);
    }

    #[test]
    fn host_profile_merge_is_jobs_invariant() {
        let _g = TEST_LOCK.lock().unwrap();
        let run = |jobs_n: usize| {
            host::enable(host::ClockSpec::Mock { step_ns: 100 });
            host::install();
            set_jobs(jobs_n);
            let out = par_map((0..8u64).collect(), |x| {
                let _s = host::span("item");
                host::sim_cycles(x + 1);
                x
            });
            set_jobs(0);
            let profile = host::take().expect("profiler installed");
            host::disable();
            assert_eq!(out.len(), 8);
            profile.to_json()
        };
        // The mock clock + input-order adoption make the export a pure
        // function of the work, not of the worker count.
        let solo = run(1);
        assert_eq!(solo, run(4));
        let spans = solo.get("spans").map(mesa_trace::Json::items).unwrap_or_default();
        assert!(spans.iter().any(|s| s.get("path") == Some(&"item".into())));
    }

    #[test]
    fn jobs_override_wins() {
        let _g = TEST_LOCK.lock().unwrap();
        set_jobs(5);
        assert_eq!(jobs(), 5);
        set_jobs(0);
        assert!(jobs() >= 1);
    }
}
