//! `--fast-forward` is the one switch for functional CPU warmup: the
//! binaries take it off the command line and set it on the configs they
//! build. These tests check that it still reaches the episodes, so a
//! flag that silently did nothing fails here rather than passing the
//! `ci.sh` fig11 smoke within its tolerance.

use mesa_bench::serve::{GridSpec, KernelSpec, ServeEngine, ServeRequest};
use mesa_workloads::KernelSize;
use std::process::Command;

/// The `(fast-forwarded, simulated)` warmup instruction counts `inspect`
/// prints for one nn episode.
fn inspect_warmup(extra: &[&str]) -> (u64, u64) {
    let out = Command::new(env!("CARGO_BIN_EXE_inspect"))
        .args(["nn", "tiny"])
        .args(extra)
        .output()
        .expect("inspect runs");
    assert!(out.status.success(), "inspect failed: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let line = stdout.lines().find(|l| l.contains("warmup instrs (")).expect("cpu line");
    let count = |label: &str| -> u64 {
        let before = line.split(label).next().expect("label present");
        let digits = before.rsplit(|c: char| !c.is_ascii_digit()).find(|s| !s.is_empty());
        digits.and_then(|n| n.parse().ok()).expect("count")
    };
    (count(" fast-forwarded"), count(" simulated"))
}

#[test]
fn inspect_fast_forward_flag_reaches_the_episode() {
    let (ff_on, _) = inspect_warmup(&["--fast-forward"]);
    assert!(ff_on > 0, "--fast-forward must fast-forward warmup instructions");
    let (ff_off, simulated_off) = inspect_warmup(&[]);
    assert_eq!(ff_off, 0);
    assert!(simulated_off > 0);
}

#[test]
fn serve_engine_fast_forward_reaches_every_request() {
    let req = ServeRequest {
        kernel: KernelSpec::Named { name: "nn".to_string(), size: KernelSize::Tiny },
        grid: GridSpec::M128,
        data_seed: 1,
        tenant: 0,
    };
    let on = ServeEngine::with_fast_forward(true);
    let r = on.handle(&req);
    assert!(r.ok, "{}", r.render);
    assert!(!r.render.contains("/0ff "), "warmup must be fast-forwarded: {}", r.render);
    assert_eq!(on.reference(&req), r, "the reference shares the engine's setting");
    let off = ServeEngine::new().handle(&req);
    assert!(off.render.contains("/0ff "), "{}", off.render);
}
