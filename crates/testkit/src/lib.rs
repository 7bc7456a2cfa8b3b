//! `mesa-test`: the workspace's self-contained verification kit.
//!
//! Three modules, zero external dependencies, so `cargo build --offline`
//! and `cargo test --offline` work with an empty registry:
//!
//! - [`rng`]: a deterministic xoshiro256** PRNG (SplitMix64 seeding)
//!   with a `rand`-like API (`gen`, `gen_range`, `gen_bool`, `fill`).
//! - [`prop`]: a property-testing harness — [`Strategy`] generators,
//!   N-case runs via [`Checker`] / [`forall!`], greedy shrinking,
//!   `MESA_TEST_SEED` replay, and proptest-regressions seed files.
//! - [`bench`]: a microbench timer ([`BenchSuite`]) with warmup,
//!   median-of-k, and JSON line output, replacing `criterion`.
//!
//! Determinism contract: every generated value is a pure function of a
//! 64-bit seed. A failing property prints that seed; exporting it as
//! `MESA_TEST_SEED` replays the identical case on any machine.

pub mod bench;
pub mod prop;
pub mod rng;

pub use bench::{BenchResult, BenchSuite, GroupMember};
pub use prop::{Checker, Regressions, Report, Strategy, StrategyExt};
pub use rng::{splitmix64, Rng};
