//! A minimal property-testing harness: composable [`Strategy`] value
//! generators, an N-case runner with greedy counterexample shrinking,
//! deterministic per-case seeds, seed replay through the
//! `MESA_TEST_SEED` environment variable, and persisted regression seeds
//! parsed from proptest-style `*.proptest-regressions` files.
//!
//! The workflow on failure:
//!
//! 1. The runner prints the failing case seed and the shrunk
//!    counterexample.
//! 2. `MESA_TEST_SEED=<seed> cargo test <name>` replays exactly that
//!    case (generation is a pure function of the seed).
//! 3. Appending a `cc <hex> # note` line to the test's
//!    `.proptest-regressions` file makes every future run replay it
//!    before generating novel cases.

use crate::rng::{splitmix64, Rng, SampleUniform};
use mesa_trace::Fnv64;
use std::fmt::Debug;
use std::hash::Hasher;
use std::ops::{Range, RangeInclusive};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// A generator of test values with optional shrinking.
///
/// `generate` must be a pure function of the RNG stream so that a case
/// seed reproduces its value exactly. `shrink` proposes strictly
/// "smaller" candidate values; the runner greedily walks candidates that
/// keep the property failing.
pub trait Strategy {
    /// The generated value type.
    type Value: Clone + Debug;

    /// Draws one value.
    fn generate(&self, rng: &mut Rng) -> Self::Value;

    /// Proposes smaller candidates for a failing `value` (may be empty).
    fn shrink(&self, value: &Self::Value) -> Vec<Self::Value> {
        let _ = value;
        Vec::new()
    }
}

impl<T: Clone + Debug> Strategy for Box<dyn Strategy<Value = T>> {
    type Value = T;
    fn generate(&self, rng: &mut Rng) -> T {
        (**self).generate(rng)
    }
    fn shrink(&self, value: &T) -> Vec<T> {
        (**self).shrink(value)
    }
}

/// Integer shrink candidates between `lo` and failing `v`: the minimum,
/// then a geometric ladder of halving steps back toward `v`, ending with
/// the decrement shrinker `v - 1`. Greedy descent over this ladder
/// converges in O(log(v - lo)) property evaluations.
fn shrink_toward(lo: i128, v: i128) -> Vec<i128> {
    let mut out = Vec::new();
    if v == lo {
        return out;
    }
    out.push(lo);
    // v - span/2, v - span/4, ... — aggressive to gentle.
    let mut step = (v - lo) / 2;
    while step > 1 {
        let cand = v - step;
        if cand != lo && out.last() != Some(&cand) {
            out.push(cand);
        }
        step /= 2;
    }
    if v - 1 != lo && out.last() != Some(&(v - 1)) {
        out.push(v - 1);
    }
    out
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut Rng) -> $t {
                <$t>::sample_uniform(rng, self.start, self.end, false)
            }
            #[allow(clippy::cast_possible_truncation, clippy::cast_possible_wrap, clippy::cast_sign_loss)]
            fn shrink(&self, value: &$t) -> Vec<$t> {
                shrink_toward(self.start as i128, *value as i128)
                    .into_iter()
                    .map(|v| v as $t)
                    .collect()
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut Rng) -> $t {
                <$t>::sample_uniform(rng, *self.start(), *self.end(), true)
            }
            #[allow(clippy::cast_possible_truncation, clippy::cast_possible_wrap, clippy::cast_sign_loss)]
            fn shrink(&self, value: &$t) -> Vec<$t> {
                shrink_toward(*self.start() as i128, *value as i128)
                    .into_iter()
                    .map(|v| v as $t)
                    .collect()
            }
        }
    )*};
}
impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Full-range integer strategy (the analogue of proptest's `any::<T>()`),
/// shrinking toward zero.
#[derive(Debug, Clone, Copy)]
pub struct AnyInt<T>(std::marker::PhantomData<T>);

macro_rules! impl_any_int {
    ($($fn_name:ident => $t:ty),*) => {$(
        /// Uniform over the whole domain of the type, shrinking toward 0.
        #[must_use]
        pub fn $fn_name() -> AnyInt<$t> {
            AnyInt(std::marker::PhantomData)
        }
        impl Strategy for AnyInt<$t> {
            type Value = $t;
            #[allow(clippy::cast_possible_truncation, clippy::cast_possible_wrap)]
            fn generate(&self, rng: &mut Rng) -> $t {
                rng.next_u64() as $t
            }
            #[allow(clippy::cast_possible_truncation, clippy::cast_possible_wrap, clippy::cast_sign_loss)]
            fn shrink(&self, value: &$t) -> Vec<$t> {
                shrink_toward(0, *value as i128).into_iter().map(|v| v as $t).collect()
            }
        }
    )*};
}
impl_any_int!(any_u8 => u8, any_u16 => u16, any_u32 => u32, any_u64 => u64, any_usize => usize,
              any_i8 => i8, any_i16 => i16, any_i32 => i32, any_i64 => i64);

/// Fair coin strategy, shrinking toward `false`.
#[derive(Debug, Clone, Copy)]
pub struct AnyBool;

/// Fair `bool`, shrinking toward `false`.
#[must_use]
pub fn any_bool() -> AnyBool {
    AnyBool
}

impl Strategy for AnyBool {
    type Value = bool;
    fn generate(&self, rng: &mut Rng) -> bool {
        rng.gen::<bool>()
    }
    fn shrink(&self, value: &bool) -> Vec<bool> {
        if *value { vec![false] } else { Vec::new() }
    }
}

/// Uniform choice from a static slice, shrinking toward the first
/// element.
#[derive(Debug, Clone, Copy)]
pub struct Sample<T: 'static>(&'static [T]);

/// Uniform choice from `options` (must be non-empty).
#[must_use]
pub fn sample<T: Clone + Debug + PartialEq>(options: &'static [T]) -> Sample<T> {
    assert!(!options.is_empty(), "sample() needs at least one option");
    Sample(options)
}

impl<T: Clone + Debug + PartialEq> Strategy for Sample<T> {
    type Value = T;
    fn generate(&self, rng: &mut Rng) -> T {
        self.0[rng.gen_range(0..self.0.len())].clone()
    }
    fn shrink(&self, value: &T) -> Vec<T> {
        if *value == self.0[0] { Vec::new() } else { vec![self.0[0].clone()] }
    }
}

/// Uniform choice among heterogeneous boxed strategies producing one
/// value type (proptest's `prop_oneof!`).
pub struct Union<T> {
    options: Vec<Box<dyn Strategy<Value = T>>>,
}

/// Picks one of `options` uniformly per case. Values do not shrink
/// across branches (the producing branch is not recorded).
#[must_use]
pub fn one_of<T: Clone + Debug>(options: Vec<Box<dyn Strategy<Value = T>>>) -> Union<T> {
    assert!(!options.is_empty(), "one_of() needs at least one option");
    Union { options }
}

impl<T: Clone + Debug> Strategy for Union<T> {
    type Value = T;
    fn generate(&self, rng: &mut Rng) -> T {
        self.options[rng.gen_range(0..self.options.len())].generate(rng)
    }
}

/// Maps a strategy's output through a function (proptest's `prop_map`).
/// Mapped values do not shrink (the mapping is not invertible).
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, F, U> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> U,
    U: Clone + Debug,
{
    type Value = U;
    fn generate(&self, rng: &mut Rng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

/// Combinator methods for every strategy.
pub trait StrategyExt: Strategy + Sized {
    /// Maps generated values through `f`.
    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        U: Clone + Debug,
        F: Fn(Self::Value) -> U,
    {
        Map { inner: self, f }
    }

    /// Type-erases the strategy for use in [`one_of`].
    fn boxed(self) -> Box<dyn Strategy<Value = Self::Value>>
    where
        Self: 'static,
    {
        Box::new(self)
    }
}

impl<S: Strategy> StrategyExt for S {}

/// Vectors of `elem`-generated values with length drawn from `len`.
pub struct VecStrategy<S> {
    elem: S,
    len: Range<usize>,
}

/// `Vec` strategy (proptest's `prop::collection::vec`): length uniform in
/// `len`, elements independent draws from `elem`. Shrinks by halving the
/// length toward the minimum, dropping the last element, and shrinking
/// individual elements.
#[must_use]
pub fn vec<S: Strategy>(elem: S, len: Range<usize>) -> VecStrategy<S> {
    assert!(len.start < len.end, "vec() needs a non-empty length range");
    VecStrategy { elem, len }
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;

    fn generate(&self, rng: &mut Rng) -> Vec<S::Value> {
        let n = rng.gen_range(self.len.clone());
        (0..n).map(|_| self.elem.generate(rng)).collect()
    }

    fn shrink(&self, value: &Vec<S::Value>) -> Vec<Vec<S::Value>> {
        let min = self.len.start;
        let mut out = Vec::new();
        if value.len() > min {
            let half = (value.len() / 2).max(min);
            if half < value.len() {
                out.push(value[..half].to_vec());
            }
            out.push(value[..value.len() - 1].to_vec());
        }
        for i in 0..value.len() {
            if let Some(smaller) = self.elem.shrink(&value[i]).into_iter().next() {
                let mut v2 = value.clone();
                v2[i] = smaller;
                out.push(v2);
            }
        }
        out
    }
}

/// Word streams near a valid encoding, for fuzzing a decoder: a quarter
/// are pure noise, the rest are `valid` with one to four words replaced
/// (by noise, a small value, or `valid`'s word with one bit flipped),
/// sometimes cut short or extended by noise. Mixing small values and
/// near-valid words in keeps most cases past the decoder's first checks.
#[derive(Debug, Clone)]
pub struct WordsNear {
    valid: Vec<u64>,
}

/// Word-stream fuzzing strategy around `valid` (see [`WordsNear`]).
/// Shrinks by dropping the last word and by reverting single words to
/// `valid`.
#[must_use]
pub fn words_near(valid: Vec<u64>) -> WordsNear {
    WordsNear { valid }
}

impl Strategy for WordsNear {
    type Value = Vec<u64>;

    fn generate(&self, rng: &mut Rng) -> Vec<u64> {
        let noise = |rng: &mut Rng| match rng.gen_range(0..3) {
            0 => rng.next_u64(),
            1 => rng.gen_range(0..64),
            _ => 1 << rng.gen_range(0..64),
        };
        if self.valid.is_empty() || rng.gen_bool(0.25) {
            let n = rng.gen_range(0..2 * self.valid.len() + 2);
            return (0..n).map(|_| noise(rng)).collect();
        }
        let mut words = self.valid.clone();
        for _ in 0..rng.gen_range(1..5) {
            let i = rng.gen_range(0..words.len());
            words[i] = match rng.gen_range(0..3) {
                0 => noise(rng),
                1 => words[i] ^ 1 << rng.gen_range(0..64),
                _ => rng.gen_range(0..64),
            };
        }
        match rng.gen_range(0..4) {
            0 => words.truncate(rng.gen_range(0..words.len())),
            1 => (0..rng.gen_range(1..5)).for_each(|_| words.push(noise(rng))),
            _ => {}
        }
        words
    }

    fn shrink(&self, value: &Vec<u64>) -> Vec<Vec<u64>> {
        let mut out = Vec::new();
        if !value.is_empty() {
            out.push(value[..value.len() - 1].to_vec());
        }
        for (i, (&w, &v)) in value.iter().zip(&self.valid).enumerate() {
            if w != v {
                let mut reverted = value.clone();
                reverted[i] = v;
                out.push(reverted);
            }
        }
        out
    }
}

macro_rules! impl_tuple_strategy {
    ($(($($S:ident . $idx:tt),+))*) => {$(
        impl<$($S: Strategy),+> Strategy for ($($S,)+) {
            type Value = ($($S::Value,)+);

            fn generate(&self, rng: &mut Rng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }

            fn shrink(&self, value: &Self::Value) -> Vec<Self::Value> {
                let mut out = Vec::new();
                $(
                    for cand in self.$idx.shrink(&value.$idx) {
                        let mut v2 = value.clone();
                        v2.$idx = cand;
                        out.push(v2);
                    }
                )+
                out
            }
        }
    )*};
}
impl_tuple_strategy! {
    (A.0)
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
    (A.0, B.1, C.2, D.3, E.4)
    (A.0, B.1, C.2, D.3, E.4, F.5)
}

/// Persisted regression seeds, parsed from a proptest-style
/// `*.proptest-regressions` file: lines of `cc <hex> # comment`, where
/// `<hex>` is a hex digest. Each digest is folded (XOR over 64-bit limbs)
/// into the case seed that the harness replays.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Regressions {
    seeds: Vec<u64>,
}

impl Regressions {
    /// Parses a regression file. Missing files yield an empty set (the
    /// same behavior proptest has); malformed `cc` lines are skipped.
    #[must_use]
    pub fn load(path: &str) -> Self {
        let Ok(text) = std::fs::read_to_string(path) else {
            return Regressions::default();
        };
        Regressions::parse(&text)
    }

    /// Parses regression-file text.
    #[must_use]
    pub fn parse(text: &str) -> Self {
        let mut seeds = Vec::new();
        for line in text.lines() {
            let line = line.trim();
            let Some(rest) = line.strip_prefix("cc ") else { continue };
            let digest = rest.split_whitespace().next().unwrap_or("");
            if let Some(seed) = fold_hex_digest(digest) {
                seeds.push(seed);
            }
        }
        Regressions { seeds }
    }

    /// The replay seeds, in file order.
    #[must_use]
    pub fn seeds(&self) -> &[u64] {
        &self.seeds
    }

    /// Number of persisted seeds.
    #[must_use]
    pub fn len(&self) -> usize {
        self.seeds.len()
    }

    /// Whether no seeds are persisted.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.seeds.is_empty()
    }
}

/// XOR-folds a hex digest into a 64-bit seed. Returns `None` for
/// non-hex or empty input.
fn fold_hex_digest(digest: &str) -> Option<u64> {
    if digest.is_empty() || !digest.chars().all(|c| c.is_ascii_hexdigit()) {
        return None;
    }
    let mut acc = 0u64;
    let bytes = digest.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let end = (i + 16).min(bytes.len());
        let limb = u64::from_str_radix(&digest[i..end], 16).ok()?;
        acc ^= limb;
        i = end;
    }
    Some(acc)
}

/// What a [`Checker`] run did: exposed so tests can prove regression
/// seeds were actually replayed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Report {
    /// Persisted regression seeds replayed before random generation.
    pub regressions_replayed: usize,
    /// Freshly generated cases run (0 when `MESA_TEST_SEED` pinned the
    /// run to a single replayed case).
    pub cases_run: u32,
}

/// Property-test runner: configuration + execution.
#[derive(Debug, Clone)]
pub struct Checker {
    name: String,
    cases: u32,
    regressions: Regressions,
}

/// Environment variable that pins every [`Checker`] in the process to a
/// single replayed case seed (as printed by a failure message).
const SEED_ENV: &str = "MESA_TEST_SEED";

impl Checker {
    /// New runner for the property `name` (used in failure messages and
    /// to derive the base seed), defaulting to 256 cases.
    #[must_use]
    pub fn new(name: &str) -> Self {
        Checker { name: name.to_string(), cases: 256, regressions: Regressions::default() }
    }

    /// Sets the number of random cases.
    #[must_use]
    pub fn cases(mut self, cases: u32) -> Self {
        self.cases = cases;
        self
    }

    /// Loads persisted regression seeds to replay before random cases.
    #[must_use]
    pub fn regressions_file(mut self, path: &str) -> Self {
        self.regressions = Regressions::load(path);
        self
    }

    /// Uses an already-parsed regression set.
    #[must_use]
    pub fn regressions(mut self, regressions: Regressions) -> Self {
        self.regressions = regressions;
        self
    }

    /// Base seed for random case derivation: a stable FNV-1a hash of the
    /// property name, so distinct properties explore distinct streams
    /// but every run of the same property is identical.
    #[must_use]
    pub fn base_seed(&self) -> u64 {
        let mut h = Fnv64::new();
        h.write(self.name.as_bytes());
        h.finish()
    }

    /// Runs the property: regression seeds first, then either the single
    /// `MESA_TEST_SEED` replay or `cases` fresh cases. Panics with the
    /// shrunk counterexample and its replay seed on failure.
    ///
    /// # Panics
    /// Panics when the property fails for any generated value.
    pub fn check<S, F>(&self, strategy: &S, mut prop: F) -> Report
    where
        S: Strategy,
        F: FnMut(S::Value) -> Result<(), String>,
    {
        let mut report = Report::default();

        for &seed in self.regressions.seeds() {
            self.run_case(strategy, &mut prop, seed, "regression");
            report.regressions_replayed += 1;
        }

        if let Ok(pinned) = std::env::var(SEED_ENV) {
            let seed = parse_seed(&pinned)
                .unwrap_or_else(|| panic!("{SEED_ENV}={pinned} is not a valid u64 seed"));
            self.run_case(strategy, &mut prop, seed, "pinned");
            return report;
        }

        let mut base = self.base_seed();
        for _ in 0..self.cases {
            let seed = splitmix64(&mut base);
            self.run_case(strategy, &mut prop, seed, "random");
            report.cases_run += 1;
        }
        report
    }

    /// Generates, tests, and (on failure) shrinks one case.
    fn run_case<S, F>(&self, strategy: &S, prop: &mut F, seed: u64, kind: &str)
    where
        S: Strategy,
        F: FnMut(S::Value) -> Result<(), String>,
    {
        let mut rng = Rng::seed_from_u64(seed);
        let value = strategy.generate(&mut rng);
        let Err(first_msg) = run_guarded(prop, value.clone()) else {
            return;
        };
        let (shrunk, msg, steps) = shrink_failure(strategy, prop, value, first_msg);
        panic!(
            "property `{}` failed on {kind} case (seed {seed:#018x})\n\
             counterexample (after {steps} shrink steps): {shrunk:?}\n\
             error: {msg}\n\
             replay with: {SEED_ENV}={seed:#018x} cargo test",
            self.name
        );
    }
}

/// Parses decimal or `0x` hex seeds.
fn parse_seed(text: &str) -> Option<u64> {
    let text = text.trim();
    if let Some(hex) = text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        text.parse().ok()
    }
}

/// Runs the property, converting panics into `Err` so shrinking can
/// continue past panicking candidates.
fn run_guarded<V, F>(prop: &mut F, value: V) -> Result<(), String>
where
    F: FnMut(V) -> Result<(), String>,
{
    match catch_unwind(AssertUnwindSafe(|| prop(value))) {
        Ok(r) => r,
        Err(payload) => Err(panic_message(&*payload)),
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("panic: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("panic: {s}")
    } else {
        "panic: <non-string payload>".to_string()
    }
}

/// Greedy shrink: repeatedly move to the first candidate that still
/// fails, until no candidate fails or the step budget runs out.
fn shrink_failure<S, F>(
    strategy: &S,
    prop: &mut F,
    mut value: S::Value,
    mut msg: String,
    // Returns (shrunk value, its failure message, shrink steps taken).
) -> (S::Value, String, u32)
where
    S: Strategy,
    F: FnMut(S::Value) -> Result<(), String>,
{
    const MAX_STEPS: u32 = 2048;
    let mut steps = 0;
    'outer: while steps < MAX_STEPS {
        for cand in strategy.shrink(&value) {
            if let Err(e) = run_guarded(prop, cand.clone()) {
                value = cand;
                msg = e;
                steps += 1;
                continue 'outer;
            }
        }
        break;
    }
    (value, msg, steps)
}

/// Asserts a condition inside a property body, failing the case (and
/// triggering shrinking) instead of aborting the whole run.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return Err(format!("assertion failed: {}", stringify!($cond)));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err(format!($($fmt)+));
        }
    };
}

/// Asserts equality inside a property body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        if l != r {
            return Err(format!("assertion failed: `{:?}` != `{:?}`", l, r));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if l != r {
            return Err(format!("{}: `{:?}` != `{:?}`", format!($($fmt)+), l, r));
        }
    }};
}

/// Runs a property over named strategy draws:
///
/// ```
/// use mesa_test::{forall, prop_assert, Checker};
///
/// forall!(Checker::new("add_commutes").cases(64), |(a in 0u32..100, b in 0u32..100)| {
///     prop_assert!(a + b == b + a);
/// });
/// ```
///
/// Expands to a tuple strategy and a closure returning
/// `Result<(), String>`; use `prop_assert!`/`prop_assert_eq!` (or
/// early-`return Err(..)`) to fail a case. Returns the [`Report`].
#[macro_export]
macro_rules! forall {
    ($checker:expr, |($($name:ident in $strategy:expr),+ $(,)?)| $body:block) => {{
        let __strategy = ($($strategy,)+);
        $checker.check(&__strategy, |($($name,)+)| {
            $body
            #[allow(unreachable_code)]
            Ok(())
        })
    }};
}

#[cfg(test)]
mod tests {
    use super::*;
    

    #[test]
    fn passing_property_runs_all_cases() {
        let report = forall!(Checker::new("tautology").cases(32), |(x in 0u64..100)| {
            prop_assert!(x < 100);
        });
        assert_eq!(report.cases_run, 32);
        assert_eq!(report.regressions_replayed, 0);
    }

    #[test]
    fn failing_property_panics_with_seed_and_shrinks() {
        let result = catch_unwind(AssertUnwindSafe(|| {
            forall!(Checker::new("find_big").cases(200), |(x in 0u64..1000)| {
                prop_assert!(x < 500, "x too big: {x}");
            });
        }));
        let msg = panic_message(&*result.unwrap_err());
        // The minimal counterexample for `x < 500` over 0..1000 is 500.
        assert!(msg.contains("counterexample"), "missing counterexample: {msg}");
        assert!(msg.contains("500"), "should shrink to 500: {msg}");
        assert!(msg.contains("MESA_TEST_SEED="), "missing replay seed: {msg}");
    }

    #[test]
    fn shrinking_minimizes_vectors() {
        let result = catch_unwind(AssertUnwindSafe(|| {
            Checker::new("short_vecs").cases(100).check(
                &(vec(0u32..100, 1..20),),
                |(v,)| {
                    prop_assert!(v.len() < 5, "long vec");
                    Ok(())
                },
            );
        }));
        let msg = panic_message(&*result.unwrap_err());
        // Minimal failing length is 5, all elements shrunk to 0.
        assert!(
            msg.contains("[0, 0, 0, 0, 0]"),
            "vector should shrink to five zeros: {msg}"
        );
    }

    #[test]
    fn panicking_properties_are_caught_and_shrunk() {
        let result = catch_unwind(AssertUnwindSafe(|| {
            forall!(Checker::new("panics").cases(100), |(x in 0i64..100)| {
                assert!(x < 7, "boom at {x}");
            });
        }));
        let msg = panic_message(&*result.unwrap_err());
        assert!(msg.contains("boom"), "panic payload should surface: {msg}");
        assert!(msg.contains("7"), "should shrink to 7: {msg}");
    }

    #[test]
    fn regression_file_parsing_folds_hex() {
        let text = "# comment\ncc 0000000000000001000000000000000200000000000000040000000000000008 # note\ncc ff\nnot a seed line\n";
        let regs = Regressions::parse(text);
        assert_eq!(regs.seeds(), &[0x1 ^ 0x2 ^ 0x4 ^ 0x8, 0xff]);
    }

    #[test]
    fn regression_seeds_replay_before_random_cases() {
        let regs = Regressions::parse("cc 00000000000000aa\ncc 00000000000000bb\n");
        let mut seen = Vec::new();
        let checker = Checker::new("replay").cases(3).regressions(regs);
        let report = checker.check(&(0u64..u64::MAX,), |(v,)| {
            seen.push(v);
            Ok(())
        });
        assert_eq!(report.regressions_replayed, 2);
        assert_eq!(report.cases_run, 3);
        assert_eq!(seen.len(), 5);
        // The two regression draws are pure functions of their seeds.
        let mut expect_a = Rng::seed_from_u64(0xaa);
        let mut expect_b = Rng::seed_from_u64(0xbb);
        assert_eq!(seen[0], (0u64..u64::MAX).generate(&mut expect_a));
        assert_eq!(seen[1], (0u64..u64::MAX).generate(&mut expect_b));
    }

    #[test]
    fn same_property_name_same_cases() {
        let mut a = Vec::new();
        forall!(Checker::new("stable").cases(16), |(x in 0u64..1_000_000)| {
            a.push(x);
        });
        let mut b = Vec::new();
        forall!(Checker::new("stable").cases(16), |(x in 0u64..1_000_000)| {
            b.push(x);
        });
        assert_eq!(a, b);
        assert!(a.windows(2).any(|w| w[0] != w[1]), "cases should vary");
    }

    #[test]
    fn strategy_combinators_generate_and_shrink() {
        let mut rng = Rng::seed_from_u64(1);
        let s = sample(&[10u8, 20, 30]);
        for _ in 0..50 {
            assert!([10, 20, 30].contains(&s.generate(&mut rng)));
        }
        assert_eq!(s.shrink(&30), vec![10]);
        assert!(s.shrink(&10).is_empty());

        let u = one_of(vec![(1u8..2).boxed(), (2u8..3).boxed()]);
        for _ in 0..50 {
            assert!([1, 2].contains(&u.generate(&mut rng)));
        }

        let m = (0u8..10).prop_map(|v| v * 2);
        for _ in 0..50 {
            let v = m.generate(&mut rng);
            assert!(v % 2 == 0 && v < 20);
        }

        let t = (0u32..10, 5i64..8);
        let shrunk = t.shrink(&(9, 7));
        assert!(shrunk.contains(&(0, 7)), "first component shrinks to lo");
        assert!(shrunk.contains(&(9, 5)), "second component shrinks to lo");
    }
}
