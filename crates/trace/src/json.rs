//! The workspace's one JSON codec: every export is rendered from a
//! [`Json`] tree and every validator reads one.
//!
//! - Objects keep their key order, so a writer's field order is the
//!   document's field order.
//! - Numbers keep their literal text: a `u64` reads back exactly, and
//!   each writer picks its float's digits with [`Json::fixed`]. That
//!   constructor holds the one non-finite rule: JSON has no NaN or
//!   infinity, so such values render as `null`.
//! - [`parse`] is total over any input: it returns a tree or an error
//!   naming a byte offset, and nesting deeper than 128 levels is an error
//!   rather than a stack overflow.
//!
//! ```
//! use mesa_trace::json::{parse, Json};
//!
//! let doc = Json::obj([("count", 3u64.into()), ("rate", Json::fixed(f64::NAN, 3))]);
//! assert_eq!(doc.to_string(), r#"{"count":3,"rate":null}"#);
//! assert_eq!(parse(&doc.to_string()), Ok(doc));
//! ```

use std::fmt::{self, Write as _};

/// Deepest array/object nesting [`parse`] accepts.
const MAX_DEPTH: usize = 128;

/// A JSON value. Objects keep their key order; numbers keep their
/// literal text.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, as its literal text.
    Num(String),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object from `(key, value)` pairs, in order.
    pub fn obj<K: Into<String>>(entries: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(entries.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// An array of anything convertible to [`Json`].
    pub fn arr<T: Into<Json>>(items: impl IntoIterator<Item = T>) -> Json {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }

    /// A float with `decimals` digits after the point; `null` when not
    /// finite.
    #[must_use]
    pub fn fixed(v: f64, decimals: usize) -> Json {
        if v.is_finite() {
            Json::Num(format!("{v:.decimals$}"))
        } else {
            Json::Null
        }
    }

    /// The value under `key` of an object.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.entries().iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// The value at a path of object keys (`&[]` is `self`).
    #[must_use]
    pub fn at(&self, path: &[&str]) -> Option<&Json> {
        path.iter().try_fold(self, |v, key| v.get(key))
    }

    /// An object's entries (empty for other values).
    #[must_use]
    pub fn entries(&self) -> &[(String, Json)] {
        match self {
            Json::Obj(entries) => entries,
            _ => &[],
        }
    }

    /// An array's items (empty for other values).
    #[must_use]
    pub fn items(&self) -> &[Json] {
        match self {
            Json::Arr(items) => items,
            _ => &[],
        }
    }

    /// The string, if this is one.
    #[must_use]
    pub fn str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number, if this is an unsigned integer that fits a `u64`.
    #[must_use]
    pub fn u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) => n.parse().ok(),
            _ => None,
        }
    }

    /// The number, if this is one.
    #[must_use]
    pub fn f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => n.parse().ok(),
            _ => None,
        }
    }

    /// Renders an array or object with one member per line, indented two
    /// spaces, then a newline: the layout of the documents people diff by
    /// line (a bench suite, a profile report). Members render compactly.
    #[must_use]
    pub fn to_lines(&self) -> String {
        let members: Vec<String> = match self {
            Json::Arr(items) => items.iter().map(Json::to_string).collect(),
            Json::Obj(entries) => {
                entries.iter().map(|(k, v)| format!("{}:{v}", json_string(k))).collect()
            }
            other => return format!("{other}\n"),
        };
        let (open, close) = if matches!(self, Json::Arr(_)) { ('[', ']') } else { ('{', '}') };
        let mut out = format!("{open}\n");
        for (i, m) in members.iter().enumerate() {
            out.push_str("  ");
            out.push_str(m);
            out.push_str(if i + 1 < members.len() { ",\n" } else { "\n" });
        }
        out.push(close);
        out.push('\n');
        out
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(n) => f.write_str(n),
            Json::Str(s) => write_escaped(f, s),
            Json::Arr(items) => {
                f.write_char('[')?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_char(',')?;
                    }
                    v.fmt(f)?;
                }
                f.write_char(']')
            }
            Json::Obj(entries) => {
                f.write_char('{')?;
                for (i, (k, v)) in entries.iter().enumerate() {
                    if i > 0 {
                        f.write_char(',')?;
                    }
                    write_escaped(f, k)?;
                    f.write_char(':')?;
                    v.fmt(f)?;
                }
                f.write_char('}')
            }
        }
    }
}

/// `From` impls rendering a value's `Display` text as a number or string.
macro_rules! from_display {
    ($variant:ident: $($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(v: $t) -> Json {
                Json::$variant(v.to_string())
            }
        }
    )*};
}
from_display!(Num: u32, u64, usize, i64);
from_display!(Str: &str, String);

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

/// Escapes `s` as a JSON string literal, including the quotes.
#[must_use]
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    let _ = write_escaped(&mut out, s);
    out
}

fn write_escaped(out: &mut impl fmt::Write, s: &str) -> fmt::Result {
    out.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => out.write_str("\\\"")?,
            '\\' => out.write_str("\\\\")?,
            '\n' => out.write_str("\\n")?,
            '\r' => out.write_str("\\r")?,
            '\t' => out.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32)?,
            c => out.write_char(c)?,
        }
    }
    out.write_char('"')
}

/// Parses one JSON document.
///
/// # Errors
/// A message with the byte offset of the first syntax error. A `NaN` or
/// `inf` in value position (what Rust's float formatter writes for a
/// non-finite value) is named in the message.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser { text, pos: 0 };
    let value = p.value(0)?;
    p.ws();
    if p.pos != text.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, what: &str) -> String {
        format!("{what} at byte {}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, c: u8) -> bool {
        self.ws();
        let hit = self.peek() == Some(c);
        self.pos += usize::from(hit);
        hit
    }

    /// Advances past a run of bytes matching `pred`; returns its length.
    fn run(&mut self, pred: impl Fn(u8) -> bool) -> usize {
        let start = self.pos;
        while self.peek().is_some_and(&pred) {
            self.pos += 1;
        }
        self.pos - start
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        self.ws();
        let open = self.peek();
        if matches!(open, Some(b'[' | b'{')) && depth >= MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH}")));
        }
        match open {
            Some(open @ (b'[' | b'{')) => {
                self.pos += 1;
                let is_obj = open == b'{';
                let close = if is_obj { b'}' } else { b']' };
                // Array items get empty keys, dropped at the end.
                let mut members = Vec::new();
                if !self.eat(close) {
                    loop {
                        self.ws();
                        let key = if is_obj { self.string()? } else { String::new() };
                        if is_obj && !self.eat(b':') {
                            return Err(self.err("expected ':'"));
                        }
                        members.push((key, self.value(depth + 1)?));
                        if self.eat(close) {
                            break;
                        }
                        if !self.eat(b',') {
                            return Err(self.err(&format!("expected ',' or '{}'", close as char)));
                        }
                    }
                }
                Ok(if is_obj {
                    Json::Obj(members)
                } else {
                    Json::Arr(members.into_iter().map(|(_, v)| v).collect())
                })
            }
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(_) => self.number(),
            None => Err(self.err("unexpected end")),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.text.get(self.pos..).is_some_and(|rest| rest.starts_with(word)) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err("unknown literal"))
        }
    }

    /// `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`, kept as text.
    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        self.pos += usize::from(self.peek() == Some(b'-'));
        let word = self.pos;
        if self.run(|c| c.is_ascii_alphabetic()) > 0 {
            let token = self.text.get(start..self.pos).unwrap_or_default();
            let bare = self.text.get(word..self.pos).unwrap_or_default().to_ascii_lowercase();
            self.pos = start;
            return Err(if matches!(bare.as_str(), "nan" | "inf" | "infinity") {
                self.err(&format!("non-finite number {token}"))
            } else {
                self.err("unexpected character")
            });
        }
        let digits = |p: &mut Self| p.run(|c| c.is_ascii_digit());
        let int_start = self.pos;
        let int_len = digits(self);
        let leading_zero = int_len > 1 && self.text.as_bytes().get(int_start) == Some(&b'0');
        let mut ok = int_len > 0 && !leading_zero;
        if self.peek() == Some(b'.') {
            self.pos += 1;
            ok &= digits(self) > 0;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            self.pos += usize::from(matches!(self.peek(), Some(b'+' | b'-')));
            ok &= digits(self) > 0;
        }
        match self.text.get(start..self.pos) {
            Some(n) if ok => Ok(Json::Num(n.to_string())),
            _ => Err(self.err("bad number")),
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let hex = self
            .text
            .get(self.pos..self.pos + 4)
            .filter(|h| h.bytes().all(|c| c.is_ascii_hexdigit()))
            .and_then(|h| u32::from_str_radix(h, 16).ok())
            .ok_or_else(|| self.err("bad \\u escape"))?;
        self.pos += 4;
        Ok(hex)
    }

    fn string(&mut self) -> Result<String, String> {
        if self.peek() != Some(b'"') {
            return Err(self.err("expected a string"));
        }
        self.pos += 1;
        let mut out = String::new();
        loop {
            let start = self.pos;
            self.run(|c| c != b'"' && c != b'\\' && c >= 0x20);
            out.push_str(self.text.get(start..self.pos).unwrap_or_default());
            let Some(c) = self.peek() else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            match c {
                b'"' => return Ok(out),
                b'\\' => {
                    let e = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    out.push(match e {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        b'u' => self.unicode_escape()?,
                        _ => return Err(self.err("unknown escape")),
                    });
                }
                _ => return Err(self.err("control character in string")),
            }
        }
    }

    /// The code point of a `\u` escape (its `\u` already consumed),
    /// joining a UTF-16 surrogate pair.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let hi = self.hex4()?;
        let code = if (0xD800..0xDC00).contains(&hi) {
            if self.text.get(self.pos..self.pos + 2) != Some("\\u") {
                return Err(self.err("unpaired surrogate"));
            }
            self.pos += 2;
            let lo = self.hex4()?;
            if !(0xDC00..0xE000).contains(&lo) {
                return Err(self.err("unpaired surrogate"));
            }
            0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
        } else {
            hi
        };
        char::from_u32(code).ok_or_else(|| self.err("unpaired surrogate"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::{ClockSpec, HostProfiler};
    use crate::{FlightRecorder, Histogram, RingTracer, Subsystem, Tracer};
    use mesa_test::{forall, prop_assert_eq, Checker, Rng};

    #[test]
    fn parses_nested_documents() {
        let doc = parse(r#" {"a": [1, -2.5e3, true, null], "b": {"c": "x\"y😀"}} "#);
        let doc = doc.expect("valid JSON");
        assert_eq!(doc.get("a").map(|a| a.items().len()), Some(4));
        assert_eq!(doc.get("a").and_then(|a| a.items()[1].f64()), Some(-2500.0));
        assert_eq!(doc.at(&["b", "c"]).and_then(Json::str), Some("x\"y\u{1f600}"));
        assert_eq!(parse("18446744073709551615").ok().and_then(|n| n.u64()), Some(u64::MAX));
        assert_eq!(parse(r#""\ud83d\ude00\u00e9""#), Ok(Json::from("\u{1f600}\u{e9}")));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            r#"{"a" 1}"#,
            "tru",
            "1 2",
            r#""abc"#,
            "01",
            "1.",
            "-",
            ".5",
            "1e",
            "+1",
            "\"a\u{1}b\"",
            r#""\ud800""#,
            r#""\udc00""#,
            "{\"a\":1,}",
            "{\"a\":1} extra",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} parsed");
        }
    }

    #[test]
    fn non_finite_values_are_named() {
        for (doc, token) in [("{\"x\": NaN}", "NaN"), ("[1, inf]", "inf"), ("[-inf]", "-inf")] {
            let err = parse(doc).expect_err(doc);
            assert!(err.contains(&format!("non-finite number {token} ")), "{err}");
        }
    }

    #[test]
    fn nesting_is_bounded() {
        let ok = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(parse(&ok).is_ok());
        let deep = "[".repeat(MAX_DEPTH + 1) + &"]".repeat(MAX_DEPTH + 1);
        assert!(parse(&deep).expect_err("too deep").contains("nesting"));
        assert!(parse(&"[".repeat(100_000)).is_err());
        assert!(parse(&"{\"a\":".repeat(100_000)).is_err());
    }

    #[test]
    fn constructors_render_numbers_and_the_non_finite_rule() {
        let doc = Json::obj([
            ("u", u64::MAX.into()),
            ("i", (-3i64).into()),
            ("f", Json::fixed(0.5, 1)),
            ("x", Json::fixed(2.0 / 3.0, 3)),
            ("nan", Json::fixed(f64::NAN, 2)),
            ("inf", Json::fixed(f64::INFINITY, 1)),
            ("none", None::<u64>.into()),
            ("s", "a\"b\n".into()),
        ]);
        assert_eq!(
            doc.to_string(),
            r#"{"u":18446744073709551615,"i":-3,"f":0.5,"x":0.667,"nan":null,"inf":null,"none":null,"s":"a\"b\n"}"#
        );
    }

    #[test]
    fn line_layout_puts_one_member_per_line() {
        let arr = Json::arr([1u64, 2]);
        assert_eq!(arr.to_lines(), "[\n  1,\n  2\n]\n");
        assert_eq!(Json::Arr(Vec::new()).to_lines(), "[\n]\n");
        let obj = Json::obj([("a", Json::from(1u64)), ("b", Json::arr([true]))]);
        assert_eq!(obj.to_lines(), "{\n  \"a\":1,\n  \"b\":[true]\n}\n");
        assert_eq!(parse(&obj.to_lines()), Ok(obj));
    }

    const PALETTE: [char; 18] = [
        'a', 'Z', '0', ' ', '"', '\\', '\n', '\t', '\r', '\u{1}', '\u{1f}', 'é', '😀', ';', '{',
        ':', ',', '\u{2028}',
    ];

    fn random_string(rng: &mut Rng) -> String {
        (0..rng.gen_range(0..8)).map(|_| PALETTE[rng.gen_range(0..PALETTE.len())]).collect()
    }

    fn random_number(rng: &mut Rng) -> Json {
        match rng.gen_range(0..5) {
            0 => u64::MAX.into(),
            1 => rng.next_u64().into(),
            2 => (rng.next_u64() as i64).into(),
            3 => Json::fixed(f64::from_bits(rng.next_u64()), 3),
            _ => Json::fixed(rng.next_u64() as f64 / 7.0e9, rng.gen_range(0..5)),
        }
    }

    fn random_tree(rng: &mut Rng, depth: u32) -> Json {
        match rng.gen_range(0..if depth == 0 { 4 } else { 6 }) {
            0 => Json::Null,
            1 => rng.gen_bool(0.5).into(),
            2 => random_number(rng),
            3 => random_string(rng).into(),
            4 => Json::Arr((0..rng.gen_range(0..4)).map(|_| random_tree(rng, depth - 1)).collect()),
            _ => {
                let member = |rng: &mut Rng| (random_string(rng), random_tree(rng, depth - 1));
                Json::Obj((0..rng.gen_range(0..4)).map(|_| member(rng)).collect())
            }
        }
    }

    /// One export of every emitter in this crate, built from `rng`;
    /// JSON-lines logs count as one document per line.
    fn random_exports(rng: &mut Rng) -> Vec<String> {
        let mut tracer = RingTracer::new(64);
        let mut flight = FlightRecorder::new();
        let mut hist = Histogram::new();
        let mut prof = HostProfiler::from_spec(ClockSpec::Mock { step_ns: 10 });
        let mut gauges = Vec::new();
        for cycle in 0..rng.gen_range(1..12u64) {
            let name = random_string(rng);
            let sub = Subsystem::ALL[rng.gen_range(0..Subsystem::ALL.len())];
            tracer.span_begin(sub, &name, cycle);
            tracer.instant(sub, &random_string(rng), &random_string(rng), cycle);
            tracer.counter(sub, &name, rng.next_u64(), cycle);
            tracer.span_end(sub, &name, cycle + 1);
            let kind = ["admit", "slice", "fault"][rng.gen_range(0..3)];
            flight.record(rng.gen_range(0..3), cycle, kind, random_string(rng));
            hist.record(rng.next_u64() >> rng.gen_range(0..64));
            prof.begin(&name);
            prof.attribute_sim_cycles(rng.gen_range(0..1000));
            gauges.push((random_string(rng), f64::from_bits(rng.next_u64())));
            if rng.gen_bool(0.5) {
                prof.end();
            }
        }
        let mut profile = prof.finish();
        profile.gauges.extend(gauges);
        let mut out = vec![
            tracer.to_chrome_trace(),
            flight.post_mortem(&random_string(rng)),
            hist.to_json().to_string(),
            profile.to_json().to_string(),
        ];
        out.extend(tracer.to_json_lines().lines().map(str::to_string));
        out
    }

    #[test]
    fn every_emitter_reparses_to_the_same_bytes() {
        let checker = Checker::new("json::every_emitter_reparses").cases(128);
        forall!(checker, |(seed in 0u64..u64::MAX)| {
            for doc in random_exports(&mut Rng::seed_from_u64(seed)) {
                prop_assert_eq!(parse(&doc).map(|j| j.to_string()), Ok(doc.clone()));
            }
        });
    }

    #[test]
    fn render_then_parse_is_the_identity() {
        forall!(Checker::new("json::render_then_parse").cases(512), |(seed in 0u64..u64::MAX)| {
            let tree = random_tree(&mut Rng::seed_from_u64(seed), 4);
            prop_assert_eq!(parse(&tree.to_string()), Ok(tree.clone()));
            prop_assert_eq!(parse(&tree.to_lines()), Ok(tree.clone()));
        });
    }

    #[test]
    fn parse_is_total_on_noise_and_damaged_exports() {
        const NEAR: &[u8] = b"{}[]\",:\\0123456789.eE+-tnfu aNi";
        assert!(parse(&"[".repeat(100_000)).is_err());
        forall!(Checker::new("json::parse_is_total").cases(512), |(seed in 0u64..u64::MAX)| {
            let mut rng = Rng::seed_from_u64(seed);
            let exports = random_exports(&mut rng);
            let mut bytes = exports[rng.gen_range(0..exports.len())].clone().into_bytes();
            match rng.gen_range(0..4) {
                0 => bytes = (0..rng.gen_range(0..64)).map(|_| rng.next_u32() as u8).collect(),
                1 => bytes.truncate(rng.gen_range(0..bytes.len() + 1)),
                _ => {
                    for _ in 0..rng.gen_range(1..5) {
                        let i = rng.gen_range(0..bytes.len());
                        let near = NEAR[rng.gen_range(0..NEAR.len())];
                        bytes[i] = if rng.gen_bool(0.5) { near } else { rng.next_u32() as u8 };
                    }
                }
            }
            let text = String::from_utf8_lossy(&bytes);
            // Ok or Err, never a panic; whatever parses re-renders to a
            // document that parses to the same tree.
            if let Ok(tree) = parse(&text) {
                prop_assert_eq!(parse(&tree.to_string()), Ok(tree.clone()));
            }
        });
    }
}
