//! `mesa-e2e`: runs the end-to-end benchmark, or compares two of its
//! `--out` documents.
//!
//! ```text
//! mesa-e2e [--workload NAME] [--seed S] [--seconds N] [--trace 0|1] [--out PATH]
//! mesa-e2e diff A.json B.json
//! ```

use mesa_e2e::workloads::NAMES;
use mesa_e2e::{diff, json, out_document, result_line, run};
use mesa_trace::host::ClockSpec;
use mesa_trace::{alloc, CountingAlloc};
use std::process::ExitCode;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const USAGE: &str = "usage: mesa-e2e [--workload NAME] [--seed S] [--seconds N] [--trace 0|1] [--out PATH]\n       mesa-e2e diff A.json B.json";

struct Options {
    workloads: Vec<&'static str>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<String>,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut opts =
        Options { workloads: NAMES.to_vec(), seed: 1, seconds: 20.0, trace: true, out: None };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                let name = NAMES.iter().find(|&&n| n == value).ok_or_else(|| {
                    format!("unknown workload {value:?}; expected one of {NAMES:?}")
                })?;
                opts.workloads = vec![*name];
            }
            "--seed" => opts.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                opts.seconds = value.parse().ok().filter(|s: &f64| *s >= 0.0).ok_or_else(bad)?;
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                };
            }
            "--out" => opts.out = Some(value.clone()),
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(opts)
}

fn read_json(path: &str) -> Result<json::Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn diff_main(args: &[String]) -> ExitCode {
    let [a, b] = args else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let docs = (read_json(a), read_json(b), read_json("BENCHMARK.json"));
    let (Ok(a), Ok(b), Ok(bench)) = docs else {
        for err in [docs.0.err(), docs.1.err(), docs.2.err()].into_iter().flatten() {
            eprintln!("mesa-e2e diff: {err}");
        }
        return ExitCode::from(2);
    };
    let (text, flagged) = diff::diff(&a, &b, &bench);
    print!("{text}");
    if flagged {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("diff") {
        return diff_main(&args[1..]);
    }
    let opts = match parse(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("mesa-e2e: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    alloc::set_counting(true);
    let mut reports = Vec::new();
    for name in &opts.workloads {
        let report = match run(name, opts.seed, opts.seconds, opts.trace, ClockSpec::Real) {
            Ok(report) => report,
            Err(e) => {
                eprintln!("mesa-e2e: {e}");
                return ExitCode::FAILURE;
            }
        };
        for m in report.end_to_end.iter().chain(&report.ungated).chain(&report.per_layer) {
            println!("{:<14} {:<40} {:>18.6} {}", report.workload, m.name, m.value, m.unit);
        }
        for failure in &report.failures {
            eprintln!("mesa-e2e: {}: {failure}", report.workload);
        }
        reports.push(report);
    }
    if let Some(path) = &opts.out {
        let doc = out_document(&reports, opts.seed, opts.seconds, opts.trace);
        if let Err(e) = std::fs::write(path, doc + "\n") {
            eprintln!("mesa-e2e: {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    println!("{}", result_line(&reports, opts.trace));
    if reports.iter().all(mesa_e2e::Report::correct) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
