//! The repository benchmark. One command runs one workload for one seed
//! and prints one JSON result line:
//!
//! ```text
//! cargo run --offline --quiet --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload serve-unique --seed 1 --seconds 5 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! ones (see `README.md`). The run exits non-zero when an output check
//! fails or an operation failed; the result line is printed either way.

mod catalogue;
mod client;
mod program;
mod stats;
mod workloads;

use std::fmt::Write as _;
use std::time::{SystemTime, UNIX_EPOCH};
use workloads::{Opts, Report, WORKLOADS};

const USAGE: &str =
    "usage: cfx-benchmark --workload <serve-unique|serve-hot|train-explain|table4> \
--seed <n> --seconds <s> --trace <0|1>";

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| "bad --seed")?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "bad --seconds")?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    Ok(Opts {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
        scratch: std::path::PathBuf::from(".bench_out"),
    })
}

/// The commit checked out in the working directory, read from `.git`
/// without running git; `unknown` outside a git checkout.
fn git_rev() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|h| h.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// UTC date and time, ISO 8601.
fn utc_now() -> String {
    let secs = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_secs()) as i64;
    let (days, rem) = (secs.div_euclid(86_400), secs.rem_euclid(86_400));
    // Civil date from days since 1970-01-01 (proleptic Gregorian).
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z - era * 146_097;
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = yoe + era * 400 + (month <= 2) as i64;
    format!(
        "{year:04}-{month:02}-{day:02}T{:02}:{:02}:{:02}Z",
        rem / 3600,
        rem % 3600 / 60,
        rem % 60
    )
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn stamp(opts: &Opts) -> String {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unset".into());
    let command: Vec<String> = std::env::args().collect();
    format!(
        "{{\"stamp\":{{\"available_parallelism\":{cores},\"kernel_threads\":{},\"CFX_THREADS\":{},\
\"git_rev\":{},\"build_profile\":{},\"date\":{},\"command\":{},\"workload\":{},\"seed\":{},\
\"seconds\":{},\"trace\":{}}}}}",
        program::kernel_threads(),
        json_str(&env("CFX_THREADS")),
        json_str(&git_rev()),
        json_str(if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        }),
        json_str(&utc_now()),
        json_str(&command.join(" ")),
        json_str(&opts.workload),
        opts.seed,
        opts.seconds,
        opts.trace
    )
}

/// The result line: exactly the catalogue's metrics for this mode, in
/// catalogue order. Per-layer metrics the workload does not exercise
/// read 0. An error when an end-to-end metric is missing or a value is
/// not finite (a benchmark bug).
fn result_line(report: &Report, trace: bool) -> Result<String, String> {
    let list: Vec<(String, &str)> = if trace {
        catalogue::per_layer()
    } else {
        catalogue::END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    };
    let mut metrics = Vec::with_capacity(list.len());
    for (name, unit) in list {
        let value = match report.metrics.get(&name) {
            Some(&v) => v,
            None if trace => 0.0,
            None => return Err(format!("end-to-end metric {name} was not measured")),
        };
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}"));
        }
        metrics.push(format!(
            "{}:{{\"value\":{value},\"unit\":{}}}",
            json_str(&name),
            json_str(unit)
        ));
    }
    let correct = report.errors.is_empty();
    Ok(format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.attempted,
        report.failed,
        metrics.join(",")
    ))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("cfx-benchmark: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&opts.scratch) {
        eprintln!(
            "cfx-benchmark: cannot create {}: {e}",
            opts.scratch.display()
        );
        std::process::exit(2);
    }
    println!("{}", stamp(&opts));
    let report = workloads::run(&opts);
    let _ = std::fs::remove_dir(&opts.scratch);
    for note in &report.notes {
        println!("# {note}");
    }
    for e in &report.errors {
        println!("# CHECK FAILED: {e}");
    }
    let line = match result_line(&report, opts.trace) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("cfx-benchmark: {e}");
            std::process::exit(3);
        }
    };
    println!("{line}");
    if !report.errors.is_empty() || report.failed > 0 || report.attempted == 0 {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::rows_digest;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let o = parse_args(&args("--workload table4 --seed 7 --seconds 5 --trace 1")).unwrap();
        assert_eq!(
            (o.workload.as_str(), o.seed, o.seconds, o.trace),
            ("table4", 7, 5.0, true)
        );
        assert!(parse_args(&args("--workload nope --seed 1 --seconds 1 --trace 0")).is_err());
        assert!(parse_args(&args("--workload table4 --seed 1 --seconds 1 --trace 2")).is_err());
        assert!(parse_args(&args("--workload table4 --seed 1 --trace 0")).is_err());
    }

    #[test]
    fn same_seed_same_request_rows_other_seed_other_rows() {
        let a = workloads::request_rows(11, 256);
        let b = workloads::request_rows(11, 256);
        let c = workloads::request_rows(12, 256);
        assert_eq!(rows_digest(&a), rows_digest(&b));
        assert_ne!(rows_digest(&a), rows_digest(&c));
    }

    #[test]
    fn request_rows_never_repeat() {
        // Three causal-model blocks' worth.
        let rows = workloads::request_rows(3, 3 * 1024);
        let mut bits: Vec<Vec<u32>> = rows
            .iter()
            .map(|r| r.iter().map(|v| v.to_bits()).collect())
            .collect();
        bits.sort();
        bits.dedup();
        assert_eq!(bits.len(), rows.len());
    }

    #[test]
    fn utc_dates_are_iso() {
        let d = utc_now();
        assert_eq!(d.len(), 20);
        assert!(d.ends_with('Z') && d.as_bytes()[10] == b'T');
    }

    #[test]
    fn result_line_fills_unexercised_layers_with_zero_and_rejects_gaps() {
        let mut r = Report {
            attempted: 1,
            ..Default::default()
        };
        assert!(result_line(&r, true)
            .unwrap()
            .contains("\"serve.shed\":{\"value\":0,\"unit\":\"count\"}"));
        assert!(result_line(&r, false).is_err());
        for (n, _) in catalogue::END_TO_END {
            r.metrics.insert(n.to_string(), 1.5);
        }
        let line = result_line(&r, false).unwrap();
        assert!(line.starts_with("{\"correct\":true,\"attempted\":1,\"failed\":0,\"metrics\":{"));
        r.metrics.insert("setup_s".into(), f64::NAN);
        assert!(result_line(&r, false).is_err());
    }
}
