//! Validates the request-tracing layer of a `cfx-serve` JSONL trace —
//! the CI gate behind the `serve-trace` job.
//!
//! ```text
//! cargo run --release -p cfx-bench --bin serve_trace_check -- trace.jsonl
//! ```
//!
//! Checks, per schema-v2 trace id:
//!
//! 1. every `stage` record and every traced `event` belongs to exactly
//!    one terminal `request` record (zero orphaned spans, zero
//!    double-finishes);
//! 2. every `/explain` request record carries the full stage-timing
//!    decomposition, and the stage fields sum to **at most** the
//!    request's wall time (the stages are disjoint sub-intervals);
//! 3. each `stage` record's duration equals the matching `*_ns` field
//!    on its request record (the two views of one request agree);
//! 4. served requests show the stages their path must have walked:
//!    cache hits a `cache_lookup`, cache misses an `explain` and a
//!    `serialize`;
//! 5. outcomes are from the known vocabulary and consistent with the
//!    HTTP status answered;
//! 6. a request a worker explained and served (cache miss or off) names
//!    the deepest explain-ladder rung its rows reached, from the known
//!    rung vocabulary; no other request names one. A fused explain call
//!    serves many requests at once, so this field — not the call's
//!    `explain_rung` events — is what ties a request to its rung.
//!
//! Prints a one-line summary and exits non-zero on any violation (or
//! an empty trace), so CI can run it directly after a traced load.

use cfx_obs::json::{parse, Value};
use std::collections::BTreeMap;
use std::process::ExitCode;

/// Stage fields every `/explain` request record must carry.
const EXPLAIN_STAGES: [&str; 7] = [
    "parse",
    "cache_lookup",
    "queue_wait",
    "linger",
    "explain",
    "serialize",
    "respond",
];

/// Outcome vocabulary → the HTTP status each implies.
const OUTCOMES: [(&str, u64); 7] = [
    ("served", 200),
    ("shed_429", 429),
    ("timeout_504", 504),
    ("timeout_408", 408),
    ("draining_503", 503),
    ("malformed", 0), // any 4xx/5xx
    ("internal_500", 500),
];

/// Rung vocabulary of served, explained requests, shallowest first.
const RUNGS: [&str; 3] = ["first_shot", "resampled", "fallback"];

/// One request record, as parsed.
struct ReqRec {
    lineno: usize,
    name: String,
    outcome: String,
    status: u64,
    cache: String,
    rung: Option<String>,
    total_ns: u64,
    stage_ns: BTreeMap<String, u64>,
}

/// Everything observed under one trace id.
#[derive(Default)]
struct TraceAcc {
    stages: Vec<(usize, String, u64)>,
    traced_events: usize,
    requests: Vec<ReqRec>,
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let Some(path) = args.next() else {
        eprintln!("usage: serve_trace_check <trace.jsonl>");
        return ExitCode::FAILURE;
    };
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("serve_trace_check: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };

    let mut errors = 0usize;
    let mut stage_records = 0usize;
    let mut request_records = 0usize;
    let mut traces: BTreeMap<String, TraceAcc> = BTreeMap::new();

    for (lineno, line) in text.lines().enumerate() {
        let lineno = lineno + 1;
        if line.trim().is_empty() {
            continue;
        }
        let doc = match parse(line) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("line {lineno}: not valid JSON: {e}");
                errors += 1;
                continue;
            }
        };
        match doc.get("schema_version").and_then(Value::as_u64) {
            Some(v) if v == cfx_obs::SCHEMA_VERSION => {}
            other => {
                eprintln!(
                    "line {lineno}: schema_version {other:?}, expected {}",
                    cfx_obs::SCHEMA_VERSION
                );
                errors += 1;
                continue;
            }
        }
        let kind = doc.get("kind").and_then(Value::as_str).unwrap_or("");
        let trace = doc.get("trace").and_then(Value::as_str);
        match kind {
            "stage" => {
                stage_records += 1;
                let Some(t) = trace else {
                    eprintln!("line {lineno}: stage record without trace id");
                    errors += 1;
                    continue;
                };
                let name = doc
                    .get("name")
                    .and_then(Value::as_str)
                    .unwrap_or("")
                    .to_string();
                let Some(dur) = doc.get("dur_ns").and_then(Value::as_u64)
                else {
                    eprintln!("line {lineno}: stage record without dur_ns");
                    errors += 1;
                    continue;
                };
                traces
                    .entry(t.to_string())
                    .or_default()
                    .stages
                    .push((lineno, name, dur));
            }
            "request" => {
                request_records += 1;
                let Some(t) = trace else {
                    eprintln!("line {lineno}: request record without trace id");
                    errors += 1;
                    continue;
                };
                let fields = doc.get("fields").cloned().unwrap_or(Value::Null);
                let outcome = fields
                    .get("outcome")
                    .and_then(Value::as_str)
                    .unwrap_or("")
                    .to_string();
                let Some(status) =
                    fields.get("status").and_then(Value::as_u64)
                else {
                    eprintln!("line {lineno}: request record without status");
                    errors += 1;
                    continue;
                };
                let mut stage_ns = BTreeMap::new();
                for stage in EXPLAIN_STAGES {
                    if let Some(v) = fields
                        .get(&format!("{stage}_ns"))
                        .and_then(Value::as_u64)
                    {
                        stage_ns.insert(stage.to_string(), v);
                    }
                }
                traces.entry(t.to_string()).or_default().requests.push(
                    ReqRec {
                        lineno,
                        name: doc
                            .get("name")
                            .and_then(Value::as_str)
                            .unwrap_or("")
                            .to_string(),
                        outcome,
                        status,
                        cache: fields
                            .get("cache")
                            .and_then(Value::as_str)
                            .unwrap_or("")
                            .to_string(),
                        rung: fields
                            .get("rung")
                            .and_then(Value::as_str)
                            .map(str::to_string),
                        total_ns: fields
                            .get("total_ns")
                            .and_then(Value::as_u64)
                            .unwrap_or(0),
                        stage_ns,
                    },
                );
            }
            // Ordinary records: traced events still bind to a request.
            _ => {
                if let Some(t) = trace {
                    traces.entry(t.to_string()).or_default().traced_events +=
                        1;
                }
            }
        }
    }

    let mut explain_requests = 0usize;
    for (trace, acc) in &traces {
        if acc.requests.is_empty() {
            eprintln!(
                "trace {trace}: {} stage record(s) and {} traced event(s) \
                 but no terminal request record (orphaned span chain)",
                acc.stages.len(),
                acc.traced_events,
            );
            errors += 1;
            continue;
        }
        if acc.requests.len() > 1 {
            eprintln!(
                "trace {trace}: {} request records, expected exactly 1",
                acc.requests.len()
            );
            errors += 1;
            continue;
        }
        let req = &acc.requests[0];
        let lineno = req.lineno;
        match OUTCOMES.iter().find(|(o, _)| *o == req.outcome) {
            None => {
                eprintln!(
                    "line {lineno}: unknown outcome {:?} for trace {trace}",
                    req.outcome
                );
                errors += 1;
            }
            Some((_, expect)) => {
                let ok = match *expect {
                    0 => req.status >= 400,
                    s => req.status == s,
                };
                if !ok {
                    eprintln!(
                        "line {lineno}: outcome {:?} inconsistent with \
                         status {} for trace {trace}",
                        req.outcome, req.status
                    );
                    errors += 1;
                }
            }
        }
        // Connection-level records (`http`) carry no stage chain; all
        // deeper checks are for `/explain`.
        if req.name != "explain" {
            continue;
        }
        explain_requests += 1;
        if req.stage_ns.len() != EXPLAIN_STAGES.len() {
            eprintln!(
                "line {lineno}: explain request for trace {trace} missing \
                 stage fields ({} of {})",
                req.stage_ns.len(),
                EXPLAIN_STAGES.len()
            );
            errors += 1;
            continue;
        }
        let stage_sum: u64 = req.stage_ns.values().sum();
        if stage_sum > req.total_ns {
            eprintln!(
                "line {lineno}: stage sum {stage_sum}ns exceeds wall time \
                 {}ns for trace {trace}",
                req.total_ns
            );
            errors += 1;
        }
        for (stage_line, name, dur) in &acc.stages {
            match req.stage_ns.get(name) {
                Some(&field) if field == *dur => {}
                Some(&field) => {
                    eprintln!(
                        "line {stage_line}: stage {name:?} dur {dur}ns \
                         disagrees with request field {field}ns \
                         (trace {trace})"
                    );
                    errors += 1;
                }
                None => {
                    eprintln!(
                        "line {stage_line}: stage {name:?} not a known \
                         explain stage (trace {trace})"
                    );
                    errors += 1;
                }
            }
        }
        let explained = req.outcome == "served" && req.cache != "hit";
        match (&req.rung, explained) {
            (Some(r), true) if RUNGS.contains(&r.as_str()) => {}
            (None, false) => {}
            (rung, _) => {
                eprintln!(
                    "line {lineno}: rung {rung:?} on a request with outcome \
                     {:?} and cache {:?} (trace {trace}); served \
                     misses name one of {RUNGS:?}, nothing else does",
                    req.outcome, req.cache
                );
                errors += 1;
            }
        }
        if req.outcome == "served" {
            let nonzero = |s: &str| req.stage_ns.get(s).copied().unwrap_or(0) > 0;
            let complete = match req.cache.as_str() {
                "hit" => nonzero("parse") && nonzero("cache_lookup"),
                "miss" | "off" => {
                    nonzero("parse")
                        && nonzero("explain")
                        && nonzero("serialize")
                }
                other => {
                    eprintln!(
                        "line {lineno}: unknown cache disposition {other:?} \
                         (trace {trace})"
                    );
                    errors += 1;
                    true
                }
            };
            if !complete {
                eprintln!(
                    "line {lineno}: served request (cache={}) missing \
                     required stages for trace {trace}: {:?}",
                    req.cache, req.stage_ns
                );
                errors += 1;
            }
        }
    }

    println!(
        "serve_trace_check: {} traces ({} stage records, {request_records} \
         request records, {explain_requests} explain), {errors} errors",
        traces.len(),
        stage_records,
    );
    if request_records == 0 {
        eprintln!("serve_trace_check: no request records found");
        return ExitCode::FAILURE;
    }
    if errors > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
