//! Request-tracing and drift-monitor tests for `cfx-serve`:
//!
//! * the tracing layer and the drift monitor are **pure observers** —
//!   response bytes are byte-identical with both armed vs both off, at
//!   every worker count (the PR-7 invariant extended to telemetry);
//! * the opt-in `X-Cfx-Trace` response header echoes only when the
//!   client asks, independent of whether a sink is armed;
//! * magnitude-1.0 drifted traffic trips the `--drift-warn` threshold
//!   within 256 requests while clean traffic never does.

use cfx::core::{
    ConstraintMode, ExplainConfig, FeasibleCfConfig, FeasibleCfModel,
    GenRecoveryConfig,
};
use cfx::data::{DatasetId, Drift, EncodedDataset, Split};
use cfx::models::{BlackBox, BlackBoxConfig};
use cfx::serve::{self, Servable, ServeConfig};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::AtomicBool;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

struct Fixture {
    data: EncodedDataset,
    split: Split,
    model: FeasibleCfModel,
}

fn fixture() -> &'static Fixture {
    static CACHE: OnceLock<Fixture> = OnceLock::new();
    CACHE.get_or_init(|| {
        let raw = DatasetId::Adult.generate_clean(2_000, 11);
        let data = EncodedDataset::from_raw(&raw);
        let split = Split::paper(data.len(), 11);
        let (x_train, y_train) = data.subset(&split.train);
        let bb_cfg = BlackBoxConfig { epochs: 8, ..Default::default() };
        let mut bb = BlackBox::new(data.width(), &bb_cfg);
        bb.train(&x_train, &y_train, &bb_cfg);
        let cfg =
            FeasibleCfConfig::paper(DatasetId::Adult, ConstraintMode::Unary)
                .with_epochs(4)
                .with_batch_size(256);
        let constraints = FeasibleCfModel::paper_constraints(
            DatasetId::Adult,
            &data,
            ConstraintMode::Unary,
            cfg.c1,
            cfg.c2,
        )
        .unwrap();
        let mut model = FeasibleCfModel::new(&data, bb, constraints, cfg);
        model.fit(&x_train);
        Fixture { data, split, model }
    })
}

fn start(cfg: ServeConfig) -> serve::ServerHandle {
    let f = fixture();
    let boot = Servable {
        model: f.model.clone(),
        data: f.data.clone(),
        explain: ExplainConfig::default(),
        recovery: GenRecoveryConfig::default(),
        version: 0,
        source: "boot".into(),
    };
    let shutdown = Arc::new(AtomicBool::new(false));
    serve::spawn(cfg, boot, shutdown).expect("server spawns")
}

/// One request → `(status, response head, body)`.
fn roundtrip(addr: SocketAddr, raw: &[u8]) -> (u16, String, String) {
    let mut s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
    s.write_all(raw).expect("write request");
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        if let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            let head =
                String::from_utf8(buf[..head_end].to_vec()).expect("head");
            let status: u16 = head
                .split(' ')
                .nth(1)
                .and_then(|v| v.parse().ok())
                .expect("status line");
            let len: usize = head
                .lines()
                .find_map(|l| {
                    let (k, v) = l.split_once(':')?;
                    k.eq_ignore_ascii_case("content-length")
                        .then(|| v.trim().parse().ok())?
                })
                .expect("content-length");
            let start = head_end + 4;
            while buf.len() < start + len {
                let n = s.read(&mut chunk).expect("read body");
                assert!(n > 0, "EOF mid-body");
                buf.extend_from_slice(&chunk[..n]);
            }
            let body = String::from_utf8(buf[start..start + len].to_vec())
                .expect("body utf8");
            return (status, head, body);
        }
        let n = s.read(&mut chunk).expect("read head");
        assert!(n > 0, "EOF before head");
        buf.extend_from_slice(&chunk[..n]);
    }
}

fn post_explain(rows: &[Vec<f32>], deadline_ms: u64, trace: bool) -> Vec<u8> {
    let mut body = String::from("{\"rows\":[");
    for (i, row) in rows.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push('[');
        for (j, v) in row.iter().enumerate() {
            if j > 0 {
                body.push(',');
            }
            cfx_obs::json::write_f64(&mut body, *v as f64);
        }
        body.push(']');
    }
    body.push_str(&format!("],\"deadline_ms\":{deadline_ms}}}"));
    let trace_header = if trace { "X-Cfx-Trace: 1\r\n" } else { "" };
    format!(
        "POST /explain HTTP/1.1\r\nHost: t\r\n{trace_header}Content-Length: {}\r\n\r\n{}",
        body.len(),
        body
    )
    .into_bytes()
}

fn denied_rows(f: &Fixture, cap: usize) -> Vec<Vec<f32>> {
    let x = f.data.x.gather_rows(&f.split.test);
    let preds = f.model.blackbox().predict(&x);
    (0..x.rows())
        .filter(|&r| preds[r] == 0)
        .take(cap)
        .map(|r| x.row_slice(r).to_vec())
        .collect()
}

/// The central pure-observer claim: arming the JSONL sink and the
/// drift monitor changes **nothing** in response bytes, at one, two
/// and four workers.
#[test]
fn tracing_and_drift_are_pure_observers_at_every_worker_count() {
    let f = fixture();
    let rows = denied_rows(f, 6);
    assert!(rows.len() >= 2, "fixture yields denied rows");
    let reqs: Vec<Vec<u8>> = rows
        .iter()
        .map(|r| post_explain(std::slice::from_ref(r), 30_000, false))
        .collect();

    let collect = |cfg: ServeConfig| -> Vec<String> {
        let h = start(cfg);
        let addr = h.addr();
        let bodies: Vec<String> = reqs
            .iter()
            .map(|raw| {
                let (code, _head, body) = roundtrip(addr, raw);
                assert_eq!(code, 200, "{body}");
                body
            })
            .collect();
        h.shutdown();
        let report = h.join();
        assert_eq!(report.served as usize, reqs.len(), "{report:?}");
        bodies
    };

    // Baseline: no sink armed, drift monitor off, one worker. Cache off
    // everywhere so every response is a fresh compute.
    let baseline = collect(ServeConfig {
        workers: 1,
        cache_cap: 0,
        drift_enabled: false,
        ..Default::default()
    });

    // Traced runs: JSONL sink armed, drift monitor on, pool scaled.
    let trace_path = std::env::temp_dir()
        .join(format!("cfx-serve-trace-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&trace_path);
    cfx_obs::init_jsonl(&trace_path).expect("arm jsonl sink");
    for workers in [1usize, 2, 4] {
        let bodies = collect(ServeConfig {
            workers,
            cache_cap: 0,
            drift_enabled: true,
            ..Default::default()
        });
        assert_eq!(
            bodies, baseline,
            "tracing+drift changed response bytes at workers={workers}"
        );
    }
    cfx_obs::flush_jsonl();
    if cfx_obs::ENABLED {
        // The traced runs actually traced: schema-v2 request records
        // with stage chains landed in the sink.
        let text = std::fs::read_to_string(&trace_path).expect("trace file");
        assert!(
            text.contains("\"kind\":\"request\""),
            "no request records in trace"
        );
        assert!(
            text.contains("\"kind\":\"stage\""),
            "no stage records in trace"
        );
        assert!(text.contains("\"trace\":\""), "no trace ids in trace");
        // A request a worker explained and served names the deepest
        // explain-ladder rung its rows reached.
        let explained: Vec<&str> = text
            .lines()
            .filter(|l| {
                l.contains("\"kind\":\"request\"")
                    && l.contains("\"outcome\":\"served\"")
                    && !l.contains("\"cache\":\"hit\"")
            })
            .collect();
        assert!(!explained.is_empty(), "no served explain records");
        for line in explained {
            assert!(line.contains("\"rung\":\""), "no rung in {line}");
        }
    }
    let _ = std::fs::remove_file(&trace_path);
}

/// The `X-Cfx-Trace` echo is opt-in per request and independent of
/// sink state; the body is unaffected either way.
#[test]
fn trace_header_echo_is_opt_in() {
    let f = fixture();
    let rows = denied_rows(f, 1);
    let h = start(ServeConfig {
        workers: 1,
        cache_cap: 0,
        ..Default::default()
    });
    let addr = h.addr();

    let (code, head, body) =
        roundtrip(addr, &post_explain(&rows, 30_000, false));
    assert_eq!(code, 200, "{body}");
    assert!(
        !head.contains("X-Cfx-Trace:"),
        "unrequested trace echo:\n{head}"
    );

    let (code, head, traced_body) =
        roundtrip(addr, &post_explain(&rows, 30_000, true));
    assert_eq!(code, 200, "{traced_body}");
    assert!(head.contains("X-Cfx-Trace:"), "missing trace echo:\n{head}");
    assert_eq!(body, traced_body, "trace echo changed the body");

    h.shutdown();
    h.join();
}

/// Drift detection end-to-end: 256 requests of magnitude-1.0 drifted
/// traffic (encoded with the deployed encoding, as in the robustness
/// bench) trip the threshold; 256 requests matching the training
/// distribution never do. Uses `deadline_ms:1` so most requests expire
/// in-queue as fast typed 504s — the monitor observes rows at parse
/// time, before admission, so they count either way.
#[test]
fn drift_monitor_trips_on_drifted_traffic_only() {
    let f = fixture();
    let n = 256usize;
    let clean: Vec<Vec<f32>> = (0..n)
        .map(|r| f.data.x.row_slice(r % f.data.len()).to_vec())
        .collect();
    let raw =
        DatasetId::Adult.generate_clean_drifted(n, 77, &Drift::magnitude(1.0));
    let drifted: Vec<Vec<f32>> = raw
        .rows
        .iter()
        .map(|row| {
            f.data
                .encoding
                .encode_row(&raw.schema, row)
                .expect("drifted rows are schema-identical")
        })
        .collect();
    assert_eq!(drifted.len(), n);

    let run = |traffic: &[Vec<f32>]| -> String {
        let h = start(ServeConfig { workers: 2, ..Default::default() });
        let addr = h.addr();
        for row in traffic {
            roundtrip(addr, &post_explain(std::slice::from_ref(row), 1, false));
        }
        let (_code, _head, body) =
            roundtrip(addr, b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
        h.shutdown();
        h.join();
        body
    };

    let clean_health = run(&clean);
    assert!(
        clean_health.contains("\"drifting\":false"),
        "clean traffic tripped the monitor: {clean_health}"
    );
    assert!(
        clean_health.contains(&format!("\"rows_observed\":{n}")),
        "{clean_health}"
    );

    let hot_health = run(&drifted);
    assert!(
        hot_health.contains("\"drifting\":true"),
        "drifted traffic did not trip the monitor: {hot_health}"
    );
}
