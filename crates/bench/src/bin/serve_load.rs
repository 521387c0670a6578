//! Load generator for the `cfx-serve` daemon: spawns the server
//! in-process on a free port and drives it over real TCP through two
//! scenarios, writing the results to `BENCH_serve.json`:
//!
//! 1. **Scaling sweep** — workers (1/2/4) × clients (1/8/64), every
//!    request carrying *unique* rows with the response cache disabled,
//!    so CFs/sec measures explain compute, not memoization. Per-level
//!    p50/p99 latency, throughput, and the worker count are recorded.
//! 2. **50%-duplicate scenario** — cache on, half the requests hit one
//!    hot row and the other half cycle a small shared pool, the shape
//!    of production retry/dashboard traffic. The recorded cache
//!    hit-rate is the headline (target: ≥ 90%).
//! 3. **Tracing-overhead pair** — the same unique-row level run twice,
//!    once with the JSONL trace sink dark and once armed (`--trace-out`),
//!    drift monitor on both times. The recorded `overhead_pct` is the
//!    p50 regression from arming full request tracing (target: ≤ 5%);
//!    the traced run's JSONL is left on disk for `serve_trace_check`.
//!
//! ```text
//! cargo run --release -p cfx-bench --bin serve_load -- [options]
//! ```
//!
//! Shed responses (`429`) are counted, not retried — the point of the
//! bench is to show bounded-queue behavior under pressure, so the shed
//! rate at 64 clients is itself a result. Each server run ends with a
//! graceful drain; the per-scenario drain reports are included in the
//! JSON, as is `host_cores` — scaling numbers from a 1-core host are
//! recorded honestly (precedent: BENCH_tensor.json) and say nothing
//! about the pool's parallel speedup.

use cfx_core::{ExplainConfig, FeasibleCfConfig, FeasibleCfModel, GenRecoveryConfig};
use cfx_data::{DatasetId, EncodedDataset, Split};
use cfx_models::{BlackBox, BlackBoxConfig};
use cfx_serve::{DrainReport, Servable, ServeConfig};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::{Duration, Instant};

const USAGE: &str = "\
usage: serve_load [options]

  --workers A,B,C        worker counts to sweep (default 1,2,4)
  --clients A,B,C        concurrency levels to sweep (default 1,8,64)
  --requests N           requests per client per level (default 25)
  --rows N               rows per /explain request (default 1)
  --queue-cap N          server queue capacity (default 64)
  --cache-cap N          response-cache entries for the duplicate
                         scenario (default 1024)
  --deadline-ms N        per-request deadline (default 2000)
  --n N                  raw training instances for the boot model
                         (default 3000)
  --seed N               RNG seed (default 42)
  --out PATH             output JSON path (default BENCH_serve.json)
  --trace-out PATH       JSONL path for the traced overhead run
                         (default serve_load_trace.jsonl)
  --prom-out PATH        Prometheus snapshot written when the traced
                         run drains (default: none)
  --help                 print this message

Latency is measured per request over real TCP (loopback), keep-alive.
429/503 shed responses count toward shed, not latency. The scaling
sweep uses unique rows per request with the cache disabled; the
duplicate scenario (8 clients, 50% hot row) measures the cache.
";

struct Opts {
    workers: Vec<usize>,
    clients: Vec<usize>,
    requests: usize,
    rows: usize,
    queue_cap: usize,
    cache_cap: usize,
    deadline_ms: u64,
    n: usize,
    seed: u64,
    out: String,
    trace_out: String,
    prom_out: Option<String>,
}

fn parse_list(s: &str, flag: &str) -> Vec<usize> {
    s.split(',')
        .map(|v| v.parse().unwrap_or_else(|_| panic!("bad {flag}")))
        .collect()
}

fn parse_opts(args: &[String]) -> Opts {
    let mut o = Opts {
        workers: vec![1, 2, 4],
        clients: vec![1, 8, 64],
        requests: 25,
        rows: 1,
        queue_cap: 64,
        cache_cap: 1024,
        deadline_ms: 2_000,
        n: 3_000,
        seed: 42,
        out: "BENCH_serve.json".into(),
        trace_out: "serve_load_trace.jsonl".into(),
        prom_out: None,
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--workers" => {
                i += 1;
                o.workers = parse_list(&args[i], "--workers");
            }
            "--clients" => {
                i += 1;
                o.clients = parse_list(&args[i], "--clients");
            }
            "--requests" => {
                i += 1;
                o.requests = args[i].parse().expect("bad --requests");
            }
            "--rows" => {
                i += 1;
                o.rows = args[i].parse().expect("bad --rows");
            }
            "--queue-cap" => {
                i += 1;
                o.queue_cap = args[i].parse().expect("bad --queue-cap");
            }
            "--cache-cap" => {
                i += 1;
                o.cache_cap = args[i].parse().expect("bad --cache-cap");
            }
            "--deadline-ms" => {
                i += 1;
                o.deadline_ms = args[i].parse().expect("bad --deadline-ms");
            }
            "--n" => {
                i += 1;
                o.n = args[i].parse().expect("bad --n");
            }
            "--seed" => {
                i += 1;
                o.seed = args[i].parse().expect("bad --seed");
            }
            "--out" => {
                i += 1;
                o.out = args[i].clone();
            }
            "--trace-out" => {
                i += 1;
                o.trace_out = args[i].clone();
            }
            "--prom-out" => {
                i += 1;
                o.prom_out = Some(args[i].clone());
            }
            "--help" | "-h" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => panic!("unknown flag {other:?} (try --help)"),
        }
        i += 1;
    }
    o
}

/// Trains a small boot model (quick sizes — the bench measures serving,
/// not training). Kept as a reusable fixture: each server run gets a
/// cloned [`Servable`].
struct Fixture {
    model: FeasibleCfModel,
    data: EncodedDataset,
}

impl Fixture {
    fn train(n: usize, seed: u64) -> Self {
        let raw = DatasetId::Adult.generate(n, seed);
        let data = EncodedDataset::from_raw(&raw);
        let split = Split::paper(data.len(), seed);
        let (x_train, y_train) = data.subset(&split.train);
        let bb_cfg = BlackBoxConfig { epochs: 8, seed, ..Default::default() };
        let mut blackbox = BlackBox::new(data.width(), &bb_cfg);
        blackbox.train(&x_train, &y_train, &bb_cfg);
        let config = FeasibleCfConfig::paper(
            DatasetId::Adult,
            cfx_core::ConstraintMode::Unary,
        )
        .with_seed(seed)
        .with_epochs(4)
        .with_batch_size(256);
        let constraints = FeasibleCfModel::paper_constraints(
            DatasetId::Adult,
            &data,
            cfx_core::ConstraintMode::Unary,
            config.c1,
            config.c2,
        )
        .expect("paper constraints");
        let mut model =
            FeasibleCfModel::new(&data, blackbox, constraints, config);
        model.fit(&x_train);
        Fixture { model, data }
    }

    fn servable(&self) -> Servable {
        Servable {
            model: self.model.clone(),
            data: self.data.clone(),
            explain: ExplainConfig::default(),
            recovery: GenRecoveryConfig::default(),
            version: 0,
            source: "bench-boot".into(),
        }
    }

    /// Renders one full `/explain` HTTP request whose rows are the
    /// `rows` dataset rows starting at `start` (wrapping).
    fn request(&self, start: usize, rows: usize, deadline_ms: u64) -> String {
        let n = self.data.len();
        let mut body = String::from("{\"rows\":[");
        for i in 0..rows {
            if i > 0 {
                body.push(',');
            }
            body.push('[');
            let row = self.data.x.row_slice((start + i) % n);
            for (j, v) in row.iter().enumerate() {
                if j > 0 {
                    body.push(',');
                }
                cfx_obs::json::write_f64(&mut body, *v as f64);
            }
            body.push(']');
        }
        body.push_str(&format!("],\"deadline_ms\":{deadline_ms}}}"));
        format!(
            "POST /explain HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{}",
            body.len(),
            body
        )
    }
}

/// Reads one full HTTP response (status line + headers + Content-Length
/// body) off the stream; returns (status, body).
fn read_response(stream: &mut TcpStream) -> Result<(u16, Vec<u8>), String> {
    let mut buf = Vec::with_capacity(1024);
    let mut chunk = [0u8; 4096];
    loop {
        if let Some(head_end) =
            buf.windows(4).position(|w| w == b"\r\n\r\n")
        {
            let head = std::str::from_utf8(&buf[..head_end])
                .map_err(|_| "non-utf8 head".to_string())?;
            let status: u16 = head
                .split(' ')
                .nth(1)
                .and_then(|s| s.parse().ok())
                .ok_or("bad status line")?;
            let len: usize = head
                .lines()
                .find_map(|l| {
                    let (k, v) = l.split_once(':')?;
                    k.eq_ignore_ascii_case("content-length")
                        .then(|| v.trim().parse().ok())?
                })
                .ok_or("missing content-length")?;
            let body_start = head_end + 4;
            while buf.len() < body_start + len {
                let n = stream
                    .read(&mut chunk)
                    .map_err(|e| format!("read body: {e}"))?;
                if n == 0 {
                    return Err("EOF mid-body".into());
                }
                buf.extend_from_slice(&chunk[..n]);
            }
            return Ok((status, buf[body_start..body_start + len].to_vec()));
        }
        let n = stream
            .read(&mut chunk)
            .map_err(|e| format!("read head: {e}"))?;
        if n == 0 {
            return Err("EOF before head".into());
        }
        buf.extend_from_slice(&chunk[..n]);
    }
}

/// One client's tallies for a level.
#[derive(Default)]
struct ClientStats {
    latencies: Vec<Duration>,
    ok: u64,
    shed: u64,
    errors: u64,
    cfs: u64,
}

/// Runs one client: its pre-rendered requests in order over one
/// keep-alive connection (reconnecting if the server closed it).
fn run_client(
    addr: std::net::SocketAddr,
    requests: Arc<Vec<String>>,
    rows: usize,
    deadline_ms: u64,
) -> ClientStats {
    let mut stats = ClientStats::default();
    let mut conn: Option<TcpStream> = None;
    for request in requests.iter() {
        let stream = match conn.take() {
            Some(s) => s,
            None => match TcpStream::connect(addr) {
                Ok(s) => {
                    let _ = s.set_nodelay(true);
                    let _ = s.set_read_timeout(Some(Duration::from_millis(
                        deadline_ms + 35_000,
                    )));
                    s
                }
                Err(_) => {
                    stats.errors += 1;
                    continue;
                }
            },
        };
        let mut stream = stream;
        let t0 = Instant::now();
        if stream.write_all(request.as_bytes()).is_err() {
            stats.errors += 1;
            continue;
        }
        match read_response(&mut stream) {
            Ok((200, _)) => {
                stats.latencies.push(t0.elapsed());
                stats.ok += 1;
                stats.cfs += rows as u64;
                conn = Some(stream);
            }
            Ok((429, _)) | Ok((503, _)) => {
                stats.shed += 1;
                conn = Some(stream);
            }
            Ok(_) => {
                stats.errors += 1;
                conn = Some(stream);
            }
            Err(_) => {
                stats.errors += 1;
            }
        }
    }
    stats
}

fn percentile(sorted: &[Duration], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)].as_secs_f64() * 1e3
}

/// Cache counter snapshot (process-global obs registry; deltas around a
/// level isolate that level's traffic).
fn cache_counters() -> (u64, u64) {
    if !cfx_obs::ENABLED {
        return (0, 0);
    }
    (
        cfx_obs::metrics::counter("cfx_serve_cache_hits_total").get(),
        cfx_obs::metrics::counter("cfx_serve_cache_misses_total").get(),
    )
}

/// Drives `per_client` request lists against `addr` concurrently and
/// returns (merged stats, wall seconds, cache hit-rate JSON fragment).
/// `stagger` delays client `c`'s start by `c * stagger`: zero for the
/// scaling sweep (maximum pressure), a few ms for the duplicate
/// scenario — independent retrying clients are not phase-locked, and
/// a phase-locked start would measure the thundering-herd first-touch
/// race instead of the steady-state hit rate.
fn drive(
    addr: std::net::SocketAddr,
    per_client: Vec<Arc<Vec<String>>>,
    rows: usize,
    deadline_ms: u64,
    stagger: Duration,
) -> (ClientStats, f64, String) {
    let (hits0, misses0) = cache_counters();
    let t0 = Instant::now();
    let handles: Vec<_> = per_client
        .into_iter()
        .enumerate()
        .map(|(c, requests)| {
            std::thread::spawn(move || {
                std::thread::sleep(stagger * c as u32);
                run_client(addr, requests, rows, deadline_ms)
            })
        })
        .collect();
    let mut all = ClientStats::default();
    for h in handles {
        let s = h.join().expect("client thread");
        all.latencies.extend(s.latencies);
        all.ok += s.ok;
        all.shed += s.shed;
        all.errors += s.errors;
        all.cfs += s.cfs;
    }
    let wall = t0.elapsed().as_secs_f64();
    all.latencies.sort();
    let (hits1, misses1) = cache_counters();
    let lookups = (hits1 - hits0) + (misses1 - misses0);
    let hit_rate = if lookups > 0 {
        format!("{:.4}", (hits1 - hits0) as f64 / lookups as f64)
    } else {
        "null".to_string()
    };
    (all, wall, hit_rate)
}

fn drain_json(report: &DrainReport) -> String {
    format!(
        "{{\"accepted\":{},\"served\":{},\"shed\":{},\"timeouts\":{},\
         \"malformed\":{}}}",
        report.accepted,
        report.served,
        report.shed,
        report.timeouts,
        report.malformed
    )
}

fn spawn_server(
    opts: &Opts,
    fixture: &Fixture,
    workers: usize,
    cache_cap: usize,
    prom_out: Option<&str>,
) -> cfx_serve::ServerHandle {
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers,
        cache_cap,
        queue_cap: opts.queue_cap,
        default_deadline_ms: opts.deadline_ms,
        prom_out: prom_out.map(std::path::PathBuf::from),
        ..Default::default()
    };
    let shutdown = Arc::new(AtomicBool::new(false));
    cfx_serve::spawn(cfg, fixture.servable(), shutdown).expect("spawn server")
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = parse_opts(&args);
    let _ = cfx_obs::init_from_env();
    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    eprintln!("training boot model (n={}, seed={})...", opts.n, opts.seed);
    let fixture = Fixture::train(opts.n, opts.seed);
    eprintln!(
        "host_cores={host_cores}  width={}  dataset_rows={}",
        fixture.data.width(),
        fixture.data.len()
    );

    // ---- scaling sweep: workers × clients, unique rows, cache off ----
    let mut levels_json = Vec::new();
    let mut drains_json = Vec::new();
    for &workers in &opts.workers {
        let handle = spawn_server(&opts, &fixture, workers, 0, None);
        let addr = handle.addr();
        eprintln!("serving on {addr} (workers={workers}, cache off)");
        for &clients in &opts.clients {
            // Unique rows per request: client c's request j starts at a
            // distinct dataset offset, so no two requests in the level
            // share a fingerprint and every one costs real compute.
            let per_client: Vec<Arc<Vec<String>>> = (0..clients)
                .map(|c| {
                    Arc::new(
                        (0..opts.requests)
                            .map(|j| {
                                fixture.request(
                                    (c * opts.requests + j) * opts.rows,
                                    opts.rows,
                                    opts.deadline_ms,
                                )
                            })
                            .collect(),
                    )
                })
                .collect();
            let (all, wall, _) = drive(
                addr,
                per_client,
                opts.rows,
                opts.deadline_ms,
                Duration::ZERO,
            );
            let p50 = percentile(&all.latencies, 0.50);
            let p99 = percentile(&all.latencies, 0.99);
            let cfs_per_sec =
                if wall > 0.0 { all.cfs as f64 / wall } else { 0.0 };
            eprintln!(
                "workers={workers}  clients={clients:>3}  ok={:>5}  \
                 shed={:>4}  errors={:>3}  p50={p50:>8.2}ms  \
                 p99={p99:>8.2}ms  cfs/sec={cfs_per_sec:>8.1}",
                all.ok, all.shed, all.errors
            );
            levels_json.push(format!(
                "{{\"workers\":{workers},\"clients\":{clients},\
                 \"requests_per_client\":{},\"ok\":{},\"shed\":{},\
                 \"errors\":{},\"p50_ms\":{p50:.3},\"p99_ms\":{p99:.3},\
                 \"cfs_per_sec\":{cfs_per_sec:.3},\"wall_s\":{wall:.3},\
                 \"cache_hit_rate\":null}}",
                opts.requests, all.ok, all.shed, all.errors
            ));
        }
        handle.shutdown();
        let report = handle.join();
        eprintln!(
            "drained workers={workers}: accepted={} served={} shed={} \
             timeouts={} malformed={}",
            report.accepted,
            report.served,
            report.shed,
            report.timeouts,
            report.malformed
        );
        drains_json.push(format!(
            "{{\"workers\":{workers},\"report\":{}}}",
            drain_json(&report)
        ));
    }

    // ---- 50%-duplicate scenario: cache on, shared hot row + pool ----
    let dup_workers = opts.workers.iter().copied().max().unwrap_or(1);
    let dup_clients = 8.min(opts.clients.iter().copied().max().unwrap_or(8));
    let handle = spawn_server(&opts, &fixture, dup_workers, opts.cache_cap, None);
    let addr = handle.addr();
    eprintln!(
        "serving on {addr} (workers={dup_workers}, cache_cap={}) — \
         50%-duplicate scenario",
        opts.cache_cap
    );
    // Half of every client's requests hit one hot row; the other half
    // cycle a 12-row pool shared *across* clients. Distinct bodies:
    // 13 out of clients*requests total — everything else can hit.
    const DUP_POOL: usize = 12;
    let per_client: Vec<Arc<Vec<String>>> = (0..dup_clients)
        .map(|c| {
            Arc::new(
                (0..opts.requests)
                    .map(|j| {
                        let start = if j % 2 == 0 {
                            0 // the hot row
                        } else {
                            // wrap-free offset into the shared pool,
                            // clear of the hot row's rows
                            opts.rows
                                * (1 + (c * opts.requests + j) % DUP_POOL)
                        };
                        fixture.request(start, opts.rows, opts.deadline_ms)
                    })
                    .collect(),
            )
        })
        .collect();
    let (all, wall, hit_rate) = drive(
        addr,
        per_client,
        opts.rows,
        opts.deadline_ms,
        Duration::from_millis(25),
    );
    let p50 = percentile(&all.latencies, 0.50);
    let p99 = percentile(&all.latencies, 0.99);
    let cfs_per_sec = if wall > 0.0 { all.cfs as f64 / wall } else { 0.0 };
    eprintln!(
        "dup50: workers={dup_workers}  clients={dup_clients}  ok={}  \
         shed={}  errors={}  p50={p50:.2}ms  p99={p99:.2}ms  \
         cfs/sec={cfs_per_sec:.1}  cache_hit_rate={hit_rate}",
        all.ok, all.shed, all.errors
    );
    let dup_json = format!(
        "{{\"workers\":{dup_workers},\"clients\":{dup_clients},\
         \"requests_per_client\":{},\"duplicate_fraction\":0.5,\
         \"distinct_bodies\":{},\"ok\":{},\"shed\":{},\"errors\":{},\
         \"p50_ms\":{p50:.3},\"p99_ms\":{p99:.3},\
         \"cfs_per_sec\":{cfs_per_sec:.3},\"wall_s\":{wall:.3},\
         \"cache_hit_rate\":{hit_rate}}}",
        opts.requests,
        DUP_POOL + 1,
        all.ok,
        all.shed,
        all.errors
    );
    handle.shutdown();
    let report = handle.join();
    drains_json.push(format!(
        "{{\"workers\":{dup_workers},\"scenario\":\"dup50\",\"report\":{}}}",
        drain_json(&report)
    ));

    // ---- tracing-overhead pair: same level, sink dark then armed ----
    // Unique rows, cache off, drift monitor on in both runs (it is
    // always on by default); the only variable is the JSONL trace sink.
    let tr_workers = dup_workers;
    let tr_clients = dup_clients;
    let make_level = || -> Vec<Arc<Vec<String>>> {
        (0..tr_clients)
            .map(|c| {
                Arc::new(
                    (0..opts.requests)
                        .map(|j| {
                            fixture.request(
                                (c * opts.requests + j) * opts.rows,
                                opts.rows,
                                opts.deadline_ms,
                            )
                        })
                        .collect(),
                )
            })
            .collect()
    };
    let run_level = |prom_out: Option<&str>| -> (ClientStats, f64) {
        let handle = spawn_server(&opts, &fixture, tr_workers, 0, prom_out);
        let addr = handle.addr();
        let (all, wall, _) = drive(
            addr,
            make_level(),
            opts.rows,
            opts.deadline_ms,
            Duration::ZERO,
        );
        handle.shutdown();
        handle.join();
        (all, wall)
    };
    let baseline_traced = cfx_obs::jsonl_active();
    let trace_path = std::path::Path::new(&opts.trace_out);
    // Three alternating off/on pairs, latencies pooled per arm: a
    // single pair on a busy host measures whatever the machine was
    // doing that second, not the sink. Alternation cancels slow load
    // drift; pooling triples the sample count behind each percentile.
    const OVERHEAD_PAIRS: usize = 3;
    let mut off = ClientStats::default();
    let mut on = ClientStats::default();
    for pair in 0..OVERHEAD_PAIRS {
        cfx_obs::close_jsonl();
        let (o, _) = run_level(None);
        off.latencies.extend(o.latencies);
        cfx_obs::init_jsonl(trace_path).expect("arm trace sink");
        let last = pair + 1 == OVERHEAD_PAIRS;
        let (t, _) =
            run_level(if last { opts.prom_out.as_deref() } else { None });
        on.latencies.extend(t.latencies);
        cfx_obs::flush_jsonl();
    }
    off.latencies.sort();
    on.latencies.sort();
    cfx_obs::close_jsonl();
    // init_jsonl appends, so the file accumulates every traced run.
    let trace_records = std::fs::read_to_string(trace_path)
        .map(|t| t.lines().count())
        .unwrap_or(0);
    let p50_off = percentile(&off.latencies, 0.50);
    let p50_on = percentile(&on.latencies, 0.50);
    let p99_off = percentile(&off.latencies, 0.99);
    let p99_on = percentile(&on.latencies, 0.99);
    let overhead_pct = if p50_off > 0.0 {
        (p50_on - p50_off) / p50_off * 100.0
    } else {
        0.0
    };
    eprintln!(
        "tracing overhead: workers={tr_workers} clients={tr_clients}  \
         p50 off={p50_off:.2}ms on={p50_on:.2}ms  \
         overhead={overhead_pct:+.1}%  trace_records={trace_records}",
    );
    let overhead_json = format!(
        "{{\"workers\":{tr_workers},\"clients\":{tr_clients},\
         \"requests_per_client\":{},\"pairs\":{OVERHEAD_PAIRS},\
         \"baseline_traced\":{baseline_traced},\
         \"p50_off_ms\":{p50_off:.3},\"p50_on_ms\":{p50_on:.3},\
         \"p99_off_ms\":{p99_off:.3},\"p99_on_ms\":{p99_on:.3},\
         \"overhead_pct\":{overhead_pct:.2},\
         \"trace_records\":{trace_records},\"trace_path\":{:?}}}",
        opts.requests, opts.trace_out
    );

    let json = format!(
        "{{{},\
         \"note\":\"scaling levels use unique rows with the cache \
         disabled; worker counts above host_cores cannot speed up \
         compute-bound levels and the numbers below record that \
         honestly\",\"rows_per_request\":{},\"queue_cap\":{},\
         \"cache_cap\":{},\"deadline_ms\":{},\"levels\":[{}],\
         \"dup50\":{},\"tracing_overhead\":{},\"drains\":[{}]}}\n",
        cfx_bench::stamp::header_fields("serve_load"),
        opts.rows,
        opts.queue_cap,
        opts.cache_cap,
        opts.deadline_ms,
        levels_json.join(","),
        dup_json,
        overhead_json,
        drains_json.join(",")
    );
    std::fs::write(&opts.out, &json)
        .unwrap_or_else(|e| panic!("write {}: {e}", opts.out));
    println!("wrote {}", opts.out);
    cfx_obs::close_jsonl();
}
