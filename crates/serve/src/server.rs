//! The serving daemon: accept loop, connection handling, admission
//! control, and graceful drain.
//!
//! Thread model: one accept loop (non-blocking + short poll so it can
//! observe the shutdown flag), one thread per accepted connection
//! (connections beyond `max_conns` are answered `429` and closed —
//! shed, not buffered), and a pool of `workers` explain threads that
//! own all model compute. Each worker consumes its own bounded queue;
//! admission routes a request to `shard(row_fingerprint, workers)` so
//! a given row always lands on the same worker (see [`crate::shard`]
//! for why that keeps responses byte-identical at every worker count).
//! A sharded LRU response cache ([`crate::cache`]) sits in front of
//! the pool and answers repeats without queueing. Connection threads
//! only parse, validate, enqueue and wait; the bounded queues between
//! them and the pool are the backpressure point, so memory use is
//! bounded by `max_conns * max_body + queue_cap * rows + cache_cap *
//! body` no matter the offered load.
//!
//! Drain (SIGTERM/SIGINT or [`ServerHandle::shutdown`]): the accept
//! loop stops and the listener closes (the port is released
//! immediately), every accepted connection finishes its in-flight
//! request (responses during drain carry `Connection: close`; idle
//! keep-alive connections are bounded by the read timeout), then the
//! queue closes, the batcher drains whatever was admitted, a final
//! Prometheus snapshot is written, and the caller gets a
//! [`DrainReport`]. Nothing accepted is ever dropped.

use crate::batcher::{self, BatcherConfig, ExplainJob};
use crate::cache::{CacheKey, ResponseCache};
use crate::drift::{self, DriftMonitor, REFRESH_EVERY_ROWS};
use crate::fault::{FaultClock, ServeFault};
use crate::http::{self, Limits, Method, Parse, Request};
use crate::queue::{BoundedQueue, PushError};
use crate::registry::{ModelRegistry, Servable};
use crate::shard;
use cfx_obs::FieldValue;
use cfx_tensor::CfxError;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Daemon configuration. Defaults are sized for a single-host CI run;
/// the `cfx serve` subcommand exposes the load-bearing knobs as flags.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:7878` (port 0 picks a free port).
    pub addr: String,
    /// Explain worker count. Jobs are routed worker-sticky by a
    /// deterministic content hash of the request rows
    /// (`shard = fnv1a(row_bits) % workers`), so responses are
    /// byte-identical at every worker count. Defaults to
    /// `CFX_SERVE_WORKERS` (else 1).
    pub workers: usize,
    /// Bounded request-queue capacity (the backpressure point), split
    /// evenly across the per-worker queues.
    pub queue_cap: usize,
    /// Response-cache bound in entries, keyed on encoded row bits +
    /// model version + explain-config fingerprint; 0 disables caching.
    /// Defaults to `CFX_SERVE_CACHE_CAP` (else 1024).
    pub cache_cap: usize,
    /// Max concurrent connections before shedding at accept.
    pub max_conns: usize,
    /// Row budget per fused flush: a worker takes queued jobs while its
    /// flush holds fewer rows than this.
    pub max_batch_rows: usize,
    /// Opt-in extra wait, in milliseconds, for batch-mates after a worker
    /// has taken the queued backlog. The default 0 is pure continuous
    /// batching: a lone request never waits, and batches grow only from
    /// the backlog that builds while a worker is busy.
    pub linger_ms: u64,
    /// Deadline applied when a request does not name one.
    pub default_deadline_ms: u64,
    /// Cap on client-requested deadlines.
    pub max_deadline_ms: u64,
    /// Socket read timeout (also bounds idle keep-alive during drain).
    pub read_timeout_ms: u64,
    /// Socket write timeout (slow readers cannot wedge a thread).
    pub write_timeout_ms: u64,
    /// `Retry-After` hint (milliseconds) attached to shed responses.
    pub retry_after_ms: u64,
    /// Max rows per `/explain` request.
    pub max_rows_per_request: usize,
    /// HTTP head/body size limits.
    pub limits: Limits,
    /// Directory watched for hot-loadable model checkpoints.
    pub model_dir: Option<PathBuf>,
    /// Final Prometheus snapshot written at drain.
    pub prom_out: Option<PathBuf>,
    /// PSI threshold that trips the drift warning when the column mean
    /// *or* the single worst column exceeds it (classic PSI convention:
    /// 0.1 is moderate shift, 0.25 is major).
    pub drift_warn: f64,
    /// Whether the live drift monitor runs. It is a pure observer
    /// either way — response bytes are identical on or off.
    pub drift_enabled: bool,
}

/// Reads a `usize` knob from the environment, falling back to
/// `default` on absence or garbage (a bad value must not abort library
/// construction; the CLI validates its own flags).
fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: env_usize("CFX_SERVE_WORKERS", 1).max(1),
            queue_cap: 64,
            cache_cap: env_usize("CFX_SERVE_CACHE_CAP", 1024),
            max_conns: 128,
            max_batch_rows: 256,
            linger_ms: 0,
            default_deadline_ms: 2_000,
            max_deadline_ms: 30_000,
            read_timeout_ms: 2_000,
            write_timeout_ms: 2_000,
            retry_after_ms: 50,
            max_rows_per_request: 256,
            limits: Limits::default(),
            model_dir: None,
            prom_out: None,
            drift_warn: 0.25,
            drift_enabled: true,
        }
    }
}

/// Terminal tallies of one server run, for drain assertions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DrainReport {
    /// Connections accepted.
    pub accepted: u64,
    /// Requests answered 200.
    pub served: u64,
    /// Requests shed with 429 (queue full or connection cap).
    pub shed: u64,
    /// Requests that missed a deadline (504/408).
    pub timeouts: u64,
    /// Requests answered with a typed non-shed 4xx/5xx.
    pub malformed: u64,
    /// Latency decomposition over served requests (zeros if none).
    pub latency: LatencySummary,
}

/// End-to-end and per-stage latency percentiles over served `/explain`
/// requests, computed at drain from the stage samples the tracing
/// layer collects. All values are nanoseconds; `samples` is the count
/// summarized (bounded by [`MAX_STAGE_SAMPLES`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencySummary {
    /// Served requests summarized.
    pub samples: u64,
    /// Median end-to-end latency (request seen → response rendered).
    pub p50_ns: u64,
    /// 99th-percentile end-to-end latency.
    pub p99_ns: u64,
    /// Median time parsing + validating the request body.
    pub parse_p50_ns: u64,
    /// Median time queued before a worker picked the job up.
    pub queue_wait_p50_ns: u64,
    /// Median time between pickup and explain start (batch gather).
    pub linger_p50_ns: u64,
    /// Median time inside the explain ladder.
    pub explain_p50_ns: u64,
    /// Median time rendering the JSON body.
    pub serialize_p50_ns: u64,
    /// Median time rendering the HTTP response bytes.
    pub respond_p50_ns: u64,
}

/// Renders the human latency-decomposition table printed at drain.
pub fn report_serve(report: &DrainReport) -> String {
    fn ms(ns: u64) -> f64 {
        ns as f64 / 1e6
    }
    let l = &report.latency;
    let mut out = String::with_capacity(384);
    out.push_str("serve drain report\n");
    out.push_str(&format!(
        "  requests : accepted={} served={} shed={} timeouts={} malformed={}\n",
        report.accepted,
        report.served,
        report.shed,
        report.timeouts,
        report.malformed,
    ));
    if l.samples == 0 {
        out.push_str("  latency  : no served requests sampled\n");
        return out;
    }
    out.push_str(&format!(
        "  latency  : p50={:.3}ms p99={:.3}ms ({} samples)\n",
        ms(l.p50_ns),
        ms(l.p99_ns),
        l.samples,
    ));
    out.push_str(&format!(
        "  stage p50: parse={:.3}ms queue_wait={:.3}ms linger={:.3}ms explain={:.3}ms serialize={:.3}ms respond={:.3}ms\n",
        ms(l.parse_p50_ns),
        ms(l.queue_wait_p50_ns),
        ms(l.linger_p50_ns),
        ms(l.explain_p50_ns),
        ms(l.serialize_p50_ns),
        ms(l.respond_p50_ns),
    ));
    out
}

/// Cap on retained per-request stage samples: bounds drain-report
/// memory under unbounded load (64 B each → ≤ 4 MiB).
pub const MAX_STAGE_SAMPLES: usize = 65_536;

/// Histogram bucket bounds shared by every stage/request duration
/// metric (nanoseconds, 10 µs → 1 s).
const STAGE_BOUNDS: [f64; 6] = [1e4, 1e5, 1e6, 1e7, 1e8, 1e9];

/// Stage names in lifecycle order; each owns a
/// `cfx_serve_stage_ns:<name>` histogram and a `stage` JSONL record.
const STAGE_NAMES: [&str; 7] = [
    "parse",
    "cache_lookup",
    "queue_wait",
    "linger",
    "explain",
    "serialize",
    "respond",
];

/// One served request's stage decomposition, retained for the
/// drain-time [`LatencySummary`].
#[derive(Clone, Copy, Default)]
struct StageSample {
    total_ns: u64,
    parse_ns: u64,
    queue_wait_ns: u64,
    linger_ns: u64,
    explain_ns: u64,
    serialize_ns: u64,
    respond_ns: u64,
}

struct Shared {
    cfg: ServeConfig,
    /// One bounded queue per worker; jobs are routed by
    /// [`shard::shard`]`(fingerprint, queues.len())` at admission.
    queues: Vec<Arc<BoundedQueue<ExplainJob>>>,
    cache: Arc<ResponseCache>,
    registry: Arc<ModelRegistry>,
    shutdown: Arc<AtomicBool>,
    clock: FaultClock,
    fault: Option<ServeFault>,
    active_conns: AtomicUsize,
    served: AtomicU64,
    shed: AtomicU64,
    timeouts: AtomicU64,
    malformed: AtomicU64,
    /// Live traffic drift monitor (`None` when disabled by config).
    drift: Option<DriftMonitor>,
    /// Stage samples from served requests, summarized at drain.
    samples: Mutex<Vec<StageSample>>,
}

impl Shared {
    fn draining(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Total backlog across every worker queue.
    fn queue_depth(&self) -> usize {
        self.queues.iter().map(|q| q.len()).sum()
    }

    /// Total admission capacity across every worker queue.
    fn queue_cap(&self) -> usize {
        self.queues.iter().map(|q| q.cap()).sum()
    }

    /// Live `Retry-After` hint for shed (429) responses: the configured
    /// base scaled by the backlog each worker must chew through first.
    /// An empty pool hints the base; a pool `k` jobs deep per worker
    /// hints `(k + 1) * base`, so clients back off proportionally to
    /// the work ahead of them instead of hammering a constant cadence.
    fn shed_retry_after_ms(&self) -> u64 {
        let per_worker =
            (self.queue_depth() / self.queues.len().max(1)) as u64;
        self.cfg.retry_after_ms.saturating_mul(per_worker + 1)
    }
}

/// A running server: address, shutdown trigger, and the join handle
/// that yields the drain report.
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    join: std::thread::JoinHandle<DrainReport>,
}

impl ServerHandle {
    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Triggers a graceful drain (same path as SIGTERM).
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// Waits for the drain to finish.
    pub fn join(self) -> DrainReport {
        self.join.join().expect("server thread panicked")
    }
}

/// Pre-registers every serve metric so scrapes (and the final drain
/// snapshot) carry the full family even before traffic arrives.
/// Per-worker job counters (`cfx_serve_worker_jobs_total:wN`) are
/// registered for each of the `workers` shards.
fn register_metrics(workers: usize) {
    if !cfx_obs::ENABLED {
        return;
    }
    use cfx_obs::metrics::{counter, gauge};
    counter("cfx_serve_requests_total").inc(0);
    counter("cfx_serve_shed_total").inc(0);
    counter("cfx_serve_timeouts_total").inc(0);
    counter("cfx_serve_malformed_total").inc(0);
    counter("cfx_serve_batches_total").inc(0);
    counter("cfx_serve_expired_total").inc(0);
    counter("cfx_serve_fused_retry_total").inc(0);
    counter("cfx_serve_model_reloads_total").inc(0);
    counter("cfx_serve_model_quarantined_total").inc(0);
    counter("cfx_serve_worker_jobs_total").inc(0);
    for w in 0..workers {
        counter(&format!("cfx_serve_worker_jobs_total:w{w}")).inc(0);
    }
    counter("cfx_serve_cache_hits_total").inc(0);
    counter("cfx_serve_cache_misses_total").inc(0);
    counter("cfx_serve_cache_evictions_total").inc(0);
    counter("cfx_serve_cache_invalidations_total").inc(0);
    gauge("cfx_serve_cache_entries").set(0.0);
    gauge("cfx_serve_workers").set(workers as f64);
    gauge("cfx_serve_queue_depth").set(0.0);
    gauge("cfx_serve_active_connections").set(0.0);
    gauge("cfx_serve_draining").set(0.0);
    gauge("cfx_serve_drift_score_overall").set(0.0);
    gauge("cfx_serve_drift_score_max").set(0.0);
    gauge("cfx_serve_drift_rows_observed").set(0.0);
    // Stage-latency histograms: registering the family up front means a
    // scrape before the first request still shows every bucket series.
    use cfx_obs::metrics::histogram;
    histogram("cfx_serve_request_ns", &STAGE_BOUNDS);
    for stage in STAGE_NAMES {
        histogram(&format!("cfx_serve_stage_ns:{stage}"), &STAGE_BOUNDS);
    }
}

/// Installs SIGTERM/SIGINT handlers that set `flag`. Hand-rolled FFI
/// against the libc `signal` that `std` already links — no new
/// dependency. The handler body only stores to an atomic, which is
/// async-signal-safe. No-op on non-unix targets.
pub fn install_signal_handlers(flag: &Arc<AtomicBool>) {
    static FLAG: OnceLock<Arc<AtomicBool>> = OnceLock::new();
    let _ = FLAG.set(Arc::clone(flag));
    #[cfg(unix)]
    {
        unsafe extern "C" fn on_signal(_sig: i32) {
            if let Some(f) = FLAG.get() {
                f.store(true, Ordering::SeqCst);
            }
        }
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        unsafe {
            signal(SIGTERM, on_signal as *const () as usize);
            signal(SIGINT, on_signal as *const () as usize);
        }
    }
}

/// Binds and spawns the daemon. The returned handle exposes the bound
/// address immediately; the server runs until `shutdown` (or a signal
/// wired to the same flag via [`install_signal_handlers`]) triggers
/// the drain.
pub fn spawn(
    cfg: ServeConfig,
    boot: Servable,
    shutdown: Arc<AtomicBool>,
) -> Result<ServerHandle, CfxError> {
    let fault = ServeFault::from_env()?;
    let listener = TcpListener::bind(&cfg.addr)
        .map_err(|e| CfxError::io(format!("bind {}: {e}", cfg.addr)))?;
    let addr = listener
        .local_addr()
        .map_err(|e| CfxError::io(format!("local_addr: {e}")))?;
    listener
        .set_nonblocking(true)
        .map_err(|e| CfxError::io(format!("set_nonblocking: {e}")))?;
    let workers = cfg.workers.max(1);
    register_metrics(workers);
    // Split the admission budget evenly: total capacity (and therefore
    // the memory bound) stays at queue_cap regardless of worker count.
    let per_queue_cap = cfg.queue_cap.div_ceil(workers).max(1);
    let queues: Vec<Arc<BoundedQueue<ExplainJob>>> = (0..workers)
        .map(|_| Arc::new(BoundedQueue::new(per_queue_cap)))
        .collect();
    if cfx_obs::ENABLED {
        cfx_obs::metrics::gauge("cfx_serve_queue_cap")
            .set(queues.iter().map(|q| q.cap()).sum::<usize>() as f64);
    }
    let cache = Arc::new(ResponseCache::new(cfg.cache_cap));
    // The monitor needs the encoded width before `boot` moves into the
    // registry; the reference moments themselves live in the registry
    // so hot reloads refresh them.
    let drift = cfg
        .drift_enabled
        .then(|| DriftMonitor::new(boot.data.width(), cfg.drift_warn));
    let registry = Arc::new(ModelRegistry::new(boot, cfg.model_dir.clone()));
    if cache.enabled() {
        registry.attach_cache(Arc::clone(&cache));
    }
    let shared = Arc::new(Shared {
        queues,
        cache,
        registry,
        shutdown: Arc::clone(&shutdown),
        clock: FaultClock::default(),
        fault,
        active_conns: AtomicUsize::new(0),
        served: AtomicU64::new(0),
        shed: AtomicU64::new(0),
        timeouts: AtomicU64::new(0),
        malformed: AtomicU64::new(0),
        drift,
        samples: Mutex::new(Vec::new()),
        cfg,
    });
    let join = std::thread::Builder::new()
        .name("cfx-serve-accept".into())
        .spawn(move || run(listener, shared))
        .map_err(|e| CfxError::io(format!("spawn accept thread: {e}")))?;
    Ok(ServerHandle { addr, shutdown, join })
}

fn run(listener: TcpListener, shared: Arc<Shared>) -> DrainReport {
    cfx_obs::info!(
        "serve_listening",
        addr = listener
            .local_addr()
            .map(|a| a.to_string())
            .unwrap_or_default(),
        queue_cap = shared.cfg.queue_cap,
        workers = shared.queues.len(),
        cache_cap = shared.cache.cap(),
    );
    let workers = batcher::spawn_pool(
        shared.queues.clone(),
        Arc::clone(&shared.registry),
        BatcherConfig {
            max_batch_rows: shared.cfg.max_batch_rows,
            linger: Duration::from_millis(shared.cfg.linger_ms),
        },
        shared.cache.enabled().then(|| Arc::clone(&shared.cache)),
    );

    let mut accepted: u64 = 0;
    let mut conn_threads: Vec<std::thread::JoinHandle<()>> = Vec::new();
    while !shared.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                accepted += 1;
                let conn_index = shared.clock.next_conn();
                let active =
                    shared.active_conns.fetch_add(1, Ordering::SeqCst) + 1;
                if cfx_obs::ENABLED {
                    cfx_obs::metrics::gauge("cfx_serve_active_connections")
                        .set(active as f64);
                }
                let over_cap = active > shared.cfg.max_conns;
                let sh = Arc::clone(&shared);
                let h = std::thread::Builder::new()
                    .name(format!("cfx-serve-conn-{conn_index}"))
                    .spawn(move || {
                        if over_cap {
                            // Over the connection bound: shed at the
                            // door with the same typed 429 the queue
                            // uses, instead of letting threads pile up.
                            shed_connection(&sh, stream);
                        } else {
                            handle_connection(&sh, stream, conn_index);
                        }
                        let left =
                            sh.active_conns.fetch_sub(1, Ordering::SeqCst) - 1;
                        if cfx_obs::ENABLED {
                            cfx_obs::metrics::gauge(
                                "cfx_serve_active_connections",
                            )
                            .set(left as f64);
                        }
                    })
                    .expect("spawn connection thread");
                conn_threads.push(h);
                // Reap finished threads so the vec stays bounded under
                // sustained load.
                conn_threads.retain(|t| !t.is_finished());
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                // Idle: poll the registry so reloads land even with no
                // traffic, then nap briefly and re-check shutdown.
                let _ = shared.registry.poll();
                // Reap here too: a burst followed by silence used to
                // leave every burst thread's handle parked in the vec
                // (and its stack resident) until the *next* accept.
                if conn_threads.iter().any(|t| t.is_finished()) {
                    conn_threads.retain(|t| !t.is_finished());
                    conn_threads.shrink_to(shared.cfg.max_conns);
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(e) => {
                cfx_obs::warn!("serve_accept_error", error = e.to_string());
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }

    // ---- drain ---------------------------------------------------------
    if cfx_obs::ENABLED {
        cfx_obs::metrics::gauge("cfx_serve_draining").set(1.0);
    }
    cfx_obs::info!("serve_draining", accepted = accepted);
    drop(listener); // the port closes before in-flight work finishes
    for t in conn_threads {
        let _ = t.join();
    }
    // Every producer is done: close every queue, then each worker exits
    // once it has answered everything that was admitted to its shard.
    for q in &shared.queues {
        q.close();
    }
    for w in workers {
        let _ = w.join();
    }
    if cfx_obs::ENABLED {
        // The workers are gone and the queues are empty; settle the
        // gauge so the drain snapshot reports the true (zero) backlog.
        cfx_obs::metrics::gauge("cfx_serve_queue_depth").set(0.0);
    }
    // Score the final traffic tally so the drain snapshot's drift
    // gauges cover every observed row, not just the last refresh tick.
    if let Some(monitor) = &shared.drift {
        monitor.refresh(&shared.registry.ref_stats());
    }
    // Final access-log flush *before* the Prometheus snapshot: the
    // JSONL tail and the metrics file then describe the same finished
    // run (worker/connection batches already flushed at thread exit).
    cfx_obs::flush_jsonl();

    let report = DrainReport {
        accepted,
        served: shared.served.load(Ordering::SeqCst),
        shed: shared.shed.load(Ordering::SeqCst),
        timeouts: shared.timeouts.load(Ordering::SeqCst),
        malformed: shared.malformed.load(Ordering::SeqCst),
        latency: latency_summary(&shared),
    };
    if let Some(path) = &shared.cfg.prom_out {
        if let Err(e) = cfx_obs::metrics::write_prometheus(path) {
            cfx_obs::warn!(
                "serve_prom_out_failed",
                path = path.display().to_string(),
                error = e.to_string(),
            );
        }
    }
    cfx_obs::info!(
        "serve_drained",
        accepted = report.accepted,
        served = report.served,
        shed = report.shed,
        timeouts = report.timeouts,
        malformed = report.malformed,
        p50_ns = report.latency.p50_ns,
        p99_ns = report.latency.p99_ns,
    );
    report
}

/// Sorted-percentile over one stage field of the retained samples.
fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Summarizes the retained stage samples into the drain report's
/// latency decomposition.
fn latency_summary(shared: &Shared) -> LatencySummary {
    let samples = shared.samples.lock().unwrap_or_else(|e| e.into_inner());
    if samples.is_empty() {
        return LatencySummary::default();
    }
    let col = |f: fn(&StageSample) -> u64| -> Vec<u64> {
        let mut v: Vec<u64> = samples.iter().map(f).collect();
        v.sort_unstable();
        v
    };
    let total = col(|s| s.total_ns);
    LatencySummary {
        samples: samples.len() as u64,
        p50_ns: percentile(&total, 0.50),
        p99_ns: percentile(&total, 0.99),
        parse_p50_ns: percentile(&col(|s| s.parse_ns), 0.50),
        queue_wait_p50_ns: percentile(&col(|s| s.queue_wait_ns), 0.50),
        linger_p50_ns: percentile(&col(|s| s.linger_ns), 0.50),
        explain_p50_ns: percentile(&col(|s| s.explain_ns), 0.50),
        serialize_p50_ns: percentile(&col(|s| s.serialize_ns), 0.50),
        respond_p50_ns: percentile(&col(|s| s.respond_ns), 0.50),
    }
}

/// Answers one connection with a connection-cap 429 and closes it.
fn shed_connection(shared: &Shared, mut stream: TcpStream) {
    shared.shed.fetch_add(1, Ordering::SeqCst);
    if cfx_obs::ENABLED {
        cfx_obs::metrics::counter("cfx_serve_shed_total").inc(1);
    }
    let retry_ms = shared.shed_retry_after_ms();
    let body = error_body("overloaded", "connection limit reached", Some(retry_ms));
    let retry = retry_after_header(retry_ms);
    let resp =
        http::render_response(429, "application/json", &[retry], body.as_bytes(), false);
    let _ = stream.set_write_timeout(Some(Duration::from_millis(
        shared.cfg.write_timeout_ms,
    )));
    let _ = stream.write_all(&resp);
}

/// `Retry-After` is specified in whole seconds; round the millisecond
/// hint up so "soon" never becomes "now".
fn retry_after_header(retry_after_ms: u64) -> (&'static str, String) {
    (
        "Retry-After",
        retry_after_ms.div_ceil(1000).max(1).to_string(),
    )
}

/// Renders the uniform JSON error body:
/// `{"error":{"kind":...,"message":...}}` plus an optional
/// `retry_after_ms` field for shed responses.
fn error_body(kind: &str, message: &str, retry_after_ms: Option<u64>) -> String {
    let mut out = String::with_capacity(64 + message.len());
    out.push_str("{\"error\":{\"kind\":");
    cfx_obs::json::write_str(&mut out, kind);
    out.push_str(",\"message\":");
    cfx_obs::json::write_str(&mut out, message);
    if let Some(ms) = retry_after_ms {
        out.push_str(",\"retry_after_ms\":");
        out.push_str(&ms.to_string());
    }
    out.push_str("}}");
    out
}

/// Maps a typed [`CfxError`] from the explain path to
/// `(status, kind, retry_after_ms)`.
fn map_cfx_error(e: &CfxError) -> (u16, &'static str, Option<u64>) {
    match e {
        CfxError::Timeout { .. } => (504, "timeout", None),
        CfxError::Overloaded { retry_after_ms } => {
            (429, "overloaded", Some(*retry_after_ms))
        }
        CfxError::Data(_) => (422, "bad_input", None),
        _ => (500, "internal", None),
    }
}

/// One accepted connection: read → parse → route → respond, keep-alive
/// until the client closes, a timeout fires, or the drain begins.
fn handle_connection(shared: &Shared, mut stream: TcpStream, conn_index: u64) {
    let read_timeout = Duration::from_millis(shared.cfg.read_timeout_ms);
    let write_timeout = Duration::from_millis(shared.cfg.write_timeout_ms);
    let _ = stream.set_read_timeout(Some(read_timeout));
    let _ = stream.set_write_timeout(Some(write_timeout));
    let _ = stream.set_nodelay(true);

    // Deadlines for the first request anchor at accept time, *before*
    // any injected stall: a slow-client fault consumes the request's
    // own budget, so the timeout path fires deterministically.
    let mut anchor = Instant::now();
    if shared.clock.stalls(shared.fault, conn_index) {
        std::thread::sleep(read_timeout);
    }
    let corrupt = shared.clock.corrupts(shared.fault, conn_index);
    let mut corrupted_once = false;

    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut chunk = [0u8; 4096];
    loop {
        // Parse whatever is already buffered before reading more — a
        // pipelined follow-up request may be complete already.
        match http::parse_request(&buf, &shared.cfg.limits) {
            Ok(Parse::Done(req, consumed)) => {
                buf.drain(..consumed);
                let keep = req.keep_alive() && !shared.draining();
                let wrote = respond(shared, &mut stream, &req, keep, anchor);
                let served = shared.clock.record_served();
                if shared.clock.should_kill(shared.fault, served) {
                    // Crash drill: die exactly like CFX_CRASH does, so
                    // restart tooling sees the familiar exit code.
                    cfx_obs::warn!("serve_kill_fault", served = served);
                    std::process::exit(cfx_tensor::checkpoint::CRASH_EXIT_CODE);
                }
                if !keep || !wrote {
                    return;
                }
                anchor = Instant::now();
                continue;
            }
            Ok(Parse::Partial) => {}
            Err(e) => {
                shared.malformed.fetch_add(1, Ordering::SeqCst);
                if cfx_obs::ENABLED {
                    cfx_obs::metrics::counter("cfx_serve_malformed_total")
                        .inc(1);
                    cfx_obs::event!(
                        "serve_malformed",
                        kind = e.kind(),
                        conn = conn_index,
                    );
                    // Requests that die in HTTP parsing never reach
                    // `handle_explain`; give them their own trace id and
                    // terminal access-log record so the log accounts
                    // for every byte stream the server answered.
                    let trace = cfx_obs::TraceId::next();
                    let _scope = cfx_obs::TraceScope::enter(trace);
                    cfx_obs::emit_request(
                        "http",
                        &[
                            ("outcome", FieldValue::Str("malformed".into())),
                            ("status", FieldValue::U64(e.status() as u64)),
                            ("kind", FieldValue::Str(e.kind().to_string())),
                            ("conn", FieldValue::U64(conn_index)),
                        ],
                    );
                }
                let body = error_body(e.kind(), &e.to_string(), None);
                let resp = http::render_response(
                    e.status(),
                    "application/json",
                    &[],
                    body.as_bytes(),
                    false,
                );
                let _ = stream.write_all(&resp);
                return;
            }
        }
        match stream.read(&mut chunk) {
            Ok(0) => {
                // EOF. Mid-frame EOF gets no reply (nobody is there to
                // read it); a clean idle close is just the end of
                // keep-alive.
                return;
            }
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                if corrupt && !corrupted_once && !buf.is_empty() {
                    // Deterministic malformed-fault: flip the top bit
                    // of the first head byte, once per connection.
                    buf[0] ^= 0x80;
                    corrupted_once = true;
                }
            }
            Err(e)
                if e.kind() == ErrorKind::WouldBlock
                    || e.kind() == ErrorKind::TimedOut =>
            {
                if buf.is_empty() {
                    // Idle keep-alive past the read budget: close
                    // quietly (this is also what bounds idle
                    // connections during drain).
                    return;
                }
                // Mid-frame stall: the client started a request and
                // went quiet — answer 408 with a retry hint and close.
                shared.timeouts.fetch_add(1, Ordering::SeqCst);
                if cfx_obs::ENABLED {
                    cfx_obs::metrics::counter("cfx_serve_timeouts_total")
                        .inc(1);
                    let trace = cfx_obs::TraceId::next();
                    let _scope = cfx_obs::TraceScope::enter(trace);
                    cfx_obs::emit_request(
                        "http",
                        &[
                            ("outcome", FieldValue::Str("timeout_408".into())),
                            ("status", FieldValue::U64(408)),
                            ("conn", FieldValue::U64(conn_index)),
                        ],
                    );
                }
                let body = error_body(
                    "timeout",
                    "request head/body not received within the read timeout",
                    Some(shared.cfg.retry_after_ms),
                );
                let retry = retry_after_header(shared.cfg.retry_after_ms);
                let resp = http::render_response(
                    408,
                    "application/json",
                    &[retry],
                    body.as_bytes(),
                    false,
                );
                let _ = stream.write_all(&resp);
                return;
            }
            Err(_) => return,
        }
    }
}

/// Routes one parsed request and writes the response. Returns `false`
/// when the connection should close (write failure).
fn respond(
    shared: &Shared,
    stream: &mut TcpStream,
    req: &Request,
    keep_alive: bool,
    anchor: Instant,
) -> bool {
    let resp = match (req.method, req.path()) {
        (Method::Get, "/healthz") => handle_healthz(shared, keep_alive),
        (Method::Get, "/metrics") => handle_metrics(keep_alive),
        (Method::Post, "/explain") => {
            handle_explain(shared, req, keep_alive, anchor)
        }
        (_, path) => {
            shared.malformed.fetch_add(1, Ordering::SeqCst);
            if cfx_obs::ENABLED {
                cfx_obs::metrics::counter("cfx_serve_malformed_total").inc(1);
            }
            let body =
                error_body("not_found", &format!("no route for {path}"), None);
            http::render_response(
                404,
                "application/json",
                &[],
                body.as_bytes(),
                keep_alive,
            )
        }
    };
    stream.write_all(&resp).is_ok()
}

fn handle_healthz(shared: &Shared, keep_alive: bool) -> Vec<u8> {
    let snapshot = shared.registry.current();
    let depth = shared.queue_depth();
    let mut body = String::with_capacity(192);
    body.push_str(if shared.draining() {
        "{\"status\":\"draining\""
    } else {
        "{\"status\":\"ok\""
    });
    let cache_stats = shared.cache.stats();
    let _ = std::fmt::Write::write_fmt(
        &mut body,
        format_args!(
            ",\"workers\":{},\"queue_depth\":{depth},\"queue_cap\":{},\"cache_entries\":{},\"cache_hits\":{},\"cache_misses\":{},\"width\":{},\"model_version\":{},\"model_source\":",
            shared.queues.len(),
            shared.queue_cap(),
            shared.cache.entries(),
            cache_stats.hits,
            cache_stats.misses,
            snapshot.data.width(),
            snapshot.version,
        ),
    );
    cfx_obs::json::write_str(&mut body, &snapshot.source);
    if let Some(monitor) = &shared.drift {
        body.push_str(",\"drift\":");
        body.push_str(&drift::healthz_json(
            monitor,
            &shared.registry.ref_stats(),
            3,
        ));
    }
    body.push('}');
    http::render_response(200, "application/json", &[], body.as_bytes(), keep_alive)
}

fn handle_metrics(keep_alive: bool) -> Vec<u8> {
    let body = if cfx_obs::ENABLED {
        cfx_obs::metrics::prometheus_snapshot()
    } else {
        "# telemetry disabled (built without the obs feature)\n".to_string()
    };
    http::render_response(
        200,
        "text/plain; version=0.0.4",
        &[],
        body.as_bytes(),
        keep_alive,
    )
}

/// Decoded `/explain` request body.
struct ExplainRequest {
    rows: Vec<Vec<f32>>,
    deadline_ms: Option<u64>,
}

/// Parses `{"rows":[[...],...],"deadline_ms":250}` (deadline optional).
fn parse_explain_body(
    body: &[u8],
    width: usize,
    max_rows: usize,
) -> Result<ExplainRequest, String> {
    let text =
        std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    let value =
        cfx_obs::json::parse(text).map_err(|e| format!("bad JSON: {e}"))?;
    let rows_value = value
        .get("rows")
        .ok_or_else(|| "missing required field \"rows\"".to_string())?;
    let cfx_obs::json::Value::Arr(raw_rows) = rows_value else {
        return Err("\"rows\" must be an array of feature rows".into());
    };
    if raw_rows.is_empty() {
        return Err("\"rows\" must not be empty".into());
    }
    if raw_rows.len() > max_rows {
        return Err(format!(
            "too many rows: {} > per-request cap {max_rows}",
            raw_rows.len()
        ));
    }
    let mut rows = Vec::with_capacity(raw_rows.len());
    for (i, raw) in raw_rows.iter().enumerate() {
        let cfx_obs::json::Value::Arr(cells) = raw else {
            return Err(format!("rows[{i}] is not an array"));
        };
        if cells.len() != width {
            return Err(format!(
                "rows[{i}] has {} features, model expects {width}",
                cells.len()
            ));
        }
        let mut row = Vec::with_capacity(width);
        for (j, cell) in cells.iter().enumerate() {
            let v = cell
                .as_f64()
                .ok_or_else(|| format!("rows[{i}][{j}] is not a number"))?;
            if !v.is_finite() {
                return Err(format!("rows[{i}][{j}] is not finite"));
            }
            row.push(v as f32);
        }
        rows.push(row);
    }
    let deadline_ms = match value.get("deadline_ms") {
        None => None,
        Some(v) => Some(v.as_u64().filter(|&ms| ms >= 1).ok_or_else(|| {
            "\"deadline_ms\" must be a positive integer".to_string()
        })?),
    };
    Ok(ExplainRequest { rows, deadline_ms })
}

/// Per-request observation record the explain handler fills in as
/// stages complete. Pure bookkeeping: nothing in here feeds back into
/// the response bytes, so tracing on vs off cannot change what the
/// client sees.
#[derive(Default)]
struct ExplainObs {
    /// Terminal outcome tag (`served`, `shed_429`, `timeout_504`,
    /// `draining_503`, `malformed`, `internal_500`).
    outcome: &'static str,
    /// HTTP status answered.
    status: u16,
    /// Rows in the request (0 when parsing failed).
    rows: u64,
    /// Cache disposition: `hit`, `miss`, or `off`.
    cache: &'static str,
    /// Worker that ran the job, when one did.
    worker: Option<u64>,
    /// Deepest explain-ladder rung among the request's rows, when a
    /// worker explained them.
    rung: Option<&'static str>,
    parse_ns: u64,
    cache_lookup_ns: u64,
    queue_wait_ns: u64,
    linger_ns: u64,
    explain_ns: u64,
    serialize_ns: u64,
    respond_ns: u64,
    /// Whole-request wall time (first byte of handling → response
    /// rendered). The stages above are disjoint sub-intervals of this
    /// window, so their sum never exceeds it.
    total_ns: u64,
}

impl ExplainObs {
    /// Stages in lifecycle order, paired with [`STAGE_NAMES`].
    fn stages(&self) -> [(&'static str, u64); 7] {
        [
            ("parse", self.parse_ns),
            ("cache_lookup", self.cache_lookup_ns),
            ("queue_wait", self.queue_wait_ns),
            ("linger", self.linger_ns),
            ("explain", self.explain_ns),
            ("serialize", self.serialize_ns),
            ("respond", self.respond_ns),
        ]
    }
}

/// Emits one finished request's telemetry — stage histograms, a
/// `stage` JSONL record per nonzero stage, the terminal `request`
/// access-log record — and retains a latency sample when it was
/// served. Called with the request's trace scope still bound so every
/// record carries the trace id.
fn finish_explain(shared: &Shared, obs: &ExplainObs) {
    if cfx_obs::ENABLED {
        use cfx_obs::metrics::histogram;
        histogram("cfx_serve_request_ns", &STAGE_BOUNDS)
            .observe(obs.total_ns as f64);
        for (stage, ns) in obs.stages() {
            if ns == 0 {
                continue;
            }
            histogram(&format!("cfx_serve_stage_ns:{stage}"), &STAGE_BOUNDS)
                .observe(ns as f64);
            cfx_obs::emit_stage(stage, ns, &[]);
        }
        if cfx_obs::jsonl_active() {
            let mut fields: Vec<(&str, FieldValue)> = vec![
                ("outcome", FieldValue::Str(obs.outcome.into())),
                ("status", FieldValue::U64(obs.status as u64)),
                ("rows", FieldValue::U64(obs.rows)),
                ("cache", FieldValue::Str(obs.cache.into())),
                ("total_ns", FieldValue::U64(obs.total_ns)),
                ("parse_ns", FieldValue::U64(obs.parse_ns)),
                ("cache_lookup_ns", FieldValue::U64(obs.cache_lookup_ns)),
                ("queue_wait_ns", FieldValue::U64(obs.queue_wait_ns)),
                ("linger_ns", FieldValue::U64(obs.linger_ns)),
                ("explain_ns", FieldValue::U64(obs.explain_ns)),
                ("serialize_ns", FieldValue::U64(obs.serialize_ns)),
                ("respond_ns", FieldValue::U64(obs.respond_ns)),
            ];
            if let Some(w) = obs.worker {
                fields.push(("worker", FieldValue::U64(w)));
            }
            if let Some(rung) = obs.rung {
                fields.push(("rung", FieldValue::Str(rung.into())));
            }
            cfx_obs::emit_request("explain", &fields);
        }
    }
    if obs.outcome == "served" {
        let mut samples =
            shared.samples.lock().unwrap_or_else(|e| e.into_inner());
        if samples.len() < MAX_STAGE_SAMPLES {
            samples.push(StageSample {
                total_ns: obs.total_ns,
                parse_ns: obs.parse_ns,
                queue_wait_ns: obs.queue_wait_ns,
                linger_ns: obs.linger_ns,
                explain_ns: obs.explain_ns,
                serialize_ns: obs.serialize_ns,
                respond_ns: obs.respond_ns,
            });
        }
    }
}

fn handle_explain(
    shared: &Shared,
    req: &Request,
    keep_alive: bool,
    anchor: Instant,
) -> Vec<u8> {
    if cfx_obs::ENABLED {
        cfx_obs::metrics::counter("cfx_serve_requests_total").inc(1);
    }
    // Every request gets a trace id; the scope binds it to this thread
    // so records emitted anywhere below (including inside the worker,
    // which re-binds from `ExplainJob::trace`) carry it.
    let trace_id = cfx_obs::TraceId::next();
    let _scope = cfx_obs::ENABLED.then(|| cfx_obs::TraceScope::enter(trace_id));
    // Echo the id only when the client opts in with an `X-Cfx-Trace`
    // request header. The echo is a function of the request alone —
    // never of whether a sink is armed — so response bytes stay
    // identical with tracing on or off.
    let trace_echo: Vec<(&str, String)> = req
        .header("x-cfx-trace")
        .map(|_| vec![("X-Cfx-Trace", trace_id.to_string())])
        .unwrap_or_default();
    let started = Instant::now();
    let mut obs = ExplainObs::default();
    let resp = explain_inner(
        shared,
        req,
        keep_alive,
        anchor,
        &trace_echo,
        &mut obs,
    );
    obs.total_ns = started.elapsed().as_nanos() as u64;
    finish_explain(shared, &obs);
    resp
}

fn explain_inner(
    shared: &Shared,
    req: &Request,
    keep_alive: bool,
    anchor: Instant,
    extra: &[(&str, String)],
    obs: &mut ExplainObs,
) -> Vec<u8> {
    let snapshot = shared.registry.current();
    let width = snapshot.data.width();
    let parse_timer = Instant::now();
    let parsed = match parse_explain_body(
        &req.body,
        width,
        shared.cfg.max_rows_per_request,
    ) {
        Ok(p) => {
            obs.parse_ns = parse_timer.elapsed().as_nanos() as u64;
            p
        }
        Err(msg) => {
            obs.parse_ns = parse_timer.elapsed().as_nanos() as u64;
            obs.outcome = "malformed";
            obs.status = 422;
            shared.malformed.fetch_add(1, Ordering::SeqCst);
            if cfx_obs::ENABLED {
                cfx_obs::metrics::counter("cfx_serve_malformed_total").inc(1);
            }
            let body = error_body("bad_input", &msg, None);
            return http::render_response(
                422,
                "application/json",
                extra,
                body.as_bytes(),
                keep_alive,
            );
        }
    };
    obs.rows = parsed.rows.len() as u64;
    let deadline_ms = parsed
        .deadline_ms
        .unwrap_or(shared.cfg.default_deadline_ms)
        .min(shared.cfg.max_deadline_ms);
    let deadline = anchor + Duration::from_millis(deadline_ms);

    // One content hash serves three masters: the shard selector (which
    // worker), the cache-key routing hash, and the drift-accumulator
    // shard.
    let fingerprint = shard::row_fingerprint(&parsed.rows);

    // Fold the rows into the drift accumulator before cache lookup and
    // admission: hits and sheds are still traffic the model is being
    // asked about, so they count as observed. Refresh scores when the
    // total crosses a cadence boundary (exactly one caller observes
    // each crossing, since `observe` returns post-add totals).
    if let Some(monitor) = &shared.drift {
        let total = monitor.observe(&parsed.rows, fingerprint);
        let before = total - parsed.rows.len() as u64;
        if total / REFRESH_EVERY_ROWS > before / REFRESH_EVERY_ROWS {
            monitor.refresh(&shared.registry.ref_stats());
        }
    }

    obs.cache = "off";
    if shared.cache.enabled() {
        let lookup_timer = Instant::now();
        let key = CacheKey::new(
            &parsed.rows,
            fingerprint,
            snapshot.version,
            snapshot.explain_fingerprint(),
        );
        let cached = shared.cache.get(&key);
        obs.cache_lookup_ns = lookup_timer.elapsed().as_nanos() as u64;
        if let Some(body) = cached {
            // Cached: answer without touching a queue or a worker. The
            // body was rendered by this exact (rows, version, config)
            // triple, so it is byte-identical to a recompute.
            obs.cache = "hit";
            obs.outcome = "served";
            obs.status = 200;
            shared.served.fetch_add(1, Ordering::SeqCst);
            let respond_timer = Instant::now();
            let resp = http::render_response(
                200,
                "application/json",
                extra,
                body.as_bytes(),
                keep_alive,
            );
            obs.respond_ns = respond_timer.elapsed().as_nanos() as u64;
            return resp;
        }
        obs.cache = "miss";
    }

    let (reply_tx, reply_rx) = mpsc::channel();
    let job = ExplainJob {
        rows: parsed.rows,
        fingerprint,
        deadline,
        deadline_ms,
        admitted_at: Instant::now(),
        trace: cfx_obs::current_trace(),
        reply: reply_tx,
    };
    let worker = shard::shard(fingerprint, shared.queues.len());
    match shared.queues[worker].try_push(job) {
        Ok(_depth) => {
            if cfx_obs::ENABLED {
                cfx_obs::metrics::gauge("cfx_serve_queue_depth")
                    .set(shared.queue_depth() as f64);
            }
        }
        Err(PushError::Full(_)) => {
            obs.outcome = "shed_429";
            obs.status = 429;
            shared.shed.fetch_add(1, Ordering::SeqCst);
            if cfx_obs::ENABLED {
                cfx_obs::metrics::counter("cfx_serve_shed_total").inc(1);
            }
            let retry_ms = shared.shed_retry_after_ms();
            let e = CfxError::overloaded(retry_ms);
            let body = error_body("overloaded", &e.to_string(), Some(retry_ms));
            let mut hdrs = extra.to_vec();
            hdrs.push(retry_after_header(retry_ms));
            return http::render_response(
                429,
                "application/json",
                &hdrs,
                body.as_bytes(),
                keep_alive,
            );
        }
        Err(PushError::Closed(_)) => {
            obs.outcome = "draining_503";
            obs.status = 503;
            let body = error_body(
                "draining",
                "server is draining and no longer admits work",
                Some(shared.cfg.retry_after_ms),
            );
            let mut hdrs = extra.to_vec();
            hdrs.push(retry_after_header(shared.cfg.retry_after_ms));
            return http::render_response(
                503,
                "application/json",
                &hdrs,
                body.as_bytes(),
                false,
            );
        }
    }

    // The batcher answers every admitted job exactly once (deadline
    // misses included), so this wait only needs a backstop well past
    // the request deadline to survive a batcher panic.
    let backstop = Duration::from_millis(deadline_ms)
        + Duration::from_millis(shared.cfg.linger_ms)
        + Duration::from_secs(30);
    match reply_rx.recv_timeout(backstop) {
        Ok(reply) => {
            obs.queue_wait_ns = reply.timings.queue_wait_ns;
            obs.linger_ns = reply.timings.linger_ns;
            obs.explain_ns = reply.timings.explain_ns;
            obs.serialize_ns = reply.timings.serialize_ns;
            obs.worker = Some(reply.timings.worker);
            obs.rung = reply.rung;
            match reply.result {
                Ok(body) => {
                    obs.outcome = "served";
                    obs.status = 200;
                    shared.served.fetch_add(1, Ordering::SeqCst);
                    let respond_timer = Instant::now();
                    let resp = http::render_response(
                        200,
                        "application/json",
                        extra,
                        body.as_bytes(),
                        keep_alive,
                    );
                    obs.respond_ns =
                        respond_timer.elapsed().as_nanos() as u64;
                    resp
                }
                Err(e) => {
                    let (status, kind, retry_after) = map_cfx_error(&e);
                    obs.status = status;
                    obs.outcome = match status {
                        504 => "timeout_504",
                        429 => "shed_429",
                        _ => "malformed",
                    };
                    if status == 504 {
                        shared.timeouts.fetch_add(1, Ordering::SeqCst);
                        if cfx_obs::ENABLED {
                            cfx_obs::metrics::counter(
                                "cfx_serve_timeouts_total",
                            )
                            .inc(1);
                        }
                    } else {
                        shared.malformed.fetch_add(1, Ordering::SeqCst);
                        if cfx_obs::ENABLED {
                            cfx_obs::metrics::counter(
                                "cfx_serve_malformed_total",
                            )
                            .inc(1);
                        }
                    }
                    let body = error_body(kind, &e.to_string(), retry_after);
                    let mut hdrs = extra.to_vec();
                    if let Some(ms) = retry_after {
                        hdrs.push(retry_after_header(ms));
                    }
                    http::render_response(
                        status,
                        "application/json",
                        &hdrs,
                        body.as_bytes(),
                        keep_alive,
                    )
                }
            }
        }
        Err(_) => {
            // Batcher gone (panic or disconnect): answer 500 so the
            // client is never left hanging.
            obs.outcome = "internal_500";
            obs.status = 500;
            shared.malformed.fetch_add(1, Ordering::SeqCst);
            let body =
                error_body("internal", "explain worker unavailable", None);
            http::render_response(
                500,
                "application/json",
                extra,
                body.as_bytes(),
                false,
            )
        }
    }
}
