//! The explain worker pool: continuous batching into one fused
//! `explain_batch_deadline` call per flush, across N
//! deterministically-sharded workers.
//!
//! Each worker owns one bounded queue (jobs are routed to
//! `shard = fnv1a(row_bits) % N` at admission, see [`crate::shard`]),
//! its own `Arc<Servable>` snapshot grabs, and — because tensor-pool
//! buffers are thread-local — its own warm allocation pool. Workers
//! share nothing but the registry and the response cache, both designed
//! for concurrent readers.
//!
//! **Continuous batching.** When a worker wakes, it takes every job
//! already queued, up to `max_batch_rows`, under one queue lock
//! ([`BoundedQueue::drain_while`]) and does not wait for more: a lone
//! request never waits for batch-mates. Under load a backlog builds
//! while the worker is busy, so flushes grow exactly when fusing pays.
//! `linger` is an opt-in extra wait (default zero) for deployments that
//! prefer wider batches to latency.
//!
//! **Responses are byte-identical at every worker count and in every
//! flush.** Two rules make that hold:
//!
//! 1. A flush is explained as **one** fused call over the concatenated
//!    rows, then scattered back per job. This is safe because every
//!    rung of the explain ladder is row-wise: the recovery-resampling
//!    noise of each row is derived from the row's own bits (see
//!    `FeasibleCfModel::explain_batch_with`), so a row's answer never
//!    depends on its batch-mates, its position, or its worker.
//! 2. Deadlines never leak between batch-mates. Jobs that expired in the
//!    queue get a typed [`CfxError::Timeout`] without compute. The fused
//!    call's budget is the earliest live deadline in the flush; if that
//!    call times out or is cut short, every still-live job is
//!    re-explained alone on its own budget, so a tight batch-mate can
//!    cost another job neither its answer nor its bytes.
//!
//! Every admitted job is answered exactly once (the drain contract).

use crate::cache::{CacheKey, ResponseCache};
use crate::queue::BoundedQueue;
use crate::registry::{ModelRegistry, Servable};
use cfx_core::{Counterfactual, Provenance};
use cfx_obs::json::write_f64;
use cfx_tensor::{CfxError, Tensor};
use std::fmt::Write as _;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One admitted `/explain` request waiting for compute.
pub struct ExplainJob {
    /// Decoded feature rows (already width-validated at admission).
    pub rows: Vec<Vec<f32>>,
    /// Content fingerprint of `rows` ([`crate::shard::row_fingerprint`]):
    /// the shard selector and the cache-key hash.
    pub fingerprint: u64,
    /// Absolute deadline for the reply.
    pub deadline: Instant,
    /// The deadline budget as requested, for error reporting.
    pub deadline_ms: u64,
    /// When admission pushed the job (queue-wait timing anchor).
    pub admitted_at: Instant,
    /// The request's trace id, if the connection allocated one. The
    /// worker binds it as the thread's trace scope while it works on
    /// this job alone (a flush of one, a solo re-explain, rendering), so
    /// events emitted there carry it.
    pub trace: Option<cfx_obs::TraceId>,
    /// Where the rendered body (or typed error) plus worker-side stage
    /// timings go.
    pub reply: mpsc::Sender<JobReply>,
}

/// Worker-side stage timings for one job, in nanoseconds. Pure
/// observation: computed from `Instant` reads around stages that run
/// identically whether or not anyone looks at the numbers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerTimings {
    /// Admission push → worker pop (time spent queued).
    pub queue_wait_ns: u64,
    /// Worker pop → explain start (gathering the flush, plus any
    /// opt-in linger).
    pub linger_ns: u64,
    /// Explain start → this job's counterfactuals ready: the fused
    /// `explain_batch_deadline` call over the whole flush, plus the
    /// job's solo re-explain when the fused call could not answer it.
    pub explain_ns: u64,
    /// Time rendering the JSON body.
    pub serialize_ns: u64,
    /// Which worker ran the job.
    pub worker: u64,
}

/// One job's answer: the response body (or typed error) and where the
/// worker's time went.
pub struct JobReply {
    /// Pre-rendered JSON body on success, typed error otherwise.
    pub result: Result<String, CfxError>,
    /// The deepest rung of the explain ladder any of the job's rows
    /// reached (`first_shot`, `resampled` or `fallback`); `None` when the
    /// job was not answered with counterfactuals.
    pub rung: Option<&'static str>,
    /// Worker-side stage decomposition.
    pub timings: WorkerTimings,
}

/// Batching knobs (per worker).
#[derive(Debug, Clone, Copy)]
pub struct BatcherConfig {
    /// Row budget per flush: jobs join while the flush holds fewer rows
    /// (so one flush exceeds it by at most one request).
    pub max_batch_rows: usize,
    /// Opt-in extra wait for batch-mates after the backlog is taken
    /// (never past the flush's earliest deadline). Zero — the default —
    /// is pure continuous batching.
    pub linger: Duration,
}

impl Default for BatcherConfig {
    fn default() -> Self {
        BatcherConfig { max_batch_rows: 256, linger: Duration::ZERO }
    }
}

/// One worker's identity and shared-resource handles.
pub struct WorkerCtx {
    /// Stable worker index (`0..workers`); also the shard it serves.
    pub index: usize,
    /// The shared response cache, if caching is enabled.
    pub cache: Option<Arc<ResponseCache>>,
}

/// A job plus the instant the worker took it off the queue.
type Picked = (ExplainJob, Instant);

/// Consumes `queue` until it is closed *and* empty (the drain
/// contract), answering every job exactly once.
pub fn run(
    queue: &BoundedQueue<ExplainJob>,
    registry: &ModelRegistry,
    cfg: &BatcherConfig,
    ctx: &WorkerCtx,
) {
    let jobs_metric = format!("cfx_serve_worker_jobs_total:w{}", ctx.index);
    while let Some(first) = queue.pop_wait() {
        let (flush, rows) = gather(queue, cfg, (first, Instant::now()));
        // Reload opportunity at every flush boundary: a new checkpoint
        // is at most one flush away from serving on every worker (the
        // registry serializes the actual load internally).
        let _ = registry.poll();
        let servable = registry.current();
        if cfx_obs::ENABLED {
            use cfx_obs::metrics::{counter, histogram};
            counter("cfx_serve_batches_total").inc(1);
            counter("cfx_serve_worker_jobs_total").inc(flush.len() as u64);
            counter(&jobs_metric).inc(flush.len() as u64);
            histogram("cfx_serve_batch_rows", &[1.0, 4.0, 16.0, 64.0, 256.0])
                .observe(rows as f64);
        }
        answer_flush(&servable, ctx, flush);
    }
}

/// Builds one flush from `first`: the backlog already queued, taken
/// under one lock while the flush holds fewer than `max_batch_rows`
/// rows, then — only with an opt-in `linger` — whatever arrives before
/// `min(first pick + linger, earliest deadline)`. Returns the flush and
/// its row count.
fn gather(
    queue: &BoundedQueue<ExplainJob>,
    cfg: &BatcherConfig,
    first: Picked,
) -> (Vec<Picked>, usize) {
    let mut rows = first.0.rows.len();
    let mut flush = vec![first];
    let backlog = queue.drain_while(|job| {
        let take = rows < cfg.max_batch_rows;
        if take {
            rows += job.rows.len();
        }
        take
    });
    let picked_at = Instant::now();
    flush.extend(backlog.into_iter().map(|job| (job, picked_at)));
    if !cfg.linger.is_zero() {
        let earliest = flush
            .iter()
            .map(|(job, _)| job.deadline)
            .min()
            .expect("a flush holds its first job");
        let flush_by = (flush[0].1 + cfg.linger).min(earliest);
        while rows < cfg.max_batch_rows {
            match queue.pop_until(flush_by) {
                Some(job) => {
                    rows += job.rows.len();
                    flush.push((job, Instant::now()));
                }
                None => break,
            }
        }
    }
    (flush, rows)
}

/// Answers every job of one flush exactly once: expired jobs with a
/// typed timeout, live jobs from one fused explain call — or, for a
/// flush of one or when the fused call cannot answer them, alone.
fn answer_flush(servable: &Servable, ctx: &WorkerCtx, flush: Vec<Picked>) {
    let start = Instant::now();
    let (expired, live): (Vec<Picked>, Vec<Picked>) =
        flush.into_iter().partition(|(job, _)| start >= job.deadline);
    for (job, picked_at) in expired {
        // Expired while queued: shed the compute, type the miss.
        if cfx_obs::ENABLED {
            cfx_obs::metrics::counter("cfx_serve_expired_total").inc(1);
        }
        let result =
            Err(CfxError::timeout("queued explain", job.deadline_ms));
        finish_job(servable, ctx, job, picked_at, start, start, result);
    }
    if live.len() > 1 {
        // One call over every live row, on the earliest live deadline.
        // It serves many requests, so it binds no trace scope; each
        // request record names its own rung instead.
        let earliest = live
            .iter()
            .map(|(job, _)| job.deadline)
            .min()
            .expect("a fused flush has live jobs");
        let rows: Vec<Vec<f32>> = live
            .iter()
            .flat_map(|(job, _)| job.rows.iter().cloned())
            .collect();
        let fused = servable.model.explain_batch_deadline(
            &Tensor::from_rows(&rows),
            &servable.recovery,
            earliest.saturating_duration_since(start),
        );
        let ready = Instant::now();
        match fused {
            Ok(batch) if !batch.deadline_cut => {
                let mut examples = batch.examples.into_iter();
                for (job, picked_at) in live {
                    let mine = examples.by_ref().take(job.rows.len()).collect();
                    let result = Ok(mine);
                    finish_job(
                        servable, ctx, job, picked_at, start, ready, result,
                    );
                }
                return;
            }
            _ => {
                if cfx_obs::ENABLED {
                    cfx_obs::metrics::counter("cfx_serve_fused_retry_total")
                        .inc(1);
                }
            }
        }
    }
    // A flush of one, or a fused call that timed out or was cut short on
    // the tightest job's budget: each live job alone, on its own budget,
    // exactly as if it had arrived alone.
    for (job, picked_at) in live {
        let result = explain_alone(servable, &job);
        let ready = Instant::now();
        finish_job(servable, ctx, job, picked_at, start, ready, result);
    }
}

/// Explains one job's rows in their own call, on the job's own
/// remaining budget, with its trace bound.
fn explain_alone(
    servable: &Servable,
    job: &ExplainJob,
) -> Result<Vec<Counterfactual>, CfxError> {
    let _trace = job.trace.map(cfx_obs::TraceScope::enter);
    let now = Instant::now();
    if now >= job.deadline {
        return Err(CfxError::timeout("explain", job.deadline_ms));
    }
    servable
        .model
        .explain_batch_deadline(
            &Tensor::from_rows(&job.rows),
            &servable.recovery,
            job.deadline - now,
        )
        .map(|batch| batch.examples)
}

/// Renders, caches and replies one job's answer. `start` is when the
/// flush's explain began and `ready` when this job's counterfactuals
/// (or error) were in hand.
fn finish_job(
    servable: &Servable,
    ctx: &WorkerCtx,
    job: ExplainJob,
    picked_at: Instant,
    start: Instant,
    ready: Instant,
    result: Result<Vec<Counterfactual>, CfxError>,
) {
    let _trace = job.trace.map(cfx_obs::TraceScope::enter);
    let serialize_timer = Instant::now();
    let rung = result.as_ref().ok().map(|examples| deepest_rung(examples));
    let result = result.map(|examples| render_body(servable, &examples));
    let serialize_ns = match result {
        Ok(_) => serialize_timer.elapsed().as_nanos() as u64,
        Err(_) => 0,
    };
    let timings = WorkerTimings {
        queue_wait_ns: picked_at
            .saturating_duration_since(job.admitted_at)
            .as_nanos() as u64,
        linger_ns: start.saturating_duration_since(picked_at).as_nanos()
            as u64,
        explain_ns: ready.saturating_duration_since(start).as_nanos() as u64,
        serialize_ns,
        worker: ctx.index as u64,
    };
    if let (Some(cache), Ok(body)) = (&ctx.cache, &result) {
        // The worker inserts (not the connection thread): only here is
        // the (body, model version) pairing known race-free, so a swap
        // mid-request can never cache a new-version key against an
        // old-version body.
        cache.insert(
            CacheKey::new(
                &job.rows,
                job.fingerprint,
                servable.version,
                servable.explain_fingerprint(),
            ),
            body.clone(),
        );
    }
    // A dead receiver (client gone) is fine; the send result only tells
    // us whether anyone is still listening.
    let _ = job.reply.send(JobReply { result, rung, timings });
}

/// The deepest ladder rung among `examples`, as a trace tag.
fn deepest_rung(examples: &[Counterfactual]) -> &'static str {
    let depth = |p: Provenance| match p {
        Provenance::FirstShot => 0,
        Provenance::Resampled(_) => 1,
        Provenance::Fallback => 2,
    };
    let deepest = examples.iter().map(|e| depth(e.provenance)).max();
    ["first_shot", "resampled", "fallback"][deepest.unwrap_or(0)]
}

/// Renders the `/explain` response body. Deterministic: floats go
/// through the fixed `write_f64` formatter and no timing or
/// load-dependent fields appear, so the same input rows against the
/// same model version always produce byte-identical bodies.
fn render_body(
    servable: &Servable,
    examples: &[cfx_core::Counterfactual],
) -> String {
    let mut out = String::with_capacity(64 + examples.len() * 128);
    let _ = write!(
        out,
        "{{\"model_version\":{},\"model_source\":",
        servable.version
    );
    cfx_obs::json::write_str(&mut out, &servable.source);
    let _ = write!(out, ",\"count\":{},\"results\":[", examples.len());
    for (i, e) in examples.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"cf\":[");
        for (j, v) in e.cf.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            write_f64(&mut out, *v as f64);
        }
        let _ = write!(
            out,
            "],\"input_class\":{},\"desired_class\":{},\"cf_class\":{},\"valid\":{},\"feasible\":{},\"provenance\":\"{}\"}}",
            e.input_class,
            e.desired_class,
            e.cf_class,
            e.valid,
            e.feasible,
            provenance_tag(e.provenance),
        );
    }
    out.push_str("]}");
    out
}

fn provenance_tag(p: Provenance) -> String {
    match p {
        Provenance::FirstShot => "first_shot".to_string(),
        Provenance::Resampled(n) => format!("resampled:{n}"),
        Provenance::Fallback => "fallback".to_string(),
    }
}

/// Spawns a single worker (index 0, no cache) on its own thread — the
/// PR-7 shape, kept for tests and embedders that drive one queue
/// directly.
pub fn spawn(
    queue: Arc<BoundedQueue<ExplainJob>>,
    registry: Arc<ModelRegistry>,
    cfg: BatcherConfig,
) -> std::thread::JoinHandle<()> {
    spawn_pool(vec![queue], registry, cfg, None)
        .pop()
        .expect("one queue yields one worker")
}

/// Spawns one worker per queue. Worker `i` exclusively consumes
/// `queues[i]`; the dispatcher must route jobs with
/// [`crate::shard::shard`]`(fingerprint, queues.len())`.
pub fn spawn_pool(
    queues: Vec<Arc<BoundedQueue<ExplainJob>>>,
    registry: Arc<ModelRegistry>,
    cfg: BatcherConfig,
    cache: Option<Arc<ResponseCache>>,
) -> Vec<std::thread::JoinHandle<()>> {
    queues
        .into_iter()
        .enumerate()
        .map(|(index, queue)| {
            let registry = Arc::clone(&registry);
            let ctx = WorkerCtx { index, cache: cache.clone() };
            std::thread::Builder::new()
                .name(format!("cfx-serve-worker-{index}"))
                .spawn(move || run(&queue, &registry, &cfg, &ctx))
                .expect("spawn explain worker thread")
        })
        .collect()
}
