//! Continuous batching inside one explain worker: a backlog that is
//! already queued when the worker wakes leaves the queue in one flush
//! and is answered by one fused explain call, yet every job's reply is
//! byte-identical to its answer alone and a job that expired in the
//! queue still gets its typed timeout.
//!
//! One test per binary on purpose: it reads process-global metric
//! counters, which concurrently running tests would disturb.

use cfx_core::{
    ConstraintMode, ExplainConfig, FeasibleCfConfig, FeasibleCfModel,
    GenRecoveryConfig,
};
use cfx_data::{DatasetId, EncodedDataset, Split};
use cfx_models::{BlackBox, BlackBoxConfig};
use cfx_obs::metrics::counter;
use cfx_serve::batcher::{self, BatcherConfig, ExplainJob, JobReply};
use cfx_serve::{row_fingerprint, BoundedQueue, ModelRegistry, Servable};
use cfx_tensor::CfxError;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn servable() -> (Servable, Vec<Vec<f32>>) {
    let raw = DatasetId::Adult.generate_clean(1_200, 5);
    let data = EncodedDataset::from_raw(&raw);
    let split = Split::paper(data.len(), 5);
    let (x_train, y_train) = data.subset(&split.train);
    let bb_cfg = BlackBoxConfig {
        epochs: 4,
        ..Default::default()
    };
    let mut bb = BlackBox::new(data.width(), &bb_cfg);
    bb.train(&x_train, &y_train, &bb_cfg);
    let cfg = FeasibleCfConfig::paper(DatasetId::Adult, ConstraintMode::Unary)
        .with_epochs(2)
        .with_batch_size(256);
    let constraints = FeasibleCfModel::paper_constraints(
        DatasetId::Adult,
        &data,
        ConstraintMode::Unary,
        cfg.c1,
        cfg.c2,
    )
    .expect("paper constraints");
    let mut model = FeasibleCfModel::new(&data, bb, constraints, cfg);
    model.fit(&x_train);
    let rows = split.test[..40]
        .iter()
        .map(|&r| data.x.row_slice(r).to_vec())
        .collect();
    let servable = Servable {
        model,
        data,
        explain: ExplainConfig::default(),
        recovery: GenRecoveryConfig::default(),
        version: 0,
        source: "test".into(),
    };
    (servable, rows)
}

fn job(
    rows: Vec<Vec<f32>>,
    deadline: Instant,
) -> (ExplainJob, mpsc::Receiver<JobReply>) {
    let (reply, rx) = mpsc::channel();
    let job = ExplainJob {
        fingerprint: row_fingerprint(&rows),
        rows,
        deadline,
        deadline_ms: 30_000,
        admitted_at: Instant::now(),
        trace: None,
        reply,
    };
    (job, rx)
}

fn recv(rx: &mpsc::Receiver<JobReply>) -> JobReply {
    rx.recv_timeout(Duration::from_secs(60))
        .expect("worker replies")
}

#[test]
fn queued_backlog_leaves_in_one_fused_flush() {
    let (servable, pool) = servable();
    let registry = Arc::new(ModelRegistry::new(servable, None));
    let later = Instant::now() + Duration::from_secs(600);
    // k requests of 1–4 rows each: 17 rows, well under max_batch_rows.
    let sizes = [1usize, 3, 2, 4, 1, 2, 4];
    let mut offset = 0;
    let requests: Vec<Vec<Vec<f32>>> = sizes
        .iter()
        .map(|&n| {
            offset += n;
            pool[offset - n..offset].to_vec()
        })
        .collect();
    assert!(offset <= BatcherConfig::default().max_batch_rows);

    // Reference: each request explained alone, one flush per request.
    let queue = Arc::new(BoundedQueue::new(16));
    let worker = batcher::spawn(
        Arc::clone(&queue),
        Arc::clone(&registry),
        BatcherConfig::default(),
    );
    let alone: Vec<String> = requests
        .iter()
        .map(|rows| {
            let (j, rx) = job(rows.clone(), later);
            queue.try_push(j).ok().expect("push");
            recv(&rx).result.expect("served alone")
        })
        .collect();
    queue.close();
    worker.join().expect("worker exits cleanly");

    // The same requests, plus one that already expired, all queued
    // before the worker starts.
    let queue = Arc::new(BoundedQueue::new(16));
    let mut replies = Vec::new();
    for rows in &requests {
        let (j, rx) = job(rows.clone(), later);
        queue.try_push(j).ok().expect("push");
        replies.push(rx);
    }
    let (expired, expired_rx) = job(
        vec![pool[39].clone()],
        Instant::now() - Duration::from_millis(1),
    );
    queue.try_push(expired).ok().expect("push");
    let batches = counter("cfx_serve_batches_total").get();
    let jobs = counter("cfx_serve_worker_jobs_total").get();
    let worker = batcher::spawn(
        Arc::clone(&queue),
        Arc::clone(&registry),
        BatcherConfig::default(),
    );
    for (rx, want) in replies.iter().zip(&alone) {
        let reply = recv(rx);
        let body = reply.result.expect("served fused");
        assert_eq!(&body, want, "a fused answer must equal its answer alone");
        assert!(reply.rung.is_some(), "served reply names its rung");
        assert!(reply.timings.explain_ns > 0);
    }
    let reply = recv(&expired_rx);
    assert!(
        matches!(reply.result, Err(CfxError::Timeout { .. })),
        "a job that expired in the queue is a typed timeout"
    );
    assert_eq!(reply.rung, None);
    assert_eq!(reply.timings.explain_ns, 0, "no compute for an expired job");
    queue.close();
    worker.join().expect("worker exits cleanly");

    if cfx_obs::ENABLED {
        assert_eq!(
            counter("cfx_serve_batches_total").get() - batches,
            1,
            "the whole backlog must leave in one flush"
        );
        assert_eq!(
            counter("cfx_serve_worker_jobs_total").get() - jobs,
            requests.len() as u64 + 1
        );
    }
}
