//! The benchmark's only file that calls into the cfx crates.
//!
//! The rest of the benchmark sees just the plain types and functions
//! below, so this file is the complete list of public entry points the
//! benchmark depends on. A change that folds or renames the library's
//! API (for example into one `explain(x, &ExplainOpts)`) must keep these
//! calls working, or update them here and nowhere else.
//!
//! Entry points used, by crate:
//! - `cfx-bench`: `Harness::{build, train_x, test_x, run_table4,
//!   train_our_model, evaluate}`, `HarnessConfig`, `FeasColumns`.
//! - `cfx-data`: `DatasetId::{generate, generate_clean}`,
//!   `EncodedDataset::from_raw`, `Encoding::encode_row`.
//! - `cfx-core`: `FeasibleCfConfig::{paper, with_seed,
//!   with_step_budget_of}`, `FeasibleCfModel::{paper_constraints, new,
//!   fit_with, explain_batch, blackbox, vae, mask, constraints, config,
//!   fallback_pool_len}`, `ExplanationBatch::{examples, cf_tensor}`,
//!   `Constraint::check`, `ImmutableMask::apply`, `GenRecoveryConfig`,
//!   `ExplainConfig`.
//! - `cfx-models`: `BlackBox::predict`, `Cvae::{encode, decode}`,
//!   `vae::ENCODER_HIDDEN`.
//! - `cfx-manifold`: `pairwise_sq_dists`.
//! - `cfx-tensor`: `Tensor::{from_rows, from_vec, gather_rows, row_slice,
//!   matmul}`, `profile::{set_enabled, reset, snapshot}`,
//!   `pool::{reset_stats, stats}`, `runtime::{max_threads, parallel_map,
//!   with_threads}`.
//! - `cfx-baselines`: `BaselineContext::new`, each Table IV method's
//!   `fit`, `CfMethod::counterfactuals`.
//! - `cfx-serve`: `spawn`, `ServeConfig::default`, `Servable`,
//!   `ServerHandle::{addr, shutdown, join}`.
//! - `cfx-obs`: `json::parse`, `init_jsonl`, `close_jsonl`.

use cfx_baselines::{
    BaselineContext, Cchvae, CchvaeConfig, Cem, CemConfig, CfMethod, DiceConfig, DiceRandom, Face,
    FaceConfig, Mahajan, Revise, ReviseConfig,
};
use cfx_bench::{FeasColumns, Harness, HarnessConfig};
use cfx_core::{
    ConstraintMode, ExplainConfig, ExplanationBatch, FeasibleCfConfig, FeasibleCfModel,
    GenRecoveryConfig, Provenance,
};
use cfx_data::{DatasetId, EncodedDataset};
use cfx_obs::json::Value;
use cfx_tensor::{profile, runtime, Tensor};
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Instant;

/// One encoded feature row.
pub type Row = Vec<f32>;

/// Every workload runs on Quick Adult, the paper's first dataset.
const DATASET: DatasetId = DatasetId::Adult;

/// Raw instances generated per Quick-size dataset (`RunSize::Quick`).
const QUICK_RAW: usize = 6_000;

/// The data, split, trained black box and constraints of one Quick
/// Adult experiment (`Harness::build`).
pub struct World {
    h: Harness,
}

/// One Table IV line as the checks need it.
pub struct TableLine {
    /// Method name as printed in the paper.
    pub method: String,
    /// Validity %.
    pub validity: f64,
    /// Unary-constraint feasibility %, when the row reports it.
    pub feasibility_unary: Option<f64>,
    /// Whether every reported number is finite.
    pub finite: bool,
}

/// Fit and inference cost of one Table IV method, replayed through its
/// public `fit` and `counterfactuals` (or `explain_batch` for the paper's
/// own models).
pub struct MethodTiming {
    /// Stable metric-name slug.
    pub slug: &'static str,
    /// Fit wall time.
    pub fit_s: f64,
    /// Counterfactual generation time per explained row.
    pub ms_per_cf: f64,
    /// `Harness::evaluate` time for this method's counterfactuals.
    pub evaluate_ms: f64,
}

/// The slugs of the nine Table IV rows, in the paper's order.
pub const TABLE4_METHODS: [&str; 9] = [
    "mahajan-unary",
    "mahajan-binary",
    "revise",
    "cchvae",
    "cem",
    "dice",
    "face",
    "ours-unary",
    "ours-binary",
];

impl World {
    /// Generates, encodes and splits Quick Adult under `seed` and trains
    /// the black box on it.
    pub fn build(seed: u64) -> World {
        let config = HarnessConfig {
            seed,
            ..Default::default()
        };
        World {
            h: Harness::build(DATASET, config),
        }
    }

    /// The held-out rows Table IV explains: test-split rows the black box
    /// puts in the negative class.
    pub fn held_out(&self) -> Vec<Row> {
        rows_of(&self.h.test_x())
    }

    /// Fresh rows drawn from the dataset's causal model under `seed` and
    /// encoded with this world's frozen encoding, the way a deployed
    /// model sees new applicants.
    pub fn fresh_rows(&self, seed: u64, n: usize) -> Vec<Row> {
        let raw = DATASET.generate_clean(n, seed);
        raw.rows
            .iter()
            .map(|row| {
                self.h
                    .data
                    .encoding
                    .encode_row(&raw.schema, row)
                    .expect("clean causal-model rows share the schema")
            })
            .collect()
    }

    /// Fits the paper's unary model exactly as `Harness::train_our_model`
    /// does (paper config, this world's seed, paper step budget, default
    /// watchdog, no checkpoints), calling `on_epoch` after every epoch.
    pub fn fit_paper_unary(&self, on_epoch: &mut dyn FnMut()) -> Model {
        let h = &self.h;
        let config = FeasibleCfConfig::paper(DATASET, ConstraintMode::Unary)
            .with_seed(h.config.seed)
            .with_step_budget_of(DATASET, h.split.train.len());
        let constraints = FeasibleCfModel::paper_constraints(
            DATASET,
            &h.data,
            ConstraintMode::Unary,
            config.c1,
            config.c2,
        )
        .expect("paper constraints resolve on Adult");
        let mut model = FeasibleCfModel::new(&h.data, h.blackbox.clone(), constraints, config);
        model.fit_with(&h.train_x(), |_, _| on_epoch());
        self.wrap(model)
    }

    fn wrap(&self, model: FeasibleCfModel) -> Model {
        Model {
            model,
            data: self.h.data.clone(),
            train_x: self.h.train_x(),
        }
    }

    /// `Harness::run_table4`: all nine rows, two at a time.
    pub fn run_table4(&self) -> Vec<TableLine> {
        self.h
            .run_table4(|_| {})
            .into_iter()
            .map(|r| {
                let opt = |v: Option<f32>| v.is_none_or(f32::is_finite);
                TableLine {
                    finite: r.validity.is_finite()
                        && opt(r.feasibility_unary)
                        && opt(r.feasibility_binary)
                        && r.continuous_proximity.is_finite()
                        && r.categorical_proximity.is_finite()
                        && r.sparsity.is_finite(),
                    method: r.method,
                    validity: r.validity as f64,
                    feasibility_unary: r.feasibility_unary.map(f64::from),
                }
            })
            .collect()
    }

    /// Replays Table IV method by method with the table's own schedule
    /// (nine rows spread over the worker threads, one kernel thread per
    /// row), timing each method's public `fit`, its counterfactual call
    /// and `Harness::evaluate`. Also returns the replayed unary model.
    pub fn replay_table4(&self) -> (Vec<MethodTiming>, Model) {
        let h = &self.h;
        let x = h.test_x();
        let ctx = BaselineContext::new(&h.data, h.train_x(), &h.blackbox, h.config.seed);
        let rows = x.rows().max(1) as f64;
        let replayed = runtime::parallel_map(9, 1, |i| {
            runtime::with_threads(1, || {
                let t = Instant::now();
                let method = fit_table4_method(h, &ctx, i);
                let fit_s = t.elapsed().as_secs_f64();
                let t = Instant::now();
                let (cf, ours) = match method {
                    Fitted::Baseline(m) => (m.counterfactuals(&x), None),
                    Fitted::Ours(m) => (m.explain_batch(&x).cf_tensor(), Some(m)),
                };
                let ms_per_cf = t.elapsed().as_secs_f64() * 1e3 / rows;
                let t = Instant::now();
                std::hint::black_box(h.evaluate("replay", &x, &cf, FeasColumns::Both));
                let timing = MethodTiming {
                    slug: TABLE4_METHODS[i],
                    fit_s,
                    ms_per_cf,
                    evaluate_ms: t.elapsed().as_secs_f64() * 1e3,
                };
                (timing, ours)
            })
        });
        let mut timings = Vec::with_capacity(9);
        let mut unary = None;
        for (i, (timing, ours)) in replayed.into_iter().enumerate() {
            if i == 7 {
                unary = ours;
            }
            timings.push(timing);
        }
        let unary = unary.expect("row 7 is the paper's unary model");
        (timings, self.wrap(*unary))
    }
}

enum Fitted {
    Baseline(Box<dyn CfMethod>),
    Ours(Box<FeasibleCfModel>),
}

/// Fits Table IV row `i` through the method's public constructor, with
/// the configuration `Harness::run_table4` uses.
fn fit_table4_method(h: &Harness, ctx: &BaselineContext<'_>, i: usize) -> Fitted {
    match i {
        0 => Fitted::Baseline(Box::new(Mahajan::fit(ctx, DATASET, ConstraintMode::Unary))),
        1 => Fitted::Baseline(Box::new(Mahajan::fit(ctx, DATASET, ConstraintMode::Binary))),
        2 => Fitted::Baseline(Box::new(Revise::fit(ctx, ReviseConfig::default()))),
        3 => Fitted::Baseline(Box::new(Cchvae::fit(ctx, CchvaeConfig::default()))),
        4 => Fitted::Baseline(Box::new(Cem::fit(ctx, CemConfig::default()))),
        5 => Fitted::Baseline(Box::new(DiceRandom::fit(ctx, DiceConfig::default()))),
        6 => Fitted::Baseline(Box::new(Face::fit(ctx, FaceConfig::default()))),
        7 => Fitted::Ours(Box::new(h.train_our_model(ConstraintMode::Unary))),
        8 => Fitted::Ours(Box::new(h.train_our_model(ConstraintMode::Binary))),
        _ => unreachable!("Table IV has nine rows"),
    }
}

/// Times raw generation and encoding of one Quick Adult dataset.
pub fn data_timings(seed: u64) -> (f64, f64) {
    let t = Instant::now();
    let raw = DATASET.generate(QUICK_RAW, seed);
    let generate_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    std::hint::black_box(EncodedDataset::from_raw(&raw));
    (generate_ms, t.elapsed().as_secs_f64() * 1e3)
}

/// One returned counterfactual with the flags the program attached.
#[derive(Clone, Debug, PartialEq)]
pub struct Cf {
    /// Counterfactual row.
    pub cf: Row,
    /// The program's validity flag.
    pub valid: bool,
    /// The program's feasibility flag.
    pub feasible: bool,
}

/// A batch of rows staged as the library's input type, so timing covers
/// only the explain call.
pub struct Batch(Tensor);

/// The result of one `explain_batch` call.
pub struct Explained(ExplanationBatch);

impl Explained {
    /// The counterfactuals, in input order.
    pub fn cfs(&self) -> Vec<Cf> {
        self.0
            .examples
            .iter()
            .map(|e| Cf {
                cf: e.cf.clone(),
                valid: e.valid,
                feasible: e.feasible,
            })
            .collect()
    }
}

/// A fitted paper model (`FeasibleCfModel`) with the dataset it serves.
pub struct Model {
    model: FeasibleCfModel,
    data: EncodedDataset,
    train_x: Tensor,
}

/// Per-call layer times of the explain ladder, replayed through public
/// calls at the shapes one `explain_batch` call used.
#[derive(Clone, Debug, Default)]
pub struct ExplainParts {
    /// `explain_batch` calls replayed.
    pub calls: usize,
    /// Rows over those calls.
    pub rows: usize,
    /// Rows that took the fallback rung.
    pub fallback_rows: usize,
    /// Σ over calls of the median `explain_batch` time, µs.
    pub batch_us: f64,
    /// Σ of the black-box forward passes, µs.
    pub predict_us: f64,
    /// Σ of the cVAE encoder passes, µs.
    pub encode_us: f64,
    /// Σ of the cVAE decoder passes, µs.
    pub decode_us: f64,
    /// Σ of the immutable-column mask applications, µs.
    pub mask_us: f64,
    /// Σ of the per-row constraint checks, µs.
    pub check_us: f64,
    /// Σ of the fallback all-pairs distance matrices, µs.
    pub pairwise_us: f64,
    /// Query-to-pool distances the fallback needs.
    pub useful_distances: f64,
    /// Distances the fallback computes.
    pub computed_distances: f64,
}

impl ExplainParts {
    /// Σ of the replayed layer times, µs.
    pub fn parts_us(&self) -> f64 {
        self.predict_us
            + self.encode_us
            + self.decode_us
            + self.mask_us
            + self.check_us
            + self.pairwise_us
    }
}

impl Model {
    /// Encoded row width.
    pub fn width(&self) -> usize {
        self.data.width()
    }

    /// Stages `rows` as one batch.
    pub fn batch(&self, rows: &[Row]) -> Batch {
        Batch(Tensor::from_rows(rows))
    }

    /// `FeasibleCfModel::explain_batch`: the full ladder, default budgets.
    pub fn explain(&self, batch: &Batch) -> Explained {
        Explained(self.model.explain_batch(&batch.0))
    }

    /// Re-judges counterfactuals independently of the flags the program
    /// returned: validity from `BlackBox::predict` (the counterfactual
    /// must reach the opposite of the input's class), feasibility from
    /// every active `Constraint::check`.
    pub fn judge(&self, inputs: &[Row], cfs: &[Row]) -> Vec<(bool, bool)> {
        if inputs.is_empty() {
            return Vec::new();
        }
        let bb = self.model.blackbox();
        let input_classes = bb.predict(&Tensor::from_rows(inputs));
        let cf_classes = bb.predict(&Tensor::from_rows(cfs));
        inputs
            .iter()
            .zip(cfs)
            .enumerate()
            .map(|(i, (x, cf))| {
                let feasible = self.model.constraints().iter().all(|c| c.check(x, cf));
                (cf_classes[i] == 1 - input_classes[i], feasible)
            })
            .collect()
    }

    /// Starts `cfx-serve` on a free loopback port with
    /// `ServeConfig::default()`, hosting this model.
    pub fn serve(&self) -> Server {
        let servable = cfx_serve::Servable {
            model: self.model.clone(),
            data: self.data.clone(),
            explain: ExplainConfig::default(),
            recovery: GenRecoveryConfig::default(),
            version: 0,
            source: "benchmark".into(),
        };
        let config = cfx_serve::ServeConfig::default();
        let settings = format!(
            "workers={} linger_ms={} cache_cap={} queue_cap={}",
            config.workers, config.linger_ms, config.cache_cap, config.queue_cap
        );
        let handle = cfx_serve::spawn(config, servable, Arc::new(AtomicBool::new(false)))
            .expect("spawn cfx-serve on a loopback port");
        Server { handle, settings }
    }

    /// Times `explain_batch` on each of `calls` (each a batch of rows)
    /// and replays the layer calls it makes at the same shapes: the
    /// first shot over every row, each resample attempt over the rows
    /// still pending, and the fallback over the rows that reach it.
    /// Every time is the median of `reps` repetitions; the result sums
    /// over calls.
    pub fn replay_explain(&self, calls: &[Vec<Row>], reps: usize) -> ExplainParts {
        let mut total = ExplainParts::default();
        for rows in calls {
            let p = self.replay_one(&Tensor::from_rows(rows), reps);
            total.calls += 1;
            total.rows += p.rows;
            total.fallback_rows += p.fallback_rows;
            total.batch_us += p.batch_us;
            total.predict_us += p.predict_us;
            total.encode_us += p.encode_us;
            total.decode_us += p.decode_us;
            total.mask_us += p.mask_us;
            total.check_us += p.check_us;
            total.pairwise_us += p.pairwise_us;
            total.useful_distances += p.useful_distances;
            total.computed_distances += p.computed_distances;
        }
        total
    }

    fn replay_one(&self, x: &Tensor, reps: usize) -> ExplainParts {
        let m = &self.model;
        let n = x.rows();
        let examples = m.explain_batch(x).examples;
        // Rows pending at resample attempt a (1-based): those the attempt
        // recovered at or after a, plus those no attempt recovered.
        let attempts = GenRecoveryConfig::default().resample_attempts;
        let never_recovered = examples
            .iter()
            .filter(|e| match e.provenance {
                Provenance::Fallback => true,
                Provenance::FirstShot => {
                    !(e.valid && e.feasible && e.cf.iter().all(|v| v.is_finite()))
                }
                Provenance::Resampled(_) => false,
            })
            .count();
        let pending: Vec<usize> = (1..=attempts as u32)
            .map(|a| {
                never_recovered
                    + examples
                        .iter()
                        .filter(|e| matches!(e.provenance, Provenance::Resampled(k) if k >= a))
                        .count()
            })
            .take_while(|&p| p > 0)
            .collect();
        let fallback = examples
            .iter()
            .filter(|e| e.provenance == Provenance::Fallback)
            .count();

        // Stand-in inputs of each shape; layer cost depends on shape only.
        let take = |k: usize| x.gather_rows(&(0..k).collect::<Vec<_>>());
        let cond_of = |t: &Tensor| {
            let p = m.blackbox().predict(t);
            Tensor::from_vec(t.rows(), 1, p.iter().map(|&c| 1.0 - c as f32).collect())
        };
        let mut shapes: Vec<(Tensor, Tensor, Tensor)> = Vec::new();
        for k in std::iter::once(n).chain(pending.iter().copied()) {
            let xs = take(k);
            let cond = cond_of(&xs);
            let (mu, _) = m.vae().encode(&xs, &cond);
            shapes.push((xs, cond, mu));
        }
        let x_fallback = take(fallback);
        let rows_checked = n + pending.iter().sum::<usize>() + fallback;
        let check_rows: Vec<Row> = (0..rows_checked)
            .map(|i| x.row_slice(i % n).to_vec())
            .collect();
        let pool = m.fallback_pool_len();
        let points: Vec<Row> = (0..fallback)
            .map(|i| x.row_slice(i).to_vec())
            .chain((0..pool).map(|j| self.train_x.row_slice(j % self.train_x.rows()).to_vec()))
            .collect();

        let bb = m.blackbox();
        let mut parts: [Box<dyn FnMut() + '_>; 7] = [
            Box::new(|| {
                std::hint::black_box(m.explain_batch(x));
            }),
            Box::new(|| {
                // First shot: desired class, input class, counterfactual class.
                for _ in 0..3 {
                    std::hint::black_box(bb.predict(&shapes[0].0));
                }
                // Each resample attempt: desired class and candidate class.
                for (xs, _, _) in &shapes[1..] {
                    std::hint::black_box(bb.predict(xs));
                    std::hint::black_box(bb.predict(xs));
                }
                if fallback > 0 {
                    std::hint::black_box(bb.predict(&x_fallback));
                }
            }),
            Box::new(|| {
                for (xs, cond, _) in &shapes {
                    std::hint::black_box(m.vae().encode(xs, cond));
                }
            }),
            Box::new(|| {
                for (_, cond, mu) in &shapes {
                    std::hint::black_box(m.vae().decode(mu, cond));
                }
            }),
            Box::new(|| {
                for (xs, _, _) in &shapes {
                    std::hint::black_box(m.mask().apply(xs, xs));
                }
                if fallback > 0 {
                    std::hint::black_box(m.mask().apply(&x_fallback, &x_fallback));
                }
            }),
            Box::new(|| {
                for r in &check_rows {
                    std::hint::black_box(m.constraints().iter().all(|c| c.check(r, r)));
                }
            }),
            Box::new(|| {
                if fallback > 0 {
                    std::hint::black_box(cfx_manifold::pairwise_sq_dists(&points));
                }
            }),
        ];
        // Each repetition times the whole call and then every part back to
        // back, so slow spells of a shared host hit both sides alike.
        let mut samples = vec![Vec::with_capacity(reps); parts.len()];
        for _ in 0..reps.max(1) {
            for (part, out) in parts.iter_mut().zip(&mut samples) {
                let t = Instant::now();
                part();
                out.push(t.elapsed().as_secs_f64() * 1e6);
            }
        }
        let [batch_us, predict_us, encode_us, decode_us, mask_us, check_us, pairwise_us] =
            std::array::from_fn(|i| {
                let v = &mut samples[i];
                v.sort_by(f64::total_cmp);
                v[v.len() / 2]
            });
        let (useful, computed) = if fallback > 0 {
            (
                (fallback * pool) as f64,
                ((fallback + pool) * (fallback + pool)) as f64,
            )
        } else {
            (0.0, 0.0)
        };
        ExplainParts {
            calls: 1,
            rows: n,
            fallback_rows: fallback,
            batch_us,
            predict_us,
            encode_us,
            decode_us,
            mask_us,
            check_us,
            pairwise_us,
            useful_distances: useful,
            computed_distances: computed,
        }
    }

    /// The fit's largest matmul, `[m, k] × [k, n]` as `(m, k, n)`: a
    /// training batch through the encoder's first layer.
    pub fn fit_shape(&self) -> (usize, usize, usize) {
        let c = self.model.config();
        (
            c.batch_size,
            self.width() + 1,
            cfx_models::vae::ENCODER_HIDDEN[0],
        )
    }

    /// Optimizer steps per epoch of the paper fit.
    pub fn steps_per_epoch(&self) -> usize {
        self.train_x
            .rows()
            .div_ceil(self.model.config().batch_size)
            .max(1)
    }
}

/// A running `cfx-serve` instance.
pub struct Server {
    handle: cfx_serve::ServerHandle,
    /// The effective serving settings, for the result stamp.
    pub settings: String,
}

/// Terminal tallies of a drained server.
pub struct Drain {
    /// Requests answered 200.
    pub served: u64,
    /// Requests shed with 429.
    pub shed: u64,
    /// Requests that missed their deadline.
    pub timeouts: u64,
    /// Requests answered with another error.
    pub malformed: u64,
}

impl Server {
    /// The bound loopback address.
    pub fn addr(&self) -> SocketAddr {
        self.handle.addr()
    }

    /// Graceful drain; waits for every server thread to finish.
    pub fn stop(self) -> Drain {
        self.handle.shutdown();
        let r = self.handle.join();
        Drain {
            served: r.served,
            shed: r.shed,
            timeouts: r.timeouts,
            malformed: r.malformed,
        }
    }
}

/// Parses a `/explain` 200 body into its results.
pub fn parse_explain_body(body: &[u8]) -> Result<Vec<Cf>, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8")?;
    let value = cfx_obs::json::parse(text)?;
    let Some(Value::Arr(results)) = value.get("results") else {
        return Err("missing \"results\" array".into());
    };
    results
        .iter()
        .map(|r| {
            let Some(Value::Arr(cells)) = r.get("cf") else {
                return Err("result without a \"cf\" array".to_string());
            };
            let cf = cells
                .iter()
                .map(|c| match c {
                    // The writer renders non-finite floats as null.
                    Value::Null => Ok(f32::NAN),
                    _ => c.as_f64().map(|v| v as f32).ok_or("non-numeric cf cell"),
                })
                .collect::<Result<Row, _>>()?;
            let flag = |k: &str| match r.get(k) {
                Some(Value::Bool(b)) => Ok(*b),
                _ => Err(format!("result without a boolean {k:?}")),
            };
            Ok(Cf {
                cf,
                valid: flag("valid")?,
                feasible: flag("feasible")?,
            })
        })
        .collect()
}

/// One served request's stage record from the JSONL trace sink.
#[derive(Clone, Debug, Default)]
pub struct StageRecord {
    /// Trace id, as echoed in `X-Cfx-Trace`.
    pub trace: String,
    /// Terminal outcome tag.
    pub outcome: String,
    /// Whole-request server time and its stages, ns.
    pub total_ns: u64,
    /// JSON body parse.
    pub parse_ns: u64,
    /// Response-cache lookup.
    pub cache_lookup_ns: u64,
    /// Queued before a worker picked the job up.
    pub queue_wait_ns: u64,
    /// Worker pickup to explain start.
    pub linger_ns: u64,
    /// Inside the explain ladder.
    pub explain_ns: u64,
    /// Rendering the JSON body.
    pub serialize_ns: u64,
    /// Rendering the HTTP response.
    pub respond_ns: u64,
}

/// Arms the JSONL trace sink at `path` (the serve stage records).
pub fn trace_arm(path: &Path) -> std::io::Result<()> {
    cfx_obs::init_jsonl(path)
}

/// Flushes and closes the JSONL trace sink.
pub fn trace_disarm() {
    cfx_obs::close_jsonl();
}

/// Reads the terminal `request` records of served `/explain` calls.
pub fn read_stage_records(path: &Path) -> Result<Vec<StageRecord>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut out = Vec::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let v = cfx_obs::json::parse(line)?;
        if v.get("kind").and_then(Value::as_str) != Some("request")
            || v.get("name").and_then(Value::as_str) != Some("explain")
        {
            continue;
        }
        let f = v.get("fields").ok_or("request record without fields")?;
        let ns = |k: &str| f.get(k).and_then(Value::as_u64).unwrap_or(0);
        out.push(StageRecord {
            trace: v
                .get("trace")
                .and_then(Value::as_str)
                .unwrap_or("")
                .to_string(),
            outcome: f
                .get("outcome")
                .and_then(Value::as_str)
                .unwrap_or("")
                .to_string(),
            total_ns: ns("total_ns"),
            parse_ns: ns("parse_ns"),
            cache_lookup_ns: ns("cache_lookup_ns"),
            queue_wait_ns: ns("queue_wait_ns"),
            linger_ns: ns("linger_ns"),
            explain_ns: ns("explain_ns"),
            serialize_ns: ns("serialize_ns"),
            respond_ns: ns("respond_ns"),
        });
    }
    Ok(out)
}

/// Arms the tape op profiler from a clean table.
pub fn profile_arm() {
    profile::reset();
    profile::set_enabled(true);
}

/// Disarms the op profiler and returns (op kind, total self ns).
pub fn profile_take() -> Vec<(&'static str, u64)> {
    let snap = profile::snapshot();
    profile::set_enabled(false);
    snap.iter().map(|p| (p.kind.name(), p.total_ns())).collect()
}

/// Resets the calling thread's buffer-pool hit/miss counters.
pub fn pool_reset() {
    cfx_tensor::pool::reset_stats();
}

/// The calling thread's buffer-pool (hits, misses, peak cached bytes).
pub fn pool_stats() -> (u64, u64, u64) {
    let s = cfx_tensor::pool::stats();
    (s.hits, s.misses, s.peak_bytes)
}

/// Kernel threads the library will use (`CFX_THREADS` or the machine).
pub fn kernel_threads() -> usize {
    runtime::max_threads()
}

/// GFLOP/s of `Tensor::matmul` at `[m, k] × [k, n]`, median of `reps`.
pub fn matmul_gflops(m: usize, k: usize, n: usize, reps: usize) -> f64 {
    let fill = |len: usize, s: f32| (0..len).map(|i| ((i as f32) * s).sin()).collect();
    let a = Tensor::from_vec(m, k, fill(m * k, 0.37));
    let b = Tensor::from_vec(k, n, fill(k * n, 0.11));
    let mut ns: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(a.matmul(&b));
            t.elapsed().as_nanos() as f64
        })
        .collect();
    ns.sort_by(f64::total_cmp);
    2.0 * (m * k * n) as f64 / ns[ns.len() / 2]
}

fn rows_of(t: &Tensor) -> Vec<Row> {
    (0..t.rows()).map(|r| t.row_slice(r).to_vec()).collect()
}
