//! Fusion property of the explain ladder: explaining a concatenation of
//! row sets returns, for every row, exactly the bytes that row gets when
//! its own set is explained alone — `cf` bitwise, every flag, and the
//! provenance — at 1, 2 and 4 kernel threads.
//!
//! This is what lets the serving daemon fuse a flush of requests into
//! one `explain_batch_deadline` call. It holds because every rung is
//! row-wise: the first shot and the fallback run kernels that are
//! bitwise equal at every batch shape, and rung-2 resampling draws each
//! row's latent noise from a generator seeded by the row's own bits.
//!
//! The fixture is an under-trained model (one epoch) with a large
//! resampling noise scale, so a sizeable share of rows leaves the first
//! shot: some are
//! recovered by resampling and some fall through to the nearest-neighbor
//! fallback. Every case is built to contain both kinds and asserts that
//! they occur, so the property cannot pass vacuously on first shots.

use cfx::core::{
    ConstraintMode, Counterfactual, FeasibleCfConfig, FeasibleCfModel,
    GenRecoveryConfig, Provenance,
};
use cfx::data::{DatasetId, EncodedDataset, Split};
use cfx::models::{BlackBox, BlackBoxConfig};
use cfx::tensor::runtime::with_threads;
use cfx::tensor::Tensor;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::OnceLock;

/// Candidate rows drawn from the head of the dataset.
const POOL: usize = 120;

struct Fixture {
    model: FeasibleCfModel,
    recovery: GenRecoveryConfig,
    /// Candidate rows, each tagged by the rung it reaches alone.
    rows: Vec<Vec<f32>>,
    resampled: Vec<usize>,
    fallback: Vec<usize>,
}

fn fixture() -> &'static Fixture {
    static CACHE: OnceLock<Fixture> = OnceLock::new();
    CACHE.get_or_init(|| {
        let raw = DatasetId::Adult.generate_clean(2_000, 11);
        let data = EncodedDataset::from_raw(&raw);
        let split = Split::paper(data.len(), 11);
        let (x_train, y_train) = data.subset(&split.train);
        let bb_cfg = BlackBoxConfig {
            epochs: 8,
            ..Default::default()
        };
        let mut blackbox = BlackBox::new(data.width(), &bb_cfg);
        blackbox.train(&x_train, &y_train, &bb_cfg);
        let config =
            FeasibleCfConfig::paper(DatasetId::Adult, ConstraintMode::Unary)
                .with_epochs(1)
                .with_batch_size(256);
        let constraints = FeasibleCfModel::paper_constraints(
            DatasetId::Adult,
            &data,
            ConstraintMode::Unary,
            config.c1,
            config.c2,
        )
        .unwrap();
        let mut model =
            FeasibleCfModel::new(&data, blackbox, constraints, config);
        model.fit(&x_train);
        // One epoch leaves ~1 row in 5 off the first shot; the wide noise
        // lets resampling recover some of them before the fallback.
        let recovery = GenRecoveryConfig {
            noise_scale: 2.0,
            ..Default::default()
        };
        let rows: Vec<Vec<f32>> =
            (0..POOL).map(|r| data.x.row_slice(r).to_vec()).collect();
        let mut resampled = Vec::new();
        let mut fallback = Vec::new();
        for (i, row) in rows.iter().enumerate() {
            let alone = model.explain_batch_with(
                &Tensor::from_rows(std::slice::from_ref(row)),
                &recovery,
            );
            match alone.examples[0].provenance {
                Provenance::Resampled(_) => resampled.push(i),
                Provenance::Fallback => fallback.push(i),
                Provenance::FirstShot => {}
            }
        }
        Fixture {
            model,
            recovery,
            rows,
            resampled,
            fallback,
        }
    })
}

/// Everything a caller can observe about one counterfactual, with the
/// floats as bit patterns so the comparison is bitwise.
type Key = (Vec<u32>, Vec<u32>, u8, u8, u8, bool, bool, Provenance);

fn key(e: &Counterfactual) -> Key {
    (
        e.input.iter().map(|v| v.to_bits()).collect(),
        e.cf.iter().map(|v| v.to_bits()).collect(),
        e.input_class,
        e.desired_class,
        e.cf_class,
        e.valid,
        e.feasible,
        e.provenance,
    )
}

fn explain(f: &Fixture, rows: &[Vec<f32>]) -> Vec<Key> {
    f.model
        .explain_batch_with(&Tensor::from_rows(rows), &f.recovery)
        .examples
        .iter()
        .map(key)
        .collect()
}

#[test]
fn fixture_reaches_every_rung() {
    let f = fixture();
    assert!(!f.resampled.is_empty(), "no row reaches the resample rung");
    assert!(!f.fallback.is_empty(), "no row reaches the fallback rung");
    assert!(
        f.resampled.len() + f.fallback.len() < f.rows.len(),
        "no row is answered at first shot"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A random row set — always holding a resampled and a fallback row
    /// — cut at random points: the fused answer equals the parts
    /// explained alone, at every thread count.
    #[test]
    fn fused_explain_equals_parts_explained_alone(
        picks in proptest::collection::vec(0..POOL, 2..24),
        case_seed in any::<u64>(),
    ) {
        let f = fixture();
        let mut rng = StdRng::seed_from_u64(case_seed);
        let mut set: Vec<Vec<f32>> =
            picks.iter().map(|&i| f.rows[i].clone()).collect();
        // Guarantee both recovery rungs, at random positions.
        for tagged in [&f.resampled, &f.fallback] {
            let row = f.rows[tagged[rng.gen_range(0..tagged.len())]].clone();
            let at = rng.gen_range(0..=set.len());
            set.insert(at, row);
        }
        let n_cuts = rng.gen_range(1..4usize);
        let mut cuts: Vec<usize> =
            (0..n_cuts).map(|_| rng.gen_range(1..set.len())).collect();
        cuts.push(0);
        cuts.push(set.len());
        cuts.sort_unstable();
        cuts.dedup();

        let reference: Vec<Key> = with_threads(1, || {
            cuts.windows(2)
                .flat_map(|w| explain(f, &set[w[0]..w[1]]))
                .collect()
        });
        prop_assert!(reference
            .iter()
            .any(|k| matches!(k.7, Provenance::Resampled(_))));
        prop_assert!(reference.iter().any(|k| k.7 == Provenance::Fallback));
        for threads in [1, 2, 4] {
            let fused = with_threads(threads, || explain(f, &set));
            prop_assert!(
                fused == reference,
                "fused explain differs from its parts at {threads} threads"
            );
            let parts: Vec<Key> = with_threads(threads, || {
                cuts.windows(2)
                    .flat_map(|w| explain(f, &set[w[0]..w[1]]))
                    .collect()
            });
            prop_assert!(
                parts == reference,
                "parts differ across thread counts at {threads} threads"
            );
        }
    }
}
