//! Property tests pinning the job→worker shard function across
//! platforms. The routing rule `shard = fnv1a(row_bits) % workers` is
//! part of the serving contract — the response-cache key and worker
//! stickiness both hang off it — so the hash must
//! produce the *same* u64 on every architecture and release. These
//! tests pin known FNV-1a vectors, pin concrete `row_fingerprint`
//! values (computed from the spec: per-row u64 little-endian length
//! prefix, then each f32's `to_bits()` little-endian), and check the
//! algebraic properties (totality, range, modular consistency) over
//! random fingerprints.

use cfx_serve::{fnv1a64, row_fingerprint, shard};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Independent re-implementation of the fingerprint spec, byte by
/// byte. Any platform- or refactor-introduced divergence in the real
/// implementation (endianness, pointer-width, iteration order) breaks
/// the equality below.
fn reference_fingerprint(rows: &[Vec<f32>]) -> u64 {
    let mut bytes = Vec::new();
    for row in rows {
        bytes.extend_from_slice(&(row.len() as u64).to_le_bytes());
        for v in row {
            bytes.extend_from_slice(&v.to_bits().to_le_bytes());
        }
    }
    fnv1a64(&bytes)
}

#[test]
fn pinned_vectors_never_move() {
    // Standard FNV-1a vectors (draft-eastlake-fnv) …
    assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
    assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    // … and concrete row fingerprints. If any of these change, every
    // deployed response cache silently empties and rows re-shard:
    // treat a failure here as a wire-format break, not a test to edit.
    assert_eq!(row_fingerprint(&[vec![1.0, 2.0]]), 0x1adc_af45_48ac_e5b6);
    assert_eq!(
        row_fingerprint(&[vec![0.5, -3.25, 1e6], vec![0.0]]),
        0x9f66_5aea_e0d0_e3d5
    );
    assert_eq!(row_fingerprint(&[vec![]]), 0xa8c7_f832_281a_39c5);
    // The routing that follows from the pinned hashes is pinned too.
    assert_eq!(shard(0x1adc_af45_48ac_e5b6, 4), 2);
    assert_eq!(shard(0x9f66_5aea_e0d0_e3d5, 4), 1);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The implementation matches the byte-level spec on arbitrary row
    /// sets (shapes, signs, zeros, NaN bit patterns included).
    #[test]
    fn fingerprint_matches_reference(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n_rows = rng.gen_range(0usize..5);
        let rows: Vec<Vec<f32>> = (0..n_rows)
            .map(|_| {
                let w = rng.gen_range(0usize..12);
                (0..w)
                    .map(|_| f32::from_bits(rng.gen::<u32>()))
                    .collect()
            })
            .collect();
        prop_assert_eq!(row_fingerprint(&rows), reference_fingerprint(&rows));
    }

    /// Sharding is total (any worker count, zero included), in range,
    /// and exactly `fp % workers` — the property the byte-identity
    /// argument and the e2e tests rely on.
    #[test]
    fn shard_is_total_in_range_and_modular(fp in any::<u64>()) {
        prop_assert_eq!(shard(fp, 0), 0);
        for workers in 1usize..=16 {
            let s = shard(fp, workers);
            prop_assert!(s < workers);
            prop_assert_eq!(s as u64, fp % workers as u64);
        }
    }

    /// Appending one more row always changes the fingerprint relative
    /// to the prefix (the length prefix makes extension visible), and
    /// permuting two distinct rows changes it — order is load-bearing.
    #[test]
    fn fingerprint_sees_extension_and_order(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a: Vec<f32> =
            (0..4).map(|_| rng.gen_range(-10.0f32..10.0)).collect();
        let mut b = a.clone();
        b[0] += 1.0;
        let ab = row_fingerprint(&[a.clone(), b.clone()]);
        let ba = row_fingerprint(&[b.clone(), a.clone()]);
        prop_assert!(ab != ba, "row order must be part of the fingerprint");
        prop_assert!(
            row_fingerprint(&[a.clone()]) != ab,
            "extension must be visible"
        );
    }
}
