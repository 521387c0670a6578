//! Deterministic job→worker sharding.
//!
//! The worker pool routes every `/explain` job by a content hash of its
//! encoded rows: `shard = fnv1a64(row_bits) % workers`. Three properties
//! hang off that one line, and each is load-bearing:
//!
//! * **Stickiness.** A given encoded row is always explained by the
//!   same worker (for a fixed pool size), so per-worker state — the
//!   thread-local tensor pool warmed by PR 3, branch predictors, the
//!   model snapshot in cache — stays hot for repeated rows.
//! * **Worker-count invariance of bytes.** Routing carries no state
//!   into the answer: the explain ladder derives each row's
//!   recovery-resampling noise from the row's own bits, never from the
//!   worker index or batch-mates. Changing `CFX_SERVE_WORKERS`
//!   re-routes jobs but cannot change any response byte — the
//!   "parallel == serial bitwise" invariant extended to serving.
//! * **Platform stability.** The hash runs over the rows' f32 **bit
//!   patterns** in little-endian byte order — no float arithmetic, no
//!   pointer-width dependence — so a request shards identically on
//!   every architecture. `crates/serve/tests/shard_prop.rs` pins known
//!   vectors.
//!
//! FNV-1a is used (same function the proptest shim uses for test
//! seeds): 8 bytes of state, one multiply per byte, excellent avalanche
//! for short keys like encoded rows.

/// FNV-1a 64-bit offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
pub const FNV_PRIME: u64 = 0x100_0000_01b3;

/// FNV-1a over raw bytes. `fnv1a64(b"") == FNV_OFFSET`.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = FNV_OFFSET;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// Content fingerprint of a request's encoded rows: FNV-1a over each
/// value's f32 bit pattern (little-endian), with a length-prefix per
/// row so `[[a, b]]` and `[[a], [b]]` cannot collide structurally.
///
/// The fingerprint is both the shard selector of the job (see
/// [`crate::batcher`]) and one ingredient of the response cache key
/// (see [`crate::cache`]). `-0.0` and `0.0` hash differently
/// on purpose: they are different encoded rows and may decode
/// differently downstream.
pub fn row_fingerprint(rows: &[Vec<f32>]) -> u64 {
    let mut hash = FNV_OFFSET;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            hash ^= b as u64;
            hash = hash.wrapping_mul(FNV_PRIME);
        }
    };
    for row in rows {
        eat(&(row.len() as u64).to_le_bytes());
        for v in row {
            eat(&v.to_bits().to_le_bytes());
        }
    }
    hash
}

/// Maps a fingerprint onto one of `workers` shards. `workers == 0` is
/// treated as 1 so a misconfigured pool degrades to serial, never
/// panics.
pub fn shard(fingerprint: u64, workers: usize) -> usize {
    (fingerprint % workers.max(1) as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a64_known_vectors() {
        // Standard FNV-1a test vectors (draft-eastlake-fnv).
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn fingerprint_separates_structure_and_sign() {
        let a = row_fingerprint(&[vec![1.0, 2.0]]);
        let b = row_fingerprint(&[vec![1.0], vec![2.0]]);
        assert_ne!(a, b, "row structure must be part of the fingerprint");
        assert_ne!(
            row_fingerprint(&[vec![0.0]]),
            row_fingerprint(&[vec![-0.0]]),
            "distinct bit patterns must fingerprint differently"
        );
        assert_eq!(a, row_fingerprint(&[vec![1.0, 2.0]]));
    }

    #[test]
    fn shard_is_total_and_in_range() {
        for fp in [0u64, 1, u64::MAX, 0xdead_beef] {
            assert_eq!(shard(fp, 0), 0);
            assert_eq!(shard(fp, 1), 0);
            for n in 1..=8 {
                assert!(shard(fp, n) < n);
            }
        }
    }
}
