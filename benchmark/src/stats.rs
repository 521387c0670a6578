//! Pure helpers with no I/O: the percentile rule, failure accounting and
//! the request-row digest.

/// Latency a failed attempt enters the percentiles with, ms: the
/// server's default request deadline. A failure therefore misses every
/// latency limit below the point where the server itself gives up.
pub const FAILED_LATENCY_MS: f64 = 2_000.0;

/// Attempts, failures and the latency samples of one timed phase.
#[derive(Clone, Debug, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Attempts that failed: a non-200 answer, a transport error or a
    /// non-finite counterfactual.
    pub failed: u64,
    samples_ms: Vec<f64>,
}

impl Tally {
    /// Records a successful attempt that took `ms`.
    pub fn ok(&mut self, ms: f64) {
        self.attempted += 1;
        self.samples_ms.push(ms);
    }

    /// Records a failed attempt; it enters the latency samples at
    /// [`FAILED_LATENCY_MS`].
    pub fn fail(&mut self) {
        self.attempted += 1;
        self.failed += 1;
        self.samples_ms.push(FAILED_LATENCY_MS);
    }

    /// Folds another tally into this one.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.samples_ms.extend(other.samples_ms);
    }

    /// Share of attempts that succeeded, %.
    pub fn ok_pct(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        100.0 * (self.attempted - self.failed) as f64 / self.attempted as f64
    }

    /// Median and tail latency by [`tail`].
    pub fn latency(&self) -> Latency {
        let mut sorted = self.samples_ms.clone();
        sorted.sort_by(f64::total_cmp);
        let (tail_pct, tail_ms) = tail(&sorted);
        Latency {
            samples: sorted.len(),
            p50_ms: percentile(&sorted, 50.0),
            tail_pct,
            tail_ms,
        }
    }
}

/// A latency summary with its sample count.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Latency {
    /// Samples summarized.
    pub samples: usize,
    /// Median.
    pub p50_ms: f64,
    /// The percentile [`tail`] chose.
    pub tail_pct: f64,
    /// Its value.
    pub tail_ms: f64,
}

/// Nearest-rank percentile of an ascending slice (0 when empty).
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Percentiles the tail rule may report, highest first.
const TAIL_LADDER: [f64; 5] = [99.0, 95.0, 90.0, 75.0, 50.0];

/// The tail rule: the highest percentile of [`TAIL_LADDER`] with at
/// least ten samples beyond its nearest rank, and its value. With fewer
/// than twenty samples no percentile qualifies and the median is
/// reported.
pub fn tail(sorted: &[f64]) -> (f64, f64) {
    let n = sorted.len();
    let pct = TAIL_LADDER
        .iter()
        .copied()
        .find(|&p| {
            let rank = ((p / 100.0) * n as f64).ceil() as usize;
            n >= rank + 10
        })
        .unwrap_or(50.0);
    (pct, percentile(sorted, pct))
}

/// Median of unsorted values (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50.0)
}

/// Mean (0 when empty).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// FNV-1a over the bit patterns of every value of every row: a digest of
/// exactly the inputs a workload sends.
pub fn rows_digest<'a>(rows: impl IntoIterator<Item = &'a Vec<f32>>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for row in rows {
        for v in row {
            for b in v.to_bits().to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        }
        h ^= 0xff;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ascending(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn tail_is_p99_once_ten_samples_lie_beyond_it() {
        assert_eq!(tail(&ascending(1000)), (99.0, 990.0));
        assert_eq!(tail(&ascending(5000)), (99.0, 4950.0));
    }

    #[test]
    fn tail_steps_down_when_p99_has_too_few_samples_beyond() {
        // 999 samples: rank(p99) = 990 leaves 9 beyond, rank(p95) = 950
        // leaves 49.
        assert_eq!(tail(&ascending(999)), (95.0, 950.0));
        assert_eq!(tail(&ascending(100)), (90.0, 90.0));
        assert_eq!(tail(&ascending(40)), (75.0, 30.0));
        assert_eq!(tail(&ascending(20)), (50.0, 10.0));
        // Too few for any rule percentile: the median.
        assert_eq!(tail(&ascending(7)), (50.0, 4.0));
    }

    #[test]
    fn latency_reports_the_sample_count() {
        let mut t = Tally::default();
        for i in 1..=1000 {
            t.ok(i as f64);
        }
        let l = t.latency();
        assert_eq!(l.samples, 1000);
        assert_eq!(l.p50_ms, 500.0);
        assert_eq!((l.tail_pct, l.tail_ms), (99.0, 990.0));
    }

    #[test]
    fn failures_count_against_attempts_and_miss_every_limit() {
        // 2000 fast successes and 30 failures (429s, 5xx, transport
        // errors all record through `fail`).
        let mut t = Tally::default();
        for _ in 0..2000 {
            t.ok(1.0);
        }
        for _ in 0..30 {
            t.fail();
        }
        assert_eq!((t.attempted, t.failed), (2030, 30));
        assert!((t.ok_pct() - 100.0 * 2000.0 / 2030.0).abs() < 1e-9);
        let l = t.latency();
        assert_eq!(l.samples, 2030);
        // 30 failures exceed the 1% tail, so p99 reads the penalty.
        assert_eq!(l.tail_ms, FAILED_LATENCY_MS);
        assert_eq!(l.p50_ms, 1.0);
    }

    #[test]
    fn merged_tallies_keep_every_attempt() {
        let mut a = Tally::default();
        a.ok(1.0);
        a.fail();
        let mut b = Tally::default();
        b.ok(3.0);
        a.merge(b);
        assert_eq!((a.attempted, a.failed), (3, 1));
        assert_eq!(a.latency().samples, 3);
    }

    #[test]
    fn empty_tally_reports_zeros() {
        let t = Tally::default();
        assert_eq!(t.ok_pct(), 0.0);
        assert_eq!(t.latency().samples, 0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn digest_tells_rows_apart() {
        let a = vec![vec![0.5f32, 1.0], vec![0.25, 0.0]];
        let b = vec![vec![0.5f32, 1.0], vec![0.25, -0.0]];
        assert_eq!(rows_digest(&a), rows_digest(&a.clone()));
        assert_ne!(rows_digest(&a), rows_digest(&b));
        // Row boundaries count: [a, b][c] differs from [a][b, c].
        let c = vec![vec![1.0f32, 2.0], vec![3.0]];
        let d = vec![vec![1.0f32], vec![2.0, 3.0]];
        assert_ne!(rows_digest(&c), rows_digest(&d));
    }
}
