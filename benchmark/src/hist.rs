//! A fixed-size log-linear latency histogram: 64 sub-buckets per octave,
//! so a bucket is at most 1.6 % wide and a 10 % change moves a quantile
//! by several buckets. Fixed size matters as much as resolution: the
//! memory the benchmark itself holds must not grow with the throughput
//! it measures, or `peak_rss_mb` would regress whenever a change makes
//! the program faster.

const SUB_BITS: u32 = 6;
const SUB: u64 = 1 << SUB_BITS;
const BUCKETS: usize = ((64 - SUB_BITS + 1) as usize) * SUB as usize;

#[derive(Clone)]
pub struct Histogram {
    counts: Box<[u64]>,
    total: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self { counts: vec![0; BUCKETS].into_boxed_slice(), total: 0 }
    }
}

fn bucket_of(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let e = 63 - v.leading_zeros();
    let sub = (v >> (e - SUB_BITS)) & (SUB - 1);
    ((e - SUB_BITS + 1) as usize) * SUB as usize + sub as usize
}

/// Lower bound and width of bucket `idx`.
fn bucket_range(idx: usize) -> (u64, u64) {
    let (row, sub) = (idx as u64 / SUB, idx as u64 % SUB);
    if row == 0 {
        return (sub, 1);
    }
    let shift = row - 1;
    ((SUB + sub) << shift, 1 << shift)
}

impl Histogram {
    pub fn record(&mut self, ns: u64) {
        self.counts[bucket_of(ns)] += 1;
        self.total += 1;
    }

    pub fn merge(&mut self, other: &Histogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(other.counts.iter()) {
            *mine += theirs;
        }
        self.total += other.total;
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    /// The `q`-quantile (`0 < q <= 1`), interpolated by rank inside its
    /// bucket so the result is not quantised to bucket edges. `None`
    /// when nothing was recorded.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let rank = (q * self.total as f64).ceil().clamp(1.0, self.total as f64);
        let mut seen = 0u64;
        for (idx, &count) in self.counts.iter().enumerate() {
            if count > 0 && (seen + count) as f64 >= rank {
                let (low, width) = bucket_range(idx);
                let within = (rank - seen as f64 - 0.5) / count as f64;
                return Some(low as f64 + width as f64 * within);
            }
            seen += count;
        }
        unreachable!("rank is clamped to the recorded total")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_partition_the_value_range() {
        let mut expected_low = 0u64;
        for idx in 0..BUCKETS {
            let (low, width) = bucket_range(idx);
            assert_eq!(low, expected_low, "bucket {idx} starts where {} ended", idx.max(1) - 1);
            assert_eq!(bucket_of(low), idx);
            assert_eq!(bucket_of(low + (width - 1)), idx);
            expected_low = low.wrapping_add(width);
        }
        assert_eq!(expected_low, 0, "the last bucket ends at 2^64");
    }

    #[test]
    fn quantiles_are_within_two_percent_of_the_exact_ones() {
        // A long-tailed sample: exact quantiles from the sorted values.
        let mut rng = crate::gen::Rng::new(11, 0);
        let mut values: Vec<u64> =
            (0..200_000).map(|_| (80.0 * (-(1.0 - rng.unit()).ln() * 3.0).exp()) as u64).collect();
        let mut hist = Histogram::default();
        for &v in &values {
            hist.record(v);
        }
        values.sort_unstable();
        for q in [0.01, 0.25, 0.5, 0.9, 0.99, 0.999] {
            let exact = values[((q * values.len() as f64).ceil() as usize).max(1) - 1] as f64;
            let got = hist.quantile(q).unwrap();
            assert!((got - exact).abs() <= 0.02 * exact + 1.0, "q={q}: {got} vs exact {exact}");
        }
        assert_eq!(hist.count(), 200_000);
    }

    #[test]
    fn a_ten_percent_shift_is_resolved() {
        let (mut a, mut b) = (Histogram::default(), Histogram::default());
        for i in 0..10_000u64 {
            a.record(30_000 + i % 100);
            b.record(33_000 + i % 110);
        }
        let ratio = b.quantile(0.5).unwrap() / a.quantile(0.5).unwrap();
        assert!((ratio - 1.10).abs() < 0.01, "ratio {ratio}");
    }

    #[test]
    fn merge_adds_and_empty_has_no_quantile() {
        let mut a = Histogram::default();
        assert_eq!(a.quantile(0.5), None);
        let mut b = Histogram::default();
        a.record(10);
        b.record(1_000_000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert!(a.quantile(1.0).unwrap() >= 1_000_000.0);
    }
}
