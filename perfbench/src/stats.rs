//! Order statistics for the benchmark's timings.

use crate::inputs::SplitMix64;

/// Samples that must lie strictly above a reported percentile's rank; with
/// fewer the percentile is refused rather than read off the last few samples.
pub const MIN_BEYOND: usize = 10;

/// A nearest-rank percentile together with the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The sample at the nearest rank.
    pub value: f64,
    /// Number of samples the percentile was read from.
    pub samples: usize,
    /// Samples ranked strictly above the reported one.
    pub beyond: usize,
}

/// The nearest-rank `q`-quantile (`0 < q < 1`) of `samples`, which this sorts.
///
/// The rank is `ceil(q * n)` (1-based). Returns `None` when fewer than
/// [`MIN_BEYOND`] samples rank above it, so a p99 needs at least 1,000 samples.
pub fn percentile(samples: &mut [f64], q: f64) -> Option<Percentile> {
    if !(q > 0.0 && q < 1.0) || samples.is_empty() {
        return None;
    }
    samples.sort_unstable_by(f64::total_cmp);
    let n = samples.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    let beyond = n - rank;
    (beyond >= MIN_BEYOND).then(|| Percentile { value: samples[rank - 1], samples: n, beyond })
}

/// The median and the 99th percentile, or `None` when the p99 would have
/// fewer than [`MIN_BEYOND`] samples beyond it.
pub fn p50_p99(samples: &mut [f64]) -> Option<(Percentile, Percentile)> {
    Some((percentile(samples, 0.5)?, percentile(samples, 0.99)?))
}

/// The median of a small set of repeated measurements (mean of the middle
/// two for an even count). `values` must not be empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The arithmetic mean. `values` must not be empty.
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// A fixed-size uniform sample of a stream of values (Algorithm R). Its
/// buffer is written once up front, so the benchmark's resident memory does
/// not grow with throughput and `peak_rss_mb` measures the program.
pub struct Reservoir {
    samples: Vec<f64>,
    capacity: usize,
    seen: u64,
    rng: SplitMix64,
}

impl Reservoir {
    pub fn new(capacity: usize, seed: u64) -> Self {
        let mut samples = vec![f64::NAN; capacity];
        samples.clear();
        Reservoir { samples, capacity, seen: 0, rng: SplitMix64(seed) }
    }

    pub fn push(&mut self, value: f64) {
        self.seen += 1;
        if self.samples.len() < self.capacity {
            self.samples.push(value);
        } else {
            let j = self.rng.below(self.seen);
            if let Some(slot) = self.samples.get_mut(j as usize) {
                *slot = value;
            }
        }
    }

    pub fn samples_mut(&mut self) -> &mut [f64] {
        &mut self.samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_reports_value_count_and_beyond() {
        let mut v: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let p99 = percentile(&mut v, 0.99).unwrap();
        assert_eq!(p99, Percentile { value: 990.0, samples: 1000, beyond: 10 });
        let p50 = percentile(&mut v, 0.5).unwrap();
        assert_eq!(p50, Percentile { value: 500.0, samples: 1000, beyond: 500 });
    }

    #[test]
    fn refuses_a_percentile_with_fewer_than_ten_samples_beyond() {
        let mut v: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(percentile(&mut v, 0.99), None, "rank 990 of 999 leaves only 9 beyond");
        let mut few = vec![1.0; 15];
        assert_eq!(percentile(&mut few, 0.5), None, "rank 8 of 15 leaves 7 beyond");
        let mut enough = vec![1.0; 20];
        assert_eq!(percentile(&mut enough, 0.5).unwrap().beyond, 10);
        assert_eq!(percentile(&mut [], 0.5), None);
        assert_eq!(percentile(&mut [1.0; 100], 1.0), None);
    }

    #[test]
    fn reservoir_keeps_everything_until_full_then_a_uniform_sample() {
        let mut r = Reservoir::new(1000, 1);
        (0..500).for_each(|i| r.push(f64::from(i)));
        assert_eq!(r.samples_mut().len(), 500);
        (500..100_000).for_each(|i| r.push(f64::from(i)));
        assert_eq!((r.seen, r.samples_mut().len()), (100_000, 1000));
        let p50 = percentile(r.samples_mut(), 0.5).unwrap().value;
        assert!((40_000.0..60_000.0).contains(&p50), "median of a uniform sample: {p50}");
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(mean(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
