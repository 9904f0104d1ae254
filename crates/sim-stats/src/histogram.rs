//! Logarithmic histograms.
//!
//! The engines' per-event histograms (skip lengths, block sizes, flush
//! sizes) record into these, and the bench rows and timelines report their
//! bin-edge quantiles.

/// A histogram with logarithmically spaced bins, for heavy-tailed samples
/// such as hitting times. Bin `i` covers `[base^i, base^(i+1))` scaled by
/// `scale`.
#[derive(Debug, Clone, PartialEq)]
pub struct LogHistogram {
    base: f64,
    scale: f64,
    bins: Vec<u64>,
    zero_or_negative: u64,
}

impl LogHistogram {
    /// Create a log histogram with the given `base` (> 1), `scale` (> 0) and
    /// number of bins.
    pub fn new(base: f64, scale: f64, bins: usize) -> Self {
        assert!(base > 1.0 && scale > 0.0 && bins > 0);
        LogHistogram {
            base,
            scale,
            bins: vec![0; bins],
            zero_or_negative: 0,
        }
    }

    /// Record one observation. Non-positive values go to a dedicated bucket;
    /// values beyond the last bin clamp into it.
    pub fn add(&mut self, x: f64) {
        if x <= 0.0 {
            self.zero_or_negative += 1;
            return;
        }
        let idx = (x / self.scale).log(self.base).floor();
        let idx = if idx < 0.0 {
            0
        } else {
            (idx as usize).min(self.bins.len() - 1)
        };
        self.bins[idx] += 1;
    }

    /// Record one non-negative integer observation. For the canonical
    /// event-histogram parameters (`base = 2`, `scale = 1`) the bin index
    /// is the bit length, computed without any floating-point log — the
    /// hot path for per-event engine harvests. Other parameterizations
    /// fall back to [`LogHistogram::add`].
    #[inline]
    pub fn add_u64(&mut self, x: u64) {
        if x == 0 {
            self.zero_or_negative += 1;
            return;
        }
        if self.base == 2.0 && self.scale == 1.0 {
            let idx = ((63 - x.leading_zeros()) as usize).min(self.bins.len() - 1);
            self.bins[idx] += 1;
        } else {
            self.add(x as f64);
        }
    }

    /// The logarithmic base.
    pub fn base(&self) -> f64 {
        self.base
    }

    /// The scale factor (bin `i` covers `[scale·baseⁱ, scale·baseⁱ⁺¹)`).
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// Per-bin counts.
    pub fn counts(&self) -> &[u64] {
        &self.bins
    }

    /// Count of non-positive observations.
    pub fn non_positive(&self) -> u64 {
        self.zero_or_negative
    }

    /// Total observations.
    pub fn total(&self) -> u64 {
        self.bins.iter().sum::<u64>() + self.zero_or_negative
    }

    /// The lower edge of bin `i`: `scale · baseⁱ`.
    pub fn bin_lower_edge(&self, i: usize) -> f64 {
        self.scale * self.base.powi(i as i32)
    }

    /// The `q`-quantile (0 ≤ q ≤ 1) of the recorded sample, resolved to
    /// bin lower edges: the smallest bin edge whose cumulative count
    /// reaches `q · total`. Non-positive observations count as `0.0` and
    /// sort below every bin. Returns `0.0` on an empty histogram.
    ///
    /// Bin-edge resolution makes the quantile deterministic and
    /// schema-stable across runs (no interpolation into a bin whose
    /// interior distribution is unknown), which is what the perf-trend
    /// diffing relies on: a quantile only moves when the sample mass
    /// actually crosses a bin boundary.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile level out of [0, 1]");
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        // Rank of the order statistic to locate, 1-based and clamped so
        // q = 1.0 resolves to the maximum-occupied bin.
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut cum = self.zero_or_negative;
        if rank <= cum {
            return 0.0;
        }
        for (i, &c) in self.bins.iter().enumerate() {
            cum += c;
            if rank <= cum {
                return self.bin_lower_edge(i);
            }
        }
        // Unreachable: the cumulative sum over all buckets equals total.
        self.bin_lower_edge(self.bins.len() - 1)
    }

    /// Median (bin-edge resolution; see [`LogHistogram::quantile`]).
    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    /// 90th percentile (bin-edge resolution).
    pub fn p90(&self) -> f64 {
        self.quantile(0.90)
    }

    /// 99th percentile (bin-edge resolution).
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }

    /// Rebuild a histogram from previously captured counts (checkpoint
    /// restore). The inverse of reading [`LogHistogram::counts`] /
    /// [`LogHistogram::non_positive`] off a histogram with the same
    /// parameters. Returns `None` when the parameters are invalid
    /// (`base ≤ 1`, `scale ≤ 0`, or no bins) — restore paths report that
    /// as corruption instead of panicking.
    pub fn from_parts(base: f64, scale: f64, bins: Vec<u64>, non_positive: u64) -> Option<Self> {
        let valid = base > 1.0 && scale > 0.0 && !bins.is_empty();
        if !valid {
            return None;
        }
        Some(LogHistogram {
            base,
            scale,
            bins,
            zero_or_negative: non_positive,
        })
    }

    /// Merge another histogram's counts into this one. Panics unless the
    /// two histograms share base, scale, and bin count — merging across
    /// binnings would silently misattribute mass.
    pub fn merge(&mut self, other: &LogHistogram) {
        assert_eq!(
            (self.base, self.scale, self.bins.len()),
            (other.base, other.scale, other.bins.len()),
            "cannot merge log histograms with different binnings"
        );
        for (a, &b) in self.bins.iter_mut().zip(&other.bins) {
            *a += b;
        }
        self.zero_or_negative += other.zero_or_negative;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_quantiles_resolve_to_bin_edges() {
        let mut h = LogHistogram::new(2.0, 1.0, 16);
        // 90 observations in [1,2), 9 in [8,16), 1 in [128,256).
        for _ in 0..90 {
            h.add(1.0);
        }
        for _ in 0..9 {
            h.add(9.0);
        }
        h.add(200.0);
        assert_eq!(h.p50(), 1.0);
        assert_eq!(h.p90(), 1.0); // rank 90 is the last [1,2) observation
        assert_eq!(h.quantile(0.95), 8.0);
        assert_eq!(h.p99(), 8.0);
        assert_eq!(h.quantile(1.0), 128.0);
        assert_eq!(h.quantile(0.0), 1.0); // rank clamps to 1
    }

    #[test]
    fn log_quantile_counts_zero_bucket_below_every_bin() {
        let mut h = LogHistogram::new(2.0, 1.0, 8);
        for _ in 0..60 {
            h.add_u64(0);
        }
        for _ in 0..40 {
            h.add_u64(5);
        }
        assert_eq!(h.p50(), 0.0);
        assert_eq!(h.p90(), 4.0);
        assert_eq!(LogHistogram::new(2.0, 1.0, 8).quantile(0.5), 0.0);
    }

    #[test]
    fn log_quantiles_are_monotone_in_q() {
        // Property: for any recorded sample, q ↦ quantile(q) is
        // non-decreasing, bounded by the occupied bin edges, and p50/p90/
        // p99 agree with direct quantile calls.
        let mut rng = crate::rng::SimRng::new(1234);
        for _ in 0..20 {
            let mut h = LogHistogram::new(2.0, 1.0, 48);
            for _ in 0..500 {
                h.add_u64(rng.below(100_000));
            }
            let qs: Vec<f64> = (0..=20).map(|i| h.quantile(i as f64 / 20.0)).collect();
            for w in qs.windows(2) {
                assert!(w[0] <= w[1], "quantile not monotone: {qs:?}");
            }
            assert_eq!(h.p50(), h.quantile(0.5));
            assert_eq!(h.p90(), h.quantile(0.9));
            assert_eq!(h.p99(), h.quantile(0.99));
        }
    }

    #[test]
    fn add_u64_matches_float_add_binning() {
        // The bit-length fast path must land every integer in the same
        // bin as the general float path.
        let mut fast = LogHistogram::new(2.0, 1.0, 48);
        let mut slow = LogHistogram::new(2.0, 1.0, 48);
        let mut rng = crate::rng::SimRng::new(7);
        for _ in 0..2_000 {
            let x = rng.below(1 << 40);
            fast.add_u64(x);
            if x == 0 {
                slow.add(0.0);
            } else {
                slow.add(x as f64);
            }
        }
        // Spot the exact boundaries too.
        for x in [1u64, 2, 3, 4, 7, 8, 1023, 1024, u64::MAX] {
            fast.add_u64(x);
            slow.add(x as f64);
        }
        assert_eq!(fast.counts(), slow.counts());
        assert_eq!(fast.non_positive(), slow.non_positive());
    }

    #[test]
    fn merge_is_count_addition() {
        // Property: merging two histograms equals histogramming the
        // concatenated sample, and quantiles of the merge are bracketed
        // by the inputs' occupied range.
        let mut rng = crate::rng::SimRng::new(99);
        for _ in 0..10 {
            let mut a = LogHistogram::new(2.0, 1.0, 32);
            let mut b = LogHistogram::new(2.0, 1.0, 32);
            let mut both = LogHistogram::new(2.0, 1.0, 32);
            for _ in 0..300 {
                let x = rng.below(10_000);
                a.add_u64(x);
                both.add_u64(x);
            }
            for _ in 0..200 {
                let x = rng.below(1_000_000);
                b.add_u64(x);
                both.add_u64(x);
            }
            let mut merged = a.clone();
            merged.merge(&b);
            assert_eq!(merged.counts(), both.counts());
            assert_eq!(merged.non_positive(), both.non_positive());
            assert_eq!(merged.total(), a.total() + b.total());
            assert_eq!(merged.p90(), both.p90());
        }
        // Merging an empty histogram is the identity.
        let mut a = LogHistogram::new(2.0, 1.0, 32);
        a.add_u64(17);
        let before = a.clone();
        a.merge(&LogHistogram::new(2.0, 1.0, 32));
        assert_eq!(a, before);
    }

    #[test]
    #[should_panic(expected = "different binnings")]
    fn merge_rejects_mismatched_binnings() {
        let mut a = LogHistogram::new(2.0, 1.0, 32);
        a.merge(&LogHistogram::new(2.0, 1.0, 16));
    }

    #[test]
    fn log_histogram_buckets_powers() {
        let mut h = LogHistogram::new(2.0, 1.0, 8);
        h.add(1.5); // [1,2) -> bin 0
        h.add(3.0); // [2,4) -> bin 1
        h.add(100.0); // [64,128) -> bin 6
        h.add(1e9); // clamps into last bin
        h.add(0.0);
        assert_eq!(h.counts()[0], 1);
        assert_eq!(h.counts()[1], 1);
        assert_eq!(h.counts()[6], 1);
        assert_eq!(h.counts()[7], 1);
        assert_eq!(h.non_positive(), 1);
        assert_eq!(h.total(), 5);
    }
}
