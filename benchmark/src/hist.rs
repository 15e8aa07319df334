//! Log-linear latency histogram.
//!
//! The program's own `LatencyHistogram` has power-of-two buckets, so a p99
//! of "2048 µs" can mean anything from 1.0 to 2.0 ms. This one splits every
//! power of two into [`SUB`] linear sub-buckets: a recorded value lands in a
//! bucket at most `1/SUB` (< 0.8 %) wide relative to its size, and a quantile
//! reports the bucket midpoint, so the relative error stays below 0.4 %.
//!
//! Values are nanoseconds. Everything up to [`SUB`] ns is exact.

/// Linear sub-buckets per power of two.
const SUB: u64 = 128;
const SUB_BITS: u32 = SUB.trailing_zeros();
/// Largest representable value: 2^42 ns ≈ 73 min; larger values clamp.
const MAX_EXP: u32 = 42;
const BUCKETS: usize = ((MAX_EXP - SUB_BITS + 1) as usize) * SUB as usize;

/// How many samples must lie beyond a percentile for it to be reported.
pub const TAIL_SAMPLES: u64 = 10;

/// A fixed-size histogram of nanosecond values.
#[derive(Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    n: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

fn bucket_of(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let v = v.min((1u64 << MAX_EXP) - 1);
    let exp = 63 - v.leading_zeros(); // ≥ SUB_BITS
    let shift = exp - SUB_BITS;
    // Group 0 holds [0, SUB) exactly; group g ≥ 1 holds [SUB << (g-1), SUB << g).
    let group = (shift + 1) as u64;
    (group * SUB + ((v >> shift) - SUB)) as usize
}

/// Midpoint of bucket `b` (exact for the first group).
fn value_of(b: usize) -> f64 {
    let (group, sub) = (b as u64 / SUB, b as u64 % SUB);
    if group == 0 {
        return sub as f64;
    }
    let shift = group - 1;
    let low = (SUB + sub) << shift;
    low as f64 + ((1u64 << shift) as f64 - 1.0) / 2.0
}

impl Histogram {
    pub fn new() -> Self {
        Self {
            counts: vec![0; BUCKETS],
            n: 0,
        }
    }

    pub fn record(&mut self, nanos: u64) {
        self.counts[bucket_of(nanos)] += 1;
        self.n += 1;
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.n += other.n;
    }

    /// The value at quantile `q ∈ [0, 1]` in nanoseconds (0 when empty): the
    /// midpoint of the bucket holding the `ceil(q·n)`-th smallest sample.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let rank = ((q * self.n as f64).ceil() as u64).clamp(1, self.n);
        let mut seen = 0;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return value_of(b);
            }
        }
        unreachable!("histogram counts sum to n")
    }

    /// [`Histogram::quantile`] in milliseconds.
    pub fn quantile_ms(&self, q: f64) -> f64 {
        self.quantile(q) / 1e6
    }

    /// The tail percentile this sample supports: `wanted` when at least
    /// [`TAIL_SAMPLES`] samples lie beyond it, otherwise the highest of
    /// 0.95 / 0.9 / 0.75 / 0.5 that has them (0.5 as the last resort).
    /// Returns `(quantile used, value in ns)`; callers print the quantile
    /// whenever it differs from `wanted`.
    pub fn tail(&self, wanted: f64) -> (f64, f64) {
        let supported = |q: f64| (self.n as f64) * (1.0 - q) >= TAIL_SAMPLES as f64;
        let q = [wanted, 0.95, 0.9, 0.75]
            .into_iter()
            .find(|&q| q <= wanted && supported(q))
            .unwrap_or(0.5);
        (q, self.quantile(q))
    }
}

/// A phase's samples split into equal, consecutive time windows.
///
/// A shared two-core machine stalls for tens of milliseconds now and then,
/// and one stall is enough to move the p99 or the mean rate of a
/// ten-second phase by tens of percent. So a phase reports the **median
/// over its windows** of each window's own statistic: a stall spoils one
/// window, not the result, while a change to the system moves every window.
pub struct Windowed {
    pub windows: Vec<Histogram>,
    /// Length of one window in seconds.
    pub window_s: f64,
}

impl Windowed {
    pub fn new(n: usize, window_s: f64) -> Self {
        Self {
            windows: vec![Histogram::new(); n.max(1)],
            window_s,
        }
    }

    /// Records into window `w`; samples past the last window are dropped
    /// (they arrived after the phase's measuring time).
    pub fn record(&mut self, w: usize, nanos: u64) {
        if let Some(h) = self.windows.get_mut(w) {
            h.record(nanos);
        }
    }

    pub fn merge(&mut self, other: &Windowed) {
        for (a, b) in self.windows.iter_mut().zip(&other.windows) {
            a.merge(b);
        }
    }

    /// Drops the windows from `full` on (a closed loop that ran out of
    /// requests early leaves its last windows short), keeping at least one.
    pub fn keep_full(&mut self, full: usize) {
        self.windows.truncate(full.max(1));
    }

    pub fn count(&self) -> u64 {
        self.windows.iter().map(Histogram::count).sum()
    }

    fn median_of(&self, f: impl Fn(&Histogram) -> f64) -> f64 {
        crate::metrics::median(&mut self.windows.iter().map(f).collect::<Vec<_>>())
    }

    /// Samples per second: the median window's.
    pub fn rate(&self) -> f64 {
        self.median_of(|h| h.count() as f64 / self.window_s)
    }

    /// Quantile `q` in milliseconds: the median over the windows of each
    /// window's own quantile.
    pub fn quantile_ms(&self, q: f64) -> f64 {
        self.median_of(|h| h.quantile(q)) / 1e6
    }

    /// Whether every window has [`TAIL_SAMPLES`] samples beyond quantile `q`.
    pub fn supports(&self, q: f64) -> bool {
        self.windows
            .iter()
            .all(|h| h.count() as f64 * (1.0 - q) >= TAIL_SAMPLES as f64 - 1e-9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::new();
        for v in 0..SUB {
            h.record(v);
        }
        assert_eq!(h.quantile(0.0), 0.0);
        assert_eq!(h.quantile(1.0), (SUB - 1) as f64);
        assert_eq!(h.quantile(0.5), (SUB / 2 - 1) as f64);
    }

    #[test]
    fn buckets_are_contiguous_and_monotone() {
        let mut last = 0;
        for v in 0..1u64 << 18 {
            let b = bucket_of(v);
            assert!(
                b == last || b == last + 1,
                "bucket jumped at {v}: {last} -> {b}"
            );
            last = b;
        }
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn relative_error_stays_below_one_percent() {
        for v in [
            130u64,
            1_000,
            12_345,
            999_999,
            2_500_000,
            77_777_777,
            3_000_000_000,
        ] {
            let mut h = Histogram::new();
            h.record(v);
            let got = h.quantile(0.5);
            let err = (got - v as f64).abs() / v as f64;
            assert!(err < 0.01, "value {v} reported as {got} (error {err})");
        }
    }

    #[test]
    fn quantiles_of_a_uniform_ramp() {
        let mut h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v * 1_000); // 1 µs .. 10 ms
        }
        for (q, want) in [(0.5, 5_000_000.0), (0.9, 9_000_000.0), (0.99, 9_900_000.0)] {
            let got = h.quantile(q);
            assert!((got - want).abs() / want < 0.01, "q{q}: {got} vs {want}");
        }
    }

    #[test]
    fn merge_adds_counts() {
        let (mut a, mut b) = (Histogram::new(), Histogram::new());
        a.record(1_000);
        b.record(2_000_000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert!(a.quantile(1.0) > 1_900_000.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_the_percentile() {
        let mut h = Histogram::new();
        for v in 1..=1_000u64 {
            h.record(v * 1_000);
        }
        // 1 000 samples: exactly ten lie beyond p99.
        assert_eq!(h.tail(0.99).0, 0.99);

        let mut h = Histogram::new();
        for v in 1..=999u64 {
            h.record(v * 1_000);
        }
        // One short: fall back to p95 and say so through the returned quantile.
        assert_eq!(h.tail(0.99).0, 0.95);

        let mut h = Histogram::new();
        for v in 1..=50u64 {
            h.record(v * 1_000);
        }
        // 50 samples: p75 leaves 12.5 beyond it, p90 only 5.
        assert_eq!(h.tail(0.99).0, 0.75);

        let mut h = Histogram::new();
        for v in 1..=15u64 {
            h.record(v * 1_000);
        }
        assert_eq!(h.tail(0.99).0, 0.5);
    }

    #[test]
    fn windowed_statistics_shrug_off_one_bad_window() {
        let mut w = Windowed::new(5, 1.0);
        for win in 0..5 {
            for i in 0..1_000u64 {
                // Window 2 is hit by a stall: half as many samples, all slow.
                if win == 2 {
                    if i % 2 == 0 {
                        w.record(win, 80_000_000);
                    }
                } else {
                    w.record(win, 1_000_000 + i * 1_000);
                }
            }
        }
        assert_eq!(w.count(), 4_500);
        assert_eq!(w.rate(), 1_000.0);
        assert!(w.quantile_ms(0.99) < 2.1, "p99 {}", w.quantile_ms(0.99));
        assert!(!w.supports(0.99) && w.supports(0.95));
        w.record(7, 1); // past the last window: dropped
        assert_eq!(w.count(), 4_500);
        w.keep_full(2);
        assert_eq!(w.windows.len(), 2);
    }
}
