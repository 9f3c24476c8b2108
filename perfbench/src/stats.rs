//! Sample statistics: exact sorted-sample percentiles, the quartile spread
//! the acceptance rule uses, a seeded generator and a Zipf sampler.

/// Exact percentile of an ascending sample (nearest rank); 0 when empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = (p.clamp(0.0, 1.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Sorts `values` and returns them (NaN-free inputs only).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// Median of an unsorted sample; 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values.to_vec());
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Mean; 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The highest of the usual percentiles that still has at least ten samples
/// beyond it in a sample of `n`, as `(label, p)`; the median when the sample
/// supports nothing higher.
pub fn highest_supported_percentile(n: usize) -> (&'static str, f64) {
    // Per-mille, so that "ten samples beyond" is an exact integer test.
    [("p99.9", 999), ("p99", 990), ("p95", 950), ("p90", 900)]
        .into_iter()
        .find(|&(_, per_mille)| n * (1000 - per_mille) >= 10_000)
        .map(|(label, per_mille)| (label, per_mille as f64 / 1000.0))
        .unwrap_or(("p50", 0.5))
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default exclusive method) gives
/// them. `None` with fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let data = sorted(values.to_vec());
    let ld = data.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Inter-quartile distance as a share of the median (the run-to-run spread
/// the acceptance rule compares against a metric's bound).
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let med = median(values);
    (med != 0.0).then(|| (q3 - q1).abs() / med.abs())
}

/// Completed operations per second over consecutive fixed-length windows of
/// a closed loop. A run's rate is the median window: a burst of host noise
/// (another tenant of a shared machine taking the cores for a second) slows
/// the windows it falls into and leaves the median where it was, while the
/// plain count ÷ wall carries every such second in full.
#[derive(Debug)]
pub struct RateWindows {
    window_ns: u64,
    start_ns: u64,
    count: u64,
    /// Rate of each completed window, 1/s, in time order.
    pub rates: Vec<f64>,
}

impl RateWindows {
    pub fn new(window_ns: u64, start_ns: u64) -> RateWindows {
        RateWindows {
            window_ns,
            start_ns,
            count: 0,
            rates: Vec::new(),
        }
    }

    /// One operation completed at `now_ns`. A window closes at the first
    /// completion at or after its nominal end and is divided by its real
    /// length, so an operation that overruns the boundary is not lost.
    pub fn completed(&mut self, now_ns: u64) {
        self.count += 1;
        let elapsed = now_ns.saturating_sub(self.start_ns);
        if elapsed >= self.window_ns {
            self.rates.push(self.count as f64 * 1e9 / elapsed as f64);
            self.start_ns = now_ns;
            self.count = 0;
        }
    }
}

/// splitmix64: the benchmark's own seeded generator, so its inputs do not
/// depend on which `rand` the system under test was built against.
#[derive(Debug, Clone)]
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Zipf(s = 1.0) over ranks `0..n`: rank `i` is drawn with weight
/// `1 / (i + 1)`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize) -> Zipf {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for i in 0..n {
            acc += 1.0 / (i + 1) as f64;
            cdf.push(acc);
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        let total = *self.cdf.last().expect("Zipf over at least one rank");
        let x = rng.next_f64() * total;
        self.cdf
            .partition_point(|&c| c <= x)
            .min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn rate_windows_close_on_the_first_completion_past_their_end() {
        let mut w = RateWindows::new(1_000, 500);
        // Three completions inside the window, the fourth 500 ns past its end.
        for now in [700, 900, 1_400, 2_000] {
            w.completed(now);
        }
        assert_eq!(w.rates, [4.0 * 1e9 / 1_500.0]);
        // The next window starts where the last one really ended.
        w.completed(3_000);
        assert_eq!(w.rates.len(), 2);
        assert_eq!(w.rates[1], 1e9 / 1_000.0);
    }

    #[test]
    fn percentile_support_needs_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(50).0, "p50");
        assert_eq!(highest_supported_percentile(100).0, "p90");
        assert_eq!(highest_supported_percentile(200).0, "p95");
        assert_eq!(highest_supported_percentile(1_000).0, "p99");
        assert_eq!(highest_supported_percentile(10_000).0, "p99.9");
    }

    #[test]
    fn zipf_prefers_low_ranks_and_stays_in_range() {
        let z = Zipf::new(100);
        let mut rng = SplitMix64(1);
        let mut head = 0;
        for _ in 0..10_000 {
            let r = z.sample(&mut rng);
            assert!(r < 100);
            head += usize::from(r < 10);
        }
        // H(10) / H(100) ≈ 0.565
        assert!((5_000..6_300).contains(&head), "head draws {head}");
    }
}
