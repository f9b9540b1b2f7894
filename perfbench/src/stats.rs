//! Seeded input generation and the order statistics every metric uses.

use std::time::Duration;

/// splitmix64: a small, fast, seedable generator. The benchmark's inputs
/// depend only on the seed, never on the clock or the process.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// A latency sample set, in nanoseconds.
#[derive(Default)]
pub struct Samples(Vec<u64>);

impl Samples {
    pub fn push(&mut self, d: Duration) {
        self.0.push(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    pub fn push_ns(&mut self, ns: u64) {
        self.0.push(ns);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn sum_ns(&self) -> u64 {
        self.0.iter().sum()
    }

    fn sorted(&self) -> Vec<u64> {
        let mut v = self.0.clone();
        v.sort_unstable();
        v
    }

    /// The median in milliseconds (mean of the middle pair for an even
    /// count); 0 when empty.
    pub fn median_ms(&self) -> f64 {
        let v = self.sorted();
        match v.len() {
            0 => 0.0,
            n if n % 2 == 1 => v[n / 2] as f64 / 1e6,
            n => (v[n / 2 - 1] + v[n / 2]) as f64 / 2e6,
        }
    }

    /// The `q`-quantile in milliseconds (nearest rank); 0 when empty.
    pub fn quantile_ms(&self, q: f64) -> f64 {
        let v = self.sorted();
        if v.is_empty() {
            return 0.0;
        }
        let idx = ((v.len() as f64 - 1.0) * q).round() as usize;
        v[idx.min(v.len() - 1)] as f64 / 1e6
    }

    /// The tail: the highest of p99, p95 and p90 that still has at least
    /// ten samples beyond it, in milliseconds, with its level. Fixed
    /// levels keep runs with slightly different sample counts
    /// comparable. Below 100 samples none qualifies, and the median
    /// stands in for the tail.
    pub fn tail_ms(&self) -> (f64, f64) {
        let n = self.0.len();
        [99usize, 95, 90]
            .into_iter()
            .find(|pct| n * (100 - pct) >= 1_000)
            .map_or((self.median_ms(), 50.0), |pct| {
                (self.quantile_ms(pct as f64 / 100.0), pct as f64)
            })
    }
}

/// Median of a list of plain values (used for repeated set-up timings).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// `num / den`, 0 when the denominator is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set size of this process (VmHWM), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let mut s = Samples::default();
        for i in 1..=100u64 {
            s.push_ns(i * 1_000_000);
        }
        let (tail, level) = s.tail_ms();
        assert_eq!(tail, 90.0);
        assert_eq!(level, 90.0);
        assert_eq!(s.median_ms(), 50.5);
        s.push_ns(101_000_000);
        assert_eq!(s.tail_ms().1, 90.0);
        for i in 102..=1_000u64 {
            s.push_ns(i * 1_000_000);
        }
        assert_eq!(s.tail_ms(), (990.0, 99.0));
    }

    #[test]
    fn rng_is_seeded() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7);
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7);
                move |_| r.next_u64()
            })
            .collect();
        assert_eq!(a, b);
    }
}
