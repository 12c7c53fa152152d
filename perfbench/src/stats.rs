//! Seeded input generation and the statistics the benchmark reports.

/// SplitMix64: a tiny, well-mixed generator. The benchmark needs the
/// same request list for the same seed on every host, so it carries its
/// own generator instead of depending on one.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5851_f42d_4c95_7f2d)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// Stratified sizes: each block of `strata` consecutive requests holds
/// exactly one size from every stratum `[lo + k·width, lo + (k+1)·width)`,
/// in a seeded order and with a seeded offset inside the stratum. Every
/// seed therefore gives a different request list with the same size
/// distribution, which keeps medians comparable across seeds.
pub fn stratified_sizes(rng: &mut Rng, lo: u64, width: u64, strata: u64, len: usize) -> Vec<u64> {
    let mut sizes = Vec::with_capacity(len);
    while sizes.len() < len {
        let mut block: Vec<u64> = (0..strata)
            .map(|k| lo + k * width + rng.below(width))
            .collect();
        rng.shuffle(&mut block);
        sizes.extend(block);
    }
    sizes.truncate(len);
    sizes
}

/// The `q`-quantile by nearest rank over sorted `xs`: the smallest
/// sample with at least `q·n` samples at or below it.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// The median, or NaN for no samples.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v[rank(v.len(), 0.5)]
}

/// A percentile that is reported only when at least ten samples lie
/// beyond it, so it is never read off a handful of outliers.
pub fn tail_percentile(xs: &[f64], q: f64) -> Option<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return None;
    }
    let r = rank(v.len(), q);
    (v.len() - r > 10).then(|| v[r])
}

/// Peak resident set (`VmHWM`) of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sizes_other_seed_other_sizes() {
        let a = stratified_sizes(&mut Rng::new(7), 100, 4, 16, 64);
        let b = stratified_sizes(&mut Rng::new(7), 100, 4, 16, 64);
        let c = stratified_sizes(&mut Rng::new(8), 100, 4, 16, 64);
        assert_eq!(a, b);
        assert_ne!(a, c);
        // Every block covers every stratum exactly once.
        for block in a.chunks(16) {
            let mut strata: Vec<u64> = block.iter().map(|s| (s - 100) / 4).collect();
            strata.sort_unstable();
            assert_eq!(strata, (0..16).collect::<Vec<_>>());
        }
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs, 0.9), Some(90.0));
        let xs: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs, 0.9), None);
        assert_eq!(tail_percentile(&[], 0.9), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
