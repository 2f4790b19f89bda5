//! Small numeric helpers: quantiles, the output digest, seed derivation
//! and the process's peak resident memory.

/// Quartiles `[q1, q2, q3]` by the exclusive method — the default of
/// Python's `statistics.quantiles(values, n=4)`, so spreads computed here
/// match the ones computed from the printed values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut d = values.to_vec();
    d.sort_by(f64::total_cmp);
    match d.len() {
        0 => [0.0; 3],
        1 => [d[0]; 3],
        n => {
            let m = n + 1;
            let mut out = [0.0; 3];
            for (i, q) in out.iter_mut().enumerate() {
                let i = i + 1;
                let j = (i * m / 4).clamp(1, n - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                *q = (d[j - 1] * (4.0 - delta) + d[j] * delta) / 4.0;
            }
            out
        }
    }
}

/// Median (the mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut d = values.to_vec();
    d.sort_by(f64::total_cmp);
    match d.len() {
        0 => 0.0,
        n if n % 2 == 1 => d[n / 2],
        n => (d[n / 2 - 1] + d[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `p` (0–100) and the number of samples strictly
/// after that rank.
pub fn percentile(values: &[f64], p: f64) -> (f64, usize) {
    let mut d = values.to_vec();
    d.sort_by(f64::total_cmp);
    if d.is_empty() {
        return (0.0, 0);
    }
    let rank = ((p / 100.0) * d.len() as f64).ceil().max(1.0) as usize;
    (d[rank - 1], d.len() - rank)
}

/// Interquartile range as a percentage of the median.
pub fn iqr_pct(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2 * 100.0
    }
}

/// FNV-1a, 64-bit: the deterministic output digest.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Fold `bytes` into the digest.
    pub fn feed(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Fold one integer (little-endian bytes).
    pub fn feed_u64(&mut self, v: u64) {
        self.feed(&v.to_le_bytes());
    }

    /// The digest value.
    pub fn value(self) -> u64 {
        self.0
    }
}

/// Seed of run `i` of a workload seeded with `seed` (SplitMix64 over the
/// pair), so runs are decorrelated yet fully determined by the seed.
pub fn run_seed(seed: u64, i: u64) -> u64 {
    let mut z = seed ^ i.wrapping_add(1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The process's peak resident set (`VmHWM`), MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
    }

    #[test]
    fn percentile_leaves_the_tail_count() {
        let v: Vec<f64> = (1..=120).map(f64::from).collect();
        assert_eq!(percentile(&v, 90.0), (108.0, 12));
        assert_eq!(percentile(&v, 50.0).0, 60.0);
        assert_eq!(median(&v), 60.5);
    }

    #[test]
    fn run_seeds_differ_and_repeat() {
        assert_eq!(run_seed(7, 3), run_seed(7, 3));
        assert_ne!(run_seed(7, 3), run_seed(7, 4));
        assert_ne!(run_seed(7, 3), run_seed(8, 3));
    }
}
