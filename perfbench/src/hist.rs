//! The benchmark's latency recorder: a log-linear histogram with 64
//! sub-buckets per power of two over nanosecond values.
//!
//! Every recorded value lands in a bucket no wider than 1/64 of its lower
//! edge, so a reported percentile is within 1.6 % of a recorded value —
//! unlike a log₂ histogram, whose p50 can only read 63, 127 or 255 µs.

const SUB_BITS: u32 = 6;
const SUB: u64 = 1 << SUB_BITS;
/// Buckets for every `u64`: 64 exact ones below 64, then 64 per octave.
const BUCKETS: usize = ((64 - SUB_BITS as usize) + 1) * SUB as usize;

#[derive(Debug, Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            counts: vec![0; BUCKETS],
            total: 0,
        }
    }
}

fn index(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let e = 63 - v.leading_zeros();
    let shift = e - SUB_BITS;
    let sub = (v >> shift) - SUB;
    ((u64::from(shift) + 1) * SUB + sub) as usize
}

/// Lower edge and width of bucket `i`.
fn bucket(i: usize) -> (u64, u64) {
    let i = i as u64;
    if i < SUB {
        return (i, 1);
    }
    let shift = i / SUB - 1;
    ((SUB + i % SUB) << shift, 1 << shift)
}

impl Histogram {
    pub fn record(&mut self, ns: u64) {
        self.counts[index(ns)] += 1;
        self.total += 1;
    }

    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    /// The `q`-quantile in nanoseconds (bucket midpoint), 0 when empty.
    pub fn quantile_ns(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let (lo, width) = bucket(i);
                return lo as f64 + (width as f64 - 1.0) / 2.0;
            }
        }
        unreachable!("rank is at most the total count")
    }

    pub fn quantile_us(&self, q: f64) -> f64 {
        self.quantile_ns(q) / 1_000.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_tile_the_line_and_stay_narrow() {
        for v in (0..5_000u64).chain([1 << 20, (1 << 40) + 12_345, u64::MAX]) {
            let (lo, width) = bucket(index(v));
            assert!(lo <= v && v - lo < width, "{v} outside bucket {lo}+{width}");
            assert!(v < SUB || width * SUB <= lo, "bucket at {lo} too wide");
        }
    }

    #[test]
    fn quantiles_are_fine_grained() {
        let mut h = Histogram::default();
        for us in 100..=200u64 {
            h.record(us * 1_000);
        }
        let p50 = h.quantile_us(0.5);
        assert!((p50 - 150.0).abs() < 150.0 / 64.0, "p50 = {p50}");
    }
}
