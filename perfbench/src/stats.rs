//! Small statistics helpers: a log-linear histogram with fixed memory,
//! quantiles and medians, and the process's peak resident memory.

/// Sub-buckets per power of two: values are kept to within 1/128.
const SUB_BITS: u32 = 7;
const SUB: usize = 1 << SUB_BITS;
const BUCKETS: usize = SUB + (64 - SUB_BITS as usize) * SUB;

/// A log-linear histogram of `u64` samples whose memory does not grow
/// with the number of samples, so a longer run holds no more memory.
#[derive(Debug, Clone)]
pub struct LogHist {
    counts: Vec<u64>,
    total: u64,
}

impl Default for LogHist {
    fn default() -> Self {
        LogHist {
            counts: vec![0; BUCKETS],
            total: 0,
        }
    }
}

fn bucket(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let e = 63 - v.leading_zeros();
    let sub = (v >> (e - SUB_BITS)) as usize & (SUB - 1);
    SUB + (e - SUB_BITS) as usize * SUB + sub
}

/// The lowest value and the width of bucket `i`.
fn bounds(i: usize) -> (f64, f64) {
    if i < SUB {
        return (i as f64, 1.0);
    }
    let e = (i - SUB) / SUB + SUB_BITS as usize;
    let sub = (i - SUB) % SUB;
    let width = 2f64.powi(e as i32 - SUB_BITS as i32);
    (2f64.powi(e as i32) + sub as f64 * width, width)
}

impl LogHist {
    pub fn record(&mut self, v: u64) {
        self.counts[bucket(v)] += 1;
        self.total += 1;
    }

    /// The `q`-quantile, interpolated by rank inside its bucket; 0 when
    /// empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            if c > 0 && seen + c >= rank {
                let (lo, width) = bounds(i);
                return lo + width * ((rank - seen) as f64 - 0.5) / c as f64;
            }
            seen += c;
        }
        unreachable!("rank is at most the total")
    }
}

/// The `q`-quantile (nearest rank) of `v`, sorted in place; 0 if empty.
pub fn quantile(v: &mut [u64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_unstable();
    let idx = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len()) - 1;
    v[idx] as f64
}

/// The median of `v` (upper middle for even lengths); 0 if empty.
pub fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v.get(v.len() / 2).copied().unwrap_or(0.0)
}

/// `a / b`, or 0 when `b` is not positive.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// The process's resident-memory high-water mark, in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_cover_their_values() {
        for v in [0, 1, 127, 128, 129, 1000, 123_456_789, u64::MAX] {
            let (lo, width) = bounds(bucket(v));
            assert!(
                lo <= v as f64 && v as f64 <= lo + width,
                "{v}: {lo} + {width}"
            );
        }
    }

    #[test]
    fn quantiles_land_within_a_bucket() {
        let mut h = LogHist::default();
        for v in 1..=10_000u64 {
            h.record(v * 1000);
        }
        let p50 = h.quantile(0.5);
        assert!((p50 / 5_000_000.0 - 1.0).abs() < 0.01, "{p50}");
        let p99 = h.quantile(0.99);
        assert!((p99 / 9_900_000.0 - 1.0).abs() < 0.01, "{p99}");
    }
}
