//! The benchmark's own input generator: a seeded RNG, zipf and
//! exponential draws, and the key space that maps ranks to physical
//! addresses. Nothing here touches the simulator's traffic engine.

use contutto_power8::MemoryMap;

/// SplitMix64: small, fast and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }

    /// Exponential with the given mean.
    pub fn exp(&mut self, mean: f64) -> f64 {
        -mean * (1.0 - self.unit()).ln()
    }
}

/// Zipf over ranks `0..n` by rejection-inversion (Hörmann and
/// Derflinger), so no table of `n` weights is built.
#[derive(Debug, Clone)]
pub struct Zipf {
    n: f64,
    s: f64,
    h_x1: f64,
    h_n: f64,
    cut: f64,
}

impl Zipf {
    pub fn new(n: u64, s: f64) -> Self {
        assert!(
            n >= 1 && s > 0.0 && s != 1.0,
            "zipf needs n >= 1, s > 0, s != 1"
        );
        let mut z = Zipf {
            n: n as f64,
            s,
            h_x1: 0.0,
            h_n: 0.0,
            cut: 0.0,
        };
        z.h_x1 = z.big_h(1.5) - 1.0;
        z.h_n = z.big_h(z.n + 0.5);
        z.cut = 2.0 - z.big_h_inv(z.big_h(2.5) - z.h(2.0));
        z
    }

    fn h(&self, x: f64) -> f64 {
        (-self.s * x.ln()).exp()
    }

    fn big_h(&self, x: f64) -> f64 {
        let lx = x.ln();
        let t = (1.0 - self.s) * lx;
        let e = if t.abs() > 1e-8 {
            t.exp_m1() / t
        } else {
            1.0 + t / 2.0
        };
        e * lx
    }

    fn big_h_inv(&self, x: f64) -> f64 {
        let t = x * (1.0 - self.s);
        let l = if t.abs() > 1e-8 {
            t.ln_1p() / t
        } else {
            1.0 - t / 2.0
        };
        (l * x).exp()
    }

    /// A rank in `0..n`; rank 0 is the most popular.
    pub fn sample(&self, rng: &mut Rng) -> u64 {
        loop {
            let u = self.h_n + rng.unit() * (self.h_x1 - self.h_n);
            let x = self.big_h_inv(u);
            let k = x.round().clamp(1.0, self.n);
            if k - x <= self.cut || u >= self.big_h(k + 0.5) - self.h(k) {
                return k as u64 - 1;
            }
        }
    }
}

/// How a workload draws line ranks.
#[derive(Debug, Clone)]
pub enum Popularity {
    /// Zipf over every line; ranks below the hot-set size are the
    /// written lines.
    Zipf(Zipf),
    /// Uniform: a read picks the hot set with this probability and
    /// otherwise any line of the key space.
    Uniform { hot_frac: f64 },
}

/// The lines a workload touches. Rank `r` maps to a line by an odd
/// multiplicative permutation of `0..lines` (a power of two), so
/// popular ranks are scattered across channels, banks and cache sets.
/// Ranks `0..hot` form the hot set: the only lines a workload writes,
/// all written during set-up, so the memory the run holds is fixed by
/// its inputs rather than by how long it runs.
#[derive(Debug, Clone)]
pub struct KeySpace {
    /// `(base, lines)` of each region used, interleaved line by line.
    regions: Vec<(u64, u64)>,
    lines: u64,
    pub hot: u64,
    reads: Popularity,
    writes: Option<Zipf>,
}

impl KeySpace {
    /// Builds a key space over the OS-visible part of the regions that
    /// `channels` back, `lines` lines in all (clamped to a power of two
    /// that fits).
    pub fn new(
        map: &MemoryMap,
        channels: &[usize],
        lines: u64,
        hot: u64,
        reads: Popularity,
        write_skew: Option<f64>,
    ) -> Self {
        let regions: Vec<(u64, u64)> = channels
            .iter()
            .map(|&ch| {
                let r = map
                    .regions()
                    .iter()
                    .find(|r| r.channel == ch)
                    .expect("every benchmark channel is in the memory map");
                (r.base, r.os_size / 128)
            })
            .collect();
        let per = regions
            .iter()
            .map(|r| r.1)
            .min()
            .expect("at least one region");
        let fit = (per * regions.len() as u64).min(lines);
        let lines = if fit.is_power_of_two() {
            fit
        } else {
            fit.next_power_of_two() / 2
        };
        KeySpace {
            regions,
            lines,
            hot: hot.min(lines),
            reads,
            writes: write_skew.map(|s| Zipf::new(hot.min(lines), s)),
        }
    }

    /// The physical address of rank `r`.
    pub fn phys(&self, rank: u64) -> u64 {
        let idx = rank.wrapping_mul(0x9E37_79B9_7F4A_7C15 | 1) & (self.lines - 1);
        let n = self.regions.len() as u64;
        let (base, _) = self.regions[(idx % n) as usize];
        base + (idx / n) * 128
    }

    pub fn read_rank(&self, rng: &mut Rng) -> u64 {
        match &self.reads {
            Popularity::Zipf(z) => z.sample(rng),
            Popularity::Uniform { hot_frac } => {
                if rng.chance(*hot_frac) {
                    rng.below(self.hot)
                } else {
                    rng.below(self.lines)
                }
            }
        }
    }

    pub fn write_rank(&self, rng: &mut Rng) -> u64 {
        match &self.writes {
            Some(z) => z.sample(rng),
            None => rng.below(self.hot),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_prefers_low_ranks_and_stays_in_range() {
        let z = Zipf::new(1 << 20, 0.99);
        let mut rng = Rng::new(7);
        let draws: Vec<u64> = (0..20_000).map(|_| z.sample(&mut rng)).collect();
        assert!(draws.iter().all(|&r| r < 1 << 20));
        let top = draws.iter().filter(|&&r| r == 0).count();
        let mid = draws.iter().filter(|&&r| r == 1000).count();
        assert!(top > 500 && top > 5 * mid, "top {top} mid {mid}");
    }

    #[test]
    fn rng_is_seeded() {
        let (mut a, mut b) = (Rng::new(3), Rng::new(3));
        assert!((0..4).all(|_| a.next_u64() == b.next_u64()));
    }
}
