//! Seeded input generation. The generator is the ledger's own (SplitMix64
//! plus a table-driven Zipf sampler) so that a seed names the same inputs
//! on every commit, whatever happens to the workspace's `rand` stand-in.

/// The SplitMix64 finalizer: a bijective scramble of 64 bits.
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// SplitMix64: small, fast, and good enough for workload shaping.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated by `stream` so one run seed
    /// can feed several independent input streams.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is below 2^-40 for
    /// every `n` the ledger uses.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipf(s = 1) over `0..n`: item `i` is drawn with weight `1 / (i + 1)`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// The sampler over `n > 0` items.
    pub fn new(n: usize) -> Zipf {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for i in 0..n {
            acc += 1.0 / (i + 1) as f64;
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// Draws one item index.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c <= u).min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence_and_streams_differ() {
        let draw = |seed, stream| {
            let mut r = Rng::new(seed, stream);
            (0..64).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7, 1), draw(7, 1));
        assert_ne!(draw(7, 1), draw(8, 1));
        assert_ne!(draw(7, 1), draw(7, 2));
        let mut r = Rng::new(3, 0);
        assert!((0..1000).all(|_| r.below(10) < 10));
        assert!((0..1000).all(|_| (0.0..1.0).contains(&r.unit())));
    }

    #[test]
    fn zipf_is_deterministic_and_skewed() {
        let z = Zipf::new(64);
        let draw = |seed| {
            let mut r = Rng::new(seed, 5);
            (0..20_000).map(|_| z.sample(&mut r)).collect::<Vec<_>>()
        };
        let a = draw(11);
        assert_eq!(a, draw(11));
        assert!(a.iter().all(|&i| i < 64));
        let count = |i| a.iter().filter(|&&x| x == i).count();
        // Weight 1/(i+1): the head is about 64x the tail item.
        assert!(count(0) > 10 * count(63).max(1));
        assert!(count(0) > count(1) && count(1) > count(7));
    }
}
