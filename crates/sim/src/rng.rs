//! The one pseudo-random generator of the simulated system.
//!
//! Every seeded draw — fault injection on a link, think-time jitter in
//! the serving front end — comes from [`SplitMix64`], so a seed is a
//! complete, replayable description of the run.

/// SplitMix64: deterministic, seed-replayable, dependency-free.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A generator whose first draw is the SplitMix64 successor of `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// The next 64 uniform bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform draw in `[0, 1)`: 53 uniform mantissa bits, the
    /// standard `u64 → f64` construction.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The published SplitMix64 sequence from seed 0, and its unit draw.
    #[test]
    fn matches_the_reference_sequence() {
        let mut r = SplitMix64::new(0);
        assert_eq!(r.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(r.next_u64(), 0x6E78_9E6A_A1B9_65F4);
        let u = SplitMix64::new(0).unit();
        assert_eq!(
            u,
            (0xE220_A839_7B1D_CDAFu64 >> 11) as f64 / (1u64 << 53) as f64
        );
        assert!((0.0..1.0).contains(&u));
    }
}
