//! Deterministic pseudo-random number generation.
//!
//! Simulation results in this workspace must be a pure function of
//! `(configuration, seed)` so that every experiment is reproducible across
//! machines, thread counts, and library versions. To guarantee that, this
//! module ships a self-contained implementation of the
//! [xoshiro256++](https://prng.di.unimi.it/) generator seeded through
//! SplitMix64, plus the small set of derived samplers the allocation
//! processes need:
//!
//! * unbiased bounded integers via Lemire's multiply–shift rejection method,
//! * uniform `f64` in `[0, 1)` with 53 bits of precision,
//! * standard Gaussians via the Marsaglia polar method (used by the
//!   `σ-Noisy-Load` process of the paper),
//! * Bernoulli trials.
//!
//! # Examples
//!
//! ```
//! use balloc_core::Rng;
//!
//! let mut rng = Rng::from_seed(42);
//! let bin = rng.below(10);
//! assert!(bin < 10);
//!
//! // Two generators with the same seed produce the same stream.
//! let mut a = Rng::from_seed(7);
//! let mut b = Rng::from_seed(7);
//! assert_eq!(a.next_u64(), b.next_u64());
//! ```

/// SplitMix64: a tiny, fast generator used to expand a 64-bit seed into the
/// 256-bit state required by [`Rng`], and to derive independent child seeds.
///
/// # Examples
///
/// ```
/// use balloc_core::rng::SplitMix64;
///
/// let mut sm = SplitMix64::new(1);
/// let first = sm.next_u64();
/// let second = sm.next_u64();
/// assert_ne!(first, second);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a 64-bit seed. Every seed is valid.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Returns the next 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// A deterministic pseudo-random number generator (xoshiro256++).
///
/// All allocation processes in this workspace draw randomness exclusively
/// from this type, which makes a whole simulation run reproducible from a
/// single `u64` seed.
///
/// This is **not** a cryptographic generator; it is a fast, statistically
/// strong generator appropriate for Monte-Carlo simulation.
///
/// # Examples
///
/// ```
/// use balloc_core::Rng;
///
/// let mut rng = Rng::from_seed(0xBA11);
/// let coin = rng.chance(0.5);
/// let noise = rng.gaussian(0.0, 2.0);
/// assert!(noise.is_finite());
/// let _ = coin;
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Rng {
    s: [u64; 4],
    /// Cached second output of the polar method.
    gaussian_spare: Option<f64>,
}

#[inline(always)]
fn rotl(x: u64, k: u32) -> u64 {
    x.rotate_left(k)
}

/// The xoshiro256++ output function of state `s`.
#[inline(always)]
fn output(s: &[u64; 4]) -> u64 {
    rotl(s[0].wrapping_add(s[3]), 23).wrapping_add(s[0])
}

impl Rng {
    /// Creates a generator from a 64-bit seed.
    ///
    /// The 256-bit internal state is derived by running SplitMix64 four
    /// times, as recommended by the xoshiro authors. Every seed (including
    /// zero) yields a valid, non-degenerate state.
    ///
    /// # Examples
    ///
    /// ```
    /// use balloc_core::Rng;
    /// let mut rng = Rng::from_seed(123);
    /// assert!(rng.next_f64() < 1.0);
    /// ```
    #[must_use]
    pub fn from_seed(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let s = [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()];
        Self {
            s,
            gaussian_spare: None,
        }
    }

    /// Creates a generator from raw xoshiro256++ state.
    ///
    /// # Panics
    ///
    /// Panics if the state is all zero (the only degenerate state of the
    /// generator).
    #[must_use]
    pub fn from_state(s: [u64; 4]) -> Self {
        assert!(
            s.iter().any(|&w| w != 0),
            "xoshiro256++ state must not be all zero"
        );
        Self {
            s,
            gaussian_spare: None,
        }
    }

    /// Returns the next 64 uniformly random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = output(&self.s);
        let s = &mut self.s;
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = rotl(s[3], 45);
        result
    }

    /// Returns the output [`next_u64`](Self::next_u64) would return, and
    /// advances the generator only if `advance` holds.
    ///
    /// `next_u64_if(true)` is exactly `next_u64()`; `next_u64_if(false)`
    /// leaves the generator (the cached Gaussian spare included)
    /// unchanged. One call resolves every coin a decision might need —
    /// the noisy deciders read both their tie coin and their `ρ`-coin from
    /// it — with exactly the draw count of the per-ball rule that draws
    /// only when one of them is needed.
    ///
    /// The advance stays a branch on purpose. The condition depends on
    /// freshly loaded bin loads, and it is strongly biased in the noisy
    /// processes (61–100% true in the Fig. 12 sweeps), so the predictor
    /// runs the next ball's draws ahead of the loads; a masked-select
    /// advance makes the generator state wait for the loads instead and
    /// measured slower (see `docs/PERFORMANCE.md`).
    ///
    /// # Examples
    ///
    /// ```
    /// use balloc_core::Rng;
    /// let mut a = Rng::from_seed(8);
    /// let mut b = Rng::from_seed(8);
    /// let peeked = a.next_u64_if(false);
    /// assert_eq!(a, b); // not advanced
    /// assert_eq!(a.next_u64_if(true), peeked);
    /// assert_eq!(b.next_u64(), peeked);
    /// assert_eq!(a, b);
    /// ```
    #[inline]
    pub fn next_u64_if(&mut self, advance: bool) -> u64 {
        if advance {
            self.next_u64()
        } else {
            output(&self.s)
        }
    }

    /// Returns a uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        Self::unit_f64(self.next_u64())
    }

    /// The `[0, 1)` value [`next_f64`](Self::next_f64) makes of the raw
    /// draw `bits`: the top 53 bits times 2⁻⁵³. Lets a caller holding a
    /// raw draw (e.g. from [`next_u64_if`](Self::next_u64_if)) make the
    /// same comparison [`chance`](Self::chance) would.
    #[inline]
    #[must_use]
    pub fn unit_f64(bits: u64) -> f64 {
        (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns a uniform integer in `[0, bound)` without modulo bias
    /// (Lemire's widening-multiply method).
    ///
    /// # Stream-compatibility contract
    ///
    /// The mapping from raw [`next_u64`](Self::next_u64) outputs to bounded
    /// integers is part of this type's **stable determinism contract**: for
    /// a given `bound`, both the *value* returned and the *number of raw
    /// draws consumed* are fixed forever, because every recorded experiment
    /// seed in this workspace depends on them. Concretely:
    ///
    /// * The hot path is a single widening multiply `x · bound >> 64` of one
    ///   raw draw — no modulo. It accepts immediately whenever
    ///   `(x · bound) mod 2⁶⁴ ⩾ bound`, which holds for all draws when
    ///   `bound` divides 2⁶⁴ (powers of two) and with probability
    ///   `1 − bound/2⁶⁴` otherwise; only in the remaining sliver is the
    ///   expensive `2⁶⁴ mod bound` threshold computed and the debiasing
    ///   re-draw loop entered, exactly as in Lemire's reference algorithm.
    /// * For the bin counts used in practice (`bound ≪ 2⁶⁴`) a re-draw is
    ///   essentially never taken, but the tail must never be replaced by
    ///   bit-masking or modulo reduction: those consume the same number of
    ///   draws yet map raw values to *different* outputs, silently changing
    ///   every seeded experiment. (The tail also deliberately stays
    ///   *inline*: extracting it into a `#[cold]` helper measurably slowed
    ///   mixed float/integer deciders such as `σ-Noisy-Load` by ~35% in
    ///   `benches/throughput.rs`, see `docs/PERFORMANCE.md`.)
    ///
    /// [`fill_below`](Self::fill_below) is defined in terms of this
    /// method, so pre-drawing `k` values consumes exactly the same stream
    /// as `k` individual calls.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    ///
    /// # Examples
    ///
    /// ```
    /// use balloc_core::Rng;
    /// let mut rng = Rng::from_seed(9);
    /// for _ in 0..100 {
    ///     assert!(rng.below(7) < 7);
    /// }
    /// ```
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        let mut x = self.next_u64();
        let mut m = (x as u128) * (bound as u128);
        let mut low = m as u64;
        if low < bound {
            let threshold = bound.wrapping_neg() % bound;
            while low < threshold {
                x = self.next_u64();
                m = (x as u128) * (bound as u128);
                low = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Fills `out` with uniform integers in `[0, bound)`, consuming exactly
    /// the same raw stream as `out.len()` successive calls to
    /// [`below`](Self::below).
    ///
    /// Its caller is the serving layer's `SnapshotAllocator::decide_run`,
    /// which draws every candidate of a block of requests in one pass
    /// before scanning its snapshot. Because the per-draw mapping is
    /// identical to `below`, results stay bit-identical at a fixed seed.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    ///
    /// # Examples
    ///
    /// ```
    /// use balloc_core::Rng;
    /// let mut a = Rng::from_seed(3);
    /// let mut b = Rng::from_seed(3);
    /// let mut buf = [0u64; 32];
    /// a.fill_below(10, &mut buf);
    /// for &v in &buf {
    ///     assert_eq!(v, b.below(10));
    /// }
    /// assert_eq!(a, b); // identical streams consumed
    /// ```
    #[inline]
    pub fn fill_below(&mut self, bound: u64, out: &mut [u64]) {
        assert!(bound > 0, "bound must be positive");
        for slot in out {
            *slot = self.below(bound);
        }
    }

    /// Returns a uniform `usize` in `[0, bound)`.
    ///
    /// This is the sampler used for picking bins.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    #[inline]
    pub fn below_usize(&mut self, bound: usize) -> usize {
        self.below(bound as u64) as usize
    }

    /// Returns `true` with probability `p` (clamped to `\[0, 1\]`).
    ///
    /// # Examples
    ///
    /// ```
    /// use balloc_core::Rng;
    /// let mut rng = Rng::from_seed(1);
    /// assert!(!rng.chance(0.0));
    /// assert!(rng.chance(1.0));
    /// ```
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        self.next_f64() < p
    }

    /// Returns a fair coin flip.
    #[inline]
    pub fn coin(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// Returns a standard Gaussian (mean 0, variance 1) via the Marsaglia
    /// polar method.
    #[inline]
    pub fn standard_gaussian(&mut self) -> f64 {
        if let Some(z) = self.gaussian_spare.take() {
            return z;
        }
        loop {
            let u = 2.0 * self.next_f64() - 1.0;
            let v = 2.0 * self.next_f64() - 1.0;
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                let f = (-2.0 * s.ln() / s).sqrt();
                self.gaussian_spare = Some(v * f);
                return u * f;
            }
        }
    }

    /// Returns a Gaussian with the given mean and standard deviation.
    ///
    /// Used by the `σ-Noisy-Load` process, where each sampled bin reports
    /// its load perturbed by `N(0, σ²)`.
    ///
    /// # Panics
    ///
    /// Panics if `std_dev` is negative or not finite.
    #[inline]
    pub fn gaussian(&mut self, mean: f64, std_dev: f64) -> f64 {
        assert!(
            std_dev >= 0.0 && std_dev.is_finite(),
            "standard deviation must be finite and non-negative"
        );
        mean + std_dev * self.standard_gaussian()
    }

    /// Derives an independent child generator.
    ///
    /// The child stream is seeded from the parent's output stream through
    /// SplitMix64, the standard technique for spawning per-run generators
    /// from a master seed.
    ///
    /// # Examples
    ///
    /// ```
    /// use balloc_core::Rng;
    /// let mut master = Rng::from_seed(5);
    /// let mut child_a = master.fork();
    /// let mut child_b = master.fork();
    /// assert_ne!(child_a.next_u64(), child_b.next_u64());
    /// ```
    #[must_use]
    pub fn fork(&mut self) -> Self {
        Self::from_seed(self.next_u64())
    }
}

/// Derives the seed for the `index`-th run of an experiment from a master
/// seed.
///
/// All repetition machinery in the workspace uses this function, so a
/// sequential and a parallel runner produce identical per-run seeds.
///
/// # Examples
///
/// ```
/// use balloc_core::rng::run_seed;
/// assert_eq!(run_seed(99, 3), run_seed(99, 3));
/// assert_ne!(run_seed(99, 3), run_seed(99, 4));
/// ```
#[must_use]
pub fn run_seed(master_seed: u64, index: u64) -> u64 {
    derive_seed(master_seed, index, 0xA076_1D64_78BD_642F)
}

/// Derives the master seed for the `index`-th *parameter point* of a sweep
/// from the sweep's base seed.
///
/// Point seeds pass the base seed through a SplitMix64 mixer before the
/// index enters, so sweeps run with *nearby* base seeds (`s`, `s + 1`, …)
/// still get unrelated per-point seeds. The naive `base + index` derivation
/// this replaces made sweep A's point `j + 1` reuse sweep B's point `j`
/// master seed — silently correlating figures that claim independence.
///
/// The domain tag differs from [`run_seed`]'s, so a point seed can never
/// alias a run seed derived from the same base.
///
/// # Examples
///
/// ```
/// use balloc_core::rng::{point_seed, run_seed};
/// assert_eq!(point_seed(7, 2), point_seed(7, 2));
/// assert_ne!(point_seed(7, 2), point_seed(8, 1));
/// assert_ne!(point_seed(7, 2), run_seed(7, 2));
/// ```
#[must_use]
pub fn point_seed(base_seed: u64, index: u64) -> u64 {
    derive_seed(base_seed, index, 0xE703_7ED1_A0B4_28DB)
}

/// Shared two-stage SplitMix64 derivation: mix the master seed under a
/// domain tag, then mix again with the index folded in through the golden
/// ratio. Both stages run the full avalanche, so neither nearby masters nor
/// nearby indices produce related outputs.
fn derive_seed(master_seed: u64, index: u64, tag: u64) -> u64 {
    let mut sm = SplitMix64::new(master_seed ^ tag);
    let a = sm.next_u64();
    let mut sm2 = SplitMix64::new(a.wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15)));
    sm2.next_u64()
}

/// Incremental 64-bit FNV-1a — the workspace's canonical non-crypto
/// digest, used wherever a stable stream fingerprint feeds the seeding or
/// determinism machinery (the `experiment_seed` domain-tag digest, the
/// serving layer's decision-stream digest).
///
/// Lives next to [`point_seed`] because its outputs typically flow into
/// the seed mixers; like them it is **frozen** — the reference values
/// below pin the constants, since recorded digests (e.g. in
/// `BENCH_baseline.json`) must stay comparable across versions.
///
/// # Examples
///
/// ```
/// use balloc_core::rng::Fnv1a;
///
/// let mut digest = Fnv1a::new();
/// digest.write_bytes(b"abc");
/// // Reference value of 64-bit FNV-1a("abc").
/// assert_eq!(digest.finish(), 0xe71f_a219_0541_574b);
/// assert_eq!(Fnv1a::new().finish(), 0xcbf2_9ce4_8422_2325); // offset basis
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// A digest at the FNV-1a offset basis.
    #[must_use]
    pub fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    /// Folds a byte slice into the digest.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds one `u64` into the digest (little-endian byte order).
    pub fn write_u64(&mut self, value: u64) {
        self.write_bytes(&value.to_le_bytes());
    }

    /// The current digest value.
    #[must_use]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_values() {
        // Reference values for SplitMix64 with seed 1234567, from the
        // public-domain reference implementation by Sebastiano Vigna.
        let mut sm = SplitMix64::new(1234567);
        assert_eq!(sm.next_u64(), 6457827717110365317);
        assert_eq!(sm.next_u64(), 3203168211198807973);
        assert_eq!(sm.next_u64(), 9817491932198370423);
    }

    #[test]
    fn deterministic_across_instances() {
        let mut a = Rng::from_seed(2024);
        let mut b = Rng::from_seed(2024);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Rng::from_seed(1);
        let mut b = Rng::from_seed(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    #[should_panic(expected = "all zero")]
    fn zero_state_rejected() {
        let _ = Rng::from_state([0, 0, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn below_zero_bound_panics() {
        let mut rng = Rng::from_seed(0);
        let _ = rng.below(0);
    }

    #[test]
    fn below_is_in_range_for_awkward_bounds() {
        let mut rng = Rng::from_seed(77);
        for bound in [1u64, 2, 3, 5, 7, 10, 1000, u64::MAX / 2 + 1] {
            for _ in 0..200 {
                assert!(rng.below(bound) < bound);
            }
        }
    }

    #[test]
    fn fill_below_matches_individual_calls() {
        for seed in [0u64, 1, 42, 0xDEAD_BEEF] {
            for bound in [1u64, 2, 7, 64, 10_000, u64::MAX / 2 + 1, u64::MAX] {
                let mut batched = Rng::from_seed(seed);
                let mut single = Rng::from_seed(seed);
                let mut buf = vec![0u64; 257];
                batched.fill_below(bound, &mut buf);
                for (k, &v) in buf.iter().enumerate() {
                    assert_eq!(v, single.below(bound), "seed {seed}, bound {bound}, draw {k}");
                }
                assert_eq!(batched, single, "stream position diverged");
            }
        }
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn fill_below_zero_bound_panics() {
        let mut rng = Rng::from_seed(0);
        rng.fill_below(0, &mut [0u64; 4]);
    }

    #[test]
    fn below_reference_stream_is_stable() {
        // Pin the exact value mapping of Lemire's method: these values are
        // part of the determinism contract (see `below`'s docs). If this
        // test fails, every recorded experiment seed has silently changed.
        let mut rng = Rng::from_seed(1234567);
        let first: Vec<u64> = (0..8).map(|_| rng.below(10_000)).collect();
        assert_eq!(first, vec![236, 4405, 9827, 138, 3258, 1214, 2375, 3259]);
    }

    #[test]
    fn below_one_is_always_zero() {
        let mut rng = Rng::from_seed(3);
        for _ in 0..100 {
            assert_eq!(rng.below(1), 0);
        }
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = Rng::from_seed(88);
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn uniformity_chi_square_below() {
        // 10 buckets, 100k samples. Chi-square with 9 dof: reject above ~27.9
        // at the 0.1% level; a correct generator fails with negligible
        // probability for this fixed seed.
        let mut rng = Rng::from_seed(12345);
        let buckets = 10usize;
        let samples = 100_000usize;
        let mut counts = vec![0usize; buckets];
        for _ in 0..samples {
            counts[rng.below_usize(buckets)] += 1;
        }
        let expected = samples as f64 / buckets as f64;
        let chi2: f64 = counts
            .iter()
            .map(|&c| {
                let d = c as f64 - expected;
                d * d / expected
            })
            .sum();
        assert!(chi2 < 27.9, "chi-square too large: {chi2}");
    }

    #[test]
    fn gaussian_moments() {
        let mut rng = Rng::from_seed(5150);
        let samples = 200_000usize;
        let mut sum = 0.0;
        let mut sum_sq = 0.0;
        for _ in 0..samples {
            let z = rng.standard_gaussian();
            sum += z;
            sum_sq += z * z;
        }
        let mean = sum / samples as f64;
        let var = sum_sq / samples as f64 - mean * mean;
        assert!(mean.abs() < 0.01, "mean too far from 0: {mean}");
        assert!((var - 1.0).abs() < 0.02, "variance too far from 1: {var}");
    }

    #[test]
    fn gaussian_tail_probability() {
        // P(Z > 1.0) = 1 - Φ(1) ≈ 0.15866.
        let mut rng = Rng::from_seed(31337);
        let samples = 200_000usize;
        let above = (0..samples)
            .filter(|_| rng.standard_gaussian() > 1.0)
            .count();
        let p = above as f64 / samples as f64;
        assert!((p - 0.15866).abs() < 0.005, "tail probability off: {p}");
    }

    #[test]
    fn gaussian_scaled_moments() {
        let mut rng = Rng::from_seed(4242);
        let samples = 100_000usize;
        let (mut sum, mut sum_sq) = (0.0, 0.0);
        for _ in 0..samples {
            let z = rng.gaussian(5.0, 3.0);
            sum += z;
            sum_sq += z * z;
        }
        let mean = sum / samples as f64;
        let var = sum_sq / samples as f64 - mean * mean;
        assert!((mean - 5.0).abs() < 0.05);
        assert!((var - 9.0).abs() < 0.3);
    }

    #[test]
    fn chance_extremes() {
        let mut rng = Rng::from_seed(6);
        assert!(!rng.chance(-1.0));
        assert!(rng.chance(2.0));
    }

    #[test]
    fn chance_frequency() {
        let mut rng = Rng::from_seed(808);
        let hits = (0..100_000).filter(|_| rng.chance(0.3)).count();
        let p = hits as f64 / 100_000.0;
        assert!((p - 0.3).abs() < 0.01, "empirical probability off: {p}");
    }

    #[test]
    fn coin_is_roughly_fair() {
        let mut rng = Rng::from_seed(101);
        let heads = (0..100_000).filter(|_| rng.coin()).count();
        assert!((heads as f64 / 100_000.0 - 0.5).abs() < 0.01);
    }

    #[test]
    fn conditional_draw_false_leaves_the_generator_untouched() {
        let mut rng = Rng::from_seed(31);
        // Cache a Gaussian spare: the rollback must keep it too.
        let _ = rng.standard_gaussian();
        let before = rng.clone();
        for _ in 0..100 {
            let _ = rng.next_u64_if(false);
        }
        assert_eq!(rng, before);
        assert_eq!(rng.standard_gaussian(), before.clone().standard_gaussian());
    }

    #[test]
    fn conditional_draw_true_equals_next_u64() {
        let mut conditional = Rng::from_seed(32);
        let mut plain = Rng::from_seed(32);
        let mut pattern = Rng::from_seed(33);
        for _ in 0..1_000 {
            let advance = pattern.coin();
            let peeked = plain.clone().next_u64();
            let got = conditional.next_u64_if(advance);
            assert_eq!(got, peeked);
            if advance {
                assert_eq!(got, plain.next_u64());
            }
            assert_eq!(conditional, plain);
        }
    }

    #[test]
    fn fork_streams_are_decorrelated() {
        let mut master = Rng::from_seed(0);
        let mut a = master.fork();
        let mut b = master.fork();
        let matches = (0..1000).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(matches, 0);
    }

    #[test]
    fn run_seed_is_stable_and_spread() {
        let s0 = run_seed(42, 0);
        let s1 = run_seed(42, 1);
        assert_ne!(s0, s1);
        assert_eq!(s0, run_seed(42, 0));
        // Different master seeds give different run seeds.
        assert_ne!(run_seed(42, 0), run_seed(43, 0));
    }

    #[test]
    fn point_seed_is_stable_and_spread() {
        assert_eq!(point_seed(42, 0), point_seed(42, 0));
        assert_ne!(point_seed(42, 0), point_seed(42, 1));
        assert_ne!(point_seed(42, 0), point_seed(43, 0));
    }

    #[test]
    fn point_seeds_of_adjacent_bases_do_not_shift_align() {
        // Regression for the sweep seed-overlap bug: with the old
        // `base + j` derivation, point_seed(s, j + 1) == point_seed(s + 1, j)
        // for every j, so "independent" sweeps shared almost all seeds.
        for s in [0u64, 1, 41, 42, u64::MAX - 1] {
            for j in 0..32 {
                assert_ne!(
                    point_seed(s, j + 1),
                    point_seed(s + 1, j),
                    "shift-aligned point seeds for base {s}, index {j}"
                );
            }
        }
    }

    #[test]
    fn point_and_run_domains_are_separated() {
        for i in 0..64u64 {
            assert_ne!(point_seed(99, i), run_seed(99, i));
        }
    }
}
