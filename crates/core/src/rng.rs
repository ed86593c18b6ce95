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
    /// Batched samplers ([`fill_below`](Self::fill_below), [`SampleBuf`])
    /// are defined in terms of this method, so pre-drawing `k` values
    /// consumes exactly the same stream as `k` individual calls.
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
    /// This is the batched-draw primitive behind [`SampleBuf`]: hot
    /// allocation loops pre-draw a chunk of bin indices up front, which
    /// separates the serial xoshiro dependency chain from the
    /// memory-bound load lookups that follow. Because the per-draw mapping
    /// is identical to `below`, results stay bit-identical at a fixed seed.
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

/// A reusable buffer of pre-drawn bounded samples for batched hot loops.
///
/// Allocation fast paths draw bin indices in chunks through
/// [`Rng::fill_below`] and then consume them one by one, instead of calling
/// [`Rng::below`] once per ball. The buffer preserves the determinism
/// contract: a refill of `k` samples consumes exactly the stream of `k`
/// individual `below` calls, so interleaving refills with direct draws
/// reproduces the per-ball stream **as long as no other draw happens
/// between the refill point and the consumption of its samples** — which is
/// why batched loops only use it with deciders that promise not to touch
/// the generator ([`Decider::batchable`](crate::Decider::batchable)).
///
/// # Examples
///
/// ```
/// use balloc_core::{Rng, SampleBuf};
///
/// let mut rng = Rng::from_seed(7);
/// let mut buf = SampleBuf::new();
/// buf.refill(&mut rng, 10, 4);
/// assert_eq!(buf.remaining(), 4);
/// while buf.remaining() > 0 {
///     assert!(buf.take() < 10);
/// }
/// ```
#[derive(Debug, Clone, Default)]
pub struct SampleBuf {
    buf: Vec<u64>,
    pos: usize,
}

impl SampleBuf {
    /// Creates an empty buffer (no allocation until the first refill).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Discards any unconsumed samples and refills with `count` fresh draws
    /// from `[0, bound)`.
    ///
    /// Consumes exactly the stream of `count` [`Rng::below`] calls. Callers
    /// must consume every sample before drawing from `rng` through any
    /// other path, otherwise the batched stream diverges from the per-ball
    /// stream.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn refill(&mut self, rng: &mut Rng, bound: u64, count: usize) {
        debug_assert_eq!(
            self.pos,
            self.buf.len(),
            "refilling a SampleBuf with unconsumed samples breaks stream order"
        );
        self.buf.resize(count, 0);
        rng.fill_below(bound, &mut self.buf);
        self.pos = 0;
    }

    /// Takes the next pre-drawn sample.
    ///
    /// # Panics
    ///
    /// Panics if the buffer is exhausted.
    #[inline]
    pub fn take(&mut self) -> u64 {
        let v = self.buf[self.pos];
        self.pos += 1;
        v
    }

    /// Number of unconsumed samples.
    #[inline]
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
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

/// Versioned seeding schemes for lane-parallel generators.
///
/// PR 4's batched engine kept the **frozen stream contract**: every
/// optimization had to consume the exact raw-draw sequence of
/// [`Rng::from_seed`]`(seed)`. Lane-parallel execution cannot — `K`
/// independent streams are by definition not one serial stream — so the
/// contract is *versioned* instead of silently broken. Every interleaved
/// generator names its scheme at construction (enforced by lint
/// `L006 unversioned-seed-scheme`), and every recorded experiment states
/// which scheme it ran:
///
/// * [`V1`](Self::V1) — the frozen serial scheme. A [`LaneRng`] under `V1`
///   has exactly one lane, seeded as [`Rng::from_seed`] has seeded it since
///   PR 1: results are byte-identical to the pre-lane engine at every seed
///   (pinned by `v1_single_lane_reproduces_the_frozen_stream`).
/// * [`V2`](Self::V2) — the lane scheme. Lane `k`'s 256-bit state derives
///   from `Rng::from_seed(`[`lane_seed`]`(master, k))`, i.e. through the
///   blessed two-stage SplitMix64 mixer under a lane-specific domain tag —
///   the `long_jump`-free analogue of xoshiro's stream jumping that reuses
///   the workspace's audited derivation path. `V2` values are **not**
///   comparable to `V1` values at the same seed; they are pinned against a
///   scalar `V2` reference by the lane-equivalence property suite.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SeedScheme {
    /// The frozen serial scheme: one lane, byte-identical to
    /// [`Rng::from_seed`].
    V1,
    /// The lane scheme: lane `k` seeds from [`lane_seed`]`(master, k)`.
    V2,
}

impl std::fmt::Display for SeedScheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::V1 => write!(f, "V1"),
            Self::V2 => write!(f, "V2"),
        }
    }
}

/// Derives the master seed of lane `lane` under [`SeedScheme::V2`].
///
/// Same two-stage domain-tagged SplitMix64 derivation as [`run_seed`] /
/// [`point_seed`], under a third tag, so a lane seed can never alias a run
/// or point seed derived from the same master — and lanes of *nearby*
/// masters stay unrelated (no `base + k` shift alignment).
///
/// # Examples
///
/// ```
/// use balloc_core::rng::{lane_seed, point_seed, run_seed};
/// assert_eq!(lane_seed(7, 3), lane_seed(7, 3));
/// assert_ne!(lane_seed(7, 3), lane_seed(7, 4));
/// assert_ne!(lane_seed(7, 3), run_seed(7, 3));
/// assert_ne!(lane_seed(7, 3), point_seed(7, 3));
/// ```
#[must_use]
pub fn lane_seed(master_seed: u64, lane: u64) -> u64 {
    derive_seed(master_seed, lane, 0x9FB2_1C65_1E98_DF25)
}

/// `K` independent xoshiro256++ streams advanced in lockstep — the
/// lane-parallel engine's generator.
///
/// The scalar hot loops of PR 4 are limited by the xoshiro **dependency
/// chain**: every `next_u64` needs the state produced by the previous one,
/// so the ~4-op critical path serializes and out-of-order execution has
/// nothing to overlap. `LaneRng` keeps the state of `K` independent lanes
/// as arrays-of-lanes (`s0[K] … s3[K]`) and advances all `K` in one pass
/// ([`next_lanes`](Self::next_lanes) / [`below_lanes`](Self::below_lanes)):
/// the per-lane chains are independent, so the `K` advances execute in
/// parallel — by instruction-level parallelism always, and by
/// autovectorization of the state-update loop where the target ISA allows.
///
/// # Stream contract
///
/// Lane `k` of a `LaneRng` produces **exactly** the stream of a scalar
/// [`Rng`] seeded with the same lane seed: `below_lanes(b)[k]` equals the
/// scalar `below(b)` value and consumes the same number of raw draws from
/// lane `k` (Lemire's rejection tail re-draws from that lane alone). That
/// per-lane equivalence is what lets the lane-parallel process kernels be
/// pinned bit-exactly against a scalar round-robin reference.
///
/// Construction requires an explicit [`SeedScheme`]
/// (lint `L006 unversioned-seed-scheme` rejects call sites that hide it):
///
/// # Examples
///
/// ```
/// use balloc_core::rng::{lane_seed, LaneRng, Rng, SeedScheme};
///
/// let mut lanes = LaneRng::<4>::new(SeedScheme::V2, 99);
/// let vals = lanes.next_lanes();
/// // Lane 2 is bit-identical to its scalar twin.
/// let mut twin = Rng::from_seed(lane_seed(99, 2));
/// assert_eq!(vals[2], twin.next_u64());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LaneRng<const K: usize> {
    s0: [u64; K],
    s1: [u64; K],
    s2: [u64; K],
    s3: [u64; K],
    /// Cached second Gaussian outputs, per lane (only reachable through
    /// [`with_lane`](Self::with_lane); the lockstep paths never draw
    /// floats).
    spare: [Option<f64>; K],
    scheme: SeedScheme,
}

impl<const K: usize> LaneRng<K> {
    /// Creates `K` lanes under an explicit seeding scheme.
    ///
    /// # Panics
    ///
    /// Panics if `K == 0`, or if `scheme` is [`SeedScheme::V1`] and
    /// `K != 1` — `V1` *is* the frozen serial stream, so it cannot fan out.
    #[must_use]
    pub fn new(scheme: SeedScheme, master_seed: u64) -> Self {
        assert!(K > 0, "need at least one lane");
        if scheme == SeedScheme::V1 {
            assert!(
                K == 1,
                "SeedScheme::V1 is the frozen serial scheme; lane parallelism (K = {K}) requires SeedScheme::V2"
            );
        }
        let mut s0 = [0u64; K];
        let mut s1 = [0u64; K];
        let mut s2 = [0u64; K];
        let mut s3 = [0u64; K];
        for k in 0..K {
            let seed = match scheme {
                SeedScheme::V1 => master_seed,
                SeedScheme::V2 => lane_seed(master_seed, k as u64),
            };
            let mut sm = SplitMix64::new(seed);
            s0[k] = sm.next_u64();
            s1[k] = sm.next_u64();
            s2[k] = sm.next_u64();
            s3[k] = sm.next_u64();
        }
        Self {
            s0,
            s1,
            s2,
            s3,
            spare: [None; K],
            scheme,
        }
    }

    /// The scheme the lanes were derived under.
    #[must_use]
    pub fn scheme(&self) -> SeedScheme {
        self.scheme
    }

    /// The number of lanes, `K`.
    #[must_use]
    pub fn lanes(&self) -> usize {
        K
    }

    /// Advances every lane one step, returning the `K` outputs in lane
    /// order.
    ///
    /// This is the lockstep primitive: the loop bodies carry no
    /// lane-to-lane dependency, so the `K` state updates overlap instead
    /// of serializing like `K` successive [`Rng::next_u64`] calls.
    #[inline(always)]
    pub fn next_lanes(&mut self) -> [u64; K] {
        let mut out = [0u64; K];
        for (k, o) in out.iter_mut().enumerate() {
            *o = rotl(self.s0[k].wrapping_add(self.s3[k]), 23).wrapping_add(self.s0[k]);
        }
        for k in 0..K {
            let t = self.s1[k] << 17;
            self.s2[k] ^= self.s0[k];
            self.s3[k] ^= self.s1[k];
            self.s1[k] ^= self.s2[k];
            self.s0[k] ^= self.s3[k];
            self.s2[k] ^= t;
            self.s3[k] = rotl(self.s3[k], 45);
        }
        out
    }

    /// Advances lane `k` alone one step (the rejection tail of
    /// [`below_lanes`](Self::below_lanes), which must re-draw from the
    /// offending lane only to preserve the per-lane stream contract).
    #[inline]
    fn step_lane(&mut self, k: usize) -> u64 {
        let result = rotl(self.s0[k].wrapping_add(self.s3[k]), 23).wrapping_add(self.s0[k]);
        let t = self.s1[k] << 17;
        self.s2[k] ^= self.s0[k];
        self.s3[k] ^= self.s1[k];
        self.s1[k] ^= self.s2[k];
        self.s0[k] ^= self.s3[k];
        self.s2[k] ^= t;
        self.s3[k] = rotl(self.s3[k], 45);
        result
    }

    /// Draws one uniform integer in `[0, bound)` from **every** lane,
    /// value- and draw-count-identical per lane to [`Rng::below`].
    ///
    /// The hot path (one widening multiply per lane) is a straight-line
    /// loop over the lockstep outputs; Lemire's debiasing tail — taken
    /// with probability `< bound/2⁶⁴` per lane — runs scalar on the rare
    /// offending lane.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    #[inline(always)]
    pub fn below_lanes(&mut self, bound: u64) -> [u64; K] {
        assert!(bound > 0, "bound must be positive");
        let xs = self.next_lanes();
        let mut out = [0u64; K];
        if bound <= u64::from(u32::MAX) {
            // 64×64→128 widening multiplies do not vectorize; for a 32-bit
            // bound the high half of `x · bound` is exactly expressible in
            // u64 arithmetic (split x = x_hi·2³² + x_lo: both partial
            // products fit in 64 bits), which the autovectorizer turns
            // into packed 32×32 multiplies (`vpmuludq`, available since
            // SSE2). The Lemire rejection test `x·bound mod 2⁶⁴ < bound`
            // is guarded by a strictly weaker filter that avoids ever
            // materializing the low half here: `low mod 2³² = lo_prod
            // mod 2³²`, and `low < bound ⩽ 2³²` forces `low = low mod
            // 2³²`, so `low < bound ⟹ (lo_prod mod 2³²) < bound`. The
            // filter fires with probability `bound/2³²` per lane; the cold
            // handler recomputes the exact `low` and applies the real
            // test, so values and draw counts are untouched. Both compare
            // operands fit in 63 bits, keeping the vector compare signed.
            let mut any_maybe_low = false;
            for k in 0..K {
                let lo_prod = (xs[k] & 0xFFFF_FFFF) * bound;
                let hi_prod = (xs[k] >> 32) * bound;
                out[k] = (hi_prod + (lo_prod >> 32)) >> 32;
                any_maybe_low |= (lo_prod & 0xFFFF_FFFF) < bound;
            }
            if any_maybe_low {
                self.redraw_low_lanes(bound, &mut out, &xs);
            }
        } else {
            let mut low = [0u64; K];
            for k in 0..K {
                let m = (xs[k] as u128) * (bound as u128);
                out[k] = (m >> 64) as u64;
                low[k] = m as u64;
            }
            // Lemire tail, taken with probability < bound/2⁶⁴ per lane:
            // one reduction guards the whole group so the hot path carries
            // a single well-predicted branch instead of K.
            let mut any_low = false;
            for l in low {
                any_low |= l < bound;
            }
            if any_low {
                self.redraw_low_lanes(bound, &mut out, &xs);
            }
        }
        out
    }

    /// Fills `rows` with successive lockstep bounded draw groups: row `r`
    /// is draw-for-draw identical to the `r`-th of `rows.len()` successive
    /// [`below_lanes`](Self::below_lanes) calls.
    ///
    /// This is the block primitive the lane kernels drive. `below_lanes`
    /// must branch to a potential rejection tail once per group, which
    /// forces the lane state back to memory at every group boundary; this
    /// method instead runs the whole block **optimistically** — no calls,
    /// one loop, state promoted to registers throughout — accumulating a
    /// single "any lane may need the tail" flag (fires with probability
    /// `≈ rows·K·bound/2³²`), and on the rare hit rolls the state back to
    /// the block entry and re-runs the block through the careful per-group
    /// path. Values and draw counts are identical either way.
    #[inline]
    pub fn fill_below_lanes(&mut self, bound: u64, rows: &mut [[u64; K]]) {
        assert!(bound > 0, "bound must be positive");
        if bound <= u64::from(u32::MAX) {
            let snap = (self.s0, self.s1, self.s2, self.s3);
            let mut any_maybe_low = false;
            for row in rows.iter_mut() {
                let xs = self.next_lanes();
                for k in 0..K {
                    let lo_prod = (xs[k] & 0xFFFF_FFFF) * bound;
                    let hi_prod = (xs[k] >> 32) * bound;
                    row[k] = (hi_prod + (lo_prod >> 32)) >> 32;
                    any_maybe_low |= (lo_prod & 0xFFFF_FFFF) < bound;
                }
            }
            if any_maybe_low {
                (self.s0, self.s1, self.s2, self.s3) = snap;
                self.refill_below_lanes(bound, rows);
            }
        } else {
            self.refill_below_lanes(bound, rows);
        }
    }

    /// The careful path of [`fill_below_lanes`](Self::fill_below_lanes):
    /// per-group draws with exact tail handling. Out of line — it runs
    /// only when the optimistic block filter fired (or for `> u32::MAX`
    /// bounds, which no allocation kernel uses).
    #[cold]
    #[inline(never)]
    fn refill_below_lanes(&mut self, bound: u64, rows: &mut [[u64; K]]) {
        for row in rows.iter_mut() {
            *row = self.below_lanes(bound);
        }
    }

    /// The rejection tail of [`below_lanes`](Self::below_lanes): recomputes
    /// each lane's exact low product from its raw draw `xs[k]` and re-draws
    /// every lane that fell under the debiasing threshold, from that lane's
    /// stream only. Identical per lane to [`Rng::below`]'s tail. Out of
    /// line — the guarding filter passes fewer than one group in 2³²/bound
    /// at simulation-scale bounds.
    #[cold]
    #[inline(never)]
    fn redraw_low_lanes(&mut self, bound: u64, out: &mut [u64; K], xs: &[u64; K]) {
        for k in 0..K {
            let mut l = xs[k].wrapping_mul(bound);
            if l < bound {
                let threshold = bound.wrapping_neg() % bound;
                while l < threshold {
                    let m = (self.step_lane(k) as u128) * (bound as u128);
                    l = m as u64;
                    out[k] = (m >> 64) as u64;
                }
            }
        }
    }

    /// Draws one bounded integer from lane `k` alone (tail balls of a
    /// lane-parallel run that is not a multiple of `K`).
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0` or `k >= K`.
    #[inline]
    pub fn below_lane(&mut self, k: usize, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        let mut x = self.step_lane(k);
        let mut m = (x as u128) * (bound as u128);
        let mut low = m as u64;
        if low < bound {
            let threshold = bound.wrapping_neg() % bound;
            while low < threshold {
                x = self.step_lane(k);
                m = (x as u128) * (bound as u128);
                low = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Runs `f` against lane `k` materialized as a scalar [`Rng`], writing
    /// the advanced state (including a cached Gaussian spare) back.
    ///
    /// This is the bridge the round-robin **scalar reference** engine and
    /// the non-batchable fallbacks use: any [`Rng`]-consuming code can run
    /// against one lane without breaking the lane's stream.
    pub fn with_lane<T>(&mut self, k: usize, f: impl FnOnce(&mut Rng) -> T) -> T {
        let mut rng = Rng {
            s: [self.s0[k], self.s1[k], self.s2[k], self.s3[k]],
            gaussian_spare: self.spare[k],
        };
        let out = f(&mut rng);
        self.s0[k] = rng.s[0];
        self.s1[k] = rng.s[1];
        self.s2[k] = rng.s[2];
        self.s3[k] = rng.s[3];
        self.spare[k] = rng.gaussian_spare;
        out
    }

    /// Lane `k` as a scalar [`Rng`] (a copy — the lane itself does not
    /// advance). Equivalence suites use this to compare final lane states
    /// against scalar twins.
    ///
    /// # Panics
    ///
    /// Panics if `k >= K`.
    #[must_use]
    pub fn lane(&self, k: usize) -> Rng {
        Rng {
            s: [self.s0[k], self.s1[k], self.s2[k], self.s3[k]],
            gaussian_spare: self.spare[k],
        }
    }
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
    fn sample_buf_round_trips_the_stream() {
        let mut a = Rng::from_seed(99);
        let mut b = Rng::from_seed(99);
        let mut buf = SampleBuf::new();
        // Interleave refills with direct draws; both generators must stay in
        // lock-step as long as every sample is consumed before other draws.
        for chunk in [1usize, 5, 64, 3] {
            buf.refill(&mut a, 12, chunk);
            for _ in 0..chunk {
                assert_eq!(buf.take(), b.below(12));
            }
            assert_eq!(buf.remaining(), 0);
            assert_eq!(a.next_u64(), b.next_u64());
        }
        assert_eq!(a, b);
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

    #[test]
    fn lane_seed_domain_is_separated_and_spread() {
        assert_eq!(lane_seed(42, 0), lane_seed(42, 0));
        assert_ne!(lane_seed(42, 0), lane_seed(42, 1));
        assert_ne!(lane_seed(42, 0), lane_seed(43, 0));
        for i in 0..64u64 {
            assert_ne!(lane_seed(99, i), run_seed(99, i));
            assert_ne!(lane_seed(99, i), point_seed(99, i));
        }
        // No shift alignment between nearby masters (the `base + k` failure
        // mode the two-stage mixer exists to prevent).
        for s in [0u64, 1, 41, 42, u64::MAX - 1] {
            for k in 0..32 {
                assert_ne!(lane_seed(s, k + 1), lane_seed(s + 1, k));
            }
        }
    }

    #[test]
    fn v1_single_lane_reproduces_the_frozen_stream() {
        // SeedScheme::V1 *is* the frozen serial contract: a single-lane
        // LaneRng must be byte-identical to Rng::from_seed at every step.
        let mut lanes = LaneRng::<1>::new(SeedScheme::V1, 1234567);
        let mut scalar = Rng::from_seed(1234567);
        for _ in 0..256 {
            assert_eq!(lanes.next_lanes()[0], scalar.next_u64());
        }
        // And through the bounded path, against the pinned reference values
        // of `below_reference_stream_is_stable`.
        let mut lanes = LaneRng::<1>::new(SeedScheme::V1, 1234567);
        let first: Vec<u64> = (0..8).map(|_| lanes.below_lanes(10_000)[0]).collect();
        assert_eq!(first, vec![236, 4405, 9827, 138, 3258, 1214, 2375, 3259]);
    }

    #[test]
    #[should_panic(expected = "frozen serial scheme")]
    fn v1_rejects_lane_parallelism() {
        let _ = LaneRng::<4>::new(SeedScheme::V1, 7);
    }

    #[test]
    fn v2_lanes_are_bit_identical_to_scalar_twins() {
        const K: usize = 8;
        let master = 0xDEAD_BEEF_u64;
        let mut lanes = LaneRng::<K>::new(SeedScheme::V2, master);
        let mut twins: Vec<Rng> = (0..K)
            .map(|k| Rng::from_seed(lane_seed(master, k as u64)))
            .collect();
        for _ in 0..128 {
            let vals = lanes.next_lanes();
            for k in 0..K {
                assert_eq!(vals[k], twins[k].next_u64());
            }
        }
        for _ in 0..128 {
            let vals = lanes.below_lanes(997);
            for k in 0..K {
                assert_eq!(vals[k], twins[k].below(997));
            }
        }
        // Final states agree too (the lane-equivalence suite's stronger
        // check: same values AND same draw counts).
        for (k, twin) in twins.iter().enumerate() {
            assert_eq!(lanes.lane(k), *twin);
        }
    }

    #[test]
    fn below_lanes_rejection_tail_matches_scalar() {
        // bound > 2^63 makes Lemire's `low < bound` pre-check fire on ~every
        // draw and the debiasing re-draw loop run with probability ~1/2 per
        // draw — the tail path dominates instead of almost never running.
        const K: usize = 4;
        let bound = (u64::MAX / 2) + 3;
        let mut lanes = LaneRng::<K>::new(SeedScheme::V2, 31337);
        let mut twins: Vec<Rng> = (0..K)
            .map(|k| Rng::from_seed(lane_seed(31337, k as u64)))
            .collect();
        for _ in 0..512 {
            let vals = lanes.below_lanes(bound);
            for k in 0..K {
                assert_eq!(vals[k], twins[k].below(bound));
            }
        }
        for (k, twin) in twins.iter().enumerate() {
            assert_eq!(lanes.lane(k), *twin);
        }
    }

    #[test]
    fn fill_below_lanes_matches_repeated_below_lanes() {
        // The block-fill primitive must be draw-for-draw identical to the
        // same number of successive `below_lanes` calls, for every branch:
        // the optimistic fast path (tiny bound — the cheap rejection filter
        // essentially never fires), the snapshot/rollback path (bound close
        // to 2^32 makes the filter fire on ~every lane of every row, so the
        // whole block is re-run through the careful path), and the u128
        // wide path (bound > 2^32, with a >2^63 bound to also stress the
        // debiasing re-draw loop).
        const K: usize = 4;
        for bound in [10_000u64, u64::from(u32::MAX), (u64::MAX / 2) + 3] {
            let mut filled = LaneRng::<K>::new(SeedScheme::V2, 7_777);
            let mut serial = LaneRng::<K>::new(SeedScheme::V2, 7_777);
            for rows_len in [1usize, 2, 16, 33] {
                let mut rows = vec![[0u64; K]; rows_len];
                filled.fill_below_lanes(bound, &mut rows);
                for (r, row) in rows.iter().enumerate() {
                    let expect = serial.below_lanes(bound);
                    assert_eq!(*row, expect, "bound {bound}, rows {rows_len}, row {r}");
                }
                assert_eq!(filled, serial, "bound {bound}, rows {rows_len}");
            }
        }
    }

    #[test]
    fn fill_below_lanes_empty_rows_is_a_no_op() {
        const K: usize = 8;
        let mut lanes = LaneRng::<K>::new(SeedScheme::V2, 12);
        let before = lanes.clone();
        lanes.fill_below_lanes(1_000, &mut []);
        assert_eq!(lanes, before);
    }

    #[test]
    fn below_lane_single_matches_scalar_twin() {
        const K: usize = 4;
        let mut lanes = LaneRng::<K>::new(SeedScheme::V2, 2024);
        let mut twins: Vec<Rng> = (0..K)
            .map(|k| Rng::from_seed(lane_seed(2024, k as u64)))
            .collect();
        // Interleave lockstep draws with single-lane draws (the tail-ball
        // pattern of a run whose length is not a multiple of K).
        for round in 0..64 {
            let vals = lanes.below_lanes(1_000_000);
            for k in 0..K {
                assert_eq!(vals[k], twins[k].below(1_000_000));
            }
            let k = round % K;
            assert_eq!(lanes.below_lane(k, 12_345), twins[k].below(12_345));
        }
        for (k, twin) in twins.iter().enumerate() {
            assert_eq!(lanes.lane(k), *twin);
        }
    }

    #[test]
    fn with_lane_advances_exactly_one_lane() {
        const K: usize = 4;
        let mut lanes = LaneRng::<K>::new(SeedScheme::V2, 555);
        let before: Vec<Rng> = (0..K).map(|k| lanes.lane(k)).collect();
        let drawn = lanes.with_lane(2, |rng| rng.below(100));
        let mut twin = before[2].clone();
        assert_eq!(drawn, twin.below(100));
        for (k, b) in before.iter().enumerate() {
            if k == 2 {
                assert_eq!(lanes.lane(k), twin);
            } else {
                assert_eq!(lanes.lane(k), *b);
            }
        }
        // The Gaussian spare survives the round trip: drawing one Gaussian
        // caches a spare, and the next Gaussian from the same lane consumes
        // it exactly as a scalar Rng would.
        let mut twin_g = lanes.lane(1);
        let g0 = lanes.with_lane(1, |rng| rng.standard_gaussian());
        let g1 = lanes.with_lane(1, |rng| rng.standard_gaussian());
        assert_eq!(g0, twin_g.standard_gaussian());
        assert_eq!(g1, twin_g.standard_gaussian());
        assert_eq!(lanes.lane(1), twin_g);
    }

    #[test]
    fn v2_lane_streams_pairwise_share_no_outputs() {
        // Stream independence over a long prefix: distinct lanes of one
        // V2 generator never emit the same 64-bit output. (For truly random
        // 64-bit streams the collision probability over 8 × 4096 draws is
        // ~2^-41; a shared output would mean correlated lane states.)
        const K: usize = 8;
        const STEPS: usize = 4096;
        let mut lanes = LaneRng::<K>::new(SeedScheme::V2, 1);
        let mut streams: Vec<std::collections::HashSet<u64>> =
            (0..K).map(|_| std::collections::HashSet::new()).collect();
        for _ in 0..STEPS {
            let vals = lanes.next_lanes();
            for k in 0..K {
                streams[k].insert(vals[k]);
            }
        }
        for a in 0..K {
            for b in (a + 1)..K {
                assert!(
                    streams[a].is_disjoint(&streams[b]),
                    "lanes {a} and {b} share a 64-bit output within {STEPS} steps"
                );
            }
        }
    }

    #[test]
    fn lane_rng_scheme_and_width_accessors() {
        let lanes = LaneRng::<16>::new(SeedScheme::V2, 9);
        assert_eq!(lanes.scheme(), SeedScheme::V2);
        assert_eq!(lanes.lanes(), 16);
        assert_eq!(SeedScheme::V1.to_string(), "V1");
        assert_eq!(SeedScheme::V2.to_string(), "V2");
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn below_lanes_zero_bound_panics() {
        let mut lanes = LaneRng::<2>::new(SeedScheme::V2, 0);
        lanes.below_lanes(0);
    }
}
