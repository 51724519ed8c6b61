//! Exact discrete samplers for the batch-epoch execution path.
//!
//! The offline `rand` shim ships no distributions, so the batch-epoch
//! sampler (Berenbrink et al., *Simulating Population Protocols in
//! Sub-Constant Time per Interaction*) gets its randomness from here:
//! binomial draws for omission-fault thinning, (multivariate)
//! hypergeometric draws for splitting an epoch's agents across states,
//! multinomial draws for splitting faults across fault kinds, and a Vose
//! alias table for O(1) repeated categorical draws.
//!
//! All samplers are **exact** (inversion of the true pmf, not normal
//! approximations). The heavy-parameter regimes use mode-centered
//! bidirectional inversion: compute the pmf at the distribution's mode
//! with [`ln_gamma`] once, then walk outward with the pmf's two-term
//! recurrences. That costs O(σ) expected cheap steps per draw — σ is at
//! most √(epoch length) ≈ n¼ in the epoch sampler's use, so draws stay
//! sub-microsecond even at n = 10⁹. Small-mean regimes fall back to plain
//! chop-down inversion from the support's edge.

use rand::{Rng, RngCore};

/// A uniform `f64` in `[0, 1)` built from the top 53 bits of one
/// `next_u64` draw (the shim's `gen_bool` uses the same construction).
#[inline]
pub fn uniform_f64(rng: &mut (impl RngCore + ?Sized)) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

/// A uniform `f64` in the *open* interval `(0, 1)` — rejects the exact
/// zero so callers may take logarithms.
#[inline]
pub fn uniform_open01(rng: &mut (impl RngCore + ?Sized)) -> f64 {
    loop {
        let u = uniform_f64(rng);
        if u > 0.0 {
            return u;
        }
    }
}

/// Natural log of the Gamma function, Lanczos approximation (g = 7,
/// 9 terms; ~1e-14 relative accuracy for the positive reals).
///
/// The epoch-length survival function and every pmf-at-mode computation
/// funnel through this, so it avoids `powf` in favour of two `ln` calls.
///
/// # Panics
///
/// Panics on non-positive integers (poles of Γ).
pub fn ln_gamma(x: f64) -> f64 {
    const COEF: [f64; 8] = [
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    const HALF_LN_2PI: f64 = 0.918_938_533_204_672_7;
    if x < 0.5 {
        // Reflection: ln Γ(x) = ln(π / sin(πx)) − ln Γ(1 − x).
        let s = (std::f64::consts::PI * x).sin();
        assert!(s != 0.0, "ln_gamma pole at {x}");
        return std::f64::consts::PI.ln() - s.abs().ln() - ln_gamma(1.0 - x);
    }
    let z = x - 1.0;
    let t = z + 7.5;
    let mut ser = 0.999_999_999_999_809_9;
    for (i, c) in COEF.iter().enumerate() {
        ser += c / (z + (i + 1) as f64);
    }
    HALF_LN_2PI + (z + 0.5) * t.ln() - t + ser.ln()
}

/// Factorials with an exact table below this bound and Stirling's series
/// above it. 1024 comfortably covers every "small" argument of the epoch
/// sampler's pmf computations (sample sizes are ≈ √n ≤ 2¹⁵ only for
/// n ≥ 10⁹; modes and remainders of typical draws sit well below the
/// bound), and the series is ~1e-24 accurate from the bound upward.
const LN_FACT_TABLE_LEN: usize = 1024;

/// ln n! for `n < LN_FACT_TABLE_LEN`, built once from [`ln_gamma`].
fn ln_fact_table() -> &'static [f64] {
    use std::sync::OnceLock;
    static TABLE: OnceLock<Vec<f64>> = OnceLock::new();
    TABLE.get_or_init(|| {
        (0..LN_FACT_TABLE_LEN)
            .map(|n| ln_gamma(n as f64 + 1.0))
            .collect()
    })
}

/// ln n! = ln Γ(n + 1).
///
/// This is the hot inner call of every pmf-at-mode computation: the epoch
/// sampler takes a few hypergeometric draws per epoch and each costs nine
/// of these, so the generic Lanczos path is replaced by a table lookup
/// for small `n` and Stirling's series (three correction terms, error
/// < 1e-20 relative at the crossover) for large `n`.
#[inline]
fn ln_fact(n: u64) -> f64 {
    if (n as usize) < LN_FACT_TABLE_LEN {
        ln_fact_table()[n as usize]
    } else {
        const HALF_LN_2PI: f64 = 0.918_938_533_204_672_7;
        let x = n as f64;
        let inv = 1.0 / x;
        let inv2 = inv * inv;
        (x + 0.5) * x.ln() - x
            + HALF_LN_2PI
            + inv * (1.0 / 12.0 - inv2 * (1.0 / 360.0 - inv2 / 1260.0))
    }
}

/// ln C(n, k); caller guarantees `k <= n`.
#[inline]
fn ln_choose(n: u64, k: u64) -> f64 {
    debug_assert!(k <= n);
    ln_fact(n) - ln_fact(k) - ln_fact(n - k)
}

/// Inversion walk outward from the pmf's mode.
///
/// `u` is the (residual) uniform variate; `up(k)` is `pmf(k+1)/pmf(k)`
/// and `down(k)` is `pmf(k-1)/pmf(k)`, valid on `[lo_min, hi_max]`. Each
/// step extends whichever side currently carries more mass, so the terms
/// are consumed in near-decreasing order. Exactness does not depend on
/// the order — any deterministic enumeration of the full support inverts
/// the cdf exactly; the order only buys the O(σ) expected walk length.
fn invert_from_mode(
    mode: u64,
    pmf_mode: f64,
    lo_min: u64,
    hi_max: u64,
    mut up: impl FnMut(u64) -> f64,
    mut down: impl FnMut(u64) -> f64,
    mut u: f64,
) -> u64 {
    if u <= pmf_mode {
        return mode;
    }
    u -= pmf_mode;
    let (mut lo, mut hi) = (mode, mode);
    let (mut p_lo, mut p_hi) = (pmf_mode, pmf_mode);
    loop {
        let can_up = hi < hi_max;
        let can_down = lo > lo_min;
        if !can_up && !can_down {
            // Floating-point residue past the total mass: return the
            // boundary on the heavier side.
            return if p_hi >= p_lo { hi } else { lo };
        }
        if can_up && (!can_down || p_hi >= p_lo) {
            p_hi *= up(hi);
            hi += 1;
            if u <= p_hi {
                return hi;
            }
            u -= p_hi;
        } else {
            p_lo *= down(lo);
            lo -= 1;
            if u <= p_lo {
                return lo;
            }
            u -= p_lo;
        }
    }
}

/// A Binomial(n, p) draw: the number of successes among `n` independent
/// trials of probability `p`.
///
/// The epoch path uses this to split an epoch's interaction groups
/// across their outcome classes, and to draw the omissive share of the
/// interactions whose class mixes omissive and fault-free faults. Small `n·min(p,1−p)` uses chop-down
/// inversion (BINV); large means use mode-centered inversion with one
/// [`ln_gamma`]-computed pmf.
///
/// # Panics
///
/// Panics if `p` is not in `[0, 1]`.
pub fn binomial(n: u64, p: f64, rng: &mut (impl RngCore + ?Sized)) -> u64 {
    assert!((0.0..=1.0).contains(&p), "binomial p out of range: {p}");
    if n == 0 || p == 0.0 {
        return 0;
    }
    if p == 1.0 {
        return n;
    }
    // Work in the p ≤ 1/2 half; mirror the draw back at the end.
    let flipped = p > 0.5;
    let q = if flipped { 1.0 - p } else { p };
    let k = if n as f64 * q < 30.0 {
        binomial_chop_down(n, q, rng)
    } else {
        binomial_from_mode(n, q, rng)
    };
    if flipped {
        n - k
    } else {
        k
    }
}

/// BINV: cdf chop-down from k = 0; O(n·p) expected steps.
fn binomial_chop_down(n: u64, p: f64, rng: &mut (impl RngCore + ?Sized)) -> u64 {
    let odds = p / (1.0 - p);
    // pmf(0) = (1-p)^n. `ln_1p` keeps full relative precision for small
    // p, where rounding 1 - p first would lose ≈ ε/p of it.
    let mut f = ((-p).ln_1p() * n as f64).exp();
    let mut u = uniform_f64(rng);
    let mut k = 0u64;
    loop {
        if u <= f {
            return k;
        }
        u -= f;
        k += 1;
        if k > n {
            // fp residue past the total mass.
            return n;
        }
        f *= odds * (n - k + 1) as f64 / k as f64;
    }
}

/// Mode-centered inversion; O(√(n·p·(1−p))) expected steps.
fn binomial_from_mode(n: u64, p: f64, rng: &mut (impl RngCore + ?Sized)) -> u64 {
    let q = 1.0 - p;
    let odds = p / q;
    let mode = ((((n + 1) as f64) * p).floor() as u64).min(n);
    let ln_pmf = ln_choose(n, mode) + mode as f64 * p.ln() + (n - mode) as f64 * q.ln();
    let pmf_mode = ln_pmf.exp();
    let u = uniform_f64(rng);
    invert_from_mode(
        mode,
        pmf_mode,
        0,
        n,
        |k| odds * (n - k) as f64 / (k + 1) as f64,
        |k| k as f64 / (odds * (n - k + 1) as f64),
        u,
    )
}

/// A Hypergeometric(ngood, nbad, nsample) draw: how many of `nsample`
/// agents drawn without replacement from an urn of `ngood + nbad` come
/// from the `ngood` side.
///
/// This is the epoch sampler's workhorse: every split of an epoch's
/// agents across states is a chain of these. Mode-centered inversion,
/// with a direct chop-down from the support edge when the support is
/// tiny.
///
/// # Panics
///
/// Panics if `nsample > ngood + nbad`.
pub fn hypergeometric(
    ngood: u64,
    nbad: u64,
    nsample: u64,
    rng: &mut (impl RngCore + ?Sized),
) -> u64 {
    let total = ngood + nbad;
    assert!(
        nsample <= total,
        "hypergeometric sample {nsample} exceeds urn {total}"
    );
    // Support: k ∈ [max(0, nsample − nbad), min(ngood, nsample)].
    let k_min = nsample.saturating_sub(nbad);
    let k_max = ngood.min(nsample);
    if k_min == k_max {
        return k_min;
    }
    // Cheap exact path when one side of the urn is tiny — the dominant
    // regime of epoch-driven runs, where most epochs fire while some
    // state holds only a handful of agents. With the small side as the
    // "good" half (mirroring k ↦ nsample − k if needed) and the sample
    // fitting in the big half, the support starts at 0, pmf(0) is a
    // product of `small` ratios, and a chop-down walk of expected length
    // `nsample·small/total` finishes the draw — no logs, no exp.
    const SMALL_SIDE: u64 = 16;
    let small = ngood.min(nbad);
    if small <= SMALL_SIDE && nsample <= total - small {
        let (g, b, mirrored) = if ngood <= nbad {
            (ngood, nbad, false)
        } else {
            (nbad, ngood, true)
        };
        let mut f = 1.0f64;
        for i in 1..=g {
            f *= (b - nsample + i) as f64 / (b + i) as f64;
        }
        let mut u = uniform_f64(rng);
        let mut k = 0u64;
        let top = g.min(nsample);
        while u > f && k < top {
            u -= f;
            f *= ((g - k) as f64 * (nsample - k) as f64)
                / ((k + 1) as f64 * (b - nsample + k + 1) as f64);
            k += 1;
        }
        return if mirrored { nsample - k } else { k };
    }
    // Mode of the pmf, clamped into the support.
    let mode =
        (((nsample + 1) as f64) * ((ngood + 1) as f64) / ((total + 2) as f64)).floor() as u64;
    let mode = mode.clamp(k_min, k_max);
    let ln_pmf =
        ln_choose(ngood, mode) + ln_choose(nbad, nsample - mode) - ln_choose(total, nsample);
    let pmf_mode = ln_pmf.exp();
    let u = uniform_f64(rng);
    // pmf(k+1)/pmf(k) = (ngood−k)(nsample−k) / ((k+1)(nbad−nsample+k+1))
    invert_from_mode(
        mode,
        pmf_mode,
        k_min,
        k_max,
        |k| {
            ((ngood - k) as f64 * (nsample - k) as f64)
                / ((k + 1) as f64 * (nbad + k + 1 - nsample) as f64)
        },
        |k| {
            (k as f64 * (nbad + k - nsample) as f64)
                / ((ngood - k + 1) as f64 * (nsample - k + 1) as f64)
        },
        u,
    )
}

/// A multivariate hypergeometric draw: splits `nsample` agents drawn
/// without replacement across the state groups of `counts`.
///
/// Returns a vector aligned with `counts` summing to `nsample`, via the
/// standard chain of conditional (univariate) hypergeometric draws.
///
/// # Panics
///
/// Panics if `nsample` exceeds the sum of `counts`.
pub fn multivariate_hypergeometric(
    counts: &[u64],
    nsample: u64,
    rng: &mut (impl RngCore + ?Sized),
) -> Vec<u64> {
    let mut remaining_total: u64 = counts.iter().sum();
    assert!(
        nsample <= remaining_total,
        "multivariate hypergeometric sample {nsample} exceeds population {remaining_total}"
    );
    let mut remaining_sample = nsample;
    let mut out = vec![0u64; counts.len()];
    for (i, &c) in counts.iter().enumerate() {
        if remaining_sample == 0 {
            break;
        }
        remaining_total -= c;
        if remaining_total == 0 {
            // Last non-exhausted group takes the rest.
            out[i] = remaining_sample;
            remaining_sample = 0;
            break;
        }
        let k = hypergeometric(c, remaining_total, remaining_sample, rng);
        out[i] = k;
        remaining_sample -= k;
    }
    debug_assert_eq!(remaining_sample, 0);
    out
}

/// A Multinomial(n, weights) draw: splits `n` trials across categories
/// proportionally to `weights` (not necessarily normalized), via the
/// chain of conditional binomials.
///
/// The epoch path uses this to split an interaction group's omissive
/// portion across the permitted fault kinds.
///
/// # Panics
///
/// Panics if `weights` is empty, contains a negative or non-finite
/// weight, or sums to zero while `n > 0`.
pub fn multinomial(n: u64, weights: &[f64], rng: &mut (impl RngCore + ?Sized)) -> Vec<u64> {
    assert!(
        !weights.is_empty(),
        "multinomial needs at least one category"
    );
    let mut total: f64 = 0.0;
    for &w in weights {
        assert!(w.is_finite() && w >= 0.0, "multinomial weight {w} invalid");
        total += w;
    }
    let mut out = vec![0u64; weights.len()];
    if n == 0 {
        return out;
    }
    assert!(total > 0.0, "multinomial weights sum to zero");
    let mut remaining = n;
    for (i, &w) in weights.iter().enumerate() {
        if remaining == 0 {
            break;
        }
        if w >= total {
            // Last category with mass takes the rest (also dodges fp
            // drift pushing p above 1).
            out[i] = remaining;
            remaining = 0;
            break;
        }
        let k = binomial(remaining, w / total, rng);
        out[i] = k;
        remaining -= k;
        total -= w;
    }
    // fp drift can strand trials if trailing weights round to zero mass;
    // pile them on the last category, which is where the drift lives.
    if remaining > 0 {
        *out.last_mut().expect("non-empty") += remaining;
    }
    out
}

/// A Vose alias table: O(len) construction over arbitrary non-negative
/// weights, then O(1) categorical draws.
///
/// The epoch sampler builds one per driver call over the run's fault mix
/// and draws the fault of every epoch's closing collision from it; any
/// workload drawing many times from a fixed weighting can reuse one.
///
/// # Example
///
/// ```
/// use ppfts_population::dist::AliasTable;
/// use rand::rngs::SmallRng;
/// use rand::SeedableRng;
///
/// let table = AliasTable::new(&[1.0, 0.0, 3.0]).unwrap();
/// let mut rng = SmallRng::seed_from_u64(1);
/// let i = table.sample(&mut rng);
/// assert!(i == 0 || i == 2); // zero-weight categories never drawn
/// ```
#[derive(Clone, Debug)]
pub struct AliasTable {
    /// Acceptance threshold per cell, in `[0, 1]`.
    prob: Vec<f64>,
    /// Donor category used when a cell's threshold rejects.
    alias: Vec<usize>,
}

impl AliasTable {
    /// Builds the table; returns `None` if `weights` is empty, contains a
    /// negative or non-finite entry, or sums to zero.
    pub fn new(weights: &[f64]) -> Option<Self> {
        let n = weights.len();
        if n == 0 {
            return None;
        }
        let mut total = 0.0;
        for &w in weights {
            if !w.is_finite() || w < 0.0 {
                return None;
            }
            total += w;
        }
        if total <= 0.0 {
            return None;
        }
        // Vose's partition into small (< 1) and large (≥ 1) scaled cells.
        let scale = n as f64 / total;
        let mut scaled: Vec<f64> = weights.iter().map(|&w| w * scale).collect();
        let mut prob = vec![1.0f64; n];
        let mut alias: Vec<usize> = (0..n).collect();
        let mut small: Vec<usize> = Vec::new();
        let mut large: Vec<usize> = Vec::new();
        for (i, &s) in scaled.iter().enumerate() {
            if s < 1.0 {
                small.push(i);
            } else {
                large.push(i);
            }
        }
        while let (Some(s), Some(&l)) = (small.pop(), large.last()) {
            prob[s] = scaled[s];
            alias[s] = l;
            scaled[l] -= 1.0 - scaled[s];
            if scaled[l] < 1.0 {
                large.pop();
                small.push(l);
            }
        }
        // Leftovers on either list are 1.0 cells up to fp drift.
        for i in small.into_iter().chain(large) {
            prob[i] = 1.0;
            alias[i] = i;
        }
        Some(AliasTable { prob, alias })
    }

    /// Number of categories.
    pub fn len(&self) -> usize {
        self.prob.len()
    }

    /// Whether the table has no categories (never true for a built table).
    pub fn is_empty(&self) -> bool {
        self.prob.is_empty()
    }

    /// Draws one category index, consuming one range draw and one
    /// uniform.
    pub fn sample(&self, rng: &mut (impl RngCore + ?Sized)) -> usize {
        let i = rng.gen_range(0..self.prob.len());
        if uniform_f64(rng) < self.prob[i] {
            i
        } else {
            self.alias[i]
        }
    }
}

/// SplitMix64 finalizer: a fast, high-quality bijective mixer on `u64`.
///
/// Used by [`hash_bernoulli`] to derive per-step pseudo-random decisions
/// without consuming state from a stream RNG, so callers stay replayable
/// and compatible with bulk pair drawing (`uses_rng() == false` paths).
#[must_use]
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Deterministic Bernoulli trial keyed by `(key, salt)`.
///
/// Returns `true` with probability `rate` (clamped to `[0, 1]`) as a pure
/// function of its arguments: the same `(key, salt, rate)` triple always
/// yields the same answer. The decision compares `splitmix64(key ^
/// splitmix64(salt))`, interpreted as a uniform draw on `[0, 2⁶⁴)`,
/// against `rate` scaled to the same range.
///
/// This is the primitive behind rate segments in omission-fault
/// schedules: an adversary built from it needs no RNG stream, so runs
/// replay bit-identically and the engine's batched pair-draw fast path
/// stays enabled.
///
/// # Example
///
/// ```
/// use ppfts_population::dist::hash_bernoulli;
///
/// // Pure in its arguments.
/// assert_eq!(hash_bernoulli(42, 7, 0.3), hash_bernoulli(42, 7, 0.3));
/// // Degenerate rates are exact.
/// assert!(!hash_bernoulli(1, 2, 0.0));
/// assert!(hash_bernoulli(1, 2, 1.0));
/// ```
#[must_use]
pub fn hash_bernoulli(key: u64, salt: u64, rate: f64) -> bool {
    if rate <= 0.0 {
        return false;
    }
    if rate >= 1.0 {
        return true;
    }
    let draw = splitmix64(key ^ splitmix64(salt));
    // Threshold in [0, 2^64): use 2^64 · rate via the 2^63 ladder to stay
    // inside f64→u64 range.
    let threshold = (rate * 2.0 * 9_223_372_036_854_775_808.0) as u64;
    draw < threshold
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// χ² statistic of `observed` against `expected` counts, merging
    /// trailing low-expectation bins so every cell has expectation ≥ 5.
    fn chi_square(observed: &[f64], expected: &[f64]) -> (f64, usize) {
        assert_eq!(observed.len(), expected.len());
        let mut chi2 = 0.0;
        let mut bins = 0usize;
        let (mut obs_acc, mut exp_acc) = (0.0, 0.0);
        for (&o, &e) in observed.iter().zip(expected) {
            obs_acc += o;
            exp_acc += e;
            if exp_acc >= 5.0 {
                chi2 += (obs_acc - exp_acc).powi(2) / exp_acc;
                bins += 1;
                obs_acc = 0.0;
                exp_acc = 0.0;
            }
        }
        if exp_acc > 0.0 {
            chi2 += (obs_acc - exp_acc).powi(2) / exp_acc;
            bins += 1;
        }
        (chi2, bins)
    }

    /// Exact Binomial(n, p) pmf via the multiplicative recurrence.
    fn binomial_pmf(n: u64, p: f64) -> Vec<f64> {
        let mut pmf = vec![0.0; n as usize + 1];
        pmf[0] = (1.0 - p).powi(n as i32);
        for k in 1..=n as usize {
            pmf[k] = pmf[k - 1] * (p / (1.0 - p)) * (n as f64 - k as f64 + 1.0) / k as f64;
        }
        pmf
    }

    /// Exact Hypergeometric pmf over the full `0..=nsample` range.
    fn hypergeometric_pmf(ngood: u64, nbad: u64, nsample: u64) -> Vec<f64> {
        (0..=nsample)
            .map(|k| {
                if k > ngood || nsample - k > nbad {
                    0.0
                } else {
                    (ln_choose(ngood, k) + ln_choose(nbad, nsample - k)
                        - ln_choose(ngood + nbad, nsample))
                    .exp()
                }
            })
            .collect()
    }

    #[test]
    fn ln_gamma_matches_known_values() {
        let cases = [
            (1.0, 0.0),
            (2.0, 0.0),
            (5.0, 24.0f64.ln()),
            (11.0, 3_628_800.0f64.ln()),
            (0.5, std::f64::consts::PI.ln() / 2.0),
        ];
        for (x, want) in cases {
            assert!(
                (ln_gamma(x) - want).abs() < 1e-10,
                "ln_gamma({x}) = {} want {want}",
                ln_gamma(x)
            );
        }
        // Large-argument spot check against Stirling's series.
        let x = 1e8f64;
        let stirling = (x - 0.5) * x.ln() - x + 0.918_938_533_204_672_7 + 1.0 / (12.0 * x);
        assert!((ln_gamma(x) - stirling).abs() / stirling < 1e-12);
    }

    #[test]
    fn ln_fact_agrees_with_ln_gamma_across_the_crossover() {
        for n in [
            0u64,
            1,
            2,
            5,
            100,
            1_022,
            1_023,
            1_024,
            1_025,
            10_000,
            1_000_000_000,
        ] {
            let want = ln_gamma(n as f64 + 1.0);
            let got = ln_fact(n);
            let tol = 1e-12 * want.abs().max(1.0);
            assert!((got - want).abs() < tol, "ln_fact({n}) = {got} want {want}");
        }
    }

    #[test]
    fn uniform_f64_stays_in_unit_interval() {
        let mut rng = SmallRng::seed_from_u64(11);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let u = uniform_f64(&mut rng);
            assert!((0.0..1.0).contains(&u));
            sum += u;
        }
        assert!((sum / 10_000.0 - 0.5).abs() < 0.02);
        assert!(uniform_open01(&mut rng) > 0.0);
    }

    #[test]
    fn binomial_edge_cases() {
        let mut rng = SmallRng::seed_from_u64(1);
        assert_eq!(binomial(0, 0.5, &mut rng), 0);
        assert_eq!(binomial(100, 0.0, &mut rng), 0);
        assert_eq!(binomial(100, 1.0, &mut rng), 100);
        for _ in 0..100 {
            assert!(binomial(10, 0.5, &mut rng) <= 10);
        }
    }

    /// Replays one fixed `u64`, so `uniform_f64` returns a chosen `u`.
    struct FixedRng(u64);

    impl rand::RngCore for FixedRng {
        fn next_u32(&mut self) -> u32 {
            (self.0 >> 32) as u32
        }
        fn next_u64(&mut self) -> u64 {
            self.0
        }
    }

    #[test]
    fn binomial_chop_down_keeps_pmf0_precise_at_tiny_p() {
        // n·p = 20: pmf(0) = (1 − p)^n = e^(−20 − n·p²/2 − …), and the
        // n·p² term is 10⁻¹¹. Rounding 1 − p to a double moves p by
        // ≈ 2·10⁻⁵ relative here, and pmf(0) by ≈ 4·10⁻⁴.
        let (n, p) = (20_000_000_000_000u64, 1e-12);
        let pmf0 = (-20.0f64).exp();
        let rng_at = |u: f64| FixedRng(((u * (1u64 << 53) as f64) as u64) << 11);
        // u just below pmf(0) draws 0, just above it draws 1.
        assert_eq!(binomial(n, p, &mut rng_at(pmf0 * (1.0 - 2e-4))), 0);
        assert_eq!(binomial(n, p, &mut rng_at(pmf0 * (1.0 + 2e-4))), 1);
    }

    #[test]
    fn binomial_mean_and_variance_both_regimes() {
        // (n, p) pairs hitting the chop-down (mean < 30) and the
        // mode-centered (mean ≥ 30) regimes, including a mirrored p.
        for (n, p) in [(200u64, 0.05), (1_000u64, 0.3), (500u64, 0.9)] {
            let mut rng = SmallRng::seed_from_u64(42);
            let trials = 20_000u64;
            let (mut sum, mut sum_sq) = (0.0f64, 0.0f64);
            for _ in 0..trials {
                let k = binomial(n, p, &mut rng) as f64;
                sum += k;
                sum_sq += k * k;
            }
            let mean = sum / trials as f64;
            let var = sum_sq / trials as f64 - mean * mean;
            let want_mean = n as f64 * p;
            let want_var = n as f64 * p * (1.0 - p);
            // 5σ tolerance on the sample mean; 10% on the variance.
            let tol = 5.0 * (want_var / trials as f64).sqrt();
            assert!(
                (mean - want_mean).abs() < tol,
                "Binomial({n},{p}) mean {mean} want {want_mean} ± {tol}"
            );
            assert!(
                (var - want_var).abs() < 0.1 * want_var,
                "Binomial({n},{p}) var {var} want {want_var}"
            );
        }
    }

    #[test]
    fn binomial_goodness_of_fit_chop_down_regime() {
        let (n, p) = (20u64, 0.35);
        let mut rng = SmallRng::seed_from_u64(7);
        let trials = 40_000u64;
        let mut observed = vec![0.0f64; n as usize + 1];
        for _ in 0..trials {
            observed[binomial(n, p, &mut rng) as usize] += 1.0;
        }
        let expected: Vec<f64> = binomial_pmf(n, p)
            .iter()
            .map(|q| q * trials as f64)
            .collect();
        let (chi2, bins) = chi_square(&observed, &expected);
        // df ≈ bins − 1 ≤ 20; χ²₀.₉₉₉(20) ≈ 45.3.
        assert!(chi2 < 46.0, "χ² = {chi2} over {bins} bins");
    }

    #[test]
    fn binomial_goodness_of_fit_mode_regime() {
        let (n, p) = (400u64, 0.5);
        let mut rng = SmallRng::seed_from_u64(13);
        let trials = 40_000u64;
        let mut observed = vec![0.0f64; n as usize + 1];
        for _ in 0..trials {
            observed[binomial(n, p, &mut rng) as usize] += 1.0;
        }
        let expected: Vec<f64> = binomial_pmf(n, p)
            .iter()
            .map(|q| q * trials as f64)
            .collect();
        let (chi2, bins) = chi_square(&observed, &expected);
        // The ±5σ window around the mode spans ~50 populated bins;
        // χ²₀.₉₉₉(60) ≈ 99.6.
        assert!(bins > 20, "degenerate binning: {bins}");
        assert!(chi2 < 100.0, "χ² = {chi2} over {bins} bins");
    }

    #[test]
    fn hypergeometric_edge_cases() {
        let mut rng = SmallRng::seed_from_u64(5);
        assert_eq!(hypergeometric(5, 5, 0, &mut rng), 0);
        assert_eq!(hypergeometric(0, 9, 4, &mut rng), 0);
        assert_eq!(hypergeometric(9, 0, 4, &mut rng), 4);
        assert_eq!(hypergeometric(3, 4, 7, &mut rng), 3); // whole urn
        for _ in 0..200 {
            let k = hypergeometric(6, 3, 5, &mut rng);
            assert!((2..=5).contains(&k), "k = {k} outside support");
        }
    }

    #[test]
    fn hypergeometric_mean_and_variance() {
        // Epoch-scale parameters: a √n-sized sample from a large urn.
        let (ngood, nbad, nsample) = (600_000u64, 400_000u64, 1_000u64);
        let mut rng = SmallRng::seed_from_u64(23);
        let trials = 20_000u64;
        let (mut sum, mut sum_sq) = (0.0f64, 0.0f64);
        for _ in 0..trials {
            let k = hypergeometric(ngood, nbad, nsample, &mut rng) as f64;
            sum += k;
            sum_sq += k * k;
        }
        let total = (ngood + nbad) as f64;
        let frac = ngood as f64 / total;
        let want_mean = nsample as f64 * frac;
        let want_var =
            nsample as f64 * frac * (1.0 - frac) * (total - nsample as f64) / (total - 1.0);
        let mean = sum / trials as f64;
        let var = sum_sq / trials as f64 - mean * mean;
        let tol = 5.0 * (want_var / trials as f64).sqrt();
        assert!(
            (mean - want_mean).abs() < tol,
            "mean {mean} want {want_mean}"
        );
        assert!(
            (var - want_var).abs() < 0.1 * want_var,
            "var {var} want {want_var}"
        );
    }

    #[test]
    fn hypergeometric_goodness_of_fit() {
        let (ngood, nbad, nsample) = (30u64, 50u64, 20u64);
        let mut rng = SmallRng::seed_from_u64(31);
        let trials = 40_000u64;
        let mut observed = vec![0.0f64; nsample as usize + 1];
        for _ in 0..trials {
            observed[hypergeometric(ngood, nbad, nsample, &mut rng) as usize] += 1.0;
        }
        let expected: Vec<f64> = hypergeometric_pmf(ngood, nbad, nsample)
            .iter()
            .map(|q| q * trials as f64)
            .collect();
        let (chi2, bins) = chi_square(&observed, &expected);
        // df ≤ 20; χ²₀.₉₉₉(20) ≈ 45.3.
        assert!(chi2 < 46.0, "χ² = {chi2} over {bins} bins");
    }

    #[test]
    fn hypergeometric_small_side_goodness_of_fit() {
        // Exercises the tiny-urn-side chop-down path directly (ngood
        // small) and through the mirror (nbad small).
        for (ngood, nbad, nsample) in [(9u64, 2_000u64, 700u64), (2_000, 9, 700)] {
            let mut rng = SmallRng::seed_from_u64(41);
            let trials = 40_000u64;
            let mut observed = vec![0.0f64; nsample as usize + 1];
            for _ in 0..trials {
                observed[hypergeometric(ngood, nbad, nsample, &mut rng) as usize] += 1.0;
            }
            let expected: Vec<f64> = hypergeometric_pmf(ngood, nbad, nsample)
                .iter()
                .map(|q| q * trials as f64)
                .collect();
            let (chi2, bins) = chi_square(&observed, &expected);
            // df ≤ 10; χ²₀.₉₉₉(10) ≈ 29.6.
            assert!(
                chi2 < 30.0,
                "({ngood},{nbad},{nsample}): χ² = {chi2} over {bins} bins"
            );
        }
    }

    #[test]
    fn multivariate_hypergeometric_sums_and_marginals() {
        let counts = [40u64, 25, 0, 35];
        let nsample = 30u64;
        let mut rng = SmallRng::seed_from_u64(17);
        let trials = 20_000u64;
        let mut mean = [0.0f64; 4];
        for _ in 0..trials {
            let split = multivariate_hypergeometric(&counts, nsample, &mut rng);
            assert_eq!(split.iter().sum::<u64>(), nsample);
            for (m, (&k, &c)) in mean.iter_mut().zip(split.iter().zip(&counts)) {
                assert!(k <= c, "group overdrawn");
                *m += k as f64 / trials as f64;
            }
        }
        let total: u64 = counts.iter().sum();
        for (i, &c) in counts.iter().enumerate() {
            let want = nsample as f64 * c as f64 / total as f64;
            // Marginals are Hypergeometric(c, total−c, nsample).
            let var = want * (1.0 - c as f64 / total as f64) * (total - nsample) as f64
                / (total - 1) as f64;
            let tol = 5.0 * (var / trials as f64).sqrt() + 1e-9;
            assert!(
                (mean[i] - want).abs() < tol,
                "marginal {i}: mean {} want {want}",
                mean[i]
            );
        }
    }

    #[test]
    fn multinomial_sums_and_marginals() {
        let weights = [1.0, 0.0, 2.0, 5.0];
        let n = 64u64;
        let mut rng = SmallRng::seed_from_u64(29);
        let trials = 20_000u64;
        let mut mean = [0.0f64; 4];
        for _ in 0..trials {
            let split = multinomial(n, &weights, &mut rng);
            assert_eq!(split.iter().sum::<u64>(), n);
            assert_eq!(split[1], 0, "zero-weight category drawn");
            for (m, &k) in mean.iter_mut().zip(&split) {
                *m += k as f64 / trials as f64;
            }
        }
        let total: f64 = weights.iter().sum();
        for (i, &w) in weights.iter().enumerate() {
            let p = w / total;
            let want = n as f64 * p;
            let tol = 5.0 * (n as f64 * p * (1.0 - p) / trials as f64).sqrt() + 1e-9;
            assert!(
                (mean[i] - want).abs() < tol,
                "marginal {i}: mean {} want {want}",
                mean[i]
            );
        }
    }

    #[test]
    fn alias_table_construction_invariants() {
        let weights = [0.5, 3.0, 0.0, 1.25, 8.0];
        let table = AliasTable::new(&weights).unwrap();
        assert_eq!(table.len(), weights.len());
        assert!(!table.is_empty());
        for (i, &p) in table.prob.iter().enumerate() {
            assert!((0.0..=1.0).contains(&p), "prob[{i}] = {p}");
            assert!(table.alias[i] < weights.len());
            // A cell that can reject must alias to a positive-weight donor.
            if p < 1.0 {
                assert!(weights[table.alias[i]] > 0.0);
            }
        }
        // Per-category total mass reconstructed from the table matches
        // the normalized weights: mass(i) = prob[i] + Σ_j (1 − prob[j])
        // over cells aliasing to i, all divided by len.
        let mut mass = vec![0.0f64; weights.len()];
        for i in 0..weights.len() {
            mass[i] += table.prob[i];
            mass[table.alias[i]] += 1.0 - table.prob[i];
        }
        let total: f64 = weights.iter().sum();
        for (i, &w) in weights.iter().enumerate() {
            let want = w / total * weights.len() as f64;
            assert!(
                (mass[i] - want).abs() < 1e-9,
                "category {i}: mass {} want {want}",
                mass[i]
            );
        }
    }

    #[test]
    fn alias_table_rejects_invalid_weights() {
        assert!(AliasTable::new(&[]).is_none());
        assert!(AliasTable::new(&[0.0, 0.0]).is_none());
        assert!(AliasTable::new(&[1.0, -0.5]).is_none());
        assert!(AliasTable::new(&[f64::NAN]).is_none());
        assert!(AliasTable::new(&[f64::INFINITY, 1.0]).is_none());
    }

    #[test]
    fn hash_bernoulli_is_deterministic_and_calibrated() {
        // Pure function of (key, salt, rate).
        for key in 0..64u64 {
            assert_eq!(hash_bernoulli(key, 99, 0.25), hash_bernoulli(key, 99, 0.25));
        }
        // Distinct salts decorrelate the key stream.
        let same = (0..512u64)
            .filter(|&k| hash_bernoulli(k, 1, 0.5) == hash_bernoulli(k, 2, 0.5))
            .count();
        assert!((130..380).contains(&same), "salts too correlated: {same}");
        // Empirical frequency tracks the requested rate.
        for &rate in &[0.1, 0.5, 0.9] {
            let trials = 20_000u64;
            let hits = (0..trials).filter(|&k| hash_bernoulli(k, 7, rate)).count() as f64;
            let freq = hits / trials as f64;
            assert!((freq - rate).abs() < 0.02, "rate {rate}: observed {freq}");
        }
    }

    #[test]
    fn splitmix64_matches_reference_vector() {
        // Reference values from the canonical SplitMix64 (Vigna).
        assert_eq!(splitmix64(0), 0xe220_a839_7b1d_cdaf);
        assert_eq!(splitmix64(1), 0x910a_2dec_8902_5cc1);
    }

    #[test]
    fn alias_table_goodness_of_fit() {
        let weights = [1.0, 2.0, 3.0, 4.0];
        let table = AliasTable::new(&weights).unwrap();
        let mut rng = SmallRng::seed_from_u64(37);
        let trials = 40_000u64;
        let mut observed = vec![0.0f64; weights.len()];
        for _ in 0..trials {
            observed[table.sample(&mut rng)] += 1.0;
        }
        let total: f64 = weights.iter().sum();
        let expected: Vec<f64> = weights.iter().map(|w| w / total * trials as f64).collect();
        let (chi2, _) = chi_square(&observed, &expected);
        // df = 3; χ²₀.₉₉₉(3) ≈ 16.3.
        assert!(chi2 < 17.0, "χ² = {chi2}");
    }
}
