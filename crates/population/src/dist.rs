//! Exact discrete samplers for the batch-epoch execution path.
//!
//! The offline `rand` shim ships no distributions, so the batch-epoch
//! sampler (Berenbrink et al., *Simulating Population Protocols in
//! Sub-Constant Time per Interaction*) gets its randomness from here:
//! binomial draws for splitting interaction groups across outcome classes
//! and for omission thinning, and (multivariate) hypergeometric draws for
//! splitting a batch's agents across states and matching starters to
//! reactors, and Exp(1) draws for the lengths of its gaps and inert
//! stretches.
//!
//! All samplers are **exact**: each draw is either an inversion of the
//! true pmf or a rejection sampler whose acceptance test compares against
//! the true pmf (or density) ratio, never a normal approximation. Exp(1)
//! takes Marsaglia and Tsang's ziggurat, which returns most draws from
//! one `u64` without a logarithm. The regimes an
//! epoch hits take O(1) expected time per draw, as the epoch method's
//! cost model assumes: chop-down inversion for small binomial means,
//! Hörmann's BTRD rejection above them; for a small sample from a big
//! urn a hypergeometric draw by rejection from a binomial proposal, and
//! for any other urn Stadlober's HRUA ratio of uniforms. Tiny urn sides
//! take a transcendental-free chop-down.

use rand::RngCore;

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

/// The ziggurat's base-strip edge `R` and its common layer area `V`
/// (Marsaglia and Tsang, *The Ziggurat Method for Generating Random
/// Variables*, J. Stat. Softw. 5(8), 2000, for 256 layers).
const ZIG_EXP_R: f64 = 7.697_117_470_131_05;
const ZIG_EXP_V: f64 = 3.949_659_822_581_572e-3;

/// The 256 layers of the Exp(1) ziggurat: layer `i ≥ 1` is the rectangle
/// `[0, x[i]] × [f[i], f[i+1]]` under `y = e^(−x)`, and layer 0 the base
/// strip `[0, x[0]] × [0, f[1]]`, whose part past `R = x[1]` stands for
/// the tail. Every layer has area `V`.
struct ExpZiggurat {
    x: [f64; 257],
    f: [f64; 257],
}

/// The ziggurat's tables, built once per process.
fn exp_ziggurat() -> &'static ExpZiggurat {
    use std::sync::OnceLock;
    static TABLE: OnceLock<ExpZiggurat> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut x = [0.0; 257];
        // The base strip's rectangle plus its tail, `R·e^(−R) + e^(−R)`,
        // has area V.
        x[0] = ZIG_EXP_V / (-ZIG_EXP_R).exp();
        x[1] = ZIG_EXP_R;
        for i in 1..255 {
            x[i + 1] = -(ZIG_EXP_V / x[i] + (-x[i]).exp()).ln();
        }
        // x[256] = 0 tops the last layer, whose points all take the wedge
        // test.
        ExpZiggurat {
            x,
            f: x.map(|x| (-x).exp()),
        }
    })
}

/// An Exp(1) draw, by Marsaglia and Tsang's 256-layer ziggurat.
///
/// One `next_u64` picks a layer (its low 8 bits) and a uniform point of
/// it (its top 52 bits, an odd multiple of 2⁻⁵³, so never 0). A point
/// inside the next layer's width lies under the curve and is returned at
/// once: 97.8% of draws take one word and no transcendental. The rest
/// are wedge points, kept iff a uniform height under the layer is below
/// `e^(−x)`, and tail points past `R`, which return `R + Exp(1)` as
/// `R − ln U` (the exponential is memoryless). Both tests are exact, so
/// the draw is; only those two paths call libm. The batch-epoch driver
/// draws its gaps and inert stretches from this instead of taking the
/// logarithm of a uniform.
#[inline]
pub fn exp1(rng: &mut (impl RngCore + ?Sized)) -> f64 {
    let zig = exp_ziggurat();
    loop {
        let bits = rng.next_u64();
        let i = (bits & 0xff) as usize;
        let u = ((bits >> 11) | 1) as f64 / (1u64 << 53) as f64;
        let x = u * zig.x[i];
        if x < zig.x[i + 1] {
            return x;
        }
        if i == 0 {
            return ZIG_EXP_R - uniform_open01(rng).ln();
        }
        if zig.f[i] + uniform_f64(rng) * (zig.f[i + 1] - zig.f[i]) < (-x).exp() {
            return x;
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
fn ln_gamma(x: f64) -> f64 {
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

/// ln n! is tabulated below this bound. HRUA reads four ln n! per
/// proposal and four at its mode, none past its urn minus its sample. On
/// the epoch path that is at most a batch's ≈ 1.5·√n fresh interactions
/// (1.5·10⁴ at n = 10⁸), for both of its HRUA draws: the starters among
/// the fresh agents and the matching. 2¹⁴ entries (128 KiB) cover them up
/// to n ≈ 1.2·10⁸; past the table ln n! is evaluated on the fly.
const LN_FACT_TABLE_LEN: usize = 1 << 14;

/// ln n! for `n < LN_FACT_TABLE_LEN`, built once from [`ln_fact_direct`]:
/// a lookup returns the same value as the evaluation.
fn ln_fact_table() -> &'static [f64] {
    use std::sync::OnceLock;
    static TABLE: OnceLock<Vec<f64>> = OnceLock::new();
    TABLE.get_or_init(|| (0..LN_FACT_TABLE_LEN as u64).map(ln_fact_direct).collect())
}

/// ln n! = ln Γ(n + 1), by table lookup.
#[inline]
fn ln_fact(n: u64) -> f64 {
    match ln_fact_table().get(n as usize) {
        Some(&v) => v,
        None => ln_fact_direct(n),
    }
}

/// ln n! evaluated: [`ln_gamma`] below 1024, Stirling's series (three
/// correction terms, error < 1e-20 relative from 1024 on) above. Out of
/// line, so that the lookup in [`ln_fact`] stays small enough to inline.
#[inline(never)]
fn ln_fact_direct(n: u64) -> f64 {
    if n < 1024 {
        return ln_gamma(n as f64 + 1.0);
    }
    const HALF_LN_2PI: f64 = 0.918_938_533_204_672_7;
    let x = n as f64;
    let inv = 1.0 / x;
    let inv2 = inv * inv;
    (x + 0.5) * x.ln() - x + HALF_LN_2PI + inv * (1.0 / 12.0 - inv2 * (1.0 / 360.0 - inv2 / 1260.0))
}

/// Binomial draws with mean `n·min(p, 1−p)` at least this take BTRD,
/// smaller ones chop-down inversion. BTRD's constants need a mean of at
/// least 10; past that the switch sits at the measured break-even. At
/// n ∈ {10², 10⁴, 10⁸} (2-vCPU Xeon, medians of 15 alternating runs of
/// 4·10⁵ draws) the two cost the same at mean 13 (86–94 ns per draw);
/// chop-down wins below (80–99 against 88–112 ns at mean 10) and BTRD
/// from 14 on (85–89 against 90–95 ns at 14, 85–103 against 109–134 ns
/// at 20).
const BTRD_MIN_MEAN: f64 = 14.0;

/// A Binomial(n, p) draw: the number of successes among `n` independent
/// trials of probability `p`.
///
/// The epoch path uses this to split an epoch's interaction groups
/// across their outcome classes, to draw the omissive share of the
/// interactions whose class mixes omissive and fault-free faults, and as
/// the proposal of the big-urn [`hypergeometric`] draw. Means
/// `n·min(p, 1−p)` below `BTRD_MIN_MEAN` use chop-down inversion
/// (BINV, O(n·p) steps); larger ones BTRD rejection (O(1) expected).
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
    let k = if n as f64 * q < BTRD_MIN_MEAN {
        binomial_chop_down(n, q, rng)
    } else {
        binomial_btrd(n, q, rng)
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

/// BTRD for `p ≤ 1/2`, `n·p ≥ 10`: Hörmann's transformed rejection with
/// decomposition (*The generation of binomial random variates*, J. Stat.
/// Comput. Simul. 46, 1993), in his step numbering.
///
/// A uniform `u` maps to `k = ⌊(2a/(½−|u|) + b)·u + c⌋`, a transformation
/// whose hat dominates the pmf. The hat's central strip lies under the
/// pmf and is accepted at once (step 1: 45% of draws at `n·p` = 14, 79%
/// as σ grows); otherwise `v` is a uniform height under the hat and the
/// candidate passes iff `v ≤ pmf(k)/pmf(m)` at the mode `m`: a product
/// of at most 15 recurrence terms near the mode (step 3.1), a two-sided
/// squeeze on its logarithm further out (3.3), and Stirling's series
/// only past both (3.4–3.5). Every test is against the true pmf ratio,
/// so the draw is exact.
fn binomial_btrd(n: u64, p: f64, rng: &mut (impl RngCore + ?Sized)) -> u64 {
    debug_assert!(p <= 0.5 && n as f64 * p >= 10.0);
    let nf = n as f64;
    let r = p / (1.0 - p);
    let npq = nf * p * (1.0 - p);
    let spq = npq.sqrt();
    let b = 1.15 + 2.53 * spq;
    let a = -0.0873 + 0.0248 * b + 0.01 * p;
    let c = nf * p + 0.5;
    let v_r = 0.92 - 4.2 / b;
    loop {
        // Step 1: immediate acceptance.
        let mut v = uniform_f64(rng);
        if v <= 0.86 * v_r {
            let u = v / v_r - 0.43;
            // `as` saturates, so it floors every value here: a negative
            // one goes to 0 either way.
            return ((2.0 * a / (0.5 - u.abs()) + b) * u + c) as u64;
        }
        // Step 2: a point (u, v) under the rest of the hat.
        let u = if v >= v_r {
            uniform_f64(rng) - 0.5
        } else {
            let w = v / v_r - 0.93;
            v = uniform_f64(rng) * v_r;
            if w < 0.0 {
                -0.5 - w
            } else {
                0.5 - w
            }
        };
        let us = 0.5 - u.abs();
        // ⌊x⌋ ∈ [0, n] exactly when x ∈ [0, n + 1).
        let x = (2.0 * a / us + b) * u + c;
        if !(0.0..nf + 1.0).contains(&x) {
            continue;
        }
        let k = x as u64;
        v *= (2.83 + 5.1 / b) * spq / (a / (us * us) + b);
        // Step 3.1: recursive pmf ratio near the mode, where
        // pmf(i)/pmf(i−1) = (n+1)·r/i − r.
        let m = ((nf + 1.0) * p) as u64;
        let km = k.abs_diff(m);
        if km <= 15 {
            let nr = (nf + 1.0) * r;
            let mut f = 1.0;
            for i in m.min(k) + 1..=m.max(k) {
                f *= nr / i as f64 - r;
            }
            let accept = if k >= m { v <= f } else { v * f <= 1.0 };
            if accept {
                return k;
            }
            continue;
        }
        // Step 3.3: squeeze ln(pmf(k)/pmf(m)) between t ± ρ.
        let v = v.ln();
        let km = km as f64;
        let rho = (km / npq) * (((km / 3.0 + 0.625) * km + 1.0 / 6.0) / npq + 0.5);
        let t = -km * km / (2.0 * npq);
        if v < t - rho {
            return k;
        }
        if v > t + rho {
            continue;
        }
        // Steps 3.4–3.5: the exact log ratio through Stirling's series.
        let (mf, kf) = (m as f64, k as f64);
        let nm = nf - mf + 1.0;
        let nk = nf - kf + 1.0;
        let h = (mf + 0.5) * ((mf + 1.0) / (r * nm)).ln() + stirling_tail(m) + stirling_tail(n - m);
        let bound = h + (nf + 1.0) * (nm / nk).ln() + (kf + 0.5) * (nk * r / (kf + 1.0)).ln()
            - stirling_tail(k)
            - stirling_tail(n - k);
        if v <= bound {
            return k;
        }
    }
}

/// Stirling's correction `ln k! − (k+½)·ln(k+1) + (k+1) − ½·ln 2π`,
/// tabulated below 10 (Hörmann's values) and three series terms above.
fn stirling_tail(k: u64) -> f64 {
    const TABLE: [f64; 10] = [
        0.081_061_466_795_327_26,
        0.041_340_695_955_409_29,
        0.027_677_925_684_998_34,
        0.020_790_672_103_765_09,
        0.016_644_691_189_821_19,
        0.013_876_128_823_070_75,
        0.011_896_709_945_891_77,
        0.010_411_265_261_972_09,
        0.009_255_462_182_712_733,
        0.008_330_563_433_362_87,
    ];
    if let Some(&f) = TABLE.get(k as usize) {
        return f;
    }
    let inv = 1.0 / (k + 1) as f64;
    let inv2 = inv * inv;
    (1.0 / 12.0 - (1.0 / 360.0 - inv2 / 1260.0) * inv2) * inv
}

/// A Hypergeometric(ngood, nbad, nsample) draw: how many of `nsample`
/// agents drawn without replacement from an urn of `ngood + nbad` come
/// from the `ngood` side.
///
/// This is the epoch sampler's workhorse: every split of an epoch's
/// agents across states is a chain of these. Three exact regimes, after
/// the trivial one-point support:
///
/// * one side of the urn holds at most 16 balls: chop-down inversion
///   from the support's edge, no transcendentals;
/// * the sample (or its complement) is at most 1/64 of the urn: binomial
///   proposal and rejection, O(1) expected;
/// * otherwise Stadlober's ratio of uniforms, O(1) expected.
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
    // With the small side as the "good" half, mirroring k ↦ nsample − k
    // if needed.
    let (g, b, mirrored) = if ngood <= nbad {
        (ngood, nbad, false)
    } else {
        (nbad, ngood, true)
    };
    let unmirror = |k: u64| if mirrored { nsample - k } else { k };
    // Cheap exact path when one side of the urn is tiny — the dominant
    // regime of epoch-driven runs, where most epochs fire while some
    // state holds only a handful of agents. With the sample fitting in
    // the big half, the support starts at 0, pmf(0) is a product of `g`
    // ratios, and a chop-down walk of expected length `nsample·g/total`
    // finishes the draw — no logs, no exp.
    const SMALL_SIDE: u64 = 16;
    if g <= SMALL_SIDE && nsample <= b {
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
        return unmirror(k);
    }
    // A small sample from a big urn, or the complement of one: the good
    // balls left behind by a sample are a draw of the complement's size.
    let (s, complemented) = if 2 * nsample <= total {
        (nsample, false)
    } else {
        (total - nsample, true)
    };
    let small = s
        .checked_mul(HypergeometricEnvelope::MIN_URN_PER_SAMPLE)
        .is_some_and(|urn| urn <= total);
    let k = if small {
        HypergeometricEnvelope::new(g, b, s).sample(rng)
    } else {
        hypergeometric_hrua(g, b, s, rng)
    };
    unmirror(if complemented { g - k } else { k })
}

/// Hypergeometric(g, b, s) for `g ≤ b` and `s ≤ (g + b)/2` by
/// Stadlober's HRUA: ratio of uniforms under a "table
/// mountain" hat (*The ratio of uniforms approach for generating discrete
/// random variates*, J. Comput. Appl. Math. 31, 1990), as numpy's
/// `hypergeometric_hrua` but without its 16σ cut, so the whole support
/// stays reachable.
///
/// A point `(u, v)` uniform on `(0, 1) × [0, 1)` proposes
/// `k = ⌊a + h·(v − ½)/u⌋` around the mean `a − ½`, with the hat's scale
/// `h = D1·√(σ² + ½) + D2`; it is kept iff `u² ≤ pmf(k)/pmf(m)` at the
/// mode `m`. Two squeezes on `2·ln u` decide most proposals without the
/// logarithm, and the ratio itself is four [`ln_fact`] differences, so
/// each proposal is O(1); the hat's area relative to the pmf's is
/// bounded in σ, and so is the expected number of proposals.
fn hypergeometric_hrua(g: u64, b: u64, s: u64, rng: &mut (impl RngCore + ?Sized)) -> u64 {
    debug_assert!(g <= b && 2 * s <= g + b);
    /// `2·√(2/e)` and `3 − 2·√(3/e)`, Stadlober's hat constants.
    const D1: f64 = 1.715_527_769_921_413_5;
    const D2: f64 = 0.898_916_162_058_898_8;
    let n = (g + b) as f64;
    let p = g as f64 / n;
    let var = (n - s as f64) * s as f64 * p * (1.0 - p) / (n - 1.0);
    let a = s as f64 * g as f64 / n + 0.5;
    let h = D1 * (var + 0.5).sqrt() + D2;
    // The support is [0, min(g, s)]: `b ≥ s` after mirroring and
    // complementing.
    let top = (g.min(s) + 1) as f64;
    let ln_f = |k: u64| ln_fact(k) + ln_fact(g - k) + ln_fact(s - k) + ln_fact(b - s + k);
    let m = ((s + 1) as f64 * (g + 1) as f64 / (n + 2.0)) as u64;
    let ln_f_mode = ln_f(m);
    loop {
        let u = uniform_open01(rng);
        let x = a + h * (uniform_f64(rng) - 0.5) / u;
        if !(0.0..top).contains(&x) {
            continue;
        }
        let k = x as u64;
        // ln(pmf(k)/pmf(m)).
        let t = ln_f_mode - ln_f(k);
        // 2·ln u ≤ u·(4 − u) − 3, and ≥ u − 1/u.
        if u * (4.0 - u) - 3.0 <= t {
            return k;
        }
        if u * (u - t) >= 1.0 {
            continue;
        }
        if 2.0 * u.ln() <= t {
            return k;
        }
    }
}

/// Hypergeometric(g, b, s) by rejection from a Binomial(s, g/N) proposal,
/// `N = g + b`, for `g ≤ b` and a sample of at most `N/64`.
///
/// The pmf factors as the binomial pmf times `e^φ(k)` (up to a constant),
/// with `φ(k) = ln ∏_{i<k}(1 − i/g) + ln ∏_{i<s−k}(1 − i/b)`: drawing
/// without replacement only removes the balls already taken. `φ` is
/// concave with its maximum at `k* = ⌈(s−1)·g/N⌉`, so a proposal `K` is
/// kept with probability `e^(φ(K) − φ(k*))` and the result is exact.
/// A proposal is rejected with probability about `s/(2N)`: 0.78% at
/// `s = N/64`, a little more when the mean is tiny (1.2% for
/// Hypergeometric(20, 2000, 30)).
///
/// Every factor of that ratio is a rational `y`, so `ln y ≤ y − 1` gives
/// an upper bound `x` on `φ(k*) − φ(K)` in closed form ([`Self::squeeze`])
/// and `u ≤ 1 − x` accepts without a product; the `|K − k*|`-term product
/// ([`Self::ratio`]) decides only the rest.
struct HypergeometricEnvelope {
    g: u64,
    b: u64,
    s: u64,
    /// `k*`, the argmax of φ.
    k_star: u64,
    /// `N·k* − (s−1)·g ∈ [0, N)`, exact.
    d: u128,
}

impl HypergeometricEnvelope {
    /// The urn must hold at least this many balls per sampled one.
    const MIN_URN_PER_SAMPLE: u64 = 64;

    fn new(g: u64, b: u64, s: u64) -> Self {
        debug_assert!(g <= b && s >= 1 && s <= (g + b) / Self::MIN_URN_PER_SAMPLE);
        let n = g + b;
        // In u64 whenever `(s−1)·g + N` fits: a 128-bit division is a
        // library call.
        let (k_star, d) = match (s - 1)
            .checked_mul(g)
            .filter(|sg| sg.checked_add(n).is_some())
        {
            Some(sg) => {
                let k_star = sg.div_ceil(n);
                (k_star, u128::from(k_star * n - sg))
            }
            None => {
                let (n, sg) = (u128::from(n), u128::from(s - 1) * u128::from(g));
                let k_star = sg.div_ceil(n);
                (k_star as u64, k_star * n - sg)
            }
        };
        HypergeometricEnvelope { g, b, s, k_star, d }
    }

    fn sample(&self, rng: &mut (impl RngCore + ?Sized)) -> u64 {
        let p = self.g as f64 / (self.g + self.b) as f64;
        loop {
            let k = binomial(self.s, p, rng);
            if k > self.g {
                // `1 − g/g` is a factor of e^φ(k): probability zero.
                continue;
            }
            if k == self.k_star {
                return k;
            }
            let u = uniform_f64(rng);
            if u <= 1.0 - self.squeeze(k) || u <= self.ratio(k) {
                return k;
            }
        }
    }

    /// An upper bound on `φ(k*) − φ(k)` for `k ≤ g`, floating-point
    /// safety margin included.
    ///
    /// For `k > k*`, the `m = k − k*` factors of `e^(φ(k*) − φ(k))` are
    /// `g·(b−s+1+j) / (b·(g−j))` for `j ∈ [k*, k)`, whose excess over 1 is
    /// `(N·j − (s−1)·g) / (b·(g−j)) ≤ (d + N·(j−k*)) / (b·(g−k+1))`;
    /// they sum to `m·(2d + N·(m−1)) / (2b·(g−k+1))`. For `k < k*` the
    /// `m = k* − k` factors are the reciprocals for `j ∈ [k, k*)`, with
    /// excess `((s−1)·g − N·j) / (g·(b−s+1+j))`, summing to at most
    /// `m·(N·(m+1) − 2d) / (2g·(b−s+1+k))`. The integer parts are exact;
    /// the margin covers the few roundings after them and in `1 − x`.
    fn squeeze(&self, k: u64) -> f64 {
        let (g, b, s) = (self.g, self.b, self.s);
        let n = u128::from(g + b);
        let (m, num, den) = if k > self.k_star {
            let m = k - self.k_star;
            let num = 2 * self.d + n * u128::from(m - 1);
            (m, num, 2.0 * b as f64 * (g - k + 1) as f64)
        } else {
            let m = self.k_star - k;
            let num = n * u128::from(m + 1) - 2 * self.d;
            (m, num, 2.0 * g as f64 * (b - s + 1 + k) as f64)
        };
        m as f64 * num as f64 / den * (1.0 + 1e-12) + 1e-15
    }

    /// `e^(φ(k) − φ(k*))` for `k ≤ g`, as the product of its `|k − k*|`
    /// factors.
    fn ratio(&self, k: u64) -> f64 {
        let (g, b, s) = (self.g as f64, self.b as f64, self.s as f64);
        // e^(φ(j+1) − φ(j)) = b·(g−j) / (g·(b−s+1+j)).
        let step = |j: u64| b * (g - j as f64) / (g * (b - s + 1.0 + j as f64));
        if k > self.k_star {
            (self.k_star..k).map(step).product()
        } else {
            (k..self.k_star).map(|j| 1.0 / step(j)).product()
        }
    }
}

/// A multivariate hypergeometric draw: splits `nsample` agents drawn
/// without replacement across the state groups of `counts`.
///
/// Returns a vector aligned with `counts` summing to `nsample`; see
/// [`multivariate_hypergeometric_into`].
///
/// # Panics
///
/// Panics if `nsample` exceeds the sum of `counts`.
pub fn multivariate_hypergeometric(
    counts: &[u64],
    nsample: u64,
    rng: &mut (impl RngCore + ?Sized),
) -> Vec<u64> {
    let mut out = Vec::with_capacity(counts.len());
    multivariate_hypergeometric_into(counts, nsample, &mut out, rng);
    out
}

/// [`multivariate_hypergeometric`] into a reused buffer: `out` is
/// cleared and refilled, one entry per group of `counts`, through the
/// standard chain of conditional (univariate) hypergeometric draws. An
/// empty group, the last group holding what is left of the urn, and every
/// group once the sample is all that is left of it take their share
/// without a draw.
///
/// The epoch sampler's starter, reactor and matching splits all go
/// through here.
///
/// # Panics
///
/// Panics if `nsample` exceeds the sum of `counts`.
pub fn multivariate_hypergeometric_into(
    counts: &[u64],
    nsample: u64,
    out: &mut Vec<u64>,
    rng: &mut (impl RngCore + ?Sized),
) {
    let mut left_total: u64 = counts.iter().sum();
    assert!(
        nsample <= left_total,
        "multivariate hypergeometric sample {nsample} exceeds population {left_total}"
    );
    out.clear();
    out.resize(counts.len(), 0);
    let mut left_draw = nsample;
    for (slot, &c) in out.iter_mut().zip(counts) {
        if left_draw == 0 {
            break;
        }
        let k = if left_draw == left_total {
            c
        } else if c == 0 {
            0
        } else if c == left_total {
            left_draw
        } else {
            hypergeometric(c, left_total - c, left_draw, rng)
        };
        *slot = k;
        left_total -= c;
        left_draw -= k;
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

    /// Upper χ² bound for `bins` cells (df = bins − 1) at a 10⁻⁵ tail,
    /// by the Wilson–Hilferty cube approximation.
    fn chi2_bound(bins: usize) -> f64 {
        let df = bins.saturating_sub(1).max(1) as f64;
        let h = 2.0 / (9.0 * df);
        df * (1.0 - h + 4.26 * h.sqrt()).powi(3)
    }

    /// ln C(n, k) for `k <= n`.
    fn ln_choose(n: u64, k: u64) -> f64 {
        ln_fact(n) - ln_fact(k) - ln_fact(n - k)
    }

    /// Exact Binomial(n, p) pmf, each term from its logarithm.
    fn binomial_pmf(n: u64, p: f64) -> Vec<f64> {
        (0..=n)
            .map(|k| (ln_choose(n, k) + k as f64 * p.ln() + (n - k) as f64 * (-p).ln_1p()).exp())
            .collect()
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

    /// χ² of `trials` [`exp1`] draws against the Exp(1) law, binned at
    /// every layer edge of the ziggurat and the midpoints between them,
    /// then in steps of ½ past `R` to an open last bin: every layer's
    /// wedge, the base strip and the tail get bins of their own.
    fn exp1_fit(trials: u64, seed: u64) -> (f64, usize) {
        let x = &exp_ziggurat().x;
        let mut edges: Vec<f64> = (1..256)
            .flat_map(|i| [x[i + 1], 0.5 * (x[i] + x[i + 1])])
            .chain((0..=16).map(|m| ZIG_EXP_R + 0.5 * f64::from(m)))
            .collect();
        edges.sort_by(f64::total_cmp);
        let mut observed = vec![0.0f64; edges.len()];
        let mut rng = SmallRng::seed_from_u64(seed);
        for _ in 0..trials {
            let e = exp1(&mut rng);
            assert!(e > 0.0 && e.is_finite(), "Exp(1) draw {e}");
            observed[edges.partition_point(|&a| a <= e) - 1] += 1.0;
        }
        let upper = edges[1..].iter().copied().chain([f64::INFINITY]);
        let expected: Vec<f64> = edges
            .iter()
            .zip(upper)
            .map(|(&a, b)| trials as f64 * ((-a).exp() - (-b).exp()))
            .collect();
        chi_square(&observed, &expected)
    }

    #[test]
    fn exp1_tables_stack_layers_of_equal_area() {
        let zig = exp_ziggurat();
        let (x, f) = (&zig.x, &zig.f);
        assert_eq!((x[1], x[256], f[256]), (ZIG_EXP_R, 0.0, 1.0));
        let base = x[0] * f[1];
        assert!((base - ZIG_EXP_V).abs() < 1e-15, "base strip {base}");
        // The recursion from the published R and V closes the stack to
        // 1.5·10⁻¹² relative at the top layer: a bias far below any test.
        for i in 1..256 {
            assert!(x[i + 1] < x[i], "layer {i} narrows upward");
            let area = x[i] * (f[i + 1] - f[i]);
            assert!(
                (area - ZIG_EXP_V).abs() < 1e-11 * ZIG_EXP_V,
                "layer {i}: area {area}"
            );
        }
    }

    #[test]
    fn exp1_goodness_of_fit() {
        let (chi2, bins) = exp1_fit(2_000_000, 53);
        assert!(bins > 400, "degenerate binning: {bins}");
        assert!(chi2 < chi2_bound(bins), "χ² = {chi2} over {bins} bins");
    }

    #[test]
    #[ignore = "high power: 5·10⁷ draws; run in release with --ignored"]
    fn exp1_goodness_of_fit_high_power() {
        let (chi2, bins) = exp1_fit(50_000_000, 59);
        assert!(chi2 < chi2_bound(bins), "χ² = {chi2} over {bins} bins");
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

    /// Replays a fixed list of `u64`s, so successive `uniform_f64` calls
    /// return chosen values; panics once the list runs out, so a sampler
    /// that draws more than the test planned fails instead of looping.
    struct FixedRng(std::vec::IntoIter<u64>);

    impl FixedRng {
        /// A stream whose successive `uniform_f64` draws are `us` (each
        /// rounded down to a multiple of 2⁻⁵³).
        fn at(us: &[f64]) -> Self {
            let words: Vec<u64> = us
                .iter()
                .map(|&u| ((u * (1u64 << 53) as f64) as u64) << 11)
                .collect();
            FixedRng(words.into_iter())
        }

        fn is_spent(&self) -> bool {
            self.0.len() == 0
        }
    }

    impl rand::RngCore for FixedRng {
        fn next_u32(&mut self) -> u32 {
            (self.next_u64() >> 32) as u32
        }
        fn next_u64(&mut self) -> u64 {
            self.0.next().expect("FixedRng ran out of planned draws")
        }
    }

    #[test]
    fn binomial_chop_down_keeps_pmf0_precise_at_tiny_p() {
        // n·p = 20: pmf(0) = (1 − p)^n = e^(−20 − n·p²/2 − …), and the
        // n·p² term is 10⁻¹¹. Rounding 1 − p to a double moves p by
        // ≈ 2·10⁻⁵ relative here, and pmf(0) by ≈ 4·10⁻⁴. Mean 20 is above
        // the BTRD switch, so this calls the chop-down path itself.
        let (n, p) = (20_000_000_000_000u64, 1e-12);
        let pmf0 = (-20.0f64).exp();
        // u just below pmf(0) draws 0, just above it draws 1.
        let below = FixedRng::at(&[pmf0 * (1.0 - 2e-4)]);
        assert_eq!(binomial_chop_down(n, p, &mut { below }), 0);
        let above = FixedRng::at(&[pmf0 * (1.0 + 2e-4)]);
        assert_eq!(binomial_chop_down(n, p, &mut { above }), 1);
    }

    /// Sample mean and variance of `trials` Binomial(n, p) draws, checked
    /// against n·p (5 standard errors) and n·p·(1−p) (10%).
    fn check_binomial_moments(n: u64, p: f64, trials: u64, seed: u64) {
        let want_mean = n as f64 * p;
        let want_var = n as f64 * p * (1.0 - p);
        // Moments of k − n·p, so k² at n = 2·10⁹ cannot swamp them.
        let mut rng = SmallRng::seed_from_u64(seed);
        let (mut sum, mut sum_sq) = (0.0f64, 0.0f64);
        for _ in 0..trials {
            let dev = binomial(n, p, &mut rng) as f64 - want_mean;
            sum += dev;
            sum_sq += dev * dev;
        }
        let mean = want_mean + sum / trials as f64;
        let var = sum_sq / trials as f64 - (sum / trials as f64).powi(2);
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

    #[test]
    fn binomial_mean_and_variance_both_regimes() {
        // (n, p) pairs hitting the chop-down (mean < 14) and the BTRD
        // (mean ≥ 14) regimes, including a mirrored p.
        for (n, p) in [(200u64, 0.05), (1_000u64, 0.3), (500u64, 0.9)] {
            check_binomial_moments(n, p, 20_000, 42);
        }
    }

    #[test]
    fn binomial_btrd_moments_at_two_billion_trials() {
        // σ ≈ 2·10⁴: far-from-mode candidates reach BTRD's squeeze and
        // Stirling steps, and n·p ≈ 6·10⁸ stresses its float arithmetic.
        check_binomial_moments(2_000_000_000, 0.3, 20_000, 43);
        check_binomial_moments(2_000_000_000, 0.999_999, 20_000, 44);
    }

    /// χ² of `trials` Binomial(n, p) draws against the exact pmf.
    fn binomial_fit(n: u64, p: f64, trials: u64, seed: u64) -> (f64, usize) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut observed = vec![0.0f64; n as usize + 1];
        for _ in 0..trials {
            observed[binomial(n, p, &mut rng) as usize] += 1.0;
        }
        let expected: Vec<f64> = binomial_pmf(n, p)
            .iter()
            .map(|q| q * trials as f64)
            .collect();
        chi_square(&observed, &expected)
    }

    #[test]
    fn binomial_goodness_of_fit_chop_down_regime() {
        let (chi2, bins) = binomial_fit(20, 0.35, 40_000, 7);
        // df ≈ bins − 1 ≤ 20; χ²₀.₉₉₉(20) ≈ 45.3.
        assert!(chi2 < 46.0, "χ² = {chi2} over {bins} bins");
    }

    #[test]
    fn binomial_goodness_of_fit_mode_regime() {
        // Mean 200: the BTRD regime.
        let (chi2, bins) = binomial_fit(400, 0.5, 40_000, 13);
        // The ±5σ window around the mode spans ~50 populated bins;
        // χ²₀.₉₉₉(60) ≈ 99.6.
        assert!(bins > 20, "degenerate binning: {bins}");
        assert!(chi2 < 100.0, "χ² = {chi2} over {bins} bins");
    }

    #[test]
    #[ignore = "high power: 2·10⁶ draws per case; run in release with --ignored"]
    fn binomial_btrd_goodness_of_fit_high_power() {
        // Just above the switch, mirrored p > ½, and σ ≈ 22 and 190 so
        // candidates more than 15 from the mode reach BTRD's squeeze.
        for (seed, (n, p)) in [
            (32u64, 0.56),
            (40, 0.6),
            (60, 0.3),
            (2_000, 0.55),
            (100_000, 0.65),
        ]
        .into_iter()
        .enumerate()
        {
            let (chi2, bins) = binomial_fit(n, p, 2_000_000, 100 + seed as u64);
            assert!(
                chi2 < chi2_bound(bins),
                "Binomial({n},{p}): χ² = {chi2} over {bins} bins"
            );
        }
    }

    #[test]
    fn stirling_tail_matches_ln_gamma() {
        for k in [0u64, 1, 5, 9, 10, 11, 20, 100] {
            let x = k as f64;
            let want = ln_gamma(x + 1.0) - (x + 0.5) * (x + 1.0).ln() + (x + 1.0)
                - 0.918_938_533_204_672_7;
            // The tail series is cut after three terms: 1/(1680·11⁷) ≈
            // 3·10⁻¹¹ at k = 10.
            assert!(
                (stirling_tail(k) - want).abs() < 1e-10,
                "stirling_tail({k}) = {} want {want}",
                stirling_tail(k)
            );
        }
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

    /// Urns that take the binomial envelope: a small side above 16, a
    /// sample (or complement) at most 1/64 of the urn. σ ≈ 8 direct,
    /// mirrored and complemented; σ ≈ 40 mirrored and complemented; and
    /// small sides of 20–64 balls.
    const ENVELOPE_CASES: [(u64, u64, u64); 7] = [
        (5_120, 20_480, 400),
        (20_480, 5_120, 400),
        (5_120, 20_480, 25_200),
        (210_000, 199_600, 403_200),
        (64, 4_032, 64),
        (20, 2_000, 30),
        (60_000, 40, 59_140),
    ];

    /// χ² of `trials` Hypergeometric draws against the exact pmf.
    fn hypergeometric_fit(
        (ngood, nbad, nsample): (u64, u64, u64),
        trials: u64,
        seed: u64,
    ) -> (f64, usize) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut observed = vec![0.0f64; nsample as usize + 1];
        for _ in 0..trials {
            observed[hypergeometric(ngood, nbad, nsample, &mut rng) as usize] += 1.0;
        }
        let expected: Vec<f64> = hypergeometric_pmf(ngood, nbad, nsample)
            .iter()
            .map(|q| q * trials as f64)
            .collect();
        chi_square(&observed, &expected)
    }

    fn check_envelope_fit(trials: u64) {
        for (seed, case) in ENVELOPE_CASES.into_iter().enumerate() {
            let (ngood, nbad, nsample) = case;
            let total = ngood + nbad;
            let s = nsample.min(total - nsample);
            assert!(
                ngood.min(nbad) > 16 && s <= total / 64,
                "{case:?} misses the envelope"
            );
            let (chi2, bins) = hypergeometric_fit(case, trials, 200 + seed as u64);
            assert!(
                chi2 < chi2_bound(bins),
                "{case:?}: χ² = {chi2} over {bins} bins"
            );
        }
    }

    #[test]
    fn hypergeometric_envelope_goodness_of_fit() {
        check_envelope_fit(40_000);
    }

    #[test]
    #[ignore = "high power: 2·10⁶ draws per case; run in release with --ignored"]
    fn hypergeometric_envelope_goodness_of_fit_high_power() {
        check_envelope_fit(2_000_000);
    }

    /// Urns that take HRUA: a sample (or complement) above 1/64 of the
    /// urn, and either both sides above 16 or a sample too big for the
    /// small side's chop-down. σ ≈ 6 direct, mirrored, complemented and
    /// both; σ ≈ 2.1; σ ≈ 6 from a big urn; matching-split-sized urns at
    /// σ ≈ 21 and 30, whose factorials all take Stirling's series; and
    /// the low-variance end: σ ≈ 1.5, σ ≈ 0.6 and a small side of 10 past
    /// the chop-down at σ ≈ 1.1.
    const HRUA_CASES: [(u64, u64, u64); 11] = [
        (300, 500, 200),
        (500, 300, 200),
        (300, 500, 600),
        (500, 300, 600),
        (30, 60, 30),
        (2_000, 100_000, 2_000),
        (3_500, 3_500, 3_500),
        (7_000, 7_000, 7_000),
        (17, 17, 17),
        (20, 5_000, 100),
        (10, 12, 15),
    ];

    fn check_hrua_fit(trials: u64) {
        for (seed, case) in HRUA_CASES.into_iter().enumerate() {
            let (ngood, nbad, nsample) = case;
            let total = ngood + nbad;
            let s = nsample.min(total - nsample);
            let small = ngood.min(nbad);
            assert!(
                (small > 16 || nsample > total - small) && s > total / 64,
                "{case:?} misses HRUA"
            );
            let (chi2, bins) = hypergeometric_fit(case, trials, 300 + seed as u64);
            assert!(
                chi2 < chi2_bound(bins),
                "{case:?}: χ² = {chi2} over {bins} bins"
            );
        }
    }

    #[test]
    fn hypergeometric_hrua_goodness_of_fit() {
        check_hrua_fit(40_000);
    }

    #[test]
    #[ignore = "high power: 2·10⁶ draws per case; run in release with --ignored"]
    fn hypergeometric_hrua_goodness_of_fit_high_power() {
        check_hrua_fit(2_000_000);
    }

    /// `φ(k*) − φ(k)` summed from the logarithms of its `|k − k*|`
    /// factors, each as `ln_1p` of its excess over 1 with an exact integer
    /// numerator.
    fn envelope_gap(env: &HypergeometricEnvelope, k: u64) -> f64 {
        let (g, b, s) = (env.g as i128, env.b as i128, env.s as i128);
        let n = g + b;
        let (lo, hi) = (k.min(env.k_star), k.max(env.k_star));
        (lo..hi)
            .map(|j| {
                let j = j as i128;
                let (num, den) = if k > env.k_star {
                    (n * j - (s - 1) * g, b * (g - j))
                } else {
                    ((s - 1) * g - n * j, g * (b - s + 1 + j))
                };
                assert!(num >= 0, "factor below 1");
                (num as f64 / den as f64).ln_1p()
            })
            .sum()
    }

    #[test]
    fn envelope_squeeze_bounds_the_log_ratio_and_k_star_is_the_argmax() {
        for g in [17u64, 20, 33, 64, 100, 1_000] {
            for b in [g, 2 * g + 1, 5_000, 100_003] {
                let total = g + b;
                let top = total / 64;
                for s in [1, 2, 3, 7, top / 2, top.saturating_sub(1), top] {
                    if s == 0 || s > top {
                        continue;
                    }
                    let env = HypergeometricEnvelope::new(g, b, s);
                    // φ from prefix sums over the support.
                    let ln_falling = |m: u64, len: u64| -> Vec<f64> {
                        let mut acc = vec![0.0];
                        for i in 0..len {
                            let next = acc[i as usize] + (-(i as f64) / m as f64).ln_1p();
                            acc.push(next);
                        }
                        acc
                    };
                    let (lg, lb) = (ln_falling(g, g.min(s)), ln_falling(b, s));
                    let phi = |k: u64| lg[k as usize] + lb[(s - k) as usize];
                    let phi_star = phi(env.k_star);
                    for k in s.saturating_sub(b)..=g.min(s) {
                        let tol = 1e-12 * phi_star.abs().max(1.0);
                        assert!(
                            phi(k) <= phi_star + tol,
                            "(g, b, s) = ({g}, {b}, {s}): φ({k}) > φ(k* = {})",
                            env.k_star
                        );
                        if k == env.k_star {
                            continue;
                        }
                        let gap = envelope_gap(&env, k);
                        assert!(
                            (gap - (phi_star - phi(k))).abs() <= tol,
                            "(g, b, s) = ({g}, {b}, {s}), k = {k}: gap {gap}"
                        );
                        assert!(
                            env.squeeze(k) >= gap,
                            "(g, b, s) = ({g}, {b}, {s}), k = {k}: squeeze {} < gap {gap}",
                            env.squeeze(k)
                        );
                        let ratio = env.ratio(k);
                        assert!(
                            (ratio - (-gap).exp()).abs() <= 1e-12,
                            "(g, b, s) = ({g}, {b}, {s}), k = {k}: ratio {ratio}"
                        );
                    }
                    // k* is the *first* maximizer: φ rises strictly into it.
                    if env.k_star > 0 {
                        assert!(envelope_gap(&env, env.k_star - 1) > 0.0);
                    }
                }
            }
        }
    }

    #[test]
    fn envelope_exact_fallback_decides_when_the_squeeze_fails() {
        // Hypergeometric(20, 2000, 30): the envelope with a chop-down
        // Binomial(30, 20/2020) proposal (one uniform), k* = 1.
        let (g, b, s) = (20u64, 2_000u64, 30u64);
        let env = HypergeometricEnvelope::new(g, b, s);
        assert_eq!(env.k_star, 1);
        let pmf = binomial_pmf(s, g as f64 / (g + b) as f64);
        let cdf = |k: usize| pmf[..=k].iter().sum::<f64>();
        // A proposal uniform that inverts to K = 3, and acceptance
        // uniforms between the squeeze and the exact ratio, and above it.
        let propose_3 = (cdf(2) + cdf(3)) / 2.0;
        let (squeeze, ratio) = (1.0 - env.squeeze(3), env.ratio(3));
        assert!(squeeze < ratio && ratio < 1.0);
        let keep = (squeeze + ratio) / 2.0;
        let drop = (ratio + 1.0) / 2.0;
        // Squeeze fails, the exact ratio accepts.
        let mut rng = FixedRng::at(&[propose_3, keep]);
        assert_eq!(hypergeometric(g, b, s, &mut rng), 3);
        assert!(rng.is_spent());
        // Both fail: the draw rejects 3 and proposes again; k* = 1 is
        // kept without an acceptance uniform.
        let propose_1 = (cdf(0) + cdf(1)) / 2.0;
        let mut rng = FixedRng::at(&[propose_3, drop, propose_1]);
        assert_eq!(hypergeometric(g, b, s, &mut rng), 1);
        assert!(rng.is_spent());
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
    fn multivariate_hypergeometric_into_refills_a_reused_buffer() {
        let counts = [40u64, 25, 0, 35];
        let mut out = vec![7u64; 9];
        let mut rng = SmallRng::seed_from_u64(19);
        multivariate_hypergeometric_into(&counts, 30, &mut out, &mut rng);
        let mut again = SmallRng::seed_from_u64(19);
        assert_eq!(out, multivariate_hypergeometric(&counts, 30, &mut again));
        multivariate_hypergeometric_into(&counts, 0, &mut out, &mut rng);
        assert_eq!(out, [0, 0, 0, 0]);
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
}
