"""Continued fractions, log-space magnitudes and irrationality measures."""

import math
import sys
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath.ctx_mp import MPContext

from staircase.diophantine import (
    DEFAULT_BIT_BUDGET,
    LN_SAT,
    ApproximationSample,
    ContinuedFraction,
    LogMagnitude,
    _double_tower_series_samples,
    _factorial_series_samples,
    _log_step,
    _nat_ratio,
    _targeted_log_term,
    _tower_series_samples,
    best_approx_check,
    cf_expand,
    classify,
    convergents,
    dist_to_integers,
    e_cf,
    golden_cf,
    ln_int_interval,
    ln_interval,
    log_factorial,
    log_pow,
    lookup_preset,
    mu_estimate,
    mu_from_samples,
    nat_ln_interval,
    nat_value_interval,
    presets,
    sqrt2_minus_1_cf,
    targeted_theta_cf,
    theta_estimate,
    theta_from_samples,
)
from staircase.errors import CertificationError, PreconditionError
from staircase.intervals import Enclosure


def test_cf_expand_rational():
    assert cf_expand(Fraction(17, 12), 10) == [1, 2, 2, 2]
    assert cf_expand(Fraction(2, 5), 10) == [0, 2, 2]
    assert cf_expand(Fraction(3), 10) == [3]


def test_convergents_golden_are_fibonacci():
    cf = ContinuedFraction.constant(0, 1)
    table = convergents(cf, 10)
    fib = [0, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55]
    assert [c.q for c in table] == fib[1:] + [89]
    # consecutive convergents satisfy the determinant identity
    for a, b in zip(table, table[1:]):
        assert b.p * a.q - a.p * b.q in (-1, 1)


def test_convergents_switch_to_log_space():
    def gen():
        yield 10 ** 20
        while True:
            yield 10 ** 20
    cf = ContinuedFraction(0, gen)
    table = convergents(cf, 40, bit_budget=1000)
    exact = [c for c in table if isinstance(c.q, int)]
    logged = [c for c in table if isinstance(c.q, LogMagnitude)]
    assert exact and logged
    lo, hi = nat_ln_interval(logged[0].q)
    assert 0 < lo <= hi
    # certified: ln q grows by about ln(10^20) per step
    lo2, hi2 = nat_ln_interval(logged[1].q)
    assert lo2 - hi > 0.9 * 20 * math.log(10)


def test_exact_convergent_and_floors():
    cf = ContinuedFraction.constant(0, 2)  # sqrt(2) - 1
    p, q = cf.exact_convergent(6)
    assert Fraction(p, q) == Fraction(70, 169)
    floors = cf.floors_upto(20)
    import math as m
    for k in range(1, 21):
        assert floors[k] == m.floor(k * (m.sqrt(2) - 1))


def test_value_enclosure_brackets_true_value():
    cf = ContinuedFraction.constant(0, 1)
    e = cf.value_enclosure(12)
    phi_inv = (math.sqrt(5) - 1) / 2
    assert float(e.lo) < phi_inv < float(e.hi)


def test_dist_to_integers():
    d = dist_to_integers(Fraction(7, 3))
    assert d.lo == d.hi == Fraction(1, 3)
    assert dist_to_integers(Fraction(5)).lo == 0


def test_log_magnitude_arithmetic():
    a = LogMagnitude.from_int(1000)
    lo, hi = a.ln_interval()
    assert lo <= math.log(1000.0) <= hi
    b = a.mul(a)
    lo2, hi2 = b.ln_interval()
    assert abs(lo2 - 2 * math.log(1000.0)) < 1e-9
    assert LogMagnitude.saturate().saturated
    v_lo, v_hi = a.value_interval()
    assert v_lo <= 1000.0 <= v_hi


def test_mu_estimate_e_is_small():
    est = mu_estimate(e_cf(), 30)
    # e has irrationality exponent 2; finite-N running values hover above 2
    n, lo, hi = est.running[-1]
    assert 2.0 < hi < 2.5
    assert est.caveat


def test_theta_estimate_golden_tends_to_zero_log():
    est = theta_estimate(ContinuedFraction.constant(0, 1), 20)
    vals = [hi for _, _, hi in est.running]
    assert vals[-1] < 2e-3  # log theta -> 0: not Liouville at all
    assert vals[-1] < vals[0]
    assert est.caveat


def test_theta_from_samples_prefers_certified_ratio():
    s = ApproximationSample("s1", 10, LogMagnitude(20.0, 20.1),
                            ratio_bounds=(2.0, 2.01))
    est = theta_from_samples([s])
    assert est.headline == (2.0, 2.01)


def test_mu_from_samples_monotone_headline():
    samples = [
        ApproximationSample("a", 10, LogMagnitude(5.0, 5.0)),
        ApproximationSample("b", 100, LogMagnitude(20.0, 20.0)),
    ]
    est = mu_from_samples(samples)
    assert est.headline[0] <= est.headline[1]
    assert est.headline[1] >= 1.0


def test_best_approx_check_golden_convergent():
    cf = ContinuedFraction.constant(0, 1)
    enc = cf.value_enclosure(25)
    res = best_approx_check(enc, 8, 13)
    assert res["first_kind"] and res["second_kind"]
    res = best_approx_check(enc, 7, 12)
    assert not res["second_kind"]


def test_best_approx_check_too_wide_enclosure_is_certification_error():
    wide = ContinuedFraction.constant(0, 1).value_enclosure(2)  # [1/2, 2/3]
    with pytest.raises(CertificationError):
        best_approx_check(wide, 8, 13)


def test_cf_expand_is_euclid_and_rebuilds_its_rational():
    for x in (Fraction(-3, 2), Fraction(1), Fraction(355, 113), Fraction(89, 144)):
        quotients = cf_expand(x, 50)
        assert len(quotients) == 1 or quotients[-1] > 1
        value = Fraction(quotients[-1])
        for a in reversed(quotients[:-1]):
            value = a + 1 / value
        assert value == x
    assert cf_expand(Fraction(89, 144), 3) == [0, 1, 1, 1]


def test_dist_to_integers_of_negative_rationals():
    assert dist_to_integers(Fraction(-7, 3)).lo == Fraction(1, 3)
    assert dist_to_integers(Fraction(-1, 2)).hi == Fraction(1, 2)


def test_best_approx_check_rational_target():
    res = best_approx_check(Fraction(5, 8), 2, 3)
    assert res["second_kind"]


def test_best_approx_check_rational_matches_exact_enclosure():
    # rational targets compare Fractions directly; the verdicts must be those
    # of the degenerate enclosure [t, t], ties included
    for t in (Fraction(5, 8), Fraction(1, 2), Fraction(13, 21), Fraction(7, 3)):
        for q in range(1, 9):
            for p in range(3 * q):
                if math.gcd(p, q) == 1:
                    assert (best_approx_check(t, p, q)
                            == best_approx_check(Enclosure.exact(t), p, q))


def test_targeted_theta_cf_hits_log_beta():
    for beta in (2, 3, 10):
        cf = targeted_theta_cf(Fraction(beta))
        est = theta_estimate(cf, 7)
        _, lo, hi = est.running[-1]
        assert abs(lo - math.log(beta)) < 1e-3
        assert abs(hi - math.log(beta)) < 1e-3


def test_presets_and_lookup():
    table = presets()
    for name in ("alpha1", "alpha2", "alpha3", "alpha4", "alpha5",
                 "alpha6", "alpha7", "golden", "sqrt2m1", "e"):
        assert name in table
    p = lookup_preset("targeted:2")
    assert p.cf is not None
    with pytest.raises(PreconditionError):
        lookup_preset("nope")


def test_preset_samples_window():
    alpha4 = lookup_preset("alpha4")
    assert alpha4.samples(0) == []
    assert [s.label for s in alpha4.samples(2)] == ["m=1", "m=2"]
    with pytest.raises(PreconditionError):
        alpha4.samples(-1)


def test_classification_structure():
    c = classify(lookup_preset("golden"), N=8)
    assert c.caveat and c.theta is not None
    assert c.label in ("hypo-exponential", "exponential",
                       "hyper-exponential", "apparently-non-Liouville")


def _floors_from_scratch(cf: ContinuedFraction, n: int):
    """The former floor table: each convergent rebuilt from a_0 up."""
    if n == 0:
        return [0]
    k = 1
    while cf.exact_convergent(k - 1)[1] <= n:
        k += 1
    p, q = cf.exact_convergent(k)
    return [(m * p) // q for m in range(n + 1)]


@pytest.mark.parametrize("make", [golden_cf, sqrt2_minus_1_cf, e_cf])
def test_floors_upto_one_pass_matches_rebuilt_convergents(make):
    for n in list(range(60)) + [144, 233, 985, 1000, 4181, 5741, 10 ** 4]:
        assert make().floors_upto(n) == _floors_from_scratch(make(), n), n


def test_floors_upto_log_space_term_is_certification_error():
    cf = ContinuedFraction.from_quotients(0, [2, LogMagnitude(10.0, 11.0)], name="big")
    with pytest.raises(CertificationError, match="q_2 of big is not exactly representable"):
        cf.floors_upto(5)


@pytest.mark.parametrize("make", [lambda qs: ContinuedFraction.from_quotients(0, qs),
                                  lambda qs: ContinuedFraction(0, lambda: iter(qs))])
def test_estimates_stop_at_the_end_of_a_finite_quotient_list(make):
    # a list of 5 quotients, with and without a known length, gives the same
    # window for any N >= 5 as for N = 5
    qs = [1, 2, 3, 4, 5]
    for estimate in (mu_estimate, theta_estimate):
        assert estimate(make(qs), 20) == estimate(make(qs), 5)
    assert [n for n, _, _ in theta_estimate(make(qs), 20).running] == [1, 2, 3, 4]


def test_window_notes_name_the_last_row_kept():
    # alpha5's q_6 overflows float logs: both estimators stop early, and each
    # note names the last n of its running values
    alpha5 = lookup_preset("alpha5")
    for est in (alpha5.mu_estimate(8), alpha5.theta_estimate(8)):
        assert est.window_note.endswith(f"window ends at n={est.running[-1][0]}"), est


# ---------------------------------------------------------------------------
# The log-space layer against mpmath at 200 bits
# ---------------------------------------------------------------------------

MP = MPContext()  # a local context: the global mpmath precision stays as it is
MP.prec = 200


def _ints(max_bits):
    """Ints of 1..max_bits bits, every bit length about equally likely."""
    return st.integers(1, max_bits).flatmap(lambda b: st.integers(1 << (b - 1), (1 << b) - 1))


def _logs(lo, hi):
    return st.tuples(st.floats(lo, hi), st.floats(lo, hi)).map(
        lambda t: LogMagnitude(min(t), max(t)))


INTS = st.one_of(_ints(64), _ints(20000))
LOGS = st.one_of(_logs(0.0, 60.0), _logs(690.0, 720.0))
NATS = st.one_of(INTS, LOGS)
BOUNDED = settings(max_examples=60, deadline=None, derandomize=True)


def _lns(x):
    """Logs of values the Nat x may stand for: ln of the int itself, or the
    ends and the middle of a LogMagnitude's interval."""
    if isinstance(x, int):
        return [MP.log(x)]
    lo, hi = MP.mpf(x.ln_lo), MP.mpf(x.ln_hi)
    return [lo, hi, (lo + hi) / 2]


def _values(x):
    return [MP.mpf(x)] if isinstance(x, int) else [MP.exp(t) for t in _lns(x)]


def _contains(interval, v):
    lo, hi = interval
    return MP.mpf(lo) <= v <= MP.mpf(hi)


@BOUNDED
@given(INTS)
def test_ln_int_interval_contains_ln(n):
    assert _contains(ln_int_interval(n), MP.log(n))


@BOUNDED
@given(INTS)
@example(10 ** 400)
@example((1 << 20000) - 1)
def test_ln_int_interval_is_a_few_ulps_wide(n):
    # past 900 bits too, where ln n comes from the top 64 bits and the shift
    lo, hi = ln_int_interval(n)
    assert hi - lo <= 8 * math.ulp(hi)


@BOUNDED
@given(LOGS, NATS)
def test_log_magnitude_mul_contains_the_ln_of_the_product(m, x):
    out = m.mul(x).ln_interval()
    assert all(_contains(out, u + v) for u in _lns(m) for v in _lns(x))


@BOUNDED
@given(NATS, NATS)
# an exponent past 2^53 whose float conversion rounds: the product's one
# step outward does not cover both roundings
@example(LogMagnitude(0.4437530933682443, 0.4437530933682443),
         16692856828780238338333969446955761371916183303526090009542020464465214215017262)
def test_log_pow_contains_exponent_times_ln_base(base, exponent):
    out = log_pow(base, exponent).ln_interval()
    assert all(_contains(out, e * b) for b in _lns(base) for e in _values(exponent))


@BOUNDED
@given(st.one_of(st.integers(1, 2000), _ints(1023), INTS, LOGS))
@example(10 ** 306)
@example(10 ** 300)
def test_log_factorial_contains_ln_factorial(x):
    # every branch: ln of the exact factorial up to 2000, Stirling bounds on
    # an int in float range, and the value bounds of a bigger int or a
    # LogMagnitude; near the float maximum the Stirling bounds saturate
    out = log_factorial(x).ln_interval()
    assert all(_contains(out, MP.loggamma(v + 1)) for v in _values(x))
    assert out[1] < LN_SAT or out[1] == math.inf  # a larger log is [LN_SAT, inf)


@BOUNDED
@given(NATS, NATS, st.integers(0, 1000))
def test_log_step_contains_ln_of_the_recurrence(a, prev, share):
    # prev2 <= prev: a share of an int prev, or below a LogMagnitude's interval
    if isinstance(prev, int):
        prev2 = prev * share // 1000
    else:
        prev2 = LogMagnitude(prev.ln_lo * share / 1000, prev.ln_lo * share / 1000)
    out = _log_step(a, prev, prev2).ln_interval()
    for base in (u + v for u in _lns(a) for v in _lns(prev)):
        # ln(a prev + prev2) = ln(a prev) + ln(1 + prev2 / (a prev))
        exact = [base] if prev2 == 0 else [base + MP.log1p(MP.exp(w - base)) for w in _lns(prev2)]
        assert all(_contains(out, v) for v in exact)


@BOUNDED
@given(NATS)
def test_nat_value_interval_contains_the_value(x):
    lo, hi = nat_value_interval(x)
    if isinstance(x, int):
        assert lo <= x <= hi  # int against float compares exactly
    else:
        assert all(_contains((lo, hi), v) for v in _values(x))


def test_value_interval_is_a_lower_bound_where_exp_is_finite():
    lo, _ = LogMagnitude(705.0, 705.0).value_interval()
    assert lo <= math.exp(705) and MP.mpf(lo) <= MP.exp(705)
    assert LogMagnitude(720.0, 720.0).value_interval() == (sys.float_info.max, math.inf)


# ln_interval on (1, 10^400]: 1 + 2^-k, quotients of ints of up to 2000 bits,
# and values past float range (its ln(numerator) - ln(denominator) branch)
NEAR_ONE = st.integers(1, 200).map(lambda k: 1 + Fraction(1, 1 << k))
QUOTIENTS = st.tuples(_ints(2000), _ints(2000)).filter(lambda t: t[0] != t[1]).map(
    lambda t: Fraction(max(t), min(t)))
BEYOND_FLOATS = _ints(2000).flatmap(
    lambda q: st.integers(q + 1, 10 ** 400 * q).map(lambda p: Fraction(p, q)))


@BOUNDED
@given(st.one_of(NEAR_ONE, QUOTIENTS, BEYOND_FLOATS).filter(lambda x: x <= 10 ** 400))
@example(Fraction(10 ** 400))
@example(1 + Fraction(1, 1 << 60))
def test_ln_interval_contains_ln(x):
    # log1p of the exact x - 1, so an x near 1 keeps its digits at 200 bits
    exact = MP.log1p(MP.mpf(x.numerator - x.denominator) / x.denominator)
    assert _contains(ln_interval(x), exact)


# x = p/q past float range with q of up to 20000 bits: ln q's interval is
# then many ulps of ln x wide, so pairing the wrong ends of ln p's and ln q's
# intervals shows
HUGE_DENOMINATORS = _ints(20000).flatmap(
    lambda q: st.integers(q << 1100, q << 1400).map(lambda p: Fraction(p, q)))


@BOUNDED
@given(HUGE_DENOMINATORS)
def test_ln_interval_contains_ln_over_huge_denominators(x):
    exact = MP.log(x.numerator) - MP.log(x.denominator)
    assert _contains(ln_interval(x), exact)


def test_ln_interval_needs_x_above_one():
    with pytest.raises(PreconditionError):
        ln_interval(Fraction(1))


SATURATED = st.floats(0.0, LN_SAT).map(LogMagnitude.saturate)


@BOUNDED
@given(st.one_of(LOGS, _logs(-800.0, -700.0), SATURATED), st.one_of(NATS, SATURATED))
@example(LogMagnitude.saturate(0.0), LogMagnitude.saturate(0.0))
def test_nat_ratio_contains_the_ratio(num, den):
    lo, hi = _nat_ratio(num, den)
    assert 0.0 <= lo <= hi
    # inf - inf, from two saturated logs, stands for no value
    assert all(_contains((lo, hi), MP.exp(u - v)) for u in _lns(num) for v in _lns(den)
               if not MP.isnan(u - v))


def test_value_interval_is_never_negative():
    assert LogMagnitude(-800.0, -800.0).value_interval()[0] == 0.0


def test_mu_sample_row_holds_the_value_past_exp_700():
    # ln(-ln||q alpha||) = 705: the value 1 + e^705 / ln 10 is about 6.54e305
    est = mu_from_samples([ApproximationSample("x", 10, LogMagnitude(705.0, 705.0))])
    (_, lo, hi), = est.running
    assert _contains((lo, hi), 1 + MP.exp(705) / MP.log(10))


def test_classify_theta_enclosure_holds_exp_of_the_trailing_bounds():
    c = classify(lookup_preset("alpha5"))
    tail = c.theta.running[-3:]
    head_lo, head_hi = max(t[1] for t in tail), max(t[2] for t in tail)
    assert c.label == "exponential"
    assert _contains(c.theta_enclosure, MP.exp(head_lo))
    assert _contains(c.theta_enclosure, MP.exp(head_hi))


def test_log_space_convergents_contain_p_and_q():
    # every step in log space, p_1 = 1 from p_0 = 0 included
    fib = [0, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55]
    for c in convergents(golden_cf(), 9, bit_budget=0)[1:]:
        assert _contains(nat_ln_interval(c.p), MP.log(fib[c.index]))
        assert _contains(nat_ln_interval(c.q), MP.log(fib[c.index + 1]))


# The log-space term of targeted_theta_cf: beta in (1, 1000] and q with
# q log2(beta) past DEFAULT_BIT_BUDGET, from 10^7 to about 2e300, exact or a
# LogMagnitude.  Its interval must hold ln(beta^q / q); ln floor(beta^q / q)
# is smaller by under 2 q / beta^q, far below 200 bits here.
TARGETED_BETAS = st.integers(1, 999 * 10 ** 6).map(lambda n: 1 + Fraction(n, 10 ** 6))


def _branch_qs(beta):
    q0 = max(10 ** 7, math.ceil(DEFAULT_BIT_BUDGET / math.log2(beta)) + 1)
    ints = st.integers(q0.bit_length(), 997).flatmap(
        lambda b: st.integers(max(q0, 1 << (b - 1)), (1 << b) - 1))
    return st.one_of(ints, _logs(math.log(q0), 690.0))


@BOUNDED
@given(TARGETED_BETAS.flatmap(lambda b: st.tuples(st.just(b), _branch_qs(b))))
@example((Fraction(2), 663869261710))  # a point-float ln 2 put the upper end below
@example((Fraction(10), 803805776965))  # and a point-float ln 10 the lower end above
def test_targeted_log_term_contains_ln_of_the_quotient(beta_q):
    beta, q = beta_q
    for b in (Fraction(2), beta):  # beta = 2, the preset alpha5, in every example
        out = _targeted_log_term(LogMagnitude(*ln_interval(b)), q).ln_interval()
        ln_b = MP.log(MP.mpf(b.numerator) / b.denominator)
        assert all(_contains(out, v * ln_b - MP.log(v)) for v in _values(q)), (b, q)


def test_targeted_theta_cf_needs_beta_cubed_at_least_3():
    # below 3^(1/3) some floor(beta^q / q) is 0: at q = 2 or at q = 3
    for beta in (Fraction(1, 2), Fraction(1), Fraction(5, 4), Fraction(14422, 10000)):
        with pytest.raises(PreconditionError, match=r"beta\^3 >= 3"):
            targeted_theta_cf(beta)
    cf = targeted_theta_cf(Fraction(144225, 100000))
    assert [c.q for c in convergents(cf, 7)] == [1, 1, 2, 3, 5, 8, 21, 104 * 21 + 8]


@pytest.mark.parametrize("samples, labels", [
    (partial(_factorial_series_samples, 3), 169),
    (partial(_factorial_series_samples, 10), 169),
    (partial(_tower_series_samples, 3), 4),
    (partial(_tower_series_samples, 10), 3),
    (_double_tower_series_samples, 1),
])
def test_series_samples_run_until_their_bounds_leave_float_range(samples, labels):
    assert [s.label for s in samples()] == [f"m={m}" for m in range(1, labels + 1)]


@pytest.mark.parametrize("samples", [_factorial_series_samples, _tower_series_samples])
def test_base_two_series_end_before_their_first_sample(samples):
    # at m = 1 the lower bound gap*ln 2 - ln 2 on -ln||2 alpha|| is 0: the
    # factor-2 bound on ||s_m alpha|| fails there, and 0 has no log
    assert list(samples(2)) == []


def _alpha1(m):
    """ln s_m and -ln||s_m alpha|| for alpha1 = sum 10^-k!, s_m = 10^m!."""
    f = math.factorial(m)
    dist = MP.fsum(MP.power(10, f - math.factorial(k)) for k in range(m + 1, m + 4))
    return f * MP.log(10), -MP.log(dist)


# ln s_m for alpha4 = sum 1/EXP_k(10); -ln||s_m alpha|| = ln s_(m+1) - ln s_m,
# to 200 bits: s_(m+1)/s_(m+2) is below 10^-(10^10)
ALPHA4_LN_S = [MP.log(10) * t for t in (1, 10, 10 ** 10, MP.power(10, 10 ** 10))]


def _sample_holds(s, ln_s, neg_log_dist):
    assert _contains(nat_ln_interval(s.q), ln_s), s
    assert _contains(s.neg_log_dist.ln_interval(), MP.log(neg_log_dist)), s
    assert s.ratio_bounds is None or _contains(s.ratio_bounds, neg_log_dist / MP.exp(ln_s)), s


def test_series_samples_contain_their_values():
    for m, s in enumerate(lookup_preset("alpha1").samples(25), start=1):
        _sample_holds(s, *_alpha1(m))
    samples = lookup_preset("alpha4").samples(5)
    assert len(samples) == 3
    for m, s in enumerate(samples):
        _sample_holds(s, ALPHA4_LN_S[m], ALPHA4_LN_S[m + 1] - ALPHA4_LN_S[m])
    # alpha7: b_1 = EXP_2(2) = 4 and b_2 = EXP_4(4) = 4^(4^256), b_2/b_3 tiny
    s, = lookup_preset("alpha7").samples(5)
    assert s.q == 4
    _sample_holds(s, MP.log(4), (MP.mpf(4) ** 256 - 1) * MP.log(4))
