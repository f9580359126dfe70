import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mforge.arith import profile_range
from mforge.dirichlet import (
    IDENTITY_LABELS,
    IDENTITY_NAMES,
    NonIntegerInverseError,
    NonInvertibleError,
    convolve,
    dirichlet_inverse,
    prime_indicator,
    unit_sequence,
    verify_identity,
)
from mforge.sieve import Segment

from oracles import (
    dirichlet_convolution_oracle,
    dirichlet_inverse_oracle,
    mobius_oracle,
    omega_oracle,
)


def test_divisor_count():
    ones = np.ones(12, dtype=np.int64)
    d = convolve(ones, ones)
    assert d[5] == 4 and d[11] == 6     # d(6), d(12)


def test_omega_star_mu_is_prime_indicator(profile_1e4):
    N = 50
    om = profile_1e4.omega[:N].astype(np.int64)
    mu = profile_1e4.mobius[:N].astype(np.int64)
    chi = convolve(om, mu)
    assert chi[6] == 1 and chi[5] == 0 and chi[3] == 0    # n = 7, 6, 4
    assert np.array_equal(chi, prime_indicator(N))


def test_unit_is_identity():
    rng = np.random.default_rng(2)
    f = rng.integers(-50, 50, size=100)
    f = f.astype(np.int64)
    assert np.array_equal(convolve(unit_sequence(100), f), f)


@st.composite
def _convolution_operands(draw):
    """Two int64 sequences of length N <= 300, each under its own magnitude.

    Magnitude pairs whose product times max d(n) passes 2^63 send convolve
    to its exact fallback; there some sums fit int64 and some overflow.
    """
    N = draw(st.integers(1, 300))
    seqs = []
    for _ in range(2):
        mag = draw(st.sampled_from([9, 2**20, 2**31, 2**40, 2**62, 2**63 - 1]))
        seqs.append(draw(st.lists(st.integers(-mag, mag), min_size=N, max_size=N)))
    return seqs


@settings(derandomize=True, max_examples=100, deadline=None)
@given(_convolution_operands())
def test_convolve_matches_oracle_random(operands):
    f, h = (np.array(s, dtype=np.int64) for s in operands)
    want = dirichlet_convolution_oracle(*operands)
    if max(map(abs, want)) > np.iinfo(np.int64).max:
        with pytest.raises(OverflowError):
            convolve(f, h)
    else:
        assert convolve(f, h).tolist() == want


def test_narrow_operands_match_oracles():
    # int8 and uint8 extremes across blocks 2..256: every product must be taken
    # in int64, since -128 * -128 and 255 * 255 wrap in the operand dtype
    N = 300
    i8 = np.resize(np.array([-128, 127, -128, 0], dtype=np.int8), N)
    u8 = np.resize(np.array([255, 0, 255], dtype=np.uint8), N)
    for f, h in ((i8, i8), (i8, u8), (u8, i8), (u8, u8)):
        assert convolve(f, h).tolist() == dirichlet_convolution_oracle(f, h)
    # extremes at every n = 0 or 1 mod 3 past 2 keep the inverses within int64
    for dtype, lo, hi, f1 in ((np.int8, -128, 127, 1), (np.int8, -128, 127, -1),
                              (np.uint8, 255, 255, 1)):
        f = np.zeros(N, dtype=dtype)
        f[2::3], f[3::3], f[0] = lo, hi, f1
        want = dirichlet_inverse_oracle(f)
        assert max(map(abs, want)) < 2**48
        assert dirichlet_inverse(f).tolist() == want


def test_convolve_commutative_associative():
    rng = np.random.default_rng(6)
    N = 512
    f = rng.integers(-7, 8, size=N).astype(np.int64)
    g = rng.integers(-7, 8, size=N).astype(np.int64)
    h = rng.integers(-7, 8, size=N).astype(np.int64)
    assert np.array_equal(convolve(f, g), convolve(g, f))
    assert np.array_equal(convolve(convolve(f, g), h), convolve(f, convolve(g, h)))


def test_convolve_length_mismatch():
    with pytest.raises(ValueError):
        convolve(np.ones(5, dtype=np.int64), np.ones(6, dtype=np.int64))


def test_convolve_huge_values_fall_back_exactly():
    # sparse spikes: the conservative pre-check cannot rule out overflow,
    # but every true value fits, so the exact path must agree with the oracle
    f = np.zeros(64, dtype=np.int64)
    h = np.zeros(64, dtype=np.int64)
    f[30] = 2**41       # f(31)
    h[1] = 2**21        # h(2)
    h[0] = 1
    assert convolve(f, h).tolist() == dirichlet_convolution_oracle(f, h)
    assert convolve(f, h)[61] == 2**62     # n = 62


def test_convolve_overflow_aborts():
    f = np.full(4, 2**62, dtype=np.int64)
    h = np.full(4, 4, dtype=np.int64)
    with pytest.raises(OverflowError):
        convolve(f, h)


def test_inverse_of_ones_is_mobius():
    N = 10**4
    inv = dirichlet_inverse(np.ones(N, dtype=np.int64))
    assert all(inv[n - 1] == mobius_oracle(n) for n in range(1, 301))
    mu = profile_range(Segment(1, N + 1)).mobius
    assert np.array_equal(inv, mu.astype(np.int64))


def test_inverse_of_omega_plus_one_matches_oracle():
    N = 10**4
    om = profile_range(Segment(1, N + 1)).omega
    w1 = om.astype(np.int64) + 1
    assert dirichlet_inverse(w1).tolist() == dirichlet_inverse_oracle(w1)


@st.composite
def _inverse_operands(draw):
    """A sequence of length N <= 300 with f(1) = +-1 and |f(n)| <= a drawn
    magnitude, about half its entries zero.

    Large magnitudes trip the engine's int64 guard and send it to Python
    ints; with the zeros, some of those inverses still fit int64 and the
    others overflow.
    """
    N = draw(st.integers(1, 300))
    mag = draw(st.sampled_from([9, 2**20, 2**31, 2**40, 2**62]))
    f = draw(st.lists(st.just(0) | st.integers(-mag, mag), min_size=N, max_size=N))
    f[0] = draw(st.sampled_from([-1, 1]))
    return f


@settings(derandomize=True, max_examples=100, deadline=None)
@given(_inverse_operands())
def test_inverse_matches_oracle_random(f):
    want = dirichlet_inverse_oracle(f)
    if max(map(abs, want)) > np.iinfo(np.int64).max:
        with pytest.raises(OverflowError):
            dirichlet_inverse(np.array(f, dtype=np.int64))
    else:
        assert dirichlet_inverse(np.array(f, dtype=np.int64)).tolist() == want


def test_inverse_of_prime_indicator_plus_unit(profile_1e4):
    N = 2000
    inv = dirichlet_inverse(prime_indicator(N) + unit_sequence(N))
    lam_c = profile_1e4.u[:N]
    assert np.array_equal(inv, lam_c)


def test_inverse_involution():
    rng = np.random.default_rng(8)
    for f1 in (1, -1):
        f = rng.integers(-5, 6, size=256).astype(np.int64)
        f[0] = f1
        assert np.array_equal(dirichlet_inverse(dirichlet_inverse(f)), f)


def test_inverse_convolves_to_unit():
    rng = np.random.default_rng(9)
    f = rng.integers(-4, 5, size=512).astype(np.int64)
    f[0] = 1
    assert np.array_equal(convolve(f, dirichlet_inverse(f)), unit_sequence(512))


def test_inverse_error_cases():
    f = np.ones(10, dtype=np.int64)
    f[0] = 0
    with pytest.raises(NonInvertibleError):
        dirichlet_inverse(f)
    f[0] = 2
    with pytest.raises(NonIntegerInverseError):
        dirichlet_inverse(f)


def test_identity_c_at_4(profile_1e4):
    # lambda(4) g(4) = 2 equals C(2) mu^2(2) + C(4) mu^2(1) = 1 + 1
    p = profile_1e4
    assert int(p.liouville[3]) * int(p.g[3]) == 2


@pytest.mark.parametrize("name", IDENTITY_NAMES)
def test_identity_suite_1e4(name, profile_1e4):
    report = verify_identity(name, 10**4, profile=profile_1e4)
    assert report.passed, report
    assert report.first_failure is None
    assert "pass" in str(report)
    assert name in IDENTITY_LABELS


@pytest.mark.parametrize("N", [1, 2, 997])
def test_identity_suite_on_a_wider_profile(N, profile_1e4):
    # each identity reads only the first N entries of a profile that runs
    # past N, and reports a failure at n = i + 1
    prof = dataclasses.replace(profile_1e4, u=profile_1e4.u.copy())
    prof.u[N] += 1              # n = N + 1, outside the check
    for name in IDENTITY_NAMES:
        assert verify_identity(name, N, profile=prof).passed, name
    prof.u[N - 1] += 1          # n = N
    report = verify_identity("c", N, profile=prof)
    assert not report.passed and report.first_failure[0] == N


def test_identity_on_a_wide_profile_builds_g_over_n_only():
    N = 1000
    wide = profile_range(Segment(1, 2 * 10**5 + 1))
    exact = verify_identity("c", N, profile=profile_range(Segment(1, N + 1)))
    tracemalloc.start()
    try:
        report = verify_identity("c", N, profile=wide)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(report) == str(exact) and report.passed
    assert "g" not in vars(wide)
    assert peak < 1 << 20


def test_identity_report_detects_failure(profile_1e4):
    # break the identity by checking (a) against a deliberately wrong N slice
    import mforge.dirichlet as dd

    chi = dd.prime_indicator(100)
    chi[3] = 1  # corrupt n = 4
    om = profile_1e4.omega[:100].astype(np.int64)
    mu = profile_1e4.mobius[:100].astype(np.int64)
    rep = dd._first_failure("a", 100, chi, dd.convolve(om, mu))
    assert not rep.passed
    assert rep.first_failure == (4, 1, 0)
    assert "FAIL" in str(rep)


def test_mu_equals_lambda_mu_squared(profile_1e4):
    p = profile_1e4
    mu = p.mobius.astype(np.int64)
    lam = p.liouville.astype(np.int64)
    assert np.array_equal(mu, lam * (mu != 0))
