import numpy as np
import pytest

from mforge.arith import profile_range
from mforge.cli import main
from mforge.sieve import (
    Segment,
    factorize,
    primes_up_to,
)

from oracles import load_prime_cache, trial_factorize


def test_segment_validation():
    with pytest.raises(ValueError):
        Segment(0, 5)
    with pytest.raises(ValueError):
        Segment(5, 5)
    seg = Segment(3, 10)
    assert seg.width == 7
    # the kernel's bound: n = 10^17 is in, 10^17 + 1 is refused when the range is made
    assert Segment(1, 10**17 + 1).width == 10**17
    with pytest.raises(OverflowError, match="past 10\\^17"):
        Segment(10**17, 10**17 + 2)


def test_factorize_examples():
    assert factorize(12).factors == ((2, 2), (3, 1))
    assert factorize(1).factors == ()
    assert factorize(510510).factors == tuple(trial_factorize(510510))
    assert factorize(10**6 + 3).factors == ((10**6 + 3, 1),)   # prime
    with pytest.raises(ValueError):
        factorize(0)


def test_factorize_reconstructs_n():
    rng = np.random.default_rng(3)
    for n in rng.integers(1, 10**9, size=50):
        n = int(n)
        f = factorize(n)
        prod = 1
        for p, a in f:
            prod *= p**a
        assert prod == n
        assert f.factors == tuple(trial_factorize(n))


def test_primes_up_to():
    assert primes_up_to(10).tolist() == [2, 3, 5, 7]
    assert primes_up_to(1).size == 0
    assert len(primes_up_to(100)) == 25
    assert len(primes_up_to(10**6)) == 78498


def test_segmented_matches_monolithic():
    # the segment kernel gives the same columns on any window of a prefix
    whole = profile_range(Segment(1, 3 * 10**4))
    for lo in (1, 777, 15000, 29000):
        part = profile_range(Segment(lo, min(lo + 1000, 3 * 10**4)))
        for col in ("omega", "big_omega", "mobius", "c_omega"):
            want = getattr(whole, col)[lo - 1 : lo - 1 + part.segment.width]
            assert np.array_equal(getattr(part, col), want), (lo, col)


def test_prime_cache_roundtrip(tmp_path):
    path = tmp_path / "primes.bin"
    ps = primes_up_to(10**4)
    assert main(["sieve", "--limit", str(10**4), "--out", str(path)]) == 0
    raw = path.read_bytes()
    assert raw[:9] == b"MFPRIMES1"
    assert np.array_equal(load_prime_cache(path), ps)
    # the cached seeds find every prime factor <= 1e4 of a segment's entries
    seeds = load_prime_cache(path)
    for n in range(10**6, 10**6 + 100):
        small = [p for p, _ in factorize(n) if p <= 10**4]
        assert [int(p) for p in seeds[n % seeds == 0]] == small


def test_prime_cache_bad_magic(tmp_path):
    # an export with another header, or none (as a failed export is left), is refused
    path = tmp_path / "bad.bin"
    assert main(["sieve", "--limit", "100", "--out", str(path)]) == 0
    raw = path.read_bytes()
    for bad in (b"NOTPRIMES" + raw[9:], raw[9:], b""):
        path.write_bytes(bad)
        with pytest.raises(ValueError):
            load_prime_cache(path)
