"""Per-n arithmetic functions, pointwise and in bulk.

Covers the distinct/total prime-factor counts omega and big_omega, mobius,
liouville, the exponent-multinomial coefficient ``c_omega`` (the multinomial
of the exponent multiset of n), and the table ``g`` defined as the Dirichlet
inverse of ``omega + 1``, computed by ``dirichlet.dirichlet_inverse``.  Bulk
computation works over arbitrary contiguous segments; ``g`` is only defined
for prefix ranges starting at 1 because its recursion is a prefix dependency.
"""

import math
from dataclasses import dataclass
from functools import cache, cached_property
from math import isqrt

import numpy as np

from .parallel import WorkerPool, Workspace
from .sieve import DEFAULT_SEGMENT_CAPACITY, Factorization, Segment, factorize, primes_up_to

#: Values at or beyond this bound trigger the checked-overflow error in the
#: pointwise multinomial (128-bit capacity semantics).
C_OMEGA_CHECK_BOUND = 1 << 127

_INT64_MAX = np.iinfo(np.int64).max

#: ceil(2^(k/4)) for k = 0..128, the least t with t^4 >= 2^k: a prime
#: p < 2^32 has floor(4 log2 p) = k exactly when it lies in [t_k, t_(k+1)).
_LG_STEPS = np.array([isqrt(isqrt((1 << k) - 1)) + 1 for k in range(129)], dtype=np.int64)


def _lg(p):
    """floor(4 * log2(p)) per prime p < 2^32, exactly, as uint8: the byte log
    a prime adds per level."""
    return (np.searchsorted(_LG_STEPS, p, side="right") - 1).astype(np.uint8)


#: The sieve keeps the byte log L of each entry in the low byte of one
#: little-endian uint16 word and -omega (mod 256) in its high byte, so a
#: level-1 step is one add of lg - 256 (mod 2^16).
_WORD = np.dtype("<u2")
_LEVEL_ONE = 0xFF00


#: After the sieve, the derived columns are built this many entries at a
#: time, so their temporaries stay in cache whatever the segment width.
_CHUNK = 1 << 16

#: A step whose stride is at least the segment width over this hits the
#: segment at most this many times, and goes through the one scatter pass.
_SPARSE_HITS = 16


def _level_code(e: int) -> int:
    """The denominator code a level-e step adds: v2(e) in bits 10-14, and
    v3(e) + 9 v5(e) + 45 v7(e) + 135 [e in {11, 13, 17, 19}] in bits 0-9.

    Where big_omega <= 20, the product den of alpha_i! over n's exponents
    divides big_omega! and so 20!, whose v2, v3, v5, v7 are 18, 8, 4, 2: no
    digit carries.  At most one exponent reaches 11 (two would make big_omega
    >= 22), so den's factors 11, 13, 17, 19 are a prefix of that list, fixed
    by their count j <= 4.  A level with a prime factor above 19 exists only
    where big_omega > 20, whose entries take the exact path; it adds 0.
    """
    if not 2 <= e <= 20:
        return 0
    v = [0] * 4
    for i, p in enumerate((2, 3, 5, 7)):
        while e % p == 0:
            e //= p
            v[i] += 1
    return v[0] << 10 | v[1] + 9 * v[2] + 45 * v[3] + 135 * (e > 1)


#: The code of each level e <= 56 (2^57 > 10^17), as uint16.
_CODE = np.array([_level_code(e) for e in range(57)], dtype=np.uint16)

#: Pairwise coprime periods of the presieve patterns.  Every prime-power
#: level q = p^e, e >= 1, that divides a period is a pattern: 2..2^12,
#: 3..3^5 with 5 and 5^2, and 7, 11 and 13; every other level is a step.
#: The higher levels, 3^6 and 5^3 the densest, stay steps: periods 2^16 and
#: 3^6 5^3 sieved 2^20 segments at 9e7 no faster on a 2-vCPU Xeon VM, with
#: 16 times the table bytes, and period 7007 (7^2 too) timed as 1001 did.
_PATTERN_PERIODS = (1 << 12, 3**5 * 5**2, 7 * 11 * 13)


@cache
def _patterns(periods: tuple) -> tuple:
    """Per period P of ``periods``, the word, ``extra`` and ``code`` adds of
    its levels per residue mod P: the sum of what the steps of the levels
    q | P would add to an entry n with n = residue (mod P), where a level-1
    step adds lg(p) - 256 to the word alone.  A column that no level adds to
    is None.  A level q >= hi has no multiple in [lo, hi), so a pattern is
    exact on every segment, whether or not p is a seed prime of it."""
    patterns = []
    for period in periods:
        word = np.zeros(period, dtype=_WORD)
        extra = np.zeros(period, dtype=np.uint8)
        code = np.zeros(period, dtype=np.uint16)
        for p, a in factorize(period):
            word[::p] += _LEVEL_ONE               # level 1 also counts in omega
            for e in range(1, a + 1):
                word[::p**e] += _lg(p)
                if e > 1:
                    extra[::p**e] += 1
                    code[::p**e] += _CODE[e]
        for col in (word, extra, code):
            col.flags.writeable = False     # shared by every caller
        patterns.append(tuple(col if col.any() else None for col in (word, extra, code)))
    return tuple(patterns)


def _add_periodic(col, lo: int, pattern):
    """col[i] += pattern[(lo + i) % P] for every entry, P = len(pattern): a
    head slice, one broadcast add over the whole periods, and a tail slice."""
    period, width = len(pattern), len(col)
    off = lo % period
    head = min(-off % period, width)
    col[:head] += pattern[off:off + head]
    k = (width - head) // period
    col[head:head + k * period].reshape(k, period)[...] += pattern
    tail = col[head + k * period:]
    tail += pattern[:len(tail)]


@cache
def _quotient_table() -> np.ndarray:
    """Flat int64 table T with T[1024 b + k] = (-1)^b b! / odd(k), b <= 20.

    odd(k) is the odd part of a denominator with low code k: 3^d0 5^d1 7^d2
    times the first j of 11, 13, 17, 19, for k = d0 + 9 d1 + 45 d2 + 135 j.
    Where odd(k) does not divide b! (no n with big_omega = b has that code)
    the entry is 0, as are the codes from 675 on.  Since den divides b!, the
    entry at n is divisible by 2^v2(den), so the arithmetic shift
    ``T[...] >> v2`` is exact: it gives liouville * c_omega.
    """
    k = np.arange(675)
    odd = (3 ** (k % 9) * 5 ** (k // 9 % 5) * 7 ** (k // 45 % 3)
           * np.array([1, 11, 11 * 13, 11 * 13 * 17, 11 * 13 * 17 * 19])[k // 135])
    fact = np.array([(-1) ** b * math.factorial(b) for b in range(21)], dtype=np.int64)[:, None]
    table = np.zeros((21, 1024), dtype=np.int64)
    table[:, :675] = np.where(fact % odd == 0, fact // odd, 0)
    table = table.ravel()
    table.flags.writeable = False           # shared by every caller
    return table


#: The per-n columns ``profile_range`` and ``profile_chunks`` can compute, in
#: profile field order; u is liouville * c_omega.
PROFILE_COLUMNS = ("omega", "big_omega", "mobius", "liouville", "c_omega", "u")

#: Dtypes of the columns built chunk by chunk.
_DERIVED = {"omega": np.uint8, "mobius": np.int8, "liouville": np.int8,
            "c_omega": np.int64, "u": np.int64}


@dataclass
class ArithmeticProfile:
    """Per-n function values over one contiguous segment.

    Arrays are indexed by offset ``n - segment.lo``; a column that was not
    asked of ``profile_range`` is None.
    """

    segment: Segment
    omega: np.ndarray | None        # uint8, distinct prime factors
    big_omega: np.ndarray | None    # uint8, prime factors with multiplicity
    mobius: np.ndarray | None       # int8 in {-1, 0, +1}
    liouville: np.ndarray | None    # int8 in {-1, +1}
    c_omega: np.ndarray | None      # int64, exponent multinomial, overflow-checked
    u: np.ndarray | None            # int64, liouville * c_omega

    @cached_property
    def g(self) -> np.ndarray | None:
        """The inverse table g as int64, built on first read from the omega
        column (or from a fresh omega sweep when it was not built); None
        unless the segment starts at 1 (prefix dependency)."""
        if self.segment.lo != 1:
            return None
        return g_table(self.segment.hi - 1, omega=self.omega)


def profile_range(segment: Segment, columns=PROFILE_COLUMNS) -> ArithmeticProfile:
    """Compute the requested per-n columns over a segment in vectorized sweeps.

    A segmented Mobius sieve in the manner of Deleglise & Rivat (Exp. Math.
    1996), with no division and no table gather per prime:

    * Sieve word: each entry's byte log L and -omega (mod 256) share one
      little-endian uint16 word, L in the low byte.
    * Steps: every level q = p^e < hi, e >= 1, of a seed prime
      p <= r = isqrt(hi - 1) or of p in 2..13 adds lg(p) = floor(4 log2 p) to
      the word of each multiple of q; level 1 also adds -1 to the high
      byte, in the same add of lg(p) - 256.  A level e >= 2 adds 1 to the
      excess count ``extra`` and the level's code ``_CODE[e]`` to the uint16
      ``code``, the 2- and 3-5-7-prefix digits of the denominator
      prod(alpha_i!) (see ``_level_code``).  One rule splits the levels: those that divide a
      period of ``_PATTERN_PERIODS`` (2..2^12, 3..3^5, 5, 5^2, 7, 11 and 13)
      are periodic and presieved as one pattern per period and column (as
      small primes are in Oliveira e Silva, Herzog & Pardi, Math. Comp.
      2014): one broadcast add of each over the segment's whole periods,
      plus a head and a tail slice.  The table of the other strides q, word
      adds and levels is built in numpy.  Strides of at least width / 16 hit
      the segment at most 16 times each, and all their hits are applied in
      one scatter pass (the same paper's buckets); every other step is one
      strided slice update of the whole segment per column.
    * Byte-log test (approximate logs, as in the quadratic sieve; Pomerance,
      EUROCRYPT '84): a prime factor q of n that is neither a seed prime nor
      one of 2..13 has q > max(r, 13) and q^2 > hi - 1 >= n, so n has at most
      one, and every other factor is counted in L with full multiplicity.
      On each binary range 2^k <= n < 2^(k+1), n has such a q exactly when
      L < 3k.  With every factor counted, each of the Omega(n) <= k levels
      falls short by less than 1, so L > 4 log2 n - Omega(n) >= 3k.  With q,
      n < q^2 gives k < 2 log2 q, and q > 13 gives log2 q > 2, so
      L <= 4 log2(n / q) < 4 (k + 1 - log2 q) <= 3k.  The test takes no pass
      of its own: with 256 - 3k added to the words of the range, L < 226
      carries into the high byte exactly when L >= 3k, and then
      omega = 1 - high byte (mod 256).
    * Derived columns, one ``_CHUNK`` of entries at a time into the output
      columns: omega read out of the word, big_omega = omega + extra,
      formed in place in ``extra``; n is
      squarefree iff extra == 0; u = liouville * c_omega, with c_omega =
      big_omega! / prod(alpha_i!), is one gather and a shift,
      ``T[big_omega, code & 1023] >> (code >> 10)``, from the signed 21 x 1024
      table of ``_quotient_table``, with a uint16 index, and c_omega is its
      absolute value.  No division, no factorial column and no temporary of
      the segment's width.

    ``columns`` names the profile fields to build (default: all six); the
    others are left None, and an unknown name raises ValueError.  Each column
    pays only for the steps it needs:

    * ``omega``: the word patterns and steps and the byte-log test.  Every
      prime-power level still adds to L, so the test stays exact.
    * ``big_omega``, ``mobius``, ``liouville``: also the ``extra`` patterns
      and updates.
    * ``c_omega``, ``u``: also the ``code`` patterns and updates, the gather
      and the exact path below.

    The few entries with big_omega > 20 (n >= 2^21) would need 21! > 2^63 and
    are computed exactly by trial division instead.  The int64 column cannot
    overflow for n <= 10^17: the exponent-signature search in
    ``tests/test_arith.py::test_c_omega_int64_bound_by_signature_search``
    bounds c_omega there below 2^60, so a ``Segment`` reaching past 10^17
    raises OverflowError when it is made, before any sieving.
    """
    want = _wanted(columns, PROFILE_COLUMNS)
    out = {name: np.empty(segment.width, dtype=_DERIVED[name]) for name in want & _DERIVED.keys()}
    ws = Workspace()        # its extra column becomes big_omega, so it is not shared
    cols = _sieve(segment, want, ws)
    for s in _chunks(segment.width):
        _derive(segment.lo + s.start, *_cut(cols, s), {k: v[s] for k, v in out.items()}, ws)
    return ArithmeticProfile(
        segment=segment, omega=out.get("omega"),
        big_omega=cols[1] if "big_omega" in want else None, mobius=out.get("mobius"),
        liouville=out.get("liouville"), c_omega=out.get("c_omega"), u=out.get("u"),
    )


def profile_chunks(segment: Segment, columns, ws: Workspace | None = None):
    """Sieve the segment once and yield ``(offset, columns)`` for each chunk of
    up to ``_CHUNK`` entries in order: a dict of the named columns of the
    entries from ``offset`` on, as ``profile_range`` would give them.

    Every array lives in the workspace ``ws`` (a new one when None), which a
    sweep's worker reuses for each of its segments: the sieve's columns (2
    to 5 bytes per entry), of which big_omega is a view, and one chunk's
    outputs, which the next chunk overwrites.  So a chunk's arrays are valid
    only until the next chunk is pulled, and two live generators must not
    share a workspace."""
    want = _wanted(columns, PROFILE_COLUMNS)
    ws = Workspace() if ws is None else ws
    cols = _sieve(segment, want, ws)
    for s in _chunks(segment.width):
        word, extra, code = _cut(cols, s)
        out = {name: ws.empty(name, len(word), _DERIVED[name]) for name in want & _DERIVED.keys()}
        _derive(segment.lo + s.start, word, extra, code, out, ws)
        if "big_omega" in want:
            out["big_omega"] = extra
        yield s.start, out


def _wanted(columns, names) -> frozenset:
    want = frozenset(columns)
    if not want <= set(names):
        raise ValueError(f"unknown profile columns {sorted(want - set(names))}, "
                         f"expected some of {names}")
    return want


def _chunks(width: int):
    return (slice(a, min(a + _CHUNK, width)) for a in range(0, width, _CHUNK))


def _cut(cols, s: slice) -> tuple:
    return tuple(None if c is None else c[s] for c in cols)


def _sieve(segment: Segment, want, ws: Workspace) -> tuple:
    """The segment's sieve word after the byte-log test, with ``extra``
    (unless only omega is wanted) and ``code`` (for c_omega or u), else
    None, in arrays of ``ws``."""
    lo, hi = segment.lo, segment.hi
    width = segment.width
    seeds = primes_up_to(isqrt(hi - 1))

    word = ws.zeros("word", width, _WORD)
    extra = ws.zeros("extra", width, np.uint8) if want - {"omega"} else None
    code = ws.zeros("code", width, np.uint16) if want & {"c_omega", "u"} else None

    cols = (word, extra, code)
    for pattern in _patterns(_PATTERN_PERIODS):
        for col, pat in zip(cols, pattern):
            if col is not None and pat is not None:
                _add_periodic(col, lo, pat)
    q, inc, e = _step_table(seeds, hi)
    sparse = q * _SPARSE_HITS >= width
    _scatter_steps(cols, lo, width, q[sparse], inc[sparse], e[sparse])
    dense = ~sparse
    _sieve_steps(cols, lo, zip(q[dense].tolist(), inc[dense].tolist(), e[dense].tolist()))

    # the byte-log test: on the binary range of k, 256 - 3k more makes the
    # low byte carry into the high one exactly when L >= 3k, so that the high
    # byte is [L >= 3k] - omega
    for k in range(lo.bit_length() - 1, (hi - 1).bit_length()):
        word[max(lo, 1 << k) - lo:min(hi, 2 << k) - lo] += 256 - 3 * k
    return word, extra, code


def _derive(lo: int, word, extra, code, out: dict, ws: Workspace):
    """Fill the chunk-wide arrays of ``out`` (keyed by ``_DERIVED`` names)
    from the sieve columns of the entries from n = lo on; ``extra`` becomes
    big_omega in place, and omega, unless asked for, is an array of ``ws``."""
    omega = out["omega"] if "omega" in out else ws.empty("omega", len(word), np.uint8)
    np.subtract(np.uint8(1), word.view(np.uint8)[1::2], out=omega)    # 1 - high byte (mod 256)
    if "mobius" in out:
        _signs(omega, out["mobius"])
        out["mobius"] *= extra == 0
    if extra is None:
        return
    big = np.add(extra, omega, out=extra)
    if "liouville" in out:
        _signs(big, out["liouville"])
    u = out.get("u", out.get("c_omega"))   # the gather fills c_omega when u is not wanted
    if u is None:
        return
    # big_omega <= 56 below 10^17, so the index fits in 16 bits; an index
    # past the table (big_omega > 20) is clipped, and its entry rewritten below
    at = big.astype(np.uint16)
    at <<= 10
    at |= code & 1023
    np.take(_quotient_table(), at, out=u, mode="clip")     # "raise" would buffer out
    np.right_shift(u, code >> 10, out=u)
    for i in np.flatnonzero(big > 20).tolist():
        exact = _exact_c_omega(lo + i)
        u[i] = -exact if big[i] & 1 else exact
    if "c_omega" in out:        # only now, as the exact path writes signed entries
        np.abs(u, out=out["c_omega"])


def _signs(count, out):
    """(-1)^count into the int8 array ``out``."""
    np.bitwise_and(count, 1, out=out.view(np.uint8))
    np.multiply(out, -2, out=out)
    out += 1


def _step_table(seeds: np.ndarray, hi: int) -> tuple:
    """Every sieve step below hi that no pattern covers, as arrays: stride q,
    the add inc to the (-omega, byte log) word (uint16: lg(p), less 256 on
    level 1), level e.

    Level e is q = p^e < hi for each seed prime p, built from level e - 1 by
    keeping the p^(e-1) <= (hi - 1) // p before multiplying, so no product
    passes hi, and left out where q divides a period of ``_PATTERN_PERIODS``.
    """
    lgs = _lg(seeds).astype(np.uint16)
    p, pe, e, table = seeds, seeds, 1, []
    while True:
        left = np.logical_and.reduce([period % pe != 0 for period in _PATTERN_PERIODS])
        inc = lgs[left] + np.uint16(_LEVEL_ONE if e == 1 else 0)
        table.append((pe[left], inc, np.full(len(inc), e, dtype=np.int64)))
        keep = pe <= (hi - 1) // p
        if not keep.any():
            return tuple(np.concatenate(col) for col in zip(*table))
        p, lgs, pe, e = p[keep], lgs[keep], pe[keep] * p[keep], e + 1


def _runs(lengths: np.ndarray) -> tuple:
    """(owner, k) over the runs 1..lengths[i] laid end to end: entry j is k[j] of run owner[j]."""
    owner = np.repeat(np.arange(len(lengths)), lengths)
    starts = np.cumsum(lengths) - lengths
    return owner, np.arange(1, len(owner) + 1) - starts[owner]


def _scatter_steps(cols, lo: int, width: int, q, inc, e):
    """Apply steps of stride q >= width / 16 to the segment [lo, lo + width)
    in one pass: their few hits each are laid out as ragged runs and added
    with the unbuffered ``np.add.at``, so an entry hit by two of the steps
    gets both.  Every added value is an array or numpy scalar of the column's
    dtype (a Python int takes numpy's slow path, about 30x the cost per hit)."""
    word, extra, code = cols
    first = -lo % q
    step, k = _runs((width - first + q - 1) // q)
    at = first[step] + (k - 1) * q[step]
    np.add.at(word, at, inc[step])
    level = e[step]
    power = level > 1
    if extra is not None:
        np.add.at(extra, at[power], np.uint8(1))
    if code is not None:
        np.add.at(code, at[power], _CODE[level[power]])


def _sieve_steps(cols, lo: int, steps):
    """Apply sieve steps, each one strided slice update of the whole segment
    starting at lo; a column given as None is skipped."""
    word, extra, code = cols
    for q, inc, e in steps:
        s = -lo % q
        word[s::q] += inc
        if e > 1:
            if extra is not None:
                extra[s::q] += 1
            if code is not None:
                code[s::q] += _CODE[e]


def _exact_c_omega(n: int) -> int:
    """c_omega(n) by trial division, raising OverflowError above int64."""
    exact = c_omega(factorize(n))
    if exact > _INT64_MAX:
        raise OverflowError(f"c_omega({n}) exceeds the checked integer width")
    return exact


def c_omega(fact: Factorization) -> int:
    """Exponent multinomial: big_omega! / prod(alpha_i!), exactly.

    Built as a running product of binomials C(alpha_1 + ... + alpha_i,
    alpha_i), so no large factorial is ever divided.  Raises OverflowError
    beyond 128-bit capacity.
    """
    total = 0
    out = 1
    for _, a in fact:
        total += a
        out *= math.comb(total, a)
        if out >= C_OMEGA_CHECK_BOUND:
            raise OverflowError(f"c_omega({fact.n}) exceeds the checked integer width")
    return out


def g_squarefree_closed_form(r: int) -> int:
    """Value of the inverse table at any squarefree n with r distinct primes.

    (-1)^r * sum_{m=0..r} C(r, m) * m!.
    """
    if r < 0:
        raise ValueError(f"r must be >= 0, got {r}")
    total = sum(math.comb(r, m) * math.factorial(m) for m in range(r + 1))
    if total >= C_OMEGA_CHECK_BOUND:
        raise OverflowError(f"closed form at r={r} exceeds the checked integer width")
    return (-1) ** r * total


def g_table(N: int, omega: np.ndarray | None = None) -> np.ndarray:
    """The Dirichlet inverse of (omega + 1) on 1..N as int64, entry i at n = i + 1.

    The omega sweep followed by ``dirichlet.dirichlet_inverse``, the one
    inverse engine.  ``omega`` in the same layout (a profile's omega column
    covering at least 1..N) saves the sweep.
    """
    from .dirichlet import dirichlet_inverse   # dirichlet imports this module

    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    if omega is None:
        omega = np.empty(N, dtype=np.uint8)

        def copy(seg, ws):
            for a, cols in profile_chunks(seg, {"omega"}, ws):
                at = seg.lo - 1 + a
                omega[at:at + len(cols["omega"])] = cols["omega"]
        for _ in WorkerPool(1).sweep(1, N + 1, DEFAULT_SEGMENT_CAPACITY, copy):
            pass
    omega = np.asarray(omega)
    if omega.shape[0] < N:
        raise ValueError("omega table shorter than N")
    return dirichlet_inverse(omega[:N].astype(np.uint8, copy=False) + np.uint8(1))


def read_bfile(path) -> list:
    """The ``(index, value)`` pairs of an OEIS b-file (lines ``index value``).

    Comment lines starting with ``#`` and blank lines are skipped; any other
    line that does not start with two integers raises ValueError.
    """
    entries = []
    with open(path) as fh:
        for line in fh:
            parts = line.split()
            if not parts or parts[0].startswith("#"):
                continue
            if len(parts) < 2:
                raise ValueError(f"malformed b-file line: {line.strip()!r}")
            entries.append((int(parts[0]), int(parts[1])))
    return entries


def compare_bfile(entries, values: np.ndarray, start: int = 1):
    """Check a sequence against b-file ``(index, value)`` pairs.

    Returns None if every overlapping entry matches, else a tuple
    ``(index, file_value, computed_value)`` for the first mismatch.
    Indices outside the computed range are skipped.
    """
    stop = start + len(values)
    for idx, val in entries:
        if start <= idx < stop:
            got = int(values[idx - start])
            if got != val:
                return (idx, val, got)
    return None
