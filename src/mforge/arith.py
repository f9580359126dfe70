"""Per-n arithmetic functions, pointwise and in bulk.

Covers the distinct/total prime-factor counts omega and big_omega, mobius,
liouville, the exponent-multinomial coefficient ``c_omega`` (the multinomial
of the exponent multiset of n; in bulk, |u| with u = liouville * c_omega),
the prime-signature index ``sig``, and g, the Dirichlet inverse of
``omega + 1``.  Bulk computation works over arbitrary contiguous segments.
The prefix table ``g_table`` computes g by ``dirichlet.dirichlet_inverse``, a
recursion over 1..N; the segment kernel gathers it by prime signature
instead, as the column ``g_sig``.
"""

import math
import operator
from dataclasses import dataclass
from functools import cache, cached_property, reduce
from math import isqrt

import numpy as np

from .parallel import Workspace
from .sieve import Factorization, Segment, factorize, primes_up_to

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


#: The signature weights w_0..w_20 of the exponents.  The code of n sums w_a
#: over its exponents a, so where big_omega <= 20 it names the multiset of
#: n's exponents >= 2: the weights are injective on all 627 such multisets
#: (``tests/test_arith.py::test_signature_index_gathers_u_and_g``).
_WEIGHTS = (0, 0, 1, 11, 68, 231, 502, 631, 977, 1171, 1292, 1373, 1397, 1434, 1461,
            1484, 1487, 1499, 1504, 1508, 1511)

#: The code a level-e step adds, w_e - w_(e-1), for e <= 56 (2^57 > 10^17),
#: as uint16; 0 past level 20, which only exact-path entries reach.
_CODE_ADDS = np.diff(_WEIGHTS + _WEIGHTS[-1:] * 36, prepend=0).astype(np.uint16)

#: The length of the signature tables, past the sig of every n with big_omega
#: <= 20 (at most 2584 << 4 | 14): the sig of every other n.
_SIG_EXACT = 41_360

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
                    code[::p**e] += _CODE_ADDS[e]
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


def _h_rows(top: int, rows: int) -> list:
    """H[m][N] = sum_i C(m, i) (N + i)! for m < rows and N + m <= top, by
    Pascal's rule H[m][N] = H[m - 1][N] + H[m - 1][N + 1]; H[0] is N!."""
    h = [[math.factorial(k) for k in range(top + 1)]]
    for _ in range(1, rows):
        h.append([a + b for a, b in zip(h[-1], h[-1][1:])])
    return h


def _with_part(e: list, b: int) -> list:
    """The elementary symmetric functions e_k, ..., e_1, e_0 (descending) of
    a multiset of k + 1 parts, given those of the multiset without its part b."""
    return [x + b * y for x, y in zip([0] + e, e + [0])]


def _lambda_g(e: list, big_b: int, den: int, h_m: list) -> int:
    """liouville * g = |g| at n whose exponents are m ones and a multiset beta >= 2:
    sum_t e_t(beta) H[B - t][m] / prod beta!, from e = e_|beta|..e_0 of beta,
    B = sum beta, den = prod beta! and the row h_m = H[m] of ``_h_rows``."""
    return sum(map(operator.mul, e, h_m[big_b + 1 - len(e):big_b + 1])) // den


@cache
def _signature_table(name: str) -> np.ndarray:
    """The signed int64 table of the kernel's ``name`` gather ("u" or
    "g_sig"): at the index code << 4 | omega of each n with big_omega <= 20,
    u = liouville * c_omega or g; other entries are 0.  Each is built on its
    first use, so a sweep that gathers only u never sums g.

    n's exponents >= 2 form the multiset beta that the code names, of sum B,
    and m = omega - |beta| are 1, so u = (-1)^(B + m) (B + m)! / prod beta!.
    By identity (c), liouville * g sums c_omega(alpha - 1_S) over the sets S
    of n's primes: lowering t exponents of beta divides prod beta! by their
    product, and dropping m - i exponents 1 leaves (B - t + i)!, which gives
    ``_lambda_g``.  The walk takes each beta's parts in non-increasing order.
    """
    h = _h_rows(20, 16)
    at, values = [], []

    def walk(code, big_b, k, den, e, cap):
        for m in range(min(15 - k, 20 - big_b) + 1):
            at.append(code << 4 | k + m)
            value = h[0][big_b + m] // den if name == "u" else _lambda_g(e, big_b, den, h[m])
            values.append(-value if (big_b + m) & 1 else value)
        for b in range(2, min(cap, 20 - big_b) + 1):
            walk(code + _WEIGHTS[b], big_b + b, k + 1, den * h[0][b], _with_part(e, b), b)

    walk(0, 0, 0, 1, [1], 20)
    table = np.zeros(_SIG_EXACT, dtype=np.int64)
    table[at] = values
    table.flags.writeable = False           # shared by every caller
    return table


@cache
def c_omega_ranks() -> tuple:
    """The distinct c_omega = |u| at the ``sig`` indexes, ascending, and each
    index's rank among them as uint16, with one past them for big_omega > 20."""
    values, rank = np.unique(np.abs(_signature_table("u")), return_inverse=True)
    rank = np.append(rank, len(values)).astype(np.uint16)
    values.flags.writeable = rank.flags.writeable = False     # shared by every caller
    return values, rank


#: The per-n columns ``profile_range`` and ``profile_chunks`` can compute, in
#: profile field order; sig is the prime-signature index, u is liouville *
#: c_omega, and g_sig is g gathered at sig (the lazy ``ArithmeticProfile.g`` is the prefix table).
PROFILE_COLUMNS = ("omega", "big_omega", "mobius", "liouville", "sig", "u", "g_sig")

#: Dtypes of the columns built chunk by chunk.
_DERIVED = {"omega": np.uint8, "mobius": np.int8, "liouville": np.int8,
            "sig": np.uint16, "u": np.int64, "g_sig": np.int64}


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
    sig: np.ndarray | None          # uint16, signature index, see ``c_omega_ranks``
    u: np.ndarray | None            # int64, liouville * c_omega, so c_omega is |u|
    g_sig: np.ndarray | None        # int64, g from the prime signature

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
      excess count ``extra`` and w_e - w_(e-1) to the uint16 ``code``, so
      that code is the sum of the signature weights ``_WEIGHTS`` over n's
      exponents.  One rule splits the levels: those that divide a
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
      formed in place in ``extra``; n is squarefree iff extra == 0.  The
      code and omega fix n's prime signature, named by the index
      sig = ``code << 4 | omega``, so u = liouville * c_omega and g_sig = g
      are each one gather at sig from a table of ``_signature_table``.  No
      division and no temporary of the segment's width.

    ``columns`` names the profile fields to build (default: all seven); the
    others are left None, and an unknown name raises ValueError.  Each column
    pays only for the steps it needs:

    * ``omega``: the word patterns and steps and the byte-log test.  Every
      prime-power level still adds to L, so the test stays exact.
    * ``big_omega``, ``mobius``, ``liouville``: also the ``extra`` patterns
      and updates.
    * ``sig``, ``u``, ``g_sig``: also the ``code`` patterns and updates, and
      for u and g_sig the gathers and the exact path below.

    The few entries with big_omega > 20 (n >= 2^21) would need 21! > 2^63:
    their sig is 41,360, past the tables, and their u and g_sig come from
    their factorization.  The int64 columns cannot overflow for n <= 10^17:
    ``tests/test_arith.py::test_c_omega_int64_bound_by_signature_search``
    bounds c_omega there below 2^60 and |g| below 2^61, so a ``Segment``
    reaching past 10^17 raises OverflowError when it is made, before any
    sieving.
    """
    want = _wanted(columns, PROFILE_COLUMNS)
    out = {name: np.empty(segment.width, dtype=_DERIVED[name]) for name in want & _DERIVED.keys()}
    ws = Workspace()        # its extra column becomes big_omega, so it is not shared
    cols = _sieve(segment, want, ws)
    for s in _chunks(segment.width):
        _derive(segment.lo + s.start, *_cut(cols, s), {k: v[s] for k, v in out.items()}, ws)
    return ArithmeticProfile(segment=segment, big_omega=cols[1] if "big_omega" in want else None,
                             **{name: out.get(name) for name in _DERIVED})


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
    (unless only omega is wanted) and ``code`` (for sig, u or g_sig), else
    None, in arrays of ``ws``."""
    lo, hi = segment.lo, segment.hi
    width = segment.width
    seeds = primes_up_to(isqrt(hi - 1))

    word = ws.zeros("word", width, _WORD)
    extra = ws.zeros("extra", width, np.uint8) if want - {"omega"} else None
    code = ws.zeros("code", width, np.uint16) if want & {"sig", "u", "g_sig"} else None

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
    if code is None:
        return
    # where big_omega <= 20, code <= 2584 and omega <= 14 (below 10^17), so sig
    # fits in 16 bits; elsewhere it may wrap or pass the tables (then the
    # gathers clip it), and the entry is rewritten below
    sig = np.left_shift(code, 4, out=out.get("sig"))
    sig |= omega
    u, g = out.get("u"), out.get("g_sig")
    gathers = [(_signature_table(name), col) for name, col in (("u", u), ("g_sig", g))
               if col is not None]
    at = sig
    if len(gathers) == 2:
        at = at.astype(np.intp)     # np.take converts a uint16 index on every call
    for table, col in gathers:
        np.take(table, at, out=col, mode="clip")     # "raise" would buffer out
    for i in np.flatnonzero(big > 20).tolist():
        sig[i] = _SIG_EXACT
        if gathers:
            for col, value in zip((u, g), _exact_columns(lo + i)):
                if col is not None:
                    col[i] = value


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
        np.add.at(code, at[power], _CODE_ADDS[level[power]])


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
                code[s::q] += _CODE_ADDS[e]


def _exact_columns(n: int) -> tuple:
    """(u, g) at n from its trial-division factorization, formed as in
    ``_signature_table`` for any big_omega; OverflowError past int64."""
    fact = factorize(n)
    beta = [a for _, a in fact if a > 1]
    big_b, m = sum(beta), len(fact.factors) - len(beta)
    den = math.prod(map(math.factorial, beta))
    lam_g = _lambda_g(reduce(_with_part, beta, [1]), big_b, den, _h_rows(big_b + m, m + 1)[m])
    sign = -1 if (big_b + m) & 1 else 1
    values = sign * (math.factorial(big_b + m) // den), sign * lam_g
    if max(map(abs, values)) > _INT64_MAX:
        raise OverflowError(f"c_omega({n}) or g({n}) exceeds the checked integer width")
    return values


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

    An omega profile followed by ``dirichlet.dirichlet_inverse``, the one
    inverse engine.  ``omega`` in the same layout (a profile's omega column
    covering at least 1..N) saves the profile.
    """
    from .dirichlet import dirichlet_inverse   # dirichlet imports this module

    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    if omega is None:
        omega = profile_range(Segment(1, N + 1), {"omega"}).omega
    omega = np.asarray(omega)
    if omega.shape[0] < N:
        raise ValueError("omega table shorter than N")
    return dirichlet_inverse(omega[:N].astype(np.uint8, copy=False) + np.uint8(1))
