#!/usr/bin/env python3
# A tour of the per-n functions and the exact convolution identities.
#
# The star of the show is the table g = the Dirichlet inverse of (omega + 1):
# g(1) = 1 and g(n) = -sum over divisors d > 1 of (omega(d)+1) g(n/d).
# Everything it touches is integer-exact, so the identity suite runs at
# zero tolerance.

import numpy as np

from mforge import Segment, profile_range, verify_identity
from mforge.dirichlet import IDENTITY_LABELS, IDENTITY_NAMES

N = 10**5

print("Per-n values for a few small n:")
prof = profile_range(Segment(1, 31))
print(f"{'n':>3} {'omega':>5} {'Omega':>5} {'mu':>3} {'lambda':>6} {'C':>4} {'g':>4}")
for n in (1, 2, 4, 6, 12, 30):
    j = n - 1
    print(f"{n:>3} {prof.omega[j]:>5} {prof.big_omega[j]:>5} {prof.mobius[j]:>3} "
          f"{prof.liouville[j]:>6} {abs(prof.u[j]):>4} {prof.g[j]:>4}")

# Note the pattern at primes: g(p) = -2, always.  And on squarefree n the
# value depends only on how many primes divide n.
print("\ng at the first few primes:", [int(prof.g[p - 1]) for p in (2, 3, 5, 7, 11)])

# The identity suite checks six exact convolution facts, each computed by two
# independent routes (profile tables on one side, generic convolution or
# inversion on the other).  Failure would name the first bad n.
print(f"\nIdentity suite at N = {N}:")
big = profile_range(Segment(1, N + 1))
for name in IDENTITY_NAMES:
    report = verify_identity(name, N, profile=big)
    print(f"  {report}   [{IDENTITY_LABELS[name]}]")

# The multinomial is |u|, and u never overflows silently: it is checked on the way.
c = np.abs(big.u)
worst = int(np.argmax(c))
print(f"\nLargest multinomial below {N}: C({worst + 1}) = {c[worst]}")
