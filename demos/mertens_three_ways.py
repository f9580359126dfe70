#!/usr/bin/env python3
# The Mertens sum M(x) computed three independent ways:
#
#   1. directly, as the running sum of mobius;
#   2. as G(x) + sum_k g(k) pi(floor(x/k));
#   3. as G(x) + sum over primes p of G(floor(x/p)), grouped by quotient,
#      from the series' G and pi rows (G sums the sieve kernel's g), kept
#      at the ladder closed under x -> floor(x/k).
#
# The second and third are exact rearrangements tying M to the inverse table
# g and the prime counts; neither reads M, and they must agree with the
# direct sum to the last digit at every x.

import numpy as np

from mforge import (
    CheckpointPolicy,
    build_series,
    g_table,
    mertens_via_G_over_primes,
    mertens_via_g_pi,
    quotient_closure,
)

N = 10**6
ladder = [10, 100, 1000, 10**4, 10**5, N]

cps = CheckpointPolicy(kind="explicit", points=tuple(ladder)).checkpoints(N)
series = build_series(N, checkpoints=quotient_closure(cps, N))
g = g_table(N)

print(f"{'x':>9} {'direct':>8} {'via g*pi':>9} {'via G/p':>9}")
for x in ladder:
    i = int(np.searchsorted(series.checkpoints, x))
    direct = int(series.M[i])
    a = mertens_via_g_pi(x, g)
    b = mertens_via_G_over_primes(x, series)
    marker = "" if a == b == direct else "  <-- MISMATCH"
    print(f"{x:>9} {direct:>8} {a:>9} {b:>9}{marker}")

# The same series carries the squarefree count and prime count columns; the
# checkpoint CSV (x,M,G,Qsq,pi) is the interchange format for the ratio
# traces and for external plotting.
print("\nLast checkpoint row:")
print("x,M,G,Qsq,pi")
print(",".join(str(int(v)) for v in (series.checkpoints[-1], series.M[-1],
                                     series.G[-1], series.Qsq[-1], series.pi[-1])))
