#!/usr/bin/env python3
# Central-limit behaviour of the factor counts.  The distinct-prime count
# omega, standardized by the classical (omega - loglog x)/sqrt(loglog x),
# drifts toward the normal CDF -- but it lives on a lattice, so its
# Kolmogorov-Smirnov distance to any continuous CDF can never drop below
# half the largest atom.  Watch both numbers shrink together.

import numpy as np

from mforge import WorkerPool, erdos_kac_cdf

pool = WorkerPool(4)

print("omega, classical standardization:")
print(f"{'x':>9} {'KS vs normal':>13} {'largest atom':>13} {'atom/2 floor':>13}")
for x in (10**4, 10**5, 10**6):
    cdf = erdos_kac_cdf(x, "omega", pool=pool)
    atom = cdf.counts.max() / cdf.size
    print(f"{x:>9} {cdf.ks:>13.4f} {atom:>13.4f} {atom / 2:>13.4f}")

# The log of the exponent multinomial is a genuinely continuous-ish
# statistic (no single dominant atom), so its empirical CDF hugs the normal
# much earlier.  No published centering constants exist for it, so it is
# standardized by sample mean and standard deviation.
print("\nlog of the exponent multinomial, empirical standardization:")
print(f"{'x':>9} {'KS vs normal':>13}")
for x in (10**4, 10**5, 10**6):
    cdf = erdos_kac_cdf(x, "log_c_omega", pool=pool)
    print(f"{x:>9} {cdf.ks:>13.4f}")

# A compact look at the upper tail of the omega CDF at 1e6
cdf = erdos_kac_cdf(10**6, "omega", pool=pool)
cum = np.cumsum(cdf.counts) / cdf.size
print("\nomega lattice at x = 1e6 (z, empirical CDF):")
for z, c in zip(cdf.z, cum):
    print(f"  z = {z:7.3f}   F = {c:.5f}")
