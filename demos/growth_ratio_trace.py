#!/usr/bin/env python3
# Scaled growth ratios of the summatory functions, the desk-scale view of
# the classical conjectures.  Nothing here asserts a limit: the conjectured
# constants ride along as horizontal reference lines, and the columns are
# just arithmetic on exact checkpoint rows.

import math
import os
import sys
import tempfile

from mforge import build_trace, heuristic_sums
from mforge.cli import main, read_series
from mforge.tracker import REFERENCE_LINES

N = 10**6

# The series and trace tables are written the way `mforge summatory` and
# `mforge trace` write them; the printed rows come from the series read back.
out = sys.argv[1] if len(sys.argv) > 1 else "trace_1e6.csv"
with tempfile.TemporaryDirectory() as tmp:
    series_csv = os.path.join(tmp, "series.csv")
    for args in (["summatory", "--limit", str(N), "--checkpoints", "geometric:1.25",
                  "--out", series_csv],
                 ["trace", "--in", series_csv, "--out", out]):
        if main(args) != 0:
            sys.exit(f"mforge {args[0]} failed")
    with open(series_csv) as fh:
        trace = build_trace(read_series(fh))

print("reference lines carried in the CSV metadata:")
for key, val in REFERENCE_LINES.items():
    print(f"  {key} = {val}")

print(f"\n{'x':>9} {'M/sqrt(x)':>10} {'r2 = |M| lll / sqrt(x ll)':>26} {'M/(2G)':>9}")
for i in range(len(trace.x)):
    x = int(trace.x[i])
    if x in (16, 100, 1000, 10**4, 10**5, 10**6):
        tg = f"{trace.twice_g[i]:9.5f}" if trace.twice_g_defined[i] else "  (G = 0)"
        print(f"{x:>9} {trace.q[i]:>10.5f} {trace.r2[i]:>26.6f} {tg}")
print(f"\n(r2's conjectured limsup reference: {REFERENCE_LINES['scaled_limsup']}; "
      "desk-scale x cannot approach it)")

print(f"full trace written to {out}")

# The heuristic sums from the lower-bound machinery: both converge fast in K
# because the base b_x = e loglog x / log x is well below 1, and their ratio
# creeps toward loglog x from below.
print("\nheuristic sums at a few x (K = 200):")
print(f"{'x':>10} {'b_x':>8} {'S_inv':>10} {'S_w':>10} {'ratio':>8} {'loglog x':>9}")
for x in (10**4, 10**6, 10**9, 10**12):
    h = heuristic_sums(float(x), 200)
    print(f"{x:>10} {h.b_x:>8.4f} {h.s_inv_sqrt:>10.6f} {h.s_sqrt:>10.6f} "
          f"{h.b_hat:>8.4f} {math.log(math.log(x)):>9.4f}")
