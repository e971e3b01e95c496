#!/usr/bin/env python3
"""Per-length abelian-square table for a rotation angle, both routes.

Prints the arithmetic count, the count read off a long prefix, and the
running total.  A mismatch in any row is a bug somewhere; the script exits
nonzero in that case so it can sit in a cron/CI loop.

    python scripts/run_table.py --angle 'cf:[0;|1]' --max-n 60
"""

import argparse
import sys

from absquares.counting import FactorIndex, asf_profile
from absquares.quadratic import parse_angle
from absquares.sturmian import SturmianSpec, sturmian_asf_range, sturmian_prefix


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--angle", default="cf:[0;|1]")
    ap.add_argument("--max-n", type=int, default=60)
    ap.add_argument("--prefix-len", type=int, default=20_000)
    args = ap.parse_args()

    angle = parse_angle(args.angle)
    prefix = sturmian_prefix(SturmianSpec(angle, angle), args.prefix_len)
    idx = FactorIndex(prefix, args.max_n)
    for n in range(1, args.max_n + 1):
        if idx.distinct_count(n) != n + 1:
            print(f"prefix too short to exhaust length-{n} factors", file=sys.stderr)
            return 1

    table = sturmian_asf_range(angle, args.max_n)
    profile = asf_profile(prefix, args.max_n - (args.max_n % 2), idx)

    print(f"angle = {angle!r} ~ {float(angle):.6f}")
    print(f"{'n':>4} {'arith':>6} {'prefix':>6} {'cum':>7}")
    total = 0
    bad = 0
    for n in sorted(table):
        combinatorial = profile.count(n)
        total += table[n]
        marker = ""
        if combinatorial != table[n]:
            marker = "  <-- MISMATCH"
            bad += 1
        print(f"{n:>4} {table[n]:>6} {combinatorial:>6} {total:>7}{marker}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
