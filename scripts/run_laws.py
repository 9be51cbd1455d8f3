#!/usr/bin/env python3
"""Sweep every law family over the corpus and report per-family timing.

Usage: python3 scripts/run_laws.py [--families a,b,c] [--seed N]

Exits 0 when every case holds, 1 on a law failure and 2 on an unknown
family name, before any family runs.
"""

import argparse
import sys
import time

from deltalens.kernel import InputError
from deltalens.laws import FAMILIES, check_families, default_scope, run_laws


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--families", default=None)
    parser.add_argument("--seed", type=int, default=None)
    args = parser.parse_args()
    families = tuple(args.families.split(",")) if args.families else FAMILIES
    try:
        check_families(families)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    scope = default_scope()
    failures = 0
    total = 0
    for fam in families:
        t0 = time.monotonic()
        result = run_laws(scope, families=(fam,), seed=args.seed)
        dt = time.monotonic() - t0
        bad = result.failures
        total += len(result.cases)
        failures += len(bad)
        print(f"{fam:<14} {len(result.cases):>5} cases  {len(bad):>3} failures  {dt:6.2f}s")
        for c in bad[:10]:
            print(f"    FAIL {c.subject} :: {c.witness[:2]}")
    print(f"{'total':<14} {total:>5} cases  {failures:>3} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
