#!/usr/bin/env python3
"""Certificate scan for one (n, d) cell: constructions first, then search.

Usage: python scripts/run_scan.py --n 6 --d 3 [--budget 20000] [--no-sym] [--json]
Prints certified/inconclusive tallies; inconclusive never refutes anything.
"""

import argparse
import dataclasses
import json
import sys

from matroidal import conjecture_scan
from matroidal.enumeration import SCAN_BUDGET


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--d", type=int, required=True)
    parser.add_argument("--budget", type=int, default=SCAN_BUDGET)
    parser.add_argument("--no-sym", dest="sym", action="store_false",
                        help="scan every labeled ideal, not orbit representatives")
    parser.add_argument("--json", action="store_true")
    parser.set_defaults(sym=True)
    args = parser.parse_args()

    try:
        report = conjecture_scan(args.n, args.d, budget=args.budget,
                                 up_to_symmetry=args.sym)
    except ValueError as exc:
        parser.error(str(exc))
    if args.json:
        print(json.dumps(dataclasses.asdict(report), indent=2))
    else:
        print(f"({report.n},{report.d}) total={report.total_ideals} "
              f"certified={report.certified} inconclusive={report.inconclusive} "
              f"budget={report.budget} elapsed={report.elapsed_seconds:.1f}s")
        for name, counts in report.theorem_counts.items():
            print(f"  {name}: pass={counts['pass']} fail={counts['fail']} "
                  f"skip={counts['skip']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
