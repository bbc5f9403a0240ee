#!/usr/bin/env python3
"""Run the theorem battery over a grid of (n, d) cells and print a table.

Usage: python scripts/run_grid.py [--cells 4,2 5,3 ...]
Exits 1 if any theorem check fails anywhere (it never should), and 3 on
a usage error, as ``matroidal`` does.
"""

import argparse
import sys
import time

from matroidal import enumerate_matroidal, theorem_battery
from matroidal.cli import USAGE_ERROR
from matroidal.enumeration import THEOREMS, _check_cell

DEFAULT_CELLS = [(2, 1), (3, 2), (4, 2), (5, 2), (6, 2), (4, 3), (5, 3), (6, 3)]


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        print(f"usage error: {message}", file=sys.stderr)
        sys.exit(USAGE_ERROR)


def grid_cell(text: str) -> tuple[int, int]:
    """An argparse type: an ``n,d`` pair that the enumeration takes."""
    try:
        n, d = (int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"a cell is two integers n,d, got {text!r}"
        ) from None
    try:
        _check_cell(n, d, False)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return n, d


def main() -> int:
    parser = _Parser(description=__doc__)
    parser.add_argument("--cells", nargs="*", type=grid_cell, default=DEFAULT_CELLS,
                        help="grid cells as n,d pairs")
    cells = parser.parse_args().cells

    header = f"{'cell':>7} {'ideals':>7} {'CM':>4} {'unmixed':>8} {'exact ara':>10} {'time':>7}  fails"
    print(header)
    print("-" * len(header))
    any_fail = False
    for n, d in cells:
        start = time.perf_counter()
        total = cm = unmixed = exact = 0
        fails: dict[str, int] = {}
        for mi in enumerate_matroidal(n, d):
            total += 1
            result = theorem_battery(mi)
            cm += result.cohen_macaulay
            unmixed += result.unmixed
            exact += bool(result.ara_exact)
            for name in THEOREMS:
                if result.verdicts[name] == "fail":
                    fails[name] = fails.get(name, 0) + 1
        elapsed = time.perf_counter() - start
        any_fail |= bool(fails)
        print(
            f"({n},{d})".rjust(7)
            + f" {total:>7} {cm:>4} {unmixed:>8} {exact:>10} {elapsed:>6.1f}s  "
            + (", ".join(f"{k}={v}" for k, v in fails.items()) or "-")
        )
    return 1 if any_fail else 0


if __name__ == "__main__":
    sys.exit(main())
