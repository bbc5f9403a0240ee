#!/usr/bin/env python3
"""Certificate scan for one (n, d) cell: ``matroidal scan`` as a script.

Usage: python scripts/run_scan.py --n 6 --d 3 [--budget 20000] [--no-sym] [--json]
"""

import sys

from matroidal.cli import main

if __name__ == "__main__":
    sys.exit(main(["scan", *sys.argv[1:]]))
