#!/usr/bin/env python3
"""Theorem battery over a grid of (n, d) cells: ``matroidal grid`` as a script.

Usage: python scripts/run_grid.py [--cells 4,2 5,3 ...]
"""

import sys

from matroidal.cli import main

if __name__ == "__main__":
    sys.exit(main(["grid", *sys.argv[1:]]))
