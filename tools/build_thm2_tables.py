#!/usr/bin/env python3
"""Build the ``thm2`` Laplace tables into the package data file.

Builds every rung of ``intersection._LADDER`` (``analytic._thm2_build``)
and writes the tables, with the constants they were built with, to
``src/linecox/analytic/_thm2_tables.npz``, which the one-turn
intersection curve loads. Run it after changing the ladder, the table
constants or the build; the same build gives the same bytes.

    PYTHONPATH=src python tools/build_thm2_tables.py [--out PATH]

It prints the file's path, size and md5. The file goes next to the
``intersection`` module that PYTHONPATH selects; ``--out`` writes
elsewhere, for example to compare a rebuild against the committed file.
"""

import argparse
import hashlib
import sys
import time
from pathlib import Path

from linecox.analytic import intersection
from linecox.analytic._thm2_build import write_tables


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=intersection._TABLES_PATH,
                        help="the file to write (default: the package data file)")
    args = parser.parse_args(argv)
    start = time.perf_counter()
    write_tables(args.out)
    data = args.out.read_bytes()
    print(f"{args.out}: {len(data)} bytes, md5 {hashlib.md5(data).hexdigest()}, "
          f"built in {time.perf_counter() - start:.2f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
