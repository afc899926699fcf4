#!/usr/bin/env python3
"""Write every built-in golden structure file into a directory."""

import argparse
import os
import pathlib
import sys

# run from a checkout, installed or not: the package is imported from its src
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from homhopf.golden import golden_file, golden_names  # noqa: E402
from homhopf.io import parse_field_flag, serialize_structure_file  # noqa: E402


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("outdir", type=pathlib.Path)
    parser.add_argument("--field", default="Q", help="Q (default) or GF:<p>")
    args = parser.parse_args()
    field = parse_field_flag(args.field)
    args.outdir.mkdir(parents=True, exist_ok=True)
    for name in golden_names():
        path = args.outdir / f"{name}.json"
        path.write_text(serialize_structure_file(golden_file(name, field)))
        print(path)


if __name__ == "__main__":
    main()
