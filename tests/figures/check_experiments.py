#!/usr/bin/env python3
"""Tie EXPERIMENTS.md's headline table to the full-scale figure goldens.

Every row of the "Headline results" table names a harness in its Bench
column and states a **Measured** value. This check reads the value and
looks for it on the summary lines of tests/figures/golden/<harness>.txt:
the Geomean row, the "label: value" lines a harness prints under its
table, or, for a table without a Geomean row, every row. No simulation
runs; the `figures` ctest label keeps the goldens themselves honest.

Values and how they match a golden number g:
  N.NNx    g printed as N.NNx (or plain N.NN), equal as decimals.
  P%       7.8% printed as is, a fraction (0.078) or a normalized
           ratio's overhead (1.078), equal as decimals.
  ~V       V as above, within half a unit of its last written digit:
           ~19% accepts 18.5% to 19.5%.
  text     printed verbatim ("4-bit chunks, 128 wires").
  yes/no   a comparison between other rows, not a value: not checked.

Usage: check_experiments.py [--root REPO]
"""

import argparse
import pathlib
import re
import sys
from decimal import Decimal

NUMBER = re.compile(r"(\d+(?:\.\d+)?)(x|%)?")


def headline_rows(text):
    """(quantity, measured, harness) for each headline table row."""
    section = text.split("## Headline results", 1)[1].split("\n## ", 1)[0]
    rows = []
    for line in section.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) != 4 or cells[0] in ("Quantity", "---"):
            continue
        measured = re.fullmatch(r"\*\*(.+)\*\*", cells[2])
        harness = re.fullmatch(r"`(\w+)`", cells[3])
        if not measured or not harness:
            raise ValueError(f"malformed headline row: {line}")
        rows.append((cells[0], measured.group(1), harness.group(1)))
    return rows


def summary_lines(golden):
    """The golden's lines that state a harness-wide result."""
    lines = [l for l in golden.splitlines()
             if l.strip() and not l.startswith(("==", "--"))]
    geomean = [l for l in lines if l.startswith("Geomean")]
    stated = [l for l in lines if ": " in l]
    return geomean + stated if geomean else lines


def readings(line):
    """(value, unit) pairs a golden line can stand for."""
    out = []
    for num, unit in NUMBER.findall(line):
        g = Decimal(num)
        if unit:
            out.append((g, unit))
        else:
            out += [(g, "x"), (g * 100, "%"), ((g - 1) * 100, "%")]
    return out


def matches(measured, lines):
    value = measured.lstrip("~")
    number = re.fullmatch(r"(\d+(?:\.\d+)?)(x|%)", value)
    if not number:
        return any(value in l for l in lines)
    want, unit = Decimal(number.group(1)), number.group(2)
    tol = Decimal(0)
    if measured.startswith("~"):
        tol = Decimal(1).scaleb(want.as_tuple().exponent) / 2
    return any(u == unit and abs(g - want) <= tol
               for l in lines for g, u in readings(l))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", default=pathlib.Path(__file__).parents[2])
    root = pathlib.Path(ap.parse_args().root)
    rows = headline_rows((root / "EXPERIMENTS.md").read_text())
    failures = 0
    for quantity, measured, harness in rows:
        if measured in ("yes", "no"):
            continue
        golden = root / "tests/figures/golden" / f"{harness}.txt"
        if not golden.exists():
            print(f"FAIL {quantity}: no golden {golden.name}")
            failures += 1
            continue
        if not matches(measured, summary_lines(golden.read_text())):
            print(f"FAIL {quantity}: {measured} is not in {golden.name}'s "
                  "summary lines")
            failures += 1
    print(f"{len(rows)} headline rows, {failures} mismatched")
    return 1 if failures or not rows else 0


if __name__ == "__main__":
    sys.exit(main())
