#!/usr/bin/env python3
"""Compare a fresh bench journal record against a committed baseline.

Usage:
  bench_gate.py BASELINE.json FRESH.jsonl [--info F...] [--ratio F...]
                [--ratio-lower F...] [--exact F...] [--at-least F...]

BASELINE is one ulecc.bench.v1 record; the first line of FRESH is
compared against it field by field:

  --info F         absolute host timings: printed, never gated (the
                   baseline may come from a different host);
  --ratio F        same-run ratios, higher is better: FAIL below 75% of
                   the baseline, warn below 100%;
  --ratio-lower F  same-run ratios, lower is better: FAIL above
                   baseline / 0.75, warn above baseline;
  --exact F        deterministic values: FAIL unless equal to 1e-9;
  --at-least F     deterministic values: FAIL if below the baseline.

A field named for any gate that is missing from either record fails.
Exit status 1 on any failure, 0 otherwise.
"""

import argparse
import json
import sys

TOLERANCE = 0.75  # same-run ratios: shortfall beyond 25% fails


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("baseline")
    ap.add_argument("fresh")
    for flag in ("--info", "--ratio", "--ratio-lower", "--exact",
                 "--at-least"):
        ap.add_argument(flag, nargs="+", default=[])
    args = ap.parse_args()

    base = json.load(open(args.baseline))
    fresh = json.loads(open(args.fresh).read().splitlines()[0])
    fail = False

    def pair(name):
        nonlocal fail
        b, f = base.get(name), fresh.get(name)
        if b is None or f is None:
            print(f"FAIL: {name} missing from baseline or fresh record")
            fail = True
            return None
        return b, f

    for name in args.info:
        if (bf := pair(name)) is not None:
            print(f"info: {name} {bf[1]:.4g} (baseline host {bf[0]:.4g})")

    for name, higher in ([(n, True) for n in args.ratio]
                         + [(n, False) for n in args.ratio_lower]):
        if (bf := pair(name)) is None:
            continue
        b, f = bf
        score = f / b if higher else b / f
        if score >= 1.0:
            print(f"ok:   {name} {f:.3g} (baseline {b:.3g})")
        elif score >= TOLERANCE:
            print(f"warn: {name} {f:.3g} vs baseline {b:.3g} "
                  f"({100 * (1 - score):.0f}% worse)")
        else:
            print(f"FAIL: {name} {f:.3g} vs baseline {b:.3g} "
                  f"(>{100 * (1 - TOLERANCE):.0f}% regression)")
            fail = True

    for name in args.exact:
        if (bf := pair(name)) is None:
            continue
        b, f = bf
        if abs(f - b) > 1e-9:
            print(f"FAIL: {name} {f} != baseline {b}")
            fail = True
        else:
            print(f"ok:   {name} {f:.4f}")

    for name in args.at_least:
        if (bf := pair(name)) is None:
            continue
        b, f = bf
        if f + 1e-9 < b:
            print(f"FAIL: {name} {f:.3g} below baseline {b:.3g}")
            fail = True
        else:
            print(f"ok:   {name} {f:.3g} (baseline {b:.3g})")

    return 1 if fail else 0


if __name__ == "__main__":
    sys.exit(main())
