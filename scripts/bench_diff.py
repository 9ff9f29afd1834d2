#!/usr/bin/env python3
"""Warn-only diff of a fresh bench JSON against its committed baseline.

    python3 scripts/bench_diff.py BASELINE FRESH [NAME]

Both files hold a list of {"metric", "value", "unit"} records. Prints a
WARN line for a metric that vanished or appeared, changed unit, or fell
more than 10x below the baseline; NAME (default: the baseline's file
name) labels the closing line. Always exits 0 once both files are
read: absolute numbers vary by host, so the diff flags a vanished
metric or an order-of-magnitude regression, it does not gate on noise.
"""
import json
import os
import sys


def load(path):
    with open(path) as fh:
        return {m["metric"]: m for m in json.load(fh)}


def main(argv):
    if len(argv) not in (3, 4):
        print("usage: bench_diff.py BASELINE FRESH [NAME]", file=sys.stderr)
        return 2
    baseline_path, fresh_path = argv[1], argv[2]
    name = argv[3] if len(argv) == 4 else os.path.basename(baseline_path)
    try:
        baseline = load(baseline_path)
    except OSError:
        print(f"WARN: no committed {os.path.basename(baseline_path)} "
              f"baseline")
        return 0
    fresh = load(fresh_path)

    for metric in sorted(set(baseline) | set(fresh)):
        if metric not in fresh:
            print(f"WARN: metric '{metric}' in baseline but not produced")
        elif metric not in baseline:
            print(f"WARN: new metric '{metric}' missing from the baseline")
        elif baseline[metric]["unit"] != fresh[metric]["unit"]:
            print(f"WARN: metric '{metric}' changed unit "
                  f"{baseline[metric]['unit']} -> {fresh[metric]['unit']}")
        else:
            old, new = baseline[metric]["value"], fresh[metric]["value"]
            if old > 0 and new < old / 10:
                print(f"WARN: metric '{metric}' collapsed {old:.3g} -> "
                      f"{new:.3g} (>10x below baseline; smoke sizes, "
                      f"but worth a look)")
    print(f"{name} baseline diff done (warnings are non-fatal)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
