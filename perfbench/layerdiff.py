"""Where did the time move?  Per-layer self-time deltas of two traced runs.

    python3 perfbench/layerdiff.py --parent OLD.json [OLD2.json ...] \\
        --change NEW.json [NEW2.json ...]

Each file is a trace that ``run.py --trace 1`` wrote to ``perfbench/_out/``;
give the same workload and seed on both sides.  Every traced repeat of every
file on a side is one sample.  For each layer (the first part of a span's
name) the helper sums the self time of the layer's spans and prints the
parent's median, the parent's quartile spread (q3 - q1, which needs two
samples or more), the change's median and the delta.  A delta no
larger than the parent's spread is marked ``~``: it is not resolved.  There
is no gate; the exit code is 0 whenever the files parse.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from typing import Dict, List, Optional, Sequence

from tracer import layer_of


def samples(paths: Sequence[str]) -> Dict[str, List[float]]:
    """``layer -> self seconds per traced repeat`` across the given trace files."""
    out: Dict[str, List[float]] = {}
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            document = json.load(handle)
        for repeat in document["repeats"]:
            values: Dict[str, float] = {}
            for name, row in repeat["layers"].items():
                layer = layer_of(name)
                values[layer] = values.get(layer, 0.0) + row["self_s"]
            for key, value in values.items():
                out.setdefault(key, []).append(value)
    return out


def spread(values: List[float]) -> Optional[float]:
    if len(values) < 2:
        return None
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", nargs="+", required=True, help="traces of the parent commit")
    parser.add_argument("--change", nargs="+", required=True, help="traces of the change")
    args = parser.parse_args(argv)
    parent = samples(args.parent)
    change = samples(args.change)
    print(f"{'layer':<34}{'parent':>12}{'spread':>11}{'change':>12}{'delta':>12}{'delta%':>9}")
    for key in sorted(set(parent) | set(change), key=lambda k: -statistics.median(parent.get(k, [0]))):
        before = statistics.median(parent.get(key, [0.0]))
        after = statistics.median(change.get(key, [0.0]))
        width = spread(parent.get(key, []))
        delta = after - before
        share = f"{100 * delta / before:+8.1f}%" if before else f"{'new':>9}"
        resolved = " " if width is not None and abs(delta) > width else "~"
        print(
            f"{key:<34}{before:>12.5g}{'n/a' if width is None else f'{width:.4g}':>11}"
            f"{after:>12.5g}{delta:>+12.4g}{share}{resolved}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
