"""Compare two results files metric by metric, per workload.

Usage::

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds the records ``run.py`` appends (one JSON object a line).
For every workload both files ran, this prints each end-to-end metric
(from the ``--trace 0`` runs) and each per-layer metric (from the
``--trace 1`` runs) as the median over that file's runs, side by side
with the relative change.  An end-to-end metric that got worse by more
than its ``bound`` in BENCHMARK.json is flagged ``REGRESSED``; the exit
code is 1 when any is.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from pathlib import Path

from common import ROOT, median


def load(path: str) -> dict:
    """``(workload, section) -> metric -> [values]`` from one file."""
    grouped: dict = defaultdict(lambda: defaultdict(list))
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        sections = [("end_to_end", record["end_to_end"])]
        if record["trace"]:
            sections = [("per_layer", record["per_layer"])]
        for section, metrics in sections:
            for name, value in metrics.items():
                grouped[(record["workload"], section)][name].append(value)
    return grouped


def compare(base: dict, new: dict, spec: dict) -> list[str]:
    """Rows of the comparison; a row ending in REGRESSED is a finding."""
    direction = {m["name"]: m["better"]
                 for m in spec["end_to_end"] + spec["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    rows = [f"{'workload':9} {'metric':26} {'base':>13} {'new':>13} "
            f"{'change':>9}  runs"]
    for key in sorted(set(base) & set(new)):
        workload, section = key
        for name in sorted(set(base[key]) & set(new[key])):
            a, b = median(base[key][name]), median(new[key][name])
            change = (b - a) / abs(a) if a else 0.0
            worse = change if direction.get(name) == "lower" else -change
            flag = ""
            if section == "end_to_end" and worse > bounds.get(name, 1e9):
                flag = f"  REGRESSED (bound {bounds[name]:.0%})"
            rows.append(f"{workload:9} {name:26} {a:13.6g} {b:13.6g} "
                        f"{change:+9.2%}  {len(base[key][name])}/"
                        f"{len(new[key][name])}{flag}")
    return rows


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = compare(load(argv[0]), load(argv[1]), spec)
    print("\n".join(rows))
    return 1 if any("REGRESSED" in row for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
