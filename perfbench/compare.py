"""Compare two sets of benchmark records written with ``run.py --out``.

Usage::

    python3 perfbench/compare.py --base a1.json a2.json ... \\
        --new b1.json b2.json ...

Records are grouped by workload and trace mode.  Each end-to-end metric
is compared by its median over the records, against its bound in
``BENCHMARK.json``.  Records whose environment stamps (cores,
pool start method, python, numpy) differ are reported as not
comparable and are not compared.  Exit code: 0 all within bounds,
1 some metric worse than its bound, 2 nothing comparable.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from perfbench.common import comparable  # noqa: E402


def _load(paths: List[str]) -> Dict[tuple, List[dict]]:
    groups: Dict[tuple, List[dict]] = {}
    for path in paths:
        record = json.loads(Path(path).read_text())
        groups.setdefault((record["workload"], record["trace"]), []).append(
            record)
    return groups


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    args = parser.parse_args(argv)
    base, new = _load(args.base), _load(args.new)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    worse = compared = 0
    for key in sorted(set(base) & set(new)):
        mismatched = sorted({
            field for a in base[key] for b in new[key]
            for field in comparable(a["env"], b["env"])
        })
        label = f"{key[0]} (trace {key[1]})"
        if mismatched:
            print(f"{label}: not comparable, environments differ in "
                  f"{', '.join(mismatched)}")
            continue
        compared += 1
        print(f"{label}: {len(base[key])} base vs {len(new[key])} new runs")
        for name in base[key][0]["metrics"]:
            before = statistics.median(
                r["metrics"][name]["value"] for r in base[key])
            after = statistics.median(
                r["metrics"][name]["value"] for r in new[key])
            change = (after - before) / before if before else 0.0
            verdict = ""
            if name in bounds:
                better, bound = bounds[name]
                loss = -change if better == "higher" else change
                verdict = "WORSE" if loss > bound else "ok"
                worse += verdict == "WORSE"
            print(f"  {name:34s} {before:14.6g} -> {after:14.6g} "
                  f"{change:+8.1%} {verdict}")
    if not compared:
        return 2
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
