"""Compare two sets of benchmark results, per workload and end-to-end metric.

Usage: ``python3 perfbench/compare.py BASE.jsonl NEW.jsonl``

Each file holds result lines as ``perfbench/run.py`` appends them to
``perfbench/out/results.jsonl`` (copy that file aside after running the
parent commit, then run the change).  Untraced results only.  The two sets
must come from the same environment: if any fingerprint key other than
``commit`` and ``src`` differs, the comparison is refused, because a number
measured with other CPUs, BLAS threads or library versions says nothing
about the code.  A metric whose own spread exceeds its bound is reported as
unresolved rather than unchanged.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

CODE_KEYS = ("commit", "src")


def load(path: str) -> list:
    rows = [json.loads(line) for line in Path(path).read_text().splitlines() if line.strip()]
    return [r for r in rows if r.get("trace") == 0]


def environment(row: dict) -> str:
    return json.dumps({k: v for k, v in row["fingerprint"].items() if k not in CODE_KEYS},
                      sort_keys=True)


def spread(values: list) -> float:
    if len(values) < 4:
        return float("nan")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv: list) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    base, new = load(argv[0]), load(argv[1])
    environments = {environment(r) for r in base + new}
    if len(environments) != 1:
        print("refused: the results come from different environments:", file=sys.stderr)
        for env in sorted(environments):
            print("  " + env, file=sys.stderr)
        return 1
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    values = defaultdict(lambda: defaultdict(list))  # (side, workload) -> metric -> values
    for side, rows in (("base", base), ("new", new)):
        for row in rows:
            for name, m in row["metrics"].items():
                values[side, row["workload"]][name].append(m["value"])
    regressions = 0
    for workload in sorted({r["workload"] for r in base} & {r["workload"] for r in new}):
        print(f"{workload}:")
        for name, m in metrics.items():
            b, n = values["base", workload][name], values["new", workload][name]
            if not b or not n:
                continue
            mb, mn = statistics.median(b), statistics.median(n)
            worse = (mn - mb) / mb if m["better"] == "lower" else (mb - mn) / mb
            noisy = max(spread(b), spread(n)) > m["bound"]
            if worse > m["bound"]:
                verdict = "REGRESSION"
                regressions += 1
            elif noisy:
                verdict = "unresolved (spread above bound)"
            else:
                verdict = "ok"
            print(f"  {name:<18} base {mb:12.5g}  new {mn:12.5g} {m['unit']:<4} "
                  f"worse by {100 * worse:+6.1f}% (bound {100 * m['bound']:.0f}%)  {verdict}")
    return 1 if regressions else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
