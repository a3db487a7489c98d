#!/usr/bin/env python3
"""Compare one or two sets of benchmark results (an A/A check when both
sets ran the same code).

    python3 perfbench/compare.py SET_A [SET_B]

A set is a directory of result records saved by perfbench/run.py
(--out), one per run; only untraced (--trace 0) runs are read. For each
workload and end-to-end metric this prints the set's median and
quartiles over its runs and the spread, (q3 - q1) / median, against the
metric's bound in BENCHMARK.json; setup_s is exempt from the spread
rule. With two sets it also prints how much worse B's median is than
A's, as a share of A's, against the same bound. Quartiles are those of
statistics.quantiles(values, n=4). Exits 1 if anything is out of bound.
"""

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPREAD_EXEMPT = {"setup_s"}


def load(directory):
    runs = {}
    machines = set()
    for path in sorted(Path(directory).glob("*.json")):
        record = json.loads(path.read_text())
        if "result" not in record or record["trace"] != 0:
            continue
        machines.add(json.dumps(record["machine"], sort_keys=True))
        if not record["result"]["correct"]:
            print(f"{path.name}: INCORRECT run: {record['failures'][:3]}")
        for name, metric in record["result"]["metrics"].items():
            runs.setdefault(record["workload"], {}).setdefault(name, []).append(metric["value"])
    if not runs:
        sys.exit(f"{directory}: no untraced result records")
    return runs, machines


def summary(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    if len(sys.argv) not in (2, 3):
        sys.exit(__doc__)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    sets = [load(d) for d in sys.argv[1:]]
    for i, (_, machines) in enumerate(sets):
        for m in sorted(machines):
            print(f"set {'AB'[i]} machine: {m}")
    out_of_bound = 0
    header = f"{'workload':<15} {'metric':<12} {'set':<3} {'n':>2} {'q1':>12} {'median':>12} {'q3':>12} {'spread':>7} {'bound':>6}  verdict"
    print(header)
    a_runs = sets[0][0]
    for workload in sorted(a_runs):
        for name, metric in metrics.items():
            medians = []
            for i, (runs, _) in enumerate(sets):
                values = runs.get(workload, {}).get(name, [])
                if not values:
                    print(f"{workload:<15} {name:<12} {'AB'[i]:<3} no runs")
                    out_of_bound += 1
                    continue
                q1, med, q3 = summary(values)
                medians.append(med)
                spread = (q3 - q1) / med
                if name in SPREAD_EXEMPT:
                    verdict = "exempt"
                elif spread <= metric["bound"] / 3:
                    verdict = "steady"
                elif spread <= metric["bound"]:
                    verdict = "within"
                else:
                    verdict = "OUT"
                    out_of_bound += 1
                print(f"{workload:<15} {name:<12} {'AB'[i]:<3} {len(values):>2} {q1:>12.6g} {med:>12.6g} "
                      f"{q3:>12.6g} {spread:>7.3f} {metric['bound']:>6}  {verdict}")
            if len(medians) == 2:
                sign = 1 if metric["better"] == "lower" else -1
                worse = sign * (medians[1] - medians[0]) / medians[0]
                verdict = "within" if worse <= metric["bound"] else "OUT"
                out_of_bound += verdict == "OUT"
                print(f"{workload:<15} {name:<12} B/A {'':>2} {'':>12} {'':>12} {'':>12} {worse:>+7.3f} "
                      f"{metric['bound']:>6}  B worse than A by {worse:+.1%}: {verdict}")
    print(f"{out_of_bound} out of bound")
    sys.exit(1 if out_of_bound else 0)


if __name__ == "__main__":
    main()
