#!/usr/bin/env python3
"""Summarise or compare saved benchmark runs.

Save each run's standard output to a file ending in `.log`, one directory
per commit, then:

    python3 nidsbench/compare.py RUNS_DIR            # medians and spreads
    python3 nidsbench/compare.py BASE_DIR NEW_DIR    # NEW against BASE

Spread is (Q3 - Q1) / median over a workload's runs, with quartiles from
`statistics.quantiles(values, n=4)`.  A comparison is refused when the runs
do not all share one host fingerprint: a new machine is not a code change.
"""

import json
import pathlib
import statistics
import sys

BENCHMARK = pathlib.Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(directory):
    """{(workload, trace): [metrics dict, ...]} and the set of fingerprints."""
    runs, fingerprints = {}, set()
    for path in sorted(pathlib.Path(directory).glob("*.log")):
        lines = path.read_text().splitlines()
        fingerprint = next((l[len("fingerprint "):] for l in lines if l.startswith("fingerprint ")), None)
        info = next((json.loads(l[len("run "):]) for l in lines if l.startswith("run ")), None)
        if fingerprint is None or info is None or not lines[-1].startswith("{"):
            sys.exit(f"{path}: not a complete benchmark run")
        result = json.loads(lines[-1])
        if not result["correct"]:
            sys.exit(f"{path}: the run failed its output checks")
        fingerprints.add(fingerprint)
        key = (info["workload"], info["trace"])
        runs.setdefault(key, []).append({k: v["value"] for k, v in result["metrics"].items()})
    if not runs:
        sys.exit(f"{directory}: no .log files")
    return runs, fingerprints


def spread(values):
    if len(values) < 2:
        return float("nan")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv):
    if len(argv) not in (2, 3):
        sys.exit(__doc__)
    declared = json.loads(BENCHMARK.read_text())
    metrics = {m["name"]: m for m in declared["end_to_end"]}
    base, base_prints = load(argv[1])
    if len(argv) == 2:
        for (workload, trace), results in sorted(base.items()):
            print(f"{workload} (trace {trace}, {len(results)} runs)")
            for name in results[0]:
                values = [r[name] for r in results]
                bound = metrics.get(name, {}).get("bound")
                s = spread(values)
                flag = "" if bound is None or s <= bound / 3 else ("  above bound/3" if s <= bound else "  ABOVE BOUND")
                print(f"  {name:32} median {statistics.median(values):<14.6g} spread {s:.4f}{flag}")
        return
    new, new_prints = load(argv[2])
    if len(base_prints | new_prints) != 1:
        print("refusing to compare: the runs come from different hosts or builds:", file=sys.stderr)
        for fingerprint in sorted(base_prints | new_prints):
            print(f"  {fingerprint}", file=sys.stderr)
        sys.exit(2)
    for key in sorted(base.keys() & new.keys()):
        if key[1]:
            continue
        print(f"{key[0]} ({len(base[key])} base runs, {len(new[key])} new runs)")
        for name, metric in metrics.items():
            old = [r[name] for r in base[key]]
            cur = [r[name] for r in new[key]]
            m_old, m_new = statistics.median(old), statistics.median(cur)
            sign = 1 if metric["better"] == "lower" else -1
            worse = sign * (m_new - m_old) / m_old
            if spread(old) > metric["bound"]:
                verdict = "unresolved (base spread above bound)"
            elif worse > metric["bound"]:
                verdict = "WORSE beyond bound"
            else:
                verdict = "within bound"
            print(f"  {name:14} {m_old:<12.6g} -> {m_new:<12.6g} worse by {worse:+.4f} (bound {metric['bound']}): {verdict}")


if __name__ == "__main__":
    main(sys.argv)
