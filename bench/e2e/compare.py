#!/usr/bin/env python3
"""Compare two sets of end-to-end benchmark runs.

    python3 bench/e2e/compare.py SET_A SET_B
    python3 bench/e2e/compare.py --summary SET > bench/e2e/baseline.json

A set is a directory of <workload>.<seed>.result.json files, as written
by `run.py --out DIR` (one per run), or a summary file such as
baseline.json.  For each (workload, end-to-end metric) the comparison
prints both sets' median and quartiles and a verdict:

  unresolved  either set's quartile spread, as a share of its median,
              exceeds the metric's bound
  worse       B's median is worse than A's by more than the bound
  better      B's median is better than A's by more than the bound
  unchanged   otherwise

Bounds and directions come from BENCHMARK.json only.  The comparison
exits 1 if any deterministic fingerprint differs between the sets for
the same (workload, seed): the two sets did not compute the same thing.
"""
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def summarize(directory):
    """The summary of one directory of result files."""
    runs = {}
    meta = None
    for path in sorted(Path(directory).glob("*.result.json")):
        record = json.loads(path.read_text())
        meta = meta or record["meta"]
        runs.setdefault(record["workload"], []).append(record)
    if not runs:
        sys.exit(f"compare.py: no *.result.json files in {directory}")
    workloads = {}
    for name, records in sorted(runs.items()):
        metrics = {}
        for metric in records[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in records]
            q1, med, q3 = quartiles(values)
            metrics[metric] = {"median": med, "q1": q1, "q3": q3,
                               "unit": records[0]["metrics"][metric]["unit"]}
        workloads[name] = {
            "runs": len(records),
            "fingerprints": {str(r["seed"]): r["fingerprint"] for r in records},
            "metrics": metrics,
        }
    return {"meta": meta, "workloads": workloads}


def load(path):
    path = Path(path)
    return summarize(path) if path.is_dir() else json.loads(path.read_text())


def verdict(a, b, bound, better):
    def spread(s):
        return (s["q3"] - s["q1"]) / s["median"] if s["median"] else 0.0

    if max(spread(a), spread(b)) > bound:
        return "unresolved", None
    if a["median"] == 0:
        return ("unchanged" if b["median"] == 0 else "unresolved"), None
    change = (b["median"] - a["median"]) / a["median"]
    worse_by = change if better == "lower" else -change
    if worse_by > bound:
        return "worse", change
    if worse_by < -bound:
        return "better", change
    return "unchanged", change


def compare(set_a, set_b):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    a, b = load(set_a), load(set_b)
    mismatches = []
    row = "{:<18} {:<20} {:>28} {:>28} {:>8}  {}"
    print(row.format("workload", "metric", "A median [q1, q3]",
                     "B median [q1, q3]", "change", "verdict"))
    for workload in spec["workloads"]:
        name = workload["name"]
        if name not in a["workloads"] or name not in b["workloads"]:
            print(f"{name}: missing from {'A' if name not in a['workloads'] else 'B'}")
            continue
        wa, wb = a["workloads"][name], b["workloads"][name]
        for seed in sorted(set(wa["fingerprints"]) & set(wb["fingerprints"]), key=int):
            if wa["fingerprints"][seed] != wb["fingerprints"][seed]:
                mismatches.append(f"{name} seed {seed}: {wa['fingerprints'][seed]}"
                                  f" != {wb['fingerprints'][seed]}")
        for metric in spec["end_to_end"]:
            ma, mb = wa["metrics"][metric["name"]], wb["metrics"][metric["name"]]
            v, change = verdict(ma, mb, metric["bound"], metric["better"])
            print(row.format(
                name, metric["name"],
                f"{ma['median']:.6g} [{ma['q1']:.6g}, {ma['q3']:.6g}]",
                f"{mb['median']:.6g} [{mb['q1']:.6g}, {mb['q3']:.6g}]",
                "" if change is None else f"{change:+.2%}", v))
    for m in mismatches:
        print(f"fingerprint mismatch: {m}")
    if mismatches:
        sys.exit(1)
    print("fingerprints: identical for every (workload, seed) in both sets")


def main(argv):
    if len(argv) == 3 and argv[1] == "--summary":
        json.dump(summarize(argv[2]), sys.stdout, indent=1, sort_keys=True)
        sys.stdout.write("\n")
    elif len(argv) == 3:
        compare(argv[1], argv[2])
    else:
        sys.exit(__doc__)


if __name__ == "__main__":
    main(sys.argv)
