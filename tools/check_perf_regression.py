#!/usr/bin/env python3
"""Guard the perf trajectory: fail on a throughput regression.

Compares two BENCH_*.json files (schema 1).  A row is GUARDED when it
carries `ops_per_sec`; each guarded row gets a score, and a row
regresses when the CURRENT file's score falls more than --threshold
(default 0.25 = 25%) below the BASELINE file's score.

Default mode is HARDWARE-NORMALIZED.  Every perf bench times a frozen
calibration kernel (bench/bench_common.hpp: one scalar SHA-256
compression plus a fixed dependent pointer chase over a buffer larger
than L2) and records it as `meta.calibration_ns`.  A row with
`ns_per_op` scores

    score(X) = meta.calibration_ns / ns_per_op(X)

— how many kernel ops fit in one of X's — so a uniformly faster or
slower machine cancels out.  A timed row (`ns_per_op` and
`ops_per_sec`) in a file without `meta.calibration_ns` is an error.

A row with `ops_per_sec` but no `ns_per_op` is compared RAW: the
faults and telemetry guard rows store deterministic, machine-free
rates (goodput per round, trace events per round) in that slot, so
their comparison is exact.  A row without `ops_per_sec` (e.g. a probe
too short to time stably) is not guarded.

--absolute instead compares raw ops_per_sec for every guarded row
(only meaningful when both files were produced on the same machine).

A metric that the BASELINE guards but the CURRENT run no longer emits
is an error in its own right (a silently dropped bench is how a perf
guard rots): it fails with the missing names listed.  Pass
--allow-missing to tolerate it (e.g. comparing a full baseline against
one bench's partial output).

Normalization cancels clock speed but NOT instruction sets: the
calibration kernel is scalar, while hash-bound rows run whatever
kernel the dispatch picked.  Benches record that dispatch in
"meta.hash_kernel" (e.g. "avx512x16+sha-ni"), and a runner without the
baseline's top tier legitimately scores lower on hash-bound rows.
When the two files disagree on meta.hash_kernel, regressions on rows
whose name matches --kernel-sensitive (default: sha256 / oracle / pow
/ crypto rows) are therefore reported as WARNINGS, while every other
row stays fully enforced.  Pass --strict-kernel to enforce the
hash-bound rows anyway (same-fleet runners where a kernel change is
itself the regression).  Matching kernels (or files without the key)
enforce everything.

Nor does normalization cancel core count: rows timed on the thread
pool (the scale bench's epoch builds) run faster on a wider pool.
Benches that time such rows record the pool's width as
"meta.pool_width", which is printed beside calibration_ns and not
enforced.

Usage:
  check_perf_regression.py BASELINE CURRENT [--threshold 0.25]
                           [--absolute] [--allow-missing]
                           [--strict-kernel] [--kernel-sensitive REGEX]
"""

import argparse
import json
import re
import sys


def is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def load_doc(path):
    """Parse one BENCH_*.json; exit with a clear message (never a bare
    traceback) on an unreadable, truncated, or wrong-shape file — a
    half-written artifact from a killed bench run must read as "bad
    input", not as a script bug."""
    try:
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        sys.exit(f"cannot read bench file {path}: {error}")
    if not isinstance(doc, dict):
        sys.exit(f"bench file {path} is unreadable or truncated: expected "
                 f"a JSON object at the top level, got "
                 f"{type(doc).__name__}")
    metrics = doc.get("metrics", [])
    if not isinstance(metrics, list):
        sys.exit(f"bench file {path} is unreadable or truncated: "
                 f"\"metrics\" must be a list, got "
                 f"{type(metrics).__name__}")
    rows = {}
    for i, row in enumerate(metrics):
        if not isinstance(row, dict):
            sys.exit(f"bench file {path} is unreadable or truncated: "
                     f"metrics[{i}] must be an object, got "
                     f"{type(row).__name__}")
        name = row.get("name")
        if isinstance(name, str):
            rows[name] = row
    meta = doc.get("meta")
    if not isinstance(meta, dict):
        meta = {}
    return rows, meta


def guarded_scores(path, rows, meta, absolute):
    """Map each guarded row name -> its score (see the module doc)."""
    calibration = meta.get("calibration_ns")
    scores = {}
    for name, row in rows.items():
        ops = row.get("ops_per_sec")
        if not is_number(ops) or ops <= 0:
            continue
        ns = row.get("ns_per_op")
        if absolute or not is_number(ns):
            scores[name] = ops
            continue
        if not is_number(calibration) or calibration <= 0:
            sys.exit(f"bench file {path} has timed row {name!r} but no "
                     f"positive meta.calibration_ns to normalize it by; "
                     f"regenerate it with a bench that records the "
                     f"calibration kernel")
        scores[name] = calibration / ns
    return scores


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument("--threshold", type=float, default=0.25,
                        help="maximum tolerated fractional drop")
    parser.add_argument("--absolute", action="store_true",
                        help="compare raw ops_per_sec (same-machine files)")
    parser.add_argument("--allow-missing", action="store_true",
                        help="tolerate baseline metrics absent from CURRENT")
    parser.add_argument("--strict-kernel", action="store_true",
                        help="fail on hash-bound regressions even when the "
                             "two files report different meta.hash_kernel "
                             "dispatches")
    parser.add_argument("--kernel-sensitive",
                        default=r"sha256|oracle|pow|crypto",
                        help="regex naming the rows whose score depends on "
                             "the hash-kernel dispatch (waived on kernel "
                             "mismatch; default: %(default)s)")
    args = parser.parse_args()

    baseline_rows, baseline_meta = load_doc(args.baseline)
    current_rows, current_meta = load_doc(args.current)
    baseline_kernel = baseline_meta.get("hash_kernel")
    current_kernel = current_meta.get("hash_kernel")

    kernel_mismatch = (baseline_kernel != current_kernel
                       and baseline_kernel is not None
                       and current_kernel is not None)
    if baseline_kernel or current_kernel:
        print(f"hash kernel: baseline={baseline_kernel or '(unrecorded)'} "
              f"current={current_kernel or '(unrecorded)'}"
              + ("  <-- DIFFERENT DISPATCH" if kernel_mismatch else ""))
    if not args.absolute:
        print(f"calibration_ns: baseline="
              f"{baseline_meta.get('calibration_ns', '(unrecorded)')} "
              f"current={current_meta.get('calibration_ns', '(unrecorded)')}")
        # Normalization cancels clock speed, not core count: rows timed
        # on the thread pool scale with its width.
        if "pool_width" in baseline_meta or "pool_width" in current_meta:
            print(f"pool_width: baseline="
                  f"{baseline_meta.get('pool_width', '(unrecorded)')} "
                  f"current={current_meta.get('pool_width', '(unrecorded)')}")

    label = "ops_per_sec" if args.absolute else "score"
    baseline = guarded_scores(args.baseline, baseline_rows, baseline_meta,
                              args.absolute)
    current = guarded_scores(args.current, current_rows, current_meta,
                             args.absolute)

    missing = sorted(name for name in baseline if name not in current)
    if missing and not args.allow_missing:
        print(f"{len(missing)} metric(s) present in the baseline "
              f"({args.baseline}) are missing from the current run "
              f"({args.current}):", file=sys.stderr)
        for name in missing:
            print(f"  {name}", file=sys.stderr)
        print("Did a bench stop emitting a row?  Regenerate the baseline "
              "if the removal is intentional, or pass --allow-missing for "
              "a partial comparison.", file=sys.stderr)
        return 1

    compared = 0
    regressions = []
    for name, base_value in sorted(baseline.items()):
        cur_value = current.get(name)
        if cur_value is None:
            continue
        compared += 1
        ratio = cur_value / base_value
        marker = ""
        if ratio < 1.0 - args.threshold:
            marker = "  <-- REGRESSION"
            regressions.append((name, ratio, base_value, cur_value))
        print(f"{name:40s} baseline {label}={base_value:12.6g} "
              f"current={cur_value:12.6g} ratio={ratio:6.3f}{marker}")

    if compared == 0:
        print(f"no comparable {label} rows between the two files",
              file=sys.stderr)
        return 1
    waived = []
    if kernel_mismatch and not args.strict_kernel:
        sensitive = re.compile(args.kernel_sensitive)
        waived = [r for r in regressions if sensitive.search(r[0])]
        regressions = [r for r in regressions if not sensitive.search(r[0])]

    def report_row(name, ratio, base_value, cur_value):
        # The offending numbers belong in the failure summary itself:
        # a CI log cut off above the comparison table must still show
        # what regressed from what to what.
        print(f"  {name}: baseline {label}={base_value:.6g} "
              f"fresh={cur_value:.6g} ({1 - ratio:.1%} below baseline)",
              file=sys.stderr)

    if waived:
        print(f"\nWARNING ONLY ({len(waived)} hash-bound metric(s) below "
              f"baseline, not enforced because the files ran under "
              f"different hash-kernel dispatches — {baseline_kernel} vs "
              f"{current_kernel}; pass --strict-kernel to enforce):",
              file=sys.stderr)
        for row in waived:
            report_row(*row)
    if regressions:
        print(f"\n{len(regressions)} metric(s) regressed beyond "
              f"{args.threshold:.0%}:", file=sys.stderr)
        for row in regressions:
            report_row(*row)
        return 1
    print(f"\nall {compared - len(waived)} enforced metrics within "
          f"{args.threshold:.0%} of baseline ({label})"
          + (f"; {len(waived)} hash-bound metrics waived" if waived else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
