#!/usr/bin/env python3
"""Gate bench results against the committed baselines.

Usage:
  check_perf_regression.py NEW_JSON BASELINE_JSON [--threshold=0.20]
  check_perf_regression.py --splitters NEW_JSON BASELINE_JSON
  check_perf_regression.py --service NEW_JSON BASELINE_JSON
  check_perf_regression.py --drift NEW_JSON BASELINE_JSON
  check_perf_regression.py --backends NEW_JSON BASELINE_JSON
  check_perf_regression.py --all NEW_DIR BASELINE_DIR [--threshold=0.20]

Default mode compares the merge and run-formation rows (kernel name
containing "merge" or "runform") of a freshly generated
bench_results/BENCH_hotpaths.json against the committed baseline and exits
nonzero when a merge row regressed by more than the threshold (default
+20% ns/record) or any compared row's compares per record moved at all.
Those rows time the host, so they carry a noise tolerance.

--splitters, --service, --drift and --backends gate the virtual benches
exactly.  Every field of their rows is a virtual-time or correctness
figure, deterministic per (seed, config), so any change is a logic change:
each field of a committed row must equal the new value as printed, in
either direction.  Rows are keyed by (strategy, p, dist) in
BENCH_splitters.json, by policy in BENCH_service.json, by mode in
BENCH_drift.json (whose top-level recovery_factor and recovery_ok are
compared the same way) and by (backend, scenario, record_bytes) in
BENCH_backends.json.  A change that means to move them re-baselines the
file and lists before -> after.

--all runs the five gates above, in that order, on BENCH_hotpaths.json,
BENCH_splitters.json, BENCH_service.json, BENCH_drift.json and
BENCH_backends.json of the two directories.  Every gate runs even after
one fails; the exit status is nonzero when any of them failed.

In all modes rows present on only one side are reported but never fail
the gate (new rows appear, retired ones vanish), and fields present only
in the new results are not compared, so older baselines missing optional
fields are accepted.
"""

import json
import os
import sys


def load_doc(path):
    with open(path) as f:
        return json.load(f)


def load_merge_rows(path):
    rows = {}
    for row in load_doc(path).get("rows", []):
        rows[(row["kernel"], row["mode"])] = row
    return rows


GATED_KERNELS = ("merge", "runform")
# Three runs of one bench_hotpaths binary moved every run-formation row by
# more than the threshold (its radix sort's scratch buffer and the memory
# disk's chunks follow the heap layout), so only their compare counts are
# gated.
COUNT_ONLY_KERNELS = ("runform",)


def gated(kernel):
    return any(name in kernel for name in GATED_KERNELS)


def timed(kernel):
    return not any(name in kernel for name in COUNT_ONLY_KERNELS)


def check_merge(new_path, base_path, threshold):
    new_rows = load_merge_rows(new_path)
    base_rows = load_merge_rows(base_path)

    failures = []
    compared = 0
    for key, base in sorted(base_rows.items()):
        kernel, mode = key
        if not gated(kernel):
            continue
        new = new_rows.get(key)
        if new is None:
            print(f"note: {kernel}/{mode} missing from new results; skipped")
            continue
        compared += 1
        old_ns = base["ns_per_record"]
        new_ns = new["ns_per_record"]
        ratio = new_ns / old_ns if old_ns > 0 else float("inf")
        status = "ok" if timed(kernel) else "untimed"
        if timed(kernel) and ratio > 1.0 + threshold:
            status = "REGRESSION"
            failures.append(key)
        print(f"{status:>10}  {kernel:<18} {mode:<10} "
              f"{old_ns:8.2f} -> {new_ns:8.2f} ns/rec ({ratio - 1.0:+.1%})")
        # Metered work is deterministic: a compare-count drift is a logic
        # change, not noise, so flag it when both sides carry the field.
        if "compares_per_record" in base and "compares_per_record" in new:
            if abs(base["compares_per_record"] -
                   new["compares_per_record"]) > 1e-9:
                print(f"            compare count drift: "
                      f"{base['compares_per_record']} -> "
                      f"{new['compares_per_record']}")
                failures.append(key)

    for key in sorted(set(new_rows) - set(base_rows)):
        if gated(key[0]):
            print(f"note: new row {key[0]}/{key[1]} has no baseline; skipped")

    if compared == 0:
        print("error: no hot-path rows in common — wrong files?",
              file=sys.stderr)
        return 2
    if failures:
        print(f"\nFAIL: {len(set(failures))} hot-path row(s) regressed more "
              f"than {threshold:.0%} vs the committed baseline")
        return 1
    print(f"\nOK: {compared} hot-path rows within {threshold:.0%} of "
          f"baseline")
    return 0


# Per exact gate: the fields that key a row, and the top-level fields
# compared next to the rows.
EXACT_GATES = {
    "splitters": (("strategy", "p", "dist"), ()),
    "service": (("policy",), ()),
    "drift": (("mode",), ("recovery_factor", "recovery_ok")),
    "backends": (("backend", "scenario", "record_bytes"), ()),
}


def load_exact_doc(path):
    # Numbers stay the text the bench printed, so "exactly as printed"
    # is a string comparison.
    with open(path) as f:
        return json.load(f, parse_float=str, parse_int=str)


def shown(value):
    return value if isinstance(value, str) else json.dumps(value)


def check_exact(bench, new_path, base_path):
    key_fields, top_fields = EXACT_GATES[bench]
    new_doc = load_exact_doc(new_path)
    base_doc = load_exact_doc(base_path)

    def keyed(doc):
        return {tuple(row[k] for k in key_fields): row
                for row in doc.get("rows", [])}

    def moved(base, new, fields):
        return [f"{field} {shown(base.get(field))} -> "
                f"{shown(new.get(field))}"
                for field in fields if new.get(field) != base.get(field)]

    failures = 0
    for field in top_fields:
        old, new = base_doc.get(field), new_doc.get(field)
        print(f"{'ok' if new == old else 'CHANGED':>10}  {field} "
              f"{shown(old)} -> {shown(new)}")
        failures += new != old

    new_rows = keyed(new_doc)
    base_rows = keyed(base_doc)
    compared = 0
    for key, base in sorted(base_rows.items()):
        label = "/".join(key)
        new = new_rows.get(key)
        if new is None:
            print(f"note: {label} missing from new results; skipped")
            continue
        compared += 1
        changes = moved(base, new, base)
        print(f"{'CHANGED' if changes else 'ok':>10}  {label:<36} "
              + ("; ".join(changes) if changes else "equal"))
        if changes:
            failures += 1

    for key in sorted(set(new_rows) - set(base_rows)):
        print(f"note: new row {'/'.join(key)} has no baseline; skipped")

    if compared == 0:
        print(f"error: no {bench} rows in common — wrong files?",
              file=sys.stderr)
        return 2
    if failures:
        print(f"\nFAIL: {failures} {bench} row(s) or field(s) differ from "
              f"the committed baseline (exact gate)")
        return 1
    print(f"\nOK: {compared} {bench} rows equal the baseline")
    return 0


def check_all(new_dir, base_dir, threshold):
    gates = ["hotpaths"] + list(EXACT_GATES)
    failed = []
    for bench in gates:
        name = f"BENCH_{bench}.json"
        print(f"\n== {name}")
        new_path = os.path.join(new_dir, name)
        base_path = os.path.join(base_dir, name)
        status = (check_merge(new_path, base_path, threshold)
                  if bench == "hotpaths" else
                  check_exact(bench, new_path, base_path))
        if status != 0:
            failed.append(name)
    if failed:
        print(f"\nFAIL: {len(failed)} of {len(gates)} gates failed: "
              + ", ".join(failed))
        return 1
    print(f"\nOK: all {len(gates)} gates passed")
    return 0


def main(argv):
    args = [a for a in argv[1:] if not a.startswith("--")]
    flags = [a[2:] for a in argv[1:] if a.startswith("--")]
    threshold = 0.20
    for a in argv[1:]:
        if a.startswith("--threshold="):
            threshold = float(a.split("=", 1)[1])
    if len(args) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2

    if "all" in flags:
        return check_all(args[0], args[1], threshold)
    for bench in EXACT_GATES:
        if bench in flags:
            return check_exact(bench, args[0], args[1])
    return check_merge(args[0], args[1], threshold)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
