#!/usr/bin/env python3
"""Gate bench results against the committed baselines.

Usage:
  check_perf_regression.py NEW_JSON BASELINE_JSON [--threshold=0.20]
  check_perf_regression.py --splitters NEW_JSON BASELINE_JSON [--threshold=0.20]
  check_perf_regression.py --service NEW_JSON BASELINE_JSON [--threshold=0.20]
  check_perf_regression.py --drift NEW_JSON BASELINE_JSON [--threshold=0.20]
  check_perf_regression.py --backends NEW_JSON BASELINE_JSON
  check_perf_regression.py --all NEW_DIR BASELINE_DIR [--threshold=0.20]

Default mode compares the merge and run-formation rows (kernel name
containing "merge" or "runform") of a freshly generated
bench_results/BENCH_hotpaths.json against the committed baseline and exits
nonzero when a merge row regressed by more than the threshold (default
+20% ns/record) or any compared row's compares per record moved at all.

--splitters compares bench_results/BENCH_splitters.json rows keyed by
(strategy, p, dist): t_select_s drift beyond the threshold fails, and —
since the virtual clock is deterministic — an expansion drift beyond 0.05
is flagged as a logic change, not noise.

--service compares bench_results/BENCH_service.json rows keyed by policy:
a jobs_per_vsec drop or a p99_s rise beyond the threshold fails, and an
all_ok=false row fails outright (verification is part of the contract).

--drift compares bench_results/BENCH_drift.json: recovery_ok=false fails
outright (the bench's own >= 2x recovery assertion did not hold), a
recovery_factor drop beyond the threshold fails (the adaptive layer
recovers a smaller share of the drift damage than it used to), and an
adaptive-row makespan rise beyond the threshold fails.

--backends compares bench_results/BENCH_backends.json rows keyed by
(backend, scenario, record_bytes) exactly: records, makespan_s,
expansion, sorted and conserved must equal the committed values as
printed, in either direction.  Every one of them is a virtual-time or
correctness figure, deterministic per (seed, config), so any change is a
logic change; a change that means to move them re-baselines the file.

--all runs the five gates above, in that order, on BENCH_hotpaths.json,
BENCH_splitters.json, BENCH_service.json, BENCH_drift.json and
BENCH_backends.json of the two directories.  Every gate runs even after
one fails; the exit status is nonzero when any of them failed.

In all modes rows present on only one side are reported but never fail
the gate (new rows appear, retired ones vanish), and older baselines
missing optional fields are accepted.
"""

import json
import os
import sys

EXPANSION_TOLERANCE = 0.05


def load_doc(path):
    with open(path) as f:
        return json.load(f)


def load_merge_rows(path):
    rows = {}
    for row in load_doc(path).get("rows", []):
        rows[(row["kernel"], row["mode"])] = row
    return rows


def load_splitter_rows(path):
    rows = {}
    for row in load_doc(path).get("rows", []):
        rows[(row["strategy"], row["p"], row["dist"])] = row
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


def check_splitters(new_path, base_path, threshold):
    new_rows = load_splitter_rows(new_path)
    base_rows = load_splitter_rows(base_path)

    failures = []
    compared = 0
    for key, base in sorted(base_rows.items()):
        strategy, p, dist = key
        label = f"{strategy}/p{p}/{dist}"
        new = new_rows.get(key)
        if new is None:
            print(f"note: {label} missing from new results; skipped")
            continue
        compared += 1
        old_t = base["t_select_s"]
        new_t = new["t_select_s"]
        ratio = new_t / old_t if old_t > 0 else float("inf")
        status = "ok"
        if ratio > 1.0 + threshold:
            status = "REGRESSION"
            failures.append(key)
        print(f"{status:>10}  {label:<24} "
              f"{old_t:10.6f} -> {new_t:10.6f} s ({ratio - 1.0:+.1%})")
        # Selection balance is deterministic per seed: an expansion drift is
        # a splitter-logic change, not measurement noise.
        if "expansion" in base and "expansion" in new:
            drift = abs(base["expansion"] - new["expansion"])
            if drift > EXPANSION_TOLERANCE:
                print(f"            expansion drift: {base['expansion']} -> "
                      f"{new['expansion']}")
                failures.append(key)

    for key in sorted(set(new_rows) - set(base_rows)):
        print(f"note: new row {key[0]}/p{key[1]}/{key[2]} has no baseline; "
              f"skipped")

    if compared == 0:
        print("error: no splitter rows in common — wrong files?",
              file=sys.stderr)
        return 2
    if failures:
        print(f"\nFAIL: {len(set(failures))} splitter row(s) drifted more "
              f"than {threshold:.0%} (or expansion beyond "
              f"{EXPANSION_TOLERANCE}) vs the committed baseline")
        return 1
    print(f"\nOK: {compared} splitter rows within {threshold:.0%} of "
          f"baseline")
    return 0


def load_service_rows(path):
    rows = {}
    for row in load_doc(path).get("rows", []):
        rows[row["policy"]] = row
    return rows


def check_service(new_path, base_path, threshold):
    new_rows = load_service_rows(new_path)
    base_rows = load_service_rows(base_path)

    failures = []
    compared = 0
    for policy, base in sorted(base_rows.items()):
        new = new_rows.get(policy)
        if new is None:
            print(f"note: policy {policy} missing from new results; skipped")
            continue
        compared += 1
        if not new.get("all_ok", False):
            print(f"REGRESSION  {policy:<12} all_ok=false "
                  f"(a job failed verification)")
            failures.append(policy)
        old_tp = base["jobs_per_vsec"]
        new_tp = new["jobs_per_vsec"]
        ratio = new_tp / old_tp if old_tp > 0 else float("inf")
        status = "ok"
        # Throughput gates downward (a drop is the regression).
        if ratio < 1.0 - threshold:
            status = "REGRESSION"
            failures.append(policy)
        print(f"{status:>10}  {policy:<12} throughput "
              f"{old_tp:.6f} -> {new_tp:.6f} jobs/vsec ({ratio - 1.0:+.1%})")
        old_p99 = base["p99_s"]
        new_p99 = new["p99_s"]
        ratio = new_p99 / old_p99 if old_p99 > 0 else float("inf")
        status = "ok"
        if ratio > 1.0 + threshold:
            status = "REGRESSION"
            failures.append(policy)
        print(f"{status:>10}  {policy:<12} p99 latency "
              f"{old_p99:.3f} -> {new_p99:.3f} s ({ratio - 1.0:+.1%})")

    for policy in sorted(set(new_rows) - set(base_rows)):
        print(f"note: new policy row {policy} has no baseline; skipped")

    if compared == 0:
        print("error: no service rows in common — wrong files?",
              file=sys.stderr)
        return 2
    if failures:
        print(f"\nFAIL: {len(set(failures))} service row(s) regressed more "
              f"than {threshold:.0%} vs the committed baseline")
        return 1
    print(f"\nOK: {compared} service rows within {threshold:.0%} of baseline")
    return 0


def check_drift(new_path, base_path, threshold):
    new_doc = load_doc(new_path)
    base_doc = load_doc(base_path)

    failures = []
    # The bench's own assertion is part of the contract: adaptive must
    # recover >= 2x of the static damage, and every run must verify.
    if not new_doc.get("recovery_ok", False):
        print("REGRESSION  recovery_ok=false "
              "(bench_drift's recovery assertion failed)")
        failures.append("recovery_ok")

    old_rf = base_doc.get("recovery_factor", 0.0)
    new_rf = new_doc.get("recovery_factor", 0.0)
    ratio = new_rf / old_rf if old_rf > 0 else float("inf")
    status = "ok"
    # The recovery gap gates downward: recovering a smaller share of the
    # drift damage than the committed baseline is the regression.
    if ratio < 1.0 - threshold:
        status = "REGRESSION"
        failures.append("recovery_factor")
    print(f"{status:>10}  recovery factor "
          f"{old_rf:.3f}x -> {new_rf:.3f}x ({ratio - 1.0:+.1%})")

    new_rows = {row["mode"]: row for row in new_doc.get("rows", [])}
    base_rows = {row["mode"]: row for row in base_doc.get("rows", [])}
    compared = 0
    for mode, base in sorted(base_rows.items()):
        new = new_rows.get(mode)
        if new is None:
            print(f"note: mode {mode} missing from new results; skipped")
            continue
        compared += 1
        if not new.get("ok", False):
            print(f"REGRESSION  {mode:<10} ok=false "
                  f"(the run failed verification)")
            failures.append(mode)
        # Only the adaptive makespan gates: baseline and static track the
        # cost model, and static's whole point is to eat the damage.
        if mode != "adaptive":
            continue
        old_mk = base["makespan_s"]
        new_mk = new["makespan_s"]
        ratio = new_mk / old_mk if old_mk > 0 else float("inf")
        status = "ok"
        if ratio > 1.0 + threshold:
            status = "REGRESSION"
            failures.append(mode)
        print(f"{status:>10}  {mode:<10} makespan "
              f"{old_mk:.3f} -> {new_mk:.3f} s ({ratio - 1.0:+.1%})")

    if compared == 0:
        print("error: no drift rows in common — wrong files?",
              file=sys.stderr)
        return 2
    if failures:
        print(f"\nFAIL: {len(set(failures))} drift check(s) regressed more "
              f"than {threshold:.0%} vs the committed baseline")
        return 1
    print(f"\nOK: drift recovery within {threshold:.0%} of baseline")
    return 0


BACKEND_EXACT_FIELDS = ("records", "makespan_s", "expansion", "sorted",
                        "conserved")


def load_backend_rows(path):
    # Numbers stay the text the bench printed, so "exactly as printed"
    # is a string comparison.
    with open(path) as f:
        doc = json.load(f, parse_float=str, parse_int=str)
    rows = {}
    for row in doc.get("rows", []):
        rows[(row["backend"], row["scenario"], row["record_bytes"])] = row
    return rows


def check_backends(new_path, base_path, threshold=None):
    new_rows = load_backend_rows(new_path)
    base_rows = load_backend_rows(base_path)

    failures = []
    compared = 0
    for key, base in sorted(base_rows.items()):
        backend, scenario, record_bytes = key
        label = f"{backend}/{scenario}/{record_bytes}B"
        new = new_rows.get(key)
        if new is None:
            print(f"note: {label} missing from new results; skipped")
            continue
        compared += 1
        moved = [f"{field} {base.get(field)} -> {new.get(field)}"
                 for field in BACKEND_EXACT_FIELDS
                 if new.get(field) != base.get(field)]
        print(f"{'CHANGED' if moved else 'ok':>10}  {label:<36} "
              + ("; ".join(moved) if moved else
                 f"makespan {base['makespan_s']} s"))
        if moved:
            failures.append(key)

    for key in sorted(set(new_rows) - set(base_rows)):
        print(f"note: new row {key[0]}/{key[1]}/{key[2]}B has no baseline; "
              f"skipped")

    if compared == 0:
        print("error: no backend rows in common — wrong files?",
              file=sys.stderr)
        return 2
    if failures:
        print(f"\nFAIL: {len(failures)} backend row(s) differ from the "
              f"committed baseline (exact gate)")
        return 1
    print(f"\nOK: {compared} backend rows equal the baseline")
    return 0


def check_all(new_dir, base_dir, threshold):
    gates = [
        ("BENCH_hotpaths.json", check_merge),
        ("BENCH_splitters.json", check_splitters),
        ("BENCH_service.json", check_service),
        ("BENCH_drift.json", check_drift),
        ("BENCH_backends.json", check_backends),
    ]
    failed = []
    for name, check in gates:
        print(f"\n== {name}")
        if check(os.path.join(new_dir, name), os.path.join(base_dir, name),
                 threshold) != 0:
            failed.append(name)
    if failed:
        print(f"\nFAIL: {len(failed)} of {len(gates)} gates failed: "
              + ", ".join(failed))
        return 1
    print(f"\nOK: all {len(gates)} gates passed")
    return 0


def main(argv):
    args = [a for a in argv[1:] if not a.startswith("--")]
    threshold = 0.20
    splitters = "--splitters" in argv[1:]
    service = "--service" in argv[1:]
    drift = "--drift" in argv[1:]
    backends = "--backends" in argv[1:]
    run_all = "--all" in argv[1:]
    for a in argv[1:]:
        if a.startswith("--threshold="):
            threshold = float(a.split("=", 1)[1])
    if len(args) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2

    if run_all:
        return check_all(args[0], args[1], threshold)
    if splitters:
        return check_splitters(args[0], args[1], threshold)
    if service:
        return check_service(args[0], args[1], threshold)
    if drift:
        return check_drift(args[0], args[1], threshold)
    if backends:
        return check_backends(args[0], args[1])
    return check_merge(args[0], args[1], threshold)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
