#!/usr/bin/env python3
"""Tiny-size self-test of the whole-sort benchmark.

    python3 perfbench/selftest.py          # every workload, small inputs
    python3 perfbench/selftest.py --cli    # also the 2^24 CLI cross-check

For every workload in BENCHMARK.json it checks that

  * a --trace 0 run prints every end-to-end metric exactly once, with the
    unit BENCHMARK.json gives it, and a --trace 1 run every per-layer one;
  * two --trace 0 runs with the same seed report identical deterministic
    metrics (the virtual times, expansion and job throughput);
  * run.py, the benchmark's command, passes the binary's result through.

--cli adds the cross-check against the user-facing CLI: at seed 2026,
psrs-uniform's expansion must equal what
`paladin_sort --demo 16777216 --perf 4,4,1,1` prints.
"""
import json
import os
import re
import subprocess
import sys
import tempfile

sys.dont_write_bytecode = True  # keep the checkout free of __pycache__
import run  # noqa: E402

TINY = ["--records", "65536", "--jobs", "12", "--seconds", "0.2"]
# Virtual-time results: pure functions of (seed, config).
DETERMINISTIC = ["vmakespan_s", "expansion", "vjob_p50_s", "vjob_p95_s", "vjobs_per_s"]


def no_duplicates(pairs):
    keys = [k for k, _ in pairs]
    dup = {k for k in keys if keys.count(k) > 1}
    if dup:
        raise ValueError("duplicate keys %s" % sorted(dup))
    return dict(pairs)


def execute(cmd):
    """Runs one benchmark command; returns its stdout lines and JSON result."""
    p = subprocess.run(cmd, capture_output=True, text=True, timeout=run.RUN_TIMEOUT_S)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        raise RuntimeError("%s exited %d:\n%s" % (" ".join(cmd), p.returncode, p.stderr))
    return lines, json.loads(lines[-1], object_pairs_hook=no_duplicates)


def wholesort(build, args):
    return execute([os.path.join(build, "wholesort"), *args])


def check_metrics(lines, result, expected, prefix):
    """Every expected metric once in the JSON and once as a text line."""
    errors = []
    if not result.get("correct") or result.get("failed") != 0 or result.get("attempted", 0) < 1:
        errors.append("run not correct: %s" % {k: result.get(k) for k in ("correct", "attempted", "failed")})
    metrics = result.get("metrics", {})
    if set(metrics) != {m["name"] for m in expected}:
        errors.append("metric names differ: %s" % sorted(set(metrics) ^ {m["name"] for m in expected}))
    for m in expected:
        got = metrics.get(m["name"])
        if got is None:
            continue
        if got.get("unit") != m["unit"]:
            errors.append("%s: unit %r, expected %r" % (m["name"], got.get("unit"), m["unit"]))
        if not isinstance(got.get("value"), (int, float)):
            errors.append("%s: value %r is not a number" % (m["name"], got.get("value")))
        printed = [l for l in lines if l.split()[:2] == [prefix, m["name"]]]
        if len(printed) != 1 or m["unit"] not in printed[0].split():
            errors.append("%s: printed %d times with its unit" % (m["name"], len(printed)))
    return errors


def cli_cross_check(build):
    out = run.build(("paladin_sort_cli",))
    if out is None:
        return ["could not build paladin_sort_cli"]
    with tempfile.TemporaryDirectory(dir=build) as cwd:
        p = subprocess.run([os.path.join(build, "paladin_sort_cli"), "--demo", "16777216",
                            "--perf", "4,4,1,1"], capture_output=True, text=True, cwd=cwd)
    match = re.search(r"sublist expansion: (\S+)", p.stdout)
    if p.returncode != 0 or not match:
        return ["paladin_sort --demo failed: %s" % p.stderr]
    lines, _ = wholesort(build, ["--workload", "psrs-uniform", "--seed", "2026",
                                 "--seconds", "1", "--trace", "0"])
    # Input 0 of a run is the seed's own input, the CLI's --demo keys.
    ours = next((l.split("expansion ")[1] for l in lines if l.startswith("input 0:")), None)
    print("cli expansion %s, benchmark input 0 expansion %s" % (match.group(1), ours))
    return [] if ours == match.group(1) else ["expansion %s != CLI's %s" % (ours, match.group(1))]


def main(argv):
    build = run.build()
    if build is None:
        return 1
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    errors = []
    for w in spec["workloads"]:
        base = ["--workload", w["name"], "--seed", "7", *TINY]
        lines, first = wholesort(build, base + ["--trace", "0"])
        errors += ["%s: %s" % (w["name"], e) for e in check_metrics(lines, first, spec["end_to_end"], "metric")]
        _, second = wholesort(build, base + ["--trace", "0"])
        for name in DETERMINISTIC:
            a = first["metrics"].get(name, {}).get("value")
            b = second["metrics"].get(name, {}).get("value")
            if a != b:
                errors.append("%s: %s differs across same-seed runs: %r vs %r" % (w["name"], name, a, b))
        lines, traced = wholesort(build, base + ["--trace", "1"])
        errors += ["%s: %s" % (w["name"], e) for e in check_metrics(lines, traced, spec["per_layer"], "layer")]
        print("%s: checked" % w["name"])
    lines, result = execute([sys.executable, os.path.join(run.HERE, "run.py"), "--workload",
                             spec["workloads"][0]["name"], "--seed", "7", *TINY, "--trace", "0"])
    errors += ["run.py: %s" % e for e in check_metrics(lines, result, spec["end_to_end"], "metric")]
    if "--cli" in argv:
        errors += cli_cross_check(build)
    for e in errors:
        print("FAIL " + e)
    print("selftest: %s" % ("FAILED" if errors else "ok"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
