#!/usr/bin/env python3
"""Benchmark self-test.

Runs every workload at the smallest scale, once untraced and once
traced, and checks that each run is correct and emits exactly the
metrics BENCHMARK.json declares: every end_to_end metric untraced, every
per_layer metric traced, nothing else. It also checks that
perfbench/layers.json places every per_layer metric in one layer and
names only declared workloads and end-to-end metrics.

  python3 perfbench/selftest.py      # from the checkout root, ~1 minute
"""

import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def check_layers(bench, layers):
    errors = []
    declared = [m["name"] for m in bench["per_layer"]]
    owner = {}
    for layer, spec in layers["layers"].items():
        for name in spec["metrics"]:
            if name in owner:
                errors.append(f"layers.json: {name} is in both {owner[name]} and {layer}")
            owner[name] = layer
        for workload, metrics in spec["moves"].items():
            if workload not in {w["name"] for w in bench["workloads"]}:
                errors.append(f"layers.json: {layer} names unknown workload {workload}")
            for m in metrics:
                if m not in {e["name"] for e in bench["end_to_end"]}:
                    errors.append(f"layers.json: {layer} names unknown end-to-end metric {m}")
    if sorted(owner) != sorted(declared):
        errors.append(f"layers.json metrics differ from BENCHMARK.json per_layer: "
                      f"missing {sorted(set(declared) - set(owner))}, extra {sorted(set(owner) - set(declared))}")
    return errors


def check_run(bench, workload, trace):
    cmd = bench["command"] + ["--workload", workload, "--seed", "1", "--seconds", "1",
                              "--trace", str(trace), "--profile", "smoke"]
    p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=600)
    label = f"{workload} --trace {trace}"
    if p.returncode != 0:
        return [f"{label}: exit {p.returncode}: {p.stderr.decode(errors='replace').strip()}"]
    result = json.loads(p.stdout.decode().strip().splitlines()[-1])
    errors = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        errors.append(f"{label}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        errors.append(f"{label}: correct={result['correct']} attempted={result['attempted']} "
                      f"failed={result['failed']}: {p.stderr.decode(errors='replace').strip()}")
    want = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
    got = result["metrics"]
    if sorted(got) != sorted(want):
        errors.append(f"{label}: missing {sorted(set(want) - set(got))}, undeclared {sorted(set(got) - set(want))}")
    for name, m in got.items():
        if name in want and m["unit"] != want[name]:
            errors.append(f"{label}: {name} unit {m['unit']} != {want[name]}")
        if not isinstance(m["value"], (int, float)):
            errors.append(f"{label}: {name} value {m['value']!r} is not a number")
        elif not trace and m["value"] <= 0:
            errors.append(f"{label}: end-to-end metric {name} is {m['value']}")
    return errors


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    with open(os.path.join(BENCH_DIR, "layers.json")) as f:
        layers = json.load(f)
    errors = check_layers(bench, layers)
    for w in bench["workloads"]:
        for trace in (0, 1):
            errs = check_run(bench, w["name"], trace)
            print(f"{w['name']} --trace {trace}: {'ok' if not errs else 'FAIL'}", file=sys.stderr)
            errors += errs
    for e in errors:
        print("selftest:", e, file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
