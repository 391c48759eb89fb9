#!/usr/bin/env python3
"""Compare two sets of benchmark records.

  python3 perfbench/compare.py BASE.jsonl HEAD.jsonl

Each file holds records appended by `run.py --out FILE`, typically ten
seeds per workload for the parent commit and for the change. Records
are paired by (workload, trace, seed). The comparison refuses (exit 2)
when a pair differs in GOMAXPROCS, in the exact tputlab argument lists
or in the run length, because then the two sides did not measure the
same thing.

For each workload and metric it prints both medians, the change in the
metric's worse direction, the share of pairs the head won, the base's
own quartile spread and the metric's bound from BENCHMARK.json. An
end-to-end metric reads WORSE when its change exceeds the bound, BETTER
when it improved by more than the base spread in at least nine of ten
pairs, and "unresolved" when the base spread exceeds the bound.
"""

import json
import os
import statistics
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def spread(values):
    if len(values) < 2:
        return float("nan")
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, head = load(argv[0]), load(argv[1])
    with open(os.path.join(BENCH_DIR, os.pardir, "BENCHMARK.json")) as f:
        bench = json.load(f)
    declared = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}

    key = lambda r: (r["workload"], r["trace"], r["seed"])
    heads = {key(r): r for r in head}
    refused = []
    for b in base:
        h = heads.get(key(b))
        if h is None:
            continue
        for what, get in (("GOMAXPROCS", lambda r: r["env"]["gomaxprocs"]),
                          ("tputlab arguments", lambda r: r["tputlab_args"]),
                          ("run length", lambda r: r["seconds"])):
            if get(b) != get(h):
                refused.append(f"{key(b)}: {what} differ: {get(b)} vs {get(h)}")
    if refused:
        print("compare: refusing to diff records that measured different things:", file=sys.stderr)
        for r in refused:
            print("  " + r, file=sys.stderr)
        return 2

    paired = [(b, heads[key(b)]) for b in base if key(b) in heads]
    if not paired:
        print("compare: no (workload, trace, seed) appears in both files", file=sys.stderr)
        return 2
    if any(not r["correct"] for pair in paired for r in pair):
        print("compare: warning: some records are not correct; their numbers mean little", file=sys.stderr)

    print(f"{'workload':9} {'metric':28} {'n':>3} {'base':>12} {'head':>12} {'worse by':>9} {'wins':>5} {'spread':>7} {'bound':>6}  verdict")
    for workload in sorted({b["workload"] for b, _ in paired}):
        for trace in (0, 1):
            pairs = [(b, h) for b, h in paired if b["workload"] == workload and b["trace"] == trace]
            if not pairs:
                continue
            for name in sorted(pairs[0][0]["metrics"]):
                meta = declared.get(name, {"better": "lower"})
                bv = [b["metrics"][name]["value"] for b, _ in pairs]
                hv = [h["metrics"][name]["value"] for _, h in pairs]
                bm, hm = statistics.median(bv), statistics.median(hv)
                if bm == 0:
                    continue
                worse = (hm - bm) / bm if meta["better"] == "lower" else (bm - hm) / bm
                sign = 1 if meta["better"] == "lower" else -1
                wins = sum(sign * (b - h) > 0 for b, h in zip(bv, hv)) / len(pairs)
                sp = spread(bv)
                bound = meta.get("bound")
                verdict = ""
                if bound is not None:
                    if sp > bound:
                        verdict = "unresolved"
                    elif worse > bound:
                        verdict = "WORSE"
                    elif -worse > max(sp, 0) and wins >= 0.9:
                        verdict = "BETTER"
                    else:
                        verdict = "within bound"
                print(f"{workload:9} {name:28} {len(pairs):3} {bm:12.5g} {hm:12.5g} {worse:+9.3f} {wins:5.2f} {sp:7.3f} "
                      f"{'' if bound is None else bound:>6}  {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
