#!/usr/bin/env python3
"""Compare two sets of g80bench result files.

usage: python3 g80bench/compare.py BASE.json [BASE.json ...] -- NEW.json [...]

Each file is a result written by the benchmark into .bench_out/
(result-<workload>-seed<n>-trace<t>.json).  Both sets must hold one workload
and one trace mode.  The comparison is refused (exit 2) when any file's host
fingerprint -- nproc, CPU model, build type, compiler -- differs from the
others: numbers from different hosts or builds say nothing about the code.
git_describe names the code under test and is shown, not compared.

For every metric the script prints each side's median and the change.  For
end-to-end metrics it also applies the bound from BENCHMARK.json; exit code
1 means at least one metric got worse by more than its bound.
"""
import json
import os
import statistics
import sys

HOST_KEYS = ("nproc", "cpu_model", "build_type", "compiler")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(paths):
    return [json.load(open(p)) for p in paths]


def main(argv):
    if "--" not in argv:
        sys.exit(__doc__)
    cut = argv.index("--")
    base, new = load(argv[:cut]), load(argv[cut + 1:])
    if not base or not new:
        sys.exit(__doc__)
    everything = base + new
    hosts = {tuple(r["fingerprint"].get(k) for k in HOST_KEYS)
             for r in everything}
    if len(hosts) != 1:
        print("refusing to compare: host fingerprints differ:")
        for h in sorted(hosts, key=str):
            print("  " + ", ".join("%s=%s" % kv for kv in zip(HOST_KEYS, h)))
        return 2
    kinds = {(r["workload"], r["trace"]) for r in everything}
    if len(kinds) != 1:
        print("refusing to compare: mixed workloads or trace modes: %s"
              % sorted(kinds))
        return 2
    if any(not r["correct"] for r in everything):
        print("warning: some runs failed their output checks")

    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["per_layer"]}
    better.update({n: m["better"] for n, m in bounds.items()})

    print("code: base %s, new %s" % (
        sorted({r["fingerprint"]["git_describe"] for r in base}),
        sorted({r["fingerprint"]["git_describe"] for r in new})))
    worse_than_bound = False
    for name in base[0]["metrics"]:
        b = [r["metrics"][name]["value"] for r in base if name in r["metrics"]]
        n = [r["metrics"][name]["value"] for r in new if name in r["metrics"]]
        if not b or not n:
            continue
        mb, mn = statistics.median(b), statistics.median(n)
        change = (mn - mb) / mb if mb else 0.0
        worse = -change if better.get(name) == "higher" else change
        verdict = ""
        if name in bounds:
            verdict = "ok"
            if worse > bounds[name]["bound"]:
                verdict = "WORSE than bound %.2f" % bounds[name]["bound"]
                worse_than_bound = True
        print("%-34s %14.6g -> %14.6g %+8.2f%%  %s"
              % (name, mb, mn, 100 * change, verdict))
    return 1 if worse_than_bound else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
