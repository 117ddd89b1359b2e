#!/usr/bin/env python3
"""Steadiness tooling for the e2ebench benchmark.

Run a set of benchmark runs (one per seed) and record each run's JSON
result, then summarize one or two sets: per workload and end-to-end
metric, the median, quartiles and spread (interquartile range as a
share of the median, as `statistics.quantiles(values, n=4)` gives the
quartiles), checked against the metric's bound in BENCHMARK.json. With
two sets it also says whether their medians agree within the bounds
(the two medians may differ by at most the bound, either way). Runs
whose output checks failed are kept, with the failed checks named, and
counted in the summary.

    python3 e2ebench/steady.py run --workload serve_cycle_mixed \
        --seeds 1-10 --out set-a.jsonl
    python3 e2ebench/steady.py summary set-a.jsonl [set-b.jsonl]

Run it from the repository root (where BENCHMARK.json is). `summary`
exits 1 when a spread exceeds its bound, two sets disagree, or a run
failed a check.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys


def load_benchmark():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run(args):
    bench = load_benchmark()
    seconds = args.seconds or bench["run_seconds"]
    with open(args.out, "a") as out:
        for seed in parse_seeds(args.seeds):
            cmd = bench["command"] + [
                "--workload", args.workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(args.trace),
            ]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
                sys.exit(f"seed {seed}: exit {proc.returncode} without a result")
            checks = [[m.group(1), m.group(2) == "ok", m.group(3)] for m in
                      (re.match(r"  (\S.*?) +(ok|FAIL) +(.*)$", line) for line in lines) if m]
            failed_checks = [f"{name}: {detail}" for name, ok, detail in checks if not ok]
            # Host-scaled metrics print their unscaled median as "(raw <value>".
            raw = {m.group(1): float(m.group(2)) for m in
                   (re.match(r"  (\S+) .*\(raw ([0-9.eE+-]+)", line) for line in lines) if m}
            out.write(json.dumps({"workload": args.workload, "seed": seed,
                                  "trace": args.trace, "exit": proc.returncode,
                                  "failed_checks": failed_checks, "checks": checks, "raw": raw,
                                  "result": result}) + "\n")
            out.flush()
            summary = ", ".join(f"{k}={v['value']:.6g}"
                                for k, v in result["metrics"].items())
            status = "" if proc.returncode == 0 else f" [exit {proc.returncode}: {'; '.join(failed_checks)}]"
            print(f"{args.workload} seed {seed}: {summary}{status}", flush=True)


def read_set(path):
    runs = {}
    with open(path) as f:
        for line in f:
            rec = json.loads(line)
            if rec.get("trace", 0):
                continue
            runs.setdefault(rec["workload"], []).append(rec)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def summary(args):
    bench = load_benchmark()
    metrics = bench["end_to_end"]
    sets = [read_set(p) for p in args.sets]
    ok = True
    for workload in sorted(set().union(*sets)):
        print(f"== {workload}")
        for i, runs in enumerate(sets):
            bad = [r for r in runs.get(workload, []) if not r["result"]["correct"]]
            ok &= not bad
            print(f"  set{i + 1} {len(runs.get(workload, []))} runs, {len(bad)} failed a check")
            for r in bad:
                print(f"    seed {r['seed']}: {'; '.join(r.get('failed_checks', []))}")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            meds = []
            for i, runs in enumerate(sets):
                values = [r["result"]["metrics"][name]["value"]
                          for r in runs.get(workload, [])
                          if name in r["result"]["metrics"]]
                if not values:
                    continue
                q1, med, q3 = quartiles(values)
                spread = (q3 - q1) / med if med else float("inf")
                steady = spread <= bound
                ok &= steady
                meds.append(med)
                print(f"  set{i + 1} {name:<18} n={len(values):<3} median {med:<14.6g} "
                      f"q1 {q1:<14.6g} q3 {q3:<14.6g} spread {spread:7.2%} "
                      f"(bound {bound:.0%}, third {bound / 3:.2%}){'' if steady else '  UNSTEADY'}")
            if len(meds) == 2:
                change = (meds[1] - meds[0]) / meds[0]
                agree = abs(change) <= bound
                ok &= agree
                print(f"  {'':4} {name:<18} median change {change:+.2%} "
                      f"({'agree' if agree else 'DISAGREE'} within {bound:.0%})")
    sys.exit(0 if ok else 1)


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run", help="run one set of seeds for a workload")
    r.add_argument("--workload", required=True)
    r.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,5,8")
    r.add_argument("--out", required=True, help="JSON-lines file to append to")
    r.add_argument("--seconds", type=int, help="default: BENCHMARK.json run_seconds")
    r.add_argument("--trace", type=int, default=0, choices=[0, 1])
    r.set_defaults(func=run)
    s = sub.add_parser("summary", help="summarize one or two sets")
    s.add_argument("sets", nargs="+", help="one or two JSON-lines files")
    s.set_defaults(func=summary)
    args = parser.parse_args()
    if getattr(args, "sets", None) and len(args.sets) > 2:
        parser.error("summary takes one or two sets")
    args.func(args)


if __name__ == "__main__":
    main()
