#!/usr/bin/env python3
"""Repeat the benchmark over seeds and summarize the spread of the results.

    # ten runs of one workload, one result line per run
    python3 perfbench/stats.py run --workload batch_10x8 --seeds 1-10 --out base.jsonl

    # per metric: median, quartiles and spread (IQR / median) against the
    # bound in BENCHMARK.json
    python3 perfbench/stats.py spread base.jsonl

Run from the repository root. `run` appends to --out one JSON object per run:
{"workload", "seed", "trace", "exit", "result"} where result is the
benchmark's last stdout line.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
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


def cmd_run(args):
    spec = load_spec()
    seconds = args.seconds or spec["run_seconds"]
    with open(args.out, "a") as out:
        for seed in parse_seeds(args.seeds):
            cmd = spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                                     "--seconds", str(seconds), "--trace", str(args.trace)]
            done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=subprocess.DEVNULL, text=True, check=False)
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else None
            row = {"workload": args.workload, "seed": seed, "trace": args.trace,
                   "exit": done.returncode, "result": result}
            out.write(json.dumps(row) + "\n")
            out.flush()
            status = "ok" if done.returncode == 0 else "exit %d" % done.returncode
            print("%s seed %d: %s" % (args.workload, seed, status), file=sys.stderr)
    return 0


def load_rows(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def summarize(rows):
    """{workload: {metric: [values]}} over rows that produced a result."""
    out = {}
    for row in rows:
        if not row["result"]:
            continue
        per = out.setdefault(row["workload"], {})
        for name, m in row["result"]["metrics"].items():
            per.setdefault(name, []).append(m["value"])
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def cmd_spread(args):
    bounds = {m["name"]: m["bound"] for m in load_spec()["end_to_end"]}
    rows = load_rows(args.file)
    bad = [r for r in rows if r["exit"] != 0 or not r["result"] or not r["result"]["correct"]]
    print("runs %d, failed or incorrect %d" % (len(rows), len(bad)))
    worst = 0.0
    for workload, metrics in summarize(rows).items():
        print(workload)
        for name, values in metrics.items():
            q1, q2, q3 = quartiles(values)
            spread = (q3 - q1) / q2 if q2 else float("nan")
            bound = bounds.get(name)
            note = ""
            if bound is not None:
                note = "bound %.2f, spread/bound %.2f" % (bound, spread / bound)
                worst = max(worst, spread / bound)
            print("  %-30s n=%2d median %-12.6g q1 %-12.6g q3 %-12.6g spread %.4f %s"
                  % (name, len(values), q2, q1, q3, spread, note))
    print("largest spread/bound: %.2f" % worst)
    return 1 if bad else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    run = sub.add_parser("run")
    run.add_argument("--workload", required=True)
    run.add_argument("--seeds", default="1-10")
    run.add_argument("--seconds", type=int, default=0,
                     help="default: run_seconds from BENCHMARK.json")
    run.add_argument("--trace", type=int, default=0)
    run.add_argument("--out", required=True)
    spread = sub.add_parser("spread")
    spread.add_argument("file")
    args = parser.parse_args()
    return {"run": cmd_run, "spread": cmd_spread}[args.cmd](args)


if __name__ == "__main__":
    sys.exit(main())
