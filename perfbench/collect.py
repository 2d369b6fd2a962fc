"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/collect.py --seeds 1-10 --out perfbench/results/seed.json
    python3 perfbench/collect.py --seeds 1,1,2,2 --trace 1 --out trace.json

Runs go one at a time, seed by seed, cycling through the workloads. For each
workload and metric the summary gives the median, the quartiles (by
statistics.quantiles(values, n=4)) and the spread (q3 - q1) / median. With
--trace 1, runs of the same seed must report identical exact counters.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("parse-warm", "classify")  # those BENCHMARK.json runs
EXACT = ("inference.chart_items", "inference.chart_productions",
         "cfg.product_steps", "latent.scanner_steps")


def seed_list(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "values": values}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", default="35")
    ap.add_argument("--trace", default="0", choices=("0", "1"))
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    names = args.workloads.split(",")
    runs = {w: [] for w in names}
    for seed in seed_list(args.seeds):
        for w in names:
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
                   "--seed", str(seed), "--seconds", args.seconds,
                   "--trace", args.trace]
            res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                 timeout=600)
            lines = res.stdout.strip().splitlines()
            if res.returncode != 0 or not lines:
                sys.exit(f"{w} seed {seed} exited {res.returncode}: {res.stderr}")
            result = json.loads(lines[-1])
            info = json.loads(lines[-2][len("# info "):])
            runs[w].append({"seed": seed, "result": result, "info": info})
            print(w, seed, result["correct"], result["attempted"], result["failed"],
                  {k: round(v["value"], 5) for k, v in result["metrics"].items()},
                  flush=True)
    doc = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    for w, rs in runs.items():
        metrics = {k: summary([r["result"]["metrics"][k]["value"] for r in rs])
                   for k in rs[0]["result"]["metrics"]}
        entry = {"correct": all(r["result"]["correct"] for r in rs),
                 "failed": sum(r["result"]["failed"] for r in rs),
                 "metrics": metrics, "runs": rs}
        if args.trace == "1":
            by_seed: dict = {}
            for r in rs:
                counts = tuple(r["result"]["metrics"][k]["value"] for k in EXACT)
                by_seed.setdefault(r["seed"], set()).add(counts)
            entry["exact_counters_repeat"] = all(len(s) == 1 for s in by_seed.values())
        doc["workloads"][w] = entry
        for k, s in metrics.items():
            spread = "n/a" if s["spread"] is None else f"{s['spread']:.3f}"
            print(f"{w:10s} {k:28s} median {s['median']:.6g} spread {spread}")
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w", encoding="ascii") as fh:
        json.dump(doc, fh, indent=1)


if __name__ == "__main__":
    main()
