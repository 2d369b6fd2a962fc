"""ncdigraph benchmark: one closed-loop client runs one workload and checks
every response against independent oracles.

    python3 perfbench/run.py --workload parse-warm --seed 1 --seconds 25 --trace 0

Run from the repository root; the package is imported from ./src.  The last
line of stdout is one JSON object with the keys correct, attempted, failed
and metrics: the end-to-end metrics with --trace 0, the per-layer metrics
with --trace 1.  The line before it, starting with "# info", records the
environment, sample counts, error rate and property shares.  See
perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
# The explore fixpoint of the program iterates over sets, so the hash seed
# is fixed to make the exact counters repeat.
HASH_SEED = "0"
# Set-up is timed in process and then again in fresh interpreters, at least
# SETUP_MIN and at most SETUP_MAX times, adding runs while the set-ups so
# far took under SETUP_BUDGET_S; the median is reported.
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 7, 10.0
# (family, n) cells of the exact chart-size grid; the unrestricted rows give
# the growth exponent.
CHART_GRID = (("", 3), ("", 4), ("", 5), ("", 6), ("out-tree", 5))


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("parse-warm", "parse-cold", "classify"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="time one set-up and print it (used internally)")
    return ap.parse_args(argv)


def import_program():
    """Import ncdigraph from ROOT/src and nowhere else."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import ncdigraph
    except ImportError as exc:
        sys.exit(f"cannot import ncdigraph from {src}: {exc}")
    if not os.path.abspath(ncdigraph.__file__).startswith(src + os.sep):
        sys.exit(f"ncdigraph was imported from {ncdigraph.__file__}, not {src}")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_loop(wl, start, seconds=None, count=None, tracer=None):
    """Closed loop from request index start, for `count` requests, or until
    `seconds` of request time have passed, the cycle is complete and at
    least wl.memory_requests requests have run.  `cycle_rps` holds the
    completed requests per second of request time of each whole cycle."""
    lat, failed, busy, i = [], 0, 0.0, start
    props: list = []
    rss = None
    cycle_rps, cycle_done, cycle_busy = [], 0, 0.0
    while True:
        done = i - start
        if done == wl.memory_requests:
            rss = peak_rss_mb()
        if done and i % len(wl.cycle) == 0:
            cycle_rps.append(cycle_done / cycle_busy)
            cycle_done, cycle_busy = 0, 0.0
        if count is not None:
            if done >= count:
                break
        elif (busy >= seconds and done >= wl.memory_requests
              and i % len(wl.cycle) == 0):
            break
        call, check = wl.request(i)
        if tracer is not None:
            tracer.request, tracer.active = i, True
        t0 = time.perf_counter()
        try:
            resp, error = call(), None
        except Exception as exc:  # any exception is a failed request
            resp, error = None, f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.active = False
        busy += dt
        cycle_busy += dt
        if error:
            problems, p = [error], None
        else:
            try:
                problems, p = check(resp)
            except Exception as exc:  # a malformed response
                problems, p = [f"check failed: {type(exc).__name__}: {exc}"], None
        if problems:
            failed += 1
            if failed <= 5:
                print(f"# {wl.name} request {i} failed: {'; '.join(problems)}",
                      file=sys.stderr)
        else:
            lat.append(dt)
            cycle_done += 1
            if p is not None:
                props.append(p)
        i += 1
    return {"latencies": lat, "failed": failed, "busy": busy,
            "attempted": i - start, "props": props, "peak_rss_mb": rss,
            "cycle_rps": cycle_rps}


def percentile(values, pct):
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def child_setup(args) -> float:
    """Set-up time of a fresh interpreter running this file."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    res = subprocess.run(cmd, capture_output=True, text=True, timeout=150,
                         check=True)
    return json.loads(res.stdout.strip().splitlines()[-1])["setup_s"]


def calibration() -> dict:
    """A fixed pure-Python loop, recorded to show machine speed; no metric
    is rescaled by it."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        acc = 0
        for k in range(300_000):
            acc += k * k % 7
        times.append(time.perf_counter() - t0)
    return {"min_s": min(times), "median_s": statistics.median(times),
            "max_s": max(times)}


def property_shares(props) -> dict:
    from ncdigraph.digraphs import ALL_PROPERTIES
    if not props:
        return {}
    return {p.value: round(sum(p in s for s in props) / len(props), 4)
            for p in ALL_PROPERTIES}


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(wl, res, setups) -> dict:
    lat = res["latencies"]
    return {
        "throughput_rps": metric(statistics.median(res["cycle_rps"]), "1/s"),
        "latency_p50_s": metric(statistics.median(lat), "s"),
        "latency_tail_s": metric(percentile(lat, wl.tail_pct), "s"),
        "setup_s": metric(statistics.median(setups), "s"),
        "peak_rss_mb": metric(res["peak_rss_mb"], "MB"),
    }


# per-layer metric -> (span name, scale, unit); medians per call
LAYER_SPANS = {
    "inference.build_s": ("inference.build", 1, "s"),
    "inference.parse_s": ("inference.parse", 1, "s"),
    "inference.count_s": ("inference.count", 1, "s"),
    "cfg.derivation_us": ("cfg.derivation", 1e6, "us"),
    "latent.encode_us": ("latent.encode", 1e6, "us"),
    "latent.parse_us": ("latent.parse", 1e6, "us"),
    "latent.scan_us": ("latent.scan", 1e6, "us"),
    "codec.encode_us": ("codec.encode", 1e6, "us"),
    "codec.decode_us": ("codec.decode", 1e6, "us"),
    "digraphs.check_us": ("digraphs.check", 1e6, "us"),
    "ontology.lattice_s": ("ontology.lattice", 1, "s"),
    "ontology.count_us": ("ontology.count", 1e6, "us"),
    "ontology.classify_us": ("ontology.classify", 1e6, "us"),
    "cli.run_s": ("cli.run", 1, "s"),
    "fileio.parse_weights_us": ("fileio.parse_weights", 1e6, "us"),
    "fileio.parse_lexicon_us": ("fileio.parse_lexicon", 1e6, "us"),
}


def chart_grid() -> dict:
    """Exact sizes of build_intersection_grammar over CHART_GRID."""
    from ncdigraph import inference
    from workloads import FAMILIES
    cells, items, prods = [], 0, 0
    for family, n in CHART_GRID:
        g = inference.build_intersection_grammar(n, FAMILIES[family])
        cells.append({"family": family or "none", "n": n,
                      "items": len(g.nonterminals),
                      "productions": len(g.productions)})
        items += len(g.nonterminals)
        prods += len(g.productions)
    pts = [(math.log(c["n"]), math.log(c["items"])) for c in cells
           if c["family"] == "none"]
    mx = statistics.fmean(x for x, _ in pts)
    my = statistics.fmean(y for _, y in pts)
    slope = (sum((x - mx) * (y - my) for x, y in pts)
             / sum((x - mx) ** 2 for x, _ in pts))
    return {"cells": cells, "items": items, "productions": prods,
            "exponent": slope}


def traced_run(args, workdir):
    """Per-layer metrics: a traced pass, an untraced pass over as many
    requests with the same slots, then probes for layers not called."""
    from tracing import Tracer, instrument
    from ncdigraph import digraphs
    import workloads

    tracer = Tracer()
    instrument(tracer)
    ctx = workloads.Context(args.seed, workdir, tracer)
    wl = workloads.WORKLOADS[args.workload](ctx)
    tracer.request = "setup"
    wl.setup()
    traced = run_loop(wl, 0, count=wl.trace_requests, tracer=tracer)
    tracer.restore()
    ctx.tracer = None
    plain = run_loop(wl, wl.trace_requests, count=wl.trace_requests)

    probe = Tracer()
    instrument(probe)
    pctx = workloads.Context(args.seed, workdir, probe)
    probes, probe_wls = [], []
    for cls in workloads.WORKLOADS.values():
        p = cls(pctx, small=True)
        probe_wls.append(p)
        probe.request, probe.active = f"probe-{p.name}-setup", True
        p.setup()
        probes.append(run_loop(p, 0, count=len(p.cycle), tracer=probe))
    probe.restore()

    grid = chart_grid()
    t0 = time.perf_counter()
    enumerated = sum(1 for _ in digraphs.enumerate_noncrossing_digraphs(5))
    enum_s = time.perf_counter() - t0

    metrics, sources = {}, {}
    for name, (span, scale, unit) in LAYER_SPANS.items():
        value, sources[name] = tracer.median(span), "workload"
        if value is None:
            value, sources[name] = probe.median(span), "probe"
        if value is None:
            raise RuntimeError(f"no {span} spans for {name}")
        metrics[name] = metric(value * scale, unit)
    metrics["inference.chart_items"] = metric(grid["items"], "count")
    metrics["inference.chart_productions"] = metric(grid["productions"], "count")
    metrics["inference.chart_exponent"] = metric(grid["exponent"], "1")
    metrics["cfg.product_steps"] = metric(tracer.counts["cfg.product_steps"], "count")
    metrics["latent.scanner_steps"] = metric(tracer.counts["latent.scanner_steps"], "count")
    metrics["digraphs.enumerate_per_s"] = metric(enumerated / enum_s, "1/s")
    overhead = (statistics.median(traced["latencies"])
                / statistics.median(plain["latencies"]) - 1) * 100
    metrics["trace.overhead_pct"] = metric(overhead, "%")

    runs = [traced, plain] + probes
    setups = [wl] + probe_wls
    failed = (sum(r["failed"] for r in runs) + sum(w.setup_failed for w in setups)
              + (enumerated != 62464))
    attempted = (sum(r["attempted"] for r in runs)
                 + sum(w.setup_attempted for w in setups) + 1)
    info = {"sources": sources, "chart_grid": grid["cells"],
            "traced_requests": traced["attempted"],
            "untraced_requests": plain["attempted"],
            "property_shares": property_shares(traced["props"])}
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json")
    tracer.dump(path, {"workload": args.workload, "seed": args.seed,
                       "metrics": metrics, **info})
    info["trace_file"] = os.path.relpath(path, ROOT)
    return metrics, attempted, failed, info


def main():
    args = parse_args(sys.argv[1:])
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable,
                  [sys.executable, os.path.abspath(__file__)] + sys.argv[1:], env)
    t0 = time.perf_counter()  # set-up: importing the program, inputs, automata
    import_program()
    import workloads

    workdir = os.path.join(OUT, f"tmp-{os.getpid()}")
    try:
        if args.trace:
            metrics, attempted, failed, info = traced_run(args, workdir)
        else:
            ctx = workloads.Context(args.seed, workdir)
            wl = workloads.WORKLOADS[args.workload](ctx)
            wl.setup()
            setup_s = time.perf_counter() - t0
            if args.setup_only:
                print(json.dumps({"setup_s": setup_s}))
                return 0
            setups = [setup_s]
            while len(setups) < SETUP_MIN or (len(setups) < SETUP_MAX
                                              and sum(setups) < SETUP_BUDGET_S):
                setups.append(child_setup(args))
            res = run_loop(wl, 0, seconds=args.seconds)
            metrics = end_to_end(wl, res, setups)
            attempted = res["attempted"] + wl.setup_attempted
            failed = res["failed"] + wl.setup_failed
            lat = res["latencies"]
            info = {"samples": len(lat), "cycles": len(res["cycle_rps"]),
                    "tail_percentile": wl.tail_pct,
                    "percentiles_s": {q: percentile(lat, q) for q in (50, 75, 90, 95, 99)},
                    "samples_beyond_tail": sum(x > metrics["latency_tail_s"]["value"]
                                               for x in lat),
                    "setup_runs_s": setups,
                    "property_shares": property_shares(res["props"])}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    info["error_rate"] = failed / attempted
    info["env"] = {"python": platform.python_version(), "nproc": os.cpu_count(),
                   "hash_seed": HASH_SEED, "calibration": calibration()}
    print("# info " + json.dumps(info))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
