#!/usr/bin/env python3
"""Steadiness check for the benchmark.

Runs every workload RUNS times, each with another seed, and reports for
each (workload, end-to-end metric) the median, the quartiles and the
spread (interquartile distance over the median, as
statistics.quantiles(values, n=4) gives the quartiles), next to the
metric's bound from BENCHMARK.json. It also reports the host-phase
probes each run prints in its provenance line (host.*: steal ticks over
the run, the IPC floor and the compute probe), which have no bound.

    python3 perfbench/steadiness.py [--runs 10] [--seed-base 1000]
        [--workloads a,b] [--trace 0|1] [--out FILE]
    python3 perfbench/steadiness.py --compare FIRST.json SECOND.json

Run from the repository root. Exits 1 if a run fails or reports failed
operations, or if a spread exceeds its metric's bound. With --compare it
prints, for two reports of the same code, how far each median moved, and
exits 1 if any moved by more than its bound in either direction.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds, trace):
    """The result object and the host-phase probes of one run."""
    args = command + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    out = subprocess.run(args, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
    lines = out.stdout.strip().splitlines()
    phase = {}
    for line in lines:
        if line.startswith("# provenance "):
            p = json.loads(line[len("# provenance "):]).get("host_phase", {})
            phase = {
                "host.steal_ticks": p.get("steal_ticks"),
                "host.ipc_us": sum(p["ipc_us"]) / 2 if "ipc_us" in p else None,
                "host.compute_us": sum(p["compute_us"]) / 2 if "compute_us" in p else None,
            }
    return json.loads(lines[-1]), phase


def compare(first_path, second_path):
    """Median shifts between two reports of the same code, both ways."""
    with open(first_path) as f:
        first = json.load(f)
    with open(second_path) as f:
        second = json.load(f)
    bad = False
    for w, rows in first["workloads"].items():
        for name, a in rows.items():
            b = second["workloads"].get(w, {}).get(name)
            if b is None or a.get("bound") is None:
                continue
            up = b["median"] / a["median"] - 1
            down = a["median"] / b["median"] - 1
            flag = ""
            if max(up, down) > a["bound"]:
                flag = "  MOVED MORE THAN BOUND"
                bad = True
            print(f"{w:<13} {name:<22} first {a['median']:14.3f}  second {b['median']:14.3f}"
                  f"  second/first {up:+.3f}  first/second {down:+.3f}  bound {a['bound']:.2f}{flag}")
    return bad


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed-base", type=int, default=1000)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out", default="")
    ap.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = ap.parse_args()
    if args.compare:
        sys.exit(1 if compare(*args.compare) else 0)

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        workloads = args.workloads.split(",")

    report = {
        "runs": args.runs, "seconds": bench["run_seconds"], "seed_base": args.seed_base,
        "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()), "workloads": {},
    }
    bad = False
    for w in workloads:
        values = {}
        for i in range(args.runs):
            seed = args.seed_base + i
            t0 = time.monotonic()
            res, phase = run_once(bench["command"], w, seed, bench["run_seconds"], args.trace)
            wall = time.monotonic() - t0
            if not res["correct"] or res["failed"]:
                print(f"{w} seed {seed}: {res['failed']} failed operations", file=sys.stderr)
                bad = True
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            for name, v in phase.items():
                values.setdefault(name, []).append(v)
            values.setdefault("wall_s", []).append(wall)
            print(f"{w} seed {seed} done in {wall:.1f} s", file=sys.stderr, flush=True)
        rows = {}
        for name, vals in values.items():
            vals = [v for v in vals if v is not None]
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name)
            rows[name] = {
                "median": med, "q1": q1, "q3": q3, "spread": spread,
                "bound": bound, "values": vals,
            }
            flag = ""
            if bound is not None:
                if spread > bound:
                    flag = "  OVER BOUND"
                    bad = True
                elif spread > bound / 3:
                    flag = "  over a third of bound"
            b = "-" if bound is None else f"{bound:.2f}"
            print(f"{w:<13} {name:<22} median {med:14.3f}  q1 {q1:14.3f}  q3 {q3:14.3f}"
                  f"  spread {spread:6.3f}  bound {b}{flag}")
        report["workloads"][w] = rows
        report["finished"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
        if args.out:
            with open(args.out, "w") as f:
                json.dump(report, f, indent=1, sort_keys=True)
                f.write("\n")
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
