#!/usr/bin/env python3
"""Runs the benchmark over several seeds and prints, per workload and
end-to-end metric, the median and the quartile spread as a share of the
median (the steadiness check BENCHMARK.json's bounds are set against).

    python3 e2ebench/spread.py --seeds 1-10 [--workloads a,b] [--seconds N]

Run from the repository root. Raw result lines go to stderr.
"""
import argparse
import json
import statistics
import subprocess
import sys


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", default="0")
    a = ap.parse_args()
    lo, _, hi = a.seeds.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for w in a.workloads.split(","):
        values = {}
        for s in seeds:
            cmd = bench["command"] + ["--workload", w, "--seed", str(s),
                                      "--seconds", str(a.seconds), "--trace", a.trace]
            out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            last = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else ""
            print(w, s, out.returncode, last, file=sys.stderr, flush=True)
            res = json.loads(last)
            if out.returncode != 0 or not res["correct"]:
                sys.exit(f"{w} seed {s}: run failed")
            for k, v in res["metrics"].items():
                values.setdefault(k, []).append(v["value"])
        for k, vs in values.items():
            med = statistics.median(vs)
            q = statistics.quantiles(vs, n=4) if len(vs) > 1 else [vs[0]] * 3
            spread = (q[2] - q[0]) / med if med else float("nan")
            b = bounds.get(k)
            flag = "" if b is None or spread < b / 3 else ("  <-- over bound/3" if spread <= b else "  <-- OVER BOUND")
            print(f"{w:22} {k:16} median {med:14.6f} spread {spread:7.4f}"
                  + (f" bound {b}" if b is not None else "") + flag, flush=True)


if __name__ == "__main__":
    main()
