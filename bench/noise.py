#!/usr/bin/env python3
"""Noise characterisation of the benchmark: NOISE.md is this script's output.

Runs the command of BENCHMARK.json once per workload and seed, the workloads
interleaved within every round so that each workload's runs are spread over
the whole session and see the machine's slow and fast periods alike. Odd
rounds form set A and even rounds set B: two interleaved sets of runs of one
commit, which must agree within the benchmark's own bounds.

    python3 bench/noise.py --rounds 10 > bench/NOISE.md

The spread of a metric is the distance between the first and third quartile
of its values over all rounds (statistics.quantiles, n=4) as a share of
their median -- the same figure the driver computes. For the calibrated
metrics the table also gives the spread of the raw readings the program
prints beside them, i.e. what the calibration buys.
"""
import argparse
import json
import re
import statistics
import subprocess
import sys
import time


def run(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(args, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(args)}: exit {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect output: {result}")
    raw = {}
    for line in lines:
        m = re.match(r"\S+\s+(\S+)\s+\S+ \S+\s+\(raw (\S+)\)$", line)
        if m:
            raw[m[1]] = float(m[2])
    return {name: m["value"] for name, m in result["metrics"].items()}, raw


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--rounds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--raw", default=None, help="also write every run's metrics to this JSON file")
    ap.add_argument("--replay", default=None, help="render the table from a --raw file instead of running (after a change of bounds)")
    opt = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]
    values = {w: {m["name"]: [] for m in metrics} for w in workloads}
    raws = {w: {m["name"]: [] for m in metrics} for w in workloads}
    started = time.time()
    if opt.replay:
        saved = json.load(open(opt.replay))
        values, raws = saved["reported"], saved["raw"]
        opt.rounds = len(values[workloads[0]]["op_p50_ms"])
    for rnd in range(0 if opt.replay else opt.rounds):
        for w in workloads:
            got, raw = run(bench["command"], w, opt.first_seed + rnd, bench["run_seconds"])
            for m in metrics:
                values[w][m["name"]].append(got[m["name"]])
                if m["name"] in raw:
                    raws[w][m["name"]].append(raw[m["name"]])
            print(f"round {rnd + 1}/{opt.rounds} {w}: op_p50_ms {got['op_p50_ms']:.3f}", file=sys.stderr)
    if opt.raw:
        json.dump({"reported": values, "raw": raws}, open(opt.raw, "w"), indent=1)

    took = "" if opt.replay else f", {time.time() - started:.0f} s in all"
    print(f"Rounds: {opt.rounds}, seeds {opt.first_seed}..{opt.first_seed + opt.rounds - 1}, "
          f"{bench['run_seconds']} s per run{took}. Set A is the odd rounds, set B the even ones.\n")
    print("| workload | metric | A median [q1, q3] | B median [q1, q3] | B vs A | spread | raw spread | bound | verdict |")
    print("|---|---|---|---|---|---|---|---|---|")
    worst = 0
    for w in workloads:
        for m in metrics:
            v = values[w][m["name"]]
            a, b = v[0::2], v[1::2]
            (a1, a2, a3), (b1, b2, b3) = quartiles(a), quartiles(b)
            q1, med, q3 = quartiles(v)
            spread = (q3 - q1) / med if med else 0.0
            drift = (b2 - a2) / a2 if a2 else 0.0
            worse = drift if m["better"] == "lower" else -drift
            bound = m["bound"]
            r = raws[w][m["name"]]
            raw_spread = "" if len(r) != len(v) else f"{100 * (quartiles(r)[2] - quartiles(r)[0]) / quartiles(r)[1]:.2f} %"
            if worse > bound:
                verdict = "SETS DISAGREE"
            elif m["name"] != "setup_s" and spread > bound:
                verdict = "SPREAD OVER BOUND"
            elif m["name"] != "setup_s" and spread > bound / 3:
                verdict = "ok (spread over a third of the bound)"
            else:
                verdict = "ok"
            worst = max(worst, 0 if verdict.startswith("ok") else 1)
            print(f"| {w} | {m['name']} | {a2:.6g} [{a1:.6g}, {a3:.6g}] | {b2:.6g} [{b1:.6g}, {b3:.6g}] | "
                  f"{100 * drift:+.2f} % | {100 * spread:.2f} % | {raw_spread} | {100 * bound:g} % | {verdict} |")
    sys.exit(worst)


if __name__ == "__main__":
    main()
