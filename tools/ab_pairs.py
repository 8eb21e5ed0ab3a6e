#!/usr/bin/env python3
"""Runs alternating pairs of two built benchmark binaries and judges a claim.

Each pair runs the parent's and the change's `benchmark` binary once on the
same workload, seed and run length (`--workload W --seed S --seconds N
--trace 0`); even pairs run the parent first, odd pairs the change. Every
run's end-to-end metrics are printed as it finishes, then, per metric, each
side's median and quartiles, the pairs the change won (ties count for
neither side) and the verdict of the claim rule: the change wins at least
nine tenths of the pairs, and the medians differ, in the change's favour, by
more than the parent's interquartile range.

Metric names and directions are read from BENCHMARK.json at the repository
root. The script writes no file; each binary writes only under its own
cargo target directory.

Usage:
  python3 tools/ab_pairs.py --parent PARENT_BIN --change CHANGE_BIN \\
      --workload lammps.replay.tcp --seed 1 --seconds 24 --pairs 10
  python3 tools/ab_pairs.py --self-test
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

CONTRACT = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def end_to_end(contract=CONTRACT):
    """(name, better) for every end-to-end metric of the contract."""
    spec = json.loads(contract.read_text(encoding="utf-8"))
    return [(m["name"], m["better"]) for m in spec["end_to_end"]]


def quartiles(samples):
    """(q1, median, q3), interpolated between the sorted samples."""
    if len(samples) == 1:
        return samples[0], samples[0], samples[0]
    q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return q1, median, q3


def verdict(parent, change, better):
    """Judges one metric over paired samples (parent[i] ran with change[i]).

    Returns a dict with both sides' quartiles, the pairs the change won, and
    `gain`: whether the claim rule holds.
    """
    assert len(parent) == len(change) and parent, "one sample per side per pair"
    sign = 1 if better == "higher" else -1
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    pq = quartiles(parent)
    cq = quartiles(change)
    gap = sign * (cq[1] - pq[1])
    iqr = pq[2] - pq[0]
    return {
        "parent": pq,
        "change": cq,
        "wins": wins,
        "pairs": len(parent),
        "gap": gap,
        "parent_iqr": iqr,
        "gain": wins * 10 >= 9 * len(parent) and gap > iqr,
    }


def value(result, name):
    """One end-to-end metric of a run's result line."""
    return result["metrics"][name]["value"]


def run(binary, args):
    """One benchmark run: the result object its last stdout line carries."""
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0"]
    done = subprocess.run(cmd, capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if not lines:
        sys.exit(f"{binary} printed no result (exit {done.returncode}):\n{done.stderr}")
    return json.loads(lines[-1])


def report(metrics, parent, change):
    print()
    print(f"{'metric':<22} {'side':<7} {'q1':>10} {'median':>10} {'q3':>10}  wins  verdict")
    for name, better in metrics:
        v = verdict([value(r, name) for r in parent],
                    [value(r, name) for r in change], better)
        for side in ("parent", "change"):
            q1, median, q3 = v[side]
            tail = ""
            if side == "change":
                rule = "gain" if v["gain"] else "no claim"
                tail = (f"  {v['wins']}/{v['pairs']}  {rule} ({better} is better; "
                        f"gap {v['gap']:.4g} vs parent IQR {v['parent_iqr']:.4g})")
            print(f"{name:<22} {side:<7} {q1:>10.4g} {median:>10.4g} {q3:>10.4g}{tail}")
    for side, runs in (("parent", parent), ("change", change)):
        bad = [r for r in runs if not r.get("correct", False) or r.get("failed", 0)]
        if bad:
            print(f"{side}: {len(bad)} run(s) incorrect or with failed operations")


def self_test():
    metrics = dict(end_to_end())
    assert metrics["payload_mb_s"] == "higher", metrics
    assert metrics["step_latency_p50_ms"] == "lower", metrics
    parent = [840, 850, 830, 845, 860, 835, 842, 848, 838, 855]
    # Ten wins, a 70 MB/s gap against an 11 MB/s parent IQR.
    v = verdict(parent, [p + 70 for p in parent], "higher")
    assert v["wins"] == 10 and v["gain"], v
    # Nine wins out of ten still holds; eight does not.
    nine = [p + 70 for p in parent[:9]] + [parent[9] - 1]
    assert verdict(parent, nine, "higher")["gain"]
    eight = [p + 70 for p in parent[:8]] + [p - 1 for p in parent[8:]]
    assert not verdict(parent, eight, "higher")["gain"]
    # Ties count for neither side.
    tied = [p + 70 for p in parent[:9]] + [parent[9]]
    assert verdict(parent, tied, "higher")["wins"] == 9
    # Every pair won, but by less than the parent's own spread.
    v = verdict(parent, [p + 5 for p in parent], "higher")
    assert v["wins"] == 10 and not v["gain"], v
    # Direction: lower is better for latency, so a rise is no gain.
    p50 = [4.07, 4.10, 4.02, 4.05, 4.12, 4.00, 4.08, 4.06, 4.03, 4.09]
    assert verdict(p50, [x - 0.3 for x in p50], "lower")["gain"]
    assert not verdict(p50, [x + 0.3 for x in p50], "lower")["gain"]
    assert verdict(p50, [x + 0.3 for x in p50], "lower")["wins"] == 0
    # Quartiles interpolate: 1..5 gives 2, 3, 4.
    assert quartiles([5, 1, 4, 2, 3]) == (2, 3, 4)
    assert quartiles([7.0]) == (7.0, 7.0, 7.0)
    line = ('{"correct":true,"attempted":609,"failed":0,"metrics":{"payload_mb_s":'
            '{"value":895.78,"unit":"MB/s"}}}')
    assert value(json.loads(line), "payload_mb_s") == 895.78
    print("ab_pairs self-test: ok")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", help="the parent commit's built benchmark binary")
    ap.add_argument("--change", help="the change's built benchmark binary")
    ap.add_argument("--workload", default="lammps.replay.tcp")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=24)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        self_test()
        return
    if not (args.parent and args.change):
        ap.error("--parent and --change are required")
    metrics = end_to_end()
    print(f"{args.workload} seed {args.seed}, {args.seconds} s runs, {args.pairs} pairs")
    runs = {"parent": [], "change": []}
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            result = run(getattr(args, side), args)
            runs[side].append(result)
            shown = "  ".join(f"{n}={value(result, n):.4g}" for n, _ in metrics)
            print(f"pair {pair} {side:<6} {shown}  correct={result.get('correct')} "
                  f"failed={result.get('failed')}", flush=True)
    report(metrics, runs["parent"], runs["change"])


if __name__ == "__main__":
    main()
