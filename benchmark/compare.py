#!/usr/bin/env python3
"""Repeat and A/B statistics for the repository benchmark.

Both modes judge every end-to-end metric against its own "bound" and
"better" in BENCHMARK.json, per workload:

  repeat  K full sets of runs of one build (each set: every workload at
          every seed). Reports each set's median and quartiles and fails
          when a set's median is worse than the first set's by more than
          the bound. `benchmark/run.sh --repeat K` calls this.
  ab      N pairs of runs of an old and a new build, alternating which
          side runs first. Reports each side's median and quartiles and
          the share of pairs the new side wins. A metric is "unresolved"
          when the old side's interquartile range exceeds its bound.
          `benchmark/ab.sh OLD_BUILD_DIR` calls this.

Only the standard library is used.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# The seed a change is developed against (README.md names the held-out
# seed its claim must also hold on).
DEV_SEED = 1
# Fewer pairs than this never support a "gain" verdict.
MIN_PAIRS = 10


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec, {m["name"]: m for m in spec["end_to_end"]}


def run_once(bench, work_root, workload, seed, seconds):
    """One untraced run of a carac_bench binary; its metric values."""
    cmd = [bench, "--work-root", work_root, "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    if proc.returncode != 0 or result is None or not result["correct"] \
            or result["failed"] != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit("run failed: %s seed %d (exit %d)"
                         % (workload, seed, proc.returncode))
    return {k: v["value"] for k, v in result["metrics"].items()}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else 0.0


def worse_by(old, new, better):
    """Share by which `new` is worse than `old` (negative: better)."""
    if old == 0:
        return 0.0
    return (new - old) / old if better == "lower" else (old - new) / old


def cmd_repeat(args):
    spec, metrics = load_spec()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seeds = [int(s) for s in args.seeds.split(",")]
    sets = []
    for k in range(args.sets):
        runs = {w: [] for w in workloads}
        for w in workloads:
            for seed in seeds:
                runs[w].append(run_once(args.bench, args.work_root, w, seed,
                                        spec["run_seconds"]))
                print("set %d %s seed %d done" % (k + 1, w, seed),
                      file=sys.stderr)
        sets.append(runs)
    raw = os.path.join(args.work_root, "repeat-%d.json" % int(time.time()))
    with open(os.path.join(ROOT, raw), "w") as f:
        json.dump({"seeds": seeds, "sets": sets}, f)
    print("raw results: %s" % raw, file=sys.stderr)

    ok = True
    for w in workloads:
        print("\n%s (%d seeds per set)" % (w, len(seeds)))
        print("  %-16s %8s %12s %12s  %-16s %s" % (
            "metric", "bound", "set1 median", "setK median", "spread per set",
            "verdict"))
        for name, m in metrics.items():
            base = [r[name] for r in sets[0][w]]
            b_med = statistics.median(base)
            worst = 0.0
            for other in sets[1:]:
                vals = [r[name] for r in other[w]]
                worst = max(worst, worse_by(b_med, statistics.median(vals),
                                            m["better"]))
            spreads = [spread([r[name] for r in s[w]]) for s in sets]
            verdict = "ok"
            if worst > m["bound"]:
                verdict = "REPEAT WORSE THAN BOUND"
                ok = False
            elif name != "setup_s" and max(spreads) > m["bound"]:
                verdict = "SPREAD OVER BOUND"
                ok = False
            last = statistics.median([r[name] for r in sets[-1][w]])
            print("  %-16s %8.3f %12.6g %12.6g  %-16s %s" % (
                name, m["bound"], b_med, last,
                "/".join("%.3f" % s for s in spreads), verdict))
    return 0 if ok else 1


def cmd_ab(args):
    spec, metrics = load_spec()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    old_bench = os.path.join(os.path.abspath(args.old_build), "carac_bench")
    if not os.access(old_bench, os.X_OK):
        raise SystemExit("no carac_bench in %s" % args.old_build)
    ok = True
    for w in workloads:
        old, new = [], []
        for i in range(args.pairs):
            seed = args.seed + i
            order = [("old", old_bench), ("new", args.bench)]
            if i % 2:
                order.reverse()
            for side, bench in order:
                result = run_once(bench, args.work_root, w, seed,
                                  spec["run_seconds"])
                (old if side == "old" else new).append(result)
            print("%s pair %d done" % (w, i + 1), file=sys.stderr)
        print("\n%s (%d pairs)" % (w, args.pairs))
        print("  %-16s %-30s %-30s %6s  %s" % (
            "metric", "old q1/median/q3", "new q1/median/q3", "wins",
            "verdict"))
        for name, m in metrics.items():
            o = [r[name] for r in old]
            n = [r[name] for r in new]
            oq, nq = quartiles(o), quartiles(n)
            sign = 1 if m["better"] == "lower" else -1
            # Ties count for neither side, but still count as pairs run.
            wins = sum(1 for a, b in zip(o, n) if sign * (b - a) < 0)
            share = wins / len(o)
            old_spread = spread(o)
            worse = worse_by(oq[1], nq[1], m["better"])
            if old_spread > m["bound"]:
                all_better = all(sign * (b - a) < 0 for a in o for b in n)
                verdict = "better in every run" if all_better else "unresolved"
            elif worse > m["bound"]:
                verdict = "REGRESSION"
                ok = False
            elif (len(o) >= MIN_PAIRS and share >= 0.9 and
                  abs(nq[1] - oq[1]) > (oq[2] - oq[0])):
                verdict = "gain"
            else:
                verdict = "parity"
            fmt = lambda q: "%.4g/%.4g/%.4g" % q
            print("  %-16s %-30s %-30s %5.0f%%  %s" % (
                name, fmt(oq), fmt(nq), 100 * share, verdict))
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    sub = p.add_subparsers(dest="mode", required=True)
    for name in ("repeat", "ab"):
        s = sub.add_parser(name)
        s.add_argument("--bench", required=True,
                       help="the carac_bench binary to measure")
        s.add_argument("--work-root", default=".bench_build")
        s.add_argument("--workload", action="append")
    rep = sub.choices["repeat"]
    rep.add_argument("--sets", type=int, default=2)
    rep.add_argument("--seeds", default=",".join(
        str(DEV_SEED + i) for i in range(5)))
    ab = sub.choices["ab"]
    ab.add_argument("old_build")
    ab.add_argument("--pairs", type=int, default=10)
    ab.add_argument("--seed", type=int, default=DEV_SEED)
    args = p.parse_args()
    return cmd_repeat(args) if args.mode == "repeat" else cmd_ab(args)


if __name__ == "__main__":
    sys.exit(main())
