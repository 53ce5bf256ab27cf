#!/usr/bin/env python3
"""Check that two bench snapshots hold the same records.

Usage: scripts/compare_records.py OLD.json NEW.json

Either snapshot may be schema carac-bench/v8 (one "records" array) or v7
(six per-bench sections, mapped here onto v8 records). Records are
matched in order within each bench. Field names must be identical, and
so must every value except the timings below. Exits 1 on any mismatch.
"""
import json
import sys

# v7 section -> (bench, record word of the v8 records it became).
SECTIONS = {
    "parallel_scaling": ("bench_parallel_scaling", "scaling"),
    "incremental": ("bench_incremental", "incremental"),
    "persistence": ("bench_persistence", "persistence"),
    "index": ("bench_index_micro", "index"),
    "adaptive": ("bench_adaptive_convergence", None),  # v7 had "record".
    "range": ("bench_range_pushdown", "range"),
}
# Measured times and everything derived from them, including which kind
# measured fastest.
TIMING = {
    "seconds", "speedup", "mprobes", "mrows", "full_seconds",
    "epoch_seconds", "write_s", "load_s", "full_s", "recover_s", "batch_s",
    "point_s", "on_s", "off_s", "steady_epoch", "adaptive_epoch",
    "best_epoch", "ratio", "adaptive", "rekind_overhead", "best",
    "full_ratio", "worst_steady_ratio", "best_kind", "best_static",
}


def records(path):
    with open(path) as f:
        snap = json.load(f)
    if "records" in snap:
        return snap["records"]
    out = []
    for section, (bench, word) in SECTIONS.items():
        for row in snap.get(section, []):
            head = {"bench": bench} if word is None else {
                "bench": bench, "record": word}
            out.append({**head, **row})
    return out


def by_bench(recs):
    grouped = {}
    for r in recs:
        grouped.setdefault(r["bench"], []).append(r)
    return grouped


def main():
    old, new = by_bench(records(sys.argv[1])), by_bench(records(sys.argv[2]))
    problems = []
    for bench in sorted(set(old) | set(new)):
        a, b = old.get(bench, []), new.get(bench, [])
        print("%-28s old %3d  new %3d" % (bench, len(a), len(b)))
        if len(a) != len(b):
            problems.append("%s: %d vs %d records" % (bench, len(a), len(b)))
        for i, (x, y) in enumerate(zip(a, b)):
            if list(x) != list(y):
                problems.append("%s[%d]: fields %s vs %s" %
                                (bench, i, list(x), list(y)))
                continue
            for key in x:
                if key not in TIMING and x[key] != y[key]:
                    problems.append("%s[%d].%s: %r vs %r" %
                                    (bench, i, key, x[key], y[key]))
    total = sum(len(v) for v in new.values())
    print("total new records: %d" % total)
    for p in problems:
        print("MISMATCH " + p)
    print("identical" if not problems else "%d mismatches" % len(problems))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
