#!/usr/bin/env python3
"""Per-layer self time from a traced run's spans.

  benchmark/run.sh --workload andersen_interp --trace 1
  python3 benchmark/selftime.py .bench_build/traces/andersen_interp-seed1.json

A span's self time is its duration minus the part of it its child spans
cover. Client spans of the serve workload (client.*) overlap one another
and have no parent; they are listed with their total only.
"""

import collections
import json
import sys


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    with open(sys.argv[1]) as f:
        spans = json.load(f)
    child_time = collections.defaultdict(float)
    for s in spans:
        if s["parent"] >= 0:
            child_time[s["parent"]] += s["end_us"] - s["start_us"]
    rows = collections.defaultdict(lambda: [0, 0.0, 0.0])
    for s in spans:
        duration = s["end_us"] - s["start_us"]
        row = rows[s["name"]]
        row[0] += 1
        row[1] += duration
        row[2] += duration - child_time[s["id"]]
    print("%-34s %8s %12s %12s" % ("span", "count", "total ms", "self ms"))
    for name, (count, total, self_us) in sorted(
            rows.items(), key=lambda kv: -kv[1][2]):
        print("%-34s %8d %12.3f %12.3f" % (name, count, total / 1e3,
                                           self_us / 1e3))


if __name__ == "__main__":
    main()
