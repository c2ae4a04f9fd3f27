"""Run every workload untraced and traced, and print every metric with its unit.

    python3 perfbench/report.py [--seed 1] [--seconds 10]

Prints one line per metric, ``<workload> <metric> <value> <unit>``, then
each workload's correctness, failure counts, tracing overhead and
dominant-layer checks. Exits 1 if any run was not correct. Takes about five
minutes on 2 cores.
"""

from __future__ import annotations

import argparse
import sys

import run
from workloads import WORKLOADS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    args = parser.parse_args(argv)
    ok = True
    for workload in WORKLOADS:
        for trace in (False, True):
            final, record = run.run(workload, args.seed, args.seconds, trace)
            for name, metric in final["metrics"].items():
                print(f"{workload} {name} {metric['value']:.6g} {metric['unit']}")
            print(f"{workload} trace={int(trace)} correct={final['correct']} "
                  f"attempted={final['attempted']} failed={final['failed']} "
                  f"errors={record['errors']}")
            if trace and "dominant_layer" in record:
                print(f"{workload} tracing_overhead_s={record['tracing_overhead_s']:.3f}")
                for claim, holds in record["dominant_layer"].items():
                    print(f"{workload} dominant layer: {claim}: {holds}")
            ok = ok and final["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
