"""archpursuit benchmark: one seeded workload, end-to-end or per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload sweep-cell --seed 0 --seconds 25 --trace 0

It measures the package under ``src/`` of the same checkout, prints every
metric by name and unit, and ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 1`` the
metrics are the per-layer ones from a traced run.  See perfbench/README.md.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent

# (ARCHPURSUIT_THREADS, OPENBLAS_NUM_THREADS) per workload: trial threads for
# the trial-parallel experiments, BLAS threads for the large gemm of diagnose,
# with a product of at most 2 so that they fit on a 2-core machine.  The NNLS
# of factorize works on 250 x 20 blocks, where a second BLAS thread measured
# slower.  They must be set before numpy is imported.
THREADS = {
    "sweep-cell": (2, 1),
    "factorize-tall": (1, 1),
    "glasso-noise-cell": (2, 1),
    "diagnose": (1, 2),
}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(THREADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds positive")
    return args


def report(record: dict) -> str:
    """Human-readable lines, then the JSON result line."""
    lines = [
        f"# workload {record['workload']} seed {record['seed']} "
        f"seconds {record['seconds']} trace {record['trace']}",
        "# environment " + json.dumps(record["environment"], sort_keys=True),
    ]
    for name, m in record["metrics"].items():
        note = ""
        if name == "op_tail_s":
            t = record["tail"]
            note = f"  (p{t['percentile']:.1f} of {t['samples']} ops, {t['beyond']} beyond)"
        elif name == "throughput_per_s":
            note = f"  ({record['work_unit']} per second)"
        elif name in record.get("filled_from", {}):
            note = f"  (measured on {record['filled_from'][name]})"
        lines.append(f"{name} {m['value']!r} {m['unit']}{note}")
    if not record["trace"]:
        lines.append(
            f"error_ratio {record['error_ratio']!r} 1  "
            f"({record['failed']} failed of {record['attempted']} ops)"
        )
    else:
        acc = record["accounting"]
        lines.append(
            f"# self times / op time over {acc['ops']} traced ops: "
            f"{acc['min_ratio']:.6f} .. {acc['max_ratio']:.6f}"
        )
        lines.append(f"# trace written to {record['trace_file']}")
    for name in record["missing"]:
        lines.append(f"{name} missing (layer recorded no span)")
    result = {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }
    lines.append(json.dumps(result))
    return "\n".join(lines)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "archpursuit" / "__init__.py").is_file():
        print(f"error: no archpursuit sources under {src}", file=sys.stderr)
        return 2
    trial_threads, blas_threads = THREADS[args.workload]
    threads = {
        "ARCHPURSUIT_THREADS": str(trial_threads),
        "OPENBLAS_NUM_THREADS": str(blas_threads),
    }
    os.environ.update(threads)
    sys.path.insert(0, str(src))

    import archpursuit
    import harness

    if Path(archpursuit.__file__).resolve().parent != (src / "archpursuit").resolve():
        print(f"error: archpursuit imported from {archpursuit.__file__}", file=sys.stderr)
        return 2
    record = harness.run(
        args.workload, args.seed, args.seconds, bool(args.trace), T_START, threads
    )
    print(report(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
