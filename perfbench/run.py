"""Wall-clock benchmark of the LibRTS reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload batch-skew --seed 1 --seconds 20 --trace 0

Workloads: ``batch-skew`` (direct index batches on skewed data),
``serve-read`` (open-loop read serving, alternating with saturation) and
``serve-churn`` (open-loop reads beside writes on the churn index,
alternating with saturation). ``--trace 0`` measures the end-to-end metrics with tracing
off; ``--trace 1`` additionally runs a traced pass and reports the
per-layer metrics instead, writing the span forest to
``perfbench/out/<workload>-seed<seed>/trace.json``. Every answer is
checked against a brute-force oracle. The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
See ``perfbench/NOTES.md`` for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("batch-skew", "serve-read", "serve-churn")


def _import_repro() -> None:
    """Import the library from this checkout's ``src`` only."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no library source at {src}/repro")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {src}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    _import_repro()

    from common import END_TO_END, PER_LAYER

    if args.workload == "batch-skew":
        import batch as workload
    else:
        import serving as workload
    out_dir = HERE / "out" / f"{args.workload}-seed{args.seed}"
    outcome = workload.run(args.workload, args.seed, args.seconds, bool(args.trace), out_dir)

    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"attempted={outcome.attempted} failed={outcome.failed} correct={outcome.correct}")
    for name, (value, unit) in {**outcome.e2e, **outcome.report}.items():
        print(f"{name:>24} {value:14.6g} {unit}")
    if args.trace:
        layers = {name: outcome.layers.get(name, 0.0) for name in PER_LAYER}
        for name, value in layers.items():
            print(f"{name:>24} {value:14.6g} {PER_LAYER[name]}")
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER.items()}
    else:
        metrics = {
            name: {"value": outcome.e2e[name][0], "unit": unit}
            for name, unit in END_TO_END.items()
        }
    bad = [n for n, m in metrics.items() if not math.isfinite(m["value"])]
    if bad:
        print(f"perfbench: non-finite metrics {bad}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": bool(outcome.correct),
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
