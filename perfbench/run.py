"""jetvar benchmark.

One workload, one process:

    python3 perfbench/run.py --workload symbolic --seed 1 --seconds 30 --trace 0

prints a readable report and, as its last line, one JSON object with the
keys correct, attempted, failed and metrics.  --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones.  Every workload at once,
each in its own fresh process:

    python3 perfbench/run.py --all --seed 1 [--seconds 30] [--trace 0|1]

Run from the root of a jetvar checkout; the library is imported from src/.
Results (and, for traced runs, the spans) go to perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

# One client, no threads: keep BLAS (used by numpy's Gauss nodes) serial too.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

WORKLOADS = ("symbolic", "oracle-bind", "cli")
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--all", action="store_true",
                   help="run every workload, each in a fresh process")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not args.all and args.workload is None:
        p.error("give --workload NAME or --all")
    return args


def run_all(args) -> int:
    rows = []
    code = 0
    for name in WORKLOADS:
        argv = [sys.executable, str(HERE / "run.py"), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        sys.stdout.write("\n".join(lines[:-1]) + "\n\n")
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}", file=sys.stderr)
            code = 1
            continue
        rows.append((name, json.loads(lines[-1])))
    for name, res in rows:
        print(f"== {name}: correct={res['correct']} attempted={res['attempted']}"
              f" failed={res['failed']}")
        for metric, m in res["metrics"].items():
            print(f"   {metric:48s} {m['value']:<14.6g} {m['unit']}")
        rate = res["failed"] / res["attempted"]
        print(f"   {'error_rate':48s} {rate:<14.6g} ratio")
    return code


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "jetvar" / "__init__.py").is_file():
        print(f"error: no jetvar sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    if args.all:
        return run_all(args)

    from jvbench import harness
    wl = harness.build(args.workload, args.seed, ROOT)
    if args.setup_probe:
        print(f"ready {wl.digest}", flush=True)
        return 0
    return report(args, wl, harness)


def report(args, wl, harness) -> int:
    from jvbench.trace import Tracer

    if args.trace:
        tracer = Tracer()
        counters = harness.LayerCounters(tracer)
        out = harness.run_loop(wl, args.seconds, tracer, counters.hooks)
    else:
        tracer = None
        probe = harness.setup_probe(HERE / "run.py", wl, args.seed, ROOT)
        out = harness.run_loop(wl, args.seconds, probe=probe,
                               probes=harness.SETUP_REPEATS)
    harness.apply_reference(wl, out)

    failed = len(out.failures)
    error_rate = failed / out.attempted
    record = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "inputs_sha256": wl.digest,
              "environment": harness.environment(),
              "error_rate": {"value": error_rate, "unit": "ratio",
                             "sampling": f"{failed} failed of {out.attempted}"
                                         " attempted"},
              "failures": [{"op": wl.ops[i].name, "why": why}
                           for i, why in out.failures[:50]]}
    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}  "
          f"inputs sha256 {wl.digest}")
    env = record["environment"]
    print("environment " + "  ".join(f"{k}={v}" for k, v in env.items()))

    if args.trace:
        metrics = harness.layer_metrics(tracer, counters, out)
        metrics.update(harness.startup_metrics(ROOT))
        record["per_layer"] = {k: {"value": v, "unit": u}
                               for k, (v, u) in metrics.items()}
        record["traced_ops"] = len(out.traced_walls)
        for k, (v, u) in metrics.items():
            print(f"  {k:52s} {v:<14.6g} {u}")
    else:
        metrics, notes = harness.end_to_end(wl, out)
        record["end_to_end"] = {k: {"value": v, "unit": u,
                                    "sampling": notes[k]}
                                for k, (v, u) in metrics.items()}
        for k, (v, u) in metrics.items():
            print(f"  {k:18s} {v:<14.6g} {u:6s} ({notes[k]})")
    print(f"  {'error_rate':18s} {error_rate:<14.6g} {'ratio':6s} "
          f"({record['error_rate']['sampling']})")
    for f in record["failures"][:10]:
        print(f"  FAILED {f['op']}: {f['why']}")

    RESULTS.mkdir(exist_ok=True)
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    if tracer is not None:
        tracer.dump(str(RESULTS / f"{wl.name}-seed{args.seed}.spans.npz"))
    print(json.dumps({"correct": failed == 0, "attempted": out.attempted,
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
