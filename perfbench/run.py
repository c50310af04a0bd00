"""lossynet benchmark: one workload per call, printed as one JSON line.

    python3 perfbench/run.py --workload consensus-cli --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ``src``.
With ``--trace 0`` the run reports the end-to-end metrics: ``setup_s``
(median time to start a fresh interpreter and import lossynet) and the
median ``rounds_per_s`` and ``peak_rss_mb`` of fresh worker processes that
run the workload one after another, with operation times taken at the
reference host speed of ``hostspeed``.  With ``--trace 1`` an untraced and
a traced worker share the time, and the run reports the per-layer metrics
of the traced one and the tracing overhead.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import tracing  # noqa: E402

WORKLOADS = ("consensus-cli", "optimize-library", "matrix-audit")
WORKERS = 2
SETUP_SAMPLES = 5
# Seconds a worker may run past its share: its last operation and start-up.
WORKER_GRACE = 45


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    # Import from cached bytecode, as an installed package does, whatever
    # the caller's environment says.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.update(
        PYTHONPATH=str(root / "src"),
        PYTHONHASHSEED="0",
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def setup_samples(env: dict, count: int) -> list:
    """Wall times of ``count`` runs of ``python3 -c 'import lossynet'``.

    No timeout: with one, ``subprocess`` polls for the child's exit with
    sleeps of up to 50 ms, and the times snap to its polling grid.
    """
    cmd = [sys.executable, "-c", "import lossynet"]
    samples = []
    for _ in range(count):
        started = time.perf_counter()
        subprocess.run(cmd, env=env, check=True)
        samples.append(time.perf_counter() - started)
    return samples


def run_worker(env, workload, spec_path: Path, seconds: float, trace: int, result: Path,
               spans: Path | None = None) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--spec", str(spec_path), "--seconds", str(seconds), "--trace", str(trace),
           "--result", str(result)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    subprocess.run(cmd, env=env, check=True, timeout=seconds + WORKER_GRACE)
    return json.loads(result.read_text())


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "lossynet" / "__init__.py").is_file():
        print("run from the root of a lossynet checkout: src/lossynet is missing",
              file=sys.stderr)
        return 2
    env = child_env(root)
    out = HERE / "out"
    # A fixed path, so that the config paths echoed into summary.json, and
    # with them harness.bytes_written, repeat from run to run.
    work = out / f"{args.workload}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        spec = inputs.make(args.workload, args.seed, work)
        spec_path = work / "spec.json"
        spec_path.write_text(json.dumps(spec))
        if args.trace:
            half = args.seconds / 2
            plain = run_worker(env, args.workload, spec_path, half, 0, work / "plain.json")
            traced = run_worker(env, args.workload, spec_path, half, 1, work / "traced.json",
                                out / f"spans-{args.workload}-{args.seed}.json")
            reports = [plain, traced]
        else:
            # Set-up samples are spread before, between and after the
            # workers, so that a slow spell of the host weighs on few.
            setup_samples(env, 1)  # compiles the bytecode
            samples = setup_samples(env, SETUP_SAMPLES)
            reports = []
            for k in range(WORKERS):
                reports.append(run_worker(env, args.workload, spec_path,
                                          args.seconds / WORKERS, 0, work / f"worker{k}.json"))
                samples += setup_samples(env, SETUP_SAMPLES)
            setup = statistics.median(samples)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ops = [o for r in reports for o in r["ops"]]
    done = [o for o in ops if not o["failed"]]
    correct = bool(done) and not any(o["wrong"] for o in ops)
    if args.trace:
        timed = [m for m in traced["layers"] if not m["alloc"]]
        allocs = [m for m in traced["layers"] if m["alloc"]]
        # The self times of an operation add up to its traced duration.
        for m in timed:
            total = sum(v for k, v in m.items() if k.endswith("_s") and k != "op.traced_s")
            correct &= abs(total - m["op.traced_s"]) <= 1e-9 * m["op.traced_s"]
        metrics = {}
        for name in (*tracing.METRICS, "op.traced_s"):
            source = allocs if name.endswith(".peak_alloc_mb") else timed
            value = statistics.median(m[name] for m in source) if source else 0
            metrics[name] = metric(value, unit_of(name))
        untraced = [o["seconds"] * o["factor"] for o in plain["ops"] if not o["failed"]]
        overhead = 0.0
        if untraced and timed:
            overhead = 100.0 * (metrics["op.traced_s"]["value"] / statistics.median(untraced) - 1)
        metrics["trace.overhead_pct"] = metric(overhead, "%")
    else:
        rates = [o["rounds"] / (o["seconds"] * o["factor"]) for o in done]
        metrics = {
            "rounds_per_s": metric(statistics.median(rates) if rates else 0.0, "rounds/s"),
            "peak_rss_mb": metric(statistics.median(r["rss_mb"] for r in reports), "MB"),
            "setup_s": metric(setup, "s"),
        }
    print(json.dumps({"correct": correct, "attempted": len(ops),
                      "failed": len(ops) - len(done), "metrics": metrics}))
    return 0


def unit_of(name: str) -> str:
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("bytes_written"):
        return "bytes"
    if name.endswith("_s"):
        return "s"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
