"""Benchmark of `flmarket run` on generated workloads.

Usage (from the root of a source checkout):

    python3 benchmarks/bench.py --workload NAME --seed N --seconds S --trace 0|1

Writes the workload's config under `.bench_work/`, then for about S seconds
(at least MIN_RUNS runs of each kind) runs it again and again, each time in a fresh process (`worker.py`) that imports
`flmarket` from `src/`. Every run's CSVs are checked. With `--trace 0` the
result holds the end-to-end metrics; with `--trace 1` runs alternate
between untraced and traced, and the result holds the per-layer metrics.

End-to-end times are scaled to a reference speed: each is multiplied by
REFERENCE_GAUGE_S / gauge_s, where gauge_s is the time the same process
took for worker.py's fixed loop around the run. This cancels the drift in
the speed a shared machine gives one process; the unscaled figures are
printed beside them. Per-layer times are not scaled.
The last line of standard output is one JSON object:
`{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import (
    WORKLOADS, check_outputs, count_rounds, ledger_gaps, make_config, write_config,
)

HERE = Path(__file__).resolve().parent
MIN_RUNS = 3  # per kind of run (untraced, traced)
RUN_TIMEOUT_S = 120
TOTAL_LIMIT_S = 150  # start no run expected to end past this
REFERENCE_GAUGE_S = 0.2  # worker.gauge() at the reference speed
THREADS = len(os.sched_getaffinity(0))
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "rounds_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    if name.endswith(".s") or name.endswith("self_s"):
        return "s"
    if ".ms_" in name:
        return "ms"
    if name.endswith("ratio") or name.endswith("frac"):
        return "ratio"
    return "count"


def git_commit(root: Path) -> str:
    try:
        head = (root / ".git" / "HEAD").read_text().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    try:
        return (root / ".git" / head[5:]).read_text().strip()
    except OSError:
        return head[5:]


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    for var in BLAS_THREAD_VARS:
        env[var] = str(THREADS)
    return env


def spawn(root: Path, config_path: Path, mode: str | None) -> tuple[dict | None, str]:
    """Run worker.py once; returns (its JSON result with setup_s, error)."""
    argv = [sys.executable, str(HERE / "worker.py"), str(config_path)]
    if mode:
        argv.append(mode)
    start = time.monotonic()
    try:
        proc = subprocess.run(
            argv, cwd=root, env=child_env(root), capture_output=True, text=True,
            timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return None, f"run exceeded {RUN_TIMEOUT_S} s"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, f"worker exited {proc.returncode}: {proc.stderr.strip()[-500:]}"
    result = json.loads(lines[-1])
    result["setup_s"] = result["ready"] - start
    result["scale"] = REFERENCE_GAUGE_S / result["gauge_s"]
    if result.get("rc", 0) != 0:
        return None, f"flmarket run exited {result['rc']}: {proc.stderr.strip()[-500:]}"
    return result, ""


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "flmarket" / "__init__.py").is_file():
        print(f"error: no flmarket sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    work = root / ".bench_work" / args.workload
    out = work / "out"
    work.mkdir(parents=True, exist_ok=True)
    config = make_config(args.workload, args.seed, str(out))
    config_path = work / "workload.cfg"
    write_config(config, config_path)

    # Untimed: warms the file cache and bytecode, and fails fast if set-up breaks.
    warm, error = spawn(root, config_path, "--setup-only")
    if warm is None:
        print(f"error: set-up failed: {error}", file=sys.stderr)
        return 1

    kinds = ["", "--trace"] if args.trace else [""]
    runs: dict[str, list[dict]] = {kind: [] for kind in kinds}
    attempted = failed = 0
    digests: dict[str, set] = {}
    gaps: set[str] = set()
    start = time.monotonic()
    last = 0.0  # duration of the previous run, the estimate for the next
    while True:
        ends = time.monotonic() - start + last
        enough = min(len(runs[k]) for k in kinds) >= MIN_RUNS
        if (enough and ends > args.seconds) or (attempted and ends > TOTAL_LIMIT_S):
            break
        kind = kinds[attempted % len(kinds)]
        shutil.rmtree(out, ignore_errors=True)
        began = time.monotonic()
        result, error = spawn(root, config_path, kind)
        last = time.monotonic() - began
        attempted += 1
        errors, bodies = ([error], {}) if result is None else check_outputs(args.workload, config, out)
        if errors:
            failed += 1
            for line in errors[:10]:
                print(f"check failed: {line}", file=sys.stderr)
            continue
        for name, digest in bodies.items():
            digests.setdefault(name, set()).add(digest)
        if "robustness.csv" in bodies:
            gaps.update(ledger_gaps(out))
        runs[kind].append(result)
    if any(not r for r in runs.values()):
        print("error: no run of the workload succeeded", file=sys.stderr)
        return 1

    def median(rows, key, scaled=True):
        return statistics.median(r[key] * (r["scale"] if scaled else 1.0) for r in rows)

    plain = runs[""]
    wall_s = median(plain, "wall_s")
    env = {
        "nproc": THREADS,
        "python": platform.python_version(),
        "numpy": warm["numpy"],
        "blas_threads": {var: child_env(root)[var] for var in BLAS_THREAD_VARS},
        "commit": git_commit(root),
    }
    print(f"env: {json.dumps(env)}")
    print(f"workload: {args.workload} seed={args.seed} flmarket seeds={config['seeds']} "
          f"rounds/run={count_rounds(config)}")
    for name, seen in sorted(digests.items()):
        note = "identical in every run" if len(seen) == 1 else f"{len(seen)} distinct bodies"
        print(f"csv sha256 (body after line 1): {name} {sorted(seen)[0]} ({note})")
    for gap in sorted(gaps):
        print(f"known defect, not gated: robustness.csv {gap}")

    if args.trace:
        traced = runs["--trace"]
        metrics = {}
        for name in traced[0]["layers"]:
            value = statistics.median(r["layers"][name] for r in traced)
            metrics[name] = metric(value, layer_unit(name))
        metrics["trace.overhead_frac"] = metric(median(traced, "wall_s") / wall_s - 1.0, "ratio")
    else:
        metrics = {
            "setup_s": median(plain, "setup_s"),
            "wall_s": wall_s,
            "rounds_per_s": count_rounds(config) / wall_s,
            "cpu_s": median(plain, "cpu_s"),
            "peak_rss_mb": median(plain, "peak_rss_mb", scaled=False),
        }
        metrics = {name: metric(v, END_TO_END_UNITS[name]) for name, v in metrics.items()}
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"unscaled: setup_s = {median(plain, 'setup_s', False):.6g} s, "
          f"wall_s = {median(plain, 'wall_s', False):.6g} s, "
          f"cpu_s = {median(plain, 'cpu_s', False):.6g} s, "
          f"gauge_s = {median(plain, 'gauge_s', False):.6g} s over {len(plain)} runs")
    print(f"error_rate = {failed / attempted:.6g} ratio ({failed} failed / {attempted} attempted)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
