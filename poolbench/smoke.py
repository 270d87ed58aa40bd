"""Smoke test of the benchmark itself. From the repository root:

    python3 poolbench/smoke.py          # about three minutes on two cores

1. Runs every workload at minimum length, untraced and traced, and checks
   that the result line has exactly the keys of the result contract, that
   every metric BENCHMARK.json declares is emitted with its declared unit,
   and that no operation failed.
2. Runs every workload for one pass in this process with a deliberately
   corrupted SPA forward, and checks that the corruption is counted as a
   failed operation by the check meant to catch it.
3. Runs the benchmark in a directory that holds only BENCHMARK.json and
   poolbench/, where it must exit non-zero without printing a result.

Exits 0 when every check holds; prints each failed check otherwise.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import numpy as np  # noqa: E402  (after the thread pinning above)

import tracing  # noqa: E402
import worker  # noqa: E402
from poolattn import attention  # noqa: E402

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run_benchmark(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run([sys.executable, str(cwd / "poolbench" / "run.py"), "--workload",
                           workload, "--seed", "1", "--seconds", "1", "--trace", str(trace)],
                          cwd=cwd, capture_output=True, text=True, timeout=180)


def check_result_lines(spec: dict) -> list[str]:
    errors = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            tag = f"{workload} --trace {trace}"
            proc = run_benchmark(workload, trace)
            if proc.returncode != 0:
                errors.append(f"{tag}: exit code {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != RESULT_KEYS:
                errors.append(f"{tag}: result keys {sorted(result)}")
                continue
            if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
                errors.append(f"{tag}: correct={result['correct']} failed={result['failed']} "
                              f"attempted={result['attempted']}")
            for metric in declared:
                got = result["metrics"].get(metric["name"])
                if got is None or got.get("unit") != metric["unit"]:
                    errors.append(f"{tag}: {metric['name']} missing or not in {metric['unit']}")
                elif not isinstance(got.get("value"), (int, float)):
                    errors.append(f"{tag}: {metric['name']} value {got.get('value')!r}")
            extra = set(result["metrics"]) - {m["name"] for m in declared}
            if extra:
                errors.append(f"{tag}: undeclared metrics {sorted(extra)}")
    return errors


def corrupted_spa(dtype, change):
    original = attention.spa_forward

    def spa_forward(x, m):
        out, attn = original(x, m)
        if out.dtype == dtype:
            out = out.copy()
            out.flat[0] = change(out.flat[0])
        return out, attn
    return spa_forward


def check_corruption_counted() -> list[str]:
    cases = (
        ("paper96", np.float32, lambda v: -v + 1.0, "spa_f32_fb_ms"),
        ("verify", np.float64, lambda v: v + 1e-3, "pass_s[verify]"),
    )
    errors = []
    for workload, dtype, change, caught_by in cases:
        cfg = {"workload": workload, "seed": 1, "root": str(ROOT), "first_index": 0,
               "mode": "measure", "budget_s": 1e-3}
        with tracing.rebound([(attention, "spa_forward", corrupted_spa(dtype, change))]):
            result = worker.measure(cfg)
        if result["failed"] < 1 or not any(f.startswith(caught_by)
                                           for f in result["failures"]):
            errors.append(f"{workload}: corrupted {np.dtype(dtype).name} SPA output was not "
                          f"caught by {caught_by}: {result['failures'][:3]}")
    return errors


def check_bare_directory() -> list[str]:
    bare = ROOT / ".poolbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "poolbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = run_benchmark("paper96", 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return [f"bare directory: exit code {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    errors = check_result_lines(spec) + check_corruption_counted() + check_bare_directory()
    for error in errors:
        print(f"FAIL {error}")
    print("smoke test passed" if not errors else f"{len(errors)} smoke check(s) failed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
