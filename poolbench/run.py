"""poolattn benchmark: one workload, timed end to end or traced per layer.

Run from the root of a checkout:

    python3 poolbench/run.py --workload paper96 --seed 1 --seconds 56 --trace 0

The workloads, metrics, units and bounds are declared in BENCHMARK.json;
worker.py says what each workload runs. This process never imports numpy:
it starts the worker processes one after another with the BLAS thread
count pinned to 1 in their environment, so no worker competes with
another and none meets the two-mode timing that oversubscribed BLAS
threads give on a small machine.

--trace 0 starts SETUP_WORKERS workers that only set up, then one
measuring worker, and reports every end-to-end metric: each timing is the
median of its samples at reference speed (see worker.Reference), setup_s
(process start to first timed call) over all those workers, and
peak_rss_mb is that of the measuring worker. The
attention-call metrics are measured at the paper shape on every
workload; verify gets them from one more worker that runs paper96
rounds for OPS_SHARE of the seconds. --trace 1 starts one
measuring worker and one traced worker and reports every per-layer
metric, including the tracing overhead (traced pass time minus the
untraced one). The second-to-last stdout line is a detail report (sample
counts, p90, wall-clock samples, reference chunk times, environment,
failures); the last line is the result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
DEADLINE_S = 170
# Workers that only set up (for setup_s) before the measuring worker, and
# each measuring worker's share of --seconds.
SETUP_WORKERS = {"paper96": 2, "verify": 4}
MAIN_SHARE = {"paper96": 0.8, "verify": 0.6}
OPS_SHARE = 0.4
# Time of one reference chunk (worker.Reference) at reference speed, in ms:
# round figures near its median on a quiet two-vCPU x86-64 host with
# OpenBLAS on one thread.
REFERENCE_MS = {"blas": 16.0, "mixed": 20.0}
# Timings reported at reference speed, and the kind of chunk each is set
# against; pass_s and setup_s follow the workload's own kind.
AT_REFERENCE = {"spa_f32_fb_ms": "blas", "spa_f64_fb_ms": "blas", "cpa_f32_fb_ms": "blas",
                "nonlocal_f32_fwd_ms": "blas", "attn_io_ms": "blas"}


def summary(values: list[float]) -> dict:
    s = sorted(values)
    q = statistics.quantiles(s, n=20) if len(s) > 1 else [s[0]] * 19
    return {"n": len(s), "median": statistics.median(s), "p25": q[4], "p75": q[14],
            "p90": q[17], "min": s[0], "max": s[-1]}


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env.pop("POOLATTN_THREADS", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def start_workers(root: Path, args, plan: list[dict]) -> list[dict]:
    """Run the workers one after another; each result gains its set-up time."""
    env = child_env(root)
    deadline = time.monotonic() + DEADLINE_S
    results = []
    for index, extra in enumerate(plan):
        cfg = {"workload": args.workload, "seed": args.seed, "root": str(root),
               "first_index": index, "role": "main", **extra}
        spawned = time.monotonic()
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), json.dumps(cfg)],
                              cwd=root, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - spawned))
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise RuntimeError(f"worker {index} exited with code {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["setup_s"] = result["first_timed"] - spawned - result["setup_ref_s"]
        result["role"] = cfg["role"]
        results.append(result)
    return results


def fingerprint_mismatches(results: list[dict]) -> list[str]:
    """Every output must be bitwise equal to the first one of the same operation."""
    first: dict[str, str] = {}
    bad = []
    for worker, result in enumerate(results):
        for op, fp in result["fingerprints"]:
            ref = first.setdefault(op, fp)
            if fp != ref:
                bad.append(f"{op}: worker {worker} output differs bitwise from the first")
    return bad


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    spec_path = root / "BENCHMARK.json"
    if not (root / "src" / "poolattn" / "__init__.py").is_file() or not spec_path.is_file():
        print("run from the root of a poolattn checkout (src/poolattn and BENCHMARK.json)",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    if args.seconds <= 0 or args.seed < 0:
        parser.error("--seconds must be positive and --seed non-negative")

    if args.trace:
        plan = [{"mode": "measure", "budget_s": args.seconds / 3}, {"mode": "trace"}]
    else:
        plan = [{"mode": "setup"} for _ in range(SETUP_WORKERS[args.workload])]
        plan.append({"mode": "measure", "budget_s": args.seconds * MAIN_SHARE[args.workload]})
        if args.workload != "paper96":
            plan.append({"mode": "measure", "budget_s": args.seconds * OPS_SHARE,
                         "workload": "paper96", "role": "ops"})
    try:
        results = start_workers(root, args, plan)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    mismatches = fingerprint_mismatches(results)
    attempted = sum(r["attempted"] for r in results)
    failed = min(attempted, sum(r["failed"] for r in results) + len(mismatches))
    failures = [f for r in results for f in r["failures"]] + mismatches

    main = [r for r in results if r["trace"] is None and r["role"] == "main"]
    samples: dict[str, list[float]] = {}
    for r in results:
        for name, values in r["samples"].items():
            # An ops worker contributes its attention calls, not its passes.
            if r["role"] == "main" or name not in ("pass_s", "pass_s/ref", "cycle_s"):
                samples.setdefault(name, []).extend(values)
    samples["setup_s"] = [r["setup_s"] for r in main]
    samples["setup_s/ref"] = [r["setup_s"] * 1e3 / r["setup_ref_ms"] for r in main]
    samples["peak_rss_mb"] = [r["peak_rss_mb"] for r in main if r["passes"]]
    detail = {name: summary(values) for name, values in sorted(samples.items())}
    speed = {kind: {"reference_ms": ms, "measured_ms": detail[f"ref.{kind}_ms"]["median"]}
             for kind, ms in REFERENCE_MS.items() if f"ref.{kind}_ms" in detail}

    if args.trace:
        values = dict(results[-1]["trace"])
        # The untraced pass at the speed the traced passes ran at: the two
        # workers ran at different moments of a machine whose speed moves.
        untraced_ms = (values["trace.pass_ms"] * statistics.median(samples["pass_s/ref"])
                       / values.pop("pass_ratio"))
        values["trace.untraced_pass_ms"] = untraced_ms
        values["trace.overhead_ms"] = values["trace.pass_ms"] - untraced_ms
        values["trace.overhead_pct"] = 100.0 * values["trace.overhead_ms"] / untraced_ms
        declared = spec["per_layer"]
    else:
        # A timing at reference speed is the median of its ratios to the
        # reference chunks beside it, times the chunk's reference time.
        own = "blas" if args.workload == "paper96" else "mixed"
        kinds = {**AT_REFERENCE, "pass_s": own, "setup_s": own}
        values = {name: s["median"] for name, s in detail.items()}
        for name, kind in kinds.items():
            scale = REFERENCE_MS[kind] / (1e3 if name.endswith("_s") else 1.0)
            values[name] = detail[f"{name}/ref"]["median"] * scale
        declared = spec["end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        print(f"benchmark does not produce declared metrics: {missing}", file=sys.stderr)
        return 1

    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      "samples": detail, "speed": speed,
                      "passes": [r["passes"] for r in results],
                      "environment": results[0]["environment"], "failures": failures,
                      **({"per_layer": values} if args.trace else {})}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
