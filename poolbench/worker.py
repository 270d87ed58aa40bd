"""One benchmark process: set up one workload, then run it as a closed loop.

run.py starts this file with the BLAS thread variables already pinned, so
numpy loads with them. The process builds its inputs from the workload
seed, warms up, then runs passes back to back (each call starts when the
previous one returns) until its time budget is spent, checking every
output. It prints one JSON object on its last stdout line.

A pass is one unit of a workload's work:

* paper96: one attention round at the paper shape (C=64, Ĉ=32, 96x96,
  keys pooled on paper-even, values on paper-odd, T=325). On each of
  SETS_PER_ROUND input sets it runs SPA forward+backward in f32 and in
  f64, CPA forward+backward in f32 for each of CPA_DRAWS weight draws and
  the `poolattn attn` path (DPT read, SPA forward, DPT writes); then one
  non-local forward in f32 on the first set.
* verify:  the finite-difference manifest plus the equivalence oracle.
"""

from __future__ import annotations

import ctypes
import json
import os
import platform
import resource
import shutil
import signal
import sys
import time
import zlib
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import poolattn
from poolattn import attention, dpt, gradcheck, harness, instrument, ops
from poolattn.accounting import cost_cpa, cost_nonlocal, cost_spa, reduction_ratio
from poolattn.pooling import PAPER_EVEN, PAPER_ODD, anchor_count
from poolattn.rng import Rng

import tracing

# The benchmark's own reads and writes of DPT files are not the workload's:
# these references stay untraced when the tracer rebinds `dpt`.
read_dpt, write_dpt = dpt.read_dpt, dpt.write_dpt

F32, F64 = np.dtype(np.float32), np.dtype(np.float64)


# The paper shape.
C, CHAT, HW = 64, 32, 96
K_SPEC, V_SPEC = PAPER_EVEN, PAPER_ODD
SETS_PER_ROUND = 3
# CPA weight draws per input set. f32 CPA time depends on its weights (93 to
# 240 ms at the paper shape: its softmax underflows into subnormals on some
# draws), so its median needs more draws than the other calls.
CPA_DRAWS = 3
TRACED_PASSES = 2

# The verification pass is the package's fixed suite, so it takes no seed;
# the seed still sets the inputs of the attention calls measured with it.
EQUIVALENCE_ARGS = (50, [3, 5], [2, 4])

# f32 against its f64 twin on identical inputs, relative to the f64 maximum:
# outputs within ~1000 f32 ulps, gradients within the package's 1e-3 rule.
OUT_RTOL = 1e-4
GRAD_RTOL = 1e-3

# Wall time between two reference chunks sampled during a verification pass
# or a set-up.
REF_INTERVAL_S = 0.4
# Reference chunks timed on each side of a traced pass, and after set-up.
TRACE_REF_CHUNKS = SETUP_REF_CHUNKS = 5


class Tally:
    """Operations attempted and failed, timing samples and output fingerprints."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.fingerprints: list[tuple[str, str]] = []
        self._failures_per_op: dict[str, int] = defaultdict(int)

    def record(self, op: str, problems: list[str]) -> None:
        """Count one attempted operation; keep the first messages of each failing op."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self._failures_per_op[op] += 1
            if self._failures_per_op[op] <= 3:
                self.failures.append(f"{op}: {problems[0]}")


class Reference:
    """A fixed kernel timed beside the workload's calls, to read the machine's speed.

    On a shared machine the same call runs up to 1.6x slower while a
    neighbour is busy, and that lasts from seconds to minutes. So every
    timed call is divided by the mean of the reference chunks timed just
    before and just after it, and run.py multiplies the median of those
    ratios by REFERENCE_MS, the chunk's time at reference speed: a run
    reports what its calls take at one fixed machine speed. The kernel never
    calls poolattn, so a change to the package moves the ratios and leaves
    the reference alone; its inputs are fixed, so the seed does not move it
    either, and its buffers are allocated once.

    * blas: products of the SPA map shape in f32 and f64 and an exp over a
      T x N f32 array, for the BLAS- and memory-bound calls at the paper
      shape;
    * mixed: the blas chunk plus reductions of tiny arrays one at a time,
      for the verification pass, which mixes small BLAS calls with
      interpreter overhead. Under load the reductions alone slow down 1.7x
      as much as the pass does, the blas chunk 0.7x as much, the two
      together 0.85x as much.
    """

    def __init__(self, kind: str):
        self.kind = kind
        rng = np.random.default_rng(0)
        n, t = HW * HW, anchor_count(K_SPEC)
        self.a32 = rng.standard_normal((n, C)).astype(F32)
        self.b32 = rng.standard_normal((C, t)).astype(F32)
        self.a64, self.b64 = self.a32[: n // 2].astype(F64), self.b32.astype(F64)
        self.p32 = np.empty((n, t), F32)
        self.p64 = np.empty((n // 2, t), F64)
        self.scores = rng.standard_normal((t, n)).astype(F32)
        self.e32 = np.empty_like(self.scores)
        self.tiny = [rng.standard_normal((4, 8, 8)) for _ in range(50)]
        self.parts = {"blas": (self._blas,), "mixed": (self._blas, self._python)}
        self.seconds = 0.0      # time spent in chunks, kept out of pass times

    def _blas(self) -> None:
        np.matmul(self.a32, self.b32, out=self.p32)
        np.matmul(self.a64, self.b64, out=self.p64)
        np.exp(self.scores, out=self.e32)

    def _python(self) -> None:
        acc = 0.0
        for _ in range(10):
            for a in self.tiny:
                acc += float((a.reshape(4, -1).mean(axis=1) * 2.0).sum())

    def chunk(self, count: int = 1) -> float:
        """Median time of `count` chunks, in ms."""
        parts = self.parts[self.kind]
        times = []
        for _ in range(count):
            t0 = time.perf_counter()
            for part in parts:
                part()
            times.append(time.perf_counter() - t0)
        self.seconds += sum(times)
        return float(np.median(times)) * 1e3

    @contextmanager
    def sampling(self, interval: float):
        """Time one chunk every `interval` seconds while the block runs.

        For a call too long to be paired with the chunks beside it. The
        chunks run in a SIGALRM handler between two bytecodes of the block,
        and their time is counted in `seconds`, so the caller can take it out
        of the block's time. Yields the list the chunk times (ms) go to.
        """
        times: list[float] = []
        previous = signal.signal(signal.SIGALRM, lambda *_: times.append(self.chunk()))
        signal.setitimer(signal.ITIMER_REAL, interval, interval)
        try:
            yield times
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


def global_state_problem() -> str | None:
    """Hidden process-wide switches that would change what a timed call measures.

    Looked up with getattr, so the guard outlives the removal of either helper.
    """
    serial = getattr(ops, "serial_matmul_enabled", None)
    if serial is not None and serial():
        return "serial matmul is switched on"
    counting = getattr(instrument, "enabled", None)
    if counting is not None and counting():
        return "an instrument.counting() block is active"
    return None


def fingerprint(arrays: dict[str, np.ndarray]) -> str:
    """CRC-32 of every output array, with its dtype and shape."""
    return ";".join(f"{k}:{a.dtype.str}{list(a.shape)}:{zlib.crc32(np.ascontiguousarray(a)):08x}"
                    for k, a in sorted(arrays.items()))


def non_finite(arrays: dict[str, np.ndarray]) -> list[str]:
    return [f"{k} is not finite" for k, a in sorted(arrays.items()) if not np.isfinite(a).all()]


def _grads(g) -> dict[str, np.ndarray]:
    fields = g if isinstance(g, dict) else vars(g)
    return {f"d_{k}": np.asarray(v) for k, v in fields.items() if v is not None}


def spa_fb(m, x, g):
    out, attn = attention.spa_forward(x, m)
    return {"out": out, "attn": attn, **_grads(attention.spa_backward(x, m, g))}


def cpa_fb(m, x, g):
    out, attn = attention.cpa_forward(x, m)
    return {"out": out, "attn": attn, **_grads(attention.cpa_backward(x, m, g))}


@dataclass
class Done:
    """One timed call, kept until the pass is over and its outputs are checked."""

    name: str                 # the metric the call is timed under
    key: str                  # outputs with the same key must be bitwise equal
    result: object
    seconds: float | None
    problems: list[str]
    inputs: InputSet | None = None
    ref_ms: float | None = None   # mean reference chunk beside the call


def timed_call(name: str, key: str, fn, inputs: InputSet | None = None) -> Done:
    """Time one call under the global-state guard; a call that raises has no time."""
    done = Done(name, key, None, None, [], inputs)
    problem = global_state_problem()
    if problem:
        done.problems.append(problem)
        return done
    t0 = time.perf_counter()
    try:
        done.result = fn()
    except Exception as exc:  # a failing operation is counted, and the loop goes on
        done.problems.append(f"{type(exc).__name__}: {exc}")
        return done
    done.seconds = time.perf_counter() - t0
    problem = global_state_problem()
    if problem:
        done.problems.append(problem)
    return done


class InputSet:
    """Seeded inputs, weights and DPT input file at the paper shape."""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        shape = (C, HW, HW)
        rng = Rng(2 * seed + 1)
        self.x32 = rng.fill_uniform(shape, 1.0, F32)
        self.g32 = rng.fill_uniform(shape, 1.0, F32)
        self.x64, self.g64 = self.x32.astype(F64), self.g32.astype(F64)
        # Weights drawn from Rng(seed), exactly as `poolattn attn --seed` draws them.
        proj32 = attention.init_projection(Rng(seed), C, CHAT, F32)
        proj64 = attention.ProjectionWeights(proj32.w_q.astype(F64), proj32.w_k.astype(F64),
                                             proj32.w_v.astype(F64))
        mixed = attention.SpaMode.MIXED
        self.spa32 = attention.SpaModule(proj32, mixed, K_SPEC, V_SPEC, 1.0)
        self.spa64 = attention.SpaModule(proj64, mixed, K_SPEC, V_SPEC, 1.0)
        self.cpas = [attention.CpaModule(attention.init_projection(rng, C, None, F32),
                                         attention.CpaMode.SUBTRACT, 1.0)
                     for _ in range(CPA_DRAWS)]
        self.cpa = self.cpas[0]
        self.input_path = workdir / f"{seed}-input.dpt"
        write_dpt(self.input_path, self.x32)

    def attn_io(self, out: Path, attn_map: Path):
        report = harness.attn_report(str(self.input_path), "spa", str(out), str(attn_map),
                                     self.seed, CHAT, K_SPEC, V_SPEC, "subtract", False,
                                     1.0, 1.0)
        return report, out, attn_map

    def nonlocal_fwd(self):
        out, attn = attention.nonlocal_forward(self.x32, self.spa32.proj, 1.0)
        return {"out": out, "attn": attn}


class AttentionRound:
    """The attention calls of one round (see the module docstring) on its input sets."""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.calls = 0
        self.sets = [InputSet(seed * SETS_PER_ROUND + i, workdir)
                     for i in range(SETS_PER_ROUND)]

    def execute(self, ref: Reference | None = None) -> list[Done]:
        """Make every call of the round; checking waits for check().

        With `ref`, reference chunks are timed before and after each call
        (one reading serves two calls), and each call gets the mean of the
        two beside it.
        """
        self.calls += 1
        done = []
        last = None     # (chunks, ms) of the latest reference reading

        def call(name: str, key: str, fn, s: InputSet, count: int = 1) -> None:
            nonlocal last
            if ref:
                before = last[1] if last and last[0] == count else ref.chunk(count)
            d = timed_call(name, key, fn, s)
            if ref:
                last = (count, ref.chunk(count))
                d.ref_ms = (before + last[1]) / 2
            done.append(d)

        for s in self.sets:
            out, attn_map = (self.workdir / f"{s.seed}-{self.calls}-{k}.dpt"
                             for k in ("out", "map"))
            calls = [("spa_f32_fb_ms", "", lambda: spa_fb(s.spa32, s.x32, s.g32)),
                     ("spa_f64_fb_ms", "", lambda: spa_fb(s.spa64, s.x64, s.g64))]
            calls += [("cpa_f32_fb_ms", f" weights {j}",
                       lambda m=m: cpa_fb(m, s.x32, s.g32)) for j, m in enumerate(s.cpas)]
            calls.append(("attn_io_ms", "", lambda: s.attn_io(out, attn_map)))
            for name, draw, fn in calls:
                call(name, f"{name}[inputs {s.seed}{draw}]", fn, s)
        # The non-local call is long: the median of three chunks on each
        # side reads the speed around it more steadily.
        s = self.sets[0]
        call("nonlocal_f32_fwd_ms", f"nonlocal_f32_fwd_ms[inputs {s.seed}]", s.nonlocal_fwd, s, 3)
        return done

    @staticmethod
    def check(done: list[Done], tally: Tally, record: bool) -> float:
        """Check and record one executed round; returns the summed time of its calls."""
        outputs: dict[int, dict[str, Done]] = defaultdict(dict)
        total = 0.0
        for d in done:
            if d.seconds is None:
                continue
            total += d.seconds
            if record:
                tally.samples[d.name].append(d.seconds * 1e3)
                if d.ref_ms:
                    tally.samples[f"{d.name}/ref"].append(d.seconds * 1e3 / d.ref_ms)
            if d.name == "attn_io_ms":
                _, out, attn_map = d.result
                d.result = {"input": read_dpt(d.inputs.input_path), "out": read_dpt(out),
                            "map": read_dpt(attn_map)}
                out.unlink()
                attn_map.unlink()
            outputs[d.inputs.seed][d.name] = d
            d.problems += non_finite(d.result)
            tally.fingerprints.append((d.key, fingerprint(d.result)))
        for by_name in outputs.values():
            twin_problems(by_name)
            dpt_problems(by_name)
        for d in done:
            tally.record(d.name, d.problems)
        return total


def twin_problems(by_name: dict[str, Done]) -> None:
    """The f32 SPA call against its f64 twin on the same inputs."""
    a, b = by_name.get("spa_f32_fb_ms"), by_name.get("spa_f64_fb_ms")
    if a is None or b is None:
        return
    for key in sorted(b.result):
        if key not in a.result:
            continue
        ref = np.abs(b.result[key]).max()
        diff = np.abs(a.result[key].astype(F64) - b.result[key]).max()
        err = diff / max(ref, np.finfo(F64).tiny)
        tol = OUT_RTOL if key in ("out", "attn") else GRAD_RTOL
        if not err <= tol:
            a.problems.append(f"f32 {key} differs from its f64 twin by {err:.3g} "
                              f"(tolerance {tol})")


def dpt_problems(by_name: dict[str, Done]) -> None:
    """The DPT files of the attn path against the input and the in-memory SPA forward."""
    io, spa = by_name.get("attn_io_ms"), by_name.get("spa_f32_fb_ms")
    if io is None:
        return
    if not np.array_equal(io.result["input"], io.inputs.x32):
        io.problems.append("input DPT round trip differs")
    if spa is not None:
        for key, ref in (("out", spa.result["out"]), ("map", spa.result["attn"])):
            if not (io.result[key].dtype == ref.dtype and np.array_equal(io.result[key], ref)):
                io.problems.append(f"DPT {key} differs bitwise from the in-memory SPA forward")


class RoundStream:
    """Attention rounds over a stream of seeded input sets.

    The inputs change from round to round because some timings depend on
    the data (f32 CPA slows down when its softmax underflows into
    subnormals), so a run's median covers many input sets, not one draw.
    Every fourth round repeats the previous round's set, so outputs are
    compared bitwise with an earlier call throughout the run. The first set
    (used by the warm-up and the first timed round) is the same in every
    worker process, so its outputs are also compared across processes.
    """

    def __init__(self, seed: int, worker_index: int, workdir: Path):
        self.seed, self.worker_index, self.workdir = seed, worker_index, workdir
        self.count = 0
        self.current: AttentionRound | None = None

    def next(self) -> AttentionRound:
        index = self.count - (self.count + 3) // 4
        self.count += 1
        set_seed = self.seed * 1_000_003 + (index and self.worker_index * 100_000 + index)
        if self.current is None or self.current.seed != set_seed:
            self.current = AttentionRound(set_seed, self.workdir)
        return self.current


def verify_call() -> Done:
    return timed_call("pass_s", "verify", lambda: (gradcheck.run_manifest(),
                                                   harness.equivalence_report(*EQUIVALENCE_ARGS)))


def check_verify(d: Done) -> None:
    manifest, equivalence = d.result
    bad = [f"{case}/{rep.target}" for case, reps in manifest for rep in reps if not rep.passed]
    if bad:
        d.problems.append(f"finite-difference manifest failed: {', '.join(bad[:5])}")
    if not equivalence["all_passed"]:
        d.problems.append("equivalence oracle failed")
    d.result = json.dumps([[case, [rep.as_dict() for rep in reps]] for case, reps in manifest]
                          + [equivalence], sort_keys=True)


def run_pass(rounds: RoundStream | None, tally: Tally, record: bool = True,
             span=nullcontext(), ref: Reference | None = None) -> float:
    """One pass (an attention round, or with no rounds a verification pass).

    Returns the wall time of its calls, the region `span` covers, without
    the reference chunks. Inputs are built before the calls and outputs
    checked after them. With `ref`, a round is set against the median
    reference chunk beside its calls, and a verification pass against the
    median chunk sampled during it.
    """
    rnd = rounds.next() if rounds is not None else None
    spent = ref.seconds if ref else 0.0
    sampling = ref.sampling(REF_INTERVAL_S) if ref and rnd is None else nullcontext([])
    t0 = time.perf_counter()
    with span, sampling as chunks:
        done = rnd.execute(ref) if rnd is not None else verify_call()
    in_chunks = ref.seconds - spent if ref else 0.0
    elapsed = time.perf_counter() - t0 - in_chunks
    if rnd is not None:
        seconds = rnd.check(done, tally, record)
        ref_ms = [d.ref_ms for d in done if d.ref_ms]
        if record:
            tally.samples["pass_s"].append(seconds)
            if ref_ms:
                tally.samples["pass_s/ref"].append(seconds * 1e3 / float(np.median(ref_ms)))
                tally.samples[f"ref.{ref.kind}_ms"].extend(ref_ms)
        return elapsed
    if done.seconds is not None:
        done.seconds -= in_chunks
        check_verify(done)
        tally.fingerprints.append((done.key, f"{zlib.crc32(done.result.encode()):08x}"))
        if record:
            tally.samples["pass_s"].append(done.seconds)
            if chunks:
                ref_ms = float(np.median(chunks))
                tally.samples["pass_s/ref"].append(done.seconds * 1e3 / ref_ms)
                tally.samples[f"ref.{ref.kind}_ms"].extend(chunks)
    tally.record(f"pass_s[{done.key}]", done.problems)
    return elapsed


def warm_up(workload: str, rounds: RoundStream | None, tally: Tally) -> None:
    if workload == "paper96":
        rnd = rounds.next()
        rnd.check(rnd.execute(), tally, record=False)
    else:
        gradcheck.check_module(*gradcheck.MANIFEST[0][1:])
        harness.equivalence_report(1, [3], [2])


def flop_counts(inputs: InputSet, tally: Tally) -> dict[str, float]:
    """One instrumented forward of each mechanism, checked against the closed forms."""
    x = inputs.x32
    n, t = HW * HW, anchor_count(K_SPEC)
    costs = {
        "nonlocal": (lambda: attention.nonlocal_forward(x, inputs.spa32.proj, 1.0),
                     cost_nonlocal(C, CHAT, HW, HW, F32), ("proj", "map", "softmax", "agg")),
        "spa": (lambda: attention.spa_forward(x, inputs.spa32),
                cost_spa(C, CHAT, HW, HW, K_SPEC, V_SPEC, F32),
                ("proj", "pool", "map", "softmax", "agg")),
        "cpa": (lambda: attention.cpa_forward(x, inputs.cpa),
                cost_cpa(C, HW, HW, True, F32),
                ("proj", "map", "softmax", "agg", "maxdiff")),
    }
    metrics = {}
    problems = []
    for mech, (fn, cost, stages) in costs.items():
        with instrument.counting() as counted_flops:
            fn()
        for stage in stages:
            counted = counted_flops.get(stage, 0)
            expected = cost.flops_extra if stage == "maxdiff" else getattr(cost, f"flops_{stage}")
            metrics[f"flops.{mech}.{stage}"] = counted
            if counted != expected:
                problems.append(f"{mech} {stage}: counted {counted}, closed form {expected}")
    ratio = reduction_ratio(costs["nonlocal"][1], costs["spa"][1])
    metrics["accounting.core_ratio"] = ratio
    if abs(ratio - n / t) > 1e-12 * (n / t):
        problems.append(f"core ratio {ratio!r} is not N/T = {n}/{t}")
    tally.record("flops", problems)
    return metrics


def blas_threads() -> dict | None:
    """Thread count read back from the BLAS library loaded into this process."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "blas" in line.lower() and ".so" in line})
    except OSError:
        return None
    symbols = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
               "openblas_get_num_threads64_", "openblas_get_num_threads", "MKL_Get_Max_Threads")
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in symbols:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return {"library": Path(path).name, "symbol": symbol, "threads": fn()}
    return None


def llc_bytes() -> int | None:
    """Size of the highest cache level of CPU 0."""
    best = (0, None)
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = int((index / "level").read_text())
            text = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(text[-1:], 1)
        size = int(text.rstrip("KMG")) * scale
        best = max(best, (level, size))
    return best[1]


def working_sets(llc: int | None) -> dict:
    """Computed bytes each paper-shape forward touches (inputs, projections, maps, outputs)."""
    n, t, c, ch = HW * HW, anchor_count(K_SPEC), C, CHAT
    sets = {}
    for name, b, map_elems, other in (
            ("spa_f32_fwd", 4, t * n, 4 * c * n + 2 * ch * n + (ch + c) * t + t * n),
            ("spa_f64_fwd", 8, t * n, 4 * c * n + 2 * ch * n + (ch + c) * t + t * n),
            ("cpa_f32_fwd", 4, c * c, 6 * c * n + 2 * c * c),
            ("nonlocal_f32_fwd", 4, n * n, 4 * c * n + 2 * ch * n + n * n)):
        ws = b * (map_elems + other)
        sets[name] = {"map_bytes": b * map_elems, "working_set_bytes": ws,
                      "llc_bytes": llc, "exceeds_llc": llc is not None and ws > llc}
    return sets


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads_effective": blas_threads(),
        "thread_env": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                      "MKL_NUM_THREADS", "POOLATTN_THREADS")},
        "cpu_count": os.cpu_count(),
        "affinity_count": len(os.sched_getaffinity(0)),
        "working_sets_computed": working_sets(llc_bytes()),
    }


def measure(cfg: dict) -> dict:
    """Set up, warm up, then run passes; `cfg` comes from run.py.

    Mode "setup" stops after the warm-up, "measure" runs passes with the
    reference kernel beside them until `budget_s` is spent, "trace" runs
    TRACED_PASSES passes with span recording on and reference chunks only
    between them.
    """
    workload, seed, root = cfg["workload"], cfg["seed"], Path(cfg["root"])
    tally = Tally()
    workdir = root / ".poolbench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        # The set-up is set against reference chunks sampled during it and
        # SETUP_REF_CHUNKS more after it; their time is not set-up time.
        reference = Reference("blas" if workload == "paper96" else "mixed")
        with reference.sampling(REF_INTERVAL_S) as setup_chunks:
            rounds = (RoundStream(seed, cfg["first_index"], workdir)
                      if workload == "paper96" else None)
            warm_up(workload, rounds, tally)
        setup_chunks += [reference.chunk() for _ in range(SETUP_REF_CHUNKS)]
        setup_ref_s = reference.seconds
        trace = None
        if cfg["mode"] == "trace":
            flops = flop_counts(InputSet(seed * 1_000_003, workdir), tally)
            tracer = tracing.Tracer()
            first_timed = time.monotonic()
            # Reference chunks between the traced passes, outside their
            # spans, give each pass's ratio to the machine's speed.
            ratios = []
            before = reference.chunk(TRACE_REF_CHUNKS)
            with tracing.installed(tracer):
                for p in range(TRACED_PASSES):
                    ms = run_pass(rounds, tally, record=False, span=tracer.root(p)) * 1e3
                    after = reference.chunk(TRACE_REF_CHUNKS)
                    ratios.append(ms * 2 / (before + after))
                    before = after
            layers, counts = tracing.layer_metrics(tracer, TRACED_PASSES)
            if any(c != counts[0] for c in counts):
                tally.record("counts", [f"exact counts differ between passes: {counts}"])
            out = root / ".poolbench_out"
            out.mkdir(exist_ok=True)
            tracer.save(out / f"spans-{workload}.npz")
            trace = {**flops, **layers, **counts[0], "pass_ratio": float(np.median(ratios))}
            passes = TRACED_PASSES
        elif cfg["mode"] == "setup":
            first_timed = time.monotonic()
            passes = 0
        else:
            first_timed = time.monotonic()
            start = time.perf_counter()
            passes = 0
            while True:
                t0 = time.perf_counter()
                tally.samples["cycle_s"].append(run_pass(rounds, tally, ref=reference))
                passes += 1
                last = time.perf_counter() - t0
                if time.perf_counter() - start + last > cfg["budget_s"]:
                    break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {
        "first_timed": first_timed,
        "setup_ref_s": setup_ref_s,
        "setup_ref_ms": float(np.median(setup_chunks)),
        "passes": passes,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.failures,
        "samples": tally.samples,
        "fingerprints": tally.fingerprints,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "environment": environment(),
        "trace": trace,
    }


def main() -> None:
    cfg = json.loads(sys.argv[1])
    src = (Path(cfg["root"]) / "src").resolve()
    if not Path(poolattn.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"poolattn was imported from {poolattn.__file__}, not from {src}")
    print(json.dumps(measure(cfg)))


if __name__ == "__main__":
    main()
