"""Span recording around the public functions of every poolattn layer.

A `Tracer` wraps functions without touching any file: each wrapper is
rebound in every loaded `poolattn` module that holds the original object,
because modules bind imported names (`from .pooling import pyramid_pool`)
and a caller resolves whichever binding it imported. Functions inside
`poolattn.ops` call each other through module globals, so rebinding the
module attribute also traces those internal calls.

Spans live in flat typed arrays (a traced verification pass records about
a million of them) and are turned into per-layer figures only at the end.
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

from poolattn import attention, dpt, gradcheck, harness, instrument, network, ops, pooling
from poolattn.rng import Rng

LAYERS = ("ops", "pooling", "attention", "network", "gradcheck", "dpt", "rng", "harness")
ATTENTION_FNS = ("nonlocal_forward", "nonlocal_backward", "spa_forward", "spa_backward",
                 "cpa_forward", "cpa_backward")
FORWARD_NAMES = ("attention.nonlocal_forward", "attention.spa_forward",
                 "attention.cpa_forward", "network.forward")
ROOT = "pass"


class Tracer:
    """In-memory span store: name, start, end, parent span and call (pass) id."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.call = array("q")
        self.work = array("d")      # FLOPs or bytes, depending on the span name
        self._stack = [-1]
        self._call_id = -1

    def _nid(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, name: str) -> int:
        idx = len(self.start)
        self.name_id.append(self._nid(name))
        self.parent.append(self._stack[-1])
        self.call.append(self._call_id)
        self.work.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def root(self, call_id: int):
        """One workload pass; every span opened inside carries `call_id`."""
        self._call_id = call_id
        idx = self._open(ROOT)
        try:
            yield
        finally:
            self._close(idx)
            self._call_id = -1

    def wrap(self, fn, label, work=None, count_flops=False):
        """Traced stand-in for `fn`; `label` is a name or a callable of the call's args."""
        def traced(*args, **kwargs):
            idx = self._open(label if isinstance(label, str) else label(args, kwargs))
            try:
                if count_flops:
                    with instrument.counting() as tally:
                        result = fn(*args, **kwargs)
                    self.work[idx] = float(sum(tally.values()))
                else:
                    result = fn(*args, **kwargs)
                if work is not None:
                    self.work[idx] = float(work(args, kwargs, result))
                return result
            finally:
                self._close(idx)
        traced.__wrapped__ = fn
        return traced

    def save(self, path) -> None:
        """Write every span out (call once, when the run ends)."""
        np.savez(path, names=np.array(self.names), name_id=np.asarray(self.name_id),
                 start=np.asarray(self.start), end=np.asarray(self.end),
                 parent=np.asarray(self.parent), call=np.asarray(self.call),
                 work=np.asarray(self.work))


def _matmul_flops(args, kwargs, result):
    a, b = args[0], args[1]
    return 2 * a.shape[0] * a.shape[1] * b.shape[1]


def _pool_bytes(args, kwargs, result):
    x, spec = args[0], args[1]
    return x.nbytes * len(spec.sizes)


def _result_bytes(args, kwargs, result):
    return result.nbytes


def _written_bytes(args, kwargs, result):
    return np.asarray(args[1]).nbytes


def _check_label(args, kwargs):
    return f"gradcheck.check_module.{kwargs.get('kind', args[0] if args else '?')}"


def _targets():
    """(owner, attribute, label, work, count_flops) for every traced function that exists."""
    skip = {"set_serial_matmul", "serial_matmul", "serial_matmul_enabled"}
    found = []
    for name, fn in vars(ops).items():
        if (inspect.isfunction(fn) and not name.startswith("_") and name not in skip
                and fn.__module__ == ops.__name__):
            found.append((ops, name, f"ops.{name}",
                          _matmul_flops if name == "matmul" else None, False))
    named = [
        (pooling, "pyramid_pool", _pool_bytes), (pooling, "pyramid_pool_backward", None),
        (network, "forward", None), (network, "backward", None), (network, "build_model", None),
        (gradcheck, "run_manifest", None), (gradcheck, "finite_diff_grad", None),
        (dpt, "read_dpt", _result_bytes), (dpt, "write_dpt", _written_bytes),
        (dpt, "read_tensor", None),
        (harness, "attn_report", None), (harness, "equivalence_report", None),
    ]
    for module, name, work in named:
        if hasattr(module, name):
            found.append((module, name, f"{module.__name__.split('.')[-1]}.{name}", work, False))
    for name in ATTENTION_FNS:
        if hasattr(attention, name):
            found.append((attention, name, f"attention.{name}", None, True))
    if hasattr(gradcheck, "check_module"):
        found.append((gradcheck, "check_module", _check_label, None, False))
    if hasattr(Rng, "fill_uniform"):
        found.append((Rng, "fill_uniform", "rng.fill_uniform", None, False))
    return found


def _poolattn_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "poolattn" or n.startswith("poolattn."))]


@contextmanager
def rebound(replacements):
    """Swap each (owner, attribute, stand-in) everywhere the original is bound; restore on exit.

    A class attribute is swapped on the class. A module function is swapped
    in every loaded poolattn module that holds the same object.
    """
    undo = []
    modules = _poolattn_modules()
    try:
        for owner, attr, stand_in in replacements:
            original = getattr(owner, attr)
            if isinstance(owner, type):
                undo.append((owner, attr, original))
                setattr(owner, attr, stand_in)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        undo.append((module, key, original))
                        setattr(module, key, stand_in)
        yield
    finally:
        for owner, key, original in reversed(undo):
            setattr(owner, key, original)


@contextmanager
def installed(tracer: Tracer):
    """Trace every public layer function for the duration of the block."""
    with rebound([(owner, attr, tracer.wrap(getattr(owner, attr), label, work, count_flops))
                  for owner, attr, label, work, count_flops in _targets()]):
        yield tracer


def layer_metrics(tracer: Tracer, passes: int) -> tuple[dict, list[dict]]:
    """Per-layer figures per traced pass, plus the exact counts of each pass.

    Self time is a span's duration minus the time its children cover; the
    root's self time is `unattributed_ms`, so layer self times plus it add
    up to the traced pass time.
    """
    names = np.array(tracer.names, dtype=object)
    # Only spans inside a pass count; work between passes (building the next
    # inputs) is the benchmark's, not the workload's.
    keep = np.frombuffer(tracer.call, dtype=np.int64) >= 0
    remap = np.cumsum(keep) - 1
    nid = np.frombuffer(tracer.name_id, dtype=np.int32)[keep]
    start = np.frombuffer(tracer.start, dtype=np.float64)[keep]
    dur = np.frombuffer(tracer.end, dtype=np.float64)[keep] - start
    parent = np.frombuffer(tracer.parent, dtype=np.int64)[keep]
    parent = np.where(parent >= 0, remap[np.maximum(parent, 0)], -1)
    call = np.frombuffer(tracer.call, dtype=np.int64)[keep]
    work = np.frombuffer(tracer.work, dtype=np.float64)[keep]
    n = len(dur)
    has_parent = parent >= 0
    child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
    self_time = dur - child_time

    k = len(names)
    calls = np.bincount(nid, minlength=k)
    total = np.bincount(nid, weights=dur, minlength=k) * 1e3
    selfms = np.bincount(nid, weights=self_time, minlength=k) * 1e3
    wsum = np.bincount(nid, weights=work, minlength=k)
    by = {str(names[i]): (int(calls[i]), total[i], selfms[i], wsum[i]) for i in range(k)}

    def get(name):
        return by.get(name, (0, 0.0, 0.0, 0.0))

    def rate(name, scale):
        c, ms, _, w = get(name)
        return w / scale / (ms / 1e3) if ms > 0 else 0.0

    m: dict[str, float] = {}
    for name in ("matmul", "softmax_rows", "conv2d_same", "conv2d_same_backward",
                 "adaptive_avg_pool2d"):
        c, ms, _, _ = get(f"ops.{name}")
        m[f"ops.{name}.ms"] = ms / passes
        if name in ("matmul", "adaptive_avg_pool2d"):
            m[f"ops.{name}.calls"] = c / passes
    m["ops.matmul.gflops"] = rate("ops.matmul", 1e9)
    for name in ("pyramid_pool", "pyramid_pool_backward"):
        c, ms, _, _ = get(f"pooling.{name}")
        m[f"pooling.{name}.calls"] = c / passes
        m[f"pooling.{name}.ms"] = ms / passes
    m["pooling.pyramid_pool.mb_read"] = get("pooling.pyramid_pool")[3] / 1e6 / passes
    for name in ATTENTION_FNS:
        c, ms, sm, _ = get(f"attention.{name}")
        m[f"attention.{name}.calls"] = c / passes
        m[f"attention.{name}.ms"] = ms / passes
        m[f"attention.{name}.self_ms"] = sm / passes
        m[f"attention.{name}.gflops"] = rate(f"attention.{name}", 1e9)
    for name in ("forward", "backward"):
        c, ms, sm, _ = get(f"network.{name}")
        m[f"network.{name}.calls"] = c / passes
        m[f"network.{name}.ms"] = ms / passes
        m[f"network.{name}.self_ms"] = sm / passes
    for kind in ("nonlocal", "spa", "cpa", "network"):
        m[f"gradcheck.check_module.{kind}.ms"] = get(f"gradcheck.check_module.{kind}")[1] / passes
    for name in ("read_dpt", "write_dpt"):
        m[f"dpt.{name}.ms"] = get(f"dpt.{name}")[1] / passes
        m[f"dpt.{name}.mb_s"] = rate(f"dpt.{name}", 1e6)
    c, ms, _, _ = get("rng.fill_uniform")
    m["rng.fill_uniform.calls"] = c / passes
    m["rng.fill_uniform.ms"] = ms / passes
    for name in ("harness.attn_report", "harness.equivalence_report",
                 "gradcheck.run_manifest"):
        m[f"{name}.ms"] = get(name)[1] / passes

    layer_of = np.array([str(x).split(".")[0] for x in names], dtype=object)
    for layer in LAYERS:
        m[f"layer.{layer}.self_ms"] = float(selfms[layer_of == layer].sum()) / passes
    root_ms = get(ROOT)[1]
    m["unattributed_ms"] = get(ROOT)[2] / passes
    attributed = sum(m[f"layer.{layer}.self_ms"] for layer in LAYERS) + m["unattributed_ms"]
    m["trace.accounted_share"] = attributed * passes / root_ms if root_ms > 0 else 0.0
    m["trace.pass_ms"] = root_ms / passes
    return m, _pass_counts(names, nid, parent, call, passes)


def _pass_counts(names, nid, parent, call, passes) -> list[dict]:
    """Counts of each pass, which must repeat exactly from pass to pass."""
    table = [str(x) for x in names]

    def flag(pred):
        return np.array([pred(x) for x in table], dtype=bool)[nid]

    is_ops = flag(lambda x: x.startswith("ops."))
    is_spa = flag(lambda x: x in ("attention.spa_forward", "attention.spa_backward"))
    is_fwd = flag(lambda x: x in FORWARD_NAMES)
    is_fd = flag(lambda x: x == "gradcheck.finite_diff_grad")
    under_fd = np.zeros(len(nid), dtype=bool)
    has_parent = parent >= 0
    under_fd[has_parent] = is_fd[parent[has_parent]]
    return [{"ops.calls_per_pass": int((in_pass & is_ops).sum()),
             "attention.spa_evals_per_pass": int((in_pass & is_spa).sum()),
             "gradcheck.loss_evals": int((in_pass & is_fwd & under_fd).sum())}
            for in_pass in (call == p for p in range(passes))]
