"""The module protocol: live `params`, gradients keyed like them, one forward per sample."""

import dataclasses
import importlib
import inspect
import pkgutil
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import poolattn
from poolattn import attention, gradcheck, network, ops, pooling
from poolattn.attention import (CpaMode, CpaModule, SpaMode, cpa_backward, cpa_forward,
                                init_projection, nonlocal_backward, nonlocal_forward,
                                spa_backward, spa_forward, spa_module)
from poolattn.errors import DimensionError
from poolattn.network import TrainConfig, build_model, synth_dataset, train
from poolattn.pooling import PyramidSpec
from poolattn.rng import Rng


def _mechanisms(rng, c, chat, spec, x):
    """(name, params, forward(), backward(g)) for non-local, SPA in every mode, CPA +/- proj."""
    proj = init_projection(rng, c, chat)
    lam = np.array(0.7)
    cases = [("nonlocal", {**proj.params, "lam": lam},
              lambda: nonlocal_forward(x, proj, lam)[0],
              lambda g: nonlocal_backward(x, proj, lam, g))]
    for mode in SpaMode:
        m = spa_module(init_projection(rng, c, chat), mode, odd_spec=spec, even_spec=spec,
                       lam=0.7)
        cases.append((f"spa-{mode.value}", m.params, lambda m=m: spa_forward(x, m)[0],
                      lambda g, m=m: spa_backward(x, m, g)))
    for cpa_proj in (None, init_projection(rng, c)):
        m = CpaModule(cpa_proj, CpaMode.SQUARE, 0.7)
        cases.append((f"cpa-proj={cpa_proj is not None}", m.params,
                      lambda m=m: cpa_forward(x, m)[0], lambda g, m=m: cpa_backward(x, m, g)))
    return cases


@st.composite
def _shapes(draw):
    c = draw(st.integers(1, 4))
    chat = draw(st.integers(1, c))
    h = draw(st.integers(2, 7))
    w = draw(st.integers(2, 7).filter(lambda v: v != h))
    sizes = draw(st.lists(st.integers(1, min(h, w)), min_size=1, max_size=3, unique=True))
    return c, chat, h, w, PyramidSpec(tuple(sorted(sizes)))


@settings(max_examples=25, deadline=None)
@given(_shapes(), st.integers(0, 2**32 - 1))
def test_backward_keys_and_shapes_match_params(shape, seed):
    c, chat, h, w, spec = shape
    rng = Rng(seed)
    x = rng.fill_uniform((c, h, w), 1.0)
    g = rng.fill_uniform((c, h, w), 1.0)
    for name, params, _, backward in _mechanisms(rng, c, chat, spec, x):
        grads = backward(g)
        assert set(grads) == set(params) | {"x"}, name
        assert grads["x"].shape == x.shape, name
        for key, p in params.items():
            assert grads[key].shape == p.shape, (name, key)
        assert params["lam" if "lam" in params else "mu"].shape == ()


@settings(max_examples=5, deadline=None)
@given(st.integers(1, 4), st.integers(5, 8), st.integers(0, 2**32 - 1))
def test_network_backward_keys_and_shapes_match_params(channels, size, seed):
    model = build_model(seed, channels=channels, odd_spec=PyramidSpec((1, 3)))
    rng = Rng(seed)
    image = rng.fill_uniform((3, size, size), 1.0)
    grads = network.backward(model, image, rng.fill_uniform((model.classes, size, size), 1.0))
    params = model.params
    assert set(grads) == set(params) | {"image"}
    assert grads["image"].shape == image.shape
    for key, p in params.items():
        assert grads[key].shape == p.shape, key


def test_in_place_param_write_changes_next_forward():
    rng = Rng(3)
    x = rng.fill_uniform((3, 5, 4), 1.0)
    for name, params, forward, _ in _mechanisms(rng, 3, 2, PyramidSpec((1, 2)), x):
        for key, p in params.items():
            before = forward()
            p[...] += 0.25
            assert not np.array_equal(forward(), before), (name, key)

    image = synth_dataset(4, 1, 8)[0].image
    for key in build_model(4).params:
        model = build_model(4)
        model.spa.lam[...] = model.cpa.mu[...] = 0.5   # open gates, so branch weights matter
        before = network.forward(model, image)
        model.params[key][...] += 0.25
        assert not np.array_equal(network.forward(model, image), before), key


def test_fields_are_fixed_and_params_stay_live():
    rng = Rng(5)
    x = rng.fill_uniform((3, 5, 4), 1.0)
    spec = PyramidSpec((1, 2))
    spa = spa_module(init_projection(rng, 3, 2), SpaMode.ONLY_ODD, odd_spec=spec, lam=0.7)
    cpa = CpaModule(init_projection(rng, 3), CpaMode.SQUARE, 0.7)
    model = build_model(5, channels=3, odd_spec=spec)
    report = network.TrainedReport(1.0, 0.5, 0.0, 0.0, [1.0], [0.0], [0.0])
    for obj in (spa, cpa, model, report):
        for field in dataclasses.fields(obj):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(obj, field.name, getattr(obj, field.name))
    image = synth_dataset(5, 1, 8)[0].image
    for forward, gate in ((lambda: spa_forward(x, spa)[0], spa.params["lam"]),
                          (lambda: cpa_forward(x, cpa)[0], cpa.params["mu"]),
                          (lambda: network.forward(model, image), model.params["lam"])):
        before = forward()
        gate[...] += 0.25
        assert not np.array_equal(forward(), before)


def _package_dataclasses() -> dict[str, type]:
    classes = {}
    for info in pkgutil.iter_modules(poolattn.__path__):
        if info.name == "__main__":                     # importing it runs the CLI
            continue
        module = importlib.import_module(f"poolattn.{info.name}")
        classes.update((f"{module.__name__}.{name}", obj) for name, obj in vars(module).items()
                       if isinstance(obj, type) and dataclasses.is_dataclass(obj)
                       and obj.__module__ == module.__name__)
    return classes


def test_every_dataclass_in_the_package_is_frozen():
    classes = _package_dataclasses()
    assert {"poolattn.attention.SpaModule", "poolattn.attention.CpaModule",
            "poolattn.network.DpaNetMini", "poolattn.network.TrainedReport"} <= set(classes)
    assert [name for name, cls in classes.items()
            if not cls.__dataclass_params__.frozen] == []


def test_every_dataclass_that_holds_arrays_compares_by_identity():
    # The generated value == and hash cannot compare array fields: a record that holds
    # an array is its object.
    holding = {name: cls for name, cls in _package_dataclasses().items()
               if any("ndarray" in str(f.type) for f in dataclasses.fields(cls))}
    assert {"poolattn.attention.ProjectionWeights", "poolattn.attention.SpaModule",
            "poolattn.attention.CpaModule", "poolattn.attention._KeptForward",
            "poolattn.network.DpaNetMini", "poolattn.network.SynthSample",
            "poolattn.pooling._PoolPlan"} == set(holding)
    assert [name for name, cls in holding.items() if cls.__dataclass_params__.eq] == []


def _record(name):
    """A newly built public record that holds arrays; each call gives the same values."""
    rng = Rng(6)
    spec = PyramidSpec((1, 2))
    return {
        "ProjectionWeights": lambda: init_projection(rng, 3),
        "SpaModule": lambda: spa_module(init_projection(rng, 3, 2), SpaMode.ONLY_ODD,
                                        odd_spec=spec, lam=0.7),
        "CpaModule": lambda: CpaModule(None, CpaMode.SUBTRACT, 0.5),
        "DpaNetMini": lambda: build_model(6, channels=3, odd_spec=spec),
        "SynthSample": lambda: synth_dataset(6, 1, 8)[0],
    }[name]()


@pytest.mark.parametrize("name", ["ProjectionWeights", "SpaModule", "CpaModule",
                                  "DpaNetMini", "SynthSample"])
def test_a_record_that_holds_arrays_is_its_object(name):
    a, twin = _record(name), _record(name)
    assert a == a and a != twin
    assert hash(a) == object.__hash__(a)
    assert a in {a} and twin not in {a}


def test_train_step_runs_each_stage_once_per_sample(monkeypatch):
    """Stem, SPA and CPA stages each run once per sample: backward reuses the forward cache.

    Each stage is counted by a call that only its forward makes: the stem by
    its two conv2d_same, SPA by its pyramid pool (one: keys and values share the
    only-odd pyramid), CPA by cpa_stages. The final pixel-accuracy sweep is a
    separate evaluation and is stubbed out.
    """
    batch = 4
    calls = Counter()
    for owner, name in ((ops, "conv2d_same"), (attention, "pyramid_pool"),
                        (network, "cpa_stages")):
        def counted(*args, _fn=getattr(owner, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(owner, name, counted)
    monkeypatch.setattr(network, "pixel_accuracy", lambda model, data: 0.0)
    model = build_model(5)
    train(model, synth_dataset(5, batch, 16),
          TrainConfig(lr=0.05, momentum=0.9, steps=1, batch=batch))
    assert calls["conv2d_same"] == 2 * batch
    assert calls["pyramid_pool"] == batch
    assert calls["cpa_stages"] == batch


@pytest.mark.parametrize("label, case, call, counts", [
    ("spa_forward", "spa-onlyodd-c4-6x6", "forward", (2, 4, 6)),
    ("spa_backward", "spa-onlyodd-c4-6x6", "backward", (4, 6, 12)),
    ("cpa_forward", "cpa-subtract-plain-c4-5x5", "forward", (1, 2, 3)),
    ("network.forward", "network-16ch-8x8", "forward", (4, 10, 12)),
    ("network.backward", "network-16ch-8x8", "backward", (8, 17, 24)),
])
def test_checks_run_once_per_stage_not_per_primitive(monkeypatch, label, case, call, counts):
    """(np.errstate entries, _check_dims calls, _finite calls) for one call at a manifest shape.

    A stage enters one errstate, validates its input once and checks each output once.
    While every primitive did all three for itself these read 10/14/10, 22/43/24, 6/7/6
    and 22/29/21, so a per-primitive check that comes back shows here. SPA pools its
    input once when keys and values share a pyramid (3/3/8, 6/5/15 and 5/9/15 while
    it pooled projected keys and values apart). softmax checks its input's two extremes
    without `_finite`, and the fuse layer is one `matmul` (2/2/7, 4/3/13, 1/1/4 and
    4/8/14 while softmax checked them through `_finite` and `conv1x1` checked its input).

    Every entry point checks its operands through `_check_dims`: the projections'
    `w_q` when a case builds them (1), each attention input (1), pooled input (1),
    softmax map and softmax_backward map (1 each), each pool backward (1) and the
    input and weights of each conv, either direction (2). The arrays matched against
    another by `_check_like` (`w_k`, `w_v`, each gradient) are not counted. So SPA's
    forward reads 1+1+1+1, its backward that, 1 and 1, CPA's 1+1, the network's
    forward 1+4+3+2 and its backward that, 1+1 for SPA, 1 for CPA and 2+2 for the
    convs. The middle column read 6, 7, 2 and 12 while the projections ran
    `_check_dims` on all three matrices and softmax_backward tested its map apart
    from it; 2, 3, 1 and 7 before that, while softmax and the projections tested
    their operands apart from `_check_dims`.
    """
    seen = Counter()

    class CountingErrstate(np.errstate):
        def __enter__(self):
            seen["errstate"] += 1
            return super().__enter__()

    monkeypatch.setattr(np, "errstate", CountingErrstate)
    for name in ("_check_dims", "_finite"):
        real = getattr(ops, name)

        def counted(*args, _real=real, _name=name):
            seen[_name] += 1
            return _real(*args)

        for module in (ops, pooling, attention, network):
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, counted)
    kind, config = next((k, c) for n, k, c in gradcheck.MANIFEST if n == case)
    _, forward, backward, out_shape = gradcheck._CASES[kind](config, Rng(0), 0)
    grad = Rng(1).fill_uniform(out_shape, 1.0)
    forward() if call == "forward" else backward(grad)
    assert (seen["errstate"], seen["_check_dims"], seen["_finite"]) == counts, label


_PROJ = init_projection(Rng(3), 2)
_SPEC = PyramidSpec((1, 2))
_W = np.ones((3, 2, 3, 3))

# One row per array an entry point takes: (the entry point, the operand's name in its
# errors, the rule that checks it, a good shape, a call on that operand). The operand
# rule, `ops._check_dims`, states a rank; the matching rule, `ops._check_like`, the
# shape and dtype of the operand the array pairs with, float64 here.
_OPERANDS = {
    "softmax": (ops.softmax, "softmax", "dims", (3, 4), lambda a: ops.softmax(a, axis=1)),
    "pyramid_pool": (pooling.pyramid_pool, "pyramid_pool", "dims", (2, 4, 4),
                     lambda a: pooling.pyramid_pool(a, _SPEC)),
    "pyramid_pool_backward": (pooling.pyramid_pool_backward, "pyramid_pool_backward", "dims",
                              (2, 5), lambda a: pooling.pyramid_pool_backward(a, _SPEC, 4, 4)),
    "spa_forward": (spa_forward, "attention input", "dims", (2, 4, 4),
                    lambda a: spa_forward(a, spa_module(_PROJ, SpaMode.ONLY_ODD,
                                                        odd_spec=_SPEC))),
    "cpa_forward": (cpa_forward, "attention input", "dims", (2, 4, 4),
                    lambda a: cpa_forward(a, CpaModule(_PROJ, CpaMode.SUBTRACT))),
    "nonlocal_forward": (nonlocal_forward, "attention input", "dims", (2, 4, 4),
                         lambda a: nonlocal_forward(a, _PROJ, 0.5)),
    "conv2d_same": (ops.conv2d_same, "conv2d_same", "dims", (2, 4, 4),
                    lambda a: ops.conv2d_same(a, _W)),
    "conv2d_same-weights": (ops.conv2d_same, "conv2d_same weights", "dims", (3, 2, 3, 3),
                            lambda a: ops.conv2d_same(np.ones((2, 4, 4)), a)),
    "cross_entropy_logits": (ops.cross_entropy_logits, "cross_entropy_logits", "dims",
                             (2, 4, 4),
                             lambda a: ops.cross_entropy_logits(a, np.zeros((4, 4), np.int64))),
    "matmul": (ops.matmul, "matmul", "dims", (3, 4), lambda a: ops.matmul(a, np.ones((4, 2)))),
    "matmul-right": (ops.matmul, "matmul", "dims", (4, 2),
                     lambda a: ops.matmul(np.ones((3, 4)), a)),
    "softmax_backward": (ops.softmax_backward, "softmax_backward", "dims", (3, 4),
                         lambda a: ops.softmax_backward(a, np.ones((3, 4)), 0)),
    "softmax_backward-grad": (ops.softmax_backward, "softmax_backward: grad", "like", (3, 4),
                              lambda a: ops.softmax_backward(np.full((3, 4), 1 / 3), a, 0)),
    "conv2d_same_backward": (ops.conv2d_same_backward, "conv2d_same_backward", "dims",
                             (2, 4, 4),
                             lambda a: ops.conv2d_same_backward(a, _W, np.ones((3, 4, 4)))),
    "conv2d_same_backward-weights": (
        ops.conv2d_same_backward, "conv2d_same_backward weights", "dims", (3, 2, 3, 3),
        lambda a: ops.conv2d_same_backward(np.ones((2, 4, 4)), a, np.ones((3, 4, 4)))),
    "conv2d_same_backward-grad_out": (
        ops.conv2d_same_backward, "conv2d_same_backward: grad_out", "like", (3, 4, 4),
        lambda a: ops.conv2d_same_backward(np.ones((2, 4, 4)), _W, a)),
    "sgd_step-grad": (ops.sgd_step, "sgd_step: grad", "like", (2,),
                      lambda a: ops.sgd_step([np.zeros(2)], [a], 0.1, 0.0, [np.zeros(2)])),
    "sgd_step-velocity": (ops.sgd_step, "sgd_step: velocity", "like", (2,),
                          lambda a: ops.sgd_step([np.zeros(2)], [np.zeros(2)], 0.1, 0.0, [a])),
}


@pytest.mark.parametrize("row", list(_OPERANDS))
@pytest.mark.parametrize("fault", ["rank", "zero-dim", "int64"])
def test_every_entry_point_states_its_rank_in_the_one_operand_rule(row, fault):
    # Every array an entry point takes meets the operand rule (float32 or float64, the
    # entry point's rank, every dim >= 1) or the matching rule. Each fault names the
    # entry point's operand and the fault.
    _, op, rule, shape, call = _OPERANDS[row]
    call(np.ones(shape))
    bad, message = {
        "rank": (np.ones(shape + (1,)), f"expected rank-{len(shape)}, got shape {shape + (1,)}"),
        "zero-dim": (np.ones((0, *shape[1:])),
                     f"every dim must be >= 1, got shape {(0, *shape[1:])}"),
        "int64": (np.ones(shape, np.int64), "dtype int64 is not float32/float64"),
    }[fault]
    with pytest.raises(DimensionError) as err:
        call(bad)
    if rule == "like":
        assert str(err.value) == f"{op} is {bad.dtype} {bad.shape}, expected float64 {shape}"
    else:
        assert str(err.value) == f"{op}: {message}"


# The public functions of `ops` and `pooling` that take no array.
_TAKE_NO_ARRAY = {"resolve_dtype", "dtype_name", "init_weight", "parse_spec", "spec_name",
                  "anchor_count", "shared_anchor_count", "bin_edges", "boundary_histogram",
                  "interior_offsets"}


def test_every_public_function_that_takes_an_array_has_an_operand_row():
    # A new entry point of `ops` or `pooling` needs its rows above, or a place in
    # _TAKE_NO_ARRAY when no parameter is annotated as an array.
    takes, takes_none = set(), set()
    for module in (ops, pooling):
        for name, fn in vars(module).items():
            if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                    and not name.startswith("_")):
                params = inspect.signature(fn).parameters.values()
                arrays = any("ndarray" in str(p.annotation) for p in params)
                (takes if arrays else takes_none).add(name)
    assert takes - {fn.__name__ for fn, *_ in _OPERANDS.values()} == set()
    assert takes_none == _TAKE_NO_ARRAY


def _backward(name, rng, x, g, g_net, proj):
    """One mechanism's one-call backward of the 2x4x6 input x given g; the float64
    network's, of a 3x4x6 image (2x4x6 logits), given g_net."""
    spec = PyramidSpec((1, 3))
    return {
        "nonlocal": lambda: nonlocal_backward(x, proj, 0.5, g),
        "spa": lambda: spa_backward(x, spa_module(proj, SpaMode.ONLY_ODD, odd_spec=spec,
                                                  lam=0.5), g),
        "cpa": lambda: cpa_backward(x, CpaModule(None, CpaMode.SUBTRACT, 0.5), g),
        "network": lambda: network.backward(build_model(8, channels=2, odd_spec=spec),
                                            rng.fill_uniform((3, 4, 6), 1.0), g_net),
    }[name]()


@pytest.mark.parametrize("name", ["nonlocal", "spa", "cpa", "network"])
def test_backward_rejects_a_gradient_of_the_wrong_shape(name):
    # A 2x6x4 gradient has the size of a 2x4x6 output but not its shape.
    rng = Rng(8)
    x = rng.fill_uniform((2, 4, 6), 1.0)
    g = rng.fill_uniform((2, 6, 4), 1.0)
    with pytest.raises(DimensionError, match="grad"):
        _backward(name, rng, x, g, g, init_projection(rng, 2))


@pytest.mark.parametrize("name", ["nonlocal", "spa", "cpa", "network"])
def test_backward_rejects_a_gradient_of_the_wrong_dtype(name):
    # A float64 gradient for a float32 input (a float32 one for the float64 network)
    # has the output's shape but not its dtype.
    rng = Rng(8)
    x = rng.fill_uniform((2, 4, 6), 1.0, ops.F32)
    g = rng.fill_uniform((2, 4, 6), 1.0)
    with pytest.raises(DimensionError, match="grad_out is float"):
        _backward(name, rng, x, g, g.astype(ops.F32), init_projection(rng, 2, dtype=ops.F32))
