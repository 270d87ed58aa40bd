import numpy as np
import pytest

from poolattn import ops
from poolattn.attention import SpaMode
from poolattn.errors import ConfigurationError, TrainingDivergenceError
from poolattn.network import (TrainConfig, backward, build_model, forward,
                              pixel_accuracy, poly_lr, synth_dataset, train)
from poolattn.pooling import TOY_EVEN_MATCHED, TOY_ODD_MATCHED, PyramidSpec

# Regression baseline of the pinned demo configuration (seed 7, 16x16, 300 steps,
# lr 0.05, momentum 0.9, 4 samples, full batch). The 300 steps amplify rounding: a
# one-ulp change in one stem weight moves the final loss by 3%, so a change in the
# order of any sum re-pins these.
PINNED_FINAL_LOSS = 0.00012066171768775996
PINNED_ACCURACY = 1.0
PINNED_LAMBDA = -0.987980482605112
PINNED_MU = -0.44564747579589137


def pinned_run():
    model = build_model(7)
    data = synth_dataset(7, 4, 16)
    cfg = TrainConfig(lr=0.05, momentum=0.9, steps=300, batch=4)
    return train(model, data, cfg), model


# --- synthetic data -----------------------------------------------------------

def test_synth_dataset_deterministic():
    a = synth_dataset(3, 5, 16)
    b = synth_dataset(3, 5, 16)
    for sa, sb in zip(a, b):
        assert np.array_equal(sa.image, sb.image)
        assert np.array_equal(sa.labels, sb.labels)


def test_synth_dataset_empty():
    assert synth_dataset(1, 0, 16) == []


def test_synth_dataset_object_fraction_bounds():
    for sample in synth_dataset(7, 100, 32):
        frac = sample.labels.mean()
        assert 0.10 <= frac <= 0.60
        assert set(np.unique(sample.labels)) <= {0, 1}


def test_synth_dataset_rejects_tiny_size():
    with pytest.raises(ConfigurationError):
        synth_dataset(1, 1, 4)


# --- forward ---------------------------------------------------------------------

def test_forward_gate_closed_reduces_to_fused_stem():
    model = build_model(5)
    image = synth_dataset(5, 1, 16)[0].image
    logits = forward(model, image)
    pre1 = ops.conv2d_same(image, model.stem_w1)
    feats = np.maximum(ops.conv2d_same(np.maximum(pre1, 0.0), model.stem_w2), 0.0)
    cat = np.concatenate([feats, feats], axis=0)
    expected = ops.matmul(model.fuse_w, cat.reshape(len(cat), -1)).reshape(2, 16, 16)
    assert np.array_equal(logits, expected)


def test_forward_preserves_spatial_size():
    model = build_model(6)
    image = synth_dataset(6, 1, 16)[0].image
    assert forward(model, image).shape == (2, 16, 16)


def test_forward_bitwise_reproducible():
    image = synth_dataset(8, 1, 16)[0].image
    a = forward(build_model(8), image)
    b = forward(build_model(8), image)
    assert np.array_equal(a, b)


def test_backward_matches_finite_difference_on_gates():
    model = build_model(9, channels=8, odd_spec=PyramidSpec((1, 3)))
    params = model.params
    params["lam"][...], params["mu"][...] = 0.4, -0.3
    image = synth_dataset(9, 1, 8)[0].image
    probe = np.ones((2, 8, 8))
    grads = backward(model, image, probe)
    h = 1e-6
    for name in ("lam", "mu"):
        orig = float(params[name])
        params[name][...] = orig + h
        up = float(np.sum(probe * forward(model, image)))
        params[name][...] = orig - h
        down = float(np.sum(probe * forward(model, image)))
        params[name][...] = orig
        assert abs((up - down) / (2 * h) - grads[name]) < 1e-6


# --- training ----------------------------------------------------------------------

def test_poly_lr_endpoints():
    assert poly_lr(0.05, 0, 300) == pytest.approx(0.05)
    assert poly_lr(0.05, 300, 300) == 0.0
    assert 0.0 < poly_lr(0.05, 150, 300) < 0.05


def test_train_with_poly_decay_converges():
    model = build_model(11)
    data = synth_dataset(11, 4, 16)
    report = train(model, data, TrainConfig(lr=0.05, momentum=0.9, steps=60,
                                            poly_power=0.9, batch=4))
    assert report.loss_curve[-1] < report.loss_curve[0]
    assert len(report.loss_curve) == 60


def test_train_zero_lr_keeps_params_and_accuracy():
    model = build_model(4)
    before = {name: arr.copy() for name, arr in model.params.items()}
    data = synth_dataset(4, 2, 16)
    acc_before = pixel_accuracy(model, data)
    report = train(model, data, TrainConfig(lr=0.0, momentum=0.9, steps=1, batch=2))
    for name, arr in model.params.items():
        assert np.array_equal(arr, before[name]), name
    assert model.spa.lam == 0.0 and model.cpa.mu == 0.0
    assert report.pixel_accuracy == acc_before


def test_untrained_accuracy_near_chance_over_seeds():
    accs = []
    for seed in range(8):
        model = build_model(seed)
        accs.append(pixel_accuracy(model, synth_dataset(seed + 100, 4, 16)))
    assert 0.3 <= float(np.mean(accs)) <= 0.7


def test_gates_start_at_zero_and_move_when_loss_drops():
    model = build_model(21)
    assert model.spa.lam == 0.0 and model.cpa.mu == 0.0
    data = synth_dataset(21, 4, 16)
    report = train(model, data, TrainConfig(lr=0.02, momentum=0.5, steps=20, batch=4))
    assert report.loss_curve[-1] < report.loss_curve[0]
    assert abs(report.lambda_final) > 0.0
    assert abs(report.mu_final) > 0.0
    assert report.lambda_curve[0] != 0.0  # the very first step already moves the gate


def test_pinned_run_regression_values():
    report, _ = pinned_run()
    assert report.pixel_accuracy == PINNED_ACCURACY
    assert report.final_loss == pytest.approx(PINNED_FINAL_LOSS, rel=1e-6)
    assert report.lambda_final == pytest.approx(PINNED_LAMBDA, rel=1e-6)
    assert report.mu_final == pytest.approx(PINNED_MU, rel=1e-6)


def test_pinned_run_loss_windows_decrease():
    report, _ = pinned_run()
    windows = [float(np.mean(report.loss_curve[i:i + 10])) for i in range(0, 300, 10)]
    assert all(b < a for a, b in zip(windows, windows[1:]))


def test_divergence_reports_step():
    model = build_model(3)
    data = synth_dataset(3, 2, 16)
    with pytest.raises(TrainingDivergenceError, match="step"):
        train(model, data, TrainConfig(lr=1e100, momentum=0.9, steps=10, batch=2))


def test_train_config_validation():
    with pytest.raises(ConfigurationError):
        TrainConfig(lr=0.1, momentum=0.9, steps=0)
    with pytest.raises(ConfigurationError):
        TrainConfig(lr=0.1, momentum=1.0, steps=1)


@pytest.mark.parametrize("rates", [{"lr": np.nan}, {"lr": np.inf}, {"lr": -np.inf},
                                   {"lr": 0.1, "poly_power": np.nan},
                                   {"lr": 0.1, "poly_power": np.inf}])
def test_train_config_rejects_non_finite_rates(rates):
    with pytest.raises(ConfigurationError, match="must be finite"):
        TrainConfig(momentum=0.9, steps=1, **rates)


def test_build_model_mixed_mode_needs_both_pyramids():
    # The matched toy pair is the train demo's choice, not a library default.
    for specs in ({}, {"odd_spec": TOY_ODD_MATCHED}):
        with pytest.raises(ConfigurationError, match="mixed mode needs both"):
            build_model(4, spa_mode=SpaMode.MIXED, **specs)
    model = build_model(4, spa_mode=SpaMode.MIXED, odd_spec=TOY_ODD_MATCHED,
                        even_spec=TOY_EVEN_MATCHED)
    assert (model.spa.k_spec, model.spa.v_spec) == (TOY_EVEN_MATCHED, TOY_ODD_MATCHED)


def test_train_rejects_undersized_images():
    model = build_model(2, odd_spec=PyramidSpec((1, 3, 9)))  # needs >= 9 pixels
    data = synth_dataset(2, 1, 8)
    with pytest.raises(ConfigurationError, match="image size 8 is below"):
        train(model, data, TrainConfig(lr=0.1, momentum=0.0, steps=1, batch=1))
