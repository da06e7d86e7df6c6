"""Optimizer, metric, finite-difference, and synthetic-data tests."""

import numpy as np
import pytest

from hot.model import HeadConfig, HOTBlockConfig, HOTModel, ModelConfig, PatchEmbedConfig, RotaryConfig
from hot.train import (
    NonFiniteGradientError,
    OptimState,
    SyntheticTaskSpec,
    accuracy,
    adam_init,
    adam_step,
    cross_entropy,
    finite_diff_check,
    gen_synthetic,
    mae,
    mse,
    train_linear_readout,
    train_model,
)


class TestAdam:
    def test_zero_gradient_leaves_params_unchanged(self):
        params = {"w": np.array([1.0, -2.0])}
        state = adam_init(params, lr=0.1)
        out = adam_step(state, {"w": np.zeros(2)}, params)
        assert np.array_equal(out["w"], params["w"])

    def test_first_step_magnitude(self):
        # bias correction makes the first update ~ lr * g / (|g| + eps)
        params = {"w": np.array([0.0])}
        state = adam_init(params, lr=0.1)
        out = adam_step(state, {"w": np.array([1.0])}, params)
        assert out["w"][0] == pytest.approx(-0.1, rel=1e-6)

    def test_two_optimizers_same_stream_identical(self):
        rng1 = np.random.default_rng(0)
        rng2 = np.random.default_rng(0)
        p1 = {"w": np.zeros(4)}
        p2 = {"w": np.zeros(4)}
        s1 = adam_init(p1, lr=0.05)
        s2 = adam_init(p2, lr=0.05)
        for _ in range(10):
            g1 = rng1.standard_normal(4)
            g2 = rng2.standard_normal(4)
            p1 = adam_step(s1, {"w": g1}, p1)
            p2 = adam_step(s2, {"w": g2}, p2)
        assert np.array_equal(p1["w"], p2["w"])

    def test_nan_gradient_aborts_with_diagnostics(self):
        params = {"bad_layer": np.zeros(2)}
        state = adam_init(params)
        with pytest.raises(NonFiniteGradientError, match="bad_layer"):
            adam_step(state, {"bad_layer": np.array([np.nan, 0.0])}, params)

    def test_defaults(self):
        state = OptimState()
        assert state.lr == 2e-4
        assert (state.beta1, state.beta2, state.eps) == (0.9, 0.999, 1e-8)


class TestMetrics:
    def test_mse_zero_iff_exact(self):
        x = np.random.default_rng(0).standard_normal((3, 4))
        assert mse(x, x) == 0.0
        assert mse(x, x + 1e-3) > 0.0

    def test_mae_nonnegative(self):
        rng = np.random.default_rng(1)
        p = rng.standard_normal(20)
        t = rng.standard_normal(20)
        assert mae(p, t) >= 0
        assert mae(t, t) == 0.0

    def test_cross_entropy_uniform_logits(self):
        logits = np.zeros((5, 7))
        labels = np.arange(5) % 7
        assert cross_entropy(logits, labels) == pytest.approx(np.log(7), abs=1e-12)

    def test_cross_entropy_label_range(self):
        with pytest.raises(ValueError):
            cross_entropy(np.zeros((2, 3)), np.array([0, 3]))

    def test_accuracy(self):
        logits = np.array([[2.0, 1.0], [0.0, 3.0]])
        assert accuracy(logits, np.array([0, 1])) == 1.0
        assert accuracy(logits, np.array([1, 0])) == 0.0

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError):
            mse(np.zeros(0), np.zeros(0))


class TestFiniteDiff:
    def test_quadratic_is_exact_to_roundoff(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(30)

        def f(p):
            return float(np.sum(p["x"] ** 2) / 2)

        err = finite_diff_check(f, {"x": x}, {"x": x.copy()}, rng=rng)
        assert err <= 1e-9

    def test_corrupted_adjoint_detected(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal(30)

        def f(p):
            return float(np.sum(p["x"] ** 2) / 2)

        err = finite_diff_check(f, {"x": x}, {"x": x * 1.1 + 0.05}, rng=rng)
        assert err > 1e-2

    def test_coordinate_subsampling(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(500)
        calls = {"n": 0}

        def f(p):
            calls["n"] += 1
            return float(np.sum(p["x"] ** 2) / 2)

        finite_diff_check(f, {"x": x}, {"x": x.copy()}, rng=rng, min_coords=64)
        assert calls["n"] == 2 * 64

    def test_non_finite_loss_rejected(self):
        def f(p):
            return float("nan")

        with pytest.raises(ValueError):
            finite_diff_check(f, {"x": np.ones(3)}, {"x": np.ones(3)})


class TestSyntheticData:
    def test_same_seed_bit_identical(self):
        spec = SyntheticTaskSpec(kind="separable-spatiotemporal-forecast",
                                 n_train=8, n_val=4, seed=3)
        a = gen_synthetic(spec)
        b = gen_synthetic(spec)
        assert np.array_equal(a.train_x, b.train_x)
        assert np.array_equal(a.train_y, b.train_y)
        assert np.array_equal(a.val_x, b.val_x)

    def test_noise_zero_targets_reproducible_from_inputs(self):
        # with zero noise the inputs are the clean series, so the documented
        # target formula applied to them must reproduce the stored targets
        from hot.train import _forecast_structure, forecast_targets

        spec = SyntheticTaskSpec(kind="separable-spatiotemporal-forecast",
                                 n_train=4, n_val=2, seed=9, noise=0.0)
        data = gen_synthetic(spec)
        structure = _forecast_structure(spec, np.random.default_rng(spec.seed))
        for i in range(4):
            y = forecast_targets(data.train_x[i], structure, spec.horizon)
            assert np.abs(y - data.train_y[i]).max() <= 1e-12

    def test_classify_volume_and_labels(self):
        spec = SyntheticTaskSpec(kind="cross-mode-voxel-classify",
                                 n_train=16, n_val=8, seed=1, volume=(6, 6, 6),
                                 num_classes=3)
        data = gen_synthetic(spec)
        assert data.train_x.shape == (16, 6, 6, 6)
        assert data.train_y.shape == (16,)
        assert set(np.unique(data.train_y)) <= {0, 1, 2}

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            SyntheticTaskSpec(kind="nope")


def tiny_forecast_model(seed=0, mask=()):
    cfg = ModelConfig(
        raw_dims=(16, 4),
        patch=PatchEmbedConfig((4, 1)),
        rotary=RotaryConfig(modes=(0,)),
        block=HOTBlockConfig(dims=(4, 4), d_model=8, heads=2, ffn_dim=16, mode_mask=mask),
        num_blocks=1,
        head=HeadConfig(task="forecast", pooling="flatten", horizon=4, n_series=4),
    )
    return HOTModel.initialize(cfg, seed=seed)


class TestTrainingLoop:
    def test_loss_halves_in_200_steps_every_seed(self):
        spec = SyntheticTaskSpec(kind="separable-spatiotemporal-forecast",
                                 n_train=64, n_val=16, seed=2, t_len=16, n_series=4,
                                 horizon=4)
        data = gen_synthetic(spec)
        for seed in range(5):
            model = tiny_forecast_model(seed=seed)
            init_mse = mse(model.predict(data.train_x), data.train_y)
            res = train_model(model, data, steps=200, batch_size=16, lr=5e-3, seed=seed)
            assert res.final_train_mse <= 0.5 * init_mse, seed

    def test_training_is_deterministic(self):
        spec = SyntheticTaskSpec(kind="separable-spatiotemporal-forecast",
                                 n_train=32, n_val=8, seed=4, t_len=16, n_series=4,
                                 horizon=4)
        data = gen_synthetic(spec)
        r1 = train_model(tiny_forecast_model(seed=1), data, steps=30, batch_size=8,
                         lr=3e-3, seed=7)
        r2 = train_model(tiny_forecast_model(seed=1), data, steps=30, batch_size=8,
                         lr=3e-3, seed=7)
        assert r1.final_train_mse == r2.final_train_mse
        assert [row[:4] for row in r1.history] == [row[:4] for row in r2.history]

    def test_selection_rule_steps_reported(self):
        spec = SyntheticTaskSpec(kind="separable-spatiotemporal-forecast",
                                 n_train=32, n_val=8, seed=5, t_len=16, n_series=4,
                                 horizon=4)
        data = gen_synthetic(spec)
        res = train_model(tiny_forecast_model(seed=2), data, steps=40, batch_size=8,
                          lr=3e-3, seed=0, eval_every=10)
        assert 1 <= res.best_val_mae_step <= 40
        assert 1 <= res.best_val_mse_step <= 40

    @pytest.mark.parametrize("kwargs", [
        {"steps": -1}, {"batch_size": 0}, {"eval_every": 0}, {"eval_every": -3},
    ], ids=["steps--1", "batch_size-0", "eval_every-0", "eval_every--3"])
    def test_out_of_range_arguments_raise_before_any_work(self, kwargs, monkeypatch):
        spec = SyntheticTaskSpec(kind="separable-spatiotemporal-forecast",
                                 n_train=8, n_val=4, seed=8, t_len=16, n_series=4, horizon=4)
        data = gen_synthetic(spec)
        model = tiny_forecast_model(seed=3)
        before = {k: v.copy() for k, v in model.params.items()}
        monkeypatch.setattr(HOTModel, "predict", lambda *a: pytest.fail("predict ran"))
        args = {"steps": 3, "batch_size": 4, "eval_every": 1} | kwargs
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            train_model(model, data, **args)
        assert all(np.array_equal(model.params[k], v) for k, v in before.items())

    def test_zero_steps_trains_nothing(self):
        spec = SyntheticTaskSpec(kind="separable-spatiotemporal-forecast",
                                 n_train=8, n_val=4, seed=8, t_len=16, n_series=4, horizon=4)
        data = gen_synthetic(spec)
        model = tiny_forecast_model(seed=3)
        res = train_model(model, data, steps=0, batch_size=4)
        assert res.history == []
        assert res.final_train_mse == mse(model.predict(data.train_x), data.train_y)

    def test_linear_readout_baseline_runs(self):
        spec = SyntheticTaskSpec(kind="separable-spatiotemporal-forecast",
                                 n_train=32, n_val=8, seed=6, t_len=16, n_series=4,
                                 horizon=4)
        data = gen_synthetic(spec)
        val = train_linear_readout(data, steps=50, batch_size=8, lr=5e-3, seed=0)
        assert np.isfinite(val) and val >= 0

    def test_classification_training_runs(self):
        spec = SyntheticTaskSpec(kind="cross-mode-voxel-classify",
                                 n_train=32, n_val=8, seed=7, volume=(4, 4, 4),
                                 num_classes=2, noise=0.3)
        data = gen_synthetic(spec)
        cfg = ModelConfig(
            raw_dims=(4, 4, 4),
            patch=PatchEmbedConfig((2, 2, 2)),
            rotary=RotaryConfig(modes=(0, 1, 2)),
            block=HOTBlockConfig(dims=(2, 2, 2), d_model=8, heads=2, ffn_dim=16),
            num_blocks=1,
            head=HeadConfig(task="classify", pooling="mean", num_classes=2),
        )
        model = HOTModel.initialize(cfg, seed=0)
        res = train_model(model, data, steps=40, batch_size=8, lr=3e-3, seed=0)
        assert np.isfinite(res.final_train_mse)
