"""Tests of the benchmark's own machinery: the reference forward and the tracer.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import sys
from pathlib import Path
from time import perf_counter_ns

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import hot.autodiff as ad  # noqa: E402
import hot.model as hm  # noqa: E402
import hot.train as ht  # noqa: E402
from hot.attention import EPS_Z  # noqa: E402
from hot.features import FeatureMapSpec, projection_matrix  # noqa: E402
from hot.model import (HeadConfig, HOTBlockConfig, HOTModel, ModelConfig,  # noqa: E402
                       PatchEmbedConfig, RotaryConfig)
from refmodel import ReferenceForward, relative_error  # noqa: E402
from spans import SELF_LABELS, Tracer  # noqa: E402


def _config(token_dims, variant, pooling, head="mean", task="classify", norm="post",
            blocks=2):
    k = len(token_dims)
    spec = FeatureMapSpec(16, 4, seed=11) if "linear" in variant else None
    if task == "forecast":
        head_cfg = HeadConfig(task="forecast", pooling=head, horizon=2, n_series=token_dims[1])
        patch = (2, 1)
    else:
        head_cfg = HeadConfig(task="classify", pooling=head, num_classes=3)
        patch = (2,) * k
    return ModelConfig(
        raw_dims=tuple(n * p for n, p in zip(token_dims, patch)), patch=PatchEmbedConfig(patch),
        rotary=RotaryConfig(modes=tuple(range(k))),
        block=HOTBlockConfig(dims=tuple(token_dims), d_model=8, heads=2, variant=variant,
                             ffn_dim=16, feature_spec=spec, pooling=pooling,
                             norm_placement=norm),
        num_blocks=blocks, head=head_cfg)


def _model(cfg, seed=0):
    """Initialized weights with non-trivial biases and layer-norm gains."""
    model = HOTModel.initialize(cfg, seed=seed)
    rng = np.random.default_rng(seed + 100)
    for name, value in model.params.items():
        if name.endswith((".b", ".b1", ".b2", ".beta")):
            model.params[name] = 0.1 * rng.standard_normal(value.shape)
        elif name.endswith(".gamma"):
            model.params[name] = 1.0 + 0.1 * rng.standard_normal(value.shape)
    return model


def _reference(cfg, model):
    spec = cfg.block.feature_spec
    return ReferenceForward(cfg, model.params, projection_matrix(spec) if spec else None, EPS_Z)


# Mean pooling keeps the kernel gates of these grids clear of the Z floor.
@pytest.mark.parametrize("token_dims", [(4, 4), (8, 8), (4, 4, 4)])
@pytest.mark.parametrize("variant,pooling", [("factored-softmax", "sum"),
                                             ("factored-linear", "mean")])
@pytest.mark.parametrize("head", ["mean", "flatten"])
def test_reference_agrees_with_predict(token_dims, variant, pooling, head):
    cfg = _config(token_dims, variant, pooling, head=head)
    model = _model(cfg)
    x = np.random.default_rng(1).standard_normal((3,) + cfg.raw_dims)
    reference = _reference(cfg, model)
    expected = reference(x)
    assert reference.floored_rows == 0
    assert relative_error(model.predict(x), expected) <= 1e-10


def test_reference_agrees_on_forecast_and_pre_norm_models():
    for cfg in (_config((4, 4), "factored-softmax", "sum", task="forecast"),
                _config((4, 4), "factored-linear", "mean", norm="pre")):
        model = _model(cfg, seed=3)
        x = np.random.default_rng(2).standard_normal((2,) + cfg.raw_dims)
        assert relative_error(model.predict(x), _reference(cfg, model)(x)) <= 1e-10


def test_reference_counts_the_rows_the_program_floors():
    """The reference's count of rows with Z below the floor equals the tape's clamp count.

    One block, so that the program's gates see the same inputs as the reference's.
    """
    cfg = _config((8, 8, 8), "factored-linear", "sum", blocks=1)
    model = _model(cfg)
    x = np.random.default_rng(4).standard_normal((2,) + cfg.raw_dims)
    reference = _reference(cfg, model)
    reference(x)
    tracer = Tracer()
    with tracer.installed(), tracer.measuring():
        model.predict(x)
    assert reference.kernel_rows == tracer.counts["attn.z_rows"]
    assert reference.floored_rows == tracer.counts["attn.z_floored_rows"] > 0


@pytest.mark.parametrize("variant", ["factored-softmax", "factored-linear"])
def test_self_times_partition_a_traced_train_run(variant):
    cfg = _config((4, 4), variant, "mean", task="forecast")
    spec = ht.SyntheticTaskSpec(kind="separable-spatiotemporal-forecast", n_train=8, n_val=4,
                                t_len=8, n_series=4, horizon=2)
    data = ht.gen_synthetic(spec)
    model = HOTModel.initialize(cfg, seed=0)
    originals = (ht.train_model, hm.HOTModel.forward, ad.Tape.record, ad.clip_min)
    tracer = Tracer()
    with tracer.installed():
        with tracer.measuring():
            t0 = perf_counter_ns()
            ht.train_model(model, data, steps=2, batch_size=4, eval_every=2)
            wall = perf_counter_ns() - t0
        model.predict(data.val_x)  # outside measuring(): not recorded
    assert (ht.train_model, hm.HOTModel.forward, ad.Tape.record, ad.clip_min) == originals
    assert not tracer.unknown_labels()
    assert abs(tracer.self_sum_ns() - wall) <= 0.01 * wall
    layers = [label for label in SELF_LABELS if label.startswith(("model.", "diffops."))
              and label not in ("model.predict",)]
    assert [label for label in layers if tracer.self_ns.get(label, 0) <= 0] == []
    metrics = tracer.metrics(operations=2, rounds=1)
    assert metrics["train.eval_predict_calls"] == 4
    assert metrics["features.projection_matrix_calls"] == (2 if variant == "factored-linear" else 0)
    assert metrics["autodiff.tape_nodes"] > 0
    assert metrics["autodiff.live_tapes_max"] >= 1
    # blocks x batch x heads x positions x modes
    assert metrics["attn.z_rows"] == (2 * 4 * 2 * 4 * 2 if variant == "factored-linear" else 0)
