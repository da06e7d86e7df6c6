"""Encoder block, rotary phases, patching, heads, and checkpoint tests."""

import gc
import json
import math
import time

import numpy as np
import pytest

import hot.model
from hot import autodiff as ad
from hot.attention import (DEFAULT_ORACLE_CAP, full_high_order_attention, materialized_attention,
                           random_attention_weights)
from hot.autodiff import Tape
from hot.features import FeatureMapSpec
from hot.io import write_tensor
from hot.model import (
    HeadConfig,
    HOTBlockConfig,
    HOTModel,
    ModelConfig,
    PREDICT_CHUNK,
    PatchEmbedConfig,
    RotaryConfig,
    VARIANTS,
    attention_sublayer,
    _rotary_v,
    param_shapes,
    patchify,
)
from hot.train import SyntheticTaskSpec, gen_synthetic, train_model
from oracles import materialized_sublayer


def small_config(variant="factored-softmax", mask=(), rotary_modes=(0,), pooling="mean",
                 blocks=1, d_model=8, heads=2):
    spec = FeatureMapSpec(8, d_model // heads, seed=5) if "linear" in variant else None
    return ModelConfig(
        raw_dims=(4, 5),
        patch=PatchEmbedConfig((1, 1)),
        rotary=RotaryConfig(modes=rotary_modes),
        block=HOTBlockConfig(dims=(4, 5), d_model=d_model, heads=heads, variant=variant,
                             mode_mask=mask, feature_spec=spec),
        num_blocks=blocks,
        head=HeadConfig(task="forecast", pooling=pooling, horizon=3, n_series=2),
    )


# the forecast and voxel models that training runs; the voxel one at a small volume
TRAINING_CONFIGS = pytest.mark.parametrize("cfg", [
    # the forecast training configuration: factored softmax, mean head
    ModelConfig(
        raw_dims=(32, 8), patch=PatchEmbedConfig((4, 1)), rotary=RotaryConfig(modes=(0, 1)),
        block=HOTBlockConfig(dims=(8, 8), d_model=32, heads=4, ffn_dim=64),
        num_blocks=1, head=HeadConfig(task="forecast", pooling="mean", horizon=4, n_series=8),
    ),
    # the voxel model: factored linear over three modes, flatten head
    ModelConfig(
        raw_dims=(8, 8, 8), patch=PatchEmbedConfig((2, 2, 2)),
        rotary=RotaryConfig(modes=(0, 1, 2)),
        block=HOTBlockConfig(dims=(4, 4, 4), d_model=16, heads=2, ffn_dim=32,
                             variant="factored-linear",
                             feature_spec=FeatureMapSpec(16, 8, seed=11)),
        num_blocks=1, head=HeadConfig(task="classify", pooling="flatten", num_classes=2),
    ),
], ids=["forecast", "voxel"])


def rotate(t, modes, lead=0, base=10000.0):
    """``_rotary_v`` on constant values, for a tensor whose token axes start at ``lead``."""
    cfg = RotaryConfig(modes=modes, base=base)
    return _rotary_v(ad.constant(t), cfg, t.shape[lead:-1], lead=lead).value


class TestRotary:
    def test_position_zero_is_identity(self):
        rng = np.random.default_rng(0)
        t = rng.standard_normal((5, 4))
        out = rotate(t, (0,))
        assert np.abs(out[0] - t[0]).max() <= 1e-15

    def test_norm_preserved(self):
        rng = np.random.default_rng(1)
        t = rng.standard_normal((6, 3, 4))
        out = rotate(t, (0, 1))
        assert np.abs(
            np.linalg.norm(out, axis=-1) - np.linalg.norm(t, axis=-1)
        ).max() <= 1e-12

    def test_relative_phase_property(self):
        # dot(rot(q, p1), rot(k, p2)) depends only on p1 - p2
        rng = np.random.default_rng(2)
        q = rng.standard_normal(4)
        k = rng.standard_normal(4)
        n = 8
        stack_q = rotate(np.tile(q, (n, 1)), (0,))
        stack_k = rotate(np.tile(k, (n, 1)), (0,))
        dots = {}
        for p1 in range(n):
            for p2 in range(n):
                dots.setdefault(p1 - p2, []).append(stack_q[p1] @ stack_k[p2])
        for delta, vals in dots.items():
            assert max(vals) - min(vals) <= 1e-10, delta

    def test_odd_head_dim_rejected(self):
        with pytest.raises(ValueError):
            rotate(np.zeros((4, 5)), (0,))

    def test_batched_matches_unbatched(self):
        rng = np.random.default_rng(3)
        t = rng.standard_normal((2, 5, 3, 4))
        out = rotate(t, (0, 1), lead=1)
        for b in range(2):
            assert np.abs(out[b] - rotate(t[b], (0, 1))).max() <= 1e-12

    def test_angles_match_plain_loop(self):
        # pair j at position pos turns by sum over rotary modes of pos_m * base**(-2j/E)
        dims, modes, e, base = (3, 4, 2), (0, 2), 6, 100.0
        rng = np.random.default_rng(4)
        t = rng.standard_normal(dims + (e,))
        out = rotate(t, modes, base=base)
        ref = np.empty_like(t)
        for pos in np.ndindex(*dims):
            for j in range(e // 2):
                theta = sum(pos[m] for m in modes) * base ** (-2 * j / e)
                x, y = t[pos][2 * j], t[pos][2 * j + 1]
                ref[pos][2 * j] = x * math.cos(theta) - y * math.sin(theta)
                ref[pos][2 * j + 1] = y * math.cos(theta) + x * math.sin(theta)
        assert np.abs(out - ref).max() <= 1e-13

    def test_token_dims_must_match_token_axes(self):
        t = ad.constant(np.zeros((2, 5, 3, 4)))
        with pytest.raises(ValueError):
            _rotary_v(t, RotaryConfig(modes=(0, 1)), (3, 5))


class TestPatchify:
    def test_time_series_patch_4(self):
        x = np.zeros((2, 96, 8))
        out = patchify(x, (4, 1))
        assert out.shape == (2, 24, 8, 4)

    def test_cube_downsample_4(self):
        x = np.zeros((1, 28, 28, 28))
        out = patchify(x, (4, 4, 4))
        assert out.shape == (1, 7, 7, 7, 64)

    def test_patch_1_is_reshape_only(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((2, 3, 4))
        out = patchify(x, (1, 1))
        assert out.shape == (2, 3, 4, 1)
        assert np.array_equal(out[..., 0], x)

    def test_patch_contents_ordering(self):
        x = np.arange(8.0).reshape(1, 8)
        out = patchify(x, (4,))
        assert np.array_equal(out[0], [[0, 1, 2, 3], [4, 5, 6, 7]])

    def test_non_divisible_rejected(self):
        with pytest.raises(ValueError):
            patchify(np.zeros((1, 7)), (4,))


class TestBlock:
    def test_zero_weights_give_double_layer_norm(self):
        cfg = small_config(rotary_modes=())
        model = HOTModel.initialize(cfg, seed=0)
        for name in model.params:
            if "attn" in name or "ffn" in name:
                model.params[name] = np.zeros_like(model.params[name])
        rng = np.random.default_rng(5)
        x = rng.standard_normal((2, 4, 5))
        out_tokens = model.forward(x)
        assert np.isfinite(out_tokens.value).all()

        # reference: token path is LN(LN(tokens)) when both sublayers are zero
        from hot.diffops import affine_v, layer_norm_v

        tokens = ad.constant(patchify(x, (1, 1)))
        h = affine_v(tokens, ad.constant(model.params["patch.w"]),
                     ad.constant(model.params["patch.b"]))
        g1 = ad.constant(model.params["block0.ln1.gamma"])
        b1 = ad.constant(model.params["block0.ln1.beta"])
        ln = layer_norm_v(layer_norm_v(h, g1, b1), g1, b1).value
        pooled = ln.reshape(2, 20, 8).mean(axis=1)
        ref = pooled @ model.params["head.w"] + model.params["head.b"]
        assert np.abs(out_tokens.value - ref.reshape(2, 3, 2)).max() <= 1e-12

    def test_output_shape_preserved_through_blocks(self):
        for variant in VARIANTS:
            cfg = small_config(variant=variant, blocks=2)
            model = HOTModel.initialize(cfg, seed=1)
            x = np.random.default_rng(6).standard_normal((3, 4, 5))
            assert model.predict(x).shape == (3, 3, 2)

    def test_all_off_mask_equals_residual_mlp_reference(self):
        cfg = small_config(mask=(False, False), rotary_modes=())
        model = HOTModel.initialize(cfg, seed=2)
        rng = np.random.default_rng(7)
        x = rng.standard_normal((2, 4, 5))
        out = model.predict(x)

        # independent reference: attention reduces to sum_h x @ wv_h @ wo_h
        from hot.diffops import affine_v, layer_norm_v

        p = model.params
        tokens = ad.constant(patchify(x, (1, 1)))
        h = affine_v(tokens, ad.constant(p["patch.w"]), ad.constant(p["patch.b"])).value
        attn = sum(h @ p[f"block0.attn.h{i}.wv"] @ p[f"block0.attn.h{i}.wo"] for i in range(2))
        y1 = layer_norm_v(ad.constant(h + attn), ad.constant(p["block0.ln1.gamma"]),
                          ad.constant(p["block0.ln1.beta"])).value
        ffn = ad.gelu(ad.constant(y1 @ p["block0.ffn.w1"] + p["block0.ffn.b1"])).value
        ffn = ffn @ p["block0.ffn.w2"] + p["block0.ffn.b2"]
        y2 = layer_norm_v(ad.constant(y1 + ffn), ad.constant(p["block0.ln2.gamma"]),
                          ad.constant(p["block0.ln2.beta"])).value
        pooled = y2.reshape(2, 20, 8).mean(axis=1)
        ref = (pooled @ p["head.w"] + p["head.b"]).reshape(2, 3, 2)
        assert np.abs(out - ref).max() <= 1e-12

    def test_pre_norm_variant_runs(self):
        cfg = ModelConfig(
            raw_dims=(4, 5),
            patch=PatchEmbedConfig((1, 1)),
            rotary=RotaryConfig(),
            block=HOTBlockConfig(dims=(4, 5), d_model=8, heads=2, norm_placement="pre"),
            num_blocks=1,
            head=HeadConfig(task="forecast", pooling="mean", horizon=3, n_series=2),
        )
        model = HOTModel.initialize(cfg, seed=3)
        out = model.predict(np.random.default_rng(8).standard_normal((1, 4, 5)))
        assert out.shape == (1, 3, 2)


SUBLAYER_DIMS = [(6,), (2, 3), (3, 4, 5), (2, 2, 2, 2)]


class TestSublayerMatchesAttentionFunctions:
    """The model's batched sublayer at B = 1 equals the materialized attention matrices.

    Full softmax is held to ``full_high_order_attention``, factored softmax over
    all modes to ``materialized_attention``, and the other cases to the
    explicit Kronecker product of per-mode gates in ``oracles``.
    """

    @pytest.mark.parametrize("heads", [1, 2])
    @pytest.mark.parametrize("dims", SUBLAYER_DIMS, ids=str)
    @pytest.mark.parametrize("variant,subset,pooling", [
        *[(v, False, pooling) for v in ("full-softmax", "full-linear")
          for pooling in ("sum", "mean")],
        *[(v, subset, pooling) for v in ("factored-softmax", "factored-linear")
          for subset in (False, True) for pooling in ("sum", "mean")],
    ])
    def test_variant(self, variant, subset, pooling, dims, heads):
        rng = np.random.default_rng(31)
        x = rng.standard_normal(dims + (8,))
        w = random_attention_weights(8, heads, seed=32)
        spec = FeatureMapSpec(16, w.d_head, seed=33) if "linear" in variant else None
        mask = tuple(i % 2 == 1 for i in range(len(dims))) if subset else ()
        if variant == "full-softmax":
            ref = full_high_order_attention(x, w)
        elif variant == "factored-softmax" and not subset:
            ref = materialized_attention(x, w, pooling)
        else:
            ref = materialized_sublayer(x, w, variant, spec, mask, pooling)
        out = attention_sublayer(x, w, variant, spec, mask, pooling)
        assert np.abs(out - ref).max() <= 1e-12


def test_block_fuses_head_weights_as_attention_sublayer_does(monkeypatch):
    """The fused matrices ``block_forward_v`` builds from ``{prefix}.h{h}.w*`` are,
    bit for bit, those ``attention_sublayer`` builds from the same ``AttentionWeights``."""
    w = random_attention_weights(8, 2, seed=40)
    model = HOTModel.initialize(small_config(), seed=0)
    for h in range(w.heads):
        for name in ("wq", "wk", "wv", "wo"):
            model.params[f"block0.attn.h{h}.{name}"] = getattr(w, name)[h]
    seen = []
    sublayer_v = hot.model.attention_sublayer_v

    def capture(x, cfg, rotary, *weights):
        seen.append([v.value for v in weights])
        return sublayer_v(x, cfg, rotary, *weights)

    monkeypatch.setattr(hot.model, "attention_sublayer_v", capture)
    rng = np.random.default_rng(41)
    model.forward(rng.standard_normal((2, 4, 5)))
    attention_sublayer(rng.standard_normal((4, 5, 8)), w, "factored-softmax")
    block, sublayer = seen
    for fused_block, fused_sublayer in zip(block, sublayer, strict=True):
        assert fused_block.shape == (w.d_model, w.heads * w.d_head)
        assert np.array_equal(fused_block, fused_sublayer)
    wq, wo = sublayer[0], sublayer[3]
    assert np.array_equal(wq[:, w.d_head:], w.wq[1])  # head 1's columns
    assert np.array_equal(wo[:, w.d_head:], w.wo[1].T)


class TestModelForward:
    def test_classification_logits_organ_like(self):
        cfg = ModelConfig(
            raw_dims=(28, 28, 28),
            patch=PatchEmbedConfig((4, 4, 4)),
            rotary=RotaryConfig(modes=(0, 1, 2)),
            block=HOTBlockConfig(dims=(7, 7, 7), d_model=8, heads=2),
            num_blocks=1,
            head=HeadConfig(task="classify", pooling="mean", num_classes=11),
        )
        model = HOTModel.initialize(cfg, seed=0)
        out = model.predict(np.random.default_rng(9).standard_normal((2, 28, 28, 28)))
        assert out.shape == (2, 11)

    def test_forecast_output_horizon_96(self):
        cfg = ModelConfig(
            raw_dims=(96, 8),
            patch=PatchEmbedConfig((4, 1)),
            rotary=RotaryConfig(modes=(0,)),
            block=HOTBlockConfig(dims=(24, 8), d_model=8, heads=2),
            num_blocks=1,
            head=HeadConfig(task="forecast", pooling="mean", horizon=96, n_series=8),
        )
        model = HOTModel.initialize(cfg, seed=1)
        out = model.predict(np.random.default_rng(10).standard_normal((2, 96, 8)))
        assert out.shape == (2, 96, 8)

    def test_mean_pool_permutation_invariance_without_rotary(self):
        cfg = small_config(rotary_modes=())
        model = HOTModel.initialize(cfg, seed=4)
        rng = np.random.default_rng(11)
        x = rng.standard_normal((1, 4, 5))
        perm = rng.permutation(4)
        a = model.predict(x)
        b = model.predict(x[:, perm])
        assert np.abs(a - b).max() <= 1e-10

    def test_batch_samples_are_independent(self):
        cfg = small_config()
        model = HOTModel.initialize(cfg, seed=5)
        rng = np.random.default_rng(12)
        x = rng.standard_normal((4, 4, 5))
        batch_out = model.predict(x)
        for i in range(4):
            single = model.predict(x[i: i + 1])
            assert np.abs(batch_out[i] - single[0]).max() <= 1e-12

    def test_forward_determinism(self):
        cfg = small_config(variant="factored-linear")
        model = HOTModel.initialize(cfg, seed=6)
        x = np.random.default_rng(13).standard_normal((2, 4, 5))
        assert np.array_equal(model.predict(x), model.predict(x))

    def test_parameter_count_invariant_across_variants(self):
        counts = {
            v: HOTModel.initialize(small_config(variant=v), seed=0).parameter_count()
            for v in VARIANTS
        }
        assert len(set(counts.values())) == 1, counts

    @TRAINING_CONFIGS
    def test_predict_runs_forward_in_chunks(self, cfg, monkeypatch):
        model = HOTModel.initialize(cfg, seed=2)
        x = np.random.default_rng(16).standard_normal((2 * PREDICT_CHUNK + 2,) + cfg.raw_dims)
        whole = model.forward(x).value
        chunks = []

        def forward(x_raw):
            chunks.append(HOTModel.forward(model, x_raw).value)
            return ad.constant(chunks[-1])

        monkeypatch.setattr(model, "forward", forward)
        out = model.predict(x)
        assert [len(c) for c in chunks] == [PREDICT_CHUNK, PREDICT_CHUNK, 2]
        assert np.array_equal(out, np.concatenate(chunks))
        assert np.abs(out - whole).max() <= 1e-12

    def test_predict_on_no_samples_is_forward(self):
        model = HOTModel.initialize(small_config(), seed=2)
        x = np.zeros((0, 4, 5))
        with pytest.raises(ValueError, match="empty batch") as want:
            model.forward(x)
        with pytest.raises(ValueError, match="empty batch") as got:
            model.predict(x)
        assert str(got.value) == str(want.value)

    @TRAINING_CONFIGS
    def test_predict_leaves_no_reference_cycles(self, cfg):
        # a cycle would keep each call's activations alive until the cyclic collector runs
        model = HOTModel.initialize(cfg, seed=0)
        x = np.random.default_rng(15).standard_normal((2,) + cfg.raw_dims)
        gc.collect()
        gc.disable()
        try:
            model.predict(x)
            assert gc.collect() == 0
        finally:
            gc.enable()

    @TRAINING_CONFIGS
    def test_training_leaves_no_reference_cycles(self, cfg):
        # each step's graph must be freed when its tape is rebound, not by the collector
        if cfg.head.task == "forecast":
            task = SyntheticTaskSpec(kind="separable-spatiotemporal-forecast", n_train=8, n_val=4,
                                     t_len=cfg.raw_dims[0], n_series=cfg.raw_dims[1],
                                     horizon=cfg.head.horizon)
        else:
            task = SyntheticTaskSpec(kind="cross-mode-voxel-classify", n_train=8, n_val=4,
                                     volume=cfg.raw_dims, num_classes=cfg.head.num_classes)
        data = gen_synthetic(task)
        model = HOTModel.initialize(cfg, seed=0)
        gc.collect()
        gc.disable()
        try:
            train_model(model, data, steps=3, batch_size=4, seed=0, eval_every=2)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_gradients_flow_through_training_path(self):
        cfg = small_config()
        model = HOTModel.initialize(cfg, seed=7)
        x = np.random.default_rng(14).standard_normal((2, 4, 5))
        tape = Tape()
        pv = {k: tape.var(v) for k, v in model.params.items()}
        out = model.forward(x, pv)
        tape.backward(ad.mean_all(ad.mul(out, out)))
        assert pv["patch.w"].grad is not None
        assert np.isfinite(pv["patch.w"].grad).all()


class TestConfigValidation:
    def test_heads_divide_d_model(self):
        with pytest.raises(ValueError):
            HOTBlockConfig(dims=(4,), d_model=7, heads=2)

    @pytest.mark.parametrize("d_model,heads", [(8, 0), (0, 2)], ids=["zero-heads", "zero-d_model"])
    def test_zero_dims_rejected(self, d_model, heads):
        with pytest.raises(ValueError, match="must both be >= 1"):
            HOTBlockConfig(dims=(4,), d_model=d_model, heads=heads)
        with pytest.raises(ValueError, match="must both be >= 1"):
            random_attention_weights(d_model, heads)

    def test_feature_spec_must_match_head_dim(self):
        with pytest.raises(ValueError, match="input_dim 8 != head dim 4"):
            HOTBlockConfig(dims=(4,), d_model=8, heads=2, variant="factored-linear",
                           feature_spec=FeatureMapSpec(8, 8))

    def test_unknown_pooling_rejected(self):
        with pytest.raises(ValueError, match="pooling"):
            HOTBlockConfig(dims=(4,), d_model=8, heads=2, pooling="max")

    def test_mask_length(self):
        with pytest.raises(ValueError):
            HOTBlockConfig(dims=(4, 5), d_model=8, heads=2, mode_mask=(True,))

    @pytest.mark.parametrize("variant", ["full-softmax", "full-linear"])
    def test_full_variants_reject_a_mask_that_turns_a_mode_off(self, variant):
        spec = FeatureMapSpec(8, 4) if "linear" in variant else None
        for mask in ((), (True, True)):
            HOTBlockConfig(dims=(4, 5), d_model=8, heads=2, variant=variant, mode_mask=mask,
                           feature_spec=spec)
        with pytest.raises(ValueError, match="cannot turn a mode off"):
            HOTBlockConfig(dims=(4, 5), d_model=8, heads=2, variant=variant,
                           mode_mask=(True, False), feature_spec=spec)
        with pytest.raises(ValueError, match="cannot turn a mode off"):
            attention_sublayer(np.ones((4, 5, 8)), random_attention_weights(8, 2), variant, spec,
                               mask=(False, False))

    def test_linear_variant_needs_spec(self):
        with pytest.raises(ValueError):
            HOTBlockConfig(dims=(4,), d_model=8, heads=2, variant="factored-linear")

    def test_patch_divisibility(self):
        with pytest.raises(ValueError):
            ModelConfig(
                raw_dims=(7, 5),
                patch=PatchEmbedConfig((4, 1)),
                rotary=RotaryConfig(),
                block=HOTBlockConfig(dims=(1, 5), d_model=8, heads=2),
                num_blocks=1,
                head=HeadConfig(task="forecast", pooling="mean", horizon=1, n_series=1),
            )

    def test_rotary_needs_even_head_dim(self):
        with pytest.raises(ValueError):
            ModelConfig(
                raw_dims=(4,),
                patch=PatchEmbedConfig((1,)),
                rotary=RotaryConfig(modes=(0,)),
                block=HOTBlockConfig(dims=(4,), d_model=9, heads=3),
                num_blocks=1,
                head=HeadConfig(task="forecast", pooling="mean", horizon=1, n_series=1),
            )

    def test_full_softmax_token_cap(self):
        side = math.isqrt(DEFAULT_ORACLE_CAP)
        HOTBlockConfig(dims=(side, side), d_model=8, heads=2, variant="full-softmax")
        with pytest.raises(ValueError, match=f"exceeds the cap of {DEFAULT_ORACLE_CAP}"):
            HOTBlockConfig(dims=(side + 1, side), d_model=8, heads=2, variant="full-softmax")
        HOTBlockConfig(dims=(side + 1, side), d_model=8, heads=2, variant="factored-softmax")

    def test_flatten_cap_enforced(self):
        with pytest.raises(ValueError):
            ModelConfig(
                raw_dims=(4, 5),
                patch=PatchEmbedConfig((1, 1)),
                rotary=RotaryConfig(),
                block=HOTBlockConfig(dims=(4, 5), d_model=8, heads=2),
                num_blocks=1,
                head=HeadConfig(task="forecast", pooling="flatten", horizon=3,
                                n_series=2, flatten_cap=100),
            )


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        cfg = small_config(variant="factored-linear", pooling="flatten")
        model = HOTModel.initialize(cfg, seed=8)
        model.save(tmp_path / "ckpt")
        back = HOTModel.load(tmp_path / "ckpt")
        assert back.config == model.config
        assert set(back.params) == set(model.params)
        for name in model.params:
            assert np.array_equal(back.params[name], np.atleast_1d(model.params[name])), name
        x = np.random.default_rng(15).standard_normal((2, 4, 5))
        assert np.array_equal(back.predict(x), model.predict(x))

    def test_manifest_lists_every_parameter(self, tmp_path):
        cfg = small_config()
        model = HOTModel.initialize(cfg, seed=9)
        model.save(tmp_path / "ckpt")
        manifest = json.loads((tmp_path / "ckpt" / "manifest.json").read_text())
        assert set(manifest["params"]) == set(model.params)
        assert manifest["config"]["num_blocks"] == 1

    def _saved_manifest(self, tmp_path):
        model = HOTModel.initialize(small_config(), seed=10)
        model.save(tmp_path / "ckpt")
        path = tmp_path / "ckpt" / "manifest.json"
        return path, json.loads(path.read_text())

    def test_missing_parameter_rejected(self, tmp_path):
        path, manifest = self._saved_manifest(tmp_path)
        del manifest["params"]["head.b"]
        path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="'head.b'"):
            HOTModel.load(tmp_path / "ckpt")

    def test_feature_spec_not_matching_head_dim_rejected(self, tmp_path):
        model = HOTModel.initialize(small_config(variant="factored-linear"), seed=10)
        model.save(tmp_path / "ckpt")
        path = tmp_path / "ckpt" / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["config"]["block"]["feature_spec"]["input_dim"] = 8
        path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="input_dim 8 != head dim 4"):
            HOTModel.load(tmp_path / "ckpt")

    def test_wrong_shape_rejected(self, tmp_path):
        _, manifest = self._saved_manifest(tmp_path)
        write_tensor(tmp_path / "ckpt" / manifest["params"]["head.b"], np.zeros(7))
        with pytest.raises(ValueError, match="'head.b' has shape"):
            HOTModel.load(tmp_path / "ckpt")

    def test_file_name_outside_directory_rejected(self, tmp_path):
        path, manifest = self._saved_manifest(tmp_path)
        fname = manifest["params"]["head.b"]
        (tmp_path / fname).write_bytes((tmp_path / "ckpt" / fname).read_bytes())
        manifest["params"]["head.b"] = "../" + fname
        path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="'head.b': file name"):
            HOTModel.load(tmp_path / "ckpt")

    @pytest.mark.parametrize("corrupt", [
        lambda m: m["config"]["block"].pop("pooling"),
        lambda m: m["config"]["head"].update(extra=1),
        lambda m: m["config"]["block"]["feature_spec"].update(extra=1),
        lambda m: m.update(config=[m["config"]]),
        lambda m: m.pop("params"),
        lambda m: m.update(params=sorted(m["params"])),
        lambda m: m.update(extra=1),
        lambda m: m["config"].update(extra=1),
        lambda m: m["config"]["block"].update(extra=1),
        lambda m: m["config"]["rotary"].update(extra=1),
        lambda m: m["config"]["patch"].update(extra=1),
        lambda m: m["config"]["block"].update(d_model=8.0),
        lambda m: m["config"]["block"].update(heads=True),
        lambda m: m["config"]["block"].update(ln_eps="x"),
        lambda m: m["config"]["rotary"].update(base="x"),
        lambda m: m["config"]["block"]["feature_spec"].update(num_features=8.0),
        lambda m: m["config"].update(block=[m["config"]["block"]]),
    ], ids=["missing-pooling", "extra-head-key", "extra-feature-spec-key", "config-list",
            "no-params", "params-list", "extra-top-level-key", "extra-config-key",
            "extra-block-key", "extra-rotary-key", "extra-patch-key", "float-d_model",
            "boolean-heads", "string-ln_eps", "string-rotary-base", "float-num_features",
            "block-list"])
    def test_malformed_manifest_raises_value_error(self, tmp_path, corrupt):
        HOTModel.initialize(small_config(variant="factored-linear"), seed=10).save(tmp_path / "ckpt")
        path = tmp_path / "ckpt" / "manifest.json"
        manifest = json.loads(path.read_text())
        corrupt(manifest)
        path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="malformed manifest in .*ckpt"):
            HOTModel.load(tmp_path / "ckpt")

    @pytest.mark.parametrize("fname", ["absent.hot", "manifest.json"])
    def test_unreadable_parameter_file_rejected(self, tmp_path, fname):
        path, manifest = self._saved_manifest(tmp_path)
        manifest["params"]["head.b"] = fname
        path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="'head.b'"):
            HOTModel.load(tmp_path / "ckpt")

    def test_missing_manifest_raises_value_error(self, tmp_path):
        self._saved_manifest(tmp_path)[0].unlink()
        with pytest.raises(ValueError, match="manifest.json in .*ckpt"):
            HOTModel.load(tmp_path / "ckpt")
        with pytest.raises(ValueError, match="manifest.json in .*absent"):
            HOTModel.load(tmp_path / "absent")
        (tmp_path / "ckpt" / "manifest.json").write_text("{")
        with pytest.raises(ValueError, match="malformed manifest in .*ckpt"):
            HOTModel.load(tmp_path / "ckpt")

    @pytest.mark.parametrize("enlarge", [
        lambda c: c.update(num_blocks=10**7),
        lambda c: c["block"].update(d_model=10**7, heads=5 * 10**6),
    ], ids=["num_blocks", "heads"])
    def test_huge_config_rejected_in_time_of_manifest_length(self, tmp_path, enlarge):
        path, manifest = self._saved_manifest(tmp_path)
        enlarge(manifest["config"])
        path.write_text(json.dumps(manifest))
        start = time.perf_counter()
        with pytest.raises(ValueError, match="missing from its manifest"):
            HOTModel.load(tmp_path / "ckpt")
        assert time.perf_counter() - start < 1.0

    def test_load_draws_no_weights(self, tmp_path, monkeypatch):
        HOTModel.initialize(small_config(), seed=10).save(tmp_path / "ckpt")
        monkeypatch.setattr(np.random, "default_rng", None)
        assert HOTModel.load(tmp_path / "ckpt").parameter_count() > 0


def test_param_shapes_lists_initialize_params_in_order():
    cfg = small_config(variant="factored-linear", pooling="flatten", blocks=2)
    params = HOTModel.initialize(cfg, seed=0).params
    assert [(name, p.shape) for name, p in params.items()] == list(param_shapes(cfg).items())
