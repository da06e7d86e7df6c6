"""Encoder block, rotary phases, patching, heads, and checkpoint tests."""

import dataclasses
import gc
import json
import math
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

import hot.model
from hot import autodiff as ad
from hot.attention import materialized_attention, random_attention_weights
from hot.autodiff import Tape
from hot.features import FeatureMapSpec
from hot.io import write_tensor
from hot.model import (
    FULL_SOFTMAX_MAX_TOKENS,
    HeadConfig,
    HOTBlockConfig,
    HOTModel,
    ModelConfig,
    PREDICT_ROWS,
    PatchEmbedConfig,
    RotaryConfig,
    VARIANTS,
    attention_sublayer,
    _rotary_v,
    param_shapes,
    patchify,
)
from hot.train import SyntheticTaskSpec, gen_synthetic, train_model


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
        from hot.diffops import layer_norm_v

        tokens = ad.constant(patchify(x, (1, 1)))
        h = ad.affine(tokens, ad.constant(model.params["patch.w"]),
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
        from hot.diffops import layer_norm_v

        p = model.params
        tokens = ad.constant(patchify(x, (1, 1)))
        h = ad.affine(tokens, ad.constant(p["patch.w"]), ad.constant(p["patch.b"])).value
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

    Every variant, mask and pooling is held to ``materialized_attention`` with
    the same arguments: the Kronecker product of per-mode gates, or one gate
    over all tokens for a full variant, built explicitly.
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
        ref = materialized_attention(x, w, variant, spec, mask, pooling)
        out = attention_sublayer(x, w, variant, spec, mask, pooling)
        assert np.abs(out - ref).max() <= 1e-12


def test_block_fuses_head_weights_as_attention_sublayer_does(monkeypatch):
    """The fused matrices ``block_forward_v`` builds from ``{prefix}.h{h}.w*`` are,
    bit for bit, those ``attention_sublayer`` builds from the same ``AttentionWeights``."""
    w = random_attention_weights(8, 2, seed=40)
    model = HOTModel.initialize(small_config(), seed=0)
    for h in range(w.heads):
        for name, value in zip(("wq", "wk", "wv", "wo"), w.head(h)):
            model.params[f"block0.attn.h{h}.{name}"] = value
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
    e = w.d_head
    for h in range(w.heads):
        wq, wk, wv, wo = w.head(h)
        for fused, columns in zip(sublayer, (wq, wk, wv, wo.T), strict=True):
            assert np.array_equal(fused[:, h * e:(h + 1) * e], columns)  # head h's columns


def test_attention_sublayer_copies_no_weight(monkeypatch):
    """``attention_sublayer`` hands ``attention_sublayer_v`` views of ``w``'s arrays."""
    w = random_attention_weights(8, 2, seed=42)
    seen = []
    sublayer_v = hot.model.attention_sublayer_v

    def capture(x, cfg, rotary, *weights):
        seen.extend(v.value for v in weights)
        return sublayer_v(x, cfg, rotary, *weights)

    monkeypatch.setattr(hot.model, "attention_sublayer_v", capture)
    attention_sublayer(np.random.default_rng(43).standard_normal((4, 5, 8)), w,
                       "factored-softmax")
    for passed, stored in zip(seen, (w.wq, w.wk, w.wv, w.wo), strict=True):
        assert np.shares_memory(passed, stored)


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

    @staticmethod
    def _record_chunks(model, monkeypatch):
        """Make ``model.forward`` append each chunk's output to the returned list."""
        chunks = []

        def forward(x_raw):
            chunks.append(HOTModel.forward(model, x_raw).value)
            return ad.constant(chunks[-1])

        monkeypatch.setattr(model, "forward", forward)
        return chunks

    @TRAINING_CONFIGS
    def test_predict_runs_forward_in_chunks(self, cfg, monkeypatch):
        monkeypatch.setattr(hot.model, "PREDICT_WORKERS", 1)
        model = HOTModel.initialize(cfg, seed=2)
        c = PREDICT_ROWS // math.prod(cfg.token_dims)
        x = np.random.default_rng(16).standard_normal((2 * c + 2,) + cfg.raw_dims)
        whole = model.forward(x).value
        chunks = self._record_chunks(model, monkeypatch)
        out = model.predict(x)
        assert [len(chunk) for chunk in chunks] == [c, c, 2]
        assert np.array_equal(out, np.concatenate(chunks))
        assert np.abs(out - whole).max() <= 1e-12

    @TRAINING_CONFIGS
    def test_predict_runs_one_sample_per_forward_above_the_row_budget(self, cfg, monkeypatch):
        model = HOTModel.initialize(cfg, seed=2)
        x = np.random.default_rng(17).standard_normal((3,) + cfg.raw_dims)
        whole = model.forward(x).value
        monkeypatch.setattr(hot.model, "PREDICT_ROWS", math.prod(cfg.token_dims) - 1)
        chunks = self._record_chunks(model, monkeypatch)
        out = model.predict(x)
        assert [len(chunk) for chunk in chunks] == [1, 1, 1]
        assert np.abs(out - whole).max() <= 1e-12

    @TRAINING_CONFIGS
    def test_predict_runs_chunks_on_two_threads_in_sample_order(self, cfg, monkeypatch):
        monkeypatch.setattr(hot.model, "PREDICT_WORKERS", 2)
        model = HOTModel.initialize(cfg, seed=2)
        c = PREDICT_ROWS // (2 * math.prod(cfg.token_dims))
        x = np.random.default_rng(16).standard_normal((4 * c + 1,) + cfg.raw_dims)
        serial = np.concatenate([model.forward(x[i:i + c]).value for i in range(0, len(x), c)])
        calls, forward = [], model.forward

        def record_chunk(x_raw):
            calls.append((len(x_raw), threading.get_ident()))
            return forward(x_raw)

        monkeypatch.setattr(model, "forward", record_chunk)
        out = model.predict(x)
        assert sorted(n for n, _ in calls) == [1, c, c, c, c]
        assert np.array_equal(out, serial)
        threads = {thread for _, thread in calls}
        assert threading.get_ident() in threads and len(threads) == 2

    @TRAINING_CONFIGS
    @pytest.mark.parametrize("workers", [2, 3, 4])
    def test_predict_on_more_workers_moves_outputs_only_by_rounding(self, cfg, workers,
                                                                     monkeypatch):
        # the worker count sets the chunks (128, 64, 42 and 32 samples), and BLAS rounds
        # each chunk's matrix products its own way
        model = HOTModel.initialize(cfg, seed=2)
        x = np.random.default_rng(21).standard_normal((131,) + cfg.raw_dims)
        monkeypatch.setattr(hot.model, "PREDICT_WORKERS", 1)
        serial = model.predict(x)
        monkeypatch.setattr(hot.model, "PREDICT_WORKERS", workers)
        assert np.abs(model.predict(x) - serial).max() <= 1e-12

    @pytest.mark.parametrize("rows", [19, 60, 400])
    def test_predict_holds_at_most_the_row_budget_on_many_workers(self, rows, monkeypatch):
        # 20 token rows a sample: one sample above the budget, then 3 and 20 workers
        monkeypatch.setattr(hot.model, "PREDICT_WORKERS", 64)
        monkeypatch.setattr(hot.model, "PREDICT_ROWS", rows)
        model = HOTModel.initialize(small_config(), seed=2)
        forward, lock = model.forward, threading.Lock()
        in_flight, peak = [0], [0]

        def count_samples(x_raw):
            with lock:
                in_flight[0] += len(x_raw)
                peak[0] = max(peak[0], in_flight[0])
            time.sleep(0.01)  # so that the threads' chunks overlap
            try:
                return forward(x_raw)
            finally:
                with lock:
                    in_flight[0] -= len(x_raw)

        monkeypatch.setattr(model, "forward", count_samples)
        model.predict(np.random.default_rng(22).standard_normal((45, 4, 5)))
        assert 1 <= peak[0] <= max(1, rows // 20)

    def test_predict_on_more_workers_than_cpus_runs_every_chunk_once(self, monkeypatch):
        monkeypatch.setattr(hot.model, "PREDICT_WORKERS", 8)
        monkeypatch.setattr(hot.model, "PREDICT_ROWS", 8 * 20)  # one 4x5 sample a chunk
        model = HOTModel.initialize(small_config(), seed=2)
        x = np.random.default_rng(20).standard_normal((40, 4, 5))
        serial = np.concatenate([model.forward(x[i:i + 1]).value for i in range(len(x))])
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # threads switch often, so their chunks finish out of order
        try:
            out = model.predict(x)
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(out, serial)

    def test_predict_on_fewer_chunks_than_workers_starts_a_helper_a_chunk(self, monkeypatch):
        monkeypatch.setattr(hot.model, "PREDICT_WORKERS", 8)
        monkeypatch.setattr(hot.model, "PREDICT_ROWS", 8 * 20)  # one 4x5 sample a chunk
        model = HOTModel.initialize(small_config(), seed=2)
        x = np.random.default_rng(23).standard_normal((3, 4, 5))
        serial = np.concatenate([model.forward(x[i:i + 1]).value for i in range(len(x))])
        forward, threads = model.forward, []
        together = threading.Barrier(3, timeout=10)  # breaks unless all three chunks run at once

        def record_thread(x_raw):
            threads.append(threading.current_thread())
            together.wait()
            return forward(x_raw)

        monkeypatch.setattr(model, "forward", record_thread)
        out = model.predict(x)
        assert np.array_equal(out, serial)
        assert len(set(threads)) == 3 and threading.current_thread() in threads
        helpers = [t for t in threads if t is not threading.current_thread()]
        assert all(t.name.startswith("hot-predict") for t in helpers)

    @pytest.mark.parametrize("workers,rows,samples", [(1, 20, 3), (2, 40, 1), (2, 20, 3)],
                             ids=["one-worker", "one-chunk", "one-sample-budget"])
    def test_predict_starts_no_thread_for_one_worker_or_one_chunk(self, workers, rows, samples,
                                                                   monkeypatch):
        monkeypatch.setattr(hot.model, "PREDICT_WORKERS", workers)
        monkeypatch.setattr(hot.model, "PREDICT_ROWS", rows)  # 20 token rows a 4x5 sample
        monkeypatch.setattr(threading.Thread, "start",
                            lambda self: pytest.fail("predict started a thread"))
        model = HOTModel.initialize(small_config(), seed=2)
        x = np.random.default_rng(19).standard_normal((samples, 4, 5))
        c = max(1, rows // (workers * 20))
        serial = np.concatenate([model.forward(x[i:i + c]).value for i in range(0, samples, c)])
        assert np.array_equal(model.predict(x), serial)

    @pytest.mark.parametrize("x", [np.zeros((9, 5, 4)), np.zeros((9, 20))],
                             ids=["transposed", "flat"])
    def test_predict_checks_its_input_before_any_thread_starts(self, x, monkeypatch):
        monkeypatch.setattr(hot.model, "PREDICT_WORKERS", 2)
        monkeypatch.setattr(hot.model, "PREDICT_ROWS", 40)  # two one-sample chunks at once
        model = HOTModel.initialize(small_config(), seed=2)
        with pytest.raises(ValueError) as want:
            model.forward(x)
        monkeypatch.setattr(threading.Thread, "start",
                            lambda self: pytest.fail("predict started a thread"))
        with pytest.raises(ValueError) as got:
            model.predict(x)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("failing", [2, 3], ids=["calling-thread", "helper"])
    def test_predict_raises_a_chunks_error_and_joins_its_threads(self, failing, monkeypatch):
        monkeypatch.setattr(hot.model, "PREDICT_WORKERS", 2)
        monkeypatch.setattr(hot.model, "PREDICT_ROWS", 40)  # two one-sample chunks at once
        model = HOTModel.initialize(small_config(), seed=2)
        forward, raised_on = model.forward, []

        def forward_failing_on_one_sample(x_raw):
            if x_raw[0, 0, 0] == failing:
                raised_on.append(threading.current_thread())
                raise RuntimeError(f"chunk {failing} failed")
            return forward(x_raw)

        monkeypatch.setattr(model, "forward", forward_failing_on_one_sample)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match=f"chunk {failing} failed"):
            model.predict(np.arange(6.0)[:, None, None] * np.ones((6, 4, 5)))
        assert len(raised_on) == 1
        on_calling_thread = raised_on[0] is threading.current_thread()
        assert on_calling_thread == (failing % 2 == 0)  # chunk k runs on thread k % 2
        assert threading.active_count() == before
        assert not [t for t in threading.enumerate() if t.name.startswith("hot-predict")]

    def test_predict_memory_does_not_grow_with_the_number_of_chunks(self):
        # 8^3 tokens: 16 samples a chunk, the grid of the voxel training benchmark
        cfg = ModelConfig(
            raw_dims=(16, 16, 16), patch=PatchEmbedConfig((2, 2, 2)),
            rotary=RotaryConfig(modes=(0, 1, 2)),
            block=HOTBlockConfig(dims=(8, 8, 8), d_model=16, heads=2, ffn_dim=32,
                                 variant="factored-linear",
                                 feature_spec=FeatureMapSpec(16, 8, seed=11)),
            num_blocks=1, head=HeadConfig(task="classify", pooling="flatten", num_classes=2),
        )
        model = HOTModel.initialize(cfg, seed=0)
        c = PREDICT_ROWS // math.prod(cfg.token_dims)
        x = np.random.default_rng(18).standard_normal((4 * c,) + cfg.raw_dims)
        model.predict(x[:c])  # warm the rotary and feature caches outside the trace

        def traced_peak(batch):
            tracemalloc.start()
            try:
                model.predict(batch)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one, four = traced_peak(x[:c]), traced_peak(x)
        assert four <= 1.2 * one, (one, four)

    def test_predict_on_no_samples_is_forward(self):
        model = HOTModel.initialize(small_config(), seed=2)
        x = np.zeros((0, 4, 5))
        with pytest.raises(ValueError, match="empty batch") as want:
            model.forward(x)
        with pytest.raises(ValueError, match="empty batch") as got:
            model.predict(x)
        assert str(got.value) == str(want.value)

    @TRAINING_CONFIGS
    @pytest.mark.parametrize("chunks", [1, 3])
    def test_predict_leaves_no_reference_cycles(self, cfg, chunks, monkeypatch):
        # a cycle would keep each call's activations alive until the cyclic collector runs
        monkeypatch.setattr(hot.model, "PREDICT_WORKERS", 2)
        model = HOTModel.initialize(cfg, seed=0)
        c = PREDICT_ROWS // (2 * math.prod(cfg.token_dims))
        x = np.random.default_rng(15).standard_normal(((chunks - 1) * c + 2,) + cfg.raw_dims)
        gc.collect()
        gc.disable()
        try:
            model.predict(x)
            assert gc.collect() == 0
        finally:
            gc.enable()

    @TRAINING_CONFIGS
    def test_predict_equals_the_taped_forward(self, cfg):
        # off the tape, gelu, layer norm and the biased affines finish in their own buffers
        for placement in ("post", "pre"):
            cfg = dataclasses.replace(
                cfg, block=dataclasses.replace(cfg.block, norm_placement=placement))
            model = HOTModel.initialize(cfg, seed=0)
            x = np.random.default_rng(16).standard_normal((3,) + cfg.raw_dims)
            tape = Tape()
            taped = model.forward(x, {k: tape.var(v) for k, v in model.params.items()}).value
            assert np.array_equal(model.predict(x), taped)

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
        side = math.isqrt(FULL_SOFTMAX_MAX_TOKENS)
        HOTBlockConfig(dims=(side, side), d_model=8, heads=2, variant="full-softmax")
        with pytest.raises(ValueError, match=f"exceeds the cap of {FULL_SOFTMAX_MAX_TOKENS}"):
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
