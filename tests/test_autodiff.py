"""Tape and primitive adjoint tests against finite differences and closed forms."""

import gc
import math
import weakref

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hot import autodiff as ad
from hot import diffops as ops
from hot.attention import EPS_Z, kernel_gate
from hot.autodiff import Tape, TapeConsumedError
from hot.features import FeatureMapSpec
from hot.model import (HeadConfig, HOTBlockConfig, HOTModel, ModelConfig, PatchEmbedConfig,
                       RotaryConfig)
from hot.tensor import mode_product
from hot.train import model_loss


def numeric_grad(f, x, eps=1e-6):
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        up = f(x)
        flat[i] = orig - eps
        down = f(x)
        flat[i] = orig
        gf[i] = (up - down) / (2 * eps)
    return g


def check_unary(op, x0, tol=1e-7, **kwargs):
    tape = Tape()
    x = tape.var(x0.copy())
    loss = ad.mean_all(ad.mul(op(x, **kwargs), op(x, **kwargs)))
    tape.backward(loss)

    def f(xv):
        return float(ad.mean_all(ad.mul(op(ad.constant(xv), **kwargs),
                                        op(ad.constant(xv), **kwargs))).value)

    num = numeric_grad(f, x0.copy())
    assert np.abs(x.grad - num).max() <= tol * max(1.0, np.abs(num).max())


class TestPrimitives:
    def test_add_mul_sub(self):
        rng = np.random.default_rng(0)
        a0 = rng.standard_normal((3, 4))
        b0 = rng.standard_normal((3, 4))
        tape = Tape()
        a = tape.var(a0)
        b = tape.var(b0)
        loss = ad.sum_axes(ad.mul(ad.add(a, b), ad.sub(a, b)))  # sum(a^2 - b^2)
        tape.backward(loss)
        assert np.allclose(a.grad, 2 * a0, atol=1e-12)
        assert np.allclose(b.grad, -2 * b0, atol=1e-12)

    def test_broadcast_add_bias(self):
        rng = np.random.default_rng(1)
        x0 = rng.standard_normal((2, 3, 4))
        b0 = rng.standard_normal(4)
        tape = Tape()
        x = tape.var(x0)
        b = tape.var(b0)
        tape.backward(ad.sum_axes(ad.add(x, b)))
        assert np.allclose(x.grad, np.ones_like(x0), atol=0)
        assert np.allclose(b.grad, np.full(4, 6.0), atol=0)

    @pytest.mark.parametrize("op,kw", [
        (ad.exp, {}),
        (ad.gelu, {}),
        (ad.softmax_last, {}),
        (ad.log_softmax_last, {}),
        (ad.reshape, {"shape": (12,)}),
        (ad.transpose, {"axes": (1, 0)}),
        (ad.scale, {"c": -2.5}),
    ])
    def test_unary_against_numeric(self, op, kw):
        rng = np.random.default_rng(2)
        check_unary(op, rng.standard_normal((3, 4)), **kw)

    def test_power(self):
        rng = np.random.default_rng(3)
        x0 = rng.uniform(0.5, 2.0, size=(3, 4))
        check_unary(ad.power, x0, p=-0.5)

    def test_clip_min_passes_above_floor(self):
        rng = np.random.default_rng(4)
        x0 = rng.uniform(1.0, 2.0, size=(5,))
        tape = Tape()
        x = tape.var(x0)
        tape.backward(ad.sum_axes(ad.clip_min(x, 0.5)))
        assert np.array_equal(x.grad, np.ones(5))
        tape2 = Tape()
        x2 = tape2.var(x0)
        tape2.backward(ad.sum_axes(ad.clip_min(x2, 10.0)))
        assert np.array_equal(x2.grad, np.zeros(5))

    def test_sum_axes_keepdims(self):
        rng = np.random.default_rng(5)
        x0 = rng.standard_normal((2, 3, 4))
        tape = Tape()
        x = tape.var(x0)
        out = ad.sum_axes(x, (1,), keepdims=True)
        assert out.shape == (2, 1, 4)
        tape.backward(ad.sum_axes(ad.mul(out, out)))
        expected = 2 * np.broadcast_to(x0.sum(axis=1, keepdims=True), x0.shape)
        assert np.allclose(x.grad, expected, atol=1e-12)


@st.composite
def _sum_cases(draw):
    """An array of 1-5 axes, and axes to sum: None, or a subset (maybe empty, maybe negative)."""
    x = draw(hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=5, max_side=4),
                        elements=st.floats(-1e3, 1e3)))
    axes = draw(st.none() | st.lists(st.sampled_from(range(x.ndim)), unique=True).flatmap(
        lambda picked: st.tuples(*[st.sampled_from((ax, ax - x.ndim)) for ax in picked])))
    return x, axes, draw(st.booleans())


@settings(deadline=None)
@given(case=_sum_cases())
def test_sum_axes_matches_np_sum(case):
    x, axes, keepdims = case
    a = ad.constant(x)
    out = ad.sum_axes(a, axes, keepdims=keepdims)
    ref = np.sum(x, axis=axes, keepdims=keepdims)
    assert out.shape == ref.shape
    assert np.allclose(out.value, ref, rtol=1e-12, atol=1e-9)
    assert not np.shares_memory(out.value, a.value)


def rotate_loop(x, theta):
    """Pair j of each row of ``x`` turned by ``theta[..., j]``, one entry at a time."""
    out = np.empty_like(x)
    for idx in np.ndindex(*x.shape[:-1]):
        for j in range(x.shape[-1] // 2):
            c, s = math.cos(theta[idx][j]), math.sin(theta[idx][j])
            u, v = x[idx][2 * j], x[idx][2 * j + 1]
            out[idx][2 * j] = u * c - v * s
            out[idx][2 * j + 1] = v * c + u * s
    return out


class TestRotatePairs:
    def test_transposed_input_matches_plain_loop(self):
        rng = np.random.default_rng(23)
        x = rng.standard_normal((6, 5)).T  # (5, 6), not contiguous
        theta = rng.uniform(-np.pi, np.pi, (5, 3))
        a = ad.constant(x)
        assert not a.value.flags.c_contiguous
        out = ad.rotate_pairs(a, np.exp(1j * theta))
        assert np.abs(out.value - rotate_loop(x, theta)).max() <= 1e-13

    def test_gradients_from_a_broadcast_adjoint(self):
        # summing over axis 0 hands rotate_pairs a read-only broadcast_to view as its adjoint
        rng = np.random.default_rng(24)
        x0 = rng.standard_normal((3, 4, 6))
        theta = rng.uniform(-np.pi, np.pi, (4, 3))
        w = rng.standard_normal((4, 6))
        tape = Tape()
        x = tape.var(x0.copy())
        out = ad.rotate_pairs(x, np.exp(1j * theta))
        tape.backward(ad.sum_axes(ad.mul(ad.sum_axes(out, 0), ad.constant(w))))
        assert not out.grad.flags.writeable and out.grad.strides[0] == 0
        num = numeric_grad(lambda v: float((rotate_loop(v, np.broadcast_to(theta, (3, 4, 3)))
                                            .sum(axis=0) * w).sum()), x0.copy())
        assert np.abs(x.grad - num).max() <= 1e-7 * max(1.0, np.abs(num).max())


class TestMatmul:
    @pytest.mark.parametrize("ta,tb", [(False, False), (False, True), (True, False), (True, True)])
    def test_batched_transposes(self, ta, tb):
        rng = np.random.default_rng(6)
        a0 = rng.standard_normal((2, 3, 4))
        b_shape = {
            (False, False): (2, 4, 5),
            (False, True): (2, 5, 4),
            (True, False): (2, 3, 5),
            (True, True): (2, 5, 3),
        }[(ta, tb)]
        b0 = rng.standard_normal(b_shape)

        def f_a(av):
            return float(ad.sum_axes(ad.mul(ad.matmul(ad.constant(av), ad.constant(b0), ta=ta, tb=tb),
                                            ad.matmul(ad.constant(av), ad.constant(b0), ta=ta, tb=tb))).value)

        tape = Tape()
        a = tape.var(a0.copy())
        b = tape.var(b0.copy())
        y = ad.matmul(a, b, ta=ta, tb=tb)
        tape.backward(ad.sum_axes(ad.mul(y, y)))
        num_a = numeric_grad(f_a, a0.copy())
        assert np.abs(a.grad - num_a).max() <= 1e-6 * max(1.0, np.abs(num_a).max())

        def f_b(bv):
            return float(ad.sum_axes(ad.mul(ad.matmul(ad.constant(a0), ad.constant(bv), ta=ta, tb=tb),
                                            ad.matmul(ad.constant(a0), ad.constant(bv), ta=ta, tb=tb))).value)

        num_b = numeric_grad(f_b, b0.copy())
        assert np.abs(b.grad - num_b).max() <= 1e-6 * max(1.0, np.abs(num_b).max())

    def test_broadcast_weight(self):
        rng = np.random.default_rng(7)
        x0 = rng.standard_normal((2, 3, 4))
        w0 = rng.standard_normal((4, 5))
        tape = Tape()
        x = tape.var(x0)
        w = tape.var(w0)
        y = ad.matmul(x, w)
        tape.backward(ad.sum_axes(y))
        assert np.allclose(x.grad, np.broadcast_to(w0.sum(axis=1), (2, 3, 4)), atol=1e-12)
        assert np.allclose(w.grad, np.tile(x0.reshape(6, 4).sum(axis=0)[:, None], (1, 5)), atol=1e-12)


class TestAffine:
    @pytest.mark.parametrize("x_shape", [(2, 3, 4), (3, 4), (4,)], ids=["nd", "2d", "1d"])
    @pytest.mark.parametrize("bias_tracked", [True, False], ids=["tracked_bias", "constant_bias"])
    def test_against_numeric(self, x_shape, bias_tracked):
        rng = np.random.default_rng(26)
        x0, w0, b0 = (rng.standard_normal(s) for s in (x_shape, (4, 5), (5,)))
        c = rng.standard_normal(x_shape[:-1] + (5,))

        def loss_of(x, w, b):
            y = ad.affine(x, w, b)
            return ad.sum_axes(ad.mul(ad.mul(y, y), ad.constant(c)))

        tape = Tape()
        x, w = tape.var(x0.copy()), tape.var(w0.copy())
        b = tape.var(b0.copy()) if bias_tracked else ad.constant(b0)
        tape.backward(loss_of(x, w, b))
        assert b.grad.flags.writeable if bias_tracked else b.grad is None
        for var, v0, rebuild in ((x, x0, lambda v: (v, w0, b0)), (w, w0, lambda v: (x0, v, b0)),
                                 (b, b0, lambda v: (x0, w0, v))):
            if var.requires_grad:
                num = numeric_grad(lambda v: float(loss_of(*map(ad.constant, rebuild(v))).value),
                                   v0.copy())
                assert np.abs(var.grad - num).max() <= 1e-7 * max(1.0, np.abs(num).max())

    def test_equals_matmul_then_add(self):
        rng = np.random.default_rng(27)
        x0, w0, b0 = rng.standard_normal((2, 3, 4)), rng.standard_normal((4, 5)), rng.standard_normal(5)
        grads = []
        for fused in (True, False):
            tape = Tape()
            x, w, b = tape.var(x0), tape.var(w0), tape.var(b0)
            y = ad.affine(x, w, b) if fused else ad.add(ad.matmul(x, w), b)
            tape.backward(ad.sum_axes(ad.mul(y, y)))
            grads.append([y.value, x.grad, w.grad, b.grad])
        assert all(np.array_equal(f, u) for f, u in zip(*grads))


class TestOffTape:
    """Off the tape, ops that finish in their own buffer leave their inputs unchanged."""

    @pytest.mark.parametrize("op,shapes", [
        (ad.gelu, [(3, 4)]),
        (lambda a, g, b: ad.layer_norm_last(a, g, b, 1e-5), [(3, 4), (4,), (4,)]),
        (ad.affine, [(2, 3, 4), (4, 5), (5,)]),
    ], ids=["gelu", "layer_norm_last", "affine"])
    def test_inputs_unchanged_and_values_match_the_tape(self, op, shapes):
        arrays = _arrays(*shapes)
        before = [a.copy() for a in arrays]
        off = op(*arrays).value
        assert all(np.array_equal(a, b) for a, b in zip(arrays, before))
        tape = Tape()
        on = op(*[tape.var(a) for a in arrays]).value
        assert np.array_equal(off, on)
        assert all(np.array_equal(a, b) for a, b in zip(arrays, before))

    def test_layer_norm_with_a_wider_scale_broadcasts(self):
        x, gamma, beta = _arrays((3, 4), (2, 3, 4), (4,))
        out = ad.layer_norm_last(x, gamma, beta, 1e-5).value
        tape = Tape()
        assert np.array_equal(out, ad.layer_norm_last(tape.var(x), gamma, beta, 1e-5).value)
        assert out.shape == (2, 3, 4)


class TestSoftmaxJacobian:
    def test_action_matches_analytic_on_123(self):
        # J = diag(p) - p p^T acting on an arbitrary upstream gradient
        rng = np.random.default_rng(10)
        x0 = np.array([[1.0, 2.0, 3.0]])
        g = rng.standard_normal((1, 3))
        tape = Tape()
        x = tape.var(x0)
        out = ad.softmax_last(x)
        tape.backward(ad.sum_axes(ad.mul(out, ad.constant(g))))
        p = np.exp(x0[0] - x0[0].max())
        p /= p.sum()
        jac = np.diag(p) - np.outer(p, p)
        assert np.abs(x.grad[0] - jac @ g[0]).max() <= 1e-12


class TestTape:
    def test_tape_reuse_raises(self):
        tape = Tape()
        x = tape.var(np.array(2.0))
        loss = ad.mul(x, x)
        tape.backward(loss)
        with pytest.raises(TapeConsumedError):
            tape.backward(loss)

    def test_backward_needs_scalar(self):
        tape = Tape()
        x = tape.var(np.ones(3))
        with pytest.raises(ValueError):
            tape.backward(ad.mul(x, x))

    @pytest.mark.parametrize("foreign", ["other_tape", "constant"])
    def test_backward_refuses_a_loss_not_on_this_tape_and_stays_usable(self, foreign):
        tape = Tape()
        x = tape.var(np.array(3.0))
        loss = ad.mul(x, x)
        other = Tape()
        bad = ad.mul(other.var(np.array(1.0)), 2.0) if foreign == "other_tape" else ad.constant(2.0)
        with pytest.raises(ValueError, match="this tape"):
            tape.backward(bad)
        assert x.grad is None
        tape.backward(loss)
        assert x.grad == 6.0

    def test_constants_collect_no_grad(self):
        tape = Tape()
        x = tape.var(np.array(3.0))
        c = ad.constant(np.array(4.0))
        tape.backward(ad.mul(x, c))
        assert x.grad == pytest.approx(4.0)
        assert c.grad is None

    def test_grad_accumulates_across_uses(self):
        tape = Tape()
        x = tape.var(np.array(3.0))
        tape.backward(ad.add(ad.mul(x, x), ad.scale(x, 5.0)))
        assert x.grad == pytest.approx(11.0)


class CountingTape(Tape):
    def __init__(self):
        super().__init__()
        self.recorded = 0

    def record(self, fn):
        self.recorded += 1
        super().record(fn)


def _arrays(*shapes):
    rng = np.random.default_rng(21)
    return [rng.uniform(0.5, 2.0, size=s) for s in shapes]


# every primitive: (name, op over its array operands, operand shapes)
_PRIMITIVES = [
    ("add", ad.add, [(3, 4), (4,)]),
    ("sub", ad.sub, [(3, 4), (3, 4)]),
    ("mul", ad.mul, [(3, 4), (3, 1)]),
    ("scale", lambda a: ad.scale(a, 2.0), [(3, 4)]),
    ("exp", ad.exp, [(3, 4)]),
    ("power", lambda a: ad.power(a, -0.5), [(3, 4)]),
    ("clip_min", lambda a: ad.clip_min(a, 1.0), [(3, 4)]),
    ("gelu", ad.gelu, [(3, 4)]),
    ("layer_norm_last", lambda a, g, b: ad.layer_norm_last(a, g, b, 1e-5), [(3, 4), (4,), (4,)]),
    ("rotate_pairs", lambda a: ad.rotate_pairs(a, np.ones(2, dtype=complex)), [(3, 4)]),
    ("reshape", lambda a: ad.reshape(a, (12,)), [(3, 4)]),
    ("transpose", lambda a: ad.transpose(a, (1, 0)), [(3, 4)]),
    ("sum_axes", lambda a: ad.sum_axes(a, 1), [(3, 4)]),
    ("matmul", ad.matmul, [(2, 3, 4), (4, 5)]),
    ("affine", ad.affine, [(2, 3, 4), (4, 5), (5,)]),
    ("apply_along", lambda s, t: ad.apply_along(s, t, 1), [(2, 5, 3), (2, 3, 4)]),
    ("concat_axis0", lambda *xs: ad.concat(xs, 0), [(2, 3), (4, 3), (1, 3)]),
    ("concat_axis1", lambda *xs: ad.concat(xs, 1), [(3, 2), (3, 4), (3, 1)]),
    ("softmax_last", ad.softmax_last, [(3, 4)]),
    ("log_softmax_last", ad.log_softmax_last, [(3, 4)]),
]
_TRACKED_CASES = [pytest.param(op, shapes, i, id=f"{name}-arg{i}")
                  for name, op, shapes in _PRIMITIVES for i in range(len(shapes))]

# per primitive: operand i -> the values its adjoint reads (operand indices, or "out")
_READS = {
    "mul": {0: {1}, 1: {0}},
    "exp": {0: {"out"}},
    "power": {0: {0}},
    "clip_min": {0: {0}},
    "gelu": {0: {0}},
    "layer_norm_last": {0: {1}},
    "matmul": {0: {1}, 1: {0}},
    "affine": {0: {1}, 1: {0}},
    "apply_along": {0: {1}, 1: {0}},
    "softmax_last": {0: {"out"}},
    "log_softmax_last": {0: {"out"}},
}
# every operand tracked, then each operand alone
_LIFETIME_CASES = [pytest.param(name, op, shapes, tracked, id=f"{name}-{label}")
                   for name, op, shapes in _PRIMITIVES
                   for label, tracked in ([("all", tuple(range(len(shapes))))]
                                          + ([(f"arg{i}", (i,)) for i in range(len(shapes))]
                                             if len(shapes) > 1 else []))]


class TestNodeContract:
    """Each primitive records one node when an operand is tracked, and none otherwise."""

    @pytest.mark.parametrize("op,shapes,tracked", _TRACKED_CASES)
    def test_one_tracked_operand_records_one_node(self, op, shapes, tracked):
        tape = CountingTape()
        args = [tape.var(v) if i == tracked else ad.constant(v)
                for i, v in enumerate(_arrays(*shapes))]
        out = op(*args)
        assert tape.recorded == 1
        assert out.requires_grad and out.tape is tape

    @pytest.mark.parametrize("op,shapes", [pytest.param(op, shapes, id=name)
                                           for name, op, shapes in _PRIMITIVES])
    @pytest.mark.parametrize("lift", [ad.constant, np.asarray], ids=["constants", "arrays"])
    def test_constant_operands_record_nothing(self, op, shapes, lift):
        tape = CountingTape()
        tape.var(np.ones(3))
        out = op(*[lift(v) for v in _arrays(*shapes)])
        assert tape.recorded == 0
        assert isinstance(out, ad.Var)
        assert out.tape is None and not out.requires_grad

    @pytest.mark.parametrize("name,op,shapes,tracked", _LIFETIME_CASES)
    def test_node_keeps_only_the_values_its_adjoints_read(self, name, op, shapes, tracked):
        tape = Tape()
        # tracked operands are outputs of a node that keeps nothing, so only
        # their Var and the node under test can hold their values
        operands = [ad.scale(tape.var(v), 1.0) if i in tracked else ad.constant(v)
                    for i, v in enumerate(_arrays(*shapes))]
        out = op(*operands)
        loss = ad.sum_axes(ad.mul(out, ad.constant(np.ones(out.shape))))
        values = {i: weakref.ref(x.value) for i, x in enumerate(operands)}
        values["out"] = weakref.ref(out.value)
        del operands, out
        read = set().union(*(_READS.get(name, {}).get(i, set()) for i in tracked))
        assert {k for k, ref in values.items() if ref() is not None} == read
        tape.backward(loss)
        assert all(ref() is None for ref in values.values())

    @pytest.mark.parametrize("axis", [0, 1])
    def test_concat_grads_reach_only_tracked_inputs(self, axis):
        rng = np.random.default_rng(22)
        parts = [rng.standard_normal((w, 3) if axis == 0 else (3, w)) for w in (2, 4, 1, 3)]
        w = rng.standard_normal((10, 3) if axis == 0 else (3, 10))
        tape = Tape()
        xs = [tape.var(parts[0].copy()), ad.constant(parts[1]), tape.var(parts[2].copy()),
              parts[3]]
        y = ad.concat(xs, axis)
        tape.backward(ad.sum_axes(ad.mul(ad.mul(y, y), ad.constant(w))))
        assert xs[1].grad is None
        for i in (0, 2):
            def f(v, i=i):
                c = np.concatenate(parts[:i] + [v] + parts[i + 1:], axis=axis)
                return float((c * c * w).sum())

            num = numeric_grad(f, parts[i].copy())
            assert np.abs(xs[i].grad - num).max() <= 1e-7 * max(1.0, np.abs(num).max())


class TestTapeLifetime:
    """A Var holds its tape weakly, so dropping the Tape frees the whole graph."""

    def test_dropped_tape_frees_the_step_graph_without_the_collector(self):
        # the forecast training configuration, at a small batch
        cfg = ModelConfig(
            raw_dims=(32, 8), patch=PatchEmbedConfig((4, 1)), rotary=RotaryConfig(modes=(0, 1)),
            block=HOTBlockConfig(dims=(8, 8), d_model=32, heads=4, ffn_dim=64),
            num_blocks=1, head=HeadConfig(task="forecast", pooling="mean", horizon=4, n_series=8),
        )
        model = HOTModel.initialize(cfg, seed=0)
        rng = np.random.default_rng(19)
        x, y = rng.standard_normal((4, 32, 8)), rng.standard_normal((4, 4, 8))
        gc.collect()
        gc.disable()
        try:
            tape = Tape()
            loss, leaves = model_loss(model, x, y, tape)
            tape.backward(loss)
            alive = weakref.ref(tape)
            del tape
            assert alive() is None
            assert loss.tape is None
            assert gc.collect() == 0
        finally:
            gc.enable()
        assert all(np.isfinite(v.grad).all() for v in leaves.values() if v.grad is not None)

    def test_backward_frees_each_node_while_the_tape_lives(self):
        tape = Tape()
        x = tape.var(np.linspace(-1.0, 1.0, 5))
        h = ad.exp(x)
        alive = weakref.ref(h)
        loss = ad.sum_axes(ad.mul(h, h))
        del h
        tape.backward(loss)
        assert alive() is None
        e = np.exp(x.value)
        assert np.array_equal(x.grad, (e + e) * e)
        with pytest.raises(TapeConsumedError):
            tape.backward(loss)

    def test_releasing_nodes_leaves_model_gradients_unchanged(self):
        # the same step twice: once as backward runs it, once with every node kept alive
        cfg = ModelConfig(
            raw_dims=(32, 8), patch=PatchEmbedConfig((4, 1)), rotary=RotaryConfig(modes=(0, 1)),
            block=HOTBlockConfig(dims=(8, 8), d_model=32, heads=4, ffn_dim=64),
            num_blocks=1, head=HeadConfig(task="forecast", pooling="mean", horizon=4, n_series=8),
        )
        model = HOTModel.initialize(cfg, seed=0)
        rng = np.random.default_rng(20)
        x, y = rng.standard_normal((4, 32, 8)), rng.standard_normal((4, 4, 8))
        grads = []
        for keep in (False, True):
            tape = Tape()
            loss, leaves = model_loss(model, x, y, tape)
            kept = list(tape._nodes) if keep else []
            tape.backward(loss)
            grads.append({k: v.grad for k, v in leaves.items()})
            del kept
        assert all(np.array_equal(grads[0][k], grads[1][k]) for k in grads[0])

    def test_releasing_forward_values_leaves_model_gradients_unchanged(self, monkeypatch):
        # the same step twice: once as the forward drops its Vars, once with every Var kept
        cfg = ModelConfig(
            raw_dims=(32, 8), patch=PatchEmbedConfig((4, 1)), rotary=RotaryConfig(modes=(0, 1)),
            block=HOTBlockConfig(dims=(8, 8), d_model=32, heads=4, ffn_dim=64),
            num_blocks=1, head=HeadConfig(task="forecast", pooling="mean", horizon=4, n_series=8),
        )
        model = HOTModel.initialize(cfg, seed=0)
        rng = np.random.default_rng(25)
        x, y = rng.standard_normal((4, 32, 8)), rng.standard_normal((4, 4, 8))
        kept = []
        node = ad._node

        def keeping_node(value, tape, backward):
            out = node(value, tape, backward)
            kept.append(out)
            return out

        grads = []
        for keep in (False, True):
            if keep:
                monkeypatch.setattr(ad, "_node", keeping_node)
            tape = Tape()
            loss, leaves = model_loss(model, x, y, tape)
            tape.backward(loss)
            grads.append({k: v.grad for k, v in leaves.items()})
        assert len(kept) > 40
        assert all(np.array_equal(grads[0][k], grads[1][k]) for k in grads[0])

    def test_op_on_a_leaf_of_a_freed_tape_raises(self):
        x = Tape().var(np.ones(3))
        with pytest.raises(ValueError, match="freed"):
            ad.mul(x, x)


class TestGradOwnership:
    """Leaf gradients are private buffers, even where an adjoint is a view of another."""

    @pytest.mark.parametrize("build", [
        lambda a, b: ad.add(a, b),
        lambda a, b: ad.sub(a, b),
        lambda a, b: ad.concat([a, b], 0),
        lambda a, b: ad.concat([a, b], 1),
        lambda a, b: ad.add(ad.add(a, b), ad.reshape(ad.transpose(a, (1, 0)), (3, 4))),
        # a's only adjoint is a read-only broadcast_to view of sum_axes
        lambda a, b: ad.add(ad.sum_axes(a, 1, keepdims=True), b),
        lambda a, b: ad.add(ad.add(a, a), b),
        # a bias the shape of the output gets a view of the adjoint, as add does
        lambda a, b: ad.add(ad.affine(a, np.eye(4), b), b),
    ], ids=["add", "sub", "concat_axis0", "concat_axis1", "reshape_transpose", "sum_axes", "add_same_leaf",
            "affine_full_bias"])
    def test_leaf_grads_share_no_memory(self, build):
        rng = np.random.default_rng(17)
        tape = Tape()
        a = tape.var(rng.standard_normal((3, 4)))
        b = tape.var(rng.standard_normal((3, 4)))
        out = build(a, b)
        tape.backward(ad.sum_axes(ad.mul(out, ad.constant(rng.standard_normal(out.shape)))))
        assert not np.shares_memory(a.grad, b.grad)
        for mine, other in ((a, b), (b, a)):
            before = other.grad.copy()
            mine.grad += 1.0
            assert np.array_equal(other.grad, before)

    def test_same_leaf_twice_accumulates_both_adjoints(self):
        rng = np.random.default_rng(18)
        w = rng.standard_normal((3, 4))
        tape = Tape()
        a = tape.var(rng.standard_normal((3, 4)))
        tape.backward(ad.sum_axes(ad.mul(ad.add(a, a), ad.constant(w))))
        assert np.array_equal(a.grad, 2.0 * w)
        assert a.grad.flags.writeable


class TestDiffOps:
    def test_batched_mode_apply_matches_loop(self):
        rng = np.random.default_rng(13)
        t0 = rng.standard_normal((2, 3, 4, 5))
        s0 = rng.standard_normal((2, 6, 4))
        out = ops.batched_mode_apply_v(ad.constant(t0), ad.constant(s0), 2)
        expected = np.einsum("bij,bcjd->bcid", s0, t0)
        assert np.abs(out.value - expected).max() <= 1e-12

    @pytest.mark.parametrize("axis", [0, 1, 2])
    @pytest.mark.parametrize("n", [5, 20], ids=["gate", "key_first"])  # against M = 16
    @pytest.mark.parametrize("scale", [0.5, 4.0], ids=["unfloored", "floored"])
    def test_kernelized_apply_forward_matches_reference(self, axis, n, scale):
        rng = np.random.default_rng(14)
        spec = FeatureMapSpec(16, 4, seed=5)
        shape = [3, 2, 4]
        shape[axis] = n
        qt0 = rng.standard_normal((n, 4)) * scale
        kt0 = rng.standard_normal((n, 4)) * scale
        v0 = rng.standard_normal(tuple(shape) + (4,))
        gate, z = kernel_gate(qt0, kt0, spec)
        floored = int(np.count_nonzero(z < EPS_Z))
        if scale > 1.0:
            assert 0 < floored < n
        else:
            assert floored == 0
        # batched path with batch size 1 equals the materialized gate applied along the axis
        ref = mode_product(v0, gate, axis)
        out = ops.kernelized_mode_apply_v(
            ad.constant(v0[None]), ad.constant(qt0[None]), ad.constant(kt0[None]), axis + 1, spec)
        assert np.abs(out.value[0] - ref).max() <= 1e-12

    def test_layer_norm_normalizes(self):
        rng = np.random.default_rng(15)
        x0 = rng.standard_normal((4, 6)) * 3 + 1
        out = ops.layer_norm_v(ad.constant(x0), ad.constant(np.ones(6)), ad.constant(np.zeros(6)))
        assert np.abs(out.value.mean(axis=-1)).max() <= 1e-12
        assert np.abs(out.value.std(axis=-1) - 1.0).max() <= 1e-3

    def test_cross_entropy_matches_plain(self):
        from hot.train import cross_entropy

        rng = np.random.default_rng(16)
        logits = rng.standard_normal((5, 3))
        labels = rng.integers(0, 3, size=5)
        v = ops.cross_entropy_v(ad.constant(logits), labels)
        assert v.value == pytest.approx(cross_entropy(logits, labels), abs=1e-12)
