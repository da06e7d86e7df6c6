"""Minimal reverse-mode tape over numpy arrays.

A ``Var`` is tracked exactly when it was made on a tape: a leaf from
``Tape.var``, or the output of an op with a tracked operand.  Constants hold
no tape and record nothing.

Every op records the same way.  ``_operands`` finds the recording tape (that
of the first tracked operand) and turns plain arrays into constants; the op
computes its value and hands it to ``_node`` with a closure ``backward(g)``
that accumulates the adjoint ``g`` into its tracked operands.  ``_node``
returns a constant when no operand is tracked; otherwise it makes the output
on the tape and records one node, which calls ``backward`` only if an adjoint
reached the output.  Replaying the tape in reverse visits each recorded op
exactly once.  The sweep pops each node off the tape before it runs it, so a
node's closure, and with it the forward values and adjoints only it holds, is
freed as soon as the sweep has passed it rather than when the tape is dropped.

A node keeps only what its adjoint formula reads.  Every tracked ``Var`` has a
slot (``_Slot``: its ``grad``, whether it owns that buffer, and its shape),
and a closure holds its operands' and its output's slots, not the ``Var``
objects.  Of the values it holds only those its formula needs: ``matmul``,
``affine``, ``apply_along`` and ``mul`` the other operand's, and only for a
tracked side; ``exp`` and the softmaxes their output; ``power``, ``clip_min``
and ``gelu`` their input (``gelu`` its CDF too); ``layer_norm_last`` the normalized rows, their
inverse deviations and, for the input's adjoint, ``gamma``; ``rotate_pairs``
its phases; the linear ops (``add``, ``sub``, ``scale``, ``reshape``,
``transpose``, ``sum_axes``, ``concat``) shapes only.  So a forward value
that no adjoint reads is freed as soon as the forward code drops its ``Var``.
Off the tape, ``gelu``, ``layer_norm_last`` and ``affine`` finish in the
buffer they have just allocated, since nothing reads it again.

Adjoints are shared, not copied: a slot may keep as its ``grad`` a view or
alias of another node's adjoint (a reshape, an add's pass-through, a
``broadcast_to``).  This is safe because a backward closure never writes into
an adjoint it received, and a ``grad`` is only updated in place when its slot
owns it (``owns_grad``); a second accumulation into a borrowed buffer
allocates a new one.  ``Tape.backward`` ends by copying every leaf ``grad``
that is still borrowed, so leaf gradients are private and writable.

A ``Var`` holds its tape weakly, and the tape's nodes hold slots and arrays,
never a ``Var`` or the tape.  So the caller's ``Tape`` is the only strong
reference to a graph, and the graph has no reference cycles: when the caller
drops or rebinds the tape before running backward, reference counting frees
every recorded node at once, without waiting for the cyclic collector; after
``Tape.backward`` only the leaves and the ``Var`` objects the caller still
holds are left.  An op on a tracked ``Var`` whose tape is gone raises
``ValueError``.

Allocator policy.  A train step frees its whole graph, and the next step
allocates the same arrays again; ``predict`` does the same from call to call.
glibc's malloc would hand that memory back to the kernel (arrays above its
dynamic mmap threshold are unmapped on free, and the heap top is trimmed once
it exceeds twice that threshold), and the next step would fault every page
back in.  So importing this module calls ``mallopt`` three times: arrays below
32 MiB (glibc's largest mmap threshold) come from the heap, the heap top is
trimmed only beyond 1 GiB of free memory, and every thread allocates from one
heap (``M_ARENA_MAX`` 1).  Without the last, ``predict``'s helper thread
allocates from an arena of its own, which keeps its freed chunks as well: on
two CPUs, over 11 pairs of runs against the serial code, perfbench's median
peak RSS rose by 9.3% on ``forecast-train`` (its bound is 10%), 5.9% on
``voxel-train`` and 5.7% on ``voxel-predict``; with one heap it moved by at
most 2.2% (``BENCH_22.json``).  The setting is process-wide, so every thread
of the program allocates from that heap and takes its lock.  It applies only
where the C library has ``mallopt`` (glibc); elsewhere nothing is changed.
"""

from __future__ import annotations

import ctypes
import math
import weakref

import numpy as np
from numpy.lib.array_utils import normalize_axis_tuple
from scipy.special import ndtr

_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)

# mallopt parameters and values from glibc's <malloc.h>
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_M_ARENA_MAX = -8
_TRIM_THRESHOLD_BYTES = 1 << 30
_MMAP_THRESHOLD_BYTES = 32 << 20


def _keep_freed_memory_mapped() -> None:
    """Apply the allocator policy above where libc has ``mallopt``."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):  # no C library handle (Windows), or no mallopt
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES)
    mallopt(_M_ARENA_MAX, 1)


_keep_freed_memory_mapped()


class TapeConsumedError(RuntimeError):
    """Raised when a tape is asked to run backward a second time."""


class Tape:
    def __init__(self):
        self._nodes = []
        self._leaves = []
        self._consumed = False

    def var(self, value) -> "Var":
        """A tracked leaf; ``backward`` leaves its gradient in ``grad``."""
        v = Var(value, self)
        self._leaves.append(v)
        return v

    def record(self, fn) -> None:
        self._nodes.append(fn)

    def backward(self, loss: "Var") -> None:
        """Seed the scalar ``loss`` with adjoint 1 and sweep the tape in reverse.

        ``loss`` must have been recorded on this tape; otherwise ``ValueError``
        is raised and the tape can still run its backward.  Each node is
        released as the sweep passes it, so afterwards the tape holds only its
        leaves.
        """
        if self._consumed:
            raise TapeConsumedError("tape already consumed by a previous backward()")
        if loss.tape is not self:
            raise ValueError("backward() needs a loss recorded on this tape")
        if loss.value.size != 1:
            raise ValueError("backward() needs a scalar loss")
        self._consumed = True
        seed = loss._slot
        seed.grad = np.ones_like(loss.value)
        seed.owns_grad = True
        nodes = self._nodes
        while nodes:
            nodes.pop()()  # the node is freed once it has run
        for v in self._leaves:
            slot = v._slot
            if slot.grad is not None and not slot.owns_grad:
                slot.grad = np.array(slot.grad, dtype=np.float64)
                slot.owns_grad = True


class _Slot:
    """What the tape keeps of a tracked ``Var``: its adjoint and its shape."""

    __slots__ = ("grad", "owns_grad", "shape")

    def __init__(self, shape: tuple):
        self.grad = None
        self.owns_grad = False  # True once ``grad`` is a buffer no one else holds
        self.shape = shape


class Var:
    """A value in the computation graph; ``grad`` is filled by ``Tape.backward``."""

    __slots__ = ("value", "_slot", "_tape", "__weakref__")

    def __init__(self, value: np.ndarray, tape: Tape | None):
        self.value = np.asarray(value, dtype=np.float64)
        self._slot = None if tape is None else _Slot(self.value.shape)
        self._tape = None if tape is None else weakref.ref(tape)

    @property
    def grad(self) -> np.ndarray | None:
        """The adjoint left by ``Tape.backward``; always None on a constant."""
        return None if self._slot is None else self._slot.grad

    @property
    def tape(self) -> Tape | None:
        """The recording tape; None for a constant, or once the tape is freed."""
        return None if self._tape is None else self._tape()

    @property
    def shape(self):
        return self.value.shape


def constant(value) -> Var:
    return Var(value, None)


def _operands(*xs) -> tuple[Tape | None, list[Var]]:
    """The tape of the first tracked operand, and every operand as a ``Var``.

    Plain arrays become constants.  The tape is None when no operand is tracked.
    """
    tape = None
    out = []
    for x in xs:
        if not isinstance(x, Var):
            x = constant(x)
        elif tape is None and x._tape is not None:
            tape = x._tape()
            if tape is None:
                raise ValueError("an operand's tape has been freed; keep the Tape alive "
                                 "until its graph is no longer used")
        out.append(x)
    return tape, out


def _node(value: np.ndarray, tape: Tape | None, backward) -> Var:
    """The output ``Var`` of one op, recorded on ``tape`` unless it is None.

    ``tape`` comes from ``_operands``, so it is None exactly when no operand is
    tracked, and the output is then a constant.  Otherwise the recorded node
    keeps only the output's slot and ``backward``, and calls
    ``backward(grad)`` once an adjoint has reached the output.
    """
    if tape is None:
        return constant(value)
    out = Var(value, tape)
    slot = out._slot

    def node():
        if slot.grad is not None:
            backward(slot.grad)
    tape.record(node)
    return out


def _unary(tape: Tape | None, a: Var, value: np.ndarray, adjoint, owned: bool = True) -> Var:
    """The output of a one-operand op; ``adjoint(g)`` is what reaches ``a``.

    ``owned`` says ``adjoint`` returns a fresh array, as in ``_accum``.
    """
    slot = a._slot
    return _node(value, tape, lambda g: _accum(slot, adjoint(g), owned))


def _accum(slot: _Slot, g: np.ndarray, owned: bool = False) -> None:
    """Add adjoint ``g`` into ``slot.grad``, copying on write.

    The first adjoint is kept as it is.  ``owned`` says ``g`` is a fresh array
    no one else holds; otherwise it may be a (read-only) view or an alias of
    another node's ``grad``, so the next accumulation allocates ``grad + g``
    instead of writing into it.  An owned buffer accumulates in place.
    """
    if slot.grad is None:
        slot.grad = g
        slot.owns_grad = owned
    elif slot.owns_grad:
        slot.grad += g
    else:
        slot.grad = slot.grad + g
        slot.owns_grad = True


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a broadcast gradient back to ``shape``."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g.reshape(shape)


def _add_sub(a, b, op) -> Var:
    """``op`` is ``np.add`` or ``np.subtract``; the adjoints read shapes only."""
    tape, (a, b) = _operands(a, b)
    sa, sb = a._slot, b._slot
    negate = op is np.subtract

    def backward(g):
        if sa is not None:
            _accum(sa, _unbroadcast(g, sa.shape))
        if sb is not None:
            _accum(sb, _unbroadcast(-g if negate else g, sb.shape))
    return _node(op(a.value, b.value), tape, backward)


def add(a, b) -> Var:
    return _add_sub(a, b, np.add)


def sub(a, b) -> Var:
    return _add_sub(a, b, np.subtract)


def mul(a, b) -> Var:
    tape, (a, b) = _operands(a, b)
    sa, sb = a._slot, b._slot
    # each adjoint reads only the other operand's value
    av = a.value if sb is not None else None
    bv = b.value if sa is not None else None

    def backward(g):
        if sa is not None:
            _accum(sa, _unbroadcast(g * bv, sa.shape), owned=True)
        if sb is not None:
            _accum(sb, _unbroadcast(g * av, sb.shape), owned=True)
    return _node(a.value * b.value, tape, backward)


def scale(a, c: float) -> Var:
    c = float(c)
    tape, (a,) = _operands(a)
    return _unary(tape, a, a.value * c, lambda g: g * c)


def exp(a) -> Var:
    tape, (a,) = _operands(a)
    y = np.exp(a.value)
    return _unary(tape, a, y, lambda g: g * y)


def power(a, p: float) -> Var:
    p = float(p)
    tape, (a,) = _operands(a)
    x = a.value
    return _unary(tape, a, x ** p, lambda g: g * p * x ** (p - 1.0))


def clip_min(a, floor: float) -> Var:
    floor = float(floor)
    tape, (a,) = _operands(a)
    x = a.value
    return _unary(tape, a, np.maximum(x, floor), lambda g: g * (x > floor))


def gelu(a) -> Var:
    """Exact Gaussian-error-linear unit: x * Phi(x)."""
    tape, (a,) = _operands(a)
    x = a.value
    cdf = ndtr(x)  # Phi(x) = (1 + erf(x / sqrt(2))) / 2, reused by the adjoint
    if tape is None:  # no adjoint reads cdf: finish in its buffer
        cdf *= x
        return constant(cdf)

    def adjoint(g):
        pdf = _INV_SQRT2PI * np.exp(-0.5 * x * x)
        return g * (cdf + x * pdf)
    return _unary(tape, a, x * cdf, adjoint)


def _row_sum(*factors: np.ndarray) -> np.ndarray:
    """Sums along the last axis of the product of ``factors``, kept as a length-1 axis."""
    return np.einsum(",".join(["...i"] * len(factors)) + "->...", *factors)[..., None]


def layer_norm_last(a, gamma, beta, eps: float) -> Var:
    """Normalize the last axis to zero mean and unit variance, then scale and shift."""
    tape, (a, gamma, beta) = _operands(a, gamma, beta)
    n = a.shape[-1]
    xhat = a.value - _row_sum(a.value) / n
    rstd = 1.0 / np.sqrt(_row_sum(xhat, xhat) / n + eps)
    xhat *= rstd
    if tape is None and np.broadcast_shapes(xhat.shape, gamma.shape, beta.shape) == xhat.shape:
        xhat *= gamma.value  # no adjoint reads xhat: finish in its buffer
        xhat += beta.value
        return constant(xhat)
    y = xhat * gamma.value
    y += beta.value
    sa, sg, sb = a._slot, gamma._slot, beta._slot
    gv = gamma.value if sa is not None else None  # read only by a's adjoint

    def backward(g):
        if sa is not None:
            gy = g * gv
            dx = gy - _row_sum(gy) / n
            dx -= xhat * (_row_sum(gy, xhat) / n)
            dx *= rstd
            _accum(sa, dx, owned=True)
        if sg is not None:
            _accum(sg, _unbroadcast(g * xhat, sg.shape), owned=True)
        if sb is not None:
            _accum(sb, _unbroadcast(g, sb.shape))
    return _node(y, tape, backward)


def _turn_pairs(x: np.ndarray, phase: np.ndarray) -> np.ndarray:
    """Each pair (x0, x1) of the last axis read as x0 + i*x1, times ``phase``."""
    return (np.ascontiguousarray(x).view(np.complex128) * phase).view(np.float64)


def rotate_pairs(a, phase: np.ndarray) -> Var:
    """Rotate each feature pair of the last axis by the complex unit ``phase``.

    Pair j is the complex number ``a[2j] + i*a[2j+1]`` of a complex128 view,
    so ``phase`` has one entry per pair and broadcasts against
    ``a.shape[:-1] + (E/2,)``.  The adjoint is the inverse rotation,
    ``g * conj(phase)``.
    """
    tape, (a,) = _operands(a)
    return _unary(tape, a, _turn_pairs(a.value, phase), lambda g: _turn_pairs(g, phase.conj()))


def reshape(a, shape) -> Var:
    tape, (a,) = _operands(a)
    shape_in = a.shape
    return _unary(tape, a, a.value.reshape(tuple(shape)), lambda g: g.reshape(shape_in),
                  owned=False)


def transpose(a, axes) -> Var:
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))
    tape, (a,) = _operands(a)
    return _unary(tape, a, np.ascontiguousarray(np.transpose(a.value, axes)),
                  lambda g: np.transpose(g, inverse), owned=False)


def sum_axes(a, axes=None, keepdims: bool = False) -> Var:
    """``np.sum`` over ``axes`` (default all), as one ``np.einsum`` over the kept axes."""
    tape, (a,) = _operands(a)
    nd = a.value.ndim
    axes = tuple(range(nd)) if axes is None else normalize_axis_tuple(axes, nd)
    kept = [ax for ax in range(nd) if ax not in axes]
    # with nothing to sum, einsum would return a view of a.value
    value = np.einsum(a.value, list(range(nd)), kept) if axes else a.value.copy()
    if keepdims:
        value = np.expand_dims(value, axes)
    shape = a.shape

    def adjoint(g):
        if not keepdims:
            g = np.expand_dims(g, axes)
        return np.broadcast_to(g, shape)
    return _unary(tape, a, value, adjoint, owned=False)


def mean_all(a) -> Var:
    _, (a,) = _operands(a)
    return scale(sum_axes(a), 1.0 / a.value.size)


def _matmul_backward(sa: _Slot | None, sb: _Slot | None, lhs: np.ndarray, rhs: np.ndarray,
                     ta: bool, tb: bool):
    """The adjoint of ``lhs @ rhs`` into slots ``sa``/``sb`` of the untransposed operands.

    Each side's adjoint reads only the other side, so ``rhs`` is kept only
    when ``a`` is tracked and ``lhs`` only when ``b`` is.
    """
    shared_weight = rhs.ndim == 2 and lhs.ndim != 2
    lhs = lhs if sb is not None else None
    rhs = rhs if sa is not None else None

    def backward(g):
        if sa is not None:
            # y = A @ B with A = a^T(a) etc.; undo the transposes
            if ta:
                da = np.matmul(rhs, g.swapaxes(-1, -2))
            else:
                da = np.matmul(g, rhs.swapaxes(-1, -2))
            _accum(sa, da, owned=True)
        if sb is not None:
            if shared_weight:
                db = lhs.reshape(-1, lhs.shape[-1]).T @ g.reshape(-1, g.shape[-1])
            else:
                db = np.matmul(lhs.swapaxes(-1, -2), g)
            if tb:
                db = db.swapaxes(-1, -2)
            _accum(sb, db, owned=True)
    return backward


def matmul(a, b, ta: bool = False, tb: bool = False) -> Var:
    """Batched matrix product over the last two axes (BLAS-backed).

    ``ta``/``tb`` transpose the last two axes of the operand first.  Leading
    axes must match exactly, except that a 2-D ``b`` broadcasts across all
    leading axes of ``a`` (the usual shared-weight case), and a 1-D ``a`` is
    a single row.
    """
    tape, (a, b) = _operands(a, b)
    lhs = a.value.swapaxes(-1, -2) if ta else a.value
    rhs = b.value.swapaxes(-1, -2) if tb else b.value
    return _node(np.matmul(lhs, rhs), tape, _matmul_backward(a._slot, b._slot, lhs, rhs, ta, tb))


def affine(x, w, b) -> Var:
    """``x @ w + b`` as one node, the bias added in place into the fresh product.

    ``w`` is 2-D and ``b`` broadcasts against ``x @ w`` without enlarging it
    (a bias vector).  The adjoints of ``x`` and ``w`` are those of ``matmul``;
    that of ``b`` is the output adjoint summed over its broadcast axes.
    """
    tape, (x, w, b) = _operands(x, w, b)
    y = np.matmul(x.value, w.value)
    y += b.value
    matmul_backward = _matmul_backward(x._slot, w._slot, x.value, w.value, False, False)
    sb = b._slot

    def backward(g):
        if sb is not None:
            gb = _unbroadcast(g, sb.shape)
            # without a sum (1-D x) gb is a view of g, which other nodes may share
            _accum(sb, gb, owned=not np.may_share_memory(gb, g))
        matmul_backward(g)
    return _node(y, tape, backward)


def apply_along(s, t, axis: int, lead: int = 1) -> Var:
    """Apply matrices ``s`` (*lead, d, N) along ``axis`` of ``t`` (*lead, ..., N, ...).

    ``t`` is viewed as (*lead, pre, N, post), with ``pre`` and ``post`` the
    flattened axes before and after ``axis``, so the product
    ``s[..., None, :, :] @ t`` needs no transpose of ``t``.  The result has
    ``d`` at ``axis``.  The adjoints are ``s^T`` applied the same way, and
    ``g @ t^T`` summed over ``pre``.
    """
    tape, (s, t) = _operands(s, t)
    if not lead <= axis < t.value.ndim:
        raise ValueError(f"axis {axis} lies outside the {t.value.ndim - lead} axes after "
                         f"{lead} leading batch axes")
    shape = t.shape
    lead_shape = shape[:lead]
    d, n = s.shape[-2:]
    if s.shape[:-2] != lead_shape or shape[axis] != n:
        raise ValueError(f"matrices {s.shape} cannot apply along axis {axis} of {shape}")
    pre = math.prod(shape[lead:axis])
    post = math.prod(shape[axis + 1:])
    sv = s.value[..., None, :, :]
    t3 = t.value.reshape(lead_shape + (pre, n, post))
    out_shape = shape[:axis] + (d,) + shape[axis + 1:]
    value = np.matmul(sv, t3).reshape(out_shape)
    ss, st = s._slot, t._slot
    # each adjoint reads only the other operand
    sv = sv if st is not None else None
    t3 = t3 if ss is not None else None

    def backward(g):
        g3 = g.reshape(lead_shape + (pre, d, post))
        if st is not None:
            _accum(st, np.matmul(sv.swapaxes(-1, -2), g3).reshape(shape), owned=True)
        if ss is not None:
            _accum(ss, np.matmul(g3, t3.swapaxes(-1, -2)).sum(axis=-3), owned=True)
    return _node(value, tape, backward)


def concat(xs, axis: int) -> Var:
    """Concatenate along ``axis``; the adjoint splits gradients back into views."""
    tape, xs = _operands(*xs)
    slots = [x._slot for x in xs]
    offsets = np.cumsum([x.shape[axis] for x in xs[:-1]])

    def backward(g):
        for slot, part in zip(slots, np.split(g, offsets, axis)):
            if slot is not None:
                _accum(slot, part)
    return _node(np.concatenate([x.value for x in xs], axis=axis), tape, backward)


def softmax_last(a) -> Var:
    """Softmax along the last axis, stabilized by max subtraction."""
    tape, (a,) = _operands(a)
    shifted = a.value - a.value.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    p = e / e.sum(axis=-1, keepdims=True)
    return _unary(tape, a, p, lambda g: p * (g - (g * p).sum(axis=-1, keepdims=True)))


def log_softmax_last(a) -> Var:
    tape, (a,) = _operands(a)
    shifted = a.value - a.value.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    out = shifted - lse
    return _unary(tape, a, out, lambda g: g - np.exp(out) * g.sum(axis=-1, keepdims=True))
