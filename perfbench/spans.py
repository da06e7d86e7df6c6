"""Per-layer self times for the traced benchmark run.

The tracer wraps public functions of ``hot.model``, ``hot.diffops``,
``hot.autodiff`` and ``hot.train`` from outside the program and restores them
on exit.  Each wrapped call opens a span; a span's self time is its duration
minus that of the spans it opens, so the self times of one traced operation
add up to its wall time.

Backward time is attributed through ``Tape.record``: every recorded closure
is wrapped so that, when ``Tape.backward`` runs it, its time is charged to
the ``.bwd`` twin of the layer that was open when the closure was recorded.

Two spans change their own label part-way, because the code they cover has
no function boundary to wrap:

- ``HOTModel.forward`` is ``model.patch`` until the first block returns and
  ``model.head`` after it;
- ``attention_sublayer_v`` is ``model.qkv`` (projections, head split and the
  per-forward ``projection_matrix``) until a pooling returns, ``diffops.gate``
  (softmax logits) until a mode application returns, and ``model.attn_out``
  (head merge and output projection) after that.

``predict`` called inside ``train_model`` is the end-of-training evaluation.
It is one opaque ``train.eval`` span, so the layer times hold the train steps
only.
"""

from __future__ import annotations

import functools
import weakref
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter_ns

import numpy as np

import hot.autodiff as ad
import hot.diffops as ops
import hot.model as hm
import hot.train as ht

# Labels that self time is charged to.  Every nanosecond of a traced
# operation lands on exactly one of them.
SELF_LABELS = tuple(
    [f"model.{layer}.{d}" for layer in ("patch", "qkv", "rotary", "attn_out", "ffn", "head",
                                         "residual") for d in ("fwd", "bwd")]
    + [f"diffops.{layer}.{d}" for layer in ("pool", "gate", "mode_apply", "layer_norm", "loss")
       for d in ("fwd", "bwd")]
    + ["autodiff.sweep", "train.loop", "train.adam", "train.collect_grads", "train.eval",
       "model.predict"]
)

# (parent span, returning child span) -> the parent's label from then on
_AFTER = {
    ("model.forward", "model.block"): "model.head.fwd",
    ("model.attention", "diffops.pool"): "diffops.gate.fwd",
    ("model.attention", "diffops.mode_apply"): "model.attn_out.fwd",
}


def _bwd_label(label: str) -> str:
    return label[:-len(".fwd")] + ".bwd" if label.endswith(".fwd") else label + ".bwd"


class Tracer:
    """Span stack with exclusive-time accounting; install with :meth:`installed`."""

    def __init__(self):
        self.self_ns = defaultdict(int)
        self.total_ns = defaultdict(int)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.live_tapes_max = 0
        self._tapes = weakref.WeakSet()
        self._stack = []  # frames: [label, span name, start ns]
        self._last = 0
        self._off = 1  # wrappers pass straight through while positive

    # -- accounting ---------------------------------------------------------

    def _enter(self, name: str, label: str) -> None:
        now = perf_counter_ns()
        if self._stack:
            self.self_ns[self._stack[-1][0]] += now - self._last
        self._last = now
        self._stack.append([label, name, now])

    def _exit(self) -> None:
        now = perf_counter_ns()
        label, name, start = self._stack.pop()
        self.self_ns[label] += now - self._last
        self._last = now
        self.total_ns[name] += now - start
        self.calls[name] += 1
        if self._stack:
            parent = self._stack[-1]
            parent[0] = _AFTER.get((parent[1], name), parent[0])

    @contextmanager
    def measuring(self):
        """Record spans only inside this block (one traced operation or round)."""
        self._off -= 1
        try:
            yield
        finally:
            self._off += 1

    # -- wrappers -----------------------------------------------------------

    def _span(self, fn, name: str, label: str, opaque: bool = False):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._off:
                return fn(*args, **kwargs)
            tracer._enter(name, label)
            tracer._off += opaque
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._off -= opaque
                tracer._exit()
        return wrapper

    def _predict(self, fn):
        in_eval = self._span(fn, "train.eval", "train.eval", opaque=True)
        direct = self._span(fn, "model.predict", "model.predict")
        tracer = self

        @functools.wraps(fn)
        def wrapper(model, x_raw):
            if not tracer._off and tracer._stack and tracer._stack[-1][1] == "train.train_model":
                tracer.counts["train.eval_predict_calls"] += 1
                return in_eval(model, x_raw)
            return direct(model, x_raw)
        return wrapper

    def _counted(self, fn, key: str):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer._off:
                tracer.counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _clip_min(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(a, floor):
            if not tracer._off:
                z = a.value if isinstance(a, ad.Var) else np.asarray(a)
                tracer.counts["attn.z_floored_rows"] += int(np.count_nonzero(z < floor))
                tracer.counts["attn.z_rows"] += z.size
            return fn(a, floor)
        return wrapper

    def _record(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(tape, closure):
            if tracer._off or not tracer._stack:
                return fn(tape, closure)
            label = _bwd_label(tracer._stack[-1][0])
            tracer.counts["autodiff.tape_nodes"] += 1

            def timed():
                tracer._enter(label, label)
                try:
                    closure()
                finally:
                    tracer._exit()
            return fn(tape, timed)
        return wrapper

    def _tape_init(self, fn):
        tapes = self._tapes

        @functools.wraps(fn)
        def wrapper(tape, *args, **kwargs):
            fn(tape, *args, **kwargs)
            tapes.add(tape)
        return wrapper

    def _adam_step(self, fn):
        span = self._span(fn, "train.adam", "train.adam")
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = span(*args, **kwargs)
            if not tracer._off:
                # end of a step: this step's tape plus any earlier one not yet reclaimed
                tracer.live_tapes_max = max(tracer.live_tapes_max, len(tracer._tapes))
            return out
        return wrapper

    def _patches(self):
        s = self._span
        return [
            (ht, "train_model", lambda f: s(f, "train.train_model", "train.loop")),
            (ht, "model_loss", lambda f: s(f, "train.model_loss", "train.loop")),
            (ht, "mse_v", lambda f: s(f, "diffops.loss", "diffops.loss.fwd")),
            (ht, "cross_entropy_v", lambda f: s(f, "diffops.loss", "diffops.loss.fwd")),
            (ht, "collect_grads", lambda f: s(f, "train.collect_grads", "train.collect_grads")),
            (ht, "adam_init", lambda f: s(f, "train.adam", "train.adam")),
            (ht, "adam_step", self._adam_step),
            (ht, "mse", lambda f: s(f, "train.eval", "train.eval")),
            (ht, "mae", lambda f: s(f, "train.eval", "train.eval")),
            (ht, "cross_entropy", lambda f: s(f, "train.eval", "train.eval")),
            (ht, "accuracy", lambda f: s(f, "train.eval", "train.eval")),
            (hm.HOTModel, "predict", self._predict),
            (hm.HOTModel, "forward", lambda f: s(f, "model.forward", "model.patch.fwd")),
            (hm, "block_forward_v", lambda f: s(f, "model.block", "model.residual.fwd")),
            (hm, "attention_sublayer_v", lambda f: s(f, "model.attention", "model.qkv.fwd")),
            (hm, "_rotary_v", lambda f: s(f, "model.rotary", "model.rotary.fwd")),
            (hm, "_pooled", lambda f: s(f, "diffops.pool", "diffops.pool.fwd")),
            (hm, "ffn_v", lambda f: s(f, "model.ffn", "model.ffn.fwd")),
            (hm, "projection_matrix",
             lambda f: self._counted(f, "features.projection_matrix_calls")),
            (ops, "projection_matrix",
             lambda f: self._counted(f, "features.projection_matrix_calls")),
            (ops, "layer_norm_v", lambda f: s(f, "diffops.layer_norm", "diffops.layer_norm.fwd")),
            (ops, "batched_mode_apply_v",
             lambda f: s(f, "diffops.mode_apply", "diffops.mode_apply.fwd")),
            (ops, "kernelized_mode_apply_v",
             lambda f: s(f, "diffops.mode_apply", "diffops.mode_apply.fwd")),
            (ops, "feature_map_v", lambda f: s(f, "diffops.gate", "diffops.gate.fwd")),
            (ad, "clip_min", self._clip_min),
            (ad.Tape, "record", self._record),
            (ad.Tape, "backward", lambda f: s(f, "autodiff.backward", "autodiff.sweep")),
            (ad.Tape, "__init__", self._tape_init),
        ]

    @contextmanager
    def installed(self):
        """Wrap the program's functions for the duration of the block."""
        saved = []
        try:
            for owner, attr, make in self._patches():
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, make(original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- results ------------------------------------------------------------

    def self_sum_ns(self) -> int:
        return sum(self.self_ns.values())

    def unknown_labels(self) -> list[str]:
        return sorted(set(self.self_ns) - set(SELF_LABELS))

    def metrics(self, operations: int, rounds: int) -> dict[str, float]:
        """Per-operation figures: ms of self time per label, counts per operation."""
        per_op = 1e-6 / operations
        out = {f"{label}_ms": self.self_ns.get(label, 0) * per_op for label in SELF_LABELS}
        out["autodiff.backward_ms"] = self.total_ns.get("autodiff.backward", 0) * per_op
        out["autodiff.tape_nodes"] = self.counts["autodiff.tape_nodes"] / operations
        out["autodiff.live_tapes_max"] = float(self.live_tapes_max)
        out["train.eval_predict_calls"] = self.counts["train.eval_predict_calls"] / rounds
        out["features.projection_matrix_calls"] = (
            self.counts["features.projection_matrix_calls"] / operations)
        forwards = max(self.calls.get("model.forward", 0), 1)
        out["attn.z_floored_rows"] = self.counts["attn.z_floored_rows"] / forwards
        out["attn.z_rows"] = self.counts["attn.z_rows"] / forwards
        return out
