"""Training machinery: Adam, losses and metrics, finite-difference gradient
checking, and seeded synthetic tasks.

Synthetic task generators
-------------------------
``separable-spatiotemporal-forecast`` draws band-limited random series

    x[t, n] = sum_p c[p, n] sin(2 pi f_p t / T) + d[p, n] cos(2 pi f_p t / T)
              + noise * eps,    c, d ~ N(0, 1/P) i.i.d. per sample

over P task-level frequencies (enough that one 4-step patch pins down only a
small part of a variable's trajectory, and odd moments vanish so products
have no linear shortcut).  With anchor time a = T-1-s and the time-averaged
profile e[m] = mean of x[t, m] over the last quarter window (a genuinely
varying time-pooled summary of each variable), the target adds three
interaction families to a linear read:

    w[n, m]  = softmax_m(beta * e[n] * e[m])                  (content routing)
    y[s, n] = sum_m C[n, m] * x[a - L_m, m]
              + gA * x[a - dA1, n] * x[a - dA2, n]                  (time pair)
              + gB * x[a - dB, n]  * sum_m w[n, m] x[a - dB, m]     (variable retrieval)
              + gC * x[a - dC1, n] * sum_m w[n, m] x[a - dC2, m]    (cross retrieval)

Every term is permutation-equivariant along variables (routing weights come
from content, not variable identity).  ``interaction_gain`` scales the three
interaction families; the linear read alone (gain 0) already couples
cross-variate mixing with variable-specific lags.

The interaction families give nonlinear structure that an affine readout of
the flattened input cannot express (a flatten-head attention model fits them
to a small residual, a trained linear baseline cannot).  The attention-order
comparison instead uses gain 0 together with a mean-pooled prediction head:
with the head reading only the token average, positional information reaches
the output solely through attention (rotary phases live in the gates), so
recovering a variable-specific lagged read needs routing along time *and*
routing along variables, a single-mode model resolves only its own mode, and
a no-attention model cannot resolve positions at all.  Measured train error
then orders both-modes < single-mode < no-attention.

``cross-mode-voxel-classify`` plants a rank-one three-way pattern
``s * u o v o w`` (outer product over the three spatial axes) in noise; the
class is the sign ``s``.  Recovering the sign requires correlating the volume
against the pattern jointly over all three axes.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tape
from .diffops import cross_entropy_v, mse_v
from .model import HOTModel


class NonFiniteGradientError(RuntimeError):
    """Raised when an optimizer step sees NaN or infinite gradients."""


# ---------------------------------------------------------------------------
# optimizer


@dataclass
class OptimState:
    """Adam state: per-parameter moment estimates plus hyperparameters."""

    lr: float = 2e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_init(params: dict[str, np.ndarray], lr: float = 2e-4) -> OptimState:
    state = OptimState(lr=lr)
    for name, p in params.items():
        state.m[name] = np.zeros_like(p)
        state.v[name] = np.zeros_like(p)
    return state


def adam_step(state: OptimState, grads: dict[str, np.ndarray],
              params: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """One bias-corrected Adam update; returns the new parameter dict."""
    state.step += 1
    t = state.step
    out = {}
    for name, p in params.items():
        g = grads[name]
        if not np.all(np.isfinite(g)):
            raise NonFiniteGradientError(f"non-finite gradient for {name!r} at step {t}")
        state.m[name] = state.beta1 * state.m[name] + (1 - state.beta1) * g
        state.v[name] = state.beta2 * state.v[name] + (1 - state.beta2) * g * g
        m_hat = state.m[name] / (1 - state.beta1 ** t)
        v_hat = state.v[name] / (1 - state.beta2 ** t)
        out[name] = p - state.lr * m_hat / (np.sqrt(v_hat) + state.eps)
    return out


# ---------------------------------------------------------------------------
# losses and metrics (plain arrays)


def mse(pred: np.ndarray, target: np.ndarray) -> float:
    _check_pair(pred, target)
    return float(np.mean((pred - target) ** 2))


def mae(pred: np.ndarray, target: np.ndarray) -> float:
    _check_pair(pred, target)
    return float(np.mean(np.abs(pred - target)))


def cross_entropy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Mean negative log-likelihood of integer labels under row logits."""
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels)
    if logits.ndim != 2 or labels.shape != (logits.shape[0],):
        raise ValueError("cross_entropy expects (N, C) logits and (N,) labels")
    if logits.shape[0] == 0:
        raise ValueError("empty inputs")
    if labels.min() < 0 or labels.max() >= logits.shape[1]:
        raise ValueError("label out of range")
    shifted = logits - logits.max(axis=1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    return float(-logp[np.arange(len(labels)), labels].mean())


def accuracy(logits: np.ndarray, labels: np.ndarray) -> float:
    logits = np.asarray(logits)
    if logits.shape[0] == 0:
        raise ValueError("empty inputs")
    return float(np.mean(logits.argmax(axis=1) == np.asarray(labels)))


def _check_pair(pred, target):
    pred = np.asarray(pred)
    target = np.asarray(target)
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch {pred.shape} vs {target.shape}")
    if pred.size == 0:
        raise ValueError("empty inputs")


# ---------------------------------------------------------------------------
# finite differences


def finite_diff_check(f, params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
                      eps: float = 1e-5, rng: np.random.Generator | None = None,
                      min_coords: int = 64) -> float:
    """Compare analytic gradients against central finite differences.

    For each parameter, samples at least ``min_coords`` coordinates (all of
    them when the parameter is smaller), evaluates
    ``(f(x + eps e) - f(x - eps e)) / (2 eps)``, and reports the maximum over
    parameters of ``max_i |analytic_i - numeric_i| / max(scale, 1e-12)`` where
    ``scale`` is the largest gradient magnitude seen for that parameter.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    worst = 0.0
    base = {k: v.copy() for k, v in params.items()}
    for name, p in base.items():
        flat = p.reshape(-1)
        n = flat.size
        idx = np.arange(n) if n <= min_coords else rng.choice(n, size=min_coords, replace=False)
        numeric = np.zeros(idx.size)
        for j, i in enumerate(idx):
            orig = flat[i]
            flat[i] = orig + eps
            up = f(base)
            flat[i] = orig - eps
            down = f(base)
            flat[i] = orig
            if not (np.isfinite(up) and np.isfinite(down)):
                raise ValueError(f"non-finite loss while probing {name!r}")
            numeric[j] = (up - down) / (2.0 * eps)
        analytic = grads[name].reshape(-1)[idx]
        scale = max(np.abs(analytic).max(initial=0.0), np.abs(numeric).max(initial=0.0), 1e-12)
        worst = max(worst, float(np.abs(analytic - numeric).max(initial=0.0) / scale))
    return worst


# ---------------------------------------------------------------------------
# synthetic tasks


@dataclass(frozen=True)
class SyntheticTaskSpec:
    kind: str  # "separable-spatiotemporal-forecast" | "cross-mode-voxel-classify"
    n_train: int = 256
    n_val: int = 64
    seed: int = 0
    noise: float = 0.05
    # forecast fields
    t_len: int = 32
    n_series: int = 8
    horizon: int = 8
    interaction_gain: float = 0.6
    # classification fields
    volume: tuple[int, int, int] = (8, 8, 8)
    num_classes: int = 2

    def __post_init__(self):
        if self.kind not in ("separable-spatiotemporal-forecast", "cross-mode-voxel-classify"):
            raise ValueError(f"unknown synthetic task {self.kind!r}")
        if min(self.n_train, self.n_val) < 1:
            raise ValueError("need at least one sample per split")
        if self.interaction_gain < 0:
            raise ValueError("interaction_gain must be >= 0")


@dataclass(frozen=True)
class Dataset:
    train_x: np.ndarray
    train_y: np.ndarray
    val_x: np.ndarray
    val_y: np.ndarray
    spec: SyntheticTaskSpec


@dataclass(frozen=True)
class ForecastStructure:
    """Fixed task-level structure shared by every sample of one dataset."""

    freqs: np.ndarray
    mix: np.ndarray
    lags: np.ndarray
    time_lags: tuple[int, int]
    var_lag: int
    cross_lags: tuple[int, int]
    beta: float
    gains: tuple[float, float, float]


N_WAVES = 16
ROUTE_BETA = 8.0


def _forecast_structure(spec: SyntheticTaskSpec, rng: np.random.Generator) -> ForecastStructure:
    t_len, n_series = spec.t_len, spec.n_series
    freqs = rng.uniform(1.0, t_len / 3.0, size=N_WAVES)
    mix = rng.standard_normal((n_series, n_series)) / np.sqrt(n_series)
    lags = rng.integers(1, max(2, t_len // 4), size=n_series)
    # lag choices assume time patches of 4: the time pair spans two patches,
    # the variable retrieval shares one time step, the cross retrieval
    # differs in both
    g = spec.interaction_gain
    return ForecastStructure(
        freqs=freqs, mix=mix, lags=lags,
        time_lags=(max(1, t_len // 6), max(2, t_len // 3)),
        var_lag=max(1, t_len // 5),
        cross_lags=(max(2, (2 * t_len) // 5), 2),
        beta=ROUTE_BETA,
        gains=(g, g, g),
    )


def forecast_targets(clean: np.ndarray, st: ForecastStructure, horizon: int) -> np.ndarray:
    """The documented target formula applied to one clean series (t_len, N)."""
    t_len, n_series = clean.shape
    ys = np.zeros((horizon, n_series))
    idx = np.arange(n_series)
    ga, gb, gc = st.gains
    e = clean[-(t_len // 4):].mean(axis=0)
    logits = st.beta * np.outer(e, e)
    w = np.exp(logits - logits.max(axis=1, keepdims=True))
    w /= w.sum(axis=1, keepdims=True)
    for s in range(horizon):
        a = t_len - 1 - s
        lagged = clean[np.maximum(a - st.lags, 0), idx]
        time_pair = clean[max(a - st.time_lags[0], 0), idx] * clean[max(a - st.time_lags[1], 0), idx]
        var_ret = clean[max(a - st.var_lag, 0), idx] * (w @ clean[max(a - st.var_lag, 0), idx])
        cross_ret = (clean[max(a - st.cross_lags[0], 0), idx]
                     * (w @ clean[max(a - st.cross_lags[1], 0), idx]))
        ys[s] = st.mix @ lagged + ga * time_pair + gb * var_ret + gc * cross_ret
    return ys


def _gen_forecast(spec: SyntheticTaskSpec, st: ForecastStructure, rng: np.random.Generator,
                  n: int) -> tuple[np.ndarray, np.ndarray]:
    t_len, n_series, horizon = spec.t_len, spec.n_series, spec.horizon
    xs = np.zeros((n, t_len, n_series))
    ys = np.zeros((n, horizon, n_series))
    tt = np.arange(t_len)
    sines = np.sin(2.0 * np.pi * np.outer(tt, st.freqs) / t_len)  # (t_len, P)
    cosines = np.cos(2.0 * np.pi * np.outer(tt, st.freqs) / t_len)
    scale = 1.0 / math.sqrt(len(st.freqs))
    for i in range(n):
        c = rng.standard_normal((len(st.freqs), n_series)) * scale
        d = rng.standard_normal((len(st.freqs), n_series)) * scale
        clean = sines @ c + cosines @ d
        ys[i] = forecast_targets(clean, st, horizon)
        xs[i] = clean + spec.noise * rng.standard_normal((t_len, n_series))
    return xs, ys


def _classify_pattern(spec: SyntheticTaskSpec, rng: np.random.Generator) -> np.ndarray:
    u, v, z = (rng.standard_normal(d) for d in spec.volume)
    u, v, z = (vec / np.linalg.norm(vec) for vec in (u, v, z))
    return np.einsum("i,j,k->ijk", u, v, z)


def _gen_classify(spec: SyntheticTaskSpec, pattern: np.ndarray, rng: np.random.Generator,
                  n: int) -> tuple[np.ndarray, np.ndarray]:
    xs = np.zeros((n,) + spec.volume)
    ys = np.zeros(n, dtype=np.int64)
    classes = np.linspace(-1.0, 1.0, spec.num_classes)
    for i in range(n):
        c = int(rng.integers(spec.num_classes))
        ys[i] = c
        xs[i] = classes[c] * pattern + spec.noise * rng.standard_normal(spec.volume)
    return xs, ys


def gen_synthetic(spec: SyntheticTaskSpec) -> Dataset:
    """Deterministic train/val splits for the configured task (seeded).

    The task-level structure (wave frequencies, mixing, lags, permutations; or
    the planted rank-one voxel pattern) is drawn once and shared by both
    splits, so validation poses the same prediction problem as training.
    """
    rng = np.random.default_rng(spec.seed)
    if spec.kind == "separable-spatiotemporal-forecast":
        st = _forecast_structure(spec, rng)
        train_x, train_y = _gen_forecast(spec, st, rng, spec.n_train)
        val_x, val_y = _gen_forecast(spec, st, rng, spec.n_val)
    else:
        pattern = _classify_pattern(spec, rng)
        train_x, train_y = _gen_classify(spec, pattern, rng, spec.n_train)
        val_x, val_y = _gen_classify(spec, pattern, rng, spec.n_val)
    return Dataset(train_x, train_y, val_x, val_y, spec)


# ---------------------------------------------------------------------------
# training loops


@dataclass
class TrainResult:
    history: list  # rows of (step, loss, val_mse, val_mae, seconds)
    final_train_mse: float
    final_val_mse: float
    final_val_mae: float
    best_val_mae_step: int
    best_val_mse_step: int


def collect_grads(param_vars: dict[str, ad.Var]) -> dict[str, np.ndarray]:
    """Gradients per parameter; leaves untouched by the graph get zeros."""
    return {
        k: (v.grad if v.grad is not None else np.zeros_like(v.value))
        for k, v in param_vars.items()
    }


def model_loss(model: HOTModel, x: np.ndarray, y: np.ndarray,
               tape: Tape) -> tuple[ad.Var, dict[str, ad.Var]]:
    """Forward plus task loss on the tape; returns (loss, parameter leaves)."""
    param_vars = {k: tape.var(v) for k, v in model.params.items()}
    out = model.forward(x, param_vars)
    if model.config.head.task == "forecast":
        loss = mse_v(out, y)
    else:
        loss = cross_entropy_v(out, y)
    return loss, param_vars


def train_model(model: HOTModel, data: Dataset, steps: int, batch_size: int = 32,
                lr: float = 2e-3, seed: int = 0, eval_every: int = 50) -> TrainResult:
    """Minibatch Adam training with periodic validation metrics.

    Both the lowest-val-MAE and lowest-val-MSE selection steps are reported so
    selection rules can be compared; training always runs the full budget.
    Raises ``ValueError`` before any work when ``steps < 0``,
    ``batch_size < 1`` or ``eval_every < 1``.
    """
    for name, value, least in (("steps", steps, 0), ("batch_size", batch_size, 1),
                               ("eval_every", eval_every, 1)):
        if value < least:
            raise ValueError(f"{name} must be at least {least}, got {value}")
    if model.config.head.task == "forecast":
        loss_of, error_of = mse, mae
    else:
        loss_of, error_of = cross_entropy, lambda logits, labels: 1.0 - accuracy(logits, labels)
    rng = np.random.default_rng(seed)
    state = adam_init(model.params, lr=lr)
    history = []
    best_mae = (np.inf, 0)
    best_mse = (np.inf, 0)
    start = time.perf_counter()
    n = data.train_x.shape[0]
    for step in range(1, steps + 1):
        idx = rng.choice(n, size=min(batch_size, n), replace=False)
        tape = Tape()
        loss, param_vars = model_loss(model, data.train_x[idx], data.train_y[idx], tape)
        tape.backward(loss)
        grads = collect_grads(param_vars)
        model.params = adam_step(state, grads, model.params)
        if step % eval_every == 0 or step == steps:
            val_pred = model.predict(data.val_x)
            v_mse, v_mae = loss_of(val_pred, data.val_y), error_of(val_pred, data.val_y)
            if v_mae < best_mae[0]:
                best_mae = (v_mae, step)
            if v_mse < best_mse[0]:
                best_mse = (v_mse, step)
            history.append((step, float(loss.value), v_mse, v_mae, time.perf_counter() - start))
    final_train = loss_of(model.predict(data.train_x), data.train_y)
    final_val = loss_of(model.predict(data.val_x), data.val_y)
    final_val_mae = error_of(model.predict(data.val_x), data.val_y)
    return TrainResult(history, final_train, final_val, final_val_mae,
                       best_val_mae_step=best_mae[1], best_val_mse_step=best_mse[1])


def train_linear_readout(data: Dataset, steps: int, batch_size: int = 32,
                         lr: float = 2e-3, seed: int = 0) -> float:
    """Adam-trained affine baseline from the flattened input; returns train MSE."""
    rng = np.random.default_rng(seed)
    n, in_dim = data.train_x.shape[0], int(np.prod(data.train_x.shape[1:]))
    out_dim = int(np.prod(data.train_y.shape[1:]))
    limit = np.sqrt(6.0 / (in_dim + out_dim))
    params = {
        "w": rng.uniform(-limit, limit, size=(in_dim, out_dim)),
        "b": np.zeros(out_dim),
    }
    state = adam_init(params, lr=lr)
    flat_x = data.train_x.reshape(n, in_dim)
    flat_y = data.train_y.reshape(n, out_dim)
    for _ in range(steps):
        idx = rng.choice(n, size=min(batch_size, n), replace=False)
        tape = Tape()
        w = tape.var(params["w"])
        b = tape.var(params["b"])
        pred = ad.affine(flat_x[idx], w, b)
        loss = mse_v(pred, flat_y[idx])
        tape.backward(loss)
        params = adam_step(state, {"w": w.grad, "b": b.grad}, params)
    pred = flat_x @ params["w"] + params["b"]
    return mse(pred, flat_y)
