"""Verification and benchmark command line.

    hot <equiv|gradcheck|kronrank|bench|ablate|train> [--config FILE]
        [--seed N] [--out DIR]

Each command reads one JSON config document into its config dataclass (keys,
JSON types and value ranges are checked before any work starts), writes CSV
reports plus a ``<command>_summary.json`` with per-assertion pass/fail, and
exits 0 when every assertion holds, 1 on a tolerance breach, and 2 on a
config error.  All randomness is seeded, so reruns with the same
config reproduce every non-timing output byte for byte.

A config sizes the work (shapes, grids, seeds, steps, reps); it never sets a
verdict.  Every tolerance, slope window and memory ratio is a constant of
this module and no key switches a check off, so no config can loosen or
skip one.

CSV dialect: comma separated, header row, UTF-8, LF line endings, floats with
17 significant digits.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys
import time
import tracemalloc
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import ClassVar

import numpy as np

from . import autodiff as ad
from . import diffops as ops
from .attention import (
    check_model_dims,
    materialized_attention,
    mode_attention_matrix,
    random_attention_weights,
    softmax_rows,
    standard_attention,
)
from .autodiff import Tape
from .features import FeatureMapSpec, projection_matrix
from .kron import kron_chain, kron_decompose, kron_rank_bound, reconstruction_error
from .model import (
    VARIANTS,
    HeadConfig,
    HOTBlockConfig,
    HOTModel,
    ModelConfig,
    PatchEmbedConfig,
    RotaryConfig,
    _rotary_v,
    attention_sublayer,
    from_json,
)
from .train import (
    SyntheticTaskSpec,
    collect_grads,
    finite_diff_check,
    gen_synthetic,
    model_loss,
    train_linear_readout,
    train_model,
)


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# pass bounds

EQUIV_TOLERANCE = 1e-10  # factored vs materialized, row sums, permutation equivariance
REDUCTION_TOLERANCE = 1e-12  # one-mode reductions, softmax shift invariance
GRADCHECK_TOLERANCE = 1e-5  # relative error of an adjoint against central differences
QUADRATIC_TOLERANCE = 1e-9  # the checker on a quadratic, where differences are exact
FAULT_THRESHOLD = 1e-2  # a corrupted adjoint must be reported with a larger error
KRON_EXACT_TOLERANCE = 1e-8  # relative reconstruction error at the rank bound
KRON_PLANTED_TOLERANCE = 1e-10  # one planted Kronecker term recovered at rank 1
# token-count exponents of the default bench grids; other variants are not gated
SLOPE_WINDOWS = {"factored-linear": (0.8, 1.3), "full-softmax": (1.7, 2.3)}
MEMORY_RATIO = 1.3  # factored-linear peak allocations against their linear fit


# ---------------------------------------------------------------------------
# config handling


FORECAST = "separable-spatiotemporal-forecast"


def _check(ok: bool, key: str, rule: str) -> None:
    if not ok:
        raise ValueError(f"{key} must {rule}")


def _check_seeds(key: str, seeds: tuple[int, ...]) -> None:
    _check(seeds and min(seeds) >= 0, key, "be a non-empty array of integers >= 0")


def _check_grids(key: str, grids: tuple[tuple[int, ...], ...]) -> None:
    _check(grids and all(dims and min(dims) >= 1 for dims in grids), key,
           "be a non-empty array of non-empty arrays of integers >= 1")


@dataclass(frozen=True)
class EquivConfig:
    shapes: tuple[tuple[int, ...], ...] = ((6,), (2, 3), (4, 5), (8, 8), (2, 3, 4), (2, 2, 2, 2))
    heads: tuple[int, ...] = (1, 2)
    d_model: int = 8
    seeds: tuple[int, ...] = (0, 1, 2)
    feature_count: int = 64

    def __post_init__(self):
        _check_grids("shapes", self.shapes)
        _check(self.heads, "heads", "be a non-empty array")
        for heads in self.heads:
            check_model_dims(self.d_model, heads)
            FeatureMapSpec(self.feature_count, self.d_model // heads)  # the reduction rows' map
        _check_seeds("seeds", self.seeds)


@dataclass(frozen=True)
class GradcheckConfig:
    shape: tuple[int, ...] = (3, 4)
    d_model: int = 8
    heads: int = 2
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)
    min_coords: int = 64
    feature_count: int = 8

    def __post_init__(self):
        _check_grids("shape", (self.shape,))
        _check_seeds("seeds", self.seeds)
        _check(self.min_coords >= 1, "min_coords", "be >= 1")
        FeatureMapSpec(self.feature_count, 4)  # the op cases' feature map
        for variant in VARIANTS:
            _gradcheck_model_config(self, variant)


@dataclass(frozen=True)
class KronrankConfig:
    dims_list: tuple[tuple[int, ...], ...] = ((3, 3), (2, 3))
    seeds: tuple[int, ...] = (0, 1, 2)
    attention_d_model: int = 8
    attention_heads: int = 2

    def __post_init__(self):
        _check_grids("dims_list", self.dims_list)
        _check_seeds("seeds", self.seeds)
        check_model_dims(self.attention_d_model, self.attention_heads)


@dataclass(frozen=True)
class BenchConfig:
    variants: tuple[str, ...] = ("factored-linear", "full-softmax", "factored-softmax",
                                 "full-linear")
    grids: dict[str, tuple[tuple[int, ...], ...]] = field(default_factory=lambda: {
        "factored-linear": ((16, 16), (32, 32), (64, 64), (128, 128)),
        "factored-softmax": ((16, 16), (32, 32), (64, 64), (128, 128)),
        "full-softmax": ((8, 8), (16, 16), (24, 24), (32, 32)),
        "full-linear": ((16, 16), (32, 32), (64, 64), (128, 128)),
    })
    d_model: int = 48
    heads: int = 4
    feature_count: int = 96
    reps: int = 5
    warmups: int = 2
    seed: int = 0

    def __post_init__(self):
        _check(self.variants, "variants", "be a non-empty array")
        for variant in self.variants:
            _check(variant in VARIANTS, "variants", f"be among {VARIANTS}, not {variant!r}")
            _check(variant in self.grids, "grids", f"have an entry for variant {variant!r}")
        for variant, grid in self.grids.items():
            _check_grids(f"grids.{variant}", grid)
            _check(len({math.prod(dims) for dims in grid}) >= 2, f"grids.{variant}",
                   "hold at least two token counts to fit a slope")
        check_model_dims(self.d_model, self.heads)
        spec = FeatureMapSpec(self.feature_count, self.d_model // self.heads)
        for variant in self.variants:  # the blocks attention_sublayer builds from each grid
            for dims in self.grids[variant]:
                HOTBlockConfig(dims=dims, d_model=self.d_model, heads=self.heads, variant=variant,
                               feature_spec=spec if "linear" in variant else None)
        _check(self.reps >= 3, "reps", "be >= 3, so each grid's median rejects a stall")
        _check(self.warmups >= 0, "warmups", "be >= 0")
        _check(self.seed >= 0, "seed", "be >= 0")


@dataclass(frozen=True)
class AblateConfig:
    task: ClassVar[str] = FORECAST  # the only task ablate runs; not a config key
    t_len: int = 32
    n_series: int = 8
    horizon: int = 4
    n_train: int = 768
    n_val: int = 64
    noise: float = 0.05
    interaction_gain: float = 0.0
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)
    steps: int = 500
    batch_size: int = 64
    lr: float = 8e-3
    d_model: int = 32
    heads: tuple[int, ...] = (4,)
    ffn_dim: int = 64
    variants: tuple[str, ...] = ("factored-softmax",)
    masks: tuple[tuple[bool, ...], ...] = ((True, True), (True, False), (False, True),
                                           (False, False))
    feature_count: int = 16
    pooling_head: str = "mean"
    rotary_modes: tuple[int, ...] = (0, 1)
    baseline_seeds: tuple[int, ...] = (0, 1)
    baseline_interaction_gain: float = 0.6

    def __post_init__(self):
        _check_training(self)
        _check_seeds("seeds", self.seeds)
        _check(self.heads, "heads", "be a non-empty array")
        _check(self.variants, "variants", "be a non-empty array")
        _check(self.masks, "masks", "be a non-empty array")
        for variant, heads, mask in itertools.product(self.variants, self.heads, self.masks):
            _build_model_config(self, mask, variant, heads)
        _check_seeds("baseline_seeds", self.baseline_seeds)
        _check(self.baseline_interaction_gain >= 0, "baseline_interaction_gain", "be >= 0")
        _build_model_config(self, (True, True), self.variants[0], self.heads[0], "flatten")


@dataclass(frozen=True)
class TrainConfig:
    task: str = FORECAST
    t_len: int = 32
    n_series: int = 8
    horizon: int = 4
    volume: tuple[int, int, int] = (8, 8, 8)
    num_classes: int = 2
    n_train: int = 512
    n_val: int = 64
    noise: float = 0.05
    interaction_gain: float = 0.6
    task_seed: int = 0
    seed: int = 0
    steps: int = 500
    batch_size: int = 32
    lr: float = 5e-3
    d_model: int = 16
    heads: int = 2
    ffn_dim: int = 32
    variant: str = "factored-softmax"
    mask: tuple[bool, ...] | None = None
    feature_count: int = 16
    pooling_head: str = "flatten"
    rotary_modes: tuple[int, ...] = (0,)

    def __post_init__(self):
        _check_training(self)
        _check(self.task_seed >= 0, "task_seed", "be >= 0")
        _check(self.seed >= 0, "seed", "be >= 0")
        _build_model_config(self, self.mask, self.variant, self.heads)


def _check_training(config: AblateConfig | TrainConfig) -> None:
    """Range checks shared by ``ablate`` and ``train``, including their task spec's."""
    if config.task == FORECAST:
        _check(min(config.t_len, config.n_series) >= 1, "t_len and n_series", "be >= 1")
    else:
        _check_grids("volume", (config.volume,))
    for key in ("noise", "interaction_gain"):
        _check(getattr(config, key) >= 0, key, "be >= 0")
    _task_spec(config, 0)
    _check(config.steps >= 1, "steps", "be >= 1")
    _check(config.batch_size >= 1, "batch_size", "be >= 1")
    _check(0 < config.lr < math.inf, "lr", "be a positive finite number")
    _check(config.ffn_dim >= 0, "ffn_dim", "be >= 0 (0 means 4 * d_model)")


CONFIGS = {"equiv": EquivConfig, "gradcheck": GradcheckConfig, "kronrank": KronrankConfig,
           "bench": BenchConfig, "ablate": AblateConfig, "train": TrainConfig}


def load_config(command: str, path: str | None, overrides: dict):
    """The command's config: defaults, then the JSON file at ``path``, then
    ``overrides`` for keys the command has, decoded and checked once."""
    cls = CONFIGS[command]
    values = json.loads(json.dumps(asdict(cls())))  # the defaults as JSON, decoded with the file
    if path is not None:
        try:
            user = json.loads(Path(path).read_text())
        except (OSError, ValueError) as e:
            raise ConfigError(f"cannot read config {path}: {e}") from e
        if not isinstance(user, dict):
            raise ConfigError("config must be a JSON object")
        values.update(user)
    values.update({k: v for k, v in overrides.items() if v is not None and k in values})
    try:
        return from_json(cls, values, command)
    except TypeError as e:
        raise ConfigError(str(e)) from e
    except ValueError as e:
        raise ConfigError(f"{command}: {e}") from e


# ---------------------------------------------------------------------------
# report plumbing


def fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _shape_str(dims) -> str:
    """Comma-free shape label for CSV rows, e.g. (16, 16) -> '16x16'."""
    return "x".join(str(int(d)) for d in dims)


def write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


class Report:
    """Collects assertion outcomes and writes the summary JSON."""

    def __init__(self, command: str, out_dir: Path):
        self.command = command
        self.out_dir = out_dir
        self.assertions = []

    def check(self, name: str, passed: bool, value=None, threshold=None) -> None:
        self.assertions.append(
            {"name": name, "passed": bool(passed), "value": value, "threshold": threshold}
        )

    def finish(self, extra: dict | None = None) -> int:
        passed = all(a["passed"] for a in self.assertions)
        summary = {"command": self.command, "passed": passed, "assertions": self.assertions}
        if extra:
            summary.update(extra)
        path = self.out_dir / f"{self.command}_summary.json"
        path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
        for a in self.assertions:
            status = "PASS" if a["passed"] else "FAIL"
            print(f"[{status}] {self.command}: {a['name']}")
        return 0 if passed else 1


# ---------------------------------------------------------------------------
# equiv


def cmd_equiv(config: EquivConfig, out_dir: Path) -> int:
    report = Report("equiv", out_dir)
    rows = []
    worst = 0.0

    def add(check, shape, heads, seed, err, tolerance):
        rows.append([check, shape, heads, seed, err, tolerance,
                     "PASS" if err <= tolerance else "FAIL"])

    for shape in config.shapes:
        label = _shape_str(shape)
        for heads in config.heads:
            for seed in config.seeds:
                rng = np.random.default_rng(seed)
                x = rng.standard_normal(shape + (config.d_model,))
                w = random_attention_weights(config.d_model, heads, seed=seed + 1000)
                out = attention_sublayer(x, w, "factored-softmax")
                ref = materialized_attention(x, w)
                err = float(np.abs(out - ref).max())
                add("factored-vs-materialized", label, heads, seed, err, EQUIV_TOLERANCE)
                worst = max(worst, err)

                # implied per-head attention matrix row sums
                wq, wk, _, _ = w.head(0)
                q, kt = x @ wq, x @ wk
                s = kron_chain(mode_attention_matrix(q, kt, i) for i in range(len(shape)))
                row_err = float(np.abs(s.sum(axis=1) - 1.0).max())
                add("row-stochastic", label, heads, seed, row_err, EQUIV_TOLERANCE)

                # permutation equivariance along the first mode
                perm = rng.permutation(shape[0])
                perm_err = float(np.abs(attention_sublayer(x[perm], w, "factored-softmax")
                                        - out[perm]).max())
                add("permutation-equivariance", label, heads, seed, perm_err, EQUIV_TOLERANCE)
                worst = max(worst, perm_err, row_err)

    # one-mode reductions: softmax to standard attention, linear to the kernel oracle
    for seed in config.seeds:
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((7, config.d_model))
        for heads in config.heads:
            w = random_attention_weights(config.d_model, heads, seed=seed + 2000)
            standard = standard_attention(x, w)
            spec = FeatureMapSpec(config.feature_count, w.d_head, seed=seed)
            for variant in ("factored-softmax", "full-softmax", "factored-linear", "full-linear"):
                ref = (standard if variant.endswith("softmax")
                       else materialized_attention(x, w, variant, spec))
                err = float(np.abs(attention_sublayer(x, w, variant, spec) - ref).max())
                add(f"reduction-{variant}", "7", heads, seed, err, REDUCTION_TOLERANCE)

    # softmax score shift invariance
    for seed in config.seeds:
        rng = np.random.default_rng(seed)
        logits = rng.standard_normal((6, 6))
        err = float(np.abs(softmax_rows(logits) - softmax_rows(logits + 11.0)).max())
        add("softmax-shift-invariance", "6x6", 1, seed, err, REDUCTION_TOLERANCE)

    write_csv(out_dir / "equiv.csv",
              ["check", "shape", "heads", "seed", "max_abs_err", "tolerance", "status"], rows)
    for row in rows:
        report.check(f"{row[0]} shape={row[1]} heads={row[2]} seed={row[3]}",
                     row[6] == "PASS", row[4], row[5])
    return report.finish({"worst_abs_err": worst})


# ---------------------------------------------------------------------------
# gradcheck


def _loss_of(out: ad.Var) -> ad.Var:
    return ad.mean_all(ad.mul(out, out))


def _op_cases(config: GradcheckConfig):
    """Named differentiable ops: (name, case(vars) -> loss Var, param arrays)."""
    rng = np.random.default_rng(12345)
    t0 = rng.standard_normal((3, 4, 4))
    spec = FeatureMapSpec(config.feature_count, 4, seed=3)
    omega = projection_matrix(spec)

    cases = [
        ("pooling",
         lambda v: _loss_of(ops.sum_except_v(v["t"], (1, 2))),
         {"t": rng.standard_normal((2, 3, 4, 4))}),
        ("softmax_rows",
         lambda v: _loss_of(ad.softmax_last(v["m"])),
         {"m": rng.standard_normal((5, 6))}),
        ("feature_map_v",
         lambda v: _loss_of(ops.feature_map_v(v["m"], spec, omega)),
         {"m": rng.standard_normal((5, 4)) * 0.5}),
        ("kernelized_mode_apply_v",
         lambda v: _loss_of(ops.kernelized_mode_apply_v(v["v"], v["qt"], v["kt"], 1, spec, omega)),
         {"v": rng.standard_normal((2, 3, 4, 4)),
          "qt": rng.standard_normal((2, 3, 4)) * 0.5,
          "kt": rng.standard_normal((2, 3, 4)) * 0.5}),
        # N = 10 > M = feature_count (8): phi(kt)^T contracts first
        ("kernelized_mode_apply_v_key_first",
         lambda v: _loss_of(ops.kernelized_mode_apply_v(v["v"], v["qt"], v["kt"], 1, spec, omega)),
         {"v": rng.standard_normal((2, 10, 3, 2)),
          "qt": rng.standard_normal((2, 10, 4)) * 0.5,
          "kt": rng.standard_normal((2, 10, 4)) * 0.5}),
        ("layer_norm",
         lambda v: _loss_of(ops.layer_norm_v(v["t"], v["g"], v["b"])),
         {"t": t0, "g": 1.0 + 0.1 * rng.standard_normal(4), "b": 0.1 * rng.standard_normal(4)}),
        ("gelu", lambda v: _loss_of(ad.gelu(v["t"])), {"t": t0}),
        ("affine",
         lambda v: _loss_of(ad.affine(v["t"], v["w"], v["b"])),
         {"t": t0, "w": rng.standard_normal((4, 6)), "b": rng.standard_normal(6)}),
        ("layer_norm_batched",
         lambda v: _loss_of(ops.layer_norm_v(v["t"], v["g"], v["b"])),
         {"t": 3.0 * rng.standard_normal((2, 5, 6)) + 1.0,
          "g": 1.0 + 0.5 * rng.standard_normal(6), "b": 0.1 * rng.standard_normal(6)}),
    ]
    # rectangular per-batch gates along the first, a middle and the last token axis
    for axis, where, d in ((2, "first", 4), (3, "middle", 2), (4, "last", 6)):
        cases.append((
            f"batched_mode_apply_{where}_axis",
            lambda v, axis=axis: _loss_of(ops.batched_mode_apply_v(v["t"], v["s"], axis, lead=2)),
            {"t": rng.standard_normal((2, 2, 3, 4, 5, 2)),
             "s": rng.standard_normal((2, 2, d, (3, 4, 5)[axis - 2]))},
        ))
    # rotary over several modes at once (one table of summed angles); the weights
    # break the rotation's norm invariance, which would hide a wrong adjoint
    for dims in ((3, 4), (2, 3, 2)):
        rot = RotaryConfig(modes=tuple(range(len(dims))))
        w = ad.constant(rng.standard_normal((2,) + dims + (4,)))
        cases.append((
            f"rotary_{len(dims)}_modes",
            lambda v, rot=rot, dims=dims, w=w: _loss_of(
                ad.mul(_rotary_v(v["t"], rot, dims, lead=2), w)),
            {"t": rng.standard_normal((2, 2) + dims + (4,))},
        ))
    return cases


def _gradcheck_model_config(config: GradcheckConfig, variant: str) -> ModelConfig:
    spec = None
    if "linear" in variant and config.heads >= 1:  # HOTBlockConfig rejects other head counts
        spec = FeatureMapSpec(config.feature_count, config.d_model // config.heads, seed=7)
    return ModelConfig(
        raw_dims=config.shape,
        patch=PatchEmbedConfig((1,) * len(config.shape)),
        rotary=RotaryConfig(modes=(0,)),
        block=HOTBlockConfig(dims=config.shape, d_model=config.d_model, heads=config.heads,
                             variant=variant, feature_spec=spec),
        num_blocks=1,
        head=HeadConfig(task="forecast", pooling="mean", horizon=2, n_series=2),
    )


def _gradcheck_model(variant, config: GradcheckConfig, seed):
    model = HOTModel.initialize(_gradcheck_model_config(config, variant), seed=seed)
    rng = np.random.default_rng(seed + 500)
    x = rng.standard_normal((2,) + config.shape)
    y = rng.standard_normal((2, 2, 2))

    tape = Tape()
    loss, pv = model_loss(model, x, y, tape)
    tape.backward(loss)
    grads = collect_grads(pv)

    def f(params):
        t = Tape()
        l, _ = model_loss(HOTModel(model.config, params), x, y, t)
        return float(l.value)

    return f, model.params, grads


def cmd_gradcheck(config: GradcheckConfig, out_dir: Path) -> int:
    report = Report("gradcheck", out_dir)
    rows = []

    def add(case, kind, seed, err, tolerance):
        rows.append([case, kind, seed, err, tolerance, "PASS" if err <= tolerance else "FAIL"])

    for seed in config.seeds:
        rng = np.random.default_rng(seed)
        for name, case, params in _op_cases(config):
            tape = Tape()
            handles = {k: tape.var(v) for k, v in params.items()}
            tape.backward(case(handles))
            grads = collect_grads(handles)

            def f(p, case=case):
                return float(case({k: ad.constant(v) for k, v in p.items()}).value)

            err = finite_diff_check(f, {k: np.asarray(v, dtype=np.float64) for k, v in params.items()},
                                    grads, rng=rng, min_coords=config.min_coords)
            add(name, "op", seed, err, GRADCHECK_TOLERANCE)

        for variant in ("factored-softmax", "factored-linear", "full-softmax", "full-linear"):
            f, params, grads = _gradcheck_model(variant, config, seed)
            err = finite_diff_check(f, params, grads, rng=rng, min_coords=config.min_coords)
            add(variant, "attention-variant", seed, err, GRADCHECK_TOLERANCE)

        f, params, grads = _gradcheck_model("factored-softmax", config, seed)
        err = finite_diff_check(f, params, grads, rng=rng, min_coords=config.min_coords)
        add("hot-block", "block", seed, err, GRADCHECK_TOLERANCE)

    # quadratic self-test: central differences are exact up to roundoff
    rng = np.random.default_rng(0)
    q0 = rng.standard_normal(10)

    def quad(p):
        return float(np.sum(p["x"] ** 2) / 2.0)

    err = finite_diff_check(quad, {"x": q0}, {"x": q0}, rng=rng)
    add("quadratic-self-test", "self-test", 0, err, QUADRATIC_TOLERANCE)

    # fault injection: a corrupted adjoint must be reported as wrong
    err_bad = finite_diff_check(quad, {"x": q0}, {"x": q0 * 1.5 + 0.1}, rng=rng)
    rows.append(["fault-injection", "self-test", 0, err_bad, FAULT_THRESHOLD,
                 "PASS" if err_bad > FAULT_THRESHOLD else "FAIL"])

    write_csv(out_dir / "gradcheck.csv",
              ["case", "kind", "seed", "max_rel_err", "tolerance", "status"], rows)
    for row in rows:
        report.check(f"{row[0]} seed={row[2]}", row[5] == "PASS", row[3], row[4])
    return report.finish()


# ---------------------------------------------------------------------------
# kronrank


def _empirical_attention_matrix(dims, d_model, heads, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(tuple(dims) + (d_model,))
    w = random_attention_weights(d_model, heads, seed=seed + 1)
    flat = x.reshape(-1, d_model)
    wq, wk, _, _ = w.head(0)
    return mode_attention_matrix(flat @ wq, flat @ wk, 0)


def cmd_kronrank(config: KronrankConfig, out_dir: Path) -> int:
    report = Report("kronrank", out_dir)
    rows = []
    for dims in config.dims_list:
        bound = kron_rank_bound(dims)
        for seed in config.seeds:
            rng = np.random.default_rng(seed)
            side = math.prod(dims)
            cases = {
                "random-row-stochastic": softmax_rows(rng.standard_normal((side, side))),
                "empirical-attention": _empirical_attention_matrix(
                    dims, config.attention_d_model, config.attention_heads, seed),
            }
            for kind, s in cases.items():
                errs = []
                for rank in range(1, bound + 1):
                    err = reconstruction_error(kron_decompose(s, dims, rank), s)
                    errs.append(err)
                    rows.append([kind, _shape_str(dims), seed, rank, err])
                report.check(f"{kind} dims={dims} seed={seed} exact at R={bound}",
                             errs[-1] <= KRON_EXACT_TOLERANCE, errs[-1], KRON_EXACT_TOLERANCE)
                monotone = all(lo <= hi + 1e-12 for lo, hi in zip(errs[1:], errs[:-1]))
                report.check(f"{kind} dims={dims} seed={seed} monotone", monotone)

            planted = kron_chain([rng.standard_normal((d, d)) for d in dims])
            err = reconstruction_error(kron_decompose(planted, dims, 1), planted)
            rows.append(["planted-single-term", _shape_str(dims), seed, 1, err])
            report.check(f"planted dims={dims} seed={seed} exact at R=1",
                         err <= KRON_PLANTED_TOLERANCE, err, KRON_PLANTED_TOLERANCE)

    write_csv(out_dir / "kronrank.csv", ["kind", "dims", "seed", "rank", "rel_error"], rows)
    return report.finish()


# ---------------------------------------------------------------------------
# bench


def _fit_slope(tokens, values):
    logt = np.log(np.asarray(tokens, dtype=np.float64))
    logv = np.log(np.asarray(values, dtype=np.float64))
    slope, _ = np.polyfit(logt, logv, 1)
    return float(slope)


def cmd_bench(config: BenchConfig, out_dir: Path) -> int:
    """Time :func:`hot.model.attention_sublayer` over each variant's token grids.

    Reps run round-robin over a variant's grids, each timed call just after
    one untimed call on the same grid, so a stall that spans a few consecutive
    calls lands on single reps of several grids and the per-grid median
    rejects it, and no grid is timed with caches left cold by another.
    """
    report = Report("bench", out_dir)
    w = random_attention_weights(config.d_model, config.heads, seed=config.seed + 1)
    spec = FeatureMapSpec(config.feature_count, w.d_head, seed=config.seed)
    rows = []
    sample_rows = []
    slopes = {}
    memories = {}
    for variant in config.variants:
        grid = config.grids[variant]
        inputs = [np.random.default_rng(config.seed).standard_normal(dims + (config.d_model,))
                  for dims in grid]
        run = functools.partial(attention_sublayer, w=w, variant=variant,
                                spec=spec if "linear" in variant else None)
        for x in inputs:
            for _ in range(config.warmups):
                run(x)
        samples = [[] for _ in grid]
        for rep in range(config.reps):
            for dims, x, times in zip(grid, inputs, samples):
                run(x)
                t0 = time.perf_counter_ns()
                run(x)
                times.append(time.perf_counter_ns() - t0)
                sample_rows.append([variant, _shape_str(dims), math.prod(dims), rep, times[-1]])
        token_counts = [math.prod(dims) for dims in grid]
        medians = [int(np.median(times)) for times in samples]
        peaks = []
        for dims, x, tokens, median_ns in zip(grid, inputs, token_counts, medians):
            tracemalloc.start()
            run(x)
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            rows.append([variant, _shape_str(dims), len(dims), tokens, median_ns, peak,
                         config.seed])
            peaks.append(peak)
        slopes[variant] = _fit_slope(token_counts, medians)
        memories[variant] = (token_counts, peaks)

    write_csv(out_dir / "bench.csv",
              ["variant", "shape", "order", "tokens", "wall_ns_median", "peak_bytes", "seed"],
              rows)
    write_csv(out_dir / "bench_samples.csv",
              ["variant", "shape", "tokens", "rep", "wall_ns"], sample_rows)

    for variant, (lo, hi) in SLOPE_WINDOWS.items():
        if variant in slopes:
            s = slopes[variant]
            report.check(f"{variant} time slope in [{lo}, {hi}]", lo <= s <= hi, s, [lo, hi])

    if "factored-linear" in memories:
        tokens, peaks = memories["factored-linear"]
        a = np.vstack([np.asarray(tokens, dtype=np.float64), np.ones(len(tokens))]).T
        coef, *_ = np.linalg.lstsq(a, np.asarray(peaks, dtype=np.float64), rcond=None)
        fit = a @ coef
        ratio = float(max(max(p / f, f / p) for p, f in zip(peaks, fit) if f > 0))
        report.check(f"factored-linear peak memory within {MEMORY_RATIO}x of linear fit",
                     ratio <= MEMORY_RATIO, ratio, MEMORY_RATIO)

    # token-count exponents on square grids; factored softmax is quadratic
    # per mode, i.e. tokens^1.5 overall
    theory = {"full-softmax": 2.0, "full-linear": 1.0,
              "factored-softmax": 1.5, "factored-linear": 1.0}
    return report.finish({
        "slopes": slopes,
        "theory_exponents": {v: theory[v] for v in slopes if v in theory},
    })


# ---------------------------------------------------------------------------
# ablate / train


def _build_model_config(config: AblateConfig | TrainConfig, mask, variant, heads,
                        pooling_head: str | None = None) -> ModelConfig:
    """One-block model for the config's task: forecast on (t_len/4, n_series)
    tokens, or classify on a volume patched by 2 along each axis."""
    if config.task == FORECAST:
        raw_dims = (config.t_len, config.n_series)
        patch, rotary = (4, 1), config.rotary_modes
        head = dict(task="forecast", horizon=config.horizon, n_series=config.n_series)
    else:
        raw_dims = config.volume
        patch, rotary = (2, 2, 2), (0, 1, 2)
        head = dict(task="classify", num_classes=config.num_classes)
    spec = None
    if "linear" in variant and heads >= 1:  # HOTBlockConfig rejects other head counts
        spec = FeatureMapSpec(config.feature_count, config.d_model // heads, seed=11)
    return ModelConfig(
        raw_dims=raw_dims,
        patch=PatchEmbedConfig(patch),
        rotary=RotaryConfig(modes=rotary),
        block=HOTBlockConfig(
            dims=tuple(d // p for d, p in zip(raw_dims, patch)), d_model=config.d_model,
            heads=heads, variant=variant, ffn_dim=config.ffn_dim,
            mode_mask=mask or (), feature_spec=spec),
        num_blocks=1,
        head=HeadConfig(pooling=pooling_head or config.pooling_head, **head),
    )


def _task_spec(config: AblateConfig | TrainConfig, seed: int,
               gain: float | None = None) -> SyntheticTaskSpec:
    kwargs = dict(kind=config.task, n_train=config.n_train, n_val=config.n_val, seed=seed,
                  noise=config.noise)
    if config.task == FORECAST:
        kwargs.update(t_len=config.t_len, n_series=config.n_series, horizon=config.horizon,
                      interaction_gain=config.interaction_gain if gain is None else gain)
    else:
        kwargs.update(volume=config.volume, num_classes=config.num_classes)
    return SyntheticTaskSpec(**kwargs)


def _mask_str(mask) -> str:
    """Comma-free mask label for CSV rows, e.g. (True, False) -> 'TF'."""
    return "".join("T" if b else "F" for b in mask) or "-"


def cmd_ablate(config: AblateConfig, out_dir: Path) -> int:
    """Attention-order grid (task and model seeded together per seed) plus a
    nonlinear-task baseline pair: flatten-head two-mode model vs linear readout."""
    report = Report("ablate", out_dir)
    rows = []
    cell_means = {}
    param_counts = set()
    datasets = {seed: gen_synthetic(_task_spec(config, seed)) for seed in config.seeds}
    for variant, heads, mask in itertools.product(config.variants, config.heads, config.masks):
        mses = []
        for seed in config.seeds:
            model = HOTModel.initialize(_build_model_config(config, mask, variant, heads),
                                        seed=seed)
            param_counts.add(model.parameter_count())
            t0 = time.perf_counter()
            res = train_model(model, datasets[seed], steps=config.steps,
                              batch_size=config.batch_size, lr=config.lr, seed=seed,
                              eval_every=config.steps)
            seconds = time.perf_counter() - t0
            rows.append([variant, heads, _mask_str(mask), seed,
                         res.final_train_mse, res.final_val_mse, res.final_val_mae,
                         res.best_val_mae_step, res.best_val_mse_step,
                         model.parameter_count(), seconds])
            mses.append(res.final_train_mse)
        cell_means[(variant, heads, mask)] = float(np.mean(mses))

    flat, base = [], []
    both = (True, True)
    for seed in config.baseline_seeds:
        data = gen_synthetic(_task_spec(config, seed, config.baseline_interaction_gain))
        mcfg = _build_model_config(config, both, config.variants[0], config.heads[0],
                                   pooling_head="flatten")
        model = HOTModel.initialize(mcfg, seed=seed)
        res = train_model(model, data, steps=config.steps, batch_size=config.batch_size,
                          lr=config.lr, seed=seed, eval_every=config.steps)
        flat.append(res.final_train_mse)
        base.append(train_linear_readout(data, config.steps, batch_size=config.batch_size,
                                         lr=config.lr, seed=seed))
        rows.append(["flatten-both", config.heads[0], _mask_str(both), seed,
                     flat[-1], math.nan, math.nan, 0, 0, model.parameter_count(), 0.0])
        rows.append(["linear-readout", 0, "-", seed, base[-1], math.nan, math.nan,
                     0, 0, 0, 0.0])
    flat_mse = float(np.mean(flat))
    baseline_mse = float(np.mean(base))

    write_csv(out_dir / "ablate.csv",
              ["variant", "heads", "mask", "seed", "train_mse", "val_mse", "val_mae",
               "best_val_mae_step", "best_val_mse_step", "param_count", "seconds"], rows)

    report.check("parameter count identical across grid", len(param_counts) == 1,
                 sorted(param_counts))
    # the ordering is checked when the first variant and head count ran all four masks
    variant, heads = config.variants[0], config.heads[0]
    both_mse = cell_means.get((variant, heads, (True, True)))
    time_only = cell_means.get((variant, heads, (True, False)))
    var_only = cell_means.get((variant, heads, (False, True)))
    none = cell_means.get((variant, heads, (False, False)))
    if None not in (both_mse, time_only, var_only, none):
        report.check("both-modes beats each single mode",
                     both_mse < time_only and both_mse < var_only,
                     {"both": both_mse, "time": time_only, "var": var_only})
        report.check("each single mode beats no attention",
                     time_only < none and var_only < none,
                     {"time": time_only, "var": var_only, "none": none})
    report.check("2-mode model beats linear readout on the nonlinear task",
                 flat_mse < baseline_mse, {"hot-flatten": flat_mse, "linear": baseline_mse})
    return report.finish({"cell_means": {str(k): v for k, v in cell_means.items()}})


def cmd_train(config: TrainConfig, out_dir: Path) -> int:
    report = Report("train", out_dir)
    mcfg = _build_model_config(config, config.mask, config.variant, config.heads)
    data = gen_synthetic(_task_spec(config, config.task_seed))
    model = HOTModel.initialize(mcfg, seed=config.seed)
    res = train_model(model, data, steps=config.steps, batch_size=config.batch_size,
                      lr=config.lr, seed=config.seed, eval_every=25)
    write_csv(out_dir / "train_log.csv",
              ["step", "train_loss", "val_mse", "val_mae", "seconds"],
              [list(r) for r in res.history])
    model.save(out_dir / "checkpoint")
    report.check("training ran to completion", True, res.final_train_mse)
    report.check("final loss finite", bool(np.isfinite(res.final_train_mse)))
    return report.finish({
        "final_train_mse": res.final_train_mse,
        "final_val_mse": res.final_val_mse,
        "best_val_mae_step": res.best_val_mae_step,
        "best_val_mse_step": res.best_val_mse_step,
    })


# ---------------------------------------------------------------------------
# entry point


COMMANDS = {
    "equiv": cmd_equiv,
    "gradcheck": cmd_gradcheck,
    "kronrank": cmd_kronrank,
    "bench": cmd_bench,
    "ablate": cmd_ablate,
    "train": cmd_train,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="hot", description=__doc__)
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", default=None, help="JSON config file")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed(s)")
    parser.add_argument("--out", default="hot-out", help="output directory")
    args = parser.parse_args(argv)

    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
        overrides["seeds"] = [args.seed]
        overrides["task_seed"] = args.seed
        overrides["baseline_seeds"] = [args.seed]

    try:
        config = load_config(args.command, args.config, overrides)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2

    # every directory the command writes into exists before any work starts
    out_dir = Path(args.out)
    for directory in [out_dir] + ([out_dir / "checkpoint"] if args.command == "train" else []):
        try:
            directory.mkdir(parents=True, exist_ok=True)
        except OSError as e:
            print(f"error: cannot write to {directory}: {e.strerror}", file=sys.stderr)
            return 2
    return COMMANDS[args.command](config, out_dir)


if __name__ == "__main__":
    sys.exit(main())
