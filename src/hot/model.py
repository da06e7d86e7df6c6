"""Encoder blocks over k-dimensional token grids and the end-to-end model.

A block is the standard encoder arrangement (attention sublayer, feed-forward
sublayer, residuals, layer norm; post-norm by default) with the attention
sublayer picked from the four variants, all run by the one mode loop of
:func:`attention_sublayer_v`.  The model pipeline is

    raw input -> patch embedding -> B blocks -> pooling head -> task output

with rotary phases on queries and keys before pooling, and a mean or flatten
pooling head feeding an affine map to forecast values or class logits.  The
rotary phases turn feature pair j of the token at position ``pos`` by
``sum_m pos_m * base**(-2j/E)`` over the rotary modes m: RoFormer's rotation
with the angles of the modes summed.  :func:`_rotary_table` holds each angle
once per shape as a complex unit phase, and :func:`_rotary_v` multiplies the
pair, read as a complex number, by it.

Forward passes run on the autodiff tape, so the same code path serves
training and inference; all parameters live in a flat name -> array dict.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import sys
import types
import typing
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import diffops as ops
from .attention import DEFAULT_ORACLE_CAP, AttentionWeights, check_model_dims
from .autodiff import Var
from .features import FeatureMapSpec, projection_matrix
from .io import TensorFileError, read_tensor, write_tensor
from .tensor import as_tensor

VARIANTS = ("full-softmax", "full-linear", "factored-softmax", "factored-linear")
PREDICT_CHUNK = 64  # samples per forward in HOTModel.predict


@dataclass(frozen=True)
class RotaryConfig:
    """Which token modes receive rotary phases, and the frequency base."""

    modes: tuple[int, ...] = ()
    base: float = 10000.0


@dataclass(frozen=True)
class PatchEmbedConfig:
    """Non-overlapping patch sizes per raw mode (stride = size, no padding)."""

    patch_sizes: tuple[int, ...]

    def __post_init__(self):
        if any(p < 1 for p in self.patch_sizes):
            raise ValueError("patch sizes must be >= 1")


@dataclass(frozen=True)
class HOTBlockConfig:
    dims: tuple[int, ...]
    d_model: int
    heads: int
    variant: str = "factored-softmax"
    ffn_dim: int = 0  # 0 means 4 * d_model
    mode_mask: tuple[bool, ...] = ()  # empty means all modes attend
    feature_spec: FeatureMapSpec | None = None
    ln_eps: float = 1e-5
    norm_placement: str = "post"
    pooling: str = "sum"

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}")
        check_model_dims(self.d_model, self.heads)
        if self.mode_mask and len(self.mode_mask) != len(self.dims):
            raise ValueError("mode_mask length must equal the number of token modes")
        if self.variant.startswith("full") and not all(self.mode_mask):
            raise ValueError(f"variant {self.variant} attends over all tokens as one mode; "
                             f"mode_mask {self.mode_mask} cannot turn a mode off")
        if self.norm_placement not in ("post", "pre"):
            raise ValueError("norm_placement must be 'post' or 'pre'")
        if self.pooling not in ("sum", "mean"):
            raise ValueError("pooling must be 'sum' or 'mean'")
        if self.variant == "full-softmax" and math.prod(self.dims) > DEFAULT_ORACLE_CAP:
            raise ValueError(f"full-softmax over {math.prod(self.dims)} tokens exceeds the cap "
                             f"of {DEFAULT_ORACLE_CAP}; its score matrix is quadratic in tokens")
        if "linear" in self.variant and self.feature_spec is None:
            raise ValueError(f"variant {self.variant} needs a feature_spec")
        if self.feature_spec is not None and self.feature_spec.input_dim != self.d_head:
            raise ValueError(f"feature_spec input_dim {self.feature_spec.input_dim} "
                             f"!= head dim {self.d_head}")

    @property
    def d_head(self) -> int:
        return self.d_model // self.heads

    @property
    def hidden_dim(self) -> int:
        return self.ffn_dim if self.ffn_dim else 4 * self.d_model

    @property
    def enabled_modes(self) -> tuple[int, ...]:
        if not self.mode_mask:
            return tuple(range(len(self.dims)))
        return tuple(i for i, on in enumerate(self.mode_mask) if on)


@dataclass(frozen=True)
class HeadConfig:
    task: str  # "forecast" | "classify"
    pooling: str = "mean"  # "mean" | "flatten"
    horizon: int = 0
    n_series: int = 0
    num_classes: int = 0
    flatten_cap: int = 65536

    def __post_init__(self):
        if self.task not in ("forecast", "classify"):
            raise ValueError("task must be 'forecast' or 'classify'")
        if self.pooling not in ("mean", "flatten"):
            raise ValueError("pooling must be 'mean' or 'flatten'")
        if self.task == "forecast" and (self.horizon < 1 or self.n_series < 1):
            raise ValueError("forecast head needs horizon and n_series")
        if self.task == "classify" and self.num_classes < 2:
            raise ValueError("classify head needs num_classes >= 2")

    @property
    def out_dim(self) -> int:
        return self.horizon * self.n_series if self.task == "forecast" else self.num_classes


@dataclass(frozen=True)
class ModelConfig:
    raw_dims: tuple[int, ...]
    patch: PatchEmbedConfig
    rotary: RotaryConfig
    block: HOTBlockConfig
    num_blocks: int
    head: HeadConfig

    def __post_init__(self):
        if len(self.patch.patch_sizes) != len(self.raw_dims):
            raise ValueError("patch sizes must cover every raw mode")
        for d, p in zip(self.raw_dims, self.patch.patch_sizes):
            if d % p != 0:
                raise ValueError(f"raw mode of length {d} not divisible by patch {p}")
        if self.token_dims != self.block.dims:
            raise ValueError(
                f"block dims {self.block.dims} do not match patched dims {self.token_dims}"
            )
        for m in self.rotary.modes:
            if not 0 <= m < len(self.token_dims):
                raise ValueError(f"rotary mode {m} out of range")
        if self.rotary.modes and self.block.d_head % 2 != 0:
            raise ValueError("rotary phases need an even head dimension")
        if self.head.pooling == "flatten":
            flat = math.prod(self.token_dims) * self.block.d_model
            if flat > self.head.flatten_cap:
                raise ValueError(f"flatten head of width {flat} exceeds cap {self.head.flatten_cap}")
        if self.num_blocks < 1:
            raise ValueError("need at least one block")

    @property
    def token_dims(self) -> tuple[int, ...]:
        return tuple(d // p for d, p in zip(self.raw_dims, self.patch.patch_sizes))

    @property
    def patch_channels(self) -> int:
        return math.prod(self.patch.patch_sizes)


def param_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Every parameter's name and shape, in the order :meth:`HOTModel.initialize` draws them."""
    return dict(_iter_param_shapes(config))


def _iter_param_shapes(config: ModelConfig):
    """:func:`param_shapes` as ``(name, shape)`` pairs, one at a time."""
    d, dh, f = config.block.d_model, config.block.d_head, config.block.hidden_dim
    yield from {"patch.w": (config.patch_channels, d), "patch.b": (d,)}.items()
    for b in range(config.num_blocks):
        pre = f"block{b}"
        for h in range(config.block.heads):
            yield from {f"{pre}.attn.h{h}.wq": (d, dh), f"{pre}.attn.h{h}.wk": (d, dh),
                        f"{pre}.attn.h{h}.wv": (d, dh), f"{pre}.attn.h{h}.wo": (dh, d)}.items()
        yield from {f"{pre}.ln1.gamma": (d,), f"{pre}.ln1.beta": (d,),
                    f"{pre}.ffn.w1": (d, f), f"{pre}.ffn.b1": (f,),
                    f"{pre}.ffn.w2": (f, d), f"{pre}.ffn.b2": (d,),
                    f"{pre}.ln2.gamma": (d,), f"{pre}.ln2.beta": (d,)}.items()
    pooled_dim = d if config.head.pooling == "mean" else math.prod(config.token_dims) * d
    yield from {"head.w": (pooled_dim, config.head.out_dim),
                "head.b": (config.head.out_dim,)}.items()


# ---------------------------------------------------------------------------
# JSON documents


def from_json(cls, value, where: str):
    """Build dataclass ``cls`` from decoded JSON ``value`` by its type hints.

    The object must have exactly the fields of ``cls``.  ``int`` takes an
    integer (not a boolean), ``float`` a number or an integer, a fixed or
    variadic ``tuple`` an array, ``dict[str, X]`` an object, a nested
    dataclass an object, and ``X | None`` also null.  Anything else raises
    ``TypeError`` naming the path from ``where``, e.g. ``train.mask[0]``;
    the dataclasses' own checks raise ``ValueError``.
    """
    if not isinstance(value, dict):
        raise TypeError(f"{where} must be an object, got {json.dumps(value)}")
    names = [f.name for f in dataclasses.fields(cls)]
    if set(value) != set(names):
        raise TypeError(f"{where}: missing keys {sorted(set(names) - set(value))}, "
                        f"unknown keys {sorted(set(value) - set(names))}")
    hints = typing.get_type_hints(cls)
    return cls(**{n: _decode(hints[n], value[n], f"{where}.{n}") for n in names})


def _decode(tp, value, where: str):
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if dataclasses.is_dataclass(tp):
        return from_json(tp, value, where)
    if origin is types.UnionType:  # X | None
        return None if value is None else _decode(args[0], value, where)
    if origin is tuple:
        variadic = args[-1] is Ellipsis
        want = "an array" if variadic else f"an array of {len(args)}"
        if isinstance(value, list) and (variadic or len(value) == len(args)):
            item_types = args[:1] * len(value) if variadic else args
            return tuple(_decode(t, v, f"{where}[{i}]")
                         for i, (t, v) in enumerate(zip(item_types, value)))
    elif origin is dict:
        want = "an object"
        if isinstance(value, dict):
            return {k: _decode(args[1], v, f"{where}.{k}") for k, v in value.items()}
    elif tp is float:
        want = "a number"
        if type(value) is float or type(value) is int and abs(value) <= sys.float_info.max:
            return float(value)
    else:
        want = {int: "an integer", str: "a string", bool: "a boolean"}[tp]
        if type(value) is tp:
            return value
    raise TypeError(f"{where} must be {want}, got {json.dumps(value)}")


# ---------------------------------------------------------------------------
# rotary phases


@functools.lru_cache(maxsize=32)
def _rotary_table(modes: tuple[int, ...], base: float, token_dims: tuple[int, ...],
                  d_head: int) -> np.ndarray:
    """Phases ``exp(i*theta)`` for :func:`hot.autodiff.rotate_pairs`, shaped (*token_dims, E/2).

    Pair j at position ``pos`` turns by ``theta = sum_m pos_m * base**(-2j/E)``
    over the rotary modes m; axes of the other modes have length 1.
    Read-only, since the cache hands the same array to every caller.
    """
    k = len(token_dims)
    freqs = base ** (-np.arange(0, d_head, 2) / d_head)
    pos = np.zeros((1,) * k, dtype=np.int64)
    for m in modes:
        shape = [1] * k
        shape[m] = token_dims[m]
        pos = pos + np.arange(token_dims[m]).reshape(shape)
    phase = np.exp(1j * (pos[..., None] * freqs))
    phase.flags.writeable = False
    return phase


def _rotary_v(t: Var, cfg: RotaryConfig, token_dims: tuple[int, ...], lead: int = 1) -> Var:
    """Rotate the feature pairs of ``t`` by their token positions' summed angles.

    ``t`` is (*lead axes, *token_dims, E) with token modes starting at axis
    ``lead``; position 0 is the identity and every rotation is an isometry.
    One tape node for all modes, from the cached :func:`_rotary_table`.
    """
    if not cfg.modes:
        return t
    if t.shape[lead:-1] != tuple(token_dims):
        raise ValueError(f"token axes {t.shape[lead:-1]} != token dims {tuple(token_dims)}")
    if t.shape[-1] % 2 != 0:
        raise ValueError("rotary phases need an even head dimension")
    return ad.rotate_pairs(t, _rotary_table(tuple(cfg.modes), float(cfg.base), tuple(token_dims),
                                            t.shape[-1]))


# ---------------------------------------------------------------------------
# patch embedding


def patchify(x: np.ndarray, patch_sizes: tuple[int, ...]) -> np.ndarray:
    """Gather non-overlapping patches: (B, d_0, ..., d_{k-1}) -> (B, d_0/p_0, ..., C).

    The trailing channel axis concatenates the patch cells (C = prod of patch
    sizes).  Mode lengths must be divisible by their patch size; no padding.
    """
    x = np.asarray(x, dtype=np.float64)
    dims = x.shape[1:]
    if len(patch_sizes) != len(dims):
        raise ValueError("patch sizes must cover every raw mode")
    split_shape = [x.shape[0]]
    for d, p in zip(dims, patch_sizes):
        if d % p != 0:
            raise ValueError(f"mode of length {d} not divisible by patch {p}")
        split_shape += [d // p, p]
    t = x.reshape(split_shape)
    k = len(dims)
    perm = [0] + [1 + 2 * i for i in range(k)] + [2 + 2 * i for i in range(k)]
    t = np.transpose(t, perm)
    token_dims = tuple(d // p for d, p in zip(dims, patch_sizes))
    return np.ascontiguousarray(t.reshape((x.shape[0],) + token_dims + (-1,)))


# ---------------------------------------------------------------------------
# attention sublayer (batched, differentiable)


def _pooled(t: Var, axis: int, pooling: str, lead: int = 2) -> Var:
    pooled = ops.sum_except_v(t, tuple(range(lead)) + (axis, t.value.ndim - 1))
    if pooling == "mean":
        count = math.prod(t.shape[lead:-1]) // t.shape[axis]
        pooled = ad.scale(pooled, 1.0 / count)
    return pooled


def _flatten_tokens(t: Var) -> Var:
    return ad.reshape(t, t.shape[:2] + (-1, t.shape[-1]))


def _split_heads(t: Var, heads: int, d_head: int) -> Var:
    """(B, tokens..., H*E) -> (B, H, tokens..., E)."""
    nd = t.value.ndim
    cube = ad.reshape(t, t.shape[:-1] + (heads, d_head))
    perm = (0, nd - 1) + tuple(range(1, nd - 1)) + (nd,)
    return ad.transpose(cube, perm)


def _scores(q: Var, k: Var) -> Var:
    """Softmax logits ``q k^T / sqrt(E)`` over the last axis."""
    return ad.scale(ad.matmul(q, k, tb=True), 1.0 / math.sqrt(q.shape[-1]))


def attention_sublayer_v(x: Var, cfg: HOTBlockConfig, rotary: RotaryConfig,
                         wq: Var, wk: Var, wv: Var, wo: Var) -> Var:
    """One multihead attention sublayer on (B, N_0, ..., N_{k-1}, D) input.

    ``wq``, ``wk``, ``wv`` and ``wo`` are (D, H*E), head h in columns h*E to
    h*E + E; ``wo`` holds the heads' (E, D) output maps transposed.  Heads are
    stacked into one leading axis so projections, pooling, gate construction
    and mode application each run as a single broadcast matmul.  The full
    variants run the same mode loop over one mode that holds every token.
    """
    omega = projection_matrix(cfg.feature_spec) if cfg.feature_spec is not None else None
    heads, d_head = cfg.heads, cfg.d_head
    q = _split_heads(ops.affine_v(x, wq), heads, d_head)  # (B, H, tokens..., E)
    kt = _split_heads(ops.affine_v(x, wk), heads, d_head)
    p = _split_heads(ops.affine_v(x, wv), heads, d_head)
    q = _rotary_v(q, rotary, cfg.dims, lead=2)
    kt = _rotary_v(kt, rotary, cfg.dims, lead=2)

    modes = cfg.enabled_modes
    if cfg.variant.startswith("full"):
        q, kt, p, modes = _flatten_tokens(q), _flatten_tokens(kt), _flatten_tokens(p), (0,)
    for i in modes:
        qt = _pooled(q, 2 + i, cfg.pooling)
        kk = _pooled(kt, 2 + i, cfg.pooling)
        if cfg.variant.endswith("softmax"):
            p = ops.batched_mode_apply_v(p, ad.softmax_last(_scores(qt, kk)), 2 + i, lead=2)
        else:
            p = ops.kernelized_mode_apply_v(p, qt, kk, 2 + i, cfg.feature_spec, omega, lead=2)

    # back to (B, tokens..., H*E); one matmul applies W_O and sums the heads
    nd = p.value.ndim
    merged = ad.reshape(ad.transpose(p, (0,) + tuple(range(2, nd - 1)) + (1, nd - 1)),
                        x.shape[:-1] + (heads * d_head,))
    return ad.matmul(merged, wo, tb=True)


def attention_sublayer(x: np.ndarray, w: AttentionWeights, variant: str,
                       spec: FeatureMapSpec | None = None, mask: tuple[bool, ...] = (),
                       pooling: str = "sum") -> np.ndarray:
    """:func:`attention_sublayer_v` on one unbatched (N_0, ..., N_{k-1}, D) input.

    Constant weights, no rotary phases and no tape: the forward that
    ``hot bench`` times and that tests and ``hot equiv`` hold to the oracles
    of :mod:`hot.attention`.
    """
    x = as_tensor(x)
    cfg = HOTBlockConfig(dims=x.shape[:-1], d_model=w.d_model, heads=w.heads, variant=variant,
                         mode_mask=tuple(mask), feature_spec=spec, pooling=pooling)
    fused = [ad.constant(m.transpose(1, 0, 2).reshape(w.d_model, -1))
             for m in (w.wq, w.wk, w.wv, w.wo.transpose(0, 2, 1))]
    return attention_sublayer_v(ad.constant(x[None]), cfg, RotaryConfig(), *fused).value[0]


def ffn_v(x: Var, params: dict[str, Var], prefix: str) -> Var:
    hidden = ad.gelu(ops.affine_v(x, params[f"{prefix}.w1"], params[f"{prefix}.b1"]))
    return ops.affine_v(hidden, params[f"{prefix}.w2"], params[f"{prefix}.b2"])


def block_forward_v(x: Var, cfg: HOTBlockConfig, rotary: RotaryConfig,
                    params: dict[str, Var], prefix: str) -> Var:
    """Encoder block: attention and feed-forward sublayers with residuals."""
    ln1 = lambda v: ops.layer_norm_v(v, params[f"{prefix}.ln1.gamma"], params[f"{prefix}.ln1.beta"], cfg.ln_eps)
    ln2 = lambda v: ops.layer_norm_v(v, params[f"{prefix}.ln2.gamma"], params[f"{prefix}.ln2.beta"], cfg.ln_eps)
    heads = [f"{prefix}.attn.h{h}" for h in range(cfg.heads)]
    w = [ad.concat_last([params[f"{h}.{name}"] for h in heads]) for name in ("wq", "wk", "wv")]
    w.append(ad.concat_last([ad.transpose(params[f"{h}.wo"], (1, 0)) for h in heads]))
    if cfg.norm_placement == "post":
        y1 = ln1(ad.add(x, attention_sublayer_v(x, cfg, rotary, *w)))
        return ln2(ad.add(y1, ffn_v(y1, params, f"{prefix}.ffn")))
    y1 = ad.add(x, attention_sublayer_v(ln1(x), cfg, rotary, *w))
    return ad.add(y1, ffn_v(ln2(y1), params, f"{prefix}.ffn"))


# ---------------------------------------------------------------------------
# whole model


class HOTModel:
    """Patch embedding, a stack of encoder blocks, and a pooled task head."""

    def __init__(self, config: ModelConfig, params: dict[str, np.ndarray]):
        self.config = config
        self.params = params

    @classmethod
    def initialize(cls, config: ModelConfig, seed: int = 0) -> "HOTModel":
        """Glorot-uniform weights, zero biases, unit layer-norm gains."""
        rng = np.random.default_rng(seed)

        def init(name, shape):
            if len(shape) == 2:
                limit = math.sqrt(6.0 / sum(shape))
                return rng.uniform(-limit, limit, size=shape)
            return np.ones(shape) if name.endswith(".gamma") else np.zeros(shape)

        return cls(config, {name: init(name, shape)
                            for name, shape in param_shapes(config).items()})

    def parameter_count(self) -> int:
        return sum(p.size for p in self.params.values())

    def forward(self, x_raw: np.ndarray, params: dict[str, Var] | None = None) -> Var:
        """Run the model on ``params``, by default constants of ``self.params``.

        Pass leaves made by ``Tape.var`` to track gradients.
        """
        cfg = self.config
        if x_raw.shape[1:] != cfg.raw_dims:
            raise ValueError(f"raw input dims {x_raw.shape[1:]} != configured {cfg.raw_dims}")
        if x_raw.shape[0] == 0:
            raise ValueError("empty batch: forward needs at least one sample")
        if params is None:
            params = {k: ad.constant(v) for k, v in self.params.items()}

        tokens = ad.constant(patchify(x_raw, cfg.patch.patch_sizes))
        x = ops.affine_v(tokens, params["patch.w"], params["patch.b"])
        for b in range(cfg.num_blocks):
            x = block_forward_v(x, cfg.block, cfg.rotary, params, f"block{b}")

        if cfg.head.pooling == "mean":
            pooled = ad.scale(
                ops.sum_except_v(x, (0, x.value.ndim - 1)),
                1.0 / math.prod(cfg.token_dims),
            )
        else:
            pooled = ad.reshape(x, (x.shape[0], math.prod(cfg.token_dims) * cfg.block.d_model))
        out = ops.affine_v(pooled, params["head.w"], params["head.b"])
        if cfg.head.task == "forecast":
            out = ad.reshape(out, (x_raw.shape[0], cfg.head.horizon, cfg.head.n_series))
        return out

    def predict(self, x_raw: np.ndarray) -> np.ndarray:
        """``forward(x_raw).value``, computed over chunks of :data:`PREDICT_CHUNK` samples.

        Only one chunk's working set is alive at a time, so memory does not
        grow with the number of samples.
        """
        if x_raw.shape[0] <= PREDICT_CHUNK:
            return self.forward(x_raw).value
        return np.concatenate([self.forward(x_raw[i:i + PREDICT_CHUNK]).value
                               for i in range(0, x_raw.shape[0], PREDICT_CHUNK)])

    # -- checkpointing ------------------------------------------------------

    def save(self, directory) -> None:
        """One tensor file per parameter plus a JSON manifest with the config."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        manifest = {"config": asdict(self.config), "params": {}}
        for name, value in sorted(self.params.items()):
            fname = name.replace("/", "_") + ".hot"
            write_tensor(directory / fname, np.atleast_1d(value))
            manifest["params"][name] = fname
        (directory / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))

    @classmethod
    def load(cls, directory) -> "HOTModel":
        """Read a checkpoint written by :meth:`save`.

        A missing or unreadable ``manifest.json`` raises ``ValueError`` naming
        ``directory``.  The manifest's keys must match exactly at every depth
        and its values must have the JSON types of :class:`ModelConfig`'s
        fields; otherwise ``ValueError`` names the path.  It must list exactly
        the parameters of :func:`param_shapes`, each in a readable tensor file
        directly inside ``directory`` with the parameter's shape; otherwise
        ``ValueError`` names the parameter.
        """
        directory = Path(directory)
        try:
            text = (directory / "manifest.json").read_text()
        except (OSError, ValueError) as e:  # ValueError: not UTF-8
            raise ValueError(f"no readable manifest.json in {directory}: {e}") from e
        try:
            manifest = from_json(_Manifest, json.loads(text), "manifest")
        except (TypeError, json.JSONDecodeError) as e:
            raise ValueError(f"malformed manifest in {directory}: {e}") from e
        shapes = _listed_param_shapes(manifest, directory)
        params = {}
        for name, fname in manifest.params.items():
            if fname in ("", "..") or Path(fname).name != fname:
                raise ValueError(f"parameter {name!r}: file name {fname!r} is not a bare name "
                                 f"inside {directory}")
            try:
                value = read_tensor(directory / fname)
            except (OSError, TensorFileError) as e:
                raise ValueError(f"parameter {name!r}: {e}") from e
            if value.shape != shapes[name]:
                raise ValueError(f"parameter {name!r} has shape {value.shape}, "
                                 f"expected {shapes[name]}")
            params[name] = value
        return cls(manifest.config, params)


@dataclass(frozen=True)
class _Manifest:
    """A checkpoint's ``manifest.json``: the model config and parameter file names."""

    config: ModelConfig
    params: dict[str, str]


def _listed_param_shapes(manifest: _Manifest, directory: Path) -> dict[str, tuple[int, ...]]:
    """:func:`param_shapes` of the manifest's config, if it lists exactly those parameters.

    Otherwise ``ValueError`` names a parameter missing from the manifest or
    unknown to the model.  The table is walked lazily and the walk stops at
    the first name the manifest does not list, so a config with a huge
    parameter count costs no more than the manifest's own length.
    """
    listed = manifest.params
    shapes = {}
    for name, shape in _iter_param_shapes(manifest.config):
        if name not in listed:
            raise ValueError(f"parameter {name!r} of the model configured in {directory} is "
                             "missing from its manifest")
        shapes[name] = shape
    unknown = sorted(set(listed) - set(shapes))
    if unknown:
        raise ValueError(f"parameter {unknown[0]!r} is unknown to the model configured in "
                         f"{directory}")
    return shapes
