"""The benchmark's workloads: what each run sets up, measures and checks.

Imported by ``run.py`` after it has timed the program's own import.
"""

from __future__ import annotations

import gc
import resource
import statistics
import tempfile
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import hot.train as ht
from hot.attention import EPS_Z
from hot.autodiff import Tape
from hot.features import FeatureMapSpec, projection_matrix
from hot.model import (HeadConfig, HOTBlockConfig, HOTModel, ModelConfig, PatchEmbedConfig,
                       RotaryConfig)
from refmodel import ReferenceForward, relative_error

OUT = Path(__file__).resolve().parent / "out"

SETUP_REPEATS = 3
PREDICT_CALLS_PER_ROUND = 25  # timed predict calls per round (after each train round)
MIN_PREDICT_CALLS = 100  # so that at least ten calls lie beyond p90
REFERENCE_TOL = 1e-9  # relative error of predict against the reference forward
FD_EPS = 1e-5
FD_COORDS = 2  # probed coordinates per parameter array
FD_RTOL = 1e-6
FD_ATOL = 1e-9
VOXEL_PREDICT_SEED = 0  # voxel-predict's inputs are fixed; see README.md


@dataclass(frozen=True)
class Workload:
    name: str
    task: dict  # SyntheticTaskSpec fields other than the seed
    model: dict  # model_config() arguments
    batch: int  # train batch, or the predict batch on voxel-predict
    lr: float = 0.0
    steps: int = 0  # train steps per train_model call (one round); 0 for predict only
    zscore: bool = False  # standardize each volume, as scans are before training


# the ``hot train`` voxel defaults: its flatten head still fits under the cap at 16^3 tokens
VOXEL_MODEL = dict(patch=(2, 2, 2), variant="factored-linear", head="flatten", d_model=16,
                   heads=2, ffn_dim=32, task="classify")

WORKLOADS = {w.name: w for w in (
    Workload(
        "forecast-train",
        task=dict(kind="separable-spatiotemporal-forecast", t_len=32, n_series=8, horizon=4,
                  n_train=768, n_val=64, noise=0.05, interaction_gain=0.0),
        model=dict(raw_dims=(32, 8), patch=(4, 1), variant="factored-softmax", head="mean",
                   d_model=32, heads=4, ffn_dim=64, task="forecast", horizon=4),
        batch=64, lr=8e-3, steps=20),
    Workload(
        "voxel-train",
        task=dict(kind="cross-mode-voxel-classify", volume=(16, 16, 16), n_train=64, n_val=8,
                  noise=0.05),
        model=dict(raw_dims=(16, 16, 16), **VOXEL_MODEL),
        batch=8, lr=5e-3, steps=20, zscore=True),
    Workload(
        "voxel-predict",
        task=dict(kind="cross-mode-voxel-classify", volume=(32, 32, 32), n_train=4, n_val=1,
                  noise=0.05),
        model=dict(raw_dims=(32, 32, 32), **VOXEL_MODEL),
        batch=4, zscore=True),
)}


def model_config(raw_dims, patch, variant, head, d_model, heads, ffn_dim, task, horizon=0):
    """The benchmark's model: one block, rotary on every token mode, 16 features."""
    token_dims = tuple(d // p for d, p in zip(raw_dims, patch))
    spec = FeatureMapSpec(16, d_model // heads, seed=11) if "linear" in variant else None
    if task == "forecast":
        head_cfg = HeadConfig(task="forecast", pooling=head, horizon=horizon, n_series=raw_dims[1])
    else:
        head_cfg = HeadConfig(task="classify", pooling=head, num_classes=2)
    return ModelConfig(
        raw_dims=tuple(raw_dims), patch=PatchEmbedConfig(tuple(patch)),
        rotary=RotaryConfig(modes=tuple(range(len(token_dims)))),
        block=HOTBlockConfig(dims=token_dims, d_model=d_model, heads=heads, variant=variant,
                             ffn_dim=ffn_dim, feature_spec=spec),
        num_blocks=1, head=head_cfg)


class Run:
    """Everything one benchmark run measures, checks and prints."""

    def __init__(self, workload: Workload, seed: int, seconds: float, tracer, import_s: float):
        self.w = workload
        self.seed = seed
        self.seconds = seconds
        self.tracer = tracer
        self.import_s = import_s
        self.cfg = model_config(**workload.model)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.setup_split: dict[str, list[float]] = {}
        self.metrics: dict[str, tuple[float, str]] = {}

    def run(self) -> None:
        if self.w.steps:
            self.run_train()
        else:
            self.run_predict()

    # -- helpers ------------------------------------------------------------

    def check(self, ok: bool, what: str) -> None:
        if not ok and what not in self.problems:
            self.problems.append(what)

    def timed(self, key: str, fn, *args, **kwargs):
        t0 = perf_counter()
        out = fn(*args, **kwargs)
        self.setup_split.setdefault(key, []).append(perf_counter() - t0)
        return out

    def traced(self):
        return self.tracer.measuring() if self.tracer else nullcontext()

    def reference(self, model):
        spec = self.cfg.block.feature_spec
        return ReferenceForward(self.cfg, model.params,
                                projection_matrix(spec) if spec else None, EPS_Z)

    def setup_s(self) -> float:
        rounds = [sum(times) for times in zip(*self.setup_split.values())]
        return self.import_s + statistics.median(rounds)

    # -- train workloads ------------------------------------------------------

    def make_data(self, seed: int):
        data = self.timed("train.gen_synthetic", ht.gen_synthetic,
                          ht.SyntheticTaskSpec(seed=seed, **self.w.task))
        if not self.w.zscore:
            return data
        return ht.Dataset(_zscore(data.train_x), data.train_y, _zscore(data.val_x), data.val_y,
                          data.spec)

    def fresh_model(self):
        return HOTModel.initialize(self.cfg, seed=self.seed)

    def train_setup(self):
        data = self.make_data(self.seed)
        model = self.timed("model.initialize", HOTModel.initialize, self.cfg, seed=self.seed)
        self.timed("warm_up", self.warm_up, model, data)
        return data

    def warm_up(self, model, data) -> None:
        ht.train_model(model, data, steps=2, batch_size=self.w.batch, lr=self.w.lr,
                       seed=self.seed, eval_every=2)
        model.predict(data.val_x)

    def loss(self, model, x, y) -> float:
        """Task loss of ``predict`` computed here, apart from the program's loss code."""
        out = model.predict(x)
        if self.cfg.head.task == "forecast":
            return float(np.mean((out - y) ** 2))
        logp = out - out.max(axis=1, keepdims=True)
        logp = logp - np.log(np.exp(logp).sum(axis=1, keepdims=True))
        return float(-logp[np.arange(len(y)), y].mean())

    def gradient_probe(self, data) -> None:
        """Central differences of ``model_loss`` against the tape's gradients at the start weights."""
        model = self.fresh_model()
        x, y = data.train_x[:2], data.train_y[:2]
        tape = Tape()
        loss, leaves = ht.model_loss(model, x, y, tape)
        tape.backward(loss)
        rng = np.random.default_rng(self.seed)
        worst = 0.0
        for name, value in model.params.items():
            grad = leaves[name].grad
            flat = value.reshape(-1)
            for i in rng.choice(flat.size, size=min(FD_COORDS, flat.size), replace=False):
                orig = flat[i]
                flat[i] = orig + FD_EPS
                up = ht.model_loss(model, x, y, Tape())[0].value
                flat[i] = orig - FD_EPS
                down = ht.model_loss(model, x, y, Tape())[0].value
                flat[i] = orig
                numeric = float(up - down) / (2.0 * FD_EPS)
                analytic = 0.0 if grad is None else float(grad.reshape(-1)[i])
                err = abs(analytic - numeric) / (FD_RTOL * max(abs(analytic), abs(numeric)) + FD_ATOL)
                worst = max(worst, err)
        print(f"{self.w.name}: finite-difference probe, worst error {worst:.3g} of tolerance")
        self.check(worst <= 1.0, "finite differences disagree with the tape's gradients")

    @contextmanager
    def step_probe(self):
        """Count steps whose loss is not finite; a round that raises fails every step."""
        original = ht.model_loss
        bad = [0]

        def probed(*args, **kwargs):
            loss, leaves = original(*args, **kwargs)
            bad[0] += not bool(np.all(np.isfinite(loss.value)))
            return loss, leaves

        ht.model_loss = probed
        try:
            yield bad
        finally:
            ht.model_loss = original

    def train_round(self, model, data) -> float:
        """One ``train_model`` call; returns its wall time and counts its steps."""
        gc.collect()
        with self.step_probe() as bad, self.traced():
            t0 = perf_counter()
            try:
                ht.train_model(model, data, steps=self.w.steps, batch_size=self.w.batch,
                               lr=self.w.lr, seed=self.seed, eval_every=self.w.steps)
            except (ArithmeticError, ValueError, RuntimeError) as e:
                print(f"{self.w.name}: train_model raised {e!r}")
                bad[0] = self.w.steps
            wall = perf_counter() - t0
        self.attempted += self.w.steps
        self.failed += min(bad[0], self.w.steps)
        return wall

    def run_train(self) -> None:
        """Rounds of training from the start weights, each followed by timed ``predict`` calls.

        Interleaving spreads both kinds of sample over the whole run, so that a
        slow or fast spell of the machine does not land on one metric only.
        """
        for _ in range(SETUP_REPEATS):
            data = self.train_setup()
        self.gradient_probe(data)
        fixed_x, fixed_y = data.train_x[:self.w.batch], data.train_y[:self.w.batch]
        start_loss = self.loss(self.fresh_model(), fixed_x, fixed_y)
        walls, calls, end_losses, worst = [], [], [], 0.0
        deadline = perf_counter() + self.seconds
        while perf_counter() < deadline or len(calls) < MIN_PREDICT_CALLS:
            model = self.fresh_model()
            walls.append(self.train_round(model, data))
            end_losses.append(self.loss(model, fixed_x, fixed_y))
            reference = self.reference(model)
            expected = reference(data.val_x)
            for _ in range(PREDICT_CALLS_PER_ROUND):
                out = self.call_predict(model, data.val_x, calls, traced=False)
                self.check(bool(np.all(np.isfinite(out))), "predict returned non-finite values")
                if not reference.floored_rows:
                    worst = max(worst, relative_error(out, expected))
        print(f"{self.w.name}: {len(walls)} rounds of {self.w.steps} steps; loss on a fixed "
              f"batch {start_loss:.4g} -> {max(end_losses):.4g} (worst round)")
        self.check(all(loss < start_loss for loss in end_losses),
                   "loss on the fixed training batch did not fall over a round")
        if reference.floored_rows:
            print(f"{self.w.name}: predict not compared with the reference: it finds "
                  f"{reference.floored_rows} of {reference.kernel_rows} kernel rows with Z below "
                  "the program's floor")
        else:
            print(f"{self.w.name}: trained predict vs reference forward, relative error {worst:.3g}")
            self.check(worst <= REFERENCE_TOL, "trained predict disagrees with the reference forward")
        self.metrics["samples_per_s"] = (self.w.steps * self.w.batch * len(walls) / sum(walls), "1/s")
        self.predict_metrics(calls)
        self.traced_rounds, self.traced_wall_s = len(walls), sum(walls)

    # -- predict ------------------------------------------------------------

    def call_predict(self, model, batch, times: list, traced: bool) -> np.ndarray:
        with self.traced() if traced else nullcontext():
            t0 = perf_counter()
            out = model.predict(batch)
            times.append(perf_counter() - t0)
        return out

    def predict_metrics(self, times: list) -> None:
        ms = [t * 1e3 for t in times]
        self.metrics["predict_ms"] = (statistics.median(ms), "ms")
        self.metrics["predict_ms_p90"] = (statistics.quantiles(ms, n=10)[-1], "ms")

    def run_predict(self) -> None:
        """Closed-loop ``predict`` on a loaded checkpoint; a call fails unless it matches the reference."""
        OUT.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=OUT) as ckpt:
            HOTModel.initialize(self.cfg, seed=VOXEL_PREDICT_SEED).save(ckpt)
            for _ in range(SETUP_REPEATS):
                data = self.make_data(VOXEL_PREDICT_SEED)
                model = self.timed("model.load", HOTModel.load, ckpt)
                batch = data.train_x[:self.w.batch]
                self.timed("warm_up", model.predict, batch)
        reference = self.reference(model)
        expected = reference(batch)
        calls, worst = [], 0.0
        deadline = perf_counter() + self.seconds
        while perf_counter() < deadline or len(calls) < MIN_PREDICT_CALLS:
            gc.collect()  # each round starts from the same heap, as a train round does
            for _ in range(PREDICT_CALLS_PER_ROUND):
                err = relative_error(self.call_predict(model, batch, calls, traced=True), expected)
                worst = max(worst, err)
                self.attempted += 1
                self.failed += not err <= REFERENCE_TOL
        print(f"{self.w.name}: {self.failed} of {self.attempted} predict calls disagree with "
              f"the reference forward (relative error up to {worst:.3g}); the reference finds "
              f"{reference.floored_rows} of {reference.kernel_rows} kernel rows with Z below the "
              "floor that diffops.kernelized_mode_apply_v clamps them to")
        self.predict_metrics(calls)
        self.metrics["samples_per_s"] = (len(batch) * len(calls) / sum(calls), "1/s")
        self.traced_rounds, self.traced_wall_s = len(calls) // PREDICT_CALLS_PER_ROUND, sum(calls)

    # -- result -------------------------------------------------------------

    def result(self) -> dict:
        if self.tracer:
            metrics = self.trace_metrics()
        else:
            self.metrics["setup_s"] = (self.setup_s(), "s")
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            self.metrics["peak_rss_mb"] = (rss, "MB")
            metrics = self.metrics
        for problem in self.problems:
            print(f"{self.w.name}: CHECK FAILED: {problem}")
        return {
            "correct": not self.problems,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in sorted(metrics.items())},
        }

    def trace_metrics(self) -> dict:
        t = self.tracer
        ops = self.attempted
        layer = t.metrics(ops, self.traced_rounds)
        wall_ms = self.traced_wall_s * 1e3 / ops
        self_ms = t.self_sum_ns() * 1e-6 / ops
        self.check(not t.unknown_labels(), f"self time on unlisted labels {t.unknown_labels()}")
        self.check(abs(self_ms - wall_ms) <= 0.01 * wall_ms,
                   f"self times add to {self_ms:.4g} ms, operation wall is {wall_ms:.4g} ms")
        out = {k: (v, "count" if not k.endswith("_ms") else "ms") for k, v in layer.items()}
        out["trace.op_wall_ms"] = (wall_ms, "ms")
        out["trace.self_sum_ms"] = (self_ms, "ms")
        for key in ("train.gen_synthetic", "model.initialize", "model.load"):
            times = self.setup_split.get(key)
            out[f"{key}_ms"] = (statistics.median(times) * 1e3 if times else 0.0, "ms")
        return out


def _zscore(x: np.ndarray) -> np.ndarray:
    axes = tuple(range(1, x.ndim))
    return (x - x.mean(axis=axes, keepdims=True)) / x.std(axis=axes, keepdims=True)
