"""Acceptance suite: one test per headline criterion, at pinned tolerances.

Each test prints a single ``[ACCEPT] ...`` pass/fail line (visible with
``pytest -s tests/test_acceptance.py``).  Statistical criteria use fixed seed
sets; timing-bounded criteria assert their own budgets.
"""

import math
import time

import numpy as np
import pytest

from hot.attention import (
    full_high_order_attention,
    materialized_attention,
    mode_attention_matrix,
    random_attention_weights,
    softmax_rows,
    standard_attention,
)
from hot.features import FeatureMapSpec, projection_matrix
from hot.kron import kron_chain, kron_decompose, kron_rank_bound, reconstruction_error
from hot.model import attention_sublayer
from hot.tensor import matricize, mode_product
from oracles import phi


def report(num, name, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"[ACCEPT] criterion {num:02d} ({name}): {status} — {detail}")
    assert passed, f"criterion {num} {name}: {detail}"


SMALL_GRIDS = (
    [(n,) for n in (1, 2, 3, 5, 8, 16, 64)]
    + [(a, b) for a in (1, 2, 3, 4, 8) for b in (1, 2, 3, 5, 8) if a * b <= 64]
    + [(a, b, c) for a in (1, 2, 3) for b in (2, 3) for c in (2, 3, 4) if a * b * c <= 64]
    + [(2, 2, 2, 2), (1, 2, 2, 2, 2)]
)


class TestCriterion01OracleEquivalence:
    def test_factorized_softmax_equals_materialized(self):
        t0 = time.perf_counter()
        worst = 0.0
        rng = np.random.default_rng(0)
        for dims in SMALL_GRIDS:
            for heads in (1, 2, 4):
                w = random_attention_weights(8, heads, seed=17)
                x = rng.standard_normal(dims + (8,))
                err = float(np.abs(
                    attention_sublayer(x, w, "factored-softmax") - materialized_attention(x, w)
                ).max())
                worst = max(worst, err)
        elapsed = time.perf_counter() - t0
        report(1, "oracle equivalence",
               worst <= 1e-10 and elapsed < 60.0,
               f"max|d|={worst:.3e} (tol 1e-10), {len(SMALL_GRIDS) * 3} cases in {elapsed:.1f}s (< 60s)")


class TestCriterion02MatricizationIdentity:
    def test_mode_products_matricize_to_kronecker(self):
        worst = 0.0
        for seed in range(5):
            rng = np.random.default_rng(seed)
            t = rng.standard_normal((2, 3, 4, 5))
            mats = [rng.standard_normal((2, 2)), rng.standard_normal((3, 3)),
                    rng.standard_normal((4, 4))]
            out = t
            for i, a in enumerate(mats):
                out = mode_product(out, a, i)
            lhs = matricize(out, 3)
            rhs = matricize(t, 3) @ kron_chain(mats).T
            worst = max(worst, float(np.abs(lhs - rhs).max()))
        report(2, "matricization identity", worst <= 1e-10, f"max|d|={worst:.3e} (tol 1e-10)")


class TestCriterion03Universality:
    def test_rank_bound_reconstruction(self):
        rng = np.random.default_rng(1)
        worst_exact = 0.0
        monotone = True
        for _ in range(3):
            s = softmax_rows(rng.standard_normal((9, 9)))
            assert kron_rank_bound((3, 3)) == 9
            errs = [reconstruction_error(kron_decompose(s, (3, 3), r), s) for r in range(1, 10)]
            worst_exact = max(worst_exact, errs[-1])
            monotone &= all(lo <= hi + 1e-12 for lo, hi in zip(errs[1:], errs[:-1]))
        planted = kron_chain([rng.standard_normal((3, 3)), rng.standard_normal((3, 3))])
        planted_err = reconstruction_error(kron_decompose(planted, (3, 3), 1), planted)
        report(3, "Kronecker universality",
               worst_exact <= 1e-8 and monotone and planted_err <= 1e-10,
               f"exact-at-9 rel err={worst_exact:.3e} (tol 1e-8), monotone={monotone}, "
               f"planted R=1 err={planted_err:.3e} (tol 1e-10)")


class TestCriterion04RowStochasticity:
    def test_softmax_and_kernel_row_sums(self):
        rng = np.random.default_rng(2)
        worst_soft = 0.0
        worst_kernel = 0.0
        for seed in range(5):
            x = rng.standard_normal((3, 4, 8))
            w = random_attention_weights(8, 2, seed=seed)
            q = x @ w.wq[0]
            kt = x @ w.wk[0]
            s = kron_chain(mode_attention_matrix(q, kt, i) for i in range(2))
            worst_soft = max(worst_soft, float(np.abs(s.sum(axis=1) - 1.0).max()))

            spec = FeatureMapSpec(32, 4, seed=seed)
            omega = projection_matrix(spec)
            scale = 4 ** -0.25
            qt = x.sum(axis=1) @ w.wq[0]
            ktp = x.sum(axis=1) @ w.wk[0]
            qp = phi(qt * scale, spec, omega)
            kp = phi(ktp * scale, spec, omega)
            sk = (qp @ kp.T) / (qp @ kp.sum(axis=0))[:, None]
            worst_kernel = max(worst_kernel, float(np.abs(sk.sum(axis=1) - 1.0).max()))
        report(4, "row stochasticity",
               worst_soft <= 1e-12 and worst_kernel <= 1e-12,
               f"softmax max|rowsum-1|={worst_soft:.2e}, kernel={worst_kernel:.2e} (tol 1e-12)")


class TestCriterion05KernelFidelity:
    def test_monte_carlo_kernel_and_output_agreement(self):
        rng = np.random.default_rng(3)
        q = rng.standard_normal(4)
        q *= 0.8 / np.linalg.norm(q)
        k = rng.standard_normal(4)
        k *= 0.9 / np.linalg.norm(k)
        target = math.exp(q @ k)
        ests = [phi(q, FeatureMapSpec(4096, 4, seed=s)) @ phi(k, FeatureMapSpec(4096, 4, seed=s))
                for s in range(10)]
        kernel_err = abs(float(np.mean(ests)) - target) / target

        x = rng.standard_normal((4, 5, 8)) * 0.25
        w = random_attention_weights(8, 2, seed=123)
        ref = attention_sublayer(x, w, "factored-softmax")
        errs = [
            float(np.linalg.norm(attention_sublayer(x, w, "factored-linear",
                                                    FeatureMapSpec(2048, 4, seed=s)) - ref)
                  / np.linalg.norm(ref))
            for s in range(10)
        ]
        out_err = float(np.mean(errs))
        report(5, "kernel fidelity",
               kernel_err <= 0.05 and out_err <= 0.10,
               f"MC kernel rel err={kernel_err:.4f} (tol 0.05), "
               f"output rel err={out_err:.4f} at M=2048 (tol 0.10)")


class TestCriterion06GradientCorrectness:
    def test_all_variants_and_block_against_finite_differences(self):
        from hot.autodiff import Tape
        from hot.features import FeatureMapSpec as FMS
        from hot.model import (HeadConfig, HOTBlockConfig, HOTModel, ModelConfig,
                               PatchEmbedConfig, RotaryConfig)
        from hot.train import collect_grads, finite_diff_check, model_loss

        t0 = time.perf_counter()
        worst = 0.0
        variants = ("factored-softmax", "factored-linear", "full-softmax", "full-linear")
        for variant in variants:
            for seed in range(5):
                spec = FMS(8, 4, seed=7) if "linear" in variant else None
                cfg = ModelConfig(
                    raw_dims=(3, 4),
                    patch=PatchEmbedConfig((1, 1)),
                    rotary=RotaryConfig(modes=(0,)),
                    block=HOTBlockConfig(dims=(3, 4), d_model=8, heads=2, variant=variant,
                                         feature_spec=spec),
                    num_blocks=1,
                    head=HeadConfig(task="forecast", pooling="mean", horizon=2, n_series=2),
                )
                model = HOTModel.initialize(cfg, seed=seed)
                rng = np.random.default_rng(seed + 900)
                x = rng.standard_normal((2, 3, 4))
                y = rng.standard_normal((2, 2, 2))
                tape = Tape()
                loss, pv = model_loss(model, x, y, tape)
                tape.backward(loss)
                grads = collect_grads(pv)

                def f(params, model=model, x=x, y=y):
                    t = Tape()
                    l, _ = model_loss(HOTModel(model.config, params), x, y, t)
                    return float(l.value)

                err = finite_diff_check(f, model.params, grads,
                                        rng=np.random.default_rng(seed), min_coords=64)
                worst = max(worst, err)
        elapsed = time.perf_counter() - t0
        report(6, "gradient correctness",
               worst <= 1e-5 and elapsed < 300.0,
               f"max rel err={worst:.3e} (tol 1e-5) over {len(variants)} variants x 5 seeds "
               f"+ block, {elapsed:.0f}s (< 300s)")


@pytest.mark.slow
class TestCriterion07ComplexityScaling:
    def test_time_slopes_and_memory(self, tmp_path):
        from hot.cli import cmd_bench, load_config

        config = load_config("bench", None, {})
        code = cmd_bench(config, tmp_path)
        import json

        summary = json.loads((tmp_path / "bench_summary.json").read_text())
        slopes = summary["slopes"]
        report(7, "complexity scaling", code == 0,
               f"factored-linear slope={slopes['factored-linear']:.2f} (window [0.8,1.3]), "
               f"full-softmax slope={slopes['full-softmax']:.2f} (window [1.7,2.3]), "
               f"factored-softmax slope={slopes['factored-softmax']:.2f}, "
               f"full-linear slope={slopes['full-linear']:.2f} (not gated), "
               f"memory-linearity asserted")


@pytest.mark.slow
class TestCriterion08AblationDirection:
    def test_mask_ordering_on_synthetic_forecast(self, tmp_path):
        from hot.cli import cmd_ablate, load_config

        t0 = time.perf_counter()
        config = load_config("ablate", None, {})
        code = cmd_ablate(config, tmp_path)
        elapsed = time.perf_counter() - t0
        import json

        summary = json.loads((tmp_path / "ablate_summary.json").read_text())
        means = summary["cell_means"]
        report(8, "ablation direction",
               code == 0 and elapsed < 900.0,
               f"cell means {means}; runtime {elapsed:.0f}s (< 900s)")


class TestCriterion09Reduction:
    def test_every_variant_collapses_to_standard_attention(self):
        rng = np.random.default_rng(4)
        worst = 0.0
        for seed in range(5):
            x = rng.standard_normal((6, 8))
            w = random_attention_weights(8, 2, seed=seed)
            ref = standard_attention(x, w)
            spec = FeatureMapSpec(64, 4, seed=seed)
            worst = max(worst, float(np.abs(attention_sublayer(x, w, "factored-softmax") - ref).max()))
            worst = max(worst, float(np.abs(full_high_order_attention(x, w) - ref).max()))
            lin_a = attention_sublayer(x, w, "factored-linear", spec)
            lin_b = attention_sublayer(x, w, "full-linear", spec)
            worst = max(worst, float(np.abs(lin_a - lin_b).max()))
        report(9, "k=1 reduction", worst <= 1e-12, f"max|d|={worst:.3e} (tol 1e-12)")


class TestCriterion10Determinism:
    def test_reruns_byte_identical(self, tmp_path):
        from hot.cli import cmd_equiv, cmd_kronrank, load_config

        eq_cfg = load_config("equiv", None, {"shapes": [[2, 3], [4]], "seeds": [0, 1]})
        kr_cfg = load_config("kronrank", None, {"dims_list": [[2, 2]], "seeds": [0]})
        outs = []
        for name in ("a", "b"):
            d = tmp_path / name
            d.mkdir()
            cmd_equiv(eq_cfg, d)
            cmd_kronrank(kr_cfg, d)
            outs.append(d)
        same = (
            (outs[0] / "equiv.csv").read_bytes() == (outs[1] / "equiv.csv").read_bytes()
            and (outs[0] / "kronrank.csv").read_bytes() == (outs[1] / "kronrank.csv").read_bytes()
            and (outs[0] / "equiv_summary.json").read_bytes() == (outs[1] / "equiv_summary.json").read_bytes()
        )
        report(10, "determinism", same, "equiv + kronrank reruns byte-identical")
