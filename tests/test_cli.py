"""Command-line contract tests: config validation, exit codes, CSV dialect,
determinism, and fault-injection self-tests."""

import csv
import json

import numpy as np
import pytest

import hot.attention
import hot.cli
import hot.model
from hot import autodiff as ad
from hot.cli import CONFIGS, ConfigError, load_config, main


def run_cli(args):
    return main(args)


class TestConfig:
    def test_unknown_keys_rejected(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"not_a_key": 1}))
        assert run_cli(["equiv", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2

    def test_malformed_json_rejected(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{nope")
        assert run_cli(["equiv", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2

    def test_known_key_override(self, tmp_path):
        cfg = tmp_path / "ok.json"
        cfg.write_text(json.dumps({"seeds": [7], "shapes": [[2, 2]]}))
        out = tmp_path / "o"
        assert run_cli(["equiv", "--config", str(cfg), "--out", str(out)]) == 0
        rows = (out / "equiv.csv").read_text().splitlines()
        assert any(",7," in r for r in rows)

    def test_seed_flag_overrides(self):
        cfg = load_config("equiv", None, {"seeds": [42]})
        assert cfg.seeds == (42,)

    def test_defaults_complete(self):
        for command in ("equiv", "gradcheck", "kronrank", "bench", "ablate", "train"):
            cfg = load_config(command, None, {})
            assert isinstance(cfg, CONFIGS[command])

    def test_config_must_be_object(self, tmp_path):
        cfg = tmp_path / "list.json"
        cfg.write_text("[1,2]")
        with pytest.raises(ConfigError):
            load_config("equiv", str(cfg), {})

    def test_value_types_follow_defaults(self, tmp_path):
        cfg = tmp_path / "train.json"
        # an integer is a number, and the unset mask may be given as a list
        cfg.write_text(json.dumps({"lr": 1, "mask": [True, False]}))
        assert load_config("train", str(cfg), {}).mask == (True, False)
        for bad in ({"steps": 2.5}, {"mask": [1]}, {"heads": None}, {"rotary_modes": 0}):
            cfg.write_text(json.dumps(bad))
            with pytest.raises(ConfigError, match=next(iter(bad))):
                load_config("train", str(cfg), {})

    @pytest.mark.parametrize("bad", [
        {"steps": "many"},
        {"d_model": 30, "heads": 4},
        {"task": "cross-mode-voxel-classify", "volume": [9, 8, 8]},
    ], ids=["steps-not-integer", "heads-not-dividing-d_model", "volume-not-patchable"])
    def test_malformed_train_config_exits_2(self, tmp_path, capsys, bad):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(bad))
        assert run_cli(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "config error:" in capsys.readouterr().err

    def test_malformed_ablate_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"n_train": 8, "n_val": 4, "seeds": [0], "d_model": 30}))
        assert run_cli(["ablate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "config error:" in capsys.readouterr().err

    def test_ablate_rejects_voxel_task(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"task": "cross-mode-voxel-classify", "n_train": 8,
                                   "n_val": 4, "seeds": [0], "steps": 1}))
        assert run_cli(["ablate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "config error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command,bad", [
        ("train", {"heads": 0}),
        ("train", {"heads": 0, "variant": "factored-linear"}),
        ("train", {"d_model": 0}),
        ("ablate", {"heads": [0], "seeds": [0]}),
        ("ablate", {"d_model": 0, "seeds": [0]}),
        ("equiv", {"heads": [0]}),
        ("equiv", {"d_model": 0}),
        ("bench", {"heads": 0}),
        ("bench", {"d_model": 0}),
        ("gradcheck", {"heads": 0}),
        ("gradcheck", {"d_model": 0}),
    ], ids=["train-heads", "train-linear-heads", "train-d_model", "ablate-heads",
            "ablate-d_model", "equiv-heads", "equiv-d_model", "bench-heads", "bench-d_model",
            "gradcheck-heads", "gradcheck-d_model"])
    def test_zero_model_dims_exit_2(self, tmp_path, capsys, command, bad):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(bad))
        assert run_cli([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "config error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command,bad", [
        ("train", {"steps": 0}),
        ("train", {"steps": -3}),
        ("train", {"lr": -1}),
        ("train", {"batch_size": 0}),
        ("bench", {"variants": ["full-linear"], "grids": {"full-linear": [[0, 4], [8, 8]]}}),
        ("bench", {"variants": ["full-linear"], "grids": {"full-linear": [[4, 4]]}}),
        ("bench", {"variants": ["full-linear"], "grids": {"full-linear": [[2, 8], [4, 4]]}}),
        ("equiv", {"shapes": [[0]]}),
        ("equiv", {"seeds": [-1]}),
        ("kronrank", {"dims_list": [[0, 2]]}),
        ("kronrank", {"dims_list": [[]]}),
        ("gradcheck", {"min_coords": -1}),
        ("ablate", {"heads": []}),
        ("ablate", {"variants": []}),
        ("ablate", {"t_len": 64, "n_series": 65, "d_model": 64, "n_train": 8, "n_val": 4}),
        ("bench", {"variants": ["full-softmax"], "grids": {"full-softmax": [[8, 8], [65, 64]]}}),
        ("train", {"variant": "full-softmax", "t_len": 260, "n_series": 64, "pooling_head": "mean"}),
        ("ablate", {"variants": ["full-softmax"], "seeds": [0]}),
        ("train", {"variant": "full-linear", "mask": [True, False]}),
        ("bench", {"reps": 2}),
        # verdicts are module constants, never config keys
        ("equiv", {"tolerance": 1.0}),
        ("equiv", {"reduction_tolerance": 1.0}),
        ("gradcheck", {"eps": 1e-3}),
        ("gradcheck", {"tolerance": 1.0}),
        ("gradcheck", {"quadratic_tolerance": 1.0}),
        ("gradcheck", {"fault_threshold": 0.0}),
        ("kronrank", {"exact_tolerance": 1.0}),
        ("kronrank", {"planted_tolerance": 1.0}),
        ("bench", {"slope_windows": {}}),
        ("bench", {"memory_ratio": 100.0}),
        ("bench", {"track_memory": False}),
        ("ablate", {"assert_ordering": False}),
        ("ablate", {"include_linear_baseline": False}),
        ("train", {"checkpoint": False}),
    ], ids=["train-steps-0", "train-steps-negative", "train-lr-negative", "train-batch-0",
            "bench-grid-entry-0", "bench-one-grid", "bench-one-token-count", "equiv-shape-0",
            "equiv-seed-negative", "kronrank-dim-0", "kronrank-no-modes",
            "gradcheck-min-coords-negative", "ablate-no-heads", "ablate-no-variants",
            "ablate-baseline-over-flatten-cap", "bench-full-softmax-over-cap",
            "train-full-softmax-over-cap", "ablate-full-variant-with-masks",
            "train-full-linear-with-mask", "bench-reps-2", "equiv-tolerance",
            "equiv-reduction-tolerance", "gradcheck-eps", "gradcheck-tolerance",
            "gradcheck-quadratic-tolerance", "gradcheck-fault-threshold",
            "kronrank-exact-tolerance", "kronrank-planted-tolerance", "bench-slope-windows",
            "bench-memory-ratio", "bench-track-memory", "ablate-assert-ordering",
            "ablate-include-linear-baseline", "train-checkpoint"])
    def test_out_of_range_value_exits_2_before_any_work(self, tmp_path, capsys, monkeypatch,
                                                         command, bad):
        def no_training(*args, **kwargs):
            raise AssertionError("train_model ran before the config was rejected")

        monkeypatch.setattr(hot.cli, "train_model", no_training)
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(bad))
        assert run_cli([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "config error:" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command,extra", [
        ("equiv", {"shapes": [[2, 3]], "heads": [1], "seeds": [0]}),
        ("bench", {}),
        ("gradcheck", {}),
    ], ids=["equiv", "bench", "gradcheck"])
    def test_zero_feature_count_exits_2(self, tmp_path, capsys, command, extra):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"feature_count": 0, **extra}))
        assert run_cli([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "config error:" in capsys.readouterr().err

    def test_bench_variant_without_grids_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"variants": ["full-linear"], "grids": {}}))
        assert run_cli(["bench", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "config error:" in capsys.readouterr().err

    def test_no_oracle_cap_override(self, tmp_path):
        # equiv's only capped call is the 7-token reduction row; no flag or key resizes it
        with pytest.raises(SystemExit) as exc:
            run_cli(["equiv", "--cap", "3", "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        cfg = tmp_path / "cap.json"
        cfg.write_text(json.dumps({"oracle_cap": 3}))
        assert run_cli(["equiv", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2


@pytest.fixture
def small_equiv_config(tmp_path):
    cfg = tmp_path / "equiv.json"
    cfg.write_text(json.dumps({"shapes": [[2, 3], [4]], "heads": [2], "seeds": [0]}))
    return cfg


class TestEquivCommand:
    def test_passes_and_writes_reports(self, tmp_path, small_equiv_config):
        out = tmp_path / "out"
        assert run_cli(["equiv", "--config", str(small_equiv_config), "--out", str(out)]) == 0
        summary = json.loads((out / "equiv_summary.json").read_text())
        assert summary["passed"] is True
        assert summary["command"] == "equiv"
        text = (out / "equiv.csv").read_text(encoding="utf-8")
        assert "\r" not in text
        header = text.splitlines()[0].split(",")
        assert header == ["check", "shape", "heads", "seed", "max_abs_err", "tolerance", "status"]

    def test_csv_floats_round_trip(self, tmp_path, small_equiv_config):
        out = tmp_path / "out"
        run_cli(["equiv", "--config", str(small_equiv_config), "--out", str(out)])
        with open(out / "equiv.csv", newline="") as f:
            for row in csv.DictReader(f):
                err = row["max_abs_err"]
                assert float(err) == float(f"{float(err):.17g}")

    def test_rerun_is_byte_identical(self, tmp_path, small_equiv_config):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        run_cli(["equiv", "--config", str(small_equiv_config), "--out", str(out1)])
        run_cli(["equiv", "--config", str(small_equiv_config), "--out", str(out2)])
        assert (out1 / "equiv.csv").read_bytes() == (out2 / "equiv.csv").read_bytes()
        assert (out1 / "equiv_summary.json").read_bytes() == (out2 / "equiv_summary.json").read_bytes()

    def test_injected_scaling_bug_fails_suite(self, tmp_path, small_equiv_config, monkeypatch):
        # drop the 1/sqrt(d) scaling from the model's softmax logits: the
        # materialized oracle, left intact, must catch it
        real = hot.attention.mode_attention_matrix
        monkeypatch.setattr(hot.model, "_scores", lambda q, k: ad.matmul(q, k, tb=True))
        out = tmp_path / "out"
        assert run_cli(["equiv", "--config", str(small_equiv_config), "--out", str(out)]) == 1
        summary = json.loads((out / "equiv_summary.json").read_text())
        assert summary["passed"] is False
        failed = {a["name"].split()[0] for a in summary["assertions"] if not a["passed"]}
        assert "factored-vs-materialized" in failed
        assert real is hot.attention.mode_attention_matrix

    def test_injected_full_variant_bug_fails_reduction(self, tmp_path, small_equiv_config,
                                                       monkeypatch):
        # scale the token flattening that only the full variants run: the
        # reduction row must hold the program's full softmax, not an oracle
        real = hot.model._flatten_tokens
        monkeypatch.setattr(hot.model, "_flatten_tokens", lambda t: ad.scale(real(t), 1.5))
        out = tmp_path / "out"
        assert run_cli(["equiv", "--config", str(small_equiv_config), "--out", str(out)]) == 1
        summary = json.loads((out / "equiv_summary.json").read_text())
        failed = {a["name"].split()[0] for a in summary["assertions"] if not a["passed"]}
        assert "reduction-full-softmax" in failed


class TestKronrankCommand:
    def test_small_run_passes(self, tmp_path):
        cfg = tmp_path / "kr.json"
        cfg.write_text(json.dumps({"dims_list": [[2, 2]], "seeds": [0]}))
        out = tmp_path / "out"
        assert run_cli(["kronrank", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "kronrank.csv").read_text().splitlines()
        assert lines[0] == "kind,dims,seed,rank,rel_error"
        # bound for (2,2) is 4, two kinds plus one planted row
        assert len(lines) == 1 + 4 + 4 + 1

    def test_rerun_byte_identical(self, tmp_path):
        cfg = tmp_path / "kr.json"
        cfg.write_text(json.dumps({"dims_list": [[2, 2]], "seeds": [1]}))
        a, b = tmp_path / "a", tmp_path / "b"
        run_cli(["kronrank", "--config", str(cfg), "--out", str(a)])
        run_cli(["kronrank", "--config", str(cfg), "--out", str(b)])
        assert (a / "kronrank.csv").read_bytes() == (b / "kronrank.csv").read_bytes()


class TestGradcheckCommand:
    def test_single_seed_passes(self, tmp_path):
        cfg = tmp_path / "gc.json"
        cfg.write_text(json.dumps({"seeds": [0], "min_coords": 6}))
        out = tmp_path / "out"
        assert run_cli(["gradcheck", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "gradcheck.csv").read_text().splitlines()
        cases = {line.split(",")[0] for line in lines[1:]}
        for expected in ("pooling", "softmax_rows", "feature_map_v", "kernelized_mode_apply_v",
                         "kernelized_mode_apply_v_key_first", "batched_mode_apply_first_axis",
                         "batched_mode_apply_middle_axis", "batched_mode_apply_last_axis",
                         "layer_norm", "layer_norm_batched", "gelu", "affine",
                         "rotary_2_modes", "rotary_3_modes", "factored-softmax",
                         "full-linear", "hot-block", "quadratic-self-test",
                         "fault-injection"):
            assert expected in cases


class TestBenchCommand:
    def test_tiny_grid_writes_records(self, tmp_path, monkeypatch):
        # the slope windows describe the default grids; fixed costs flatten tiny ones
        monkeypatch.setattr(hot.cli, "SLOPE_WINDOWS", {})
        cfg = tmp_path / "bench.json"
        cfg.write_text(json.dumps({
            "variants": ["factored-linear", "full-softmax"],
            "grids": {"factored-linear": [[4, 4], [8, 8]], "full-softmax": [[4, 4], [8, 8]]},
            "reps": 3,
            "warmups": 1,
        }))
        out = tmp_path / "out"
        assert run_cli(["bench", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "bench.csv").read_text().splitlines()
        assert lines[0] == "variant,shape,order,tokens,wall_ns_median,peak_bytes,seed"
        assert len(lines) == 5
        samples = (out / "bench_samples.csv").read_text().splitlines()
        assert len(samples) == 1 + 2 * 2 * 3  # raw samples retained

    def test_non_timing_columns_deterministic(self, tmp_path):
        cfg = tmp_path / "bench.json"
        cfg.write_text(json.dumps({
            "variants": ["factored-linear"],
            "grids": {"factored-linear": [[4, 4], [8, 8]]},
            "reps": 3,
            "warmups": 1,
        }))
        a, b = tmp_path / "a", tmp_path / "b"
        run_cli(["bench", "--config", str(cfg), "--out", str(a)])
        run_cli(["bench", "--config", str(cfg), "--out", str(b)])

        def non_timing(path):
            rows = (path / "bench.csv").read_text().splitlines()
            return [",".join(np.array(r.split(","))[[0, 1, 2, 3, 6]]) for r in rows]

        assert non_timing(a) == non_timing(b)


class TestTrainAblateCommands:
    def test_train_writes_log_and_checkpoint(self, tmp_path):
        cfg = tmp_path / "train.json"
        cfg.write_text(json.dumps({
            "t_len": 16, "n_series": 4, "horizon": 4, "n_train": 24, "n_val": 8,
            "steps": 12, "batch_size": 8, "d_model": 8, "ffn_dim": 16,
        }))
        out = tmp_path / "out"
        assert run_cli(["train", "--config", str(cfg), "--out", str(out)]) == 0
        log = (out / "train_log.csv").read_text().splitlines()
        assert log[0] == "step,train_loss,val_mse,val_mae,seconds"
        assert len(log) > 1
        from hot.model import HOTModel

        model = HOTModel.load(out / "checkpoint")
        assert model.parameter_count() > 0

    def test_micro_ablate_grid(self, tmp_path):
        cfg = tmp_path / "ablate.json"
        cfg.write_text(json.dumps({
            "t_len": 16, "n_series": 4, "horizon": 4, "n_train": 24, "n_val": 8,
            "steps": 6, "batch_size": 8, "d_model": 8, "ffn_dim": 16,
            "seeds": [0], "masks": [[True, True], [False, False]],
        }))
        out = tmp_path / "out"
        assert run_cli(["ablate", "--config", str(cfg), "--out", str(out)]) == 0
        rows = (out / "ablate.csv").read_text().splitlines()
        assert rows[0].startswith("variant,heads,mask,seed,train_mse")
        summary = json.loads((out / "ablate_summary.json").read_text())
        names = [a["name"] for a in summary["assertions"]]
        assert "parameter count identical across grid" in names


class TestCsvRows:
    def test_every_row_as_wide_as_header(self, tmp_path, monkeypatch):
        """Shape labels carry no commas, so multi-mode shapes keep rows rectangular."""
        monkeypatch.setattr(hot.cli, "SLOPE_WINDOWS", {})  # tiny grids, see TestBenchCommand
        configs = {
            "equiv": {"shapes": [[2, 3], [2, 2, 2]], "heads": [2], "seeds": [0]},
            "kronrank": {"dims_list": [[2, 2]], "seeds": [0]},
            "bench": {"variants": ["factored-linear"], "grids": {"factored-linear": [[4, 4], [8, 8]]},
                      "reps": 3, "warmups": 0},
        }
        out = tmp_path / "out"
        for command, body in configs.items():
            cfg = tmp_path / f"{command}.json"
            cfg.write_text(json.dumps(body))
            assert run_cli([command, "--config", str(cfg), "--out", str(out)]) == 0
        for name in ("equiv", "kronrank", "bench", "bench_samples"):
            with open(out / f"{name}.csv", newline="") as f:
                header, *rows = list(csv.reader(f))
            assert rows, name
            assert {len(row) for row in rows} == {len(header)}, name
