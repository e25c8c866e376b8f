"""Command-line contracts: config schema, exit codes, emitted files,
byte-identical reruns."""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from holderpo import cli, verify
from holderpo.cli import (
    EXIT_DIVERGED,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFY_FAILED,
    ConfigError,
    _digest,
    load_config,
    main,
    resolved_config_dict,
)
from holderpo.core import DomainError

# Configs with the resolved dict and digest the per-field parsers this
# schema replaced gave them; reading a config must not change either.
RESOLVED = Path(__file__).parent / "data" / "resolved_configs.json"
README = Path(__file__).resolve().parents[1] / "README.md"


def write_config(tmp_path, name="config.json", **overrides):
    doc = {
        "schema_version": 1,
        "task": {"kind": "sparse", "length": 6, "vocab": 8, "key_position": 2,
                 "key_token": 3},
        "train": {
            "rollouts_per_round": 16, "group_size": 4, "minibatch_size": 2,
            "updates_per_round": 2, "total_rounds": 3, "learning_rate": 0.5,
            "seed": 0,
            "schedule": {"p_high": 1.0, "shape": "constant"},
        },
    }
    for key, value in overrides.items():
        section, _, field = key.partition("__")
        if field:
            doc[section][field] = value
        else:
            doc[section] = value
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


# `holderpo mean --ratios 2,8 --p 1,0,-1`, byte for byte.
MEAN_2_8_AT_1_0_MINUS_1 = """\
[
  {
    "p": 1.0,
    "rho": 4.999999999999998,
    "weights": [
      0.20000000000000004,
      0.8
    ],
    "entropy": 0.5004024235381879,
    "hhi": 0.6800000000000002
  },
  {
    "p": 0.0,
    "rho": 4.0,
    "weights": [
      0.5,
      0.5
    ],
    "entropy": 0.6931471805599453,
    "hhi": 0.5
  },
  {
    "p": -1.0,
    "rho": 3.2,
    "weights": [
      0.8,
      0.20000000000000004
    ],
    "entropy": 0.5004024235381879,
    "hhi": 0.6800000000000002
  }
]
"""


class TestMeanCommand:
    def test_arithmetic(self, capsys):
        assert main(["mean", "--ratios", "2,8", "--p", "1"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["rho"] == pytest.approx(5.0)
        assert doc["weights"] == pytest.approx([0.2, 0.8])

    def test_geometric(self, capsys):
        main(["mean", "--ratios", "2,8", "--p", "0"])
        doc = json.loads(capsys.readouterr().out)
        assert doc["rho"] == pytest.approx(4.0)
        assert doc["entropy"] == pytest.approx(math.log(2.0))
        assert doc["hhi"] == pytest.approx(0.5)

    def test_order_two(self, capsys):
        main(["mean", "--ratios", "2,8", "--p", "2"])
        assert json.loads(capsys.readouterr().out)["rho"] == pytest.approx(5.8309519)

    def test_multiple_exponents(self, capsys):
        main(["mean", "--ratios", "2,8", "--p", "1,0,-1"])
        docs = json.loads(capsys.readouterr().out)
        assert [d["rho"] for d in docs] == pytest.approx([5.0, 4.0, 3.2])

    def test_multiple_exponents_output_is_pinned(self, capsys):
        assert main(["mean", "--ratios", "2,8", "--p", "1,0,-1"]) == EXIT_OK
        assert capsys.readouterr().out == MEAN_2_8_AT_1_0_MINUS_1

    def test_one_hot_entropy_prints_positive_zero(self, capsys):
        assert main(["mean", "--ratios", "1e-320,2", "--p", "40"]) == EXIT_OK
        out = capsys.readouterr().out
        assert '"entropy": 0.0,' in out and "-0.0" not in out

    @pytest.mark.parametrize("p", ["", ",", " , "])
    def test_no_exponent_is_usage_error(self, p, capsys):
        assert main(["mean", "--ratios", "2,8", "--p", p]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1

    def test_ratios_file(self, tmp_path, capsys):
        path = tmp_path / "ratios.txt"
        path.write_text("2 8\n")
        assert main(["mean", "--ratios-file", str(path), "--p", "1"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["rho"] == pytest.approx(5.0)

    def test_bad_input_is_usage_error(self, capsys):
        assert main(["mean", "--ratios", "2,-8", "--p", "1"]) == EXIT_USAGE
        assert main(["mean", "--ratios", "2,oops", "--p", "1"]) == EXIT_USAGE
        assert main(["mean", "--p", "1"]) == EXIT_USAGE

    # 1e308 is finite, but p * log r overflows and the weights come out NaN
    @pytest.mark.parametrize("p", ["nan", "inf", "1,-inf", "1e308", "1,1e308"])
    def test_nonfinite_exponent_is_usage_error(self, p, capsys):
        assert main(["mean", "--ratios", "2,8", "--p", p]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1


class TestConfigSchema:
    def test_round_trip(self, tmp_path):
        task, config = load_config(write_config(tmp_path))
        assert task.kind == "sparse"
        assert config.total_rounds == 3
        assert config.schedule.shape == "constant"

    def test_unknown_top_level_key(self, tmp_path):
        path = write_config(tmp_path, extra={"x": 1})
        with pytest.raises(ConfigError, match="extra"):
            load_config(path)

    def test_unknown_train_key(self, tmp_path):
        path = write_config(tmp_path, train__momentum=0.9)
        with pytest.raises(ConfigError, match="momentum"):
            load_config(path)

    def test_bad_schema_version(self, tmp_path):
        path = write_config(tmp_path, schema_version=99)
        with pytest.raises(ConfigError, match="schema_version"):
            load_config(path)

    def test_invalid_field_named_in_error(self, tmp_path):
        path = write_config(tmp_path, train__learning_rate=-1.0)
        with pytest.raises(ConfigError, match="learning_rate"):
            load_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(str(tmp_path / "absent.json"))

    @pytest.mark.parametrize("name", ["readme", "empty", "no_schedule",
                                      "dense_token_clip"])
    def test_resolved_config_pinned(self, tmp_path, name):
        recorded = json.loads(RESOLVED.read_text())[name]
        path = tmp_path / "config.json"
        path.write_text(json.dumps(recorded["config"]))
        resolved = resolved_config_dict(*load_config(path))
        assert json.loads(json.dumps(resolved)) == recorded["resolved"]
        assert _digest(resolved) == recorded["config_sha256"]

    def test_readme_example_loads(self, tmp_path):
        block = re.search(r"```json\n(.*?)```", README.read_text(), re.S).group(1)
        path = tmp_path / "config.json"
        path.write_text(block)
        task, config = load_config(path)
        assert (task.kind, config.schedule.label()) == ("sparse", "linear_2_-2")

    @pytest.mark.parametrize("doc, named", [
        ({"task": {"length": "x"}}, "task.length"),
        ({"task": []}, "task"),
        ({"train": {"schedule": None}}, "train.schedule"),
        ({"train": {"schedule": {"p_high": "abc"}}}, "train.schedule.p_high"),
        ({"task": {"kind": "dense", "length": 4, "vocab": 2,
                   "target_sequence": "0101"}}, "task.target_sequence"),
        ([], "config"),
        ({"train": {"group_size": 2.9}}, "train.group_size"),
        ({"train": {"seed": True}}, "train.seed"),
        ({"train": {"learning_rate": 10**400}}, "train.learning_rate"),
    ])
    def test_malformed_config_is_usage_error(self, tmp_path, capsys, doc, named):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "run"
        code = main(["train", "--config", str(path), "--out-dir", str(out)])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {named} ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("train, named", [
        ({"clip_epsilon": 1.5}, "clip_epsilon"),
        ({"clip_epsilon": 0.0}, "clip_epsilon"),
        ({"learning_rate": math.nan}, "learning_rate"),
        ({"learning_rate": math.inf}, "learning_rate"),
        ({"schedule": {"p_high": math.nan}}, "p_high"),
        ({"schedule": {"p_high": 1.0, "p_low": -math.inf}}, "p_low"),
        ({"rollouts_per_round": 0}, "rollouts_per_round"),
    ])
    def test_values_train_rejects_fail_at_load(self, tmp_path, train, named):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"train": train}))
        with pytest.raises(ConfigError, match=named):
            load_config(path)


class TestTrainCommand:
    def test_writes_run_directory(self, tmp_path, capsys):
        config = write_config(tmp_path)
        out = tmp_path / "run"
        assert main(["train", "--config", str(config), "--out-dir", str(out)]) == EXIT_OK
        for name in ("config.json", "metrics.ndjson", "metrics.csv",
                     "summary.json", "final_policy.npy"):
            assert (out / name).exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["updates"] == 6
        assert 0.0 <= summary["final_success"] <= 1.0
        assert summary["config"]["schedule_convention"].startswith("p(t)")

    def test_metrics_ndjson_schema(self, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "run"
        main(["train", "--config", str(config), "--out-dir", str(out)])
        lines = (out / "metrics.ndjson").read_text().splitlines()
        header = json.loads(lines[0])
        assert header["record"] == "header"
        assert header["schema_version"] == 1
        updates = [json.loads(line) for line in lines[1:]]
        assert [u["step"] for u in updates] == list(range(6))
        assert all(u["record"] == "update" for u in updates)

    def test_metrics_csv_stamped(self, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "run"
        main(["train", "--config", str(config), "--out-dir", str(out)])
        text = (out / "metrics.csv").read_text()
        assert text.startswith("# holderpo 0.1.0 config_sha256=")
        assert text.splitlines()[1].startswith("step,p_value,objective")
        digest = json.loads((out / "summary.json").read_text())["config_sha256"]
        assert text.splitlines()[0] == f"# holderpo 0.1.0 config_sha256={digest}"

    def test_byte_identical_rerun(self, tmp_path):
        config = write_config(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["train", "--config", str(config), "--out-dir", str(out_a)])
        main(["train", "--config", str(config), "--out-dir", str(out_b)])
        for name in ("metrics.ndjson", "metrics.csv"):
            same = (out_a / name).read_bytes() == (out_b / name).read_bytes()
            assert same, f"{name} differs between identical runs"
        summaries = [
            json.loads((out / "summary.json").read_text()) for out in (out_a, out_b)
        ]
        for doc in summaries:
            doc.pop("wall_time_s")  # the one intentionally non-reproducible field
        assert summaries[0] == summaries[1]
        np.testing.assert_array_equal(
            np.load(out_a / "final_policy.npy"), np.load(out_b / "final_policy.npy")
        )

    def test_rerun_from_emitted_config(self, tmp_path):
        config = write_config(
            tmp_path,
            train__schedule={"p_high": 2.0, "p_low": -2.0, "shape": "sin"},
        )
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["train", "--config", str(config), "--out-dir", str(out_a)])
        code = main(["train", "--config", str(out_a / "config.json"),
                     "--out-dir", str(out_b)])
        assert code == EXIT_OK
        assert (out_a / "metrics.csv").read_bytes() == (
            out_b / "metrics.csv"
        ).read_bytes()

    def test_seed_override(self, tmp_path):
        config = write_config(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["train", "--config", str(config), "--out-dir", str(out_a)])
        main(["train", "--config", str(config), "--out-dir", str(out_b),
              "--seed", "9"])
        assert (
            json.loads((out_a / "summary.json").read_text())["final_success"]
            != json.loads((out_b / "summary.json").read_text())["final_success"]
        )

    def test_zero_lr_keeps_initial_success(self, tmp_path):
        config = write_config(tmp_path, train__learning_rate=1e-12)
        out = tmp_path / "run"
        main(["train", "--config", str(config), "--out-dir", str(out)])
        summary = json.loads((out / "summary.json").read_text())
        assert summary["final_success"] == pytest.approx(1.0 / 8.0, abs=1e-9)

    def test_schedule_endpoints_in_metrics(self, tmp_path):
        config = write_config(
            tmp_path,
            train__schedule={"p_high": 2.0, "p_low": -2.0, "total_steps": 5,
                             "shape": "linear", "direction": "descending"},
        )
        out = tmp_path / "run"
        main(["train", "--config", str(config), "--out-dir", str(out)])
        updates = [
            json.loads(line)
            for line in (out / "metrics.ndjson").read_text().splitlines()[1:]
        ]
        assert updates[0]["p_value"] == 2.0
        assert updates[-1]["p_value"] == -2.0

    def test_bad_config_is_usage_error(self, tmp_path, capsys):
        path = write_config(tmp_path, train__clipping_regime="soft")
        code = main(["train", "--config", str(path), "--out-dir",
                     str(tmp_path / "run")])
        assert code == EXIT_USAGE
        assert "clipping_regime" in capsys.readouterr().err

    @pytest.mark.parametrize("source", ["config", "flag"])
    def test_negative_seed_is_usage_error(self, tmp_path, capsys, source):
        if source == "config":
            path, extra = write_config(tmp_path, train__seed=-1), []
        else:
            path, extra = write_config(tmp_path), ["--seed", "-2"]
        out = tmp_path / "run"
        code = main(["train", "--config", str(path), "--out-dir", str(out), *extra])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("config error:") and "seed" in err
        assert not out.exists()

    def test_divergent_run_exit_code(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            train__learning_rate=1e4,
            train__clipping_regime="none",
            train__updates_per_round=8,
            train__total_rounds=10,
            train__schedule={"p_high": 5.0, "shape": "constant"},
        )
        code = main(["train", "--config", str(path), "--out-dir",
                     str(tmp_path / "run")])
        assert code == EXIT_DIVERGED
        assert "divergence" in capsys.readouterr().err

    def test_divergence_message_stays_short(self, tmp_path, capsys):
        """At a huge learning rate the log-ratio is ~1e306; the message
        prints it in three significant digits, not in full."""
        path = write_config(tmp_path, train__learning_rate=1e308)
        code = main(["train", "--config", str(path), "--out-dir",
                     str(tmp_path / "run")])
        assert code == EXIT_DIVERGED
        err = capsys.readouterr().err
        assert err.startswith("divergence abort: token ratio exp(")
        assert len(err.splitlines()[0]) < 200


class TestSweepCommand:
    def test_comparison_and_medians(self, tmp_path, capsys):
        config = write_config(tmp_path)
        out = tmp_path / "sweep"
        code = main(["sweep", "--config", str(config), "--out-dir", str(out),
                     "--p-list=-1,0,1", "--seeds", "2"])
        assert code == EXIT_OK
        comparison = (out / "comparison.csv").read_text().splitlines()
        assert comparison[1] == "label,seed,final_success"
        assert len(comparison) == 2 + 3 * 2  # stamp + header + 3 labels x 2 seeds
        medians = (out / "medians.csv").read_text()
        digest = _digest(resolved_config_dict(*load_config(str(config))))
        assert comparison[0] == f"# holderpo 0.1.0 config_sha256={digest}"
        assert medians.splitlines()[0] == comparison[0]
        for label in ("static_-1", "static_0", "static_1"):
            assert label in medians
            assert (out / label / "seed0" / "summary.json").exists()

    def test_include_schedule_row(self, tmp_path):
        config = write_config(
            tmp_path,
            train__schedule={"p_high": 2.0, "p_low": -2.0, "total_steps": 5,
                             "shape": "linear", "direction": "descending"},
        )
        out = tmp_path / "sweep"
        main(["sweep", "--config", str(config), "--out-dir", str(out),
              "--p-list", "0", "--seeds", "1", "--include-schedule"])
        assert "linear_2_-2" in (out / "medians.csv").read_text()

    def test_empty_p_list_rejected(self, tmp_path):
        config = write_config(tmp_path)
        code = main(["sweep", "--config", str(config), "--out-dir",
                     str(tmp_path / "sweep"), "--p-list", " "])
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("p_list", ["nan", "inf", "1,-inf"])
    def test_nonfinite_p_list_rejected(self, tmp_path, capsys, p_list):
        config = write_config(tmp_path)
        out = tmp_path / "sweep"
        code = main(["sweep", "--config", str(config), "--out-dir", str(out),
                     f"--p-list={p_list}"])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("config error:")
        assert not out.exists()

    @pytest.mark.parametrize("seeds", ["0", "-1"])
    def test_seed_count_below_one_rejected(self, tmp_path, capsys, seeds):
        config = write_config(tmp_path)
        out = tmp_path / "sweep"
        code = main(["sweep", "--config", str(config), "--out-dir", str(out),
                     "--p-list", "0", "--seeds", seeds])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "--seeds" in err
        assert not out.exists()

    def test_stacked_sweep_matches_solo_runs(self, tmp_path, monkeypatch):
        """`sweep` trains its runs as one stack; a sweep whose runs are solo
        `train` calls writes the same bytes, apart from wall times."""
        config = write_config(tmp_path, train__clipping_regime="token",
                              train__learning_rate=5.0)
        argv = ["sweep", "--config", str(config), "--p-list=-1,0,2", "--seeds", "2",
                "--include-schedule", "--out-dir"]
        stacked, solo = tmp_path / "stacked", tmp_path / "solo"
        assert main([*argv, str(stacked)]) == EXIT_OK
        monkeypatch.setattr(cli, "train_many",
                            lambda configs, task: [cli.train(c, task) for c in configs])
        assert main([*argv, str(solo)]) == EXIT_OK
        files = sorted(f.relative_to(stacked) for f in stacked.rglob("*") if f.is_file())
        assert files == sorted(f.relative_to(solo) for f in solo.rglob("*") if f.is_file())
        assert len([f for f in files if f.name == "metrics.csv"]) == 4 * 2
        for name in files:
            got, want = (stacked / name).read_bytes(), (solo / name).read_bytes()
            if name.name == "summary.json":
                got, want = json.loads(got), json.loads(want)
                del got["wall_time_s"], want["wall_time_s"]
            assert got == want, name

    def test_diverging_sweep_exit_code(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            train__learning_rate=1e4,
            train__clipping_regime="none",
            train__updates_per_round=8,
            train__total_rounds=10,
        )
        code = main(["sweep", "--config", str(config), "--out-dir",
                     str(tmp_path / "sweep"), "--p-list", "5", "--seeds", "2"])
        assert code == EXIT_DIVERGED
        assert "divergence abort" in capsys.readouterr().err
        assert not (tmp_path / "sweep").exists()


class TestVerifyCommand:
    def test_default_run_passes(self, tmp_path, capsys):
        json_out = tmp_path / "report.json"
        code = main(["verify", "--instances", "5", "--json-out", str(json_out)])
        assert code == EXIT_OK
        assert "ALL CHECKS PASSED" in capsys.readouterr().out
        doc = json.loads(json_out.read_text())
        assert doc["all_passed"] is True

    def test_only_single_check(self, tmp_path, capsys):
        code = main(["verify", "--instances", "5", "--only", "hhi_profile"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "hhi_profile" in out
        assert "special_case_means" not in out

    def test_unknown_check_is_usage_error(self, capsys):
        assert main(["verify", "--only", "bogus"]) == EXIT_USAGE

    # an empty --only would run no check: an error, not a vacuous pass
    @pytest.mark.parametrize("flags", [
        ["--instances", "0"], ["--seed", "-1"],
        ["--only", ""], ["--only", ","], ["--only", "hhi_profile,bogus"],
    ])
    def test_bad_instances_or_seed_is_usage_error(self, flags, tmp_path, capsys):
        json_out = tmp_path / "report.json"
        assert main(["verify", *flags, "--json-out", str(json_out)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1
        assert not json_out.exists()

    def test_a_raising_check_fails_the_run(self, monkeypatch, tmp_path, capsys):
        def raising(rng, instances):
            raise DomainError("kernel bug")

        monkeypatch.setitem(verify.CHECKS, "hhi_profile", raising)
        json_out = tmp_path / "report.json"
        code = main(["verify", "--instances", "1", "--only", "hhi_profile",
                     "--json-out", str(json_out)])
        assert code == EXIT_VERIFY_FAILED
        out = capsys.readouterr().out
        assert "[FAIL] hhi_profile" in out and "raised DomainError: kernel bug" in out
        assert json.loads(json_out.read_text())["all_passed"] is False

    def test_a_name_given_twice_runs_once(self, capsys):
        code = main(["verify", "--instances", "1", "--only", "hhi_profile,hhi_profile",
                     "--only", "hhi_profile"])
        assert code == EXIT_OK
        assert capsys.readouterr().out.count("hhi_profile") == 1

    def test_deterministic_report(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["verify", "--instances", "1", "--seed", "7", "--json-out", str(a)])
        main(["verify", "--instances", "1", "--seed", "7", "--json-out", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestUnwritableOutput:
    """An output path that cannot be written ends in one error line and exit
    1, not a traceback."""

    @staticmethod
    def assert_one_error_line(capsys):
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_train_out_dir_under_a_file(self, tmp_path, capsys):
        config, blocker = write_config(tmp_path), tmp_path / "file"
        blocker.write_text("")
        code = main(["train", "--config", str(config), "--out-dir", str(blocker / "run")])
        assert code == EXIT_USAGE
        self.assert_one_error_line(capsys)

    def test_sweep_out_dir_under_a_file(self, tmp_path, capsys):
        config, blocker = write_config(tmp_path), tmp_path / "file"
        blocker.write_text("")
        code = main(["sweep", "--config", str(config), "--out-dir", str(blocker / "sweep"),
                     "--p-list", "1", "--seeds", "1"])
        assert code == EXIT_USAGE
        self.assert_one_error_line(capsys)

    def test_verify_json_out_in_a_missing_directory(self, tmp_path, capsys):
        json_out = tmp_path / "missing" / "report.json"
        code = main(["verify", "--instances", "1", "--json-out", str(json_out)])
        assert code == EXIT_USAGE
        self.assert_one_error_line(capsys)
        assert not json_out.parent.exists()

    def test_verify_json_out_in_a_missing_directory_runs_no_check(
            self, monkeypatch, tmp_path, capsys):
        """Even a run that would fail: the path is refused first, exit 1."""
        runs = []
        monkeypatch.setitem(verify.CHECKS, "hhi_profile",
                            lambda rng, instances: runs.append(1) or 1 / 0)
        json_out = tmp_path / "missing" / "report.json"
        code = main(["verify", "--only", "hhi_profile", "--json-out", str(json_out)])
        assert code == EXIT_USAGE
        assert capsys.readouterr().out == ""
        assert runs == []


class TestModuleEntryPoint:
    def test_python_m_holderpo_help(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run(
            [sys.executable, "-m", "holderpo", "--help"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert "usage: holderpo" in proc.stdout


# In a fresh interpreter, after `import numpy`: import the package, the CLI
# and verify, train from a config, then write the run.  Prints the watched
# modules that training loaded and the run's config digest.
TRAIN_PROCESS = """
import json, sys
from pathlib import Path
import numpy
before = set(sys.modules)
if "numpy.random" in before:
    print(json.dumps({"numpy_random_with_numpy": numpy.__version__}))
    sys.exit()
import holderpo, holderpo.cli, holderpo.verify
task, config = holderpo.cli.load_config(sys.argv[1])
log = holderpo.train(config, task)
watched = {"numpy.random", "hashlib", "_hashlib", "argparse", "statistics"}
loaded = sorted(watched & (set(sys.modules) - before))
summary = holderpo.cli.write_run(Path(sys.argv[2]), task, config, log)
print(json.dumps({"loaded": loaded, "config_sha256": summary["config_sha256"]}))
"""


def test_a_train_process_loads_no_numpy_random_hashlib_argparse_or_statistics(tmp_path):
    """Training draws its streams without numpy.random, whose import brings
    hashlib and OpenSSL's libcrypto; the CLI imports hashlib, argparse and
    statistics only where it uses them.  Writing the run still digests the
    config as before."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-c", TRAIN_PROCESS, str(write_config(tmp_path, train__total_rounds=2)),
         str(tmp_path / "run")],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    if "numpy_random_with_numpy" in result:
        pytest.skip(f"numpy {result['numpy_random_with_numpy']} loads numpy.random "
                    "with numpy itself")
    assert result == {"loaded": [], "config_sha256": "32531824a90cbfa8"}


class TestExitCodes:
    def test_constants(self):
        assert (EXIT_OK, EXIT_USAGE, EXIT_VERIFY_FAILED, EXIT_DIVERGED) == (
            0, 1, 2, 3
        )
