import copy
import json

import pytest
import yaml

from atoshield import cli, trainer
from atoshield.cli import (
    ablation_hidden,
    main,
    moving_average,
    protect_decline_pct,
    read_metrics_csv,
    write_metrics_csv,
)
from atoshield.config import ConfigError, default_scenario_path, load_config
from atoshield.drl.nets import Mlp
from atoshield.trainer import EpisodeMetrics, noise_test


@pytest.fixture()
def default_yaml():
    return yaml.safe_load(default_scenario_path().read_text())


def dump(tmp_path, blob, name="scenario.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(blob))
    return path


class TestValidateConfig:
    def test_bundled_default_is_valid(self):
        cfg = load_config(default_scenario_path())
        assert cfg.track.length == 1500.0
        assert cfg.safety.terminal_zone is not None

    def test_steep_grade_reported(self, tmp_path, default_yaml):
        blob = copy.deepcopy(default_yaml)
        blob["track"]["grade_segments"] = [[0.0, 1500.0, -2.0]]
        with pytest.raises(ConfigError) as err:
            load_config(dump(tmp_path, blob))
        assert any("motor bound" in e for e in err.value.errors)

    def test_overlapping_limits_reported(self, tmp_path, default_yaml):
        blob = copy.deepcopy(default_yaml)
        blob["track"]["limit_segments"] = [[0.0, 900.0, 80.0], [500.0, 1500.0, 60.0]]
        with pytest.raises(ConfigError) as err:
            load_config(dump(tmp_path, blob))
        assert any("overlap" in e for e in err.value.errors)

    def test_unknown_keys_rejected(self, tmp_path, default_yaml):
        blob = copy.deepcopy(default_yaml)
        blob["track"]["banana"] = 1
        blob["extra_block"] = {}
        with pytest.raises(ConfigError) as err:
            load_config(dump(tmp_path, blob))
        msgs = "\n".join(err.value.errors)
        assert "track.banana" in msgs and "extra_block" in msgs

    def test_every_violation_reported_at_once(self, tmp_path, default_yaml):
        blob = copy.deepcopy(default_yaml)
        blob["train"]["mass_tonnes"] = -5.0
        blob["agent"]["gamma"] = 2.0
        blob["run"]["agent"] = "mystery"
        blob["run"]["seeds"] = [0, -1]
        with pytest.raises(ConfigError) as err:
            load_config(dump(tmp_path, blob))
        msgs = "\n".join(err.value.errors)
        assert "train.mass_tonnes" in msgs
        assert "agent.gamma" in msgs
        assert "run.agent" in msgs
        assert "run.seeds" in msgs

    def test_tree_cadence_must_match_update_cadence(self, tmp_path, default_yaml):
        blob = copy.deepcopy(default_yaml)
        blob["search"]["update_frequency"] = 7
        blob["run"]["t_up"] = 5
        with pytest.raises(ConfigError) as err:
            load_config(dump(tmp_path, blob))
        assert any("update_frequency" in e for e in err.value.errors)

    def test_action_grid_below_two_rejected(self, tmp_path, default_yaml):
        # a one-point grid has no room for both -1 and +1; it must fail at load,
        # not at the first intervention
        blob = copy.deepcopy(default_yaml)
        blob["search"]["action_grid"] = 1
        with pytest.raises(ConfigError) as err:
            load_config(dump(tmp_path, blob))
        assert any(e.startswith("search:") and "action_grid" in e for e in err.value.errors)

    @pytest.mark.parametrize("block, key, value", [
        ("run", "seeds", 5),
        ("agent", "hidden_sizes", 64),
        ("track", "limit_segments", 3),
    ])
    def test_scalar_in_list_field_names_the_field(self, tmp_path, default_yaml, block, key, value):
        blob = copy.deepcopy(default_yaml)
        blob[block][key] = value
        with pytest.raises(ConfigError) as err:
            load_config(dump(tmp_path, blob))
        assert f"{block}.{key}: expected a list, got {value}" in err.value.errors

    @pytest.mark.parametrize("block, key, value", [
        ("agent", "hidden_sizes", [16.5]),
        ("agent", "hidden_sizes", [True]),
        ("agent", "hidden_sizes", [16, 0]),
        ("agent", "additional_hidden_sizes", [16.5]),
        ("agent", "additional_hidden_sizes", [0]),
        ("agent", "batch_size", 16.5),
        ("agent", "batch_size", True),
        ("agent", "replay_capacity", 5e4),
        ("agent", "elite_minibatch", 2.5),
        ("agent", "elite_capacity", 20.5),
        ("agent", "additional_updates_per_episode", 2.5),
        ("agent", "additional_updates_per_episode", -1),
        ("run", "max_episodes", 1.5),
        ("run", "step_budget", 20.5),
        ("run", "execution_episodes", True),
    ])
    def test_bad_size_is_one_error_naming_the_field(self, tmp_path, default_yaml, capsys,
                                                    block, key, value):
        # each of these used to pass validation and then fail (or run) in training
        blob = copy.deepcopy(default_yaml)
        blob[block][key] = value
        path = dump(tmp_path, blob)
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert len(err.value.errors) == 1
        assert err.value.errors[0].startswith(f"{block}.{key}: ")
        assert main(["validate", "--config", str(path)]) == 2
        assert f"{block}.{key}: " in capsys.readouterr().err

    def test_no_additional_updates_is_valid(self, tmp_path, default_yaml):
        blob = copy.deepcopy(default_yaml)
        blob["agent"]["additional_updates_per_episode"] = 0
        assert load_config(dump(tmp_path, blob)).agent.additional_updates_per_episode == 0

    def test_search_inherits_run_cadence(self, default_yaml, tmp_path):
        blob = copy.deepcopy(default_yaml)
        blob["run"]["t_up"] = 4
        cfg = load_config(dump(tmp_path, blob))
        assert cfg.search.update_frequency == 4


class TestHelpers:
    def test_moving_average_window(self):
        vals = list(range(10))
        smooth = moving_average(vals, window=8)
        assert smooth[0] == 0.0
        assert smooth[7] == pytest.approx(sum(range(8)) / 8)
        assert smooth[9] == pytest.approx(sum(range(2, 10)) / 8)

    def test_decline_formula_hand_values(self):
        assert protect_decline_pct(12.0, 48.0) == pytest.approx(75.0)
        assert protect_decline_pct(0.0, 31.24) == pytest.approx(100.0)
        assert protect_decline_pct(24.18, 24.69) == pytest.approx(100.0 * 0.51 / 24.69)
        assert protect_decline_pct(5.0, 0.0) is None

    def test_metrics_csv_round_trip(self, tmp_path):
        rows = [
            (7, EpisodeMetrics(episode=0, total_reward=-12.5, protect_times=3,
                               overspeed_steps=0, traction_energy_kwh=4.0,
                               regen_energy_kwh=-1.0, run_time_s=108.0,
                               schedule_deviation_s=-2.0, arrived=True,
                               action_select_mean_s=0.001)),
        ]
        path = tmp_path / "m.csv"
        write_metrics_csv(path, rows)
        parsed = read_metrics_csv(path)
        assert parsed[0]["seed"] == 7
        assert parsed[0]["reward"] == pytest.approx(-12.5)
        assert parsed[0]["energy"] == pytest.approx(3.0)
        assert parsed[0]["deviation"] == pytest.approx(-2.0)

    def test_ablation_structures(self):
        base = (64, 64)
        assert ablation_hidden(base, "half") == (32, 32)
        assert ablation_hidden(base, "quarter") == (16, 16)
        assert ablation_hidden(base, "double") == (128, 128)
        assert ablation_hidden(base, "quadruple") == (256, 256)
        assert ablation_hidden(base, "layer_less") == (64,)
        assert ablation_hidden(base, "layer_more") == (64, 64, 64)


@pytest.fixture()
def tiny_yaml(tmp_path, default_yaml):
    blob = copy.deepcopy(default_yaml)
    blob["run"]["max_episodes"] = 2
    blob["run"]["seeds"] = [0, 1]
    blob["run"]["execution_episodes"] = 2
    blob["agent"]["hidden_sizes"] = [16, 16]
    blob["agent"]["batch_size"] = 32
    return dump(tmp_path, blob, "tiny.yaml")


class TestCli:
    def test_validate_command(self, capsys):
        assert main(["validate", "--config", str(default_scenario_path())]) == 0
        assert "valid" in capsys.readouterr().out

    def test_validate_bad_config_exit_2(self, tmp_path, default_yaml):
        blob = copy.deepcopy(default_yaml)
        blob["agent"]["gamma"] = -1
        path = dump(tmp_path, blob)
        assert main(["validate", "--config", str(path)]) == 2

    @pytest.mark.parametrize("argv, flag", [
        (["train", "--episodes", "0"], "--episodes"),
        (["train", "--episodes", "-2"], "--episodes"),
        (["noise-test", "--episodes", "0"], "--episodes"),
        (["noise-test", "--episodes", "-1"], "--episodes"),
        (["train", "--seed", "a"], "--seed"),
        (["train", "--seed", ""], "--seed"),
        (["noise-test", "--seed", "1,,2"], "--seed"),
        (["noise-test", "--seed", "-1"], "--seed"),
    ])
    def test_bad_override_exit_2_names_flag(self, argv, flag, tiny_yaml, tmp_path, capsys):
        out = tmp_path / "out"
        assert main([*argv, "--config", str(tiny_yaml), "--out", str(out)]) == 2
        assert flag in capsys.readouterr().err
        assert not out.exists()  # rejected before anything ran

    def test_train_writes_expected_artifacts(self, tiny_yaml, tmp_path):
        out = tmp_path / "out"
        assert main(["train", "--config", str(tiny_yaml), "--out", str(out)]) == 0
        for seed in (0, 1):
            tag = f"ssa_ddpg_seed{seed}"
            assert (out / f"metrics_{tag}.csv").exists()
            assert (out / f"curve_{tag}.csv").exists()
            assert (out / f"checkpoint_{tag}.json").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert len(summary["runs"]) == 2
        parsed = read_metrics_csv(out / "metrics_ssa_ddpg_seed0.csv")
        assert len(parsed) == 2

    def test_execute_and_compare(self, tiny_yaml, tmp_path):
        train_out = tmp_path / "t"
        assert main(["train", "--config", str(tiny_yaml), "--seed", "0",
                     "--out", str(train_out)]) == 0
        exec_out = tmp_path / "e"
        ckpt = train_out / "checkpoint_ssa_ddpg_seed0.json"
        code = main([
            "execute", "--config", str(tiny_yaml), "--seed", "0",
            "--checkpoint", str(ckpt), "--out", str(exec_out),
            "--compare-with", str(train_out / "metrics_ssa_ddpg_seed0.csv"),
        ])
        assert code == 0
        summary = json.loads((exec_out / "summary.json").read_text())
        assert "comparison" in summary
        assert (exec_out / "execution_metrics.csv").exists()

    def test_missing_checkpoint_exit_2(self, tiny_yaml, tmp_path):
        code = main(["execute", "--config", str(tiny_yaml),
                     "--checkpoint", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "x")])
        assert code == 2

    def test_bad_checkpoint_exit_2_one_line(self, tiny_yaml, tmp_path, capsys):
        ckpt = tmp_path / "ckpt.json"
        ckpt.write_text(json.dumps({"format": 1, "kind": "ddpg", "nets": {}}))
        code = main(["execute", "--config", str(tiny_yaml), "--checkpoint", str(ckpt),
                     "--out", str(tmp_path / "x")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: checkpoint {ckpt}: nets: ")
        assert err.count("\n") == 1

    def test_noise_test_command(self, tiny_yaml, tmp_path):
        out = tmp_path / "nt"
        assert main(["noise-test", "--config", str(tiny_yaml), "--seed", "0",
                     "--cmd", "1.0", "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["mean_protect_times"] > 0

    def test_noise_test_runs_probe_once_for_all_seeds(self, tiny_yaml, tmp_path, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return noise_test(*args, **kwargs)

        monkeypatch.setattr(cli, "noise_test", counted)
        out = tmp_path / "nt"
        assert main(["noise-test", "--config", str(tiny_yaml), "--seed", "0,1,2",
                     "--cmd", "1.0", "--out", str(out)]) == 0
        assert len(calls) == 1
        # the same bytes as one probe per seed, each under its own label
        cfg = load_config(tiny_yaml)
        per_seed = [(seed, m) for seed in (0, 1, 2)
                    for m in noise_test(cfg, 1.0, episodes=1, seed=seed)]
        write_metrics_csv(tmp_path / "per_seed.csv", per_seed)
        assert (out / "noise_test_metrics.csv").read_bytes() == (
            tmp_path / "per_seed.csv").read_bytes()
        summary = json.loads((out / "summary.json").read_text())
        want = cli._exec_summary([m for _, m in per_seed])
        for timing in (summary, want):
            del timing["mean_action_select_ms"]
        assert summary == {"command": "noise_test", "constant_cmd": 1.0, **want}

    def test_numerical_error_exit_1_one_line(self, tiny_yaml, tmp_path, monkeypatch, capsys):
        def diverged(self, x):
            raise FloatingPointError("network produced non-finite output")

        monkeypatch.setattr(Mlp, "forward", diverged)
        code = main(["train", "--config", str(tiny_yaml), "--seed", "0",
                     "--out", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert err == "numerical error: network produced non-finite output\n"

    def test_numerical_error_in_additional_fit_exit_1_one_line(self, tiny_yaml, tmp_path,
                                                              monkeypatch, capsys):
        # the fit runs on a worker thread; its error must reach the CLI like any other
        def diverged(*args):
            raise FloatingPointError("network produced non-finite output")

        monkeypatch.setattr(trainer, "update_additional_actor", diverged)
        code = main(["train", "--config", str(tiny_yaml), "--seed", "0",
                     "--out", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert err == "numerical error: network produced non-finite output\n"

    def test_robustness_single_cell(self, tiny_yaml, tmp_path):
        train_out = tmp_path / "t2"
        main(["train", "--config", str(tiny_yaml), "--seed", "0", "--out", str(train_out)])
        out = tmp_path / "rob"
        code = main([
            "robustness", "--config", str(tiny_yaml), "--seed", "0",
            "--checkpoint", str(train_out / "checkpoint_ssa_ddpg_seed0.json"),
            "--eps-r", "0.3", "--delta-r", "0.3", "--out", str(out),
        ])
        assert code == 0
        lines = (out / "pcc_grid.csv").read_text().strip().splitlines()
        assert lines[0].startswith("eps_r,delta_r,pcc_speed")
        assert len(lines) == 2

    def test_transfer_command(self, tiny_yaml, tmp_path, default_yaml):
        train_out = tmp_path / "t3"
        main(["train", "--config", str(tiny_yaml), "--seed", "0", "--out", str(train_out)])
        # a second section with different limits stands in for the new line
        blob = copy.deepcopy(default_yaml)
        blob["track"]["limit_segments"] = [[0.0, 700.0, 70.0], [700.0, 1500.0, 55.0]]
        blob["run"]["execution_episodes"] = 1
        target = dump(tmp_path, blob, "target.yaml")
        out = tmp_path / "tr"
        code = main([
            "transfer", "--config", str(target), "--seed", "0",
            "--checkpoint", str(train_out / "checkpoint_ssa_ddpg_seed0.json"),
            "--out", str(out),
        ])
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert "transferable" in summary
        assert "noise_test_protect_times" in summary
