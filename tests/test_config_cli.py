import copy
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import atoshield
from atoshield import cli, config, trainer
from atoshield.cli import (
    ABLATION_STRUCTURES,
    main,
    moving_average,
    protect_decline_pct,
    read_metrics_csv,
    write_metrics_csv,
)
from atoshield.config import ConfigError, default_scenario_path, load_config
from atoshield.drl.agents import AGENT_KINDS, load_checkpoint, save_checkpoint
from atoshield.drl.nets import Mlp
from atoshield.shield import UnrecoverableStateError, default_terminal_zone
from atoshield.trainer import EpisodeMetrics, noise_test

from conftest import wider_state_nets


@pytest.fixture()
def default_yaml():
    return yaml.safe_load(default_scenario_path().read_text())


def dump(tmp_path, blob, name="scenario.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(blob))
    return path


def case_ids(cases):
    """``block-key-value`` ids, which leave out a case's expected outcome."""
    return [f"{block}-{key}-{value}" for block, key, value, _ in cases]


# each of these used to pass validation and then fail (or run) in training
BAD_SIZES = [
    ("agent", "hidden_sizes", [16.5], "agent.hidden_sizes[0]: expected an integer, got 16.5"),
    ("agent", "hidden_sizes", [True], "agent.hidden_sizes[0]: expected an integer, got True"),
    ("agent", "hidden_sizes", [16, 0],
     "agent.hidden_sizes: need at least one layer width, each >= 1"),
    ("agent", "additional_hidden_sizes", [16, 2.5],
     "agent.additional_hidden_sizes[1]: expected an integer, got 2.5"),
    ("agent", "additional_hidden_sizes", [0],
     "agent.additional_hidden_sizes: need at least one layer width, each >= 1"),
    ("agent", "additional_hidden_sizes", [],
     "agent.additional_hidden_sizes: need at least one layer width, each >= 1"),
    ("agent", "batch_size", 16.5, "agent.batch_size: expected an integer, got 16.5"),
    ("agent", "batch_size", True, "agent.batch_size: expected an integer, got True"),
    ("agent", "replay_capacity", 5e4, "agent.replay_capacity: expected an integer, got 50000.0"),
    ("agent", "elite_minibatch", 2.5, "agent.elite_minibatch: expected an integer, got 2.5"),
    ("agent", "elite_capacity", 20.5, "agent.elite_capacity: expected an integer, got 20.5"),
    ("agent", "additional_updates_per_episode", 2.5,
     "agent.additional_updates_per_episode: expected an integer, got 2.5"),
    ("agent", "additional_updates_per_episode", -1,
     "agent.additional_updates_per_episode: must be >= 0"),
    ("run", "max_episodes", 1.5, "run.max_episodes: expected an integer, got 1.5"),
    ("run", "step_budget", 20.5, "run.step_budget: expected an integer, got 20.5"),
    ("run", "execution_episodes", True, "run.execution_episodes: expected an integer, got True"),
    ("run", "seeds", [0, 1.5], "run.seeds[1]: expected an integer, got 1.5"),
    # a repeated seed once trained twice, both runs writing one checkpoint path
    ("run", "seeds", [0, 0], "run.seeds: every seed must be distinct"),
    ("search", "expansion_width", 2.5, "search.expansion_width: expected an integer, got 2.5"),
    ("search", "action_grid", 4.5, "search.action_grid: expected an integer, got 4.5"),
]

MISTYPED = [
    ("train", "mass_tonnes", "heavy", "a finite number"),
    ("train", "max_decel", None, "a finite number"),
    ("track", "length", "long", "a finite number"),
    ("track", "dt", True, "a finite number"),
    ("safety", "min_speed", "x", "a finite number"),
    ("safety", "terminal_zone", True, "a finite number"),
    ("reward", "alpha_traction", "x", "a finite number"),
    ("agent", "gamma", "x", "a finite number"),
    ("agent", "actor_lr", "1e-3", "a finite number"),  # YAML 1.1 reads this as a string
    ("agent", "additional_actor_lr", False, "a finite number"),
    ("agent", "noise_scale", "high", "a finite number"),
    ("agent", "batch_size", "256", "an integer"),
    ("search", "expansion_width", "5", "an integer"),
    ("search", "backup_discount", False, "a finite number"),
    ("run", "t_up", "x", "an integer"),
    ("run", "step_budget", "x", "an integer"),
    ("run", "agent", ["ssa_ddpg"], "a string"),
]

# a value just outside each field's range, and the rule it breaks: the file
# loads to the one line f"{block}.{key}: must be {rule}"
OUT_OF_RANGE = [
    ("train", "mass_tonnes", 0.0, "> 0"),
    ("train", "davis_r1", -0.1, ">= 0"),
    ("train", "davis_r2", -0.001, ">= 0"),
    ("train", "davis_r3", -0.0001, ">= 0"),
    ("train", "max_accel", 5.01, "in (0, 5]"),
    ("train", "max_decel", 0.0, "in (0, 5]"),
    ("train", "max_decel", 5.01, "in (0, 5]"),
    ("train", "base_speed_traction", 0.0, "> 0"),
    ("train", "base_speed_braking", 0.0, "> 0"),
    ("train", "regen_efficiency", -0.01, "in [0, 1]"),
    ("train", "regen_efficiency", 1.01, "in [0, 1]"),
    ("track", "length", 0.0, "> 0"),
    ("track", "scheduled_time", 0.0, "> 0"),
    ("track", "dt", 0.0, "> 0"),
    ("safety", "min_speed", -0.1, ">= 0"),
    ("safety", "terminal_zone", -1.0, ">= 0"),
    ("reward", "alpha_traction", -3.0, ">= 0"),
    ("reward", "alpha_regen", -0.01, ">= 0"),
    ("reward", "alpha_time_terminal", -15.0, ">= 0"),
    ("reward", "alpha_time_step", -0.01, ">= 0"),
    ("reward", "comfort_penalty", -10.0, ">= 0"),
    ("reward", "jerk_threshold", -1.0, ">= 0"),
    ("agent", "actor_lr", 0.0, "> 0"),
    ("agent", "critic_lr", 0.0, "> 0"),
    ("agent", "sac_value_lr", 0.0, "> 0"),
    ("agent", "sac_softq_lr", 0.0, "> 0"),
    ("agent", "additional_actor_lr", 0.0, "> 0"),
    ("agent", "gamma", 0.0, "in (0, 1]"),
    ("agent", "gamma", 1.01, "in (0, 1]"),
    ("agent", "soft_tau", 0.0, "in (0, 1]"),
    ("agent", "soft_tau", 1.01, "in (0, 1]"),
    ("agent", "entropy_alpha", -0.1, ">= 0"),
    ("agent", "convergence_eps", 0.0, "> 0"),
    ("agent", "elite_minibatch", 0, ">= 1"),
    ("agent", "elite_capacity", 9, ">= elite_minibatch"),
    ("agent", "batch_size", 0, ">= 1"),
    ("agent", "replay_capacity", 255, ">= batch_size"),
    ("agent", "additional_updates_per_episode", -1, ">= 0"),
    ("agent", "noise_scale", -0.35, ">= 0"),
    ("search", "expansion_width", 0, ">= 1"),
    ("search", "backup_discount", 0.0, "in (0, 1]"),
    ("search", "backup_discount", 1.01, "in (0, 1]"),
    ("search", "action_grid", 1, ">= 2"),
    ("run", "max_episodes", 0, ">= 1"),
    ("run", "t_up", 0, ">= 1"),
    ("run", "step_budget", 0, ">= 1"),
    ("run", "execution_episodes", 0, ">= 1"),
]

# what else a case edits so that its bound is the only rule it breaks: a
# negative davis_r1 makes the flat grade a downhill one
OUT_OF_RANGE_EDITS = {"train.davis_r1": ("track", "grade_segments", [[0.0, 1500.0, -0.001]])}
# the lines a case cannot avoid beside its own: no segment can end at a
# length <= 0
OUT_OF_RANGE_ALSO = {"track.length": ["track.limit_segments[2]: must end at track length",
                                      "track.grade_segments[0]: must end at track length"]}

# each closed end of a range, which loads
AT_THE_BOUND = [
    ("train", "davis_r1", 0.0),
    ("train", "regen_efficiency", 0.0),
    ("train", "regen_efficiency", 1.0),
    ("train", "max_accel", 5.0),
    ("train", "max_decel", 5.0),
    ("agent", "gamma", 1.0),
    ("agent", "soft_tau", 1.0),
    ("agent", "entropy_alpha", 0.0),
    ("agent", "additional_updates_per_episode", 0),
    ("agent", "noise_scale", 0.0),
    ("agent", "elite_capacity", 10),  # == elite_minibatch
    ("agent", "replay_capacity", 256),  # == batch_size
    ("search", "backup_discount", 1.0),
    ("search", "action_grid", 2),
    ("safety", "terminal_zone", 0.0),
    ("reward", "alpha_traction", 0.0),
    ("reward", "alpha_regen", 0.0),
    ("reward", "alpha_time_terminal", 0.0),
    ("reward", "alpha_time_step", 0.0),
    ("reward", "comfort_penalty", 0.0),
    ("reward", "jerk_threshold", 0.0),
    ("run", "t_up", 1),
]

# every float field of every block, by annotation
FLOAT_FIELDS = [(block, field.name) for block, cls in config._FIELD_MAP.items()
                for field in dataclasses.fields(cls)
                if field.type.removesuffix(" | None") == "float"]


class TestValidateConfig:
    def test_bundled_default_is_valid(self):
        cfg = load_config(default_scenario_path())
        assert cfg.track.length == 1500.0
        # no floor is set, so no terminal zone is derived
        assert cfg.safety.min_speed is None and cfg.safety.terminal_zone is None

    def test_bundled_file_sets_every_field_and_nothing_else(self, default_yaml):
        # the bundled file is the full list of settable values, so a retired
        # key cannot linger in it
        assert {name: set(blob) for name, blob in default_yaml.items()} == {
            name: {f.name for f in dataclasses.fields(cls)}
            for name, cls in config._FIELD_MAP.items()}

    def test_terminal_zone_is_derived_and_held_only_with_a_floor(self, tmp_path, default_yaml):
        blob = copy.deepcopy(default_yaml)
        blob["safety"]["min_speed"] = 0.0
        cfg = load_config(dump(tmp_path, blob))
        assert cfg.safety.terminal_zone == default_terminal_zone(cfg.train, cfg.track)
        # 100 m at 8 s: the derived zone, 12.5^2 / 2.4 + 50 = 115 m, is longer
        # than the section, which matters only with a floor
        blob["track"].update(length=100.0, scheduled_time=8.0,
                             limit_segments=[[0.0, 100.0, 80.0]],
                             grade_segments=[[0.0, 100.0, 0.0]])
        with pytest.raises(ConfigError) as err:
            load_config(dump(tmp_path, blob))
        assert err.value.errors == ["safety.terminal_zone: must be smaller than the track length"]
        blob["safety"]["min_speed"] = None
        assert load_config(dump(tmp_path, blob)).safety.terminal_zone is None

    def test_default_budget_below_one_is_one_error_naming_dt(self, tmp_path, default_yaml):
        # int(3 * 0.5 / 2.0) = 0 steps: episodes ran one step over a budget of 0
        blob = copy.deepcopy(default_yaml)
        blob["track"].update(scheduled_time=0.5, dt=2.0)
        with pytest.raises(ConfigError) as err:
            load_config(dump(tmp_path, blob))
        assert err.value.errors == [
            "track.dt: 2.0 s gives a default budget of 0 steps per episode "
            "(3 x scheduled_time / dt), below the least budget of 1"]
        blob["run"]["step_budget"] = 1
        cfg = load_config(dump(tmp_path, blob))
        assert cfg.run.resolved_budget(cfg.track) == 1

    def test_bundled_budget_is_under_the_cap(self):
        cfg = load_config(default_scenario_path())
        assert cfg.run.resolved_budget(cfg.track) == 330 < trainer.MAX_STEP_BUDGET

    @pytest.mark.parametrize("block, key, value, field", [
        ("run", "step_budget", 1_000_000_000_000, "run.step_budget"),
        ("run", "step_budget", trainer.MAX_STEP_BUDGET + 1, "run.step_budget"),
        # 330 million steps per episode by the default budget
        ("track", "dt", 1.0e-6, "track.dt"),
        # so small that the default budget overflows a float
        ("track", "dt", 5e-324, "track.dt"),
    ], ids=["trillion", "one-over", "microsecond", "subnormal"])
    def test_step_budget_capped(self, tmp_path, default_yaml, block, key, value, field):
        blob = copy.deepcopy(default_yaml)
        blob[block][key] = value
        with pytest.raises(ConfigError) as err:
            load_config(dump(tmp_path, blob))
        assert len(err.value.errors) == 1
        assert err.value.errors[0].startswith(f"{field}: ")
        assert str(trainer.MAX_STEP_BUDGET) in err.value.errors[0]

    def test_step_budget_at_the_cap_loads(self, tmp_path, default_yaml):
        blob = copy.deepcopy(default_yaml)
        # a budget of its own overrides the default one of a fine dt
        blob["run"]["step_budget"] = trainer.MAX_STEP_BUDGET
        blob["track"]["dt"] = 1.0e-6
        cfg = load_config(dump(tmp_path, blob))
        assert cfg.run.resolved_budget(cfg.track) == trainer.MAX_STEP_BUDGET

    def test_steep_grade_reported(self, tmp_path, default_yaml):
        blob = copy.deepcopy(default_yaml)
        blob["track"]["grade_segments"] = [[0.0, 1500.0, -2.0]]
        with pytest.raises(ConfigError) as err:
            load_config(dump(tmp_path, blob))
        assert any("motor bound" in e for e in err.value.errors)

    def test_bad_schedule_still_reports_the_grades(self, tmp_path, default_yaml):
        # the track's scalar bounds and its grades are checked side by side
        blob = copy.deepcopy(default_yaml)
        blob["track"].update(scheduled_time=0.0, grade_segments=[[0.0, 1500.0, 0.1]])
        with pytest.raises(ConfigError) as err:
            load_config(dump(tmp_path, blob))
        assert err.value.errors == [
            "track.scheduled_time: must be > 0",
            "track.grade_segments[0]: downhill grade 0.1 exceeds standstill resistance "
            "(coasting would accelerate)",
        ]

    @pytest.mark.parametrize("block, edits, field", [
        # a hair above standstill resistance (0.0084 m/s^2): the shield's
        # recovery rollout relies on the exact bound
        ("track", {"grade_segments": [[0.0, 1500.0, 0.0084 + 5e-10]]},
         "track.grade_segments[0]: downhill"),
        # full traction from standstill reaches about 4.3 km/h in one interval,
        # so every episode would abort at its first command
        ("safety", {"min_speed": 5.0}, "safety.min_speed: "),
        # a floor's derived terminal zone divides by the braking rate
        ("train", {"max_decel": 0.0}, "train.max_decel: "),
    ], ids=["band_grade", "infeasible_floor", "no_braking"])
    def test_unrunnable_scenario_is_one_error_naming_the_field(
        self, tmp_path, default_yaml, capsys, block, edits, field
    ):
        blob = copy.deepcopy(default_yaml)
        blob[block].update(edits)
        path = dump(tmp_path, blob)
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert len(err.value.errors) == 1
        assert err.value.errors[0].startswith(field)
        assert main(["validate", "--config", str(path)]) == 2
        assert field in capsys.readouterr().err

    def test_floor_at_a_posted_limit_is_one_error_naming_the_segment(self, tmp_path, default_yaml,
                                                                     capsys):
        # the train would have to run above 4.2 and at most 4.0 km/h in [500, 1000),
        # so the shield used to abort there at run time
        blob = copy.deepcopy(default_yaml)
        blob["track"]["limit_segments"][1][2] = 4.0
        blob["track"]["scheduled_time"] = 600
        blob["safety"]["min_speed"] = 4.2
        path = dump(tmp_path, blob)
        with pytest.raises(ConfigError) as err:
            load_config(path)
        error = ("safety.min_speed: 4.2 km/h is not below the 4.0 km/h limit of "
                 "track.limit_segments[1] (500.0-1000.0 m), where the floor applies")
        assert err.value.errors == [error]
        assert main(["validate", "--config", str(path)]) == 2
        assert error in capsys.readouterr().err
        blob["safety"]["min_speed"] = None
        load_config(dump(tmp_path, blob))

    def test_bounds_table_names_numeric_fields(self):
        # a misspelled key would raise AttributeError at load
        for block, rules in config._BOUNDS.items():
            fields = {f.name: f.type for f in dataclasses.fields(config._FIELD_MAP[block])}
            for key, rule in rules.items():
                assert fields.get(key, "").removesuffix(" | None") in ("float", "int"), \
                    f"{block}.{key}"
                operand = rule.split(" ")[-1]
                if operand.isidentifier():
                    assert operand in fields, f"{block}.{key}: {rule}"

    def test_type_table_knows_every_field(self):
        # a field of a type the table lacks would raise KeyError at load
        for block, cls in config._FIELD_MAP.items():
            for field in dataclasses.fields(cls):
                kind = field.type.removesuffix(" | None")
                assert kind in config._KINDS, f"{block}.{field.name}: {field.type}"

    @pytest.mark.parametrize("block, key, value, rule", OUT_OF_RANGE, ids=case_ids(OUT_OF_RANGE))
    def test_value_out_of_range_is_one_error_in_the_rule_words(self, tmp_path, default_yaml,
                                                                block, key, value, rule):
        blob = copy.deepcopy(default_yaml)
        blob[block][key] = value
        if f"{block}.{key}" in OUT_OF_RANGE_EDITS:
            other, other_key, other_value = OUT_OF_RANGE_EDITS[f"{block}.{key}"]
            blob[other][other_key] = other_value
        with pytest.raises(ConfigError) as err:
            load_config(dump(tmp_path, blob))
        assert err.value.errors == [f"{block}.{key}: must be {rule}",
                                    *OUT_OF_RANGE_ALSO.get(f"{block}.{key}", [])]

    @pytest.mark.parametrize("block, key, value", AT_THE_BOUND,
                             ids=[f"{b}-{k}-{v}" for b, k, v in AT_THE_BOUND])
    def test_closed_end_of_a_range_loads(self, tmp_path, default_yaml, block, key, value):
        blob = copy.deepcopy(default_yaml)
        blob[block][key] = value
        assert getattr(getattr(load_config(dump(tmp_path, blob)), block), key) == value

    @pytest.mark.parametrize("block, key", FLOAT_FIELDS, ids=[f"{b}-{k}" for b, k in FLOAT_FIELDS])
    def test_non_finite_float_is_one_error_naming_the_field(self, tmp_path, default_yaml, block,
                                                            key):
        # a NaN davis_r1 once validated and sent the +1 probe on for 330
        # steps without an intervention or an arrival
        for value in (float("nan"), float("inf"), float("-inf"), 10**400):
            blob = copy.deepcopy(default_yaml)
            blob[block][key] = value
            with pytest.raises(ConfigError) as err:
                load_config(dump(tmp_path, blob))
            assert err.value.errors == [f"{block}.{key}: expected a finite number, got {value!r}"]

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

    def test_mistyped_value_skips_only_its_block(self, tmp_path, default_yaml):
        # agent.gamma breaks an invariant of the mistyped block, so it goes unchecked
        blob = copy.deepcopy(default_yaml)
        blob["agent"].update(batch_size=16.5, gamma=2.0)
        blob["run"]["t_up"] = 0
        blob["train"]["mass_tonnes"] = -5.0
        with pytest.raises(ConfigError) as err:
            load_config(dump(tmp_path, blob))
        assert err.value.errors == ["agent.batch_size: expected an integer, got 16.5",
                                    "train.mass_tonnes: must be > 0", "run.t_up: must be >= 1"]

    def test_track_bounds_checked_beside_a_mistyped_train(self, tmp_path, default_yaml):
        # the track's own bounds read nothing of the train
        blob = copy.deepcopy(default_yaml)
        blob["train"]["mass_tonnes"] = "heavy"
        blob["track"]["dt"] = 0.0
        with pytest.raises(ConfigError) as err:
            load_config(dump(tmp_path, blob))
        assert err.value.errors == ["train.mass_tonnes: expected a finite number, got 'heavy'",
                                    "track.dt: must be > 0"]

    @pytest.mark.parametrize("block, key", [
        # the tree's depth bound is run.t_up; a separate search key could only disagree
        ("search", "update_frequency"),
        # nothing read the schedule margin, so a file that sets it must hear so
        ("track", "schedule_margin"),
        # DDPG explores with annealed Gaussian noise only, so there is no kind to pick
        ("agent", "noise_kind"),
        # the Ornstein-Uhlenbeck reversion rate went with the process
        ("agent", "ou_theta"),
        # the Ornstein-Uhlenbeck innovation scale went with the process
        ("agent", "ou_sigma"),
        # a set safety.min_speed turns the floor on, so no flag is left to set
        ("safety", "enforce_min_speed"),
    ], ids=["search.update_frequency", "track.schedule_margin", "agent.noise_kind",
            "agent.ou_theta", "agent.ou_sigma", "safety.enforce_min_speed"])
    def test_retired_key_is_unknown(self, tmp_path, default_yaml, capsys, block, key):
        blob = copy.deepcopy(default_yaml)
        blob[block][key] = 5
        path = dump(tmp_path, blob)
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert err.value.errors == [f"{block}.{key}: unknown key"]
        assert main(["validate", "--config", str(path)]) == 2
        assert capsys.readouterr().err == f"invalid scenario config:\n  - {block}.{key}: unknown key\n"

    def test_action_grid_below_two_rejected(self, tmp_path, default_yaml):
        # a one-point grid has no room for both -1 and +1; it must fail at load,
        # not at the first intervention
        blob = copy.deepcopy(default_yaml)
        blob["search"]["action_grid"] = 1
        with pytest.raises(ConfigError) as err:
            load_config(dump(tmp_path, blob))
        assert err.value.errors == ["search.action_grid: must be >= 2"]

    def test_every_search_violation_reported_at_once(self, tmp_path, default_yaml):
        blob = copy.deepcopy(default_yaml)
        blob["search"].update(expansion_width=0, action_grid=1, backup_discount=1.5)
        with pytest.raises(ConfigError) as err:
            load_config(dump(tmp_path, blob))
        assert err.value.errors == ["search.expansion_width: must be >= 1",
                                    "search.backup_discount: must be in (0, 1]",
                                    "search.action_grid: must be >= 2"]

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

    @pytest.mark.parametrize("block, key, value, error", BAD_SIZES, ids=case_ids(BAD_SIZES))
    def test_bad_size_is_one_error_naming_the_field(self, tmp_path, default_yaml, capsys,
                                                    block, key, value, error):
        blob = copy.deepcopy(default_yaml)
        blob[block][key] = value
        path = dump(tmp_path, blob)
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert err.value.errors == [error]
        assert main(["validate", "--config", str(path)]) == 2
        assert error in capsys.readouterr().err

    @pytest.mark.parametrize("block, key, value, expected", MISTYPED, ids=case_ids(MISTYPED))
    def test_non_number_is_one_error_naming_the_field(self, tmp_path, default_yaml, capsys,
                                                      block, key, value, expected):
        blob = copy.deepcopy(default_yaml)
        blob[block][key] = value
        path = dump(tmp_path, blob)
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert err.value.errors == [f"{block}.{key}: expected {expected}, got {value!r}"]
        assert main(["validate", "--config", str(path)]) == 2
        assert f"{block}.{key}: expected {expected}" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["x", 1, None])
    def test_flag_must_be_true_or_false(self, tmp_path, default_yaml, value):
        # a non-empty string used to switch the rule on silently
        blob = copy.deepcopy(default_yaml)
        blob["safety"]["forbid_direct_reversal"] = value
        with pytest.raises(ConfigError) as err:
            load_config(dump(tmp_path, blob))
        assert err.value.errors == [
            f"safety.forbid_direct_reversal: expected true or false, got {value!r}"]

    @pytest.mark.parametrize("block, key", [
        ("agent", "additional_actor_lr"),
        ("agent", "additional_hidden_sizes"),
        ("safety", "terminal_zone"),
        ("run", "max_episodes"),
        ("run", "step_budget"),
    ])
    def test_none_is_legal_where_it_is_the_default(self, tmp_path, default_yaml, block, key):
        blob = copy.deepcopy(default_yaml)
        blob[block][key] = None
        load_config(dump(tmp_path, blob))

    @pytest.mark.parametrize("segment", [[0.0, "a", 80.0], [0.0, 1500.0], [0.0, 1500.0, True], 7,
                                         [0.0, 1500.0, float("nan")], [0.0, float("inf"), 0.0]])
    def test_segment_must_be_three_numbers(self, tmp_path, default_yaml, segment):
        blob = copy.deepcopy(default_yaml)
        blob["track"]["grade_segments"] = [segment]
        with pytest.raises(ConfigError) as err:
            load_config(dump(tmp_path, blob))
        assert err.value.errors == [
            f"track.grade_segments[0]: expected three finite numbers [start, end, value], "
            f"got {segment!r}"
        ]

    # only a missing or null block means an empty one: a falsy value is not a mapping
    @pytest.mark.parametrize("value", [5, 0, False, [], ""])
    def test_run_block_not_a_mapping_is_one_error(self, tmp_path, default_yaml, value):
        blob = copy.deepcopy(default_yaml)
        blob["run"] = value
        with pytest.raises(ConfigError) as err:
            load_config(dump(tmp_path, blob))
        assert err.value.errors == ["run: expected a mapping"]

    def test_no_additional_updates_is_valid(self, tmp_path, default_yaml):
        blob = copy.deepcopy(default_yaml)
        blob["agent"]["additional_updates_per_episode"] = 0
        assert load_config(dump(tmp_path, blob)).agent.additional_updates_per_episode == 0

    def test_search_follows_run_cadence(self, default_yaml, tmp_path, monkeypatch):
        blob = copy.deepcopy(default_yaml)
        blob["run"]["t_up"] = 4
        cfg = load_config(dump(tmp_path, blob))
        seen = []

        def recording(env, spec, policy, state, safe_set, horizon, *rest):
            seen.append((round(state.time / cfg.track.dt), horizon))
            return min(safe_set)

        monkeypatch.setattr(trainer, "search_safe_action", recording)
        trainer.noise_test(cfg, 1.0, episodes=1)
        # the probe's state time counts its steps: the search at step t looks
        # ahead to the next multiple of run.t_up
        assert seen and all(horizon == -(t + 1) % 4 for t, horizon in seen)
        assert {horizon for _, horizon in seen} == {0, 1, 2, 3}


class TestHelpers:
    def test_moving_average_window(self):
        vals = list(range(10))
        assert cli.SMOOTH_WINDOW == 8
        smooth = moving_average(vals)
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
        assert [(name, widths(base)) for name, widths in ABLATION_STRUCTURES.items()] == [
            ("half", (32, 32)), ("quarter", (16, 16)), ("double", (128, 128)),
            ("quadruple", (256, 256)), ("layer_less", (64,)), ("layer_more", (64, 64, 64)),
        ]


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

    def test_validate_loads_no_process_pool(self):
        # only train --workers > 1 uses the pool, so no other command loads
        # concurrent.futures or the multiprocessing it pulls in
        script = ("import sys; from atoshield.cli import main; main(['validate']); "
                  "print(sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))")
        src = str(Path(atoshield.__file__).resolve().parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, check=True, timeout=120)
        assert proc.stdout.splitlines()[-1] == "[]"

    @pytest.mark.parametrize("given, want", [(None, "1"), ("3", "3")], ids=["unset", "set"])
    def test_blas_threads_default_to_one(self, given, want):
        # the CLI sets one BLAS thread before numpy loads, unless the caller
        # set the variables; the OpenBLAS that numpy loaded then runs one
        root = Path(__file__).resolve().parents[1]
        script = ("import os, sys; import atoshield.cli; sys.path.insert(0, sys.argv[1]); "
                  "from run import blas_threads; "
                  "print(os.environ['OPENBLAS_NUM_THREADS'], os.environ['OMP_NUM_THREADS'], "
                  "blas_threads())")
        src = str(Path(atoshield.__file__).resolve().parents[1])
        names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
        env = {k: v for k, v in os.environ.items() if k not in names}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        if given is not None:
            env.update(dict.fromkeys(names, given))
        proc = subprocess.run([sys.executable, "-c", script, str(root / "benchmarks")], env=env,
                              capture_output=True, text=True, check=True, timeout=120)
        openblas, omp, blas = proc.stdout.split()
        assert openblas == omp == want
        if given is None:  # OpenBLAS caps a larger request at the core count
            assert blas in ("1", "None")  # None: a numpy not built on OpenBLAS

    def test_validate_bad_config_exit_2(self, tmp_path, default_yaml):
        blob = copy.deepcopy(default_yaml)
        blob["agent"]["gamma"] = -1
        path = dump(tmp_path, blob)
        assert main(["validate", "--config", str(path)]) == 2

    @pytest.mark.parametrize("command", ["validate", "train", "execute", "noise-test",
                                         "robustness", "transfer", "ablation"])
    @pytest.mark.parametrize("text, problem", [
        (b"train: {mass_tonnes: 3\n  bad: [", "expected ',' or '}', but got ':' at line 2, column 6"),
        (b"train: !!python/object:os.system {}\n",
         "could not determine a constructor for the tag "
         "'tag:yaml.org,2002:python/object:os.system' at line 1, column 8"),
        (b"\xfftrain: {}\n", "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
    ], ids=["syntax", "unsafe-tag", "not-utf8"])
    def test_unparsable_scenario_is_one_config_error(self, tmp_path, capsys, command, text,
                                                     problem):
        # each once ended in a parser or decoder traceback with exit 1
        path = tmp_path / "bad.yaml"
        path.write_bytes(text)
        out = tmp_path / "out"
        argv = [command, "--config", str(path)]
        if command != "validate":
            argv += ["--out", str(out)]
        if command in ("execute", "robustness", "transfer"):
            # the scenario is loaded first, so the checkpoint need not exist
            argv += ["--checkpoint", str(tmp_path / "ckpt.json")]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"invalid scenario config:\n  - file: {problem}\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv, flag", [
        (["train", "--episodes", "0"], "--episodes"),
        (["train", "--episodes", "-2"], "--episodes"),
        (["noise-test", "--episodes", "0"], "--episodes"),
        (["noise-test", "--episodes", "-1"], "--episodes"),
        (["train", "--seed", "a"], "--seed"),
        (["train", "--seed", ""], "--seed"),
        (["noise-test", "--seed", "1,,2"], "--seed"),
        (["noise-test", "--seed", "-1"], "--seed"),
        (["train", "--seed", "0,0"], "--seed"),
    ])
    def test_bad_override_exit_2_names_flag(self, argv, flag, tiny_yaml, tmp_path, capsys):
        out = tmp_path / "out"
        assert main([*argv, "--config", str(tiny_yaml), "--out", str(out)]) == 2
        assert flag in capsys.readouterr().err
        assert not out.exists()  # rejected before anything ran

    @pytest.mark.parametrize("argv", [
        ["noise-test", "--cmd", "2"],
        ["noise-test", "--cmd", "-1.5"],
        ["noise-test", "--cmd", "nan"],
        ["noise-test", "--cmd", "inf"],
        ["noise-test", "--cmd", "x"],
        ["robustness", "--checkpoint", "ckpt.json", "--eps-r", "0.3"],
        ["robustness", "--checkpoint", "ckpt.json", "--delta-r", "0.3"],
        ["robustness", "--checkpoint", "ckpt.json", "--delta-r", "0.3", "--eps-r", "1.5"],
        ["robustness", "--checkpoint", "ckpt.json", "--delta-r", "0.3", "--eps-r", "-0.1"],
        ["robustness", "--checkpoint", "ckpt.json", "--delta-r", "0.3", "--eps-r", "inf"],
        ["robustness", "--checkpoint", "ckpt.json", "--eps-r", "0.3", "--delta-r", "-5"],
        ["robustness", "--checkpoint", "ckpt.json", "--eps-r", "0.3", "--delta-r", "nan"],
        ["robustness", "--checkpoint", "ckpt.json", "--eps-r", "0.3", "--delta-r", "inf"],
        ["robustness", "--checkpoint", "ckpt.json", "--eps-r", "0.3", "--delta-r", "x"],
        # one episode per cell: the grid takes no episode count
        ["robustness", "--checkpoint", "ckpt.json", "--episodes", "3"],
        # once accepted and run in sequence
        ["train", "--workers", "0"],
        ["train", "--workers", "-3"],
        ["train", "--workers", "x"],
    ])
    def test_bad_flag_exit_2_one_line(self, argv, tiny_yaml, tmp_path, capsys):
        # argparse rejects the flag before any command runs: a command outside
        # [-1, 1], a disturbance probability outside [0, 1], a negative
        # disturbance magnitude, a value that is not a finite number, one
        # disturbance flag without the other, or a worker count below 1
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exit_:
            main([*argv, "--config", str(tiny_yaml), "--out", str(out)])
        assert exit_.value.code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "error: " in err
        assert argv[-2] in err  # the flag at fault
        assert not out.exists()

    def test_disturbance_flags_checked_before_the_checkpoint_loads(self, tiny_yaml, tmp_path,
                                                                   capsys):
        # a NaN probability never fires, so this once wrote an undisturbed
        # run as a disturbed cell and exited 0
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exit_:
            main(["robustness", "--config", str(tiny_yaml), "--checkpoint", "ckpt.json",
                  "--eps-r", "nan", "--delta-r", "-5", "--out", str(out)])
        assert exit_.value.code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "--eps-r: expected a finite number in [0, 1], got 'nan'" in err
        assert not out.exists()

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

    @pytest.mark.parametrize("text, problem", [
        ("seed,episode,reward\n0,0,-1.0\n",
         "unexpected metrics header ['seed', 'episode', 'reward']"),
        (",".join(cli.METRICS_HEADER) + "\n0,0,-1.0,x,0,1.0,90.0,0.0\n",
         "line 2: protect_times: invalid literal for int() with base 10: 'x'"),
        (",".join(cli.METRICS_HEADER) + "\n0,0,-1.0,3,0,1.0,90.0,0.0\n0,1,-1.0\n",
         "line 3: protect_times: invalid literal for int() with base 10: ''"),
        # these rows once read as clean, and a negative mean of protect times
        # then made protect_decline_pct
        (",".join(cli.METRICS_HEADER) + "\n0,0,nan,-3,-1,inf,100.0,5.0\n",
         "line 2: reward: expected finite, got 'nan'"),
        (",".join(cli.METRICS_HEADER) + "\n0,0,-1.0,3,0,1.0,90.0,0.0\n0,1,-1.0,-3,0,1.0,90.0,0.0\n",
         "line 3: protect_times: expected >= 0, got '-3'"),
        (",".join(cli.METRICS_HEADER) + "\n-2,-1,-1.0,3,0,1.0,90.0,0.0\n",
         "line 2: seed: expected >= 0, got '-2'"),
        (",".join(cli.METRICS_HEADER) + "\n0,-1,-1.0,3,0,1.0,90.0,0.0\n",
         "line 2: episode: expected >= 0, got '-1'"),
        (",".join(cli.METRICS_HEADER) + "\n0,0,-1.0,3,-1,1.0,90.0,0.0\n",
         "line 2: overspeed: expected >= 0, got '-1'"),
        (",".join(cli.METRICS_HEADER) + "\n0,0,-1.0,3,0,1.0,90.0,-inf\n",
         "line 2: deviation: expected finite, got '-inf'"),
        # csv.DictReader files the cells past the header under the key None
        (",".join(cli.METRICS_HEADER) + "\n0,0,1.0,2,0,3.0,100.0,5.0,EXTRA,MORE\n",
         "line 2: 2 more cells than the header"),
        (",".join(cli.METRICS_HEADER) + "\n", "no metrics rows"),
    ], ids=["header", "non-numeric", "short-row", "non-finite", "negative-count", "negative-seed",
            "negative-episode", "negative-overspeed", "infinite-deviation", "long-row", "no-rows"])
    def test_bad_baseline_exit_2_one_line(self, tiny_yaml, tmp_path, monkeypatch, capsys, text,
                                          problem):
        # a wrong header once raised a traceback, and a header alone wrote a
        # NaN mean into summary.json; the baseline is read before any episode
        # runs, so the checkpoint, which does not exist, is never opened
        baseline = tmp_path / "base.csv"
        baseline.write_text(text)
        monkeypatch.setattr(cli, "execute", lambda *args, **kwargs: pytest.fail("episode ran"))
        out = tmp_path / "e"
        code = main(["execute", "--config", str(tiny_yaml), "--checkpoint",
                     str(tmp_path / "nope.json"), "--compare-with", str(baseline),
                     "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == f"error: {baseline}: {problem}\n"
        assert not out.exists()

    def test_non_utf8_baseline_exit_2_one_line(self, tiny_yaml, tmp_path, capsys):
        # a byte that is not UTF-8 once ended in a decoder traceback with exit 1
        baseline = tmp_path / "base.csv"
        baseline.write_bytes(b"seed,episode\n\xff\n")
        out = tmp_path / "e"
        code = main(["execute", "--config", str(tiny_yaml), "--checkpoint",
                     str(tmp_path / "nope.json"), "--compare-with", str(baseline),
                     "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {baseline}: 'utf-8' codec can't decode byte 0xff in position 13: "
            "invalid start byte\n")
        assert not out.exists()

    @pytest.mark.parametrize("command, metrics", [("execute", "execution_metrics.csv"),
                                                  ("transfer", "transfer_metrics.csv")])
    def test_episodes_flag_sets_execution_episodes(self, tiny_yaml, tmp_path, command, metrics):
        # the file asks for 2 execution episodes; the flag used to be ignored
        train_out = tmp_path / "t"
        assert main(["train", "--config", str(tiny_yaml), "--seed", "0",
                     "--out", str(train_out)]) == 0
        out = tmp_path / "e"
        assert main([command, "--config", str(tiny_yaml), "--seed", "0,1", "--episodes", "1",
                     "--checkpoint", str(train_out / "checkpoint_ssa_ddpg_seed0.json"),
                     "--out", str(out)]) == 0
        rows = read_metrics_csv(out / metrics)
        # transfer runs the first seed only
        assert [r["seed"] for r in rows] == ([0, 1] if command == "execute" else [0])

    @pytest.mark.parametrize("argv", [
        ["validate", "--config", "{dir}"],
        ["execute", "--config", "{yaml}", "--checkpoint", "{dir}", "--out", "{out}"],
        ["execute", "--config", "{yaml}", "--checkpoint", "{dir}/nope.json",
         "--compare-with", "{dir}", "--out", "{out}"],
    ], ids=["validate-config", "execute-checkpoint", "execute-compare-with"])
    def test_directory_for_a_file_exit_2_one_line(self, argv, tiny_yaml, tmp_path, capsys):
        # a directory where a file belongs once ended in an IsADirectoryError traceback
        paths = {"dir": tmp_path, "yaml": tiny_yaml, "out": tmp_path / "out"}
        assert main([arg.format(**paths) for arg in argv]) == 2
        assert capsys.readouterr().err == f"error: [Errno 21] Is a directory: '{tmp_path}'\n"

    @pytest.mark.parametrize("command", ["execute", "transfer", "robustness"])
    def test_directory_checkpoint_leaves_no_out_dir(self, command, tiny_yaml, tmp_path, capsys):
        # the checkpoint is read before --out is made; a bad one once left an
        # empty output directory behind
        out = tmp_path / "out"
        assert main([command, "--config", str(tiny_yaml), "--checkpoint", str(tmp_path),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: [Errno 21] Is a directory: '{tmp_path}'\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["execute", "transfer", "robustness"])
    def test_wider_state_checkpoint_exit_2_one_line(self, command, tiny_yaml, tmp_path, capsys):
        # nets reading a 4-wide state once loaded, and then each command
        # made --out and failed at the first forward pass with a traceback
        cfg = load_config(tiny_yaml)
        rng = np.random.default_rng(5)
        agent = AGENT_KINDS["ddpg"](cfg.agent, rng)
        ckpt = tmp_path / "ckpt.json"
        save_checkpoint(ckpt, agent)
        blob = json.loads(ckpt.read_text())
        blob["nets"].update(wider_state_nets(agent, rng))
        ckpt.write_text(json.dumps(blob))
        out = tmp_path / "out"
        assert main([command, "--config", str(tiny_yaml), "--checkpoint", str(ckpt),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: checkpoint {ckpt}: nets.actor: expected (layer sizes, ")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_boolean_layer_size_checkpoint_exit_2_one_line(self, tiny_yaml, tmp_path, capsys):
        # isinstance(True, int) holds: a true width once passed the size
        # check and crashed execute in Mlp._split with a traceback
        cfg = load_config(tiny_yaml)
        agent = AGENT_KINDS["ddpg"](dataclasses.replace(cfg.agent, hidden_sizes=(1,)),
                                    np.random.default_rng(5))
        ckpt = tmp_path / "ckpt.json"
        save_checkpoint(ckpt, agent)
        blob = json.loads(ckpt.read_text())
        for net in blob["nets"].values():
            net["layer_sizes"][1] = True
        ckpt.write_text(json.dumps(blob))
        out = tmp_path / "out"
        assert main(["execute", "--config", str(tiny_yaml), "--checkpoint", str(ckpt),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == (f"error: checkpoint {ckpt}: nets.actor: layer sizes "
                                           f"must be positive integers, got [3, True, 1]\n")
        assert not out.exists()

    @pytest.mark.parametrize("variant", ["ssa_ddpg", "ssa_sac", "shield_ddpg"])
    def test_one_agent_serves_every_seed(self, variant, tiny_yaml, tmp_path):
        # execute builds the checkpoint's agent once; each seed's rows are the
        # bytes a fresh build per seed writes, with or without the additional
        # actor.  Both policies are biased to full traction, so the shield
        # intervenes and the tree draws its samples from agent.rng.
        cfg = load_config(tiny_yaml)
        cfg = dataclasses.replace(cfg, run=dataclasses.replace(cfg.run, agent=variant))
        agent = AGENT_KINDS[trainer.VARIANTS[variant][0]](cfg.agent, np.random.default_rng(5))
        for name in (next(iter(agent.NETS)), "additional"):
            getattr(agent, name).biases[-1][0] = 3.0
        ckpt = tmp_path / "ckpt.json"
        save_checkpoint(ckpt, agent)
        for use_additional in (False, True):
            out = tmp_path / f"e{use_additional}"
            actor = "--use-additional" if use_additional else "--no-use-additional"
            assert main(["execute", "--config", str(tiny_yaml), "--seed", "0,1",
                         "--agent", variant.replace("_", "-"), "--checkpoint", str(ckpt), actor,
                         "--out", str(out)]) == 0
            rows = []
            for seed in (0, 1):
                agent = load_checkpoint(ckpt, cfg.agent, np.random.default_rng(seed))
                rows += [(seed, m) for m in trainer.execute(agent, cfg, use_additional, seed)]
            assert all(m.protect_times > 0 for _, m in rows)
            write_metrics_csv(tmp_path / "fresh.csv", rows)
            assert (out / "execution_metrics.csv").read_bytes() == (
                tmp_path / "fresh.csv").read_bytes()

    def test_identical_runs_write_identical_artifacts(self, tiny_yaml, tmp_path):
        # the action-selection time is a wall-clock figure: it goes to
        # timing.json, keyed as the summary is, so the summary is seeded
        train_out = tmp_path / "t"
        assert main(["train", "--config", str(tiny_yaml), "--seed", "0",
                     "--out", str(train_out)]) == 0
        ckpt = train_out / "checkpoint_ssa_ddpg_seed0.json"
        runs = {"noise-test": (["--cmd", "1.0"], "noise_test_metrics.csv"),
                "execute": (["--episodes", "1", "--checkpoint", str(ckpt)],
                            "execution_metrics.csv")}
        for command, (argv, metrics) in runs.items():
            for i in (0, 1):
                assert main([command, "--config", str(tiny_yaml), *argv,
                             "--out", str(tmp_path / f"{command}{i}")]) == 0
            for name in ("summary.json", metrics):
                assert (tmp_path / f"{command}0" / name).read_bytes() == (
                    tmp_path / f"{command}1" / name).read_bytes()
        probe = json.loads((tmp_path / "noise-test0" / "timing.json").read_text())
        assert set(probe) == {"command", "mean_action_select_ms"}
        summary = json.loads((tmp_path / "execute0" / "summary.json").read_text())
        timing = json.loads((tmp_path / "execute0" / "timing.json").read_text())
        assert set(timing) == {"command", "per_seed"}
        assert timing["per_seed"].keys() == summary["per_seed"].keys() == {"0", "1"}
        for seed, entry in timing["per_seed"].items():
            assert set(entry) == {"mean_action_select_ms"} and entry["mean_action_select_ms"] > 0
            assert "mean_action_select_ms" not in summary["per_seed"][seed]

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

    def test_string_converged_flag_exit_2_one_line(self, tiny_yaml, tmp_path, capsys):
        train_out = tmp_path / "t"
        assert main(["train", "--config", str(tiny_yaml), "--seed", "0",
                     "--out", str(train_out)]) == 0
        ckpt = train_out / "checkpoint_ssa_ddpg_seed0.json"
        blob = json.loads(ckpt.read_text())
        blob["additional_converged"] = "false"
        ckpt.write_text(json.dumps(blob))
        capsys.readouterr()
        code = main(["execute", "--config", str(tiny_yaml), "--checkpoint", str(ckpt),
                     "--out", str(tmp_path / "x")])
        assert code == 2
        err = capsys.readouterr().err
        assert err == (f"error: checkpoint {ckpt}: additional_converged: "
                       "expected true or false, got 'false'\n")

    def test_non_finite_checkpoint_exit_2_one_line(self, tiny_yaml, tmp_path, capsys):
        train_out = tmp_path / "t"
        assert main(["train", "--config", str(tiny_yaml), "--seed", "0",
                     "--out", str(train_out)]) == 0
        ckpt = train_out / "checkpoint_ssa_ddpg_seed0.json"
        blob = json.loads(ckpt.read_text())
        blob["nets"]["actor"]["weights"][1][0][0] = float("nan")
        ckpt.write_text(json.dumps(blob))
        capsys.readouterr()
        code = main(["execute", "--config", str(tiny_yaml), "--checkpoint", str(ckpt),
                     "--out", str(tmp_path / "x")])
        assert code == 2
        err = capsys.readouterr().err
        assert err == (f"error: checkpoint {ckpt}: nets.actor: weights[1]: "
                       "expected finite float32 values, got nan\n")

    def test_non_number_checkpoint_exit_2_one_line(self, tiny_yaml, tmp_path, capsys):
        # float() once read a string or a bool as a weight, and an integer past
        # the float range ended in a traceback
        train_out = tmp_path / "t"
        assert main(["train", "--config", str(tiny_yaml), "--seed", "0",
                     "--out", str(train_out)]) == 0
        ckpt = train_out / "checkpoint_ssa_ddpg_seed0.json"
        stored = json.loads(ckpt.read_text())
        for field, value, problem in [
            ("weights", "0.5", "weights[0]: expected numbers, got '0.5'"),
            ("biases", True, "biases[0]: expected numbers, got True"),
            ("biases", None, "biases[0]: expected numbers, got None"),
            ("weights", 10**400, "int too large to convert to float"),
        ]:
            blob = copy.deepcopy(stored)
            entries = blob["nets"]["actor"][field][0]
            (entries[0] if field == "weights" else entries)[0] = value
            bad = tmp_path / "bad.json"
            bad.write_text(json.dumps(blob))
            capsys.readouterr()
            out = tmp_path / "x"
            code = main(["execute", "--config", str(tiny_yaml), "--checkpoint", str(bad),
                         "--out", str(out)])
            assert code == 2
            assert capsys.readouterr().err == f"error: checkpoint {bad}: nets.actor: {problem}\n"
            assert not out.exists()

    def test_noise_test_command(self, tiny_yaml, tmp_path):
        out = tmp_path / "nt"
        assert main(["noise-test", "--config", str(tiny_yaml), "--seed", "0",
                     "--cmd", "1.0", "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["mean_protect_times"] > 0

    def test_noise_test_runs_probe_once_for_all_seeds(self, tiny_yaml, tmp_path, monkeypatch):
        # the probe is deterministic, so one run stands for every seed: it is
        # written once, labelled with the first seed, and the summary lists them
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return noise_test(*args, **kwargs)

        monkeypatch.setattr(cli, "noise_test", counted)
        out = tmp_path / "nt"
        assert main(["noise-test", "--config", str(tiny_yaml), "--seed", "2,0,1",
                     "--cmd", "1.0", "--out", str(out)]) == 0
        assert len(calls) == 1
        once = [(2, m) for m in noise_test(load_config(tiny_yaml), 1.0, episodes=1)]
        write_metrics_csv(tmp_path / "once.csv", once)
        assert (out / "noise_test_metrics.csv").read_bytes() == (
            tmp_path / "once.csv").read_bytes()
        summary = json.loads((out / "summary.json").read_text())
        assert summary == {"command": "noise_test", "constant_cmd": 1.0, "seeds": [2, 0, 1],
                           **cli._exec_summary([m for _, m in once])[0]}
        assert summary["episodes"] == 1

    @pytest.mark.parametrize("workers, pool", [(1, []), (2, [2]), (3, [3]), (64, [3])])
    def test_train_pool_has_at_most_one_process_per_seed(self, tiny_yaml, tmp_path, monkeypatch,
                                                         workers, pool):
        # a forked pool starts max_workers processes at its first submit; the
        # stand-in records the size it is given and runs each job inline
        import concurrent.futures

        sizes = []

        class InlinePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = concurrent.futures.Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(cli, "_train_one_seed", lambda cfg, seed, out: {"seed": seed})
        out = tmp_path / "out"
        assert main(["train", "--config", str(tiny_yaml), "--seed", "0,1,2",
                     "--workers", str(workers), "--out", str(out)]) == 0
        assert sizes == pool
        runs = json.loads((out / "summary.json").read_text())["runs"]
        assert runs == [{"seed": 0}, {"seed": 1}, {"seed": 2}]

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("error, label", [
        (UnrecoverableStateError("no safe command"), "shield abort"),
        (FloatingPointError("network produced non-finite output"), "numerical error"),
    ])
    def test_failed_seed_does_not_lose_the_others(self, tiny_yaml, tmp_path, monkeypatch, capsys,
                                                  workers, error, label):
        def train_or_fail(cfg, seed):
            if seed == 1:
                raise error
            return trainer.train(cfg, seed)

        monkeypatch.setattr(cli, "train", train_or_fail)  # forked workers inherit it
        out = tmp_path / "out"
        code = main(["train", "--config", str(tiny_yaml), "--seed", "0,1,2",
                     "--workers", str(workers), "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == f"seed 1: {label}: {error}\n"
        for seed in (0, 2):
            assert (out / f"checkpoint_ssa_ddpg_seed{seed}.json").exists()
            assert (out / f"metrics_ssa_ddpg_seed{seed}.csv").exists()
        assert not (out / "metrics_ssa_ddpg_seed1.csv").exists()
        runs = json.loads((out / "summary.json").read_text())["runs"]
        assert [r["seed"] for r in runs] == [0, 1, 2]
        assert runs[1] == {"seed": 1, "error": f"{label}: {error}"}
        assert all("error" not in runs[i] and runs[i]["episodes"] == 2 for i in (0, 2))

    def test_numerical_error_exit_1_one_line(self, tiny_yaml, tmp_path, monkeypatch, capsys):
        def diverged(self, x):
            raise FloatingPointError("network produced non-finite output")

        monkeypatch.setattr(Mlp, "forward", diverged)
        code = main(["train", "--config", str(tiny_yaml), "--seed", "0",
                     "--out", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert err == "seed 0: numerical error: network produced non-finite output\n"

    def test_numerical_error_in_additional_fit_exit_1_one_line(self, tiny_yaml, tmp_path,
                                                              monkeypatch, capsys):
        # the fit runs inside train, at each episode's end; its error reaches the CLI
        # like any other
        def diverged(*args):
            raise FloatingPointError("network produced non-finite output")

        monkeypatch.setattr(trainer, "update_additional_actor", diverged)
        code = main(["train", "--config", str(tiny_yaml), "--seed", "0",
                     "--out", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert err == "seed 0: numerical error: network produced non-finite output\n"

    def test_out_of_memory_exit_1_one_line_per_seed(self, tiny_yaml, tmp_path, capsys):
        # hidden sizes are not bounded at load, so this file validates; each
        # net's weights ask for 256 PiB, beyond any 64-bit address space, and
        # each seed once ended train in a numpy._ArrayMemoryError traceback
        blob = yaml.safe_load(tiny_yaml.read_text())
        blob["agent"]["hidden_sizes"] = [268435456, 268435456]
        path = dump(tmp_path, blob, "huge.yaml")
        assert main(["validate", "--config", str(path)]) == 0
        capsys.readouterr()
        out = tmp_path / "out"
        assert main(["train", "--config", str(path), "--out", str(out)]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 2
        for seed, line in zip((0, 1), lines):
            assert line.startswith(f"seed {seed}: out of memory: Unable to allocate ")
        runs = json.loads((out / "summary.json").read_text())["runs"]
        assert [r["seed"] for r in runs] == [0, 1]
        assert all(r["error"].startswith("out of memory: ") for r in runs)

    def test_unaddressable_width_exit_1_one_line_per_seed(self, tiny_yaml, tmp_path, capsys):
        # a width whose weights numpy cannot even address once raised its
        # ValueError out of train: a traceback, no summary, no later seeds
        blob = yaml.safe_load(tiny_yaml.read_text())
        blob["agent"]["hidden_sizes"] = [10**20]
        path = dump(tmp_path, blob, "huge.yaml")
        assert main(["validate", "--config", str(path)]) == 0
        capsys.readouterr()
        out = tmp_path / "out"
        assert main(["train", "--config", str(path), "--out", str(out)]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 2
        for seed, line in zip((0, 1), lines):
            assert line.startswith(f"seed {seed}: out of memory: ")
            assert "[3, 100000000000000000000, 1]" in line
        runs = json.loads((out / "summary.json").read_text())["runs"]
        assert [r["seed"] for r in runs] == [0, 1]
        assert all(r["error"].startswith("out of memory: ") for r in runs)

    @pytest.mark.parametrize("command", ["execute", "transfer", "robustness"])
    def test_unaddressable_width_checkpoint_exit_1_one_line(self, command, tiny_yaml, tmp_path,
                                                            capsys):
        cfg = load_config(tiny_yaml)
        agent = AGENT_KINDS["ddpg"](dataclasses.replace(cfg.agent, hidden_sizes=(1,)),
                                    np.random.default_rng(5))
        ckpt = tmp_path / "ckpt.json"
        save_checkpoint(ckpt, agent)
        blob = json.loads(ckpt.read_text())
        blob["nets"]["actor"]["layer_sizes"] = [3, 10**20, 1]
        ckpt.write_text(json.dumps(blob))
        out = tmp_path / "out"
        assert main([command, "--config", str(tiny_yaml), "--checkpoint", str(ckpt),
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("out of memory: ")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_huge_replay_capacity_trains(self, tiny_yaml, tmp_path, capsys):
        # the replay ring grows with the rows a run pushes, so a capacity no
        # machine could reserve costs only what the run fills
        blob = yaml.safe_load(tiny_yaml.read_text())
        blob["agent"]["replay_capacity"] = 10_000_000_000_000
        path = dump(tmp_path, blob, "huge.yaml")
        out = tmp_path / "out"
        assert main(["train", "--config", str(path), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        runs = json.loads((out / "summary.json").read_text())["runs"]
        assert [r["seed"] for r in runs] == [0, 1]
        assert not any("error" in r for r in runs)

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
