import dataclasses

import numpy as np
import pytest

from atoshield.config import default_scenario_path, load_config
from atoshield.drl.agents import DdpgAgent
from atoshield.dynamics import OperationState
from atoshield.trainer import (
    RunConfig,
    TrainEnv,
    execute,
    noise_test,
    normalize_state,
    normalize_states,
    pcc,
    robustness_run,
    train,
    variant_base,
    variant_correction,
)

from conftest import make_model, make_track
from oracles import pcc_brute


def scenario(**run_overrides):
    cfg = load_config(default_scenario_path())
    return dataclasses.replace(cfg, run=dataclasses.replace(cfg.run, **run_overrides))


@pytest.fixture(scope="module")
def short_ssa_result():
    return train(scenario(max_episodes=12, agent="ssa_ddpg"), seed=0)


class TestVariants:
    def test_base_and_correction_split(self):
        assert variant_base("ssa_sac") == "sac"
        assert variant_base("plain_ddpg") == "ddpg"
        assert variant_correction("ssa_ddpg") == "tree"
        assert variant_correction("shield_sac") == "chooser"
        assert variant_correction("plain_sac") == "none"

    def test_episode_defaults_follow_buffer_note(self):
        run = RunConfig(max_episodes=None)
        assert run.resolved_episodes("ssa_ddpg") == 400
        assert run.resolved_episodes("ssa_sac") == 500
        assert RunConfig(max_episodes=7).resolved_episodes("ssa_sac") == 7


class TestTrainEnv:
    def test_budget_truncates_without_arrival(self):
        env = TrainEnv(make_model(), make_track(), step_budget=5)
        env.reset()
        out = None
        for _ in range(5):
            out = env.step(0.0)  # coasting from rest goes nowhere
        assert out.done and not out.arrived

    def test_normalization_ranges(self):
        track = make_track()
        vec = normalize_state(env_state := type("S", (), {"loc": 750.0, "vel": 40.0, "time": 55.0})(), track)
        assert vec[0] == pytest.approx(0.5)
        assert vec[1] == pytest.approx(0.5)
        assert vec[2] == pytest.approx(0.5)


    def test_batch_normalization_rows_match_single(self):
        track = make_track()
        states = [OperationState(loc=750.0, vel=40.0, time=55.0), OperationState(loc=3.0, vel=0.1)]
        rows = normalize_states(states, track)
        assert rows.shape == (2, 3)
        for row, state in zip(rows, states):
            assert row.tolist() == normalize_state(state, track).tolist()


class TestTrain:
    def test_budget_law_bounds_transitions(self):
        cfg = scenario(max_episodes=1, step_budget=10, agent="plain_ddpg")
        result = train(cfg, seed=0)
        assert result.metrics[0].run_time_s <= 10.0 * cfg.track.dt

    def test_shielded_training_never_overspeeds(self, short_ssa_result):
        assert all(m.overspeed_steps == 0 for m in short_ssa_result.metrics)

    def test_plain_variant_can_overspeed_and_is_recorded(self):
        # tight limit, eager throttle: the unshielded baseline must break it
        cfg = scenario(max_episodes=3, agent="plain_ddpg")
        track = make_track(limits=((0.0, 1500.0, 15.0),), scheduled_time=110.0)
        cfg = dataclasses.replace(cfg, track=track)
        result = train(cfg, seed=3)
        assert sum(m.overspeed_steps for m in result.metrics) > 0
        assert all(m.protect_times == 0 for m in result.metrics)

    def test_elite_gate_only_admits_terminal_returns_above_minimum(self, short_ssa_result):
        elite = short_ssa_result.elite
        returns = [t.total_return for t in elite]
        assert returns == sorted(returns, reverse=True)
        episode_returns = [m.total_reward for m in short_ssa_result.metrics]
        # every stored return belongs to a really finished episode
        for r in returns:
            assert any(abs(r - er) < 1e-9 for er in episode_returns)

    def test_seeded_determinism(self):
        cfg = scenario(max_episodes=4)
        a = train(cfg, seed=11)
        b = train(cfg, seed=11)
        assert a.rewards == b.rewards
        assert [m.protect_times for m in a.metrics] == [m.protect_times for m in b.metrics]

    def test_learner_updates_every_t_up_steps_of_each_episode(self, monkeypatch):
        # with batch_size 1 the replay is never too short, so each episode's
        # t_up-th, 2*t_up-th, ... step updates, its last step included
        cfg = scenario(max_episodes=3, agent="plain_ddpg")
        cfg = dataclasses.replace(cfg, agent=dataclasses.replace(cfg.agent, batch_size=1))
        calls = []
        update = DdpgAgent.update
        monkeypatch.setattr(DdpgAgent, "update",
                            lambda agent, batch: calls.append(batch) or update(agent, batch))
        result = train(cfg, seed=0)
        steps = [round(m.run_time_s / cfg.track.dt) for m in result.metrics]
        assert any(n % cfg.run.t_up == 0 for n in steps)
        assert len(calls) == sum(n // cfg.run.t_up for n in steps)

    def test_protect_times_counts_every_intervention(self, short_ssa_result):
        assert all(m.protect_times >= 0 for m in short_ssa_result.metrics)
        assert any(m.protect_times > 0 for m in short_ssa_result.metrics)


class TestExecute:
    def test_same_seed_same_checkpoint_identical(self, short_ssa_result):
        cfg = scenario(max_episodes=12)
        a = execute(short_ssa_result.agent, cfg, episodes=2, seed=5)
        b = execute(short_ssa_result.agent, cfg, episodes=2, seed=5)
        assert [m.total_reward for m in a] == [m.total_reward for m in b]
        assert [m.protect_times for m in a] == [m.protect_times for m in b]

    def test_shield_active_during_execution(self, short_ssa_result):
        cfg = scenario(max_episodes=12)
        metrics = execute(short_ssa_result.agent, cfg, episodes=3, seed=1)
        assert all(m.overspeed_steps == 0 for m in metrics)

    def test_additional_policy_path(self, short_ssa_result):
        cfg = scenario(max_episodes=12)
        metrics = execute(short_ssa_result.agent, cfg, use_additional=True, episodes=2, seed=2)
        assert all(m.overspeed_steps == 0 for m in metrics)


class TestNoiseTest:
    def test_full_traction_probe_arrives_with_many_protects(self):
        cfg = scenario()
        metrics = noise_test(cfg, 1.0, episodes=1, seed=0)
        assert metrics[0].arrived
        assert metrics[0].protect_times > 10

    def test_full_braking_probe_never_arrives(self):
        cfg = scenario()
        metrics = noise_test(cfg, -1.0, episodes=1, seed=0)
        assert not metrics[0].arrived
        assert metrics[0].overspeed_steps == 0

    def test_coasting_probe_never_arrives_on_flat(self):
        cfg = scenario()
        metrics = noise_test(cfg, 0.0, episodes=1, seed=0)
        assert not metrics[0].arrived
        assert metrics[0].protect_times == 0


class TestPcc:
    def test_identity(self):
        assert pcc([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == pytest.approx(1.0)

    def test_negation(self):
        assert pcc([1.0, 2.0, 3.0], [3.0, 2.0, 1.0]) == pytest.approx(-1.0)

    def test_four_point_against_brute_force(self):
        x = [1.0, 2.0, 3.0, 4.0]
        y = [1.0, 2.0, 3.0, 5.0]
        assert pcc(x, y) == pytest.approx(pcc_brute(x, y), abs=1e-12)

    def test_randomized_against_brute_force(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 40))
            x = rng.normal(0, 3, n)
            y = rng.normal(0, 3, n) + 0.5 * x
            assert pcc(x, y) == pytest.approx(pcc_brute(list(x), list(y)), abs=1e-12)

    def test_zero_variance_rejected(self):
        with pytest.raises(ValueError):
            pcc([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            pcc([1.0, 2.0], [1.0, 2.0, 3.0])

    def test_short_sequence_rejected(self):
        with pytest.raises(ValueError):
            pcc([1.0], [2.0])


class TestRobustness:
    def test_zero_disturbance_is_identity(self, short_ssa_result):
        cfg = scenario(max_episodes=12)
        metrics, triple = robustness_run(short_ssa_result.agent, cfg, 0.0, 0.3, seed=4)
        assert triple.speed == pytest.approx(1.0)
        assert triple.action == pytest.approx(1.0)
        assert triple.accel == pytest.approx(1.0)
        assert metrics.overspeed_steps == 0

    def test_disturbed_run_stays_shielded(self, short_ssa_result):
        cfg = scenario(max_episodes=12)
        metrics, triple = robustness_run(short_ssa_result.agent, cfg, 0.5, 0.5, seed=4)
        assert metrics.overspeed_steps == 0
        assert triple.speed is None or -1.0 <= triple.speed <= 1.0
