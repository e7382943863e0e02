import ast
import dataclasses
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import atoshield
from atoshield import trainer
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
        states = [OperationState(loc=750.0, vel=40.0, time=55.0), OperationState(loc=3.0, vel=0.1),
                  OperationState(loc=1234.567, vel=77.7, time=101.3)]
        rows = normalize_states(np.array([[s.loc, s.vel, s.time] for s in states]), track)
        assert rows.shape == (3, 3)
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


class TestAdditionalFitWorker:
    """The additional actor's fit runs on one worker thread, joined inside ``train``."""

    def test_fit_runs_off_the_main_thread_and_the_worker_is_joined(self, monkeypatch):
        cfg = scenario(max_episodes=3, agent="plain_ddpg")
        threads = []
        update = trainer.update_additional_actor
        monkeypatch.setattr(trainer, "update_additional_actor",
                            lambda *args: threads.append(threading.current_thread()) or update(*args))
        before = threading.active_count()
        train(cfg, seed=0)
        assert threading.active_count() == before
        assert len(threads) == 3 * cfg.agent.additional_updates_per_episode
        assert threading.main_thread() not in threads

    @pytest.mark.parametrize("episode", [0, 2])
    def test_fit_error_reaches_the_caller_unchanged(self, monkeypatch, episode):
        # episode 0's fit is joined after episode 1's rollout; episode 2's, the last,
        # just before train returns
        cfg = scenario(max_episodes=3, agent="plain_ddpg")
        per_episode = cfg.agent.additional_updates_per_episode
        error = FloatingPointError("network produced non-finite output")
        calls = []
        update = trainer.update_additional_actor

        def failing(*args):
            calls.append(None)
            if len(calls) == episode * per_episode + 1:
                raise error
            return update(*args)

        monkeypatch.setattr(trainer, "update_additional_actor", failing)
        before = threading.active_count()
        with pytest.raises(FloatingPointError) as err:
            train(cfg, seed=0)
        assert err.value is error
        assert threading.active_count() == before
        assert len(calls) == episode * per_episode + 1  # the failed job stops at its failing step


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


# Each pinned training runs in a child interpreter with one BLAS thread, set
# before numpy loads: the additional actor's large imitation matmuls round
# differently with the BLAS thread count, so the pins must not depend on the
# host's default.  The child prints the repr of a dict of plain values.
_PINNED_RUN = """
import dataclasses, hashlib, sys
import numpy as np
from atoshield.config import default_scenario_path, load_config
from atoshield.trainer import train

cfg = load_config(default_scenario_path())
# batch 16 so updates run from the first steps; capacity 150 so the replay ring wraps
cfg = dataclasses.replace(
    cfg,
    run=dataclasses.replace(cfg.run, max_episodes=3, agent=sys.argv[1]),
    agent=dataclasses.replace(cfg.agent, batch_size=16, replay_capacity=150),
)
result = train(cfg, seed=4)
print(repr({
    "rows": [tuple(v for k, v in dataclasses.asdict(m).items() if k != "action_select_mean_s")
             for m in result.metrics],
    "weights": {
        name: hashlib.sha256(np.concatenate([p.ravel() for p in net.parameters()]).tobytes()).hexdigest()[:16]
        for name, net in result.agent.named_nets().items()
    },
    "wraps": sum(m.run_time_s for m in result.metrics) / cfg.track.dt > 2 * cfg.agent.replay_capacity,
}))
"""

# Recorded with one BLAS thread (numpy 2.4, OpenBLAS 0.3.31) before the
# additional actor's fit moved to a worker thread; neither that overlap nor an
# optimisation of the learner's data path may change any value.
PINNED = {
    "shield_sac": (
        [(0, -52094.72676276551, 0, 0, 44.73332885263479, -10.759914463834338, 257.0, 147.0, True),
         (1, -78821.20532398463, 0, 0, 36.38338969531823, -6.550451318180885, 330.0, 220.0, False),
         (2, -79518.03649036576, 0, 0, 17.895792487513987, -4.843670626662472, 330.0, 220.0, False)],
        {"policy": "d22f2ccc60efcd00", "value": "c862f0dc295dfe08", "value_target": "acb93f52625042d5",
         "softq": "9b2c6c6fef304d2d", "additional": "4c90a1e345e1acd6"},
    ),
    "ssa_ddpg": (
        [(0, -38776.597663390974, 3, 0, 33.52106287388897, -4.23218086219391, 198.0, 88.0, True),
         (1, -36148.33644896005, 9, 0, 39.478613774868236, -4.336519349542367, 180.0, 70.0, True),
         (2, -29228.34203505135, 4, 0, 33.0306817609962, -1.8177059190803722, 164.0, 54.0, True)],
        {"actor": "9c0d37cf464598db", "critic": "182f68c222748f67", "actor_target": "31fc3d518e3321e3",
         "critic_target": "71ad36e1da8d7854", "additional": "377c4580509601e3"},
    ),
}


def _run_with_one_blas_thread(script: str, *args: str):
    """Run ``script`` in a child interpreter with one BLAS thread; return the
    literal it prints."""
    src = str(Path(atoshield.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True, check=True, timeout=300)
    return ast.literal_eval(proc.stdout)


@pytest.mark.parametrize("variant", sorted(PINNED))
def test_seeded_training_outputs_pinned(variant):
    out = _run_with_one_blas_thread(_PINNED_RUN, variant)
    assert out["wraps"]
    assert (out["rows"], out["weights"]) == PINNED[variant]


# Three trainings on threads of their own (each with its fit worker: more
# threads than cores), switching threads every 10 us; a write to any net
# outside the fit's ownership rule would show as a changed weight.
_STRESS_RUN = """
import dataclasses, sys, threading
from atoshield.config import default_scenario_path, load_config
from atoshield.trainer import train

cfg = load_config(default_scenario_path())
cfg = dataclasses.replace(
    cfg,
    run=dataclasses.replace(cfg.run, max_episodes=3, agent="plain_ddpg"),
    agent=dataclasses.replace(cfg.agent, batch_size=16, hidden_sizes=(16, 16)),
)

def weights():
    return {name: net.flat.tobytes() for name, net in train(cfg, seed=2).agent.named_nets().items()}

alone = weights()
results = []
sys.setswitchinterval(1e-5)
threads = [threading.Thread(target=lambda: results.append(weights())) for _ in range(3)]
for t in threads:
    t.start()
for t in threads:
    t.join(timeout=120)
print(repr({"alive": sum(t.is_alive() for t in threads), "same": [r == alone for r in results]}))
"""


def test_concurrent_trainings_under_fast_thread_switching_match_one_alone():
    assert _run_with_one_blas_thread(_STRESS_RUN) == {"alive": 0, "same": [True] * 3}
