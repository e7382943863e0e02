import json
import tempfile
import tracemalloc
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atoshield.drl.agents import (
    LOG_STD_MAX,
    LOG_STD_MIN,
    STATE_DIM,
    AgentConfig,
    CheckpointError,
    DdpgAgent,
    SacAgent,
    additional_actor_converged,
    critic_target,
    gaussian_log_prob,
    load_checkpoint,
    regress,
    save_checkpoint,
    squashed_draw,
    squashed_sample,
    update_actor,
    update_additional_actor,
    update_critic,
    update_sac,
)
from atoshield.drl.buffers import EliteBuffer, Trajectory
from atoshield.drl.nets import Adam, Mlp
from atoshield.dynamics import ARRAYS, FLOATS, OperationState
from atoshield.search_tree import SearchConfig, search_safe_action
from atoshield.shield import SafetySpec, is_safe, safe_action_set
from atoshield.trainer import TrainEnv, normalize_states

from conftest import make_model, make_track, wider_state_nets

from oracles import layer_arrays, max_rel_error, numeric_gradient, relu_kink_margin

SMALL = AgentConfig(hidden_sizes=(8, 8), batch_size=8, replay_capacity=64,
                    actor_lr=1e-3, critic_lr=1e-3, sac_softq_lr=1e-3)


class BowlCritic:
    """Analytic stand-in: Q(s, a) = -(a - 0.5)^2, exact gradients."""

    def forward_cached(self, x):
        a = x[:, -1:]
        return -((a - 0.5) ** 2), x

    def backward(self, cache, grad_out, params=True):
        grad_in = np.zeros_like(cache)
        grad_in[:, -1:] = grad_out * (-2.0 * (cache[:, -1:] - 0.5))
        return grad_in


class ConstantCritic:
    def forward_cached(self, x):
        return np.full((x.shape[0], 1), 3.0), x

    def backward(self, cache, grad_out, params=True):
        return np.zeros_like(cache)


def random_batch(rng, rows=8):
    """(s, a, r, s2, d) as the replay buffer samples it, half terminal."""
    return (rng.normal(0, 1, (rows, 3)), rng.uniform(-1, 1, rows), rng.normal(0, 1, rows),
            rng.normal(0, 1, (rows, 3)), np.arange(rows) % 2.0)


class TestCriticTarget:
    def test_terminal_cuts_bootstrap(self):
        y = critic_target(np.array([5.0]), np.array([123.0]), np.array([1.0]), 0.99)
        assert y[0] == 5.0

    def test_zero_gamma_cuts_bootstrap(self):
        y = critic_target(np.array([5.0]), np.array([123.0]), np.array([0.0]), 0.0)
        assert y[0] == 5.0

    def test_bootstrap_arithmetic(self):
        y = critic_target(np.array([1.0]), np.array([2.0]), np.array([0.0]), 0.99)
        assert y[0] == pytest.approx(2.98)

    def test_ddpg_form_uses_target_actor_and_critic(self, rng):
        # the critic regresses toward r + gamma (1 - d) Q'(s', mu'(s')), with
        # the target twins moved off the online nets so a mix-up shows
        agent = DdpgAgent(SMALL, rng)
        agent.actor_target.flat += 0.1
        agent.critic_target.flat -= 0.1
        s, a, r, s2, d = batch = random_batch(rng)
        q2 = agent.critic_target.forward(np.concatenate([s2, agent.actor_target.forward(s2)], axis=1))
        y = r + SMALL.gamma * (1.0 - d) * q2[:, 0]
        q = agent.critic.forward(np.concatenate([s, a[:, None]], axis=1))[:, 0]
        assert agent.update(batch)["critic_loss"] == float(np.mean((q - y) ** 2))

    def test_sac_form_uses_value_net(self, rng):
        # soft-Q regresses toward r + gamma (1 - d) V_target(s'), with the
        # value target moved off the online value net so a mix-up shows
        agent = SacAgent(SMALL, rng)
        agent.value_target.flat += 0.1
        s, a, r, s2, d = batch = random_batch(rng)
        y = r + SMALL.gamma * (1.0 - d) * agent.value_target.forward(s2)[:, 0]
        q = agent.softq.forward(np.concatenate([s, a[:, None]], axis=1))[:, 0]
        assert agent.update(batch)["softq_loss"] == float(np.mean((q - y) ** 2))


class TestUpdateCritic:
    def test_perfect_fit_gives_zero_loss_and_no_motion(self, rng):
        critic = Mlp([3, 4, 1], "identity", rng)
        adam = Adam(critic, lr=0.1)
        s = rng.normal(0, 1, (6, 2))
        a = rng.uniform(-1, 1, 6)
        y = critic.forward(np.concatenate([s, a[:, None]], axis=1))[:, 0]
        before = [p.copy() for p in layer_arrays(critic)]
        loss = update_critic(critic, adam, s, a, y)
        assert loss == 0.0
        for p, b in zip(layer_arrays(critic), before):
            assert np.allclose(p, b)

    def test_single_transition_hand_arithmetic(self):
        # one linear neuron: Q = w.x, x = (s, a) = (2, 1), w = (0.5, 0.25)
        critic = Mlp([2, 1], "identity", np.random.default_rng(0))
        critic.weights[0][...] = np.array([[0.5], [0.25]])
        critic.biases[0][...] = 0.0
        adam = Adam(critic, lr=0.0)  # freeze; only the loss matters
        loss = update_critic(critic, adam, np.array([[2.0]]), np.array([1.0]), np.array([2.0]))
        # Q = 1.25, y = 2, loss = 0.75^2
        assert loss == pytest.approx(0.5625)

    def test_loss_nonnegative(self, rng):
        critic = Mlp([3, 6, 1], "identity", rng)
        adam = Adam(critic, lr=1e-3)
        for _ in range(10):
            s = rng.normal(0, 1, (4, 2))
            a = rng.uniform(-1, 1, 4)
            y = rng.normal(0, 1, 4)
            assert update_critic(critic, adam, s, a, y) >= 0.0


class TestUpdateActor:
    def test_constant_critic_leaves_actor(self, rng):
        actor = Mlp([2, 4, 1], "tanh", rng)
        adam = Adam(actor, lr=0.1)
        before = [p.copy() for p in layer_arrays(actor)]
        update_actor(actor, adam, ConstantCritic(), rng.normal(0, 1, (5, 2)))
        for p, b in zip(layer_arrays(actor), before):
            assert np.allclose(p, b)

    def test_ascends_toward_bowl_optimum(self, rng):
        actor = Mlp([2, 8, 1], "tanh", rng)
        adam = Adam(actor, lr=5e-3)
        s = rng.normal(0, 1, (16, 2))
        for _ in range(400):
            update_actor(actor, adam, BowlCritic(), s)
        final = actor.forward(s)[:, 0]
        assert np.all(np.abs(final - 0.5) < 0.05)

    def test_objective_finite(self, rng):
        actor = Mlp([2, 4, 1], "tanh", rng)
        adam = Adam(actor, lr=1e-3)
        obj = update_actor(actor, adam, BowlCritic(), rng.normal(0, 1, (5, 2)))
        assert np.isfinite(obj)

    def test_actor_gradient_matches_finite_differences(self):
        # d mean(Q(s, mu(s)))/d theta through the analytic bowl critic
        for trial in range(10):
            rng = np.random.default_rng(300 + trial)
            actor = Mlp([2, 6, 1], "tanh", rng, final_init_scale=0.5)
            s = rng.normal(0, 1, (4, 2))
            if relu_kink_margin(actor, s) <= 1e-4:
                continue
            bowl = BowlCritic()

            def objective():
                a = actor.forward(s)
                return float(np.mean(-((a - 0.5) ** 2)))

            a, cache_a = actor.forward_cached(s)
            q, cache_q = bowl.forward_cached(np.concatenate([s, a], axis=1))
            grad_in = bowl.backward(cache_q, np.full_like(q, 1.0 / q.shape[0]), params=False)
            grads = actor.backward(cache_a, grad_in[:, -1:])
            numeric = numeric_gradient(objective, actor)
            assert max_rel_error(grads, numeric) < 1e-4


class TestSac:
    def test_log_prob_matches_gaussian_entropy(self, rng):
        # mean of -log N(u; m, s^2) over samples approaches the closed form
        log_std = 0.3
        std = np.exp(log_std)
        eps = rng.standard_normal((200_000, 1))
        lp = gaussian_log_prob(eps, np.full_like(eps, log_std))
        entropy = float(np.mean(-lp))
        closed = 0.5 * np.log(2.0 * np.pi * np.e * std**2)
        assert entropy == pytest.approx(closed, abs=5e-3)

    def test_squashed_sample_in_range(self, rng):
        policy = Mlp([3, 8, 2], "identity", rng)
        a, log_prob, _, _ = squashed_sample(policy, rng.normal(0, 1, (64, 3)), rng)
        assert np.all(a > -1.0) and np.all(a < 1.0)
        assert np.all(np.isfinite(log_prob))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_log_std_clip_equals_numpy_clip(self, dtype):
        # at the bounds and one ulp either side, past them, inside, at -0.0
        # and at non-finite values: as a column, and each value alone
        bounds = np.array([LOG_STD_MIN, LOG_STD_MIN, LOG_STD_MAX, LOG_STD_MAX], dtype)
        ulps = np.nextafter(bounds, np.array([-np.inf, np.inf, -np.inf, np.inf], dtype))
        raw = np.array([LOG_STD_MIN, LOG_STD_MAX, *ulps, LOG_STD_MIN - 5.0, LOG_STD_MAX + 5.0,
                        -0.0, 0.0, 0.7, -np.inf, np.inf, np.nan], dtype)
        want = np.clip(raw, LOG_STD_MIN, LOG_STD_MAX)
        zeros = np.zeros_like(raw)[:, None]
        _, log_std, std = squashed_draw(ARRAYS, zeros, raw[:, None], zeros)
        assert log_std.dtype == std.dtype == want.dtype == dtype
        assert log_std.tobytes() == want[:, None].tobytes()
        for value, clipped in zip(raw, want):
            _, log_std, std = squashed_draw(FLOATS, dtype(0.0), value, dtype(0.0))
            assert type(log_std) is type(std) is dtype, value
            assert log_std.tobytes() == clipped.tobytes(), value

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_one_row_draw_equals_the_column_draw(self, dtype, rng):
        # numpy's exp and tanh on one scalar give the bytes of their array loop
        mean, raw, eps = (rng.normal(0.0, scale, 5000).astype(dtype) for scale in (3.0, 8.0, 1.0))
        columns = squashed_draw(ARRAYS, mean[:, None], raw[:, None], eps[:, None])
        for i in range(mean.size):
            row = squashed_draw(FLOATS, mean[i], raw[i], eps[i])
            assert [type(x) for x in row] == [dtype] * 3
            assert [x.tobytes() for x in row] == [col[i, 0].tobytes() for col in columns], i

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           states=st.lists(st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3),
                           min_size=1, max_size=6),
           n=st.integers(1, 5),
           log_std_shift=st.sampled_from([0.0, -30.0, 5.0]))
    def test_command_draws_equal_the_full_sample(self, seed, states, n, log_std_shift):
        # propose and sample_actions skip the log-prob but make the same draw
        agent = SacAgent(SMALL, np.random.default_rng(seed))
        agent.policy.biases[-1][1] += log_std_shift  # reach both log-std clips
        policy, states = agent.policy, np.array(states)

        agent.rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
        proposed = agent.propose(states[0])
        a, _, _, _ = squashed_sample(policy, states[:1], rng)
        assert np.float64(proposed).tobytes() == np.float64(a[0, 0]).tobytes()
        assert agent.rng.random() == rng.random()

        agent.rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
        batched = agent.sample_actions(states, n)
        a, _, _, _ = squashed_sample(policy, np.repeat(states, n, axis=0), rng)
        assert batched.tobytes() == a[:, 0].reshape(-1, n).tobytes()
        assert agent.rng.random() == rng.random()

    def test_zero_alpha_moves_policy_toward_bowl_optimum(self):
        rng = np.random.default_rng(5)
        cfg = AgentConfig(hidden_sizes=(16,), entropy_alpha=0.0, actor_lr=3e-3,
                          sac_value_lr=3e-3, sac_softq_lr=3e-3)
        policy = Mlp([2, 16, 2], "identity", rng)
        value = Mlp([2, 16, 1], "identity", rng)
        value_t = value.clone()
        softq = Mlp([3, 32, 1], "identity", rng)
        adams = {"policy": Adam(policy, cfg.actor_lr), "value": Adam(value, cfg.sac_value_lr),
                 "softq": Adam(softq, cfg.sac_softq_lr)}
        s = rng.normal(0, 1, (64, 2))
        # teach the soft-Q head the bowl first, then let the policy follow it
        for _ in range(1500):
            a = rng.uniform(-1, 1, (64, 1))
            q_target = -((a - 0.5) ** 2)[:, 0]
            update_critic(softq, adams["softq"], s, a[:, 0], q_target)
        for _ in range(800):
            batch = (s, rng.uniform(-1, 1, 64), np.zeros(64), s, np.ones(64))
            update_sac(policy, value, value_t, softq, adams, batch, cfg, rng)
        mean_action = np.tanh(policy.forward(s)[:, 0])
        assert np.mean(np.abs(mean_action - 0.5)) < 0.15

    def test_losses_finite_after_many_updates(self, rng):
        cfg = AgentConfig(hidden_sizes=(8,), batch_size=16)
        policy = Mlp([3, 8, 2], "identity", rng)
        value = Mlp([3, 8, 1], "identity", rng)
        value_t = value.clone()
        softq = Mlp([4, 8, 1], "identity", rng)
        adams = {"policy": Adam(policy, 1e-3), "value": Adam(value, 1e-3),
                 "softq": Adam(softq, 1e-3)}
        for _ in range(100):
            batch = (
                rng.normal(0, 1, (16, 3)), rng.uniform(-1, 1, 16), rng.normal(0, 1, 16),
                rng.normal(0, 1, (16, 3)), rng.integers(0, 2, 16).astype(float),
            )
            losses = update_sac(policy, value, value_t, softq, adams, batch, cfg, rng)
            assert all(np.isfinite(v) for v in losses.values())


def flat_traj(net, rng, n=6, state_dim=3):
    states = rng.normal(0, 1, (n, state_dim))
    actions = net.forward(states)[:, 0]
    return Trajectory(states=states, actions=actions, speeds=np.zeros(n), accels=np.zeros(n),
                      total_return=0.0)


class TestAdditionalActor:
    def test_perfect_imitation_gives_zero_loss(self, rng):
        net = Mlp([3, 6, 1], "tanh", rng)
        traj = flat_traj(net, rng)
        adam = Adam(net, lr=1e-3)
        assert update_additional_actor([traj], net, adam) == pytest.approx(0.0)

    def test_empty_sample_is_noop(self, rng):
        net = Mlp([3, 6, 1], "tanh", rng)
        assert update_additional_actor([], net, Adam(net, 1e-3)) is None

    def test_regression_loss_decreases(self, rng):
        target = Mlp([3, 6, 1], "tanh", rng)
        student = Mlp([3, 6, 1], "tanh", rng)
        adam = Adam(student, lr=5e-3)
        trajs = [flat_traj(target, rng, n=32) for _ in range(3)]
        losses = [update_additional_actor(trajs, student, adam) for _ in range(300)]
        assert losses[-1] < losses[0]
        assert losses[-1] >= 0.0

    def test_convergence_gate_strict_inequality(self, rng):
        net = Mlp([3, 6, 1], "tanh", rng)
        elite = EliteBuffer(4)
        elite.insert(flat_traj(net, rng))
        assert additional_actor_converged(elite, net, eps=1e-12)
        # craft a trajectory whose error is exactly eps
        states = rng.normal(0, 1, (4, 3))
        actions = net.forward(states)[:, 0] + 0.1
        exact = Trajectory(states=states, actions=actions, speeds=np.zeros(4), accels=np.zeros(4),
                           total_return=1.0)
        elite.insert(exact)
        mse = float(np.mean((actions - net.forward(states)[:, 0]) ** 2))
        assert not additional_actor_converged(elite, net, eps=mse)
        assert additional_actor_converged(elite, net, eps=mse + 1e-9)

    def test_universal_quantifier(self, rng):
        net = Mlp([3, 6, 1], "tanh", rng)
        elite = EliteBuffer(4)
        elite.insert(flat_traj(net, rng))
        bad_states = rng.normal(0, 1, (4, 3))
        bad = Trajectory(states=bad_states, actions=net.forward(bad_states)[:, 0] + 1.0,
                         speeds=np.zeros(4), accels=np.zeros(4), total_return=2.0)
        elite.insert(bad)
        assert not additional_actor_converged(elite, net, eps=1e-3)

    def test_empty_buffer_rejected(self, rng):
        net = Mlp([3, 6, 1], "tanh", rng)
        with pytest.raises(ValueError):
            additional_actor_converged(EliteBuffer(2), net, eps=1.0)

    def test_gradient_matches_finite_differences(self):
        for trial in range(10):
            rng = np.random.default_rng(400 + trial)
            net = Mlp([3, 6, 1], "tanh", rng, final_init_scale=0.5)
            states = rng.normal(0, 1, (5, 3))
            if relu_kink_margin(net, states) <= 1e-4:
                continue
            actions = rng.uniform(-1, 1, 5)
            traj = Trajectory(states=states, actions=actions, speeds=np.zeros(5), accels=np.zeros(5),
                              total_return=0.0)

            def loss():
                pred = net.forward(states)[:, 0]
                return float(np.mean((pred - actions) ** 2))

            pred, cache = net.forward_cached(states)
            err = pred - actions[:, None]
            grads = net.backward(cache, 2.0 * err / err.size)
            assert max_rel_error(grads, numeric_gradient(loss, net)) < 1e-4


class TestRegressBlocks:
    """``regress`` runs its rows in blocks of at most 256 and takes one Adam
    step on the summed gradient."""

    @pytest.mark.parametrize("rows", [1, 100, 256])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_one_block_is_the_whole_batch_step_bitwise(self, rows, dtype):
        rng = np.random.default_rng(rows)
        net = Mlp([3, 64, 64, 1], "tanh", rng, final_init_scale=0.5, dtype=dtype)
        twin, adam = net.clone(), Adam(net, 1e-3)
        twin_adam = Adam(twin, 1e-3)
        x, y = rng.uniform(0.0, 1.2, (rows, 3)).astype(dtype), rng.uniform(-1, 1, rows)
        for _ in range(3):  # later steps run on moved weights and moments
            loss = regress(net, adam, x, y)
            pred, cache = twin.forward_cached(x)
            err = pred[:, 0] - y
            grads = twin.backward(cache, (2.0 * err / err.size)[:, None])
            twin_adam.step(twin, grads)
            assert loss == float(np.mean(err**2))
            for mine, theirs in ((net.flat, twin.flat), (adam._m, twin_adam._m),
                                 (adam._v, twin_adam._v)):
                assert mine.tobytes() == theirs.tobytes()

    def test_three_blocks_track_a_float64_whole_batch_step(self, monkeypatch):
        # 700 rows: blocks of 256, 256 and 188, against a float64 twin that
        # takes the whole batch at once; the bounds are a few float32
        # epsilons (measured: 1.1e-7 on weights of magnitude 1.4 over 10 seeds)
        rng = np.random.default_rng(5)
        single = Mlp([3, 64, 64, 1], "tanh", rng, final_init_scale=0.5, dtype=np.float32)
        double = Mlp([3, 64, 64, 1], "tanh", np.random.default_rng(0))
        double.flat[...] = single.flat
        x, y = rng.uniform(0.0, 1.2, (700, 3)), rng.uniform(-1, 1, 700)
        blocks = []
        forward_cached = Mlp.forward_cached

        def counted(net, rows):
            blocks.append(len(rows))
            return forward_cached(net, rows)

        monkeypatch.setattr(Mlp, "forward_cached", counted)
        adam = Adam(single, 1e-3)
        loss = regress(single, adam, x, y)
        assert blocks == [256, 256, 188]
        twin_adam = Adam(double, 1e-3)
        pred, cache = forward_cached(double, x)
        err = pred[:, 0] - y
        grads = double.backward(cache, (2.0 * err / err.size)[:, None])
        twin_adam.step(double, grads)
        assert single.flat.dtype == adam._m.dtype == np.float32
        assert np.max(np.abs(single.flat - double.flat)) <= 1e-6 * np.max(np.abs(double.flat))
        assert np.max(np.abs(adam._m - twin_adam._m)) <= 1e-5 * np.max(np.abs(twin_adam._m))
        assert loss == pytest.approx(float(np.mean(err**2)), rel=1e-6)

    def test_elite_fit_working_set_does_not_grow_with_the_sample(self):
        # ten 330-row trajectories: a whole-sample step held 1.7 MB of layer
        # cache alone (3,300 rows x two 64-wide float32 layers)
        rng = np.random.default_rng(7)
        net = Mlp([3, 64, 64, 1], "tanh", rng, dtype=np.float32)
        adam = Adam(net, 1e-3)
        trajs = [flat_traj(net, rng, n=330) for _ in range(10)]
        update_additional_actor(trajs, net, adam)  # warm-up: makes the scratch
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            update_additional_actor(trajs, net, adam)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


class TestSharedScratch:
    """An agent's five nets, the additional actor included, share one layer scratch."""

    @pytest.mark.parametrize("cls", [DdpgAgent, SacAgent])
    @pytest.mark.parametrize("loaded", [False, True])
    def test_all_five_nets_share_one_scratch(self, cls, loaded, rng, tmp_path):
        agent = cls(SMALL, rng)
        if loaded:
            agent = load_checkpoint(saved(tmp_path, agent), SMALL, np.random.default_rng(0))
        nets = agent.named_nets()
        assert len(nets) == 5
        shared = {id(net.scratch) for net in nets.values()}
        assert len(shared) == 1
        other = cls(SMALL, rng)  # and no two agents share one
        assert {id(net.scratch) for net in other.named_nets().values()}.isdisjoint(shared)

    def test_convergence_check_runs_in_regression_blocks(self, rng):
        # the mean is over all 1,000 rows: one error of 0.8 on the last row
        # is 6.4e-4 over them, but above eps over its own 232-row block
        net = Mlp([3, 64, 64, 1], "tanh", rng, dtype=np.float32)
        traj = flat_traj(net.clone(), rng, n=1000)
        elite = EliteBuffer(1)
        elite.insert(traj)
        assert additional_actor_converged(elite, net, 1e-3)
        assert net.scratch.size == 256 * 64
        for miss, converged in ((0.8, True), (1.2, False)):
            traj.actions[-1] = net.forward(traj.states[-1])[0, 0] + miss
            assert additional_actor_converged(elite, net, 1e-3) is converged

    def test_warmed_ddpg_agent_keeps_one_scratch(self):
        # a batch-256 update and an additional-actor fit in 256-row blocks:
        # all five nets fill one 256-row scratch
        cfg = AgentConfig(hidden_sizes=(64, 64), batch_size=256)
        rng = np.random.default_rng(43)
        states = rng.uniform(0.0, 1.2, (2, 256, 3)).astype(np.float32)
        batch = (states[0], rng.uniform(-1, 1, 256), rng.normal(0, 1, 256), states[1], np.zeros(256))

        def warm(agent, trajs):
            agent.update(batch)
            update_additional_actor(trajs, agent.additional, agent.adams["additional"])

        # a twin's warm-up fills numpy's small-buffer caches, which the
        # traced difference would otherwise count
        twin = DdpgAgent(cfg, np.random.default_rng(0))
        warm(twin, [flat_traj(twin.additional.clone(), rng, n=200) for _ in range(2)])
        agent = DdpgAgent(cfg, np.random.default_rng(1))
        trajs = [flat_traj(agent.additional.clone(), rng, n=200) for _ in range(2)]
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            warm(agent, trajs)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        scratch = 256 * 64 * (3 * 4 + 1)  # two float32 products, the zeros and a bool mask
        blends = agent.actor.flat.nbytes + agent.critic.flat.nbytes  # soft_update's, one per target
        assert kept <= scratch + blends + 3 * 4096


class TestAgents:
    def test_ddpg_update_runs_and_moves_critic(self, rng):
        agent = DdpgAgent(SMALL, rng)
        batch = (
            rng.normal(0, 1, (8, 3)), rng.uniform(-1, 1, 8), rng.normal(0, 1, 8),
            rng.normal(0, 1, (8, 3)), np.zeros(8),
        )
        losses = agent.update(batch)
        assert losses["critic_loss"] >= 0.0
        assert np.isfinite(losses["actor_objective"])

    def test_sac_agent_update(self, rng):
        agent = SacAgent(SMALL, rng)
        batch = (
            rng.normal(0, 1, (8, 3)), rng.uniform(-1, 1, 8), rng.normal(0, 1, 8),
            rng.normal(0, 1, (8, 3)), np.zeros(8),
        )
        losses = agent.update(batch)
        assert set(losses) == {"softq_loss", "value_loss", "policy_loss"}

    def test_commands_in_range(self, rng):
        for agent in (DdpgAgent(SMALL, rng), SacAgent(SMALL, rng)):
            for _ in range(20):
                s = rng.normal(0, 1, 3)
                assert -1.0 <= agent.act(s) <= 1.0
                assert -1.0 <= agent.propose(s) <= 1.0
                assert np.all(np.abs(agent.sample_actions(s, 5)) <= 1.0)

    def test_ddpg_sample_actions_is_clipped_jitter(self, rng):
        agent = DdpgAgent(SMALL, rng)
        agent.actor.biases[-1][...] = 0.9  # push some rows past the clip
        states = rng.normal(0, 1, (7, 3))
        std = max(agent.noise_scale, 1e-3)
        agent.rng, twin = np.random.default_rng(3), np.random.default_rng(3)
        want = np.clip(agent.actor.forward(states) + twin.normal(0.0, std, (7, 4)), -1.0, 1.0)
        assert agent.sample_actions(states, 4).tobytes() == want.tobytes()

    def test_nan_weight_faults_at_the_net(self, rng):
        # the net's output check is what stops a non-finite command
        agent = DdpgAgent(SMALL, rng)
        agent.actor.weights[-1][0, 0] = np.nan
        with pytest.raises(FloatingPointError, match="network produced non-finite output"):
            agent.propose(rng.normal(0, 1, 3))

    def test_batched_sample_actions_shape_and_range(self, rng):
        for agent in (DdpgAgent(SMALL, rng), SacAgent(SMALL, rng)):
            for rows, n in ((1, 5), (7, 3), (45, 5)):
                samples = agent.sample_actions(rng.normal(0, 1, (rows, 3)), n)
                assert samples.shape == (rows, n)
                assert np.all(np.abs(samples) <= 1.0)

    def test_checkpoint_round_trip(self, rng, tmp_path):
        agent = DdpgAgent(SMALL, rng)
        assert agent.additional_converged is False  # until training says otherwise
        agent.additional_converged = True
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, agent)
        twin = load_checkpoint(path, SMALL, np.random.default_rng(0))
        s = rng.normal(0, 1, 3)
        assert twin.act(s) == agent.act(s)
        assert twin.additional_converged
        assert twin.kind == "ddpg"

    def test_sac_checkpoint_round_trip(self, rng, tmp_path):
        agent = SacAgent(SMALL, rng)
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, agent)
        twin = load_checkpoint(path, SMALL, np.random.default_rng(0))
        s = rng.normal(0, 1, 3)
        assert twin.act(s) == agent.act(s)


class TestDdpgExploration:
    """``propose`` is the greedy command plus ``noise_scale`` times one draw
    from ``noise_rng``, clipped to [-1, 1]."""

    X = np.array([0.2, 0.4, 0.1])

    def test_zero_scale_gaussian_equals_policy(self, rng):
        agent = DdpgAgent(SMALL, rng)
        agent.noise_scale = 0.0
        assert agent.propose(self.X) == agent.act(self.X)

    @pytest.mark.parametrize("bias", [-2.0, -1.0, -0.3, 0.0, 0.4, 1.0, 2.0])
    @pytest.mark.parametrize("noise_value", [-2.5, -0.5, 0.0, 0.5, 2.5])
    def test_clip_equals_numpy_clip(self, bias, noise_value, rng):
        # an identity head with zero weights commands exactly its bias, so the
        # sum lands on, inside and beyond both bounds, including exactly +-1
        agent = DdpgAgent(SMALL, rng)
        agent.actor = Mlp([3, 1], "identity", np.random.default_rng(0))
        agent.actor.biases[0][...] = bias
        agent.noise_scale, agent.noise_rng = 1.0, SimpleNamespace(standard_normal=lambda: noise_value)
        got = agent.propose(self.X)
        want = float(np.clip(agent.act(self.X) + noise_value, -1.0, 1.0))
        assert type(got) is float
        assert np.float64(got).tobytes() == np.float64(want).tobytes()

    def test_commands_always_clipped(self, rng):
        agent = DdpgAgent(SMALL, rng)
        agent.noise_scale = 50.0
        for _ in range(100):
            assert -1.0 <= agent.propose(self.X) <= 1.0

    def test_seeded_determinism(self):
        a, b = (DdpgAgent(SMALL, np.random.default_rng(9)) for _ in range(2))
        assert [a.propose(self.X) for _ in range(5)] == [b.propose(self.X) for _ in range(5)]

    def test_noise_is_the_scaled_draw_of_noise_rng(self, rng):
        # a zero head commands exactly 0, so each proposal is its own draw:
        # white noise, one standard normal per call and no state between calls
        agent = DdpgAgent(SMALL, rng)
        agent.actor = Mlp([3, 1], "identity", np.random.default_rng(0))
        agent.actor.weights[0][...] = 0.0
        agent.actor.biases[0][...] = 0.0
        agent.noise_scale, agent.noise_rng = 0.01, np.random.default_rng(4)
        twin = np.random.default_rng(4)
        got = [agent.propose(self.X) for _ in range(50)]
        assert got == [0.01 * float(twin.standard_normal()) for _ in range(50)]

    def test_propose_leaves_the_sampling_stream_alone(self, rng):
        # exploration draws come from noise_rng only, so proposing does not
        # move the stream that tree samples and SAC draws are taken from
        agent = DdpgAgent(SMALL, rng)
        before = agent.rng.bit_generator.state
        for _ in range(10):
            agent.propose(self.X)
        assert agent.rng.bit_generator.state == before

    def test_zero_scale_samples_jitter_at_the_floor(self, rng):
        # the last annealed episode runs at scale 0, where tree samples still
        # spread by 1e-3
        agent = DdpgAgent(SMALL, rng)
        agent.noise_scale = 0.0
        states = rng.normal(0, 1, (5, 3))
        agent.rng, twin = np.random.default_rng(3), np.random.default_rng(3)
        want = np.clip(agent.actor.forward(states) + twin.normal(0.0, 1e-3, (5, 4)), -1.0, 1.0)
        assert agent.sample_actions(states, 4).tobytes() == want.tobytes()


class TestSafetyBoundary:
    """Float32 nets hand the shield and the tree float64 commands only."""

    @pytest.mark.parametrize("cls", [DdpgAgent, SacAgent])
    def test_commands_are_python_floats(self, cls, rng):
        agent = cls(SMALL, rng)
        assert all(net.flat.dtype == np.float32 for net in agent.named_nets().values())
        for s in rng.uniform(0.0, 1.2, (10, 3)):
            for cmd in (agent.propose(s), agent.act(s), agent.act_additional(s)):
                assert type(cmd) is float
                assert -1.0 <= cmd <= 1.0

    @pytest.mark.parametrize("cls", [DdpgAgent, SacAgent])
    @pytest.mark.parametrize("loc,vel,t", [(300.0, 55.0, 1), (460.0, 66.0, 2), (1380.0, 40.0, 0)])
    def test_tree_over_sample_actions_picks_a_safe_command(self, cls, loc, vel, t, rng):
        model, track = make_model(), make_track()
        agent = cls(SMALL, rng)
        env = TrainEnv(model, track)
        spec, cfg = SafetySpec(), SearchConfig(expansion_width=3, action_grid=9)
        state = OperationState(loc=loc, vel=vel, time=float(t))
        safe_set = safe_action_set(spec, model, track, state, cfg.action_grid)
        drawn = []

        def sampler(states, n):
            drawn.append(agent.sample_actions(normalize_states(states, track), n))
            return drawn[-1]

        # at step t, a t_up of 5 leaves -(t + 1) % 5 steps before the next update
        chosen = search_safe_action(env, spec, sampler, state, safe_set, -(t + 1) % 5, cfg)
        assert drawn, "the tree never expanded"
        assert type(chosen) is float
        assert chosen in safe_set
        assert is_safe(spec, model, track, state, chosen).safe


def saved(tmp_path, agent, edit=None):
    """Save ``agent``, apply ``edit`` to the JSON blob, and return the path."""
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, agent)
    if edit is not None:
        blob = json.loads(path.read_text())
        edit(blob)
        path.write_text(json.dumps(blob))
    return path


class TestCheckpoint:
    @pytest.mark.parametrize("cls", [DdpgAgent, SacAgent])
    def test_loaded_nets_keep_flat_views(self, cls, rng, tmp_path):
        agent = cls(SMALL, rng)
        twin = load_checkpoint(saved(tmp_path, agent), SMALL, np.random.default_rng(0))
        for name, net in twin.named_nets().items():
            assert net is getattr(twin, name)
            assert np.array_equal(net.flat, agent.named_nets()[name].flat)
            for p in layer_arrays(net):
                assert np.shares_memory(p, net.flat)

    @pytest.mark.parametrize("cls,adams", [
        (DdpgAgent, lambda a: {"actor": a.adams["actor"], "critic": a.adams["critic"],
                               "additional": a.adams["additional"]}),
        (SacAgent, lambda a: a.adams),
    ])
    def test_optimizers_rebuilt_for_stored_sizes(self, cls, adams, rng, tmp_path):
        # stored hidden sizes win over the config, and so must the Adam state
        agent = cls(AgentConfig(hidden_sizes=(5, 7)), rng)
        twin = load_checkpoint(saved(tmp_path, agent), SMALL, np.random.default_rng(0))
        fresh = adams(cls(SMALL, np.random.default_rng(0)))
        for name, adam in adams(twin).items():
            assert adam._m.shape == getattr(twin, name).flat.shape
            assert adam.lr == fresh[name].lr
        twin.update((rng.normal(0, 1, (8, 3)), rng.uniform(-1, 1, 8), rng.normal(0, 1, 8),
                     rng.normal(0, 1, (8, 3)), np.zeros(8)))

    @given(kind=st.sampled_from(["ddpg", "sac"]),
           hidden=st.lists(st.integers(1, 12), min_size=1, max_size=3),
           extra=st.none() | st.lists(st.integers(1, 12), min_size=1, max_size=2),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_save_load_round_trip(self, kind, hidden, extra, seed):
        cfg = AgentConfig(hidden_sizes=tuple(hidden),
                          additional_hidden_sizes=None if extra is None else tuple(extra))
        rng = np.random.default_rng(seed)
        agent = (DdpgAgent if kind == "ddpg" else SacAgent)(cfg, rng)
        with tempfile.TemporaryDirectory() as tmp:
            twin = load_checkpoint(saved(Path(tmp), agent), SMALL, np.random.default_rng(0))
        assert twin.kind == kind
        assert set(twin.named_nets()) == set(agent.named_nets())
        for name, net in agent.named_nets().items():
            loaded = twin.named_nets()[name]
            assert loaded.layer_sizes == net.layer_sizes
            assert loaded.flat.tobytes() == net.flat.tobytes()
        states = rng.normal(0, 1, (4, 3))
        for s in states:
            assert twin.act(s) == agent.act(s)
            assert twin.act_additional(s) == agent.act_additional(s)

    @pytest.mark.parametrize("cls", [DdpgAgent, SacAgent])
    def test_float64_weights_load_into_float32_nets(self, cls, rng, tmp_path):
        # a blob written from float64 nets of the same sizes: each stored
        # weight is rounded to the nearest float32
        agent = cls(SMALL, rng)
        doubles = {name: Mlp(net.layer_sizes, net.output_activation, rng, final_init_scale=0.5)
                   for name, net in agent.named_nets().items()}
        path = saved(tmp_path, agent, lambda b: b["nets"].update(
            {name: net.to_dict() for name, net in doubles.items()}))
        twin = load_checkpoint(path, SMALL, np.random.default_rng(0))
        for name, net in twin.named_nets().items():
            assert net.flat.dtype == np.float32
            assert net.flat.tobytes() == doubles[name].flat.astype(np.float32).tobytes()
        bad = saved(tmp_path, agent, lambda b: b["nets"].update(
            {name: net.to_dict() for name, net in doubles.items()},
            additional={**doubles["additional"].to_dict(), "biases": [[0.0] * 3, [0.0] * 8, [0.0]]}))
        with pytest.raises(CheckpointError, match=r": nets\.additional: biases\[0\]"):
            load_checkpoint(bad, SMALL, np.random.default_rng(0))

    @pytest.mark.parametrize("field,edit", [
        ("format", lambda b: b.update(format=2)),
        ("format", lambda b: b.pop("format")),
        ("kind", lambda b: b.pop("kind")),
        ("kind", lambda b: b.update(kind="td3")),
        ("nets", lambda b: b.update(nets={})),
        ("nets", lambda b: b.update(kind="sac")),
        ("nets", lambda b: b["nets"].pop("critic_target")),
        ("nets", lambda b: b["nets"].update(extra=b["nets"]["actor"])),
        ("nets.actor", lambda b: b["nets"]["actor"].pop("weights")),
        ("nets.critic", lambda b: b["nets"]["critic"]["biases"].__setitem__(0, [[0.0] * 8])),
        ("nets.critic", lambda b: b["nets"]["critic"]["biases"].__setitem__(2, [])),
        ("nets.actor", lambda b: b["nets"]["actor"]["weights"].pop()),
        ("nets.actor", lambda b: b["nets"]["actor"].update(layer_sizes=[3, 0, 1])),
        ("nets.additional", lambda b: b["nets"]["additional"].update(layer_sizes=[3, 0, 1])),
        ("nets.additional", lambda b: b["nets"]["additional"].update(output_activation="relu")),
        ("nets.actor", lambda b: b["nets"]["actor"].update(output_activation="identity")),
        ("nets.critic", lambda b: b["nets"].update(critic=b["nets"]["actor_target"])),
        ("nets.critic", lambda b: b["nets"].update(
            critic=Mlp([4, 5, 1], "identity", np.random.default_rng(0)).to_dict())),
        # both equal 1, but neither is the integer 1
        ("format", lambda b: b.update(format=True)),
        ("format", lambda b: b.update(format=1.0)),
    ])
    def test_bad_schema_names_file_and_field(self, rng, tmp_path, field, edit):
        path = saved(tmp_path, DdpgAgent(SMALL, rng), edit)
        with pytest.raises(CheckpointError) as info:
            load_checkpoint(path, SMALL, np.random.default_rng(0))
        message = str(info.value)
        assert isinstance(info.value, ValueError)
        assert message.startswith(f"checkpoint {path}: {field}: ")
        assert "\n" not in message

    @pytest.mark.parametrize("cls", [DdpgAgent, SacAgent])
    @pytest.mark.parametrize("edit", [
        lambda net: net.update(layer_sizes=[3, 0, 1]),
        lambda net: net.update(layer_sizes=[3]),
        lambda net: net.update(layer_sizes="abc"),
        lambda net: net.update(layer_sizes=None),
        lambda net: net.pop("layer_sizes"),
        lambda net: net["layer_sizes"].__setitem__(1, True),
    ], ids=["zero-width", "no-output", "string", "null", "missing", "boolean"])
    def test_bad_layer_sizes_name_their_own_net(self, cls, edit, rng, tmp_path):
        # the main net and the additional actor also give the sizes the
        # agent is built with, and a fault there is still theirs
        for name in cls.NETS:
            path = saved(tmp_path, cls(SMALL, rng), lambda blob: edit(blob["nets"][name]))
            with pytest.raises(CheckpointError) as info:
                load_checkpoint(path, SMALL, np.random.default_rng(0))
            assert str(info.value).startswith(f"checkpoint {path}: nets.{name}: ")
            assert "\n" not in str(info.value)

    @pytest.mark.parametrize("cls", [DdpgAgent, SacAgent])
    def test_wider_state_fails_at_load(self, cls, rng, tmp_path):
        # nets reading a 4-wide state once loaded, and failed at the first
        # state the episode loop fed them
        agent = cls(SMALL, rng)
        path = saved(tmp_path, agent, lambda blob: blob["nets"].update(wider_state_nets(agent, rng)))
        with pytest.raises(CheckpointError) as info:
            load_checkpoint(path, SMALL, np.random.default_rng(0))
        main = getattr(agent, next(iter(cls.NETS)))
        wide = [STATE_DIM + 1, *main.layer_sizes[1:]]
        assert str(info.value) == (
            f"checkpoint {path}: nets.{next(iter(cls.NETS))}: expected (layer sizes, activation) "
            f"({main.layer_sizes}, '{main.output_activation}'), got ({wide}, '{main.output_activation}')")

    @pytest.mark.parametrize("cls", [DdpgAgent, SacAgent])
    @pytest.mark.parametrize("hidden", [(8, 8), (5, 7, 3)])
    def test_load_builds_the_agent_once(self, cls, hidden, monkeypatch, tmp_path):
        # a load builds exactly a fresh agent's five nets, and draws from rng
        # as that fresh build does; the stored sizes win over SMALL's
        cfg = replace(SMALL, hidden_sizes=hidden)
        path = saved(tmp_path, cls(cfg, np.random.default_rng(1)))
        built, init = [], Mlp.__init__
        monkeypatch.setattr(Mlp, "__init__", lambda net, *args, **kw: built.append(net)
                            or init(net, *args, **kw))
        fresh_rng, load_rng = np.random.default_rng(7), np.random.default_rng(7)
        cls(cfg, fresh_rng)
        assert len(built) == 5
        twin = load_checkpoint(path, SMALL, load_rng)
        assert len(built) == 10
        assert [id(net) for net in built[5:]] == [id(net) for net in twin.named_nets().values()]
        assert load_rng.bit_generator.state == fresh_rng.bit_generator.state

    @pytest.mark.parametrize("cls", [DdpgAgent, SacAgent])
    @pytest.mark.parametrize("field, index, value, shown", [
        ("weights", 0, float("nan"), "nan"),
        ("biases", 1, float("inf"), "inf"),
        ("weights", 2, float("-inf"), "-inf"),
        ("biases", 0, 1e300, "inf"),  # finite as stored, infinite in the float32 net
    ])
    def test_non_finite_weight_names_the_field(self, rng, tmp_path, cls, field, index, value,
                                               shown):
        def edit(blob):
            stored = blob["nets"]["additional"][field][index]
            row = stored[-1] if field == "weights" else stored
            row[-1] = value

        path = saved(tmp_path, cls(SMALL, rng), edit)
        with pytest.raises(CheckpointError) as info:
            load_checkpoint(path, SMALL, np.random.default_rng(0))
        assert str(info.value) == (f"checkpoint {path}: nets.additional: {field}[{index}]: "
                                   f"expected finite float32 values, got {shown}")

    @pytest.mark.parametrize("value", ["false", 1], ids=["string", "integer"])
    def test_converged_flag_must_be_a_json_boolean(self, rng, tmp_path, value):
        # bool("false") is True: a lax read would run the additional actor
        path = saved(tmp_path, DdpgAgent(SMALL, rng),
                     lambda blob: blob.update(additional_converged=value))
        with pytest.raises(CheckpointError) as info:
            load_checkpoint(path, SMALL, np.random.default_rng(0))
        assert str(info.value) == (f"checkpoint {path}: additional_converged: "
                                   f"expected true or false, got {value!r}")

    def test_missing_converged_flag_means_false(self, rng, tmp_path):
        path = saved(tmp_path, DdpgAgent(SMALL, rng),
                     lambda blob: blob.pop("additional_converged"))
        assert load_checkpoint(path, SMALL, np.random.default_rng(0)).additional_converged is False

    @pytest.mark.parametrize("text", ["{not json", "[1, 2]", "\xff"])
    def test_unreadable_file(self, tmp_path, text):
        path = tmp_path / "ckpt.json"
        path.write_bytes(text.encode("latin-1"))
        with pytest.raises(CheckpointError, match=r": file: "):
            load_checkpoint(path, SMALL, np.random.default_rng(0))


class TestNetTable:
    """Each family's nets, rates and targets, pinned apart from its ``NETS``."""

    @staticmethod
    def expected(kind: str, cfg: AgentConfig, main: list, extra: list) -> dict:
        """Each net in build order: (layer sizes, activation, Adam rate), or
        the name of the online net a target copies."""
        additional = ([3, *extra, 1], "tanh",
                      5.0 * cfg.actor_lr if cfg.additional_actor_lr is None else cfg.additional_actor_lr)
        if kind == "ddpg":
            return {"actor": ([3, *main, 1], "tanh", cfg.actor_lr),
                    "critic": ([4, *main, 1], "identity", cfg.critic_lr),
                    "actor_target": "actor", "critic_target": "critic", "additional": additional}
        return {"policy": ([3, *main, 2], "identity", cfg.actor_lr),
                "value": ([3, *main, 1], "identity", cfg.sac_value_lr),
                "value_target": "value",
                "softq": ([4, *main, 1], "identity", cfg.sac_softq_lr), "additional": additional}

    @pytest.mark.parametrize("kind", ["ddpg", "sac"])
    @pytest.mark.parametrize("loaded", [False, True], ids=["fresh", "loaded"])
    @pytest.mark.parametrize("extra_hidden,extra_lr", [(None, None), ((6,), 0.25)],
                             ids=["defaults", "set"])
    def test_nets_rates_and_targets(self, kind, loaded, extra_hidden, extra_lr, tmp_path):
        cfg = AgentConfig(hidden_sizes=(5, 7), actor_lr=0.01, critic_lr=0.02, sac_value_lr=0.03,
                          sac_softq_lr=0.04, additional_hidden_sizes=extra_hidden,
                          additional_actor_lr=extra_lr)
        agent = {"ddpg": DdpgAgent, "sac": SacAgent}[kind](cfg, np.random.default_rng(3))
        if loaded:
            # the stored sizes win over the load's config, and its rates hold
            agent = load_checkpoint(saved(tmp_path, agent),
                                    replace(cfg, hidden_sizes=(2,), additional_hidden_sizes=(9,)),
                                    np.random.default_rng(0))
        want = self.expected(kind, cfg, [5, 7], list(extra_hidden or (5, 7)))
        nets = agent.named_nets()
        assert list(nets) == list(want)
        stored = json.loads(saved(tmp_path, agent).read_text())["nets"]
        assert list(stored) == list(want)
        assert list(agent.adams) == [name for name, row in want.items() if not isinstance(row, str)]
        for name, row in want.items():
            if isinstance(row, str):
                assert nets[name] is not nets[row]
                assert nets[name].layer_sizes == nets[row].layer_sizes
                assert nets[name].output_activation == nets[row].output_activation
                assert nets[name].flat.tobytes() == nets[row].flat.tobytes()
                continue
            sizes, activation, lr = row
            assert (nets[name].layer_sizes, nets[name].output_activation) == (sizes, activation)
            assert agent.adams[name].lr == lr
            assert agent.adams[name]._m.shape == nets[name].flat.shape
