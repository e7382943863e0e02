import numpy as np
import pytest

from atoshield.drl.agents import (
    AgentConfig,
    DdpgAgent,
    SacAgent,
    additional_actor_converged,
    critic_target,
    gaussian_log_prob,
    load_checkpoint,
    save_checkpoint,
    squashed_sample,
    update_actor,
    update_additional_actor,
    update_critic,
    update_sac,
)
from atoshield.drl.buffers import EliteBuffer, Trajectory
from atoshield.drl.nets import Adam, Mlp

from oracles import flatten_grads, max_rel_error, numeric_gradient, relu_kink_margin

SMALL = AgentConfig(hidden_sizes=(8, 8), batch_size=8, replay_capacity=64,
                    actor_lr=1e-3, critic_lr=1e-3, sac_softq_lr=1e-3)


class BowlCritic:
    """Analytic stand-in: Q(s, a) = -(a - 0.5)^2, exact gradients."""

    def forward_cached(self, x):
        a = x[:, -1:]
        return -((a - 0.5) ** 2), x

    def backward(self, cache, grad_out):
        grad_in = np.zeros_like(cache)
        grad_in[:, -1:] = grad_out * (-2.0 * (cache[:, -1:] - 0.5))
        return [], grad_in


class ConstantCritic:
    def forward_cached(self, x):
        return np.full((x.shape[0], 1), 3.0), x

    def backward(self, cache, grad_out):
        return [], np.zeros_like(cache)


class TestCriticTarget:
    def test_terminal_cuts_bootstrap(self, rng):
        nets = (Mlp([2, 4, 1], "tanh", rng), Mlp([3, 4, 1], "identity", rng))
        y = critic_target(np.array([5.0]), np.array([[0.1, 0.2]]), np.array([1.0]), nets, 0.99)
        assert y[0] == 5.0

    def test_zero_gamma_cuts_bootstrap(self, rng):
        nets = (Mlp([2, 4, 1], "tanh", rng), Mlp([3, 4, 1], "identity", rng))
        y = critic_target(np.array([5.0]), np.array([[0.1, 0.2]]), np.array([0.0]), nets, 0.0)
        assert y[0] == 5.0

    def test_bootstrap_arithmetic(self):
        class Two:
            def forward(self, x):
                return np.full((np.atleast_2d(x).shape[0], 1), 2.0)

        y = critic_target(np.array([1.0]), np.array([[0.0, 0.0]]), np.array([0.0]), (Two(), Two()), 0.99)
        assert y[0] == pytest.approx(2.98)

    def test_sac_form_uses_value_net(self):
        class Val:
            def forward(self, x):
                return np.full((np.atleast_2d(x).shape[0], 1), 4.0)

        y = critic_target(np.array([1.0]), np.array([[0.0, 0.0]]), np.array([0.0]), Val(), 0.5)
        assert y[0] == pytest.approx(3.0)


class TestUpdateCritic:
    def test_perfect_fit_gives_zero_loss_and_no_motion(self, rng):
        critic = Mlp([3, 4, 1], "identity", rng)
        adam = Adam(critic, lr=0.1)
        s = rng.normal(0, 1, (6, 2))
        a = rng.uniform(-1, 1, 6)
        y = critic.forward(np.concatenate([s, a[:, None]], axis=1))[:, 0]
        before = [p.copy() for p in critic.parameters()]
        loss = update_critic(critic, adam, s, a, y)
        assert loss == 0.0
        for p, b in zip(critic.parameters(), before):
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
        before = [p.copy() for p in actor.parameters()]
        update_actor(actor, adam, ConstantCritic(), rng.normal(0, 1, (5, 2)))
        for p, b in zip(actor.parameters(), before):
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
            _, grad_in = bowl.backward(cache_q, np.full_like(q, 1.0 / q.shape[0]))
            grads, _ = actor.backward(cache_a, grad_in[:, -1:])
            numeric = numeric_gradient(objective, actor)
            assert max_rel_error(flatten_grads(grads), numeric) < 1e-4


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
    return Trajectory(states=states, actions=actions, rewards=np.zeros(n), total_return=0.0)


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
        exact = Trajectory(states=states, actions=actions, rewards=np.zeros(4), total_return=1.0)
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
                         rewards=np.zeros(4), total_return=2.0)
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
            traj = Trajectory(states=states, actions=actions, rewards=np.zeros(5), total_return=0.0)

            def loss():
                pred = net.forward(states)[:, 0]
                return float(np.mean((pred - actions) ** 2))

            pred, cache = net.forward_cached(states)
            err = pred - actions[:, None]
            grads, _ = net.backward(cache, 2.0 * err / err.size)
            assert max_rel_error(flatten_grads(grads), numeric_gradient(loss, net)) < 1e-4


class TestAgents:
    def test_ddpg_update_runs_and_moves_critic(self, rng):
        agent = DdpgAgent(3, SMALL, rng)
        batch = (
            rng.normal(0, 1, (8, 3)), rng.uniform(-1, 1, 8), rng.normal(0, 1, 8),
            rng.normal(0, 1, (8, 3)), np.zeros(8),
        )
        losses = agent.update(batch)
        assert losses["critic_loss"] >= 0.0
        assert np.isfinite(losses["actor_objective"])

    def test_sac_agent_update(self, rng):
        agent = SacAgent(3, SMALL, rng)
        batch = (
            rng.normal(0, 1, (8, 3)), rng.uniform(-1, 1, 8), rng.normal(0, 1, 8),
            rng.normal(0, 1, (8, 3)), np.zeros(8),
        )
        losses = agent.update(batch)
        assert set(losses) == {"softq_loss", "value_loss", "policy_loss"}

    def test_commands_in_range(self, rng):
        for agent in (DdpgAgent(3, SMALL, rng), SacAgent(3, SMALL, rng)):
            for _ in range(20):
                s = rng.normal(0, 1, 3)
                assert -1.0 <= agent.act(s) <= 1.0
                assert -1.0 <= agent.propose(s) <= 1.0
                assert np.all(np.abs(agent.sample_actions(s, 5)) <= 1.0)

    def test_batched_sample_actions_shape_and_range(self, rng):
        for agent in (DdpgAgent(3, SMALL, rng), SacAgent(3, SMALL, rng)):
            for rows, n in ((1, 5), (7, 3), (45, 5)):
                samples = agent.sample_actions(rng.normal(0, 1, (rows, 3)), n)
                assert samples.shape == (rows, n)
                assert np.all(np.abs(samples) <= 1.0)

    def test_checkpoint_round_trip(self, rng, tmp_path):
        agent = DdpgAgent(3, SMALL, rng)
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, agent, additional_converged=True)
        twin = load_checkpoint(path, SMALL, np.random.default_rng(0))
        s = rng.normal(0, 1, 3)
        assert twin.act(s) == agent.act(s)
        assert twin.additional_converged
        assert twin.kind == "ddpg"

    def test_sac_checkpoint_round_trip(self, rng, tmp_path):
        agent = SacAgent(3, SMALL, rng)
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, agent)
        twin = load_checkpoint(path, SMALL, np.random.default_rng(0))
        s = rng.normal(0, 1, 3)
        assert twin.act(s) == agent.act(s)
