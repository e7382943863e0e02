"""Off-policy actor-critic learners and the imitation actor they distill into.

Two learner families share the picture: a deterministic actor with a Q critic
and target twins, and an entropy-regularized stochastic actor with separate
value and soft-Q heads.  Both emit commands in [-1, 1].  The additional actor
is a plain regression onto the elite buffer's stored safe actions; once it
reproduces every stored trajectory it can serve as the final policy.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .buffers import EliteBuffer, Trajectory
from .nets import Adam, Mlp, soft_update
from .noise import NoiseProcess, act, act_with_noise

LOG_STD_MIN = -20.0
LOG_STD_MAX = 2.0
_TANH_EPS = 1e-6


@dataclass
class AgentConfig:
    gamma: float = 0.99
    actor_lr: float = 1e-5
    critic_lr: float = 1e-3
    soft_tau: float = 1e-2
    sac_value_lr: float = 1e-3
    sac_softq_lr: float = 3e-5
    entropy_alpha: float = 0.2
    additional_actor_lr: float | None = None  # defaults to 5x the actor rate
    elite_minibatch: int = 10
    elite_capacity: int = 20
    convergence_eps: float = 1e-3
    batch_size: int = 256
    replay_capacity: int = 100_000
    hidden_sizes: tuple[int, ...] = (256, 256, 256, 256)
    additional_hidden_sizes: tuple[int, ...] | None = None
    noise_kind: str = "ou"
    ou_theta: float = 0.15
    ou_sigma: float = 0.2
    noise_scale: float = 1.0
    additional_updates_per_episode: int = 10

    def resolved_additional_lr(self) -> float:
        return self.additional_actor_lr if self.additional_actor_lr is not None else 5.0 * self.actor_lr

    def resolved_additional_hidden(self) -> tuple[int, ...]:
        return self.additional_hidden_sizes if self.additional_hidden_sizes is not None else tuple(self.hidden_sizes)


def critic_target(r: np.ndarray, s2: np.ndarray, d: np.ndarray, target_nets, gamma: float) -> np.ndarray:
    """Bootstrapped regression target y = r + gamma * (1 - d) * V(s').

    ``target_nets`` is an (actor_target, critic_target) pair for the
    deterministic learner, where V(s') = Q(s', mu(s')), or a lone value net
    for the entropy-regularized one, which folds the entropy bonus into V.
    """
    r = np.asarray(r, dtype=float)
    d = np.asarray(d, dtype=float)
    if isinstance(target_nets, tuple):
        actor_t, critic_t = target_nets
        a2 = actor_t.forward(s2)
        v2 = critic_t.forward(np.concatenate([np.atleast_2d(s2), a2], axis=1))[:, 0]
    else:
        v2 = target_nets.forward(s2)[:, 0]
    return r + gamma * (1.0 - d) * v2


def update_critic(critic: Mlp, adam: Adam, s: np.ndarray, a: np.ndarray, y: np.ndarray) -> float:
    """One MSE descent step of Q(s, a) toward y; returns the pre-step loss."""
    a = np.asarray(a, dtype=float).reshape(-1, 1)
    q, cache = critic.forward_cached(np.concatenate([np.atleast_2d(s), a], axis=1))
    err = q[:, 0] - y
    loss = float(np.mean(err**2))
    grads, _ = critic.backward(cache, (2.0 * err / err.size)[:, None])
    adam.step(critic, grads)
    return loss


def _negate(param_grads):
    return [(-gw, -gb) for gw, gb in param_grads]


def update_actor(actor: Mlp, adam: Adam, critic, s: np.ndarray) -> float:
    """One ascent step on mean Q(s, mu(s)); returns the pre-step objective.

    The critic only needs ``forward_cached`` and ``backward``, so analytic
    stand-ins work in tests; its parameters are left untouched here.
    """
    s = np.atleast_2d(s)
    a, cache_a = actor.forward_cached(s)
    q, cache_q = critic.forward_cached(np.concatenate([s, a], axis=1))
    objective = float(np.mean(q[:, 0]))
    _, grad_in = critic.backward(cache_q, np.full_like(q, 1.0 / q.shape[0]))
    grads, _ = actor.backward(cache_a, grad_in[:, -1:])
    adam.step(actor, _negate(grads))
    return objective


def gaussian_log_prob(eps: np.ndarray, log_std: np.ndarray) -> np.ndarray:
    """Log-density of u = mean + std*eps under N(mean, std^2), reparameterized."""
    return -0.5 * (eps**2 + np.log(2.0 * np.pi)) - log_std


def squashed_sample(policy: Mlp, s: np.ndarray, rng: np.random.Generator):
    """Draw tanh-squashed actions with everything the gradients need."""
    out, cache = policy.forward_cached(s)
    mean = out[:, 0:1]
    raw = out[:, 1:2]
    log_std = np.clip(raw, LOG_STD_MIN, LOG_STD_MAX)
    std = np.exp(log_std)
    eps = rng.standard_normal(mean.shape)
    u = mean + std * eps
    a = np.tanh(u)
    log_prob = gaussian_log_prob(eps, log_std) - np.log(1.0 - a**2 + _TANH_EPS)
    clip_mask = ((raw > LOG_STD_MIN) & (raw < LOG_STD_MAX)).astype(float)
    return a, log_prob, cache, {
        "a": a, "std": std, "eps": eps, "clip_mask": clip_mask,
    }


def update_sac(
    policy: Mlp,
    value: Mlp,
    value_target: Mlp,
    softq: Mlp,
    adams: dict[str, Adam],
    batch,
    cfg: AgentConfig,
    rng: np.random.Generator,
) -> dict[str, float]:
    """One round of soft-Q, value and policy updates plus the target blend.

    With ``entropy_alpha`` = 0 the policy objective degenerates to expected Q,
    i.e. the deterministic learner's ascent on the squashed mean path.
    """
    s, a, r, s2, d = batch
    alpha = cfg.entropy_alpha

    # soft-Q regression toward r + gamma (1 - d) V_target(s')
    y_q = critic_target(r, s2, d, value_target, cfg.gamma)
    q_loss = update_critic(softq, adams["softq"], s, a, y_q)

    # fresh squashed sample shared by the value target and the policy step
    a_new, log_prob, cache_pi, aux = squashed_sample(policy, s, rng)
    q_in = np.concatenate([s, a_new], axis=1)
    q_new, cache_q = softq.forward_cached(q_in)

    # value regression toward Q(s, a~) - alpha log pi(a~|s)
    y_v = q_new[:, 0] - alpha * log_prob[:, 0]
    v_out, cache_v = value.forward_cached(s)
    v_err = v_out[:, 0] - y_v
    v_loss = float(np.mean(v_err**2))
    v_grads, _ = value.backward(cache_v, (2.0 * v_err / v_err.size)[:, None])
    adams["value"].step(value, v_grads)

    # policy loss mean(alpha log pi - Q) through the reparameterized sample
    batch_n = s.shape[0]
    _, dq_in = softq.backward(cache_q, np.ones_like(q_new))
    dq_da = dq_in[:, -1:]
    a_sq = aux["a"]
    dsquash = 1.0 - a_sq**2
    # d(-log(1 - a^2 + eps))/du, the squash correction's slope
    g_corr = 2.0 * a_sq * dsquash / (1.0 - a_sq**2 + _TANH_EPS)
    du_dlogstd = aux["std"] * aux["eps"]
    dl_dmean = (alpha * g_corr - dq_da * dsquash) / batch_n
    dl_draw = (alpha * (-1.0 + g_corr * du_dlogstd) - dq_da * dsquash * du_dlogstd) / batch_n
    dl_draw = dl_draw * aux["clip_mask"]
    pi_loss = float(np.mean(alpha * log_prob[:, 0] - q_new[:, 0]))
    pi_grads, _ = policy.backward(cache_pi, np.concatenate([dl_dmean, dl_draw], axis=1))
    adams["policy"].step(policy, pi_grads)

    soft_update(value_target, value, cfg.soft_tau)
    return {"softq_loss": q_loss, "value_loss": v_loss, "policy_loss": pi_loss}


def update_additional_actor(trajectories: list[Trajectory], net: Mlp, adam: Adam) -> float | None:
    """One descent step of the imitation MSE over whole sampled trajectories.

    Returns the pre-step loss, or None when there is nothing to learn from.
    """
    if not trajectories:
        return None
    s = np.concatenate([t.states for t in trajectories], axis=0)
    a = np.concatenate([t.actions for t in trajectories])[:, None]
    pred, cache = net.forward_cached(s)
    err = pred - a
    loss = float(np.mean(err**2))
    grads, _ = net.backward(cache, 2.0 * err / err.size)
    adam.step(net, grads)
    return loss


def additional_actor_converged(elite: EliteBuffer, net: Mlp, eps: float) -> bool:
    """Whether the imitation error is strictly below eps on every stored trajectory."""
    if len(elite) == 0:
        raise ValueError("convergence is undefined on an empty elite buffer")
    for traj in elite:
        pred = net.forward(traj.states)[:, 0]
        if float(np.mean((traj.actions - pred) ** 2)) >= eps:
            return False
    return True


class DdpgAgent:
    """Deterministic policy-gradient learner with OU/Gaussian exploration."""

    kind = "ddpg"

    def __init__(self, state_dim: int, cfg: AgentConfig, rng: np.random.Generator):
        self.cfg = cfg
        self.rng = rng
        hidden = list(cfg.hidden_sizes)
        self.actor = Mlp([state_dim, *hidden, 1], "tanh", rng)
        self.critic = Mlp([state_dim + 1, *hidden, 1], "identity", rng)
        self.actor_target = self.actor.clone()
        self.critic_target = self.critic.clone()
        self.additional = Mlp([state_dim, *cfg.resolved_additional_hidden(), 1], "tanh", rng)
        self.actor_adam = Adam(self.actor, cfg.actor_lr)
        self.critic_adam = Adam(self.critic, cfg.critic_lr)
        self.additional_adam = Adam(self.additional, cfg.resolved_additional_lr())
        self.noise = NoiseProcess(
            kind=cfg.noise_kind, ou_theta=cfg.ou_theta, ou_sigma=cfg.ou_sigma,
            scale=cfg.noise_scale, seed=int(rng.integers(2**31)),
        )

    def act(self, s_vec: np.ndarray) -> float:
        return act(self.actor, s_vec)

    def propose(self, s_vec: np.ndarray) -> float:
        return act_with_noise(self.actor, s_vec, self.noise)

    def sample_actions(self, states: np.ndarray, n: int) -> np.ndarray:
        """Diversified proposals for tree expansion, (rows, n): each state's
        greedy command plus Gaussian jitter drawn row-major."""
        base = self.actor.forward(states)
        jitter = self.rng.normal(0.0, max(self.noise.exploration_std(), 1e-3), (base.shape[0], n))
        return np.clip(base + jitter, -1.0, 1.0)

    def act_additional(self, s_vec: np.ndarray) -> float:
        return act(self.additional, s_vec)

    def update(self, batch) -> dict[str, float]:
        s, a, r, s2, d = batch
        y = critic_target(r, s2, d, (self.actor_target, self.critic_target), self.cfg.gamma)
        critic_loss = update_critic(self.critic, self.critic_adam, s, a, y)
        actor_objective = update_actor(self.actor, self.actor_adam, self.critic, s)
        soft_update(self.actor_target, self.actor, self.cfg.soft_tau)
        soft_update(self.critic_target, self.critic, self.cfg.soft_tau)
        return {"critic_loss": critic_loss, "actor_objective": actor_objective}

    def named_nets(self) -> dict[str, Mlp]:
        return {
            "actor": self.actor,
            "critic": self.critic,
            "actor_target": self.actor_target,
            "critic_target": self.critic_target,
            "additional": self.additional,
        }


class SacAgent:
    """Entropy-regularized stochastic learner with value and soft-Q heads."""

    kind = "sac"

    def __init__(self, state_dim: int, cfg: AgentConfig, rng: np.random.Generator):
        self.cfg = cfg
        self.rng = rng
        hidden = list(cfg.hidden_sizes)
        self.policy = Mlp([state_dim, *hidden, 2], "identity", rng)
        self.value = Mlp([state_dim, *hidden, 1], "identity", rng)
        self.value_target = self.value.clone()
        self.softq = Mlp([state_dim + 1, *hidden, 1], "identity", rng)
        self.additional = Mlp([state_dim, *cfg.resolved_additional_hidden(), 1], "tanh", rng)
        self.adams = {
            "policy": Adam(self.policy, cfg.actor_lr),
            "value": Adam(self.value, cfg.sac_value_lr),
            "softq": Adam(self.softq, cfg.sac_softq_lr),
        }
        self.additional_adam = Adam(self.additional, cfg.resolved_additional_lr())

    def act(self, s_vec: np.ndarray) -> float:
        out = self.policy.forward(s_vec)
        return float(np.tanh(out[0, 0]))

    def propose(self, s_vec: np.ndarray) -> float:
        a, _, _, _ = squashed_sample(self.policy, np.atleast_2d(s_vec), self.rng)
        return float(a[0, 0])

    def sample_actions(self, states: np.ndarray, n: int) -> np.ndarray:
        """n squashed policy samples per state, (rows, n), drawn row-major."""
        s = np.repeat(np.atleast_2d(states), n, axis=0)
        a, _, _, _ = squashed_sample(self.policy, s, self.rng)
        return a[:, 0].reshape(-1, n)

    def act_additional(self, s_vec: np.ndarray) -> float:
        return act(self.additional, s_vec)

    def update(self, batch) -> dict[str, float]:
        return update_sac(
            self.policy, self.value, self.value_target, self.softq,
            self.adams, batch, self.cfg, self.rng,
        )

    def named_nets(self) -> dict[str, Mlp]:
        return {
            "policy": self.policy,
            "value": self.value,
            "value_target": self.value_target,
            "softq": self.softq,
            "additional": self.additional,
        }


def save_checkpoint(path: str | Path, agent, additional_converged: bool = False) -> None:
    """Portable JSON checkpoint: agent kind plus every net's sizes and weights."""
    blob = {
        "format": 1,
        "kind": agent.kind,
        "additional_converged": bool(additional_converged),
        "nets": {name: net.to_dict() for name, net in agent.named_nets().items()},
    }
    Path(path).write_text(json.dumps(blob))


def load_checkpoint(path: str | Path, cfg: AgentConfig, rng: np.random.Generator):
    """Rebuild an agent from a checkpoint; stored layer sizes win over cfg."""
    blob = json.loads(Path(path).read_text())
    nets = {name: Mlp.from_dict(d) for name, d in blob["nets"].items()}
    state_dim = next(iter(nets.values())).layer_sizes[0]
    if blob["kind"] == "ddpg":
        agent = DdpgAgent(state_dim, cfg, rng)
    elif blob["kind"] == "sac":
        agent = SacAgent(state_dim, cfg, rng)
    else:
        raise ValueError(f"unknown agent kind {blob['kind']!r} in checkpoint")
    for name, net in nets.items():
        current = agent.named_nets()[name]
        current.layer_sizes = net.layer_sizes
        current.weights = net.weights
        current.biases = net.biases
        current.output_activation = net.output_activation
    # optimizer moments were sized for the config nets; rebuild for the loaded ones
    if blob["kind"] == "ddpg":
        agent.actor_adam = Adam(agent.actor, cfg.actor_lr)
        agent.critic_adam = Adam(agent.critic, cfg.critic_lr)
    else:
        agent.adams = {
            "policy": Adam(agent.policy, cfg.actor_lr),
            "value": Adam(agent.value, cfg.sac_value_lr),
            "softq": Adam(agent.softq, cfg.sac_softq_lr),
        }
    agent.additional_adam = Adam(agent.additional, cfg.resolved_additional_lr())
    agent.additional_converged = bool(blob.get("additional_converged", False))
    return agent
