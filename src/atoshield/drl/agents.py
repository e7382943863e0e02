"""Off-policy actor-critic learners and the imitation actor they distill into.

Two learner families share the picture: a deterministic actor with a Q critic
and target twins, and an entropy-regularized stochastic actor with separate
value and soft-Q heads.  Both emit commands in [-1, 1].  The additional actor
is a plain regression onto the elite buffer's stored safe actions; once it
reproduces every stored trajectory it can serve as the final policy.  Each
family is one table of its nets, ``NETS``, that one build reads (``_Agent``).

Both agents build every net in ``NET_DTYPE``, float32, and the episode loop
hands them state rows already cast to it, so a decision's forward and the
replay ring take them without a copy.  An update stays float32 from the
replay sample to ``Adam.step``: states, net inputs, activations, caches,
gradients, the SAC draws and log-probs, and the Adam state.  Only the
columns built from the float64 rewards (regression targets and errors) stay
float64, as do the losses reported; they reach a net through the cast at
``backward``'s entry.  Every command an agent hands out (``act``,
``propose``, ``act_additional``) is a Python float, and the tree casts
``sample_actions`` rows to float64, so the shield and the dynamics see the
same float64 arithmetic at any net dtype.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from ..dynamics import ARRAYS, FLOATS, Ops
from .buffers import EliteBuffer, Trajectory
from .nets import Adam, Mlp, Scratch, check_layer_sizes, soft_update

STATE_DIM = 3  # every agent net reads the normalized (loc, vel, time) state
NET_DTYPE = np.float32  # every agent net's dtype, and the episode loop's state rows'
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
    additional_actor_lr: float | None = None  # None: 5x actor_lr, in the agent build
    elite_minibatch: int = 10
    elite_capacity: int = 20
    convergence_eps: float = 1e-3
    batch_size: int = 256
    replay_capacity: int = 100_000
    hidden_sizes: tuple[int, ...] = (256, 256, 256, 256)
    additional_hidden_sizes: tuple[int, ...] | None = None  # None: hidden_sizes, in the build
    noise_scale: float = 1.0
    additional_updates_per_episode: int = 10


def critic_target(r: np.ndarray, v2: np.ndarray, d: np.ndarray, gamma: float) -> np.ndarray:
    """Bootstrapped regression target y = r + gamma * (1 - d) * V(s') from V(s')."""
    return np.asarray(r, dtype=float) + gamma * (1.0 - np.asarray(d, dtype=float)) * v2


# rows per block of a regression step: an elite sample runs to thousands of
# rows, and the layer caches and the net's scratch follow the block, not it
_REGRESS_ROWS = 256


def regress(net: Mlp, adam: Adam, x: np.ndarray, y: np.ndarray) -> float:
    """One MSE descent step of net(x)[:, 0] toward y; returns the pre-step loss.

    The rows run through ``forward_cached`` and ``backward`` in blocks of at
    most ``_REGRESS_ROWS``, each block's output gradient scaled by the whole
    row count, and the blocks' parameter gradients are summed in block order
    before one ``adam.step``.  So up to ``_REGRESS_ROWS`` rows take the
    operations of one whole-batch step, and the loss, summed in float64, has
    ``np.mean``'s value and dtype there.
    """
    n = len(y)
    grads, sq_err = None, 0.0
    for lo in range(0, n, _REGRESS_ROWS):
        rows = slice(lo, lo + _REGRESS_ROWS)
        pred, cache = net.forward_cached(x[rows])
        err = pred[:, 0] - y[rows]
        sq_err += float(np.sum(err**2))
        block = net.backward(cache, (2.0 * err / n)[:, None])
        grads = block if grads is None else np.add(grads, block, out=grads)
    adam.step(net, grads)
    return float(err.dtype.type(sq_err / n))


def update_critic(critic: Mlp, adam: Adam, s: np.ndarray, a: np.ndarray, y: np.ndarray) -> float:
    """One MSE descent step of Q(s, a) toward y; returns the pre-step loss."""
    x = np.concatenate([np.atleast_2d(s), np.reshape(a, (-1, 1))], axis=1, dtype=critic.flat.dtype)
    return regress(critic, adam, x, y)


def update_actor(actor: Mlp, adam: Adam, critic, s: np.ndarray) -> float:
    """One ascent step on mean Q(s, mu(s)); returns the pre-step objective.

    The critic only needs ``forward_cached`` and an input-only
    ``backward(..., params=False)`` that returns d(Q)/d(input) alone, so
    analytic stand-ins work in tests; its parameters are left untouched here.
    """
    s = np.atleast_2d(s)
    a, cache_a = actor.forward_cached(s)
    q, cache_q = critic.forward_cached(np.concatenate([s, a], axis=1))
    objective = float(np.mean(q[:, 0]))
    grad_in = critic.backward(cache_q, np.full_like(q, 1.0 / q.shape[0]), params=False)
    grads = actor.backward(cache_a, grad_in[:, -1:])
    adam.step(actor, np.negative(grads, out=grads))
    return objective


def gaussian_log_prob(eps: np.ndarray, log_std: np.ndarray) -> np.ndarray:
    """Log-density of u = mean + std*eps under N(mean, std^2), reparameterized."""
    return -0.5 * (eps**2 + math.log(2.0 * math.pi)) - log_std


def squashed_draw(ops: Ops, mean, raw_log_std, eps):
    """Reparameterized tanh-squashed actions from a policy's means, raw
    log-stds and unit draws: one row's numpy scalars with ``FLOATS``, or
    (rows, 1) columns with ``ARRAYS``, all in the net's dtype.  The clip
    bounds take that dtype and ``exp`` and ``tanh`` are numpy's on both, so
    a row gives the bytes of its column entry.  Returns the actions, then
    the clipped log-std and std that the log-prob and the gradients need.
    """
    bound = raw_log_std.dtype.type
    log_std = ops.minimum(ops.maximum(raw_log_std, bound(LOG_STD_MIN)), bound(LOG_STD_MAX))
    std = np.exp(log_std)
    return np.tanh(mean + std * eps), log_std, std


def squashed_sample(policy: Mlp, s: np.ndarray, rng: np.random.Generator):
    """Draw tanh-squashed actions with everything the gradients need,
    the squash slope 1 - a^2 (``dsquash``) among them."""
    out, cache = policy.forward_cached(s)
    raw = out[:, 1:2]
    eps = rng.standard_normal((out.shape[0], 1), dtype=out.dtype)
    a, log_std, std = squashed_draw(ARRAYS, out[:, 0:1], raw, eps)
    dsquash = 1.0 - a**2
    log_prob = gaussian_log_prob(eps, log_std) - np.log(dsquash + _TANH_EPS)
    clip_mask = ((raw > LOG_STD_MIN) & (raw < LOG_STD_MAX)).astype(raw.dtype)
    return a, log_prob, cache, {"dsquash": dsquash, "std": std, "eps": eps, "clip_mask": clip_mask}


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
    y_q = critic_target(r, value_target.forward(s2)[:, 0], d, cfg.gamma)
    q_loss = update_critic(softq, adams["softq"], s, a, y_q)

    # fresh squashed sample shared by the value target and the policy step
    a_new, log_prob, cache_pi, aux = squashed_sample(policy, s, rng)
    q_in = np.concatenate([s, a_new], axis=1)
    q_new, cache_q = softq.forward_cached(q_in)

    # value regression toward Q(s, a~) - alpha log pi(a~|s)
    v_loss = regress(value, adams["value"], s, q_new[:, 0] - alpha * log_prob[:, 0])

    # policy loss mean(alpha log pi - Q) through the reparameterized sample
    batch_n = s.shape[0]
    dq_da = softq.backward(cache_q, np.ones_like(q_new), params=False)[:, -1:]
    dsquash = aux["dsquash"]
    dq_du = dq_da * dsquash
    # d(-log(1 - a^2 + eps))/du, the squash correction's slope
    g_corr = 2.0 * a_new * dsquash / (dsquash + _TANH_EPS)
    du_dlogstd = aux["std"] * aux["eps"]
    dl_dmean = (alpha * g_corr - dq_du) / batch_n
    dl_draw = (alpha * (-1.0 + g_corr * du_dlogstd) - dq_du * du_dlogstd) / batch_n
    dl_draw = dl_draw * aux["clip_mask"]
    pi_loss = float(np.mean(alpha * log_prob[:, 0] - q_new[:, 0]))
    pi_grads = policy.backward(cache_pi, np.concatenate([dl_dmean, dl_draw], axis=1))
    adams["policy"].step(policy, pi_grads)

    soft_update(value_target, value, cfg.soft_tau)
    return {"softq_loss": q_loss, "value_loss": v_loss, "policy_loss": pi_loss}


def update_additional_actor(trajectories: list[Trajectory], net: Mlp, adam: Adam) -> float | None:
    """One descent step of the imitation MSE over whole sampled trajectories.

    Returns the pre-step loss, or None when there is nothing to learn from.
    """
    if not trajectories:
        return None
    states = np.concatenate([t.states for t in trajectories], axis=0, dtype=net.flat.dtype)
    return regress(net, adam, states, np.concatenate([t.actions for t in trajectories]))


def jitter_samples(net: Mlp, states: np.ndarray, n: int, rng: np.random.Generator, std: float) -> np.ndarray:
    """n proposals per state, (rows, n): the net's command plus Gaussian
    jitter of scale ``std`` drawn row-major, clipped to [-1, 1]."""
    base = net.forward(states)
    jitter = rng.normal(0.0, std, (base.shape[0], n))
    jitter += base  # float32 into float64: at the tree's row counts, cheaper than an upcast
    return np.clip(jitter, -1.0, 1.0, out=jitter)


def additional_actor_converged(elite: EliteBuffer, net: Mlp, eps: float) -> bool:
    """Whether the imitation error is strictly below eps on every stored trajectory."""
    if len(elite) == 0:
        raise ValueError("convergence is undefined on an empty elite buffer")
    for traj in elite:
        # in regression-sized blocks, so the net's scratch stays at 256 rows
        pred = np.concatenate([net.forward(traj.states[lo : lo + _REGRESS_ROWS])[:, 0]
                               for lo in range(0, len(traj), _REGRESS_ROWS)])
        if float(np.mean((traj.actions - pred) ** 2)) >= eps:
            return False
    return True


class _Agent:
    """What both learner families share: one build from the family's ``NETS``,
    its nets in build order with the additional actor last, and that actor's
    convergence flag, which training and a loaded checkpoint set.  A trained
    net's row is its (input width, output width, output activation,
    ``AgentConfig`` rate field), and it gets one ``Adam`` in ``adams``; a
    target's row names the net it copies.  The nets run one at a time and
    share one ``Scratch``."""

    additional_converged = False

    def __init__(self, cfg: AgentConfig, rng: np.random.Generator):
        self.cfg, self.rng = cfg, rng
        scratch = Scratch(NET_DTYPE)
        self.adams: dict[str, Adam] = {}
        for name, row in self.NETS.items():
            if isinstance(row, str):  # a target
                setattr(self, name, getattr(self, row).clone(scratch))
                continue
            n_in, n_out, activation, lr_field = row
            hidden = cfg.hidden_sizes
            if name == "additional" and cfg.additional_hidden_sizes is not None:
                hidden = cfg.additional_hidden_sizes
            lr = getattr(cfg, lr_field)
            if lr is None:  # the additional actor's default rate
                lr = 5.0 * cfg.actor_lr
            net = Mlp([n_in, *hidden, n_out], activation, rng, dtype=NET_DTYPE, scratch=scratch)
            setattr(self, name, net)
            self.adams[name] = Adam(net, lr)

    def act_additional(self, s_vec: np.ndarray) -> float:
        return float(self.additional.forward(s_vec)[0, 0])

    def named_nets(self) -> dict[str, Mlp]:
        return {name: getattr(self, name) for name in self.NETS}


class DdpgAgent(_Agent):
    """Deterministic policy-gradient learner that explores with Gaussian noise
    of scale ``noise_scale``, drawn from its own stream ``noise_rng``."""

    kind = "ddpg"
    NETS = {
        "actor": (STATE_DIM, 1, "tanh", "actor_lr"),
        "critic": (STATE_DIM + 1, 1, "identity", "critic_lr"),
        "actor_target": "actor",
        "critic_target": "critic",
        "additional": (STATE_DIM, 1, "tanh", "additional_actor_lr"),
    }

    def __init__(self, cfg: AgentConfig, rng: np.random.Generator):
        super().__init__(cfg, rng)
        self.noise_rng = np.random.default_rng(int(rng.integers(2**31)))
        self.noise_scale = cfg.noise_scale

    def act(self, s_vec: np.ndarray) -> float:
        return float(self.actor.forward(s_vec)[0, 0])

    def propose(self, s_vec: np.ndarray) -> float:
        """The greedy command plus one noise draw, clipped to [-1, 1]."""
        noise = self.noise_scale * float(self.noise_rng.standard_normal())
        return min(1.0, max(-1.0, self.act(s_vec) + noise))

    def sample_actions(self, states: np.ndarray, n: int) -> np.ndarray:
        """Diversified proposals for tree expansion, (rows, n): each state's
        greedy command plus Gaussian jitter drawn row-major."""
        return jitter_samples(self.actor, states, n, self.rng, max(self.noise_scale, 1e-3))

    def update(self, batch) -> dict[str, float]:
        s, a, r, s2, d = batch
        s2 = np.atleast_2d(s2)
        q2 = self.critic_target.forward(np.concatenate([s2, self.actor_target.forward(s2)], axis=1))
        y = critic_target(r, q2[:, 0], d, self.cfg.gamma)
        critic_loss = update_critic(self.critic, self.adams["critic"], s, a, y)
        actor_objective = update_actor(self.actor, self.adams["actor"], self.critic, s)
        soft_update(self.actor_target, self.actor, self.cfg.soft_tau)
        soft_update(self.critic_target, self.critic, self.cfg.soft_tau)
        return {"critic_loss": critic_loss, "actor_objective": actor_objective}


class SacAgent(_Agent):
    """Entropy-regularized stochastic learner with value and soft-Q heads."""

    kind = "sac"
    NETS = {
        "policy": (STATE_DIM, 2, "identity", "actor_lr"),
        "value": (STATE_DIM, 1, "identity", "sac_value_lr"),
        "value_target": "value",
        "softq": (STATE_DIM + 1, 1, "identity", "sac_softq_lr"),
        "additional": (STATE_DIM, 1, "tanh", "additional_actor_lr"),
    }

    def act(self, s_vec: np.ndarray) -> float:
        out = self.policy.forward(s_vec)
        return float(np.tanh(out[0, 0]))

    def propose(self, s_vec: np.ndarray) -> float:
        out = self.policy.forward(s_vec)
        # one scalar draw takes the stream's next value, as a (1, 1) draw does
        eps = self.rng.standard_normal(dtype=out.dtype)
        return float(squashed_draw(FLOATS, out[0, 0], out[0, 1], eps)[0])

    def sample_actions(self, states: np.ndarray, n: int) -> np.ndarray:
        """n squashed policy samples per state, (rows, n), drawn row-major."""
        out = self.policy.forward(np.repeat(np.atleast_2d(states), n, axis=0))
        eps = self.rng.standard_normal((out.shape[0], 1), dtype=out.dtype)
        return squashed_draw(ARRAYS, out[:, 0:1], out[:, 1:2], eps)[0].reshape(-1, n)

    def update(self, batch) -> dict[str, float]:
        return update_sac(
            self.policy, self.value, self.value_target, self.softq,
            self.adams, batch, self.cfg, self.rng,
        )


def save_checkpoint(path: str | Path, agent) -> None:
    """Portable JSON checkpoint: kind, convergence flag, every net's sizes and weights."""
    blob = {
        "format": 1,
        "kind": agent.kind,
        "additional_converged": agent.additional_converged,
        "nets": {name: net.to_dict() for name, net in agent.named_nets().items()},
    }
    Path(path).write_text(json.dumps(blob))


class CheckpointError(ValueError):
    """A checkpoint file that does not hold a loadable agent."""

    def __init__(self, path: str | Path, field: str, problem: str):
        super().__init__(f"checkpoint {path}: {field}: {problem}")


# agent class for each ``kind``, the learner family a variant trains
AGENT_KINDS = {"ddpg": DdpgAgent, "sac": SacAgent}


def load_checkpoint(path: str | Path, cfg: AgentConfig, rng: np.random.Generator):
    """Rebuild an agent from a checkpoint; stored hidden sizes win over cfg.

    The agent is built once from ``rng``, as a fresh build with the stored
    hidden sizes is, and each stored net is written into the agent's net of
    its name (``Mlp.load_dict``).  Raises CheckpointError, naming the file
    and the field, for a file that is not a format-1 checkpoint of a known
    kind, with an ``additional_converged`` of true or false (missing means
    false), holding exactly that kind's nets, each with the layer sizes
    (input ``STATE_DIM``) and activation the agent builds for it, and
    weights and biases of those sizes: numbers, finite in the agent's dtype.
    """
    try:
        blob = json.loads(Path(path).read_text())
    except ValueError as exc:
        raise CheckpointError(path, "file", f"not JSON ({exc})") from None
    if not isinstance(blob, dict):
        raise CheckpointError(path, "file", "expected a JSON object")
    if type(blob.get("format")) is not int or blob["format"] != 1:  # true and 1.0 equal 1
        raise CheckpointError(path, "format", f"expected 1, got {blob.get('format')!r}")
    kind = blob.get("kind")
    if kind not in AGENT_KINDS:
        raise CheckpointError(path, "kind", f"expected one of {sorted(AGENT_KINDS)}, got {kind!r}")
    converged = blob.get("additional_converged", False)
    if not isinstance(converged, bool):
        raise CheckpointError(path, "additional_converged",
                              f"expected true or false, got {converged!r}")
    agent_cls = AGENT_KINDS[kind]
    stored = blob.get("nets")
    if not isinstance(stored, dict) or set(stored) != set(agent_cls.NETS):
        got = sorted(stored) if isinstance(stored, dict) else stored
        raise CheckpointError(path, "nets",
                              f"kind {kind!r} needs nets {sorted(agent_cls.NETS)}, got {got!r}")

    def read(name: str, use):
        """``use(stored[name])``, a fault in it named as the net's."""
        try:
            return use(stored[name])
        except KeyError as exc:
            raise CheckpointError(path, f"nets.{name}", f"missing field {exc}") from None
        except (TypeError, ValueError, OverflowError) as exc:  # overflow: an int past float
            raise CheckpointError(path, f"nets.{name}", str(exc)) from None

    main, extra = (read(name, lambda net: tuple(check_layer_sizes(net["layer_sizes"])[1:-1]))
                   for name in (next(iter(agent_cls.NETS)), "additional"))
    agent = agent_cls(replace(cfg, hidden_sizes=main, additional_hidden_sizes=extra), rng)
    for name, net in agent.named_nets().items():
        read(name, net.load_dict)
    agent.additional_converged = converged
    return agent
