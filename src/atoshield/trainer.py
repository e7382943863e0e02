"""Training and evaluation on one episode loop over simulator, shield, tree and learners.

``_run_episode`` runs every episode of ``train``, ``execute``, ``noise_test``
and ``robustness_run``, and owns the update cadence and the live state, which
carries the command and the applied acceleration that entered it.  At step t,
the policy (a plain ``s_vec -> float`` callable) proposes, the corrector
``(state, proposed, horizon) -> (cmd, interventions)`` shields the proposal as
the variant's row of ``VARIANTS`` says, the stateless :class:`TrainEnv` steps
from the loop's state, and the optional learner hook
``learn(s_vec, cmd, outcome, s2_vec, done, update)`` sees the transition.
``horizon = -(t + 1) % t_up`` counts the steps left to the next learner update,
``update`` is ``horizon == 0`` and ``done`` ends the episode: on arrival, or at
the step budget of ``RunConfig.resolved_budget``.  Each state is normalized
once, in float64, and cast once to the agents' ``NET_DTYPE``
(:func:`normalize_state`): ``s2_vec`` is the next step's ``s_vec``, and the
policy, the learner's replay ring and ``Trajectory.states`` all take that row
as it is.  The loop returns the metrics and the episode's
:class:`~atoshield.drl.buffers.Trajectory`, which training inserts into the
elite buffer as is and the robustness study correlates column by column.

Inside ``train``, each episode's additional-actor fit runs at the episode's
end, before the next rollout starts.

One ``train`` call runs a single seed of a single agent variant; multi-seed
experiments are independent runs (safe to execute in parallel processes).
Protect times are counted exactly as the number of shield interventions, and
every executed command has passed the shield whenever the variant carries one.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from .dynamics import (
    DEFAULT_WEIGHTS,
    OperationState,
    RewardWeights,
    StepOutcome,
    TrackSection,
    TrainModel,
    step,
)
from .drl.agents import (
    AGENT_KINDS,
    NET_DTYPE,
    additional_actor_converged,
    jitter_samples,
    update_additional_actor,
)
from .drl.buffers import EliteBuffer, ReplayBuffer, Trajectory
from .search_tree import search_safe_action
from .shield import shield_filter, span_overspeed

if TYPE_CHECKING:
    from .config import ScenarioConfig

# (state, proposed, horizon) -> (executed command, shield interventions)
Corrector = Callable[[OperationState, float, int], tuple[float, int]]

# each variant's learner (an ``AGENT_KINDS`` key) and how it handles an
# unsafe proposal: tree search, the fixed chooser, or not at all
VARIANTS = {"ssa_ddpg": ("ddpg", "tree"), "ssa_sac": ("sac", "tree"),
            "shield_ddpg": ("ddpg", "chooser"), "shield_sac": ("sac", "chooser"),
            "plain_ddpg": ("ddpg", "none"), "plain_sac": ("sac", "none")}


# The most environment steps one episode may take.  ``config.load_config``
# rejects a scenario whose ``RunConfig.resolved_budget`` exceeds it, so every
# validated scenario runs episodes of bounded length (the bundled one: 330).
MAX_STEP_BUDGET = 100_000


@dataclass
class RunConfig:
    max_episodes: int | None = None  # per-variant default: 400 ddpg, 500 sac
    t_up: int = 5
    seeds: tuple[int, ...] = (0,)
    agent: str = "ssa_ddpg"
    step_budget: int | None = None  # default: 3x the scheduled step count
    execution_episodes: int = 10

    def resolved_episodes(self, variant: str | None = None) -> int:
        if self.max_episodes is not None:
            return self.max_episodes
        return 400 if VARIANTS[variant or self.agent][0] == "ddpg" else 500

    def resolved_budget(self, track: TrackSection) -> int:
        if self.step_budget is not None:
            return self.step_budget
        return int(3.0 * track.scheduled_time / track.dt)


@dataclass
class EpisodeMetrics:
    episode: int
    total_reward: float
    protect_times: int
    overspeed_steps: int
    traction_energy_kwh: float
    regen_energy_kwh: float
    run_time_s: float
    schedule_deviation_s: float
    arrived: bool
    action_select_mean_s: float


@dataclass
class TrainResult:
    agent: object
    metrics: list[EpisodeMetrics]


@dataclass(frozen=True)
class TrainEnv:
    """The environment of an episode: ``model``, ``track`` and ``weights``.

    It holds no episode state.  ``reset`` gives the start state, and ``step``
    is the pure dynamics step from the caller's state, which the episode
    loop threads.  The tree search reads the same three fields to simulate
    transitions.
    """

    model: TrainModel
    track: TrackSection
    weights: RewardWeights = DEFAULT_WEIGHTS

    def reset(self) -> OperationState:
        return OperationState()

    def step(self, state: OperationState, cmd: float) -> StepOutcome:
        return step(self.model, self.track, state, cmd, self.weights)


def normalize_states(states: np.ndarray, track: TrackSection) -> np.ndarray:
    """Scale raw ``(loc, vel, time)`` rows, or one such vector, into unit-ish
    ranges for the networks."""
    return states / np.array([track.length, track.max_limit, track.scheduled_time])


def normalize_state(state: OperationState, track: TrackSection) -> np.ndarray:
    """:func:`normalize_states` of one state's ``(loc, vel, time)`` vector,
    cast once to the agents' ``NET_DTYPE``: the row the episode loop hands
    the policy, the learner and the trajectory."""
    return normalize_states(np.array([state.loc, state.vel, state.time]), track).astype(NET_DTYPE)


def _jitter_sampler(net, track: TrackSection, rng: np.random.Generator, std: float):
    """Tree sampler around a deterministic net: :func:`jitter_samples` of the
    normalized states."""
    return lambda states, n: jitter_samples(net, normalize_states(states, track), n, rng, std)


def _agent_sampler(agent, track: TrackSection):
    """Tree sampler from the agent's own batched ``sample_actions``."""
    return lambda states, n: agent.sample_actions(normalize_states(states, track), n)


def _corrector(cfg: "ScenarioConfig", env: TrainEnv, correction: str, sampler) -> Corrector:
    """The shield step of one correction kind (see ``VARIANTS``).

    ``"none"`` executes every proposal.  Otherwise ``shield_filter`` replaces
    an unsafe proposal with ``min`` of the safe set (hardest safe braking, the
    fixed fallback) or, for ``"tree"``, with the search over ``sampler``.
    """
    if correction == "none":
        return lambda state, proposed, horizon: (proposed, 0)

    def correct(state: OperationState, proposed: float, horizon: int) -> tuple[float, int]:
        def tree(safe_set: Sequence[float]) -> float:
            return search_safe_action(env, cfg.safety, sampler, state, safe_set, horizon, cfg.search)

        return shield_filter(
            cfg.safety, cfg.train, cfg.track, state, proposed,
            tree if correction == "tree" else min, cfg.search.action_grid,
        )

    return correct


def _run_episode(
    cfg: "ScenarioConfig",
    env: TrainEnv,
    policy: Callable[[np.ndarray], float],
    correct: Corrector,
    episode: int,
    learn: Callable[[np.ndarray, float, StepOutcome, np.ndarray, bool, bool], None] | None = None,
) -> tuple[EpisodeMetrics, Trajectory]:
    """One episode, to arrival or the step budget; returns its metrics and :class:`Trajectory`.

    ``policy`` and ``correct`` are timed together as action selection.
    """
    track = cfg.track
    budget = cfg.run.resolved_budget(track)
    state = env.reset()
    states, actions, speeds, accels = [], [], [], []
    reward = traction = regen = select_s = 0.0
    protect = overspeed = t = 0
    s_vec = normalize_state(state, track)
    while True:
        horizon = -(t + 1) % cfg.run.t_up
        tic = time.perf_counter()
        cmd, interventions = correct(state, policy(s_vec), horizon)
        select_s += time.perf_counter() - tic
        protect += interventions
        out = env.step(state, cmd)
        nxt = out.next_state
        if span_overspeed(track, state.loc, state.vel, nxt.last_accel, nxt.loc, nxt.vel):
            overspeed += 1
        states.append(s_vec)
        actions.append(cmd)
        speeds.append(nxt.vel)
        accels.append(nxt.last_accel)
        reward += out.reward
        traction += out.energy_traction
        regen += out.energy_regen
        s2_vec = normalize_state(nxt, track)
        done = out.arrived or t + 1 >= budget
        if learn is not None:
            learn(s_vec, cmd, out, s2_vec, done, horizon == 0)
        state, s_vec = nxt, s2_vec
        t += 1
        if done:
            break
    metrics = EpisodeMetrics(
        episode=episode,
        total_reward=float(reward),
        protect_times=protect,
        overspeed_steps=overspeed,
        traction_energy_kwh=traction,
        regen_energy_kwh=regen,
        run_time_s=state.time,
        schedule_deviation_s=state.time - track.scheduled_time,
        arrived=out.arrived,
        action_select_mean_s=select_s / t,
    )
    return metrics, Trajectory(np.stack(states), np.array(actions), np.array(speeds),
                               np.array(accels), metrics.total_reward)


def train(cfg: "ScenarioConfig", seed: int) -> TrainResult:
    """Run one seeded training of the configured variant on the scenario.

    Episodes run the agent's exploring ``propose`` through the variant's
    corrector.  The learner hook stores every executed transition and runs one
    learner update on each step the loop marks ``update``.  Each finished
    episode passes through the elite gate, and the additional actor regresses
    onto elite samples at every episode end, each drawn from ``rng`` just
    before its fit.  A fit's error reaches the caller at the end of its own
    episode, and the convergence check after the last episode sets
    ``agent.additional_converged``.  A DDPG agent's ``noise_scale`` anneals
    linearly from the configured scale to zero over the episodes, and is reset
    to the configured one after the last, which a checkpoint loads, so the
    trained agent's tree samples spread as its checkpoint's do.
    """
    learner, correction = VARIANTS[cfg.run.agent]
    rng = np.random.default_rng(seed)
    agent = AGENT_KINDS[learner](cfg.agent, rng)
    env = TrainEnv(cfg.train, cfg.track, cfg.reward)
    replay = ReplayBuffer(cfg.agent.replay_capacity)
    elite = EliteBuffer(cfg.agent.elite_capacity)
    episodes = cfg.run.resolved_episodes()
    correct = _corrector(cfg, env, correction, _agent_sampler(agent, cfg.track))

    def learn(s_vec: np.ndarray, cmd: float, out: StepOutcome, s2_vec: np.ndarray, done: bool,
              update: bool) -> None:
        replay.push(s_vec, cmd, out.reward, s2_vec, float(done))
        if update and len(replay) >= cfg.agent.batch_size:
            agent.update(replay.sample(cfg.agent.batch_size, rng))

    all_metrics: list[EpisodeMetrics] = []
    for j in range(episodes):
        if learner == "ddpg" and episodes > 1:
            agent.noise_scale = cfg.agent.noise_scale * (1.0 - j / (episodes - 1))
        metrics, trajectory = _run_episode(cfg, env, agent.propose, correct, j, learn)
        elite.insert(trajectory)
        for _ in range(cfg.agent.additional_updates_per_episode):
            update_additional_actor(elite.sample(cfg.agent.elite_minibatch, rng),
                                    agent.additional, agent.adams["additional"])
        all_metrics.append(metrics)

    if learner == "ddpg":
        agent.noise_scale = cfg.agent.noise_scale
    agent.additional_converged = len(elite) > 0 and additional_actor_converged(
        elite, agent.additional, cfg.agent.convergence_eps
    )
    return TrainResult(agent=agent, metrics=all_metrics)


def _greedy_rollout(agent, cfg: "ScenarioConfig", use_additional: bool, seed: int):
    """Env, greedy policy and variant corrector for shielded runs of a trained
    agent; reseeds ``agent.rng``, which the tree's samplers draw from."""
    agent.rng = np.random.default_rng(seed)
    env = TrainEnv(cfg.train, cfg.track, cfg.reward)
    if use_additional:
        # SAC has no exploration scale: its additional actor jitters at 0.2
        std = getattr(agent, "noise_scale", 0.2)
        policy = agent.act_additional
        sampler = _jitter_sampler(agent.additional, cfg.track, agent.rng, std)
    else:
        policy = agent.act
        sampler = _agent_sampler(agent, cfg.track)
    return env, policy, _corrector(cfg, env, VARIANTS[cfg.run.agent][1], sampler)


def execute(
    agent,
    cfg: "ScenarioConfig",
    use_additional: bool = False,
    seed: int = 0,
) -> list[EpisodeMetrics]:
    """``run.execution_episodes`` greedy shielded rollouts of a trained agent;
    no learning, no noise."""
    env, policy, correct = _greedy_rollout(agent, cfg, use_additional, seed)
    episodes = range(cfg.run.execution_episodes)
    return [_run_episode(cfg, env, policy, correct, ep)[0] for ep in episodes]


def noise_test(
    cfg: "ScenarioConfig", constant_cmd: float, episodes: int = 1, seed: int = 0
) -> list[EpisodeMetrics]:
    """Feed one constant command through the shield-and-tree path every step.

    The protect count from the all-traction probe is the transferability
    baseline: a deployed network is only credible when it needs far fewer
    interventions than the probe does.  The probe and its tree expansions
    are deterministic, so ``seed`` does not change the output.
    """
    env = TrainEnv(cfg.train, cfg.track, cfg.reward)
    correct = _corrector(
        cfg, env, "tree", lambda states, n: np.full((len(states), n), constant_cmd)
    )
    return [
        _run_episode(cfg, env, lambda s_vec: constant_cmd, correct, ep)[0]
        for ep in range(episodes)
    ]


@dataclass
class PccTriple:
    speed: float | None
    action: float | None
    accel: float | None


def pcc(x: Sequence[float], y: Sequence[float]) -> float:
    """Sample Pearson correlation; undefined for constant or short sequences."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise ValueError("sequences must have equal length")
    if x.size < 2:
        raise ValueError("need at least two points")
    xc = x - x.mean()
    yc = y - y.mean()
    sx = float(np.sqrt(np.dot(xc, xc)))
    sy = float(np.sqrt(np.dot(yc, yc)))
    if sx == 0.0 or sy == 0.0:
        raise ValueError("zero variance makes the correlation undefined")
    return float(np.dot(xc, yc) / (sx * sy))


def _pcc_or_none(x, y) -> float | None:
    try:
        return pcc(x, y)
    except ValueError:
        return None


def robustness_run(
    agent,
    cfg: "ScenarioConfig",
    cells: list[tuple[float, float]],
    seed: int = 0,
) -> list[tuple[EpisodeMetrics, PccTriple]]:
    """Compare one disturbed execution per cell ``(eps_r, delta_r)`` against
    their undisturbed twin.

    Each final command is replaced, with probability eps_r, by itself plus
    uniform noise within +-delta_r (clipped, and shield-checked again).  The
    correlation triple covers the aligned speed, action and acceleration
    sequences, truncated to the shorter run.  The twin depends only on the
    agent, ``cfg`` and ``seed``, and every run reseeds ``agent.rng``, so the
    twin runs once for all cells and each cell's result is its result alone.
    """
    env, policy, correct = _greedy_rollout(agent, cfg, False, seed)
    _, base = _run_episode(cfg, env, policy, correct, 0)
    return [_disturbed_run(agent, cfg, base, eps_r, delta_r, seed) for eps_r, delta_r in cells]


def _disturbed_run(agent, cfg: "ScenarioConfig", base: Trajectory, eps_r: float,
                   delta_r: float, seed: int) -> tuple[EpisodeMetrics, PccTriple]:
    """One cell of :func:`robustness_run` against the twin's record ``base``."""
    drng = np.random.default_rng(seed + 7919)
    env, policy, correct = _greedy_rollout(agent, cfg, False, seed)

    def disturbed(state: OperationState, proposed: float, horizon: int) -> tuple[float, int]:
        cmd, interventions = correct(state, proposed, horizon)
        if drng.random() < eps_r:
            noisy = float(np.clip(cmd + drng.uniform(-delta_r, delta_r), -1.0, 1.0))
            cmd, again = correct(state, noisy, horizon)
            interventions += again
        return cmd, interventions

    metrics, dist = _run_episode(cfg, env, policy, disturbed, 0)
    n = min(len(base), len(dist))
    triple = PccTriple(_pcc_or_none(base.speeds[:n], dist.speeds[:n]),
                       _pcc_or_none(base.actions[:n], dist.actions[:n]),
                       _pcc_or_none(base.accels[:n], dist.accels[:n]))
    return metrics, triple
