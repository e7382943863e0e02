"""Training and evaluation loops binding simulator, shield, tree and learners.

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
    AgentConfig,
    DdpgAgent,
    SacAgent,
    additional_actor_converged,
    update_additional_actor,
)
from .drl.buffers import EliteBuffer, ReplayBuffer, Trajectory, elite_insert
from .search_tree import SearchConfig, search_safe_action
from .shield import shield_filter, span_overspeed

if TYPE_CHECKING:
    from .config import ScenarioConfig

VARIANTS = ("ssa_ddpg", "ssa_sac", "shield_ddpg", "shield_sac", "plain_ddpg", "plain_sac")


def variant_base(variant: str) -> str:
    return "sac" if variant.endswith("sac") else "ddpg"


def variant_correction(variant: str) -> str:
    """How unsafe proposals are handled: tree search, fixed chooser, or not at all."""
    if variant.startswith("ssa"):
        return "tree"
    if variant.startswith("shield"):
        return "chooser"
    return "none"


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
        return 400 if variant_base(variant or self.agent) == "ddpg" else 500

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
    variant: str
    seed: int
    agent: object
    elite: EliteBuffer
    metrics: list[EpisodeMetrics]
    rewards: list[float]
    converged: bool


class TrainEnv:
    """Episode-stateful wrapper over the pure dynamics step.

    ``step`` advances the live episode, threading the previous acceleration
    into the comfort term and enforcing the step budget.  The tree search
    reads ``model``, ``track`` and ``weights`` to simulate the same
    transitions without touching the episode.
    """

    def __init__(
        self,
        model: TrainModel,
        track: TrackSection,
        weights: RewardWeights = DEFAULT_WEIGHTS,
        step_budget: int | None = None,
    ):
        self.model = model
        self.track = track
        self.weights = weights
        self.step_budget = step_budget
        self.state = OperationState()
        self.prev_accel = 0.0
        self.steps = 0

    def reset(self) -> OperationState:
        self.state = OperationState()
        self.prev_accel = 0.0
        self.steps = 0
        return self.state

    def step(self, cmd: float) -> StepOutcome:
        out = step(self.model, self.track, self.state, cmd, self.weights, self.prev_accel)
        self.state = out.next_state
        self.prev_accel = out.accel_applied
        self.steps += 1
        if self.step_budget is not None and self.steps >= self.step_budget and not out.done:
            out = StepOutcome(
                next_state=out.next_state,
                reward=out.reward,
                energy_traction=out.energy_traction,
                energy_regen=out.energy_regen,
                accel_applied=out.accel_applied,
                done=True,
                arrived=False,
            )
        return out


class _ConstantPolicy:
    """Stand-in network that always emits one command (the noise-test probe)."""

    def __init__(self, cmd: float):
        self.cmd = cmd
        self.rng = np.random.default_rng(0)

    def act(self, s_vec) -> float:
        return self.cmd

    def propose(self, s_vec) -> float:
        return self.cmd

    def act_additional(self, s_vec) -> float:
        return self.cmd

    def sample_actions(self, states: np.ndarray, n: int) -> np.ndarray:
        return np.full((len(states), n), self.cmd)


def normalize_state(state: OperationState, track: TrackSection) -> np.ndarray:
    """Scale (loc, vel, time) into unit-ish ranges for the networks."""
    return np.array(
        [
            state.loc / track.length,
            state.vel / track.max_limit,
            state.time / track.scheduled_time,
        ]
    )


def normalize_states(states: Sequence[OperationState], track: TrackSection) -> np.ndarray:
    """:func:`normalize_state` of each state, one row per state."""
    length, top, scheduled = track.length, track.max_limit, track.scheduled_time
    return np.array([(s.loc / length, s.vel / top, s.time / scheduled) for s in states])


def make_agent(variant: str, cfg_agent: AgentConfig, rng: np.random.Generator):
    if variant_base(variant) == "ddpg":
        return DdpgAgent(3, cfg_agent, rng)
    return SacAgent(3, cfg_agent, rng)


def _jitter_sampler(net, track: TrackSection, rng: np.random.Generator, std: float):
    """Tree sampler around a deterministic net: its command plus Gaussian jitter,
    drawn row-major over the (states, n) result."""

    def sampler(states: Sequence[OperationState], n: int) -> np.ndarray:
        base = net.forward(normalize_states(states, track))
        return np.clip(base + rng.normal(0.0, std, (len(states), n)), -1.0, 1.0)

    return sampler


class _ActionSelector:
    """Proposal plus shield correction for one variant; counts interventions."""

    def __init__(self, cfg: "ScenarioConfig", env: TrainEnv, agent, variant: str, greedy: bool,
                 use_additional: bool = False):
        self.cfg = cfg
        self.env = env
        self.agent = agent
        self.correction = variant_correction(variant)
        self.greedy = greedy
        self.use_additional = use_additional
        if use_additional:
            noise = getattr(agent, "noise", None)
            std = noise.exploration_std() if noise is not None else 0.2
            self.sampler = _jitter_sampler(agent.additional, cfg.track, agent.rng, std)
        else:
            self.sampler = lambda states, n: agent.sample_actions(
                normalize_states(states, cfg.track), n
            )

    def _policy_fn(self) -> Callable:
        if self.use_additional:
            return self.agent.act_additional
        return self.agent.act

    def propose(self, s_vec: np.ndarray) -> float:
        if self.greedy or not hasattr(self.agent, "propose"):
            return self._policy_fn()(s_vec)
        if self.use_additional:
            return self.agent.act_additional(s_vec)
        return self.agent.propose(s_vec)

    def correct(self, state: OperationState, proposed: float, t: int) -> tuple[float, bool]:
        if self.correction == "none":
            return proposed, False
        if self.correction == "tree":
            def chooser(safe_set: Sequence[float]) -> float:
                return search_safe_action(
                    self.env, self.cfg.safety, self.sampler, state, safe_set,
                    t, self.cfg.search, self.env.prev_accel,
                )
        else:
            chooser = min  # hardest safe braking, the conservative fixed fallback
        return shield_filter(
            self.cfg.safety, self.cfg.train, self.cfg.track, state, proposed,
            chooser, self.cfg.search.action_grid,
        )


@dataclass
class _StepRecord:
    cmd: float
    vel: float
    accel: float


def _episode_metrics(
    episode: int,
    track: TrackSection,
    rewards: list[float],
    protect: int,
    overspeed: int,
    e_tr: float,
    e_re: float,
    final_state: OperationState,
    arrived: bool,
    select_times: list[float],
) -> EpisodeMetrics:
    return EpisodeMetrics(
        episode=episode,
        total_reward=float(sum(rewards)),
        protect_times=protect,
        overspeed_steps=overspeed,
        traction_energy_kwh=e_tr,
        regen_energy_kwh=e_re,
        run_time_s=final_state.time,
        schedule_deviation_s=final_state.time - track.scheduled_time,
        arrived=arrived,
        action_select_mean_s=float(np.mean(select_times)) if select_times else 0.0,
    )


def _run_episode(
    cfg: "ScenarioConfig",
    env: TrainEnv,
    selector: _ActionSelector,
    episode: int,
    disturbance: tuple[float, float, np.random.Generator] | None = None,
    collect: bool = False,
) -> tuple[EpisodeMetrics, list[_StepRecord]]:
    """One greedy episode under a selector; optionally perturbing final commands."""
    track = cfg.track
    state = env.reset()
    rewards: list[float] = []
    records: list[_StepRecord] = []
    select_times: list[float] = []
    protect = 0
    overspeed = 0
    e_tr = 0.0
    e_re = 0.0
    arrived = False
    t = 0
    while True:
        s_vec = normalize_state(state, track)
        tic = time.perf_counter()
        proposed = selector.propose(s_vec)
        cmd, intervened = selector.correct(state, proposed, t)
        select_times.append(time.perf_counter() - tic)
        protect += int(intervened)
        if disturbance is not None:
            eps_r, delta_r, drng = disturbance
            if drng.random() < eps_r:
                disturbed = float(np.clip(cmd + drng.uniform(-delta_r, delta_r), -1.0, 1.0))
                cmd, re_intervened = selector.correct(state, disturbed, t)
                protect += int(re_intervened)
        out = env.step(cmd)
        if span_overspeed(track, state.loc, state.vel, out.accel_applied,
                          out.next_state.loc, out.next_state.vel):
            overspeed += 1
        rewards.append(out.reward)
        e_tr += out.energy_traction
        e_re += out.energy_regen
        if collect:
            records.append(_StepRecord(cmd=cmd, vel=out.next_state.vel, accel=out.accel_applied))
        state = out.next_state
        t += 1
        if out.done:
            arrived = out.arrived
            break
    metrics = _episode_metrics(
        episode, track, rewards, protect, overspeed, e_tr, e_re, state, arrived, select_times
    )
    return metrics, records


def train(cfg: "ScenarioConfig", seed: int) -> TrainResult:
    """Run one seeded training of the configured variant on the scenario.

    Per step: propose with exploration, shield-check, correct unsafe proposals
    per the variant, store the executed transition; every t_up steps run the
    learner updates.  Completed episodes pass through the elite gate, and the
    additional actor regresses onto elite samples at every episode end.
    """
    variant = cfg.run.agent
    rng = np.random.default_rng(seed)
    agent = make_agent(variant, cfg.agent, rng)
    env = TrainEnv(cfg.train, cfg.track, cfg.reward, cfg.run.resolved_budget(cfg.track))
    replay = ReplayBuffer(cfg.agent.replay_capacity)
    elite = EliteBuffer(cfg.agent.elite_capacity)
    episodes = cfg.run.resolved_episodes(variant)
    t_up = cfg.run.t_up
    selector = _ActionSelector(cfg, env, agent, variant, greedy=False)
    all_metrics: list[EpisodeMetrics] = []
    noise = getattr(agent, "noise", None)

    for j in range(episodes):
        if noise is not None:
            noise.reset()
            if noise.kind == "gaussian" and episodes > 1:
                noise.scale = cfg.agent.noise_scale * max(0.0, 1.0 - j / (episodes - 1))

        track = cfg.track
        state = env.reset()
        ep_rewards: list[float] = []
        traj_states: list[np.ndarray] = []
        traj_actions: list[float] = []
        select_times: list[float] = []
        protect = 0
        overspeed = 0
        e_tr = 0.0
        e_re = 0.0
        arrived = False
        t = 0
        while True:
            s_vec = normalize_state(state, track)
            tic = time.perf_counter()
            proposed = selector.propose(s_vec)
            cmd, intervened = selector.correct(state, proposed, t)
            select_times.append(time.perf_counter() - tic)
            protect += int(intervened)
            out = env.step(cmd)
            if span_overspeed(track, state.loc, state.vel, out.accel_applied,
                              out.next_state.loc, out.next_state.vel):
                overspeed += 1
            s2_vec = normalize_state(out.next_state, track)
            replay.push(s_vec, cmd, out.reward, s2_vec, float(out.done))
            ep_rewards.append(out.reward)
            traj_states.append(s_vec)
            traj_actions.append(cmd)
            e_tr += out.energy_traction
            e_re += out.energy_regen
            state = out.next_state
            t += 1
            if t % t_up == 0 and len(replay) >= cfg.agent.batch_size:
                agent.update(replay.sample(cfg.agent.batch_size, rng))
            if out.done:
                arrived = out.arrived
                break

        traj = Trajectory(
            states=np.stack(traj_states),
            actions=np.array(traj_actions),
            rewards=np.array(ep_rewards),
            total_return=float(sum(ep_rewards)),
        )
        elite_insert(elite, traj)
        for _ in range(cfg.agent.additional_updates_per_episode):
            sample = elite.sample(cfg.agent.elite_minibatch, rng)
            update_additional_actor(sample, agent.additional, agent.additional_adam)

        all_metrics.append(
            _episode_metrics(j, track, ep_rewards, protect, overspeed, e_tr, e_re,
                             state, arrived, select_times)
        )

    converged = len(elite) > 0 and additional_actor_converged(
        elite, agent.additional, cfg.agent.convergence_eps
    )
    return TrainResult(
        variant=variant,
        seed=seed,
        agent=agent,
        elite=elite,
        metrics=all_metrics,
        rewards=[m.total_reward for m in all_metrics],
        converged=converged,
    )


def _execute_impl(
    agent,
    cfg: "ScenarioConfig",
    use_additional: bool,
    episodes: int,
    seed: int,
    collect: bool,
    disturbance: tuple[float, float, np.random.Generator] | None = None,
) -> tuple[list[EpisodeMetrics], list[list[_StepRecord]]]:
    agent.rng = np.random.default_rng(seed)
    env = TrainEnv(cfg.train, cfg.track, cfg.reward, cfg.run.resolved_budget(cfg.track))
    selector = _ActionSelector(cfg, env, agent, cfg.run.agent, greedy=True,
                               use_additional=use_additional)
    metrics = []
    sequences = []
    for ep in range(episodes):
        m, records = _run_episode(cfg, env, selector, ep, disturbance=disturbance, collect=collect)
        metrics.append(m)
        sequences.append(records)
    return metrics, sequences


def execute(
    agent,
    cfg: "ScenarioConfig",
    use_additional: bool = False,
    episodes: int = 10,
    seed: int = 0,
) -> list[EpisodeMetrics]:
    """Greedy shielded rollouts of a trained agent; no learning, no noise."""
    metrics, _ = _execute_impl(agent, cfg, use_additional, episodes, seed, collect=False)
    return metrics


def noise_test(
    cfg: "ScenarioConfig", constant_cmd: float, episodes: int = 1, seed: int = 0
) -> list[EpisodeMetrics]:
    """Feed one constant command through the shield-and-tree path every step.

    The protect count from the all-traction probe is the transferability
    baseline: a deployed network is only credible when it needs far fewer
    interventions than the probe does.
    """
    probe = _ConstantPolicy(constant_cmd)
    probe.rng = np.random.default_rng(seed)
    env = TrainEnv(cfg.train, cfg.track, cfg.reward, cfg.run.resolved_budget(cfg.track))
    selector = _ActionSelector(cfg, env, probe, "ssa_ddpg", greedy=True)
    out = []
    for ep in range(episodes):
        m, _ = _run_episode(cfg, env, selector, ep)
        out.append(m)
    return out


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
    eps_r: float,
    delta_r: float,
    seed: int = 0,
) -> tuple[EpisodeMetrics, PccTriple]:
    """Compare one disturbed execution against its undisturbed twin.

    Each final command is replaced, with probability eps_r, by itself plus
    uniform noise within +-delta_r (clipped, and shield-checked again).  The
    correlation triple covers the aligned speed, action and acceleration
    sequences, truncated to the shorter run.
    """
    _, base_seq = _execute_impl(agent, cfg, False, 1, seed, collect=True)
    drng = np.random.default_rng(seed + 7919)
    dist_metrics, dist_seq = _execute_impl(
        agent, cfg, False, 1, seed, collect=True,
        disturbance=(eps_r, delta_r, drng),
    )
    base, dist = base_seq[0], dist_seq[0]
    n = min(len(base), len(dist))
    triple = PccTriple(
        speed=_pcc_or_none([r.vel for r in base[:n]], [r.vel for r in dist[:n]]),
        action=_pcc_or_none([r.cmd for r in base[:n]], [r.cmd for r in dist[:n]]),
        accel=_pcc_or_none([r.accel for r in base[:n]], [r.accel for r in dist[:n]]),
    )
    return dist_metrics[0], triple
