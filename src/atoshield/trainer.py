"""Training and evaluation on one episode loop over simulator, shield, tree and learners.

``_run_episode`` runs every episode of ``train``, ``execute``, ``noise_test``
and ``robustness_run``.  Per step, the policy (a plain ``s_vec -> float``
callable) proposes, the corrector ``(state, proposed, t) -> (cmd,
interventions)`` shields the proposal as ``variant_correction`` says, the
environment executes the command, and the optional learner hook
``learn(s_vec, cmd, outcome, t)`` sees the transition before the episode can
end on it.  The loop returns the metrics and each step's record
``(s_vec, cmd, outcome)``, from which training builds its elite trajectory
and the robustness study its speed, action and acceleration sequences.

Inside ``train``, each episode's additional-actor fit runs on one worker
thread, overlapped with the next episode's rollout.  Between a fit's submit
and its join only the worker touches the additional actor and its optimiser;
nothing in the rollout reads them.

One ``train`` call runs a single seed of a single agent variant; multi-seed
experiments are independent runs (safe to execute in parallel processes).
Protect times are counted exactly as the number of shield interventions, and
every executed command has passed the shield whenever the variant carries one.
"""

from __future__ import annotations

import dataclasses
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
    AgentConfig,
    additional_actor_converged,
    update_additional_actor,
)
from .drl.buffers import EliteBuffer, ReplayBuffer, Trajectory
from .search_tree import search_safe_action
from .shield import shield_filter, span_overspeed

if TYPE_CHECKING:
    from .config import ScenarioConfig

# (state, proposed, t) -> (executed command, number of shield interventions)
Corrector = Callable[[OperationState, float, int], tuple[float, int]]

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
            out = dataclasses.replace(out, done=True, arrived=False)
        return out


def normalize_state(state: OperationState, track: TrackSection) -> np.ndarray:
    """Scale (loc, vel, time) into unit-ish ranges for the networks."""
    return np.array(
        [
            state.loc / track.length,
            state.vel / track.max_limit,
            state.time / track.scheduled_time,
        ]
    )


def normalize_states(states: np.ndarray, track: TrackSection) -> np.ndarray:
    """:func:`normalize_state` of each raw ``(loc, vel, time)`` row of a ``(rows, 3)`` array."""
    return states / np.array([track.length, track.max_limit, track.scheduled_time])


def make_agent(variant: str, cfg_agent: AgentConfig, rng: np.random.Generator):
    return AGENT_KINDS[variant_base(variant)](3, cfg_agent, rng)


def _jitter_sampler(net, track: TrackSection, rng: np.random.Generator, std: float):
    """Tree sampler around a deterministic net: its command plus Gaussian jitter,
    drawn row-major over the (states, n) result."""

    def sampler(states: np.ndarray, n: int) -> np.ndarray:
        base = net.forward(normalize_states(states, track))
        return np.clip(base + rng.normal(0.0, std, (len(states), n)), -1.0, 1.0)

    return sampler


def _agent_sampler(agent, track: TrackSection):
    """Tree sampler from the agent's own batched ``sample_actions``."""
    return lambda states, n: agent.sample_actions(normalize_states(states, track), n)


def _corrector(cfg: "ScenarioConfig", env: TrainEnv, correction: str, sampler) -> Corrector:
    """The shield step of one correction kind (see :func:`variant_correction`).

    ``"none"`` executes every proposal.  Otherwise ``shield_filter`` replaces
    an unsafe proposal with ``min`` of the safe set (hardest safe braking, the
    fixed fallback) or, for ``"tree"``, with the search over ``sampler``.
    """
    if correction == "none":
        return lambda state, proposed, t: (proposed, False)

    def correct(state: OperationState, proposed: float, t: int) -> tuple[float, bool]:
        def tree(safe_set: Sequence[float]) -> float:
            return search_safe_action(
                env, cfg.safety, sampler, state, safe_set, t, cfg.search, env.prev_accel
            )

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
    learn: Callable[[np.ndarray, float, StepOutcome, int], None] | None = None,
) -> tuple[EpisodeMetrics, list[tuple[np.ndarray, float, StepOutcome]]]:
    """One episode; returns its metrics and each step's (s_vec, cmd, outcome).

    ``policy`` and ``correct`` are timed together as action selection.
    """
    track = cfg.track
    state = env.reset()
    steps: list[tuple[np.ndarray, float, StepOutcome]] = []
    select_times: list[float] = []
    protect = 0
    overspeed = 0
    t = 0
    while True:
        s_vec = normalize_state(state, track)
        tic = time.perf_counter()
        cmd, interventions = correct(state, policy(s_vec), t)
        select_times.append(time.perf_counter() - tic)
        protect += int(interventions)
        out = env.step(cmd)
        if span_overspeed(track, state.loc, state.vel, out.accel_applied,
                          out.next_state.loc, out.next_state.vel):
            overspeed += 1
        steps.append((s_vec, cmd, out))
        if learn is not None:
            learn(s_vec, cmd, out, t)
        state = out.next_state
        t += 1
        if out.done:
            break
    metrics = EpisodeMetrics(
        episode=episode,
        total_reward=float(sum(o.reward for _, _, o in steps)),
        protect_times=protect,
        overspeed_steps=overspeed,
        traction_energy_kwh=sum(o.energy_traction for _, _, o in steps),
        regen_energy_kwh=sum(o.energy_regen for _, _, o in steps),
        run_time_s=state.time,
        schedule_deviation_s=state.time - track.scheduled_time,
        arrived=out.arrived,
        action_select_mean_s=float(np.mean(select_times)),
    )
    return metrics, steps


def train(cfg: "ScenarioConfig", seed: int) -> TrainResult:
    """Run one seeded training of the configured variant on the scenario.

    Episodes run the agent's exploring ``propose`` through the variant's
    corrector.  The learner hook stores every executed transition and runs
    one learner update every t_up steps.  Each finished episode passes
    through the elite gate, and the additional actor regresses onto elite
    samples at every episode end.

    That regression runs on one worker thread, overlapped with the next
    episode's rollout: at each episode end the main thread draws all of the
    episode's elite samples from ``rng`` (in the order a sequential fit would
    draw them, since no draw depends on a fit), waits for the previous fit,
    then submits one job that runs the imitation steps in sequence.  Only the
    worker touches ``agent.additional`` and ``agent.additional_adam`` between
    a submit and its join; the last fit is joined before the convergence
    check, and a fit's exception reaches the caller at the next join.
    """
    # imported here, so that importing the package (every command's set-up)
    # does not pay for concurrent.futures, which loads logging
    from concurrent.futures import ThreadPoolExecutor

    variant = cfg.run.agent
    rng = np.random.default_rng(seed)
    agent = make_agent(variant, cfg.agent, rng)
    env = TrainEnv(cfg.train, cfg.track, cfg.reward, cfg.run.resolved_budget(cfg.track))
    replay = ReplayBuffer(cfg.agent.replay_capacity)
    elite = EliteBuffer(cfg.agent.elite_capacity)
    episodes = cfg.run.resolved_episodes(variant)
    correct = _corrector(cfg, env, variant_correction(variant), _agent_sampler(agent, cfg.track))
    noise = getattr(agent, "noise", None)

    def learn(s_vec: np.ndarray, cmd: float, out: StepOutcome, t: int) -> None:
        s2_vec = normalize_state(out.next_state, cfg.track)
        replay.push(s_vec, cmd, out.reward, s2_vec, float(out.done))
        if (t + 1) % cfg.run.t_up == 0 and len(replay) >= cfg.agent.batch_size:
            agent.update(replay.sample(cfg.agent.batch_size, rng))

    def fit_additional(samples: list[list[Trajectory]]) -> None:
        for sample in samples:
            update_additional_actor(sample, agent.additional, agent.additional_adam)

    all_metrics: list[EpisodeMetrics] = []
    with ThreadPoolExecutor(max_workers=1) as worker:
        fit = worker.submit(fit_additional, [])  # nothing to fit before the first episode
        for j in range(episodes):
            if noise is not None:
                noise.reset()
                if noise.kind == "gaussian" and episodes > 1:
                    noise.scale = cfg.agent.noise_scale * max(0.0, 1.0 - j / (episodes - 1))
            metrics, steps = _run_episode(cfg, env, agent.propose, correct, j, learn)
            elite.insert(Trajectory(
                states=np.stack([s_vec for s_vec, _, _ in steps]),
                actions=np.array([cmd for _, cmd, _ in steps]),
                rewards=np.array([o.reward for _, _, o in steps]),
                total_return=metrics.total_reward,
            ))
            samples = [elite.sample(cfg.agent.elite_minibatch, rng)
                       for _ in range(cfg.agent.additional_updates_per_episode)]
            fit.result()
            fit = worker.submit(fit_additional, samples)
            all_metrics.append(metrics)
        fit.result()

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


def _greedy_rollout(agent, cfg: "ScenarioConfig", use_additional: bool, seed: int):
    """Env, greedy policy and variant corrector for shielded runs of a trained
    agent; reseeds ``agent.rng``, which the tree's samplers draw from."""
    agent.rng = np.random.default_rng(seed)
    env = TrainEnv(cfg.train, cfg.track, cfg.reward, cfg.run.resolved_budget(cfg.track))
    if use_additional:
        noise = getattr(agent, "noise", None)
        std = noise.exploration_std() if noise is not None else 0.2
        policy = agent.act_additional
        sampler = _jitter_sampler(agent.additional, cfg.track, agent.rng, std)
    else:
        policy = agent.act
        sampler = _agent_sampler(agent, cfg.track)
    return env, policy, _corrector(cfg, env, variant_correction(cfg.run.agent), sampler)


def execute(
    agent,
    cfg: "ScenarioConfig",
    use_additional: bool = False,
    episodes: int = 10,
    seed: int = 0,
) -> list[EpisodeMetrics]:
    """Greedy shielded rollouts of a trained agent; no learning, no noise."""
    env, policy, correct = _greedy_rollout(agent, cfg, use_additional, seed)
    return [_run_episode(cfg, env, policy, correct, ep)[0] for ep in range(episodes)]


def noise_test(
    cfg: "ScenarioConfig", constant_cmd: float, episodes: int = 1, seed: int = 0
) -> list[EpisodeMetrics]:
    """Feed one constant command through the shield-and-tree path every step.

    The protect count from the all-traction probe is the transferability
    baseline: a deployed network is only credible when it needs far fewer
    interventions than the probe does.  The probe and its tree expansions
    are deterministic, so ``seed`` does not change the output.
    """
    env = TrainEnv(cfg.train, cfg.track, cfg.reward, cfg.run.resolved_budget(cfg.track))
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
    env, policy, correct = _greedy_rollout(agent, cfg, False, seed)
    _, base = _run_episode(cfg, env, policy, correct, 0)
    drng = np.random.default_rng(seed + 7919)
    env, policy, correct = _greedy_rollout(agent, cfg, False, seed)

    def disturbed(state: OperationState, proposed: float, t: int) -> tuple[float, int]:
        cmd, interventions = correct(state, proposed, t)
        if drng.random() < eps_r:
            noisy = float(np.clip(cmd + drng.uniform(-delta_r, delta_r), -1.0, 1.0))
            cmd, again = correct(state, noisy, t)
            interventions += again
        return cmd, interventions

    metrics, dist = _run_episode(cfg, env, policy, disturbed, 0)
    n = min(len(base), len(dist))

    def sequences(steps):
        """Speed, action and acceleration over the first n steps."""
        return ([out.next_state.vel for _, _, out in steps[:n]],
                [cmd for _, cmd, _ in steps[:n]],
                [out.accel_applied for _, _, out in steps[:n]])

    triple = PccTriple(*(_pcc_or_none(b, d) for b, d in zip(sequences(base), sequences(dist))))
    return metrics, triple
