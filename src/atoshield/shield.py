"""Runtime action shield: speed-band labelling, safety checks and safe sets.

A proposed command is safe when (a) one simulated control interval keeps the
speed inside the posted band at every traversed position, (b) it does not jump
directly between traction and braking when that transition is forbidden, and
(c) the successor state is recoverable: a maximal service-braking trajectory
from it clears every downstream limit.  The trajectory ends at its first
provably clear state, one at or below every downstream limit on a track where
unpowered motion never speeds up, since braking on from there only slows the
train; otherwise it ends at a stop, at the section end or at an overspeed.
Recoverability is the computable stand-in for the winning region of the
underlying safety game.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from .dynamics import (
    KMH_PER_MPS,
    BatchOutcome,
    Condition,
    OperationState,
    StepOutcome,
    TrackSection,
    TrainModel,
    condition_of,
    davis_resistance_accel,
    limit_at,
    limits_at,
    step,
    step_batch,
)

FULL_BRAKING = -1.0
_RECOVERY_STEP_CAP = 100_000


class Label(str, Enum):
    BELOW_MIN = "below_min"
    IN_BAND = "in_band"
    OVER_LIMIT = "over_limit"


class Rule(str, Enum):
    OVERSPEED = "overspeed"
    UNDERSPEED = "underspeed"
    REVERSAL = "reversal"
    UNRECOVERABLE = "unrecoverable"


@dataclass(frozen=True)
class SafetySpec:
    """Configured safety rules layered over the track's posted limits."""

    min_speed: float = 0.0  # km/h, mid-section floor
    enforce_min_speed: bool = False
    forbid_direct_reversal: bool = False
    # metres from the section end where the floor is waived so the train can
    # stop; None means "derive from the braking distance" at config load
    terminal_zone: float | None = None


@dataclass(frozen=True)
class ShieldVerdict:
    safe: bool
    violated_rule: Rule | None = None


SAFE = ShieldVerdict(True, None)


class UnrecoverableStateError(RuntimeError):
    """No command in the candidate grid is safe; an upstream invariant broke."""


def default_terminal_zone(model: TrainModel, track: TrackSection) -> float:
    """Braking distance from the schedule-implied mean speed, plus 50 m slack."""
    v = track.mean_speed_target  # m/s
    return v * v / (2.0 * model.max_decel) + 50.0


def floor_applies(spec: SafetySpec, track: TrackSection, loc: float) -> bool:
    if not spec.enforce_min_speed:
        return False
    if spec.terminal_zone is None:
        raise ValueError("terminal_zone must be resolved before enforcing the floor")
    return loc < track.length - spec.terminal_zone


def label(spec: SafetySpec, track: TrackSection, state: OperationState) -> Label:
    """Observer mapping a state onto the speed band; the limit is inclusive."""
    if state.vel > limit_at(track, state.loc):
        return Label.OVER_LIMIT
    if floor_applies(spec, track, state.loc) and state.vel <= spec.min_speed:
        return Label.BELOW_MIN
    return Label.IN_BAND


def span_overspeed(
    track: TrackSection,
    start_loc: float,
    start_vel: float,
    accel: float,
    end_loc: float,
    end_vel: float,
) -> bool:
    """Whether speed exceeds the posted limit anywhere on a traversed span.

    Within one control interval acceleration is constant, so the speed when
    crossing a limit boundary at distance d is sqrt(v0^2 + 2 a d).  Speed is
    monotone inside each segment, which makes the boundary crossings and the
    endpoint the only places a violation can first appear.
    """
    if end_vel > limit_at(track, min(end_loc, track.length)):
        return True
    if end_loc <= start_loc:
        return False
    v0 = start_vel / KMH_PER_MPS
    for seg_start, _, seg_limit in track.limit_segments:
        if start_loc < seg_start <= end_loc and seg_start <= track.length:
            v_cross_sq = v0 * v0 + 2.0 * accel * (seg_start - start_loc)
            if v_cross_sq <= 0.0:
                continue
            if math.sqrt(v_cross_sq) * KMH_PER_MPS > seg_limit:
                return True
    return False


def _step_violates_limits(state: OperationState, outcome: StepOutcome, track: TrackSection) -> bool:
    return span_overspeed(
        track, state.loc, state.vel, outcome.accel_applied,
        outcome.next_state.loc, outcome.next_state.vel,
    )


def _min_downstream_limit(track: TrackSection, loc: float) -> float:
    lowest = math.inf
    for _, end, lim in track.limit_segments:
        if end > loc and lim < lowest:
            lowest = lim
    return lowest


def _never_accelerates_unpowered(model: TrainModel, track: TrackSection) -> bool:
    # On a no-steep-slope track, standstill resistance dominates every grade,
    # so coasting and braking speeds are nonincreasing at any speed.
    max_grade = max(g for _, _, g in track.grade_segments)
    return davis_resistance_accel(model, 0.0) >= max_grade


def brake_recoverable(
    spec: SafetySpec, model: TrainModel, track: TrackSection, state: OperationState
) -> bool:
    """Whether full braking from a state clears every downstream limit.

    When direct reversals are forbidden and the state was just produced by
    traction, braking is not immediately available, so the recovery trajectory
    coasts for one interval first.  When unpowered motion never speeds up on
    the track, the trajectory ends at its first state, the given one
    included, at or below every downstream limit: braking only slows the
    train from there, so rolling on to a stop would give the same verdict.
    The recovery only answers for speed limits; the floor and transition
    rules are one-step concerns.
    """
    clear = _never_accelerates_unpowered(model, track)
    current = state
    coast = spec.forbid_direct_reversal and current.last_condition is Condition.TRACTION
    steps = 0
    while not (clear and current.vel <= _min_downstream_limit(track, current.loc)):
        if not coast and (current.vel <= 0.0 or current.loc >= track.length):
            return True
        if steps == _RECOVERY_STEP_CAP:
            raise RuntimeError("braking trajectory failed to terminate")
        out = step(model, track, current, 0.0 if coast else FULL_BRAKING)
        if _step_violates_limits(current, out, track):
            return False
        current, coast, steps = out.next_state, False, steps + 1
    return True


def _reversal_violated(spec: SafetySpec, state: OperationState, cmd: float) -> bool:
    if not spec.forbid_direct_reversal:
        return False
    proposed = condition_of(cmd)
    if state.last_condition is Condition.TRACTION and proposed is Condition.BRAKING:
        return True
    if state.last_condition is Condition.BRAKING and proposed is Condition.TRACTION:
        return True
    return False


def is_safe(
    spec: SafetySpec,
    model: TrainModel,
    track: TrackSection,
    state: OperationState,
    cmd: float,
) -> ShieldVerdict:
    """Certify one command from one state against all configured rules."""
    if _reversal_violated(spec, state, cmd):
        return ShieldVerdict(False, Rule.REVERSAL)
    out = step(model, track, state, cmd)
    if _step_violates_limits(state, out, track):
        return ShieldVerdict(False, Rule.OVERSPEED)
    nxt = out.next_state
    if (
        not out.arrived
        and floor_applies(spec, track, nxt.loc)
        and nxt.vel <= spec.min_speed
    ):
        return ShieldVerdict(False, Rule.UNDERSPEED)
    if not brake_recoverable(spec, model, track, nxt):
        return ShieldVerdict(False, Rule.UNRECOVERABLE)
    return SAFE


def _span_overspeed_batch(
    track: TrackSection,
    start_loc: np.ndarray,
    start_vel: np.ndarray,
    accel: np.ndarray,
    end_loc: np.ndarray,
    end_vel: np.ndarray,
) -> np.ndarray:
    """:func:`span_overspeed` over arrays of spans."""
    over = end_vel > limits_at(track, np.minimum(end_loc, track.length))
    v0 = start_vel / KMH_PER_MPS
    for seg_start, _, seg_limit in track.limit_segments:
        if seg_start > track.length:
            continue
        rows = np.flatnonzero((start_loc < seg_start) & (seg_start <= end_loc))
        if rows.size == 0:
            continue
        v_cross_sq = v0[rows] * v0[rows] + 2.0 * accel[rows] * (seg_start - start_loc[rows])
        too_fast = np.sqrt(np.maximum(v_cross_sq, 0.0)) * KMH_PER_MPS > seg_limit
        over[rows[(v_cross_sq > 0.0) & too_fast]] = True
    return over


def _brake_recoverable_batch(
    spec: SafetySpec,
    model: TrainModel,
    track: TrackSection,
    loc: np.ndarray,
    vel: np.ndarray,
    after_traction: np.ndarray,
) -> np.ndarray:
    """:func:`brake_recoverable` over arrays of states.

    The rows follow their trajectories together, one array step per interval.
    A row leaves the loop where the scalar rollout ends: recovered at its
    first provably clear state, at a stop or at the section end, or failed at
    its first overspeed.
    """
    clear = _never_accelerates_unpowered(model, track)
    ok = np.zeros(loc.shape, dtype=bool)
    rows = np.arange(loc.size)
    coast = after_traction & spec.forbid_direct_reversal
    steps = 0
    while True:
        done = ~coast & ((vel <= 0.0) | (loc >= track.length))
        if clear:
            lowest = np.full(loc.shape, math.inf)
            for _, end, lim in track.limit_segments:
                lowest = np.where(end > loc, np.minimum(lowest, lim), lowest)
            done |= vel <= lowest
        ok[rows[done]] = True
        rows, loc, vel, coast = rows[~done], loc[~done], vel[~done], coast[~done]
        if rows.size == 0:
            return ok
        if steps == _RECOVERY_STEP_CAP:
            raise RuntimeError("braking trajectory failed to terminate")
        out = step_batch(model, track, loc, vel, 0.0, np.where(coast, 0.0, FULL_BRAKING))
        live = ~_span_overspeed_batch(track, loc, vel, out.accel, out.loc, out.vel)
        rows, loc, vel = rows[live], out.loc[live], out.vel[live]
        coast, steps = np.zeros(rows.size, dtype=bool), steps + 1


def safe_mask(
    spec: SafetySpec,
    model: TrainModel,
    track: TrackSection,
    loc: np.ndarray,
    vel: np.ndarray,
    last_sign: np.ndarray,
    cmd: np.ndarray,
    out: BatchOutcome,
) -> np.ndarray:
    """``is_safe(...).safe`` for every row, certified from the rows' step outcome.

    Row i is the state (loc[i], vel[i]) whose last condition has the sign
    ``last_sign[i]`` (+1 traction, -1 braking, 0 coasting), under command
    ``cmd[i]``; ``out`` is :func:`step_batch` of those rows.  Only the
    outcome's kinematics are read, so rewards computed with any weights and
    previous accelerations serve.
    """
    ok = ~_span_overspeed_batch(track, loc, vel, out.accel, out.loc, out.vel)
    if spec.forbid_direct_reversal:
        ok &= ~(((last_sign > 0) & (cmd < 0.0)) | ((last_sign < 0) & (cmd > 0.0)))
    ok &= ~(~out.arrived & floor_applies(spec, track, out.loc) & (out.vel <= spec.min_speed))
    rows = np.flatnonzero(ok)
    ok[rows] = _brake_recoverable_batch(
        spec, model, track, out.loc[rows], out.vel[rows], cmd[rows] > 0.0
    )
    return ok


def command_grid(size: int) -> list[float]:
    """Uniform candidate commands over [-1, 1], always containing -1, 0 and +1.

    An odd size gives ``size`` points.  An even size has no grid point at 0,
    so 0 is added and the grid has ``size + 1`` points.
    """
    if size < 2:
        raise ValueError(f"grid size must be >= 2, got {size}")
    grid = []
    span = 2.0 / (size - 1)
    for i in range(size):
        value = -1.0 + i * span
        grid.append(0.0 if abs(value) < 1e-12 else value)
    if 0.0 not in grid:
        grid.append(0.0)
        grid.sort()
    grid[-1] = 1.0
    return grid


def safe_action_set(
    spec: SafetySpec,
    model: TrainModel,
    track: TrackSection,
    state: OperationState,
    candidate_grid_size: int = 21,
) -> list[float]:
    """Safe subset of the command grid, ordered by command value."""
    return [
        cmd
        for cmd in command_grid(candidate_grid_size)
        if is_safe(spec, model, track, state, cmd).safe
    ]


def shield_filter(
    spec: SafetySpec,
    model: TrainModel,
    track: TrackSection,
    state: OperationState,
    proposed: float,
    chooser: Callable[[Sequence[float]], float],
    grid_size: int = 21,
) -> tuple[float, bool]:
    """Pass a safe proposal through untouched, otherwise substitute a safe one.

    Returns (command, intervened); callers count interventions as the protect
    times.  Raises :class:`UnrecoverableStateError` when nothing on the grid
    is safe, which recoverability makes unreachable from certified states.
    """
    if is_safe(spec, model, track, state, proposed).safe:
        return proposed, False
    candidates = safe_action_set(spec, model, track, state, grid_size)
    if not candidates:
        raise UnrecoverableStateError(
            f"no safe command at loc={state.loc:.1f} m, vel={state.vel:.1f} km/h"
        )
    return chooser(candidates), True
