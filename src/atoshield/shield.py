"""Runtime action shield: safety checks, safe command sets and the filter.

A proposed command is safe when (a) one simulated control interval keeps the
speed inside the posted band at every traversed position, (b) it does not jump
directly between traction and braking when that transition is forbidden, and
(c) the successor state is recoverable: a maximal service-braking trajectory
from it clears every downstream limit.  The trajectory ends at its first
provably clear state, one at or below every downstream limit, at the section
end or at an overspeed.  Track validation guarantees, exactly, that
standstill resistance is at least every grade, so unpowered motion never
speeds up and braking on from a clear state only slows the train; the
rollout relies on that.  With the floor and the reversal rule both on, a
state entered by braking must also let a coast clear the floor.
Recoverability is the computable stand-in for the winning region of the
underlying safety game.

Each safety formula, the recovery rollout included, has one body over the
primitives of ``dynamics``, run on floats for one state and on arrays for the
tree, so a fix edits only that body.  A (state, command) row gets a rule
code, a :class:`Verdict`'s value, in two stages: the one-step rules
(reversal, overspeed, then the floor) read the state's ``last_cmd``, the
command and the interval's motion, and only a row that breaks none of them
is judged on recoverability.
:func:`is_safe` runs the stages on one state and returns the verdict;
:func:`rule_codes` runs them on the tree's rows.  The certifier steps on the
kinematic body of ``dynamics`` alone, with no reward or energy terms, and
checks a state against the section as :func:`~.dynamics.step` does only where
the state comes from its caller.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from .dynamics import (
    ARRAYS,
    FLOATS,
    KMH_PER_MPS,
    OperationState,
    Ops,
    TrackSection,
    TrainModel,
    _check_step_inputs,
    _kinematics,
    segment_value,
)

FULL_BRAKING = -1.0
_RECOVERY_STEP_CAP = 100_000


class Verdict(Enum):
    """Safe, or the first rule a command breaks; each value is its :func:`rule_codes` code."""

    SAFE = 0
    REVERSAL = 1
    OVERSPEED = 2
    UNDERSPEED = 3
    UNRECOVERABLE = 4

    def __init__(self, code: int):
        self.safe = code == 0  # an attribute: it is read for every certified command


_VERDICTS = tuple(Verdict)  # by code: Verdict(code) costs a fifth of an is_safe


@dataclass(frozen=True)
class SafetySpec:
    """Configured safety rules layered over the track's posted limits."""

    min_speed: float | None = None  # km/h, mid-section floor; None means no floor
    forbid_direct_reversal: bool = False
    # metres before the section end where a floor is waived so the train can
    # stop; with a floor, None is derived from the braking distance at load
    terminal_zone: float | None = None


class UnrecoverableStateError(RuntimeError):
    """No command in the candidate grid is safe; an upstream invariant broke."""


def default_terminal_zone(model: TrainModel, track: TrackSection) -> float:
    """Braking distance from the schedule-implied mean speed, plus 50 m slack."""
    v = track.mean_speed_target  # m/s
    return v * v / (2.0 * model.max_decel) + 50.0


def floor_applies(spec: SafetySpec, track: TrackSection, loc: float) -> bool:
    """Whether a floor is set and holds at ``loc``, short of the terminal zone."""
    if spec.min_speed is None:
        return False
    if spec.terminal_zone is None:
        raise ValueError("terminal_zone must be resolved before enforcing the floor")
    return loc < track.length - spec.terminal_zone


def _span_overspeed(ops: Ops, track, start_loc, start_vel, accel, end_loc, end_vel):
    over = end_vel > segment_value(ops, track.limit_segments, end_loc)
    v0 = start_vel / KMH_PER_MPS
    limits = track.limit_segments
    for (_, _, before), (seg_start, _, after) in zip(limits, limits[1:]):
        crossed = (start_loc < seg_start) & (seg_start <= end_loc)
        if not ops.any(crossed):
            continue
        v_cross_sq = v0 * v0 + 2.0 * accel * (seg_start - start_loc)
        too_fast = ops.sqrt(ops.maximum(v_cross_sq, 0.0)) * KMH_PER_MPS > min(before, after)
        over = over | (crossed & (v_cross_sq > 0.0) & too_fast)
    return over


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
    endpoint the only places a violation can first appear.  A crossing speed
    is held to the lower of the two limits that meet there: the segment being
    left bounds the speed on its way to the boundary, the one being entered
    bounds it from the boundary on.
    """
    return _span_overspeed(FLOATS, track, start_loc, start_vel, accel, end_loc, end_vel)


def _rollout_ends(ops: Ops, track: TrackSection, loc, vel, coast):
    """Whether a recovery rollout ends recovered at this state: at a provably
    clear state, or, with no coast pending, at the section end."""
    # Validation makes standstill resistance dominate every grade, so coasting
    # and braking speeds never rise, and a state at or below every limit whose
    # segment ends beyond it (the final segment owns its end point, as in the
    # limit lookup) is clear.  Every limit is > 0, so a stopped train is clear.
    within = vel <= track.limit_segments[-1][2]
    for _, end, lim in track.limit_segments[:-1]:
        within = within & ((end <= loc) | (vel <= lim))
    return within | ops.where(coast, False, loc >= track.length)


def _recovered(ops: Ops, spec, model, track, loc, vel, last_cmd, done=False):
    """:func:`brake_recoverable` of each state (loc, vel) entered by ``last_cmd``,
    on the rows its caller has not decided already (``done``).

    A rollout ends recovered where :func:`_rollout_ends` holds, and fails at
    its first overspeed.  On arrays every row steps until every rollout has
    ended, and a row's verdict is fixed where its own rollout ends.  Only
    the first interval's states come from the caller, so they are checked
    on the open rows alone: an ended row is judged, not checked, and steps
    on from a standstill at 0.
    """
    coast = (last_cmd > 0.0) & spec.forbid_direct_reversal
    ok = _rollout_ends(ops, track, loc, vel, coast)
    ended = done | ok
    if spec.forbid_direct_reversal and spec.min_speed is not None:
        # after a brake the fastest legal command is a coast; one that breaks the floor leaves none
        _, _, _, loc2, vel2, arrived = _kinematics(ops, model, track, loc, vel, 0.0)
        floor = _one_step_code(ops, spec, track, 0.0, 0.0, False, arrived, loc2, vel2) == 3
        stuck = (last_cmd < 0.0) & floor
        ok, ended = ops.where(stuck, False, ok), ended | stuck
    if ops.all(ended):  # the common exit: every row is decided or clear already
        return ok
    cmd = ops.where(coast, 0.0, FULL_BRAKING)
    loc, vel = ops.where(ended, 0.0, loc), ops.where(ended, 0.0, vel)
    _check_step_inputs(ops, track, loc, vel, cmd)
    for _ in range(_RECOVERY_STEP_CAP):
        _, accel, _, loc1, vel1, _ = _kinematics(ops, model, track, loc, vel, cmd)
        over = _span_overspeed(ops, track, loc, vel, accel, loc1, vel1)
        clear = ops.where(over, False, _rollout_ends(ops, track, loc1, vel1, False))
        ok = ops.where(ended, ok, clear)
        ended = ended | over | clear
        if ops.all(ended):
            return ok
        loc, vel, cmd = loc1, vel1, FULL_BRAKING
    raise RuntimeError("braking trajectory failed to terminate")


def brake_recoverable(spec: SafetySpec, model: TrainModel, track: TrackSection,
                      loc: float, vel: float, last_cmd: float) -> bool:
    """Whether full braking from the state (loc, vel) clears every downstream limit.

    When direct reversals are forbidden and ``last_cmd``, the command that
    entered the state, was traction, braking is not immediately available,
    so the recovery trajectory coasts for one interval first.  The
    trajectory ends at its first state, the given one included, at or below
    every downstream limit: on a validated track standstill resistance is at
    least every grade, so braking only slows the train from there and rolling
    on to a stop would give the same verdict.  This is :func:`_recovered` on
    one state, the body :func:`rule_codes` runs on the tree's rows.
    The rollout answers for speed limits; the floor and transition rules
    are one-step concerns, but with both on, a state entered by braking
    whose coast breaks the floor is not recoverable: no command keeps both.
    """
    return _recovered(FLOATS, spec, model, track, loc, vel, last_cmd)


def _one_step_code(ops: Ops, spec, track, last_cmd, cmd, overspeeds, arrived, loc, vel):
    """The code of the first one-step rule each row breaks, 0 when it breaks
    none: a direct reversal from ``last_cmd`` to ``cmd``, an overspeed on the
    traversed span, then a floor breach at the next state ``(loc, vel)``."""
    # code + rule * (code == 0 and broken): a row keeps the first rule it breaks
    code = 0
    if spec.forbid_direct_reversal:
        # signs, not a product: -0.5 * 5e-324 rounds to -0.0
        code = 1 * ((last_cmd > 0.0) & (cmd < 0.0) | (last_cmd < 0.0) & (cmd > 0.0))
    code = code + 2 * ((code == 0) & overspeeds)
    if spec.min_speed is not None:
        floor = floor_applies(spec, track, loc) & (vel <= spec.min_speed)
        code = code + 3 * ((code == 0) & ops.where(arrived, False, floor))
    return code


def is_safe(
    spec: SafetySpec,
    model: TrainModel,
    track: TrackSection,
    state: OperationState,
    cmd: float,
) -> Verdict:
    """Certify one command from one state against all configured rules."""
    # by the ledger's names: one span check and, for a command no one-step
    # rule rejects, one brake_recoverable, over the interval's kinematics
    loc, vel = state.loc, state.vel
    _check_step_inputs(FLOATS, track, loc, vel, cmd)
    _, accel, _, loc1, vel1, arrived = _kinematics(FLOATS, model, track, loc, vel, cmd)
    over = span_overspeed(track, loc, vel, accel, loc1, vel1)
    code = _one_step_code(FLOATS, spec, track, state.last_cmd, cmd, over, arrived, loc1, vel1)
    if code == 0 and not brake_recoverable(spec, model, track, loc1, vel1, cmd):
        code = 4
    return _VERDICTS[code]


def rule_codes(
    spec: SafetySpec, model: TrainModel, track: TrackSection,
    loc, vel, last_cmd, cmd, accel, next_loc, next_vel, arrived,
) -> np.ndarray:
    """The code of :func:`is_safe`'s verdict for every row; see :class:`Verdict`.

    Row i is the state (loc[i], vel[i]) entered by command ``last_cmd[i]``,
    under command ``cmd[i]``; ``accel``, ``next_loc``, ``next_vel`` and
    ``arrived`` are that interval's applied acceleration, next state and
    arrival, as :func:`~.dynamics._kinematics` of the rows gives them.  Like
    that kernel, it leaves checking the rows' commands and states to its caller.
    """
    over = _span_overspeed(ARRAYS, track, loc, vel, accel, next_loc, next_vel)
    code = _one_step_code(ARRAYS, spec, track, last_cmd, cmd, over, arrived, next_loc, next_vel)
    done = code != 0
    ok = _recovered(ARRAYS, spec, model, track, next_loc, next_vel, cmd, done)
    return np.where(done | ok, code, 4)


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
    candidate_grid_size: int,
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
    grid_size: int,
) -> tuple[float, int]:
    """Pass a safe proposal through untouched, otherwise substitute a safe one.

    Returns (command, interventions): 0 for a passed proposal, 1 for a
    substituted one; callers sum them as the protect times.  Raises
    :class:`UnrecoverableStateError` when nothing on the grid is safe, which
    recoverability makes unreachable from certified states.
    """
    if is_safe(spec, model, track, state, proposed).safe:
        return proposed, 0
    candidates = safe_action_set(spec, model, track, state, grid_size)
    if not candidates:
        raise UnrecoverableStateError(
            f"no safe command at loc={state.loc:.1f} m, vel={state.vel:.1f} km/h"
        )
    return chooser(candidates), 1
