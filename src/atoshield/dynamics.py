"""Longitudinal train dynamics: resistance, traction envelope, stepping and reward.

All operations here are pure functions of their inputs; states are immutable.
Velocities are carried in km/h (what speed limits are posted in), accelerations
in m/s^2, positions in m, times in s, energies in kWh.  A state carries the
command and the applied acceleration that entered it (``last_cmd`` and
``last_accel``, both 0 for a fresh state): the shield's reversal rule reads
the drivetrain's last working condition from the command's sign, and the
reward's comfort term reads the jerk from that acceleration to the next.

Each formula has one body over a table of elementwise primitives, run on
Python floats by :func:`step` and on numpy arrays by the search tree, so a
physics fix edits only that body.  An interval is two bodies:
:func:`_kinematics`, its motion, and :func:`_price`, the energies and
reward of that motion.  :func:`step` runs one after the other, and so does
the search tree.  The shield certifies on the motion alone.  The search
tree steps whole levels on it too, and prices only the trees that survive
pruning, each level in one array call.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

KMH_PER_MPS = 3.6
JOULES_PER_KWH = 3.6e6
KG_PER_TONNE = 1000.0


@dataclass(frozen=True)
class TrainModel:
    """Vehicle parameters: mass, running resistance and the motor envelope."""

    mass_tonnes: float = 337.8
    davis_r1: float = 8.4  # N/tonne
    davis_r2: float = 0.1071  # N/tonne per km/h
    davis_r3: float = 0.00472  # N/tonne per (km/h)^2
    max_accel: float = 1.2  # m/s^2 at full traction below base speed
    max_decel: float = 1.2  # m/s^2 magnitude at full braking below base speed
    base_speed_traction: float = 40.0  # km/h, constant-force/constant-power knee
    base_speed_braking: float = 50.0  # km/h
    regen_efficiency: float = 0.3  # fraction of braking work recovered

    @cached_property
    def mass_kg(self) -> float:
        return self.mass_tonnes * KG_PER_TONNE


@dataclass(frozen=True)
class TrackSection:
    """One inter-station section: geometry, posted limits and the timetable slot.

    ``limit_segments`` and ``grade_segments`` are (start_m, end_m, value) triples
    that must tile [0, length] without gaps or overlaps.  Segment lookup uses
    half-open intervals [start, end); the final segment also owns its end point.
    """

    length: float  # m
    limit_segments: tuple[tuple[float, float, float], ...]  # limit in km/h
    grade_segments: tuple[tuple[float, float, float], ...]  # signed accel, m/s^2
    scheduled_time: float  # s
    dt: float = 1.0  # control/integration step, s

    def __post_init__(self):
        object.__setattr__(
            self, "limit_segments", tuple(tuple(seg) for seg in self.limit_segments)
        )
        object.__setattr__(
            self, "grade_segments", tuple(tuple(seg) for seg in self.grade_segments)
        )

    @cached_property
    def mean_speed_target(self) -> float:
        """Schedule-implied mean speed, m/s."""
        return self.length / self.scheduled_time

    @cached_property
    def max_limit(self) -> float:
        """Highest posted limit, km/h."""
        return max(seg[2] for seg in self.limit_segments)


@dataclass(frozen=True)
class OperationState:
    """Instantaneous operating point: where, how fast, for how long, and the
    command (> 0 traction, < 0 braking, 0 coasting) and applied acceleration
    of the interval that entered it."""

    loc: float = 0.0  # m
    vel: float = 0.0  # km/h
    time: float = 0.0  # s
    last_cmd: float = 0.0
    last_accel: float = 0.0  # m/s^2 after clamping


@dataclass(frozen=True)
class StepOutcome:
    next_state: OperationState
    reward: float
    energy_traction: float  # kWh, >= 0
    energy_regen: float  # kWh, stored negative
    arrived: bool


@dataclass(frozen=True)
class RewardWeights:
    """Per-step reward weights for energy, timekeeping and ride comfort."""

    alpha_traction: float = 3.0
    alpha_regen: float = 3.0
    alpha_time_terminal: float = 15.0
    alpha_time_step: float = 25.0
    comfort_penalty: float = 10.0
    jerk_threshold: float = 3.0  # m/s^3


DEFAULT_WEIGHTS = RewardWeights()


class Ops:
    """The primitives each shared body takes as ``ops``: :data:`FLOATS` for
    one state, :data:`ARRAYS` for the tree's rows (``abs`` and the operators
    work on both).  ``any`` and ``all`` say whether some or every row is set;
    a body uses them only to skip work or to raise, and ``first_bad(x, ok)``
    is x on the first row that ``ok`` leaves unset."""

    def __init__(self, **primitives):
        vars(self).update(primitives)  # plain instance attributes read fastest


FLOATS = Ops(
    where=lambda cond, a, b: a if cond else b,
    # the builtins' two-argument max and min, without their call overhead
    maximum=lambda a, b: b if b > a else a,
    minimum=lambda a, b: b if b < a else a,
    sqrt=math.sqrt, any=operator.truth, all=operator.truth, first_bad=lambda x, ok: x,
)
ARRAYS = Ops(
    where=np.where, maximum=np.maximum, minimum=np.minimum, sqrt=np.sqrt,
    any=operator.methodcaller("any"), all=operator.methodcaller("all"),
    first_bad=lambda x, ok: x[~ok][0],
)


def segment_value(ops: Ops, segments: tuple[tuple[float, float, float], ...], loc):
    """The value of the segment holding ``loc``: the first one whose end lies
    beyond it, so each segment owns [start, end) of a tiling and the final
    segment also owns its end point."""
    value = segments[-1][2]
    for _, end, seg_value in segments[-2::-1]:
        value = ops.where(loc < end, seg_value, value)
    return value


def _davis(model: TrainModel, vel):
    return (model.davis_r1 + model.davis_r2 * vel + model.davis_r3 * vel * vel) / 1000.0


def davis_resistance_accel(model: TrainModel, vel: float) -> float:
    """Running-resistance deceleration (m/s^2) from the quadratic Davis law.

    Coefficients are specific forces in N/tonne with speed in km/h, so the
    polynomial divided by 1000 is directly an acceleration.
    """
    if vel < 0.0:
        raise ValueError(f"velocity must be nonnegative, got {vel}")
    return _davis(model, vel)


def _motor_accel(ops: Ops, model: TrainModel, cmd, vel):
    """Motor acceleration, m/s^2: constant force below the base speed (full
    command gives +-max accel), constant power above it (force ~ base/v)."""
    # base / max(vel, base) is 1.0 at or below the knee and base / vel above
    # it; a zero command gives a zero braking force
    traction = cmd > 0.0
    peak = ops.where(traction, model.max_accel, model.max_decel)
    base = ops.where(traction, model.base_speed_traction, model.base_speed_braking)
    return peak * cmd * (base / ops.maximum(vel, base))


def _reward_terms(
    ops: Ops, track, weights, cmd, energy_traction, energy_regen,
    mean_speed, accel_applied, prev_accel, arrived, total_time,
):
    """(E_t, D_t, C_t), whose negated sum is the step reward: energy by the
    command's sign, mean-speed tracking or, on arrival, schedule deviation,
    and a comfort penalty when jerk strictly exceeds the threshold."""
    e_term = ops.where(
        cmd > 0.0, weights.alpha_traction * energy_traction, weights.alpha_regen * energy_regen
    )
    d_term = ops.where(
        arrived,
        weights.alpha_time_terminal * abs(total_time - track.scheduled_time),
        weights.alpha_time_step * abs(mean_speed - track.mean_speed_target),
    )
    jerk = abs(accel_applied - prev_accel) / track.dt
    c_term = ops.where(jerk > weights.jerk_threshold, weights.comfort_penalty, 0.0)
    return e_term, d_term, c_term


def _kinematics(ops: Ops, model, track, loc, vel, cmd):
    """One unchecked interval's motion: (motor acceleration, applied
    acceleration, mean speed in m/s, next loc, next vel in km/h, arrived).
    The next loc is clamped to the section end on arrival."""
    dt = track.dt
    v0 = vel / KMH_PER_MPS  # m/s
    a_motor = _motor_accel(ops, model, cmd, vel)
    a_net = a_motor - _davis(model, vel) + segment_value(ops, track.grade_segments, loc)
    a = ops.minimum(model.max_accel, ops.maximum(-model.max_decel, a_net))

    v1 = ops.maximum(0.0, v0 + a * dt)
    mean_speed = 0.5 * (v0 + v1)
    raw_loc = loc + mean_speed * dt
    arrived = raw_loc >= track.length
    return (
        a_motor, a, mean_speed, ops.where(arrived, track.length, raw_loc), v1 * KMH_PER_MPS,
        arrived,
    )


def _price(ops: Ops, model, track, weights, cmd, a_motor, accel, mean_speed, arrived, t1,
           prev_accel):
    """An interval's (reward, traction energy, regen energy) from its motion:
    the command, the motor and applied accelerations and mean speed that
    :func:`_kinematics` gives, whether it arrived, the time it ends at, and
    the applied acceleration of the interval before it (for the jerk term).
    The energies come first, and :func:`_reward_terms` reads them."""
    traction = cmd > 0.0
    mass = model.mass_kg
    dist = mean_speed * track.dt
    energy_traction = ops.where(traction, a_motor * mass * dist / JOULES_PER_KWH, 0.0)
    energy_regen = ops.where(
        traction, 0.0, -model.regen_efficiency * abs(a_motor) * mass * dist / JOULES_PER_KWH
    )
    e_term, d_term, c_term = _reward_terms(
        ops, track, weights, cmd, energy_traction, energy_regen,
        mean_speed, accel, prev_accel, arrived, t1,
    )
    return -(e_term + d_term + c_term), energy_traction, energy_regen


def _check_command(ops: Ops, cmd) -> None:
    """Raise the ValueError of a command outside [-1, 1] (on arrays, naming
    the first offending row).  The check states what is in range, so that
    NaN, which fails every comparison, is out of range."""
    ok = abs(cmd) <= 1.0 + 1e-12
    if not ops.all(ok):
        raise ValueError(f"command must lie in [-1, 1], got {ops.first_bad(cmd, ok)}")


def _check_step_inputs(ops: Ops, track, loc, vel, cmd) -> None:
    """Raise the ValueError of the first out-of-range input: a command outside
    [-1, 1], a negative speed, then a position outside the section (on arrays,
    naming the first offending row), each checked as in :func:`_check_command`."""
    _check_command(ops, cmd)
    ok = vel >= 0.0
    if not ops.all(ok):
        raise ValueError(f"velocity must be nonnegative, got {ops.first_bad(vel, ok)}")
    ok = (loc >= 0.0) & (loc <= track.length)
    if not ops.all(ok):
        raise ValueError(f"position {ops.first_bad(loc, ok)} outside [0, {track.length}]")


def step(
    model: TrainModel,
    track: TrackSection,
    state: OperationState,
    cmd: float,
    weights: RewardWeights = DEFAULT_WEIGHTS,
) -> StepOutcome:
    """Advance one control interval with semi-implicit Euler integration.

    Net acceleration is motor - resistance + grade, clamped to the vehicle
    bounds; velocity is floored at zero (the train does not roll back) and
    displacement uses the interval's mean speed.  The jerk term reads the
    state's ``last_accel``, and the next state carries this interval's.
    """
    _check_step_inputs(FLOATS, track, state.loc, state.vel, cmd)
    a_motor, accel, mean_speed, loc, vel, arrived = _kinematics(
        FLOATS, model, track, state.loc, state.vel, cmd
    )
    time = state.time + track.dt
    reward, energy_traction, energy_regen = _price(
        FLOATS, model, track, weights, cmd, a_motor, accel, mean_speed, arrived, time,
        state.last_accel,
    )
    # positional: keyword arguments cost a third of the construction
    next_state = OperationState(loc, vel, time, cmd, accel)
    return StepOutcome(next_state, reward, energy_traction, energy_regen, arrived)


def _check_tiling(
    segments: tuple[tuple[float, float, float], ...], length: float, label: str
) -> list[str]:
    errors = []
    if not segments:
        return [f"track.{label}: at least one segment required"]
    if abs(segments[0][0]) > 1e-9:
        errors.append(f"track.{label}[0]: must start at 0")
    for i, (start, end, _) in enumerate(segments):
        if end <= start:
            errors.append(f"track.{label}[{i}]: end must exceed start")
        if i > 0:
            prev_end = segments[i - 1][1]
            if start < prev_end - 1e-9:
                errors.append(f"track.{label}[{i}]: overlaps previous segment")
            elif start > prev_end + 1e-9:
                errors.append(f"track.{label}[{i}]: gap after previous segment")
    if abs(segments[-1][1] - length) > 1e-9:
        errors.append(f"track.{label}[{len(segments) - 1}]: must end at track length")
    return errors


def validate_track(model: TrainModel, track: TrackSection) -> list[str]:
    """Invariant violations on the section's geometry: limit and grade
    segments that tile [0, length], limits > 0, and the no-steep-slope check.

    The slope check requires, over every grade segment and any posted limit it
    overlaps, that resistance minus grade acceleration stays within
    [0, max motor acceleration] for all speeds up to the local limit.  Both
    bounds are monotone in speed, so the extremes at v=0 and v=limit suffice.
    The lower bound is exact, with no tolerance: the shield's recovery
    rollout relies on unpowered motion never speeding up.
    """
    errors = _check_tiling(track.limit_segments, track.length, "limit_segments")
    errors += _check_tiling(track.grade_segments, track.length, "grade_segments")
    for i, (_, _, limit) in enumerate(track.limit_segments):
        if limit <= 0.0:
            errors.append(f"track.limit_segments[{i}]: limit must be > 0")
    if errors:
        return errors

    tol = 1e-9
    for gi, (gs, ge, g) in enumerate(track.grade_segments):
        if davis_resistance_accel(model, 0.0) < g:
            errors.append(
                f"track.grade_segments[{gi}]: downhill grade {g} exceeds "
                "standstill resistance (coasting would accelerate)"
            )
        for ls, le, limit in track.limit_segments:
            if ls >= ge or le <= gs:
                continue
            if davis_resistance_accel(model, limit) - g > model.max_accel + tol:
                errors.append(
                    f"track.grade_segments[{gi}]: uphill grade {g} plus resistance "
                    f"exceeds the motor bound {model.max_accel} m/s^2 below "
                    f"{limit} km/h"
                )
                break
    return errors
