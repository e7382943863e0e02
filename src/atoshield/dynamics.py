"""Longitudinal train dynamics: resistance, traction envelope, stepping and reward.

All operations here are pure functions of their inputs; states are immutable.
Velocities are carried in km/h (what speed limits are posted in), accelerations
in m/s^2, positions in m, times in s, energies in kWh.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

KMH_PER_MPS = 3.6
JOULES_PER_KWH = 3.6e6
KG_PER_TONNE = 1000.0


class Condition(str, Enum):
    """Discrete working condition of the drivetrain."""

    TRACTION = "traction"
    COASTING = "coasting"
    BRAKING = "braking"


def condition_of(cmd: float) -> Condition:
    if cmd > 0.0:
        return Condition.TRACTION
    if cmd < 0.0:
        return Condition.BRAKING
    return Condition.COASTING


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

    @property
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
    schedule_margin: float = 30.0  # s
    dt: float = 1.0  # control/integration step, s

    def __post_init__(self):
        object.__setattr__(
            self, "limit_segments", tuple(tuple(seg) for seg in self.limit_segments)
        )
        object.__setattr__(
            self, "grade_segments", tuple(tuple(seg) for seg in self.grade_segments)
        )

    @property
    def mean_speed_target(self) -> float:
        """Schedule-implied mean speed, m/s."""
        return self.length / self.scheduled_time

    @property
    def max_limit(self) -> float:
        return max(seg[2] for seg in self.limit_segments)


@dataclass(frozen=True)
class OperationState:
    """Instantaneous operating point: where, how fast, for how long."""

    loc: float = 0.0  # m
    vel: float = 0.0  # km/h
    time: float = 0.0  # s
    last_condition: Condition = Condition.COASTING


@dataclass(frozen=True)
class StepOutcome:
    next_state: OperationState
    reward: float
    energy_traction: float  # kWh, >= 0
    energy_regen: float  # kWh, stored negative
    accel_applied: float  # m/s^2 after clamping
    done: bool
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


def _segment_value(segments: tuple[tuple[float, float, float], ...], loc: float) -> float:
    # Half-open [start, end) lookup; the final segment is closed at its end.
    last = segments[-1]
    if loc >= last[1]:
        return last[2]
    for start, end, value in segments:
        if start <= loc < end:
            return value
    return segments[0][2]


def limit_at(track: TrackSection, loc: float) -> float:
    """Posted speed limit (km/h) at a position."""
    if loc < 0.0 or loc > track.length:
        raise ValueError(f"position {loc} outside [0, {track.length}]")
    return _segment_value(track.limit_segments, loc)


def grade_accel(track: TrackSection, loc: float) -> float:
    """Signed gravity acceleration (m/s^2) from the grade profile at a position."""
    if loc < 0.0 or loc > track.length:
        raise ValueError(f"position {loc} outside [0, {track.length}]")
    return _segment_value(track.grade_segments, loc)


def davis_resistance_accel(model: TrainModel, vel: float) -> float:
    """Running-resistance deceleration (m/s^2) from the quadratic Davis law.

    Coefficients are specific forces in N/tonne with speed in km/h, so the
    polynomial divided by 1000 is directly an acceleration.
    """
    if vel < 0.0:
        raise ValueError(f"velocity must be nonnegative, got {vel}")
    return (model.davis_r1 + model.davis_r2 * vel + model.davis_r3 * vel * vel) / 1000.0


def motor_accel(model: TrainModel, cmd: float, vel: float) -> float:
    """Acceleration commanded from the motor, m/s^2.

    The envelope is constant-force below the base speed (full command gives
    +-max accel) and constant-power above it (force falls off as base/v).
    """
    if abs(cmd) > 1.0 + 1e-12:
        raise ValueError(f"command must lie in [-1, 1], got {cmd}")
    if vel < 0.0:
        raise ValueError(f"velocity must be nonnegative, got {vel}")
    if cmd > 0.0:
        factor = 1.0 if vel <= model.base_speed_traction else model.base_speed_traction / vel
        return model.max_accel * cmd * factor
    if cmd < 0.0:
        factor = 1.0 if vel <= model.base_speed_braking else model.base_speed_braking / vel
        return model.max_decel * cmd * factor
    return 0.0


def reward_terms(
    track: TrackSection,
    weights: RewardWeights,
    cmd: float,
    energy_traction: float,
    energy_regen: float,
    mean_speed: float,
    accel_applied: float,
    prev_accel: float,
    arrived: bool,
    total_time: float,
) -> tuple[float, float, float]:
    """Energy, timekeeping and comfort penalty terms for one transition.

    Returns (E_t, D_t, C_t); the step reward is the negated sum.  The energy
    branch follows the command sign, the time term switches from mean-speed
    tracking to schedule deviation on the terminal step, and the comfort
    penalty fires only when jerk strictly exceeds the threshold.
    """
    if cmd > 0.0:
        e_term = weights.alpha_traction * energy_traction
    else:
        e_term = weights.alpha_regen * energy_regen
    if arrived:
        d_term = weights.alpha_time_terminal * abs(total_time - track.scheduled_time)
    else:
        d_term = weights.alpha_time_step * abs(mean_speed - track.mean_speed_target)
    jerk = abs(accel_applied - prev_accel) / track.dt
    c_term = weights.comfort_penalty if jerk > weights.jerk_threshold else 0.0
    return e_term, d_term, c_term


def step(
    model: TrainModel,
    track: TrackSection,
    state: OperationState,
    cmd: float,
    weights: RewardWeights = DEFAULT_WEIGHTS,
    prev_accel: float = 0.0,
) -> StepOutcome:
    """Advance one control interval with semi-implicit Euler integration.

    Net acceleration is motor - resistance + grade, clamped to the vehicle
    bounds; velocity is floored at zero (the train does not roll back) and
    displacement uses the interval's mean speed.
    """
    if abs(cmd) > 1.0 + 1e-12:
        raise ValueError(f"command must lie in [-1, 1], got {cmd}")
    dt = track.dt
    v0 = state.vel / KMH_PER_MPS  # m/s
    a_motor = motor_accel(model, cmd, state.vel)
    a_net = a_motor - davis_resistance_accel(model, state.vel) + grade_accel(track, state.loc)
    a = min(model.max_accel, max(-model.max_decel, a_net))

    v1 = max(0.0, v0 + a * dt)
    mean_speed = 0.5 * (v0 + v1)
    dist = mean_speed * dt
    raw_loc = state.loc + dist
    arrived = raw_loc >= track.length
    loc1 = track.length if arrived else raw_loc
    t1 = state.time + dt

    if cmd > 0.0:
        energy_traction = a_motor * model.mass_kg * dist / JOULES_PER_KWH
        energy_regen = 0.0
    else:
        energy_traction = 0.0
        energy_regen = -model.regen_efficiency * abs(a_motor) * model.mass_kg * dist / JOULES_PER_KWH

    e_term, d_term, c_term = reward_terms(
        track, weights, cmd, energy_traction, energy_regen,
        mean_speed, a, prev_accel, arrived, t1,
    )
    next_state = OperationState(
        loc=loc1, vel=v1 * KMH_PER_MPS, time=t1, last_condition=condition_of(cmd)
    )
    return StepOutcome(
        next_state=next_state,
        reward=-(e_term + d_term + c_term),
        energy_traction=energy_traction,
        energy_regen=energy_regen,
        accel_applied=a,
        done=arrived,
        arrived=arrived,
    )


@dataclass(frozen=True)
class BatchOutcome:
    """Transitions of many (state, command) rows at once, as parallel arrays."""

    loc: np.ndarray  # m
    vel: np.ndarray  # km/h
    time: np.ndarray  # s
    reward: np.ndarray
    accel: np.ndarray  # m/s^2 after clamping
    arrived: np.ndarray  # bool


def _segment_values(
    segments: tuple[tuple[float, float, float], ...], loc: np.ndarray
) -> np.ndarray:
    # array form of _segment_value: the first half-open segment holding loc wins
    out = np.full(loc.shape, segments[0][2])
    for start, end, value in reversed(segments):
        out = np.where((start <= loc) & (loc < end), value, out)
    return np.where(loc >= segments[-1][1], segments[-1][2], out)


def _check_positions(track: TrackSection, loc: np.ndarray) -> None:
    outside = (loc < 0.0) | (loc > track.length)
    if outside.any():
        raise ValueError(f"position {loc[outside][0]} outside [0, {track.length}]")


def limits_at(track: TrackSection, loc: np.ndarray) -> np.ndarray:
    """:func:`limit_at` over an array of positions."""
    _check_positions(track, loc)
    return _segment_values(track.limit_segments, loc)


def step_batch(
    model: TrainModel,
    track: TrackSection,
    loc,
    vel,
    time,
    cmd,
    weights: RewardWeights = DEFAULT_WEIGHTS,
    prev_accel=0.0,
) -> BatchOutcome:
    """:func:`step` over broadcast arrays of states and commands.

    Every row is bitwise what :func:`step` gives for the same state, command
    and previous acceleration: the arithmetic is the scalar kernel's, operation
    for operation, and the same invalid inputs raise the same errors.
    """
    loc, vel, time, cmd, prev_accel = (
        np.asarray(x, dtype=float) for x in (loc, vel, time, cmd, prev_accel)
    )
    bad_cmd = np.abs(cmd) > 1.0 + 1e-12
    if bad_cmd.any():
        raise ValueError(f"command must lie in [-1, 1], got {cmd[bad_cmd][0]}")
    if (vel < 0.0).any():
        raise ValueError(f"velocity must be nonnegative, got {vel[vel < 0.0][0]}")
    _check_positions(track, loc)
    dt = track.dt
    v0 = vel / KMH_PER_MPS
    traction = cmd > 0.0
    # base / max(vel, base) is 1.0 at or below the knee and base / vel above it
    factor_traction = model.base_speed_traction / np.maximum(vel, model.base_speed_traction)
    factor_braking = model.base_speed_braking / np.maximum(vel, model.base_speed_braking)
    a_motor = np.where(
        traction,
        model.max_accel * cmd * factor_traction,
        np.where(cmd < 0.0, model.max_decel * cmd * factor_braking, 0.0),
    )
    resistance = (model.davis_r1 + model.davis_r2 * vel + model.davis_r3 * vel * vel) / 1000.0
    a_net = a_motor - resistance + _segment_values(track.grade_segments, loc)
    a = np.minimum(model.max_accel, np.maximum(-model.max_decel, a_net))

    v1 = np.maximum(0.0, v0 + a * dt)
    mean_speed = 0.5 * (v0 + v1)
    dist = mean_speed * dt
    raw_loc = loc + dist
    arrived = raw_loc >= track.length
    t1 = np.broadcast_to(time + dt, arrived.shape)

    e_term = np.where(
        traction,
        weights.alpha_traction * (a_motor * model.mass_kg * dist / JOULES_PER_KWH),
        weights.alpha_regen
        * (-model.regen_efficiency * np.abs(a_motor) * model.mass_kg * dist / JOULES_PER_KWH),
    )
    d_term = np.where(
        arrived,
        weights.alpha_time_terminal * np.abs(t1 - track.scheduled_time),
        weights.alpha_time_step * np.abs(mean_speed - track.mean_speed_target),
    )
    jerk = np.abs(a - prev_accel) / dt
    c_term = np.where(jerk > weights.jerk_threshold, weights.comfort_penalty, 0.0)
    return BatchOutcome(
        loc=np.where(arrived, track.length, raw_loc),
        vel=v1 * KMH_PER_MPS,
        time=t1,
        reward=-(e_term + d_term + c_term),
        accel=a,
        arrived=arrived,
    )


def validate_model(model: TrainModel) -> list[str]:
    """Invariant violations on the vehicle parameters, empty when sound."""
    errors = []
    if model.mass_tonnes <= 0.0:
        errors.append("train.mass_tonnes: must be > 0")
    for name in ("davis_r1", "davis_r2", "davis_r3"):
        if getattr(model, name) < 0.0:
            errors.append(f"train.{name}: must be >= 0")
    if not 0.0 < model.max_accel <= 5.0:
        errors.append("train.max_accel: must be in (0, 5]")
    if not 0.0 < model.max_decel <= 5.0:
        errors.append("train.max_decel: must be in (0, 5]")
    if model.base_speed_traction <= 0.0:
        errors.append("train.base_speed_traction: must be > 0")
    if model.base_speed_braking <= 0.0:
        errors.append("train.base_speed_braking: must be > 0")
    if not 0.0 <= model.regen_efficiency <= 1.0:
        errors.append("train.regen_efficiency: must be in [0, 1]")
    return errors


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
    """Invariant violations on the section, including the no-steep-slope check.

    The slope check requires, over every grade segment and any posted limit it
    overlaps, that resistance minus grade acceleration stays within
    [0, max motor acceleration] for all speeds up to the local limit.  Both
    bounds are monotone in speed, so the extremes at v=0 and v=limit suffice.
    """
    errors = []
    if track.length <= 0.0:
        errors.append("track.length: must be > 0")
    if track.scheduled_time <= 0.0:
        errors.append("track.scheduled_time: must be > 0")
    if track.schedule_margin < 0.0:
        errors.append("track.schedule_margin: must be >= 0")
    if track.dt <= 0.0:
        errors.append("track.dt: must be > 0")
    errors += _check_tiling(track.limit_segments, track.length, "limit_segments")
    errors += _check_tiling(track.grade_segments, track.length, "grade_segments")
    for i, (_, _, limit) in enumerate(track.limit_segments):
        if limit <= 0.0:
            errors.append(f"track.limit_segments[{i}]: limit must be > 0")
    if errors:
        return errors

    tol = 1e-9
    for gi, (gs, ge, g) in enumerate(track.grade_segments):
        if davis_resistance_accel(model, 0.0) - g < -tol:
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
