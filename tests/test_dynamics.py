import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atoshield.dynamics import (
    DEFAULT_WEIGHTS,
    Condition,
    OperationState,
    RewardWeights,
    TrainModel,
    davis_resistance_accel,
    grade_accel,
    limit_at,
    motor_accel,
    reward_terms,
    step,
    step_batch,
    validate_model,
    validate_track,
)

from conftest import make_model, make_track


class TestDavisResistance:
    def test_zero_speed_is_constant_term(self, model):
        assert davis_resistance_accel(model, 0.0) == pytest.approx(0.0084)

    def test_polynomial_at_100_kmh(self, model):
        # (8.4 + 0.1071*100 + 0.00472*100^2) / 1000
        assert davis_resistance_accel(model, 100.0) == pytest.approx(0.06631)

    def test_zero_coefficients_give_zero(self):
        frictionless = make_model(davis_r1=0.0, davis_r2=0.0, davis_r3=0.0)
        for v in (0.0, 35.0, 117.0):
            assert davis_resistance_accel(frictionless, v) == 0.0

    def test_negative_speed_rejected(self, model):
        with pytest.raises(ValueError):
            davis_resistance_accel(model, -1.0)


class TestMotorAccel:
    def test_full_traction_below_base_speed(self, model):
        assert motor_accel(model, 1.0, 20.0) == pytest.approx(1.2)

    def test_coasting_is_zero(self, model):
        for v in (0.0, 50.0, 110.0):
            assert motor_accel(model, 0.0, v) == 0.0

    def test_constant_power_halving(self, model):
        # at twice the braking base speed the envelope halves, times half command
        v = 2.0 * model.base_speed_braking
        assert motor_accel(model, -0.5, v) == pytest.approx(-0.3)

    def test_command_out_of_range_rejected(self, model):
        with pytest.raises(ValueError):
            motor_accel(model, 1.5, 10.0)

    @given(cmd=st.floats(-1.0, 1.0), vel=st.floats(0.0, 150.0))
    def test_sign_follows_command(self, cmd, vel):
        a = motor_accel(make_model(), cmd, vel)
        assert math.copysign(1.0, a) == math.copysign(1.0, cmd) or a == 0.0


class TestGradeAccel:
    def test_flat_track(self, track):
        for loc in (0.0, 700.0, 1500.0):
            assert grade_accel(track, loc) == 0.0

    def test_segment_lookup(self):
        track = make_track(grades=((0.0, 500.0, -0.01), (500.0, 1500.0, 0.02)))
        assert grade_accel(track, 100.0) == -0.01

    def test_boundary_belongs_to_next_segment(self):
        track = make_track(grades=((0.0, 500.0, -0.01), (500.0, 1500.0, 0.02)))
        assert grade_accel(track, 500.0) == 0.02
        assert grade_accel(track, 1500.0) == 0.02  # final segment closed

    def test_out_of_range_rejected(self, track):
        with pytest.raises(ValueError):
            grade_accel(track, 1500.1)


class TestStep:
    def test_coasting_decelerates_on_flat(self, model, track):
        state = OperationState(loc=100.0, vel=50.0)
        out = step(model, track, state, 0.0)
        assert out.next_state.vel < 50.0

    def test_full_traction_from_rest(self, model, track):
        out = step(model, track, OperationState(), 1.0)
        # one Euler step: (1.2 - 0.0084) m/s^2 over 1 s
        assert out.next_state.vel == pytest.approx((1.2 - 0.0084) * 3.6)
        assert out.energy_traction > 0.0
        assert out.energy_regen == 0.0
        assert out.next_state.last_condition is Condition.TRACTION

    def test_braking_produces_regen_only(self, model, track):
        out = step(model, track, OperationState(loc=200.0, vel=60.0), -1.0)
        assert out.energy_traction == 0.0
        assert out.energy_regen <= 0.0

    def test_velocity_floors_at_zero(self, model, track):
        out = step(model, track, OperationState(loc=10.0, vel=2.0), -1.0)
        assert out.next_state.vel == 0.0

    def test_arrival_flags_and_clamp(self, model, track):
        out = step(model, track, OperationState(loc=1499.0, vel=60.0), 0.0)
        assert out.arrived and out.done
        assert out.next_state.loc == track.length

    def test_accel_clamped_to_vehicle_bounds(self, model, track):
        out = step(model, track, OperationState(loc=0.0, vel=30.0), -1.0)
        assert out.accel_applied == pytest.approx(-model.max_decel)

    def test_determinism(self, model, track):
        state = OperationState(loc=321.0, vel=47.0, time=30.0)
        a = step(model, track, state, 0.37)
        b = step(model, track, state, 0.37)
        assert a == b

    @given(
        cmd=st.floats(-1.0, 1.0),
        vel=st.floats(0.0, 80.0),
        loc=st.floats(0.0, 1499.0),
    )
    @settings(max_examples=200)
    def test_step_invariants(self, cmd, vel, loc):
        model, track = make_model(), make_track()
        out = step(model, track, OperationState(loc=loc, vel=vel), cmd)
        assert out.next_state.vel >= 0.0
        assert out.next_state.loc >= loc
        assert out.energy_traction >= 0.0
        assert out.energy_regen <= 0.0
        if cmd > 0.0:
            assert out.energy_regen == 0.0
        else:
            assert out.energy_traction == 0.0

    def test_coasting_monotonic_until_stop(self, model, track):
        state = OperationState(loc=0.0, vel=40.0)
        prev = state.vel
        for _ in range(200):
            out = step(model, track, state, 0.0)
            if out.done:
                break
            if prev > 0.0:
                assert out.next_state.vel < prev or out.next_state.vel == 0.0
            prev = out.next_state.vel
            state = out.next_state

    @given(
        cmd=st.floats(-1.0, 1.0),
        vel=st.floats(0.0, 80.0),
        prev_accel=st.floats(-1.2, 1.2),
    )
    @settings(max_examples=100)
    def test_reward_is_negated_term_sum(self, cmd, vel, prev_accel):
        model, track = make_model(), make_track()
        state = OperationState(loc=700.0, vel=vel)
        out = step(model, track, state, cmd, prev_accel=prev_accel)
        # mean speed reconstructed from km/h states carries one float roundtrip
        mean_speed = 0.5 * (vel + out.next_state.vel) / 3.6
        e, d, c = reward_terms(
            track, DEFAULT_WEIGHTS, cmd, out.energy_traction, out.energy_regen,
            mean_speed, out.accel_applied, prev_accel, out.arrived, out.next_state.time,
        )
        assert out.reward == pytest.approx(-(e + d + c), abs=1e-9)

    def test_reward_assembly_exact_on_roundtrip_exact_values(self):
        # davis-free coast at 36 km/h = 10 m/s keeps every float exact
        model = make_model(davis_r1=0.0, davis_r2=0.0, davis_r3=0.0)
        track = make_track()
        out = step(model, track, OperationState(loc=700.0, vel=36.0), 0.0)
        e, d, c = reward_terms(
            track, DEFAULT_WEIGHTS, 0.0, 0.0, 0.0, 10.0, 0.0, 0.0,
            arrived=False, total_time=1.0,
        )
        assert out.reward == -(e + d + c)


GRADED = make_track(
    limits=((0.0, 600.0, 70.0), (600.0, 1000.0, 45.0), (1000.0, 1500.0, 80.0)),
    grades=((0.0, 700.0, -0.004), (700.0, 1500.0, 0.006)),
)
WEIGHTS = RewardWeights(alpha_traction=2.0, alpha_regen=4.0, jerk_threshold=2.5)


def assert_rows_match(track, rows, weights=WEIGHTS):
    """step_batch over the rows equals the scalar step of each row, bitwise.

    A row is (loc, vel, time, cmd, prev_accel); a prev_accel of None sits
    exactly one jerk threshold below the row's applied acceleration.
    """
    model = make_model()
    prev = []
    for loc, vel, time, cmd, prev_accel in rows:
        if prev_accel is None:
            a = step(model, track, OperationState(loc, vel, time), cmd, weights).accel_applied
            prev_accel = a - weights.jerk_threshold * track.dt
        prev.append(prev_accel)
    loc, vel, time, cmd = (np.array(col) for col in list(zip(*rows))[:4])
    out = step_batch(model, track, loc, vel, time, cmd, weights, np.array(prev))
    for i, (row, prev_accel) in enumerate(zip(rows, prev)):
        want = step(model, track, OperationState(*row[:3]), row[3], weights, prev_accel)
        got = (out.loc[i], out.vel[i], out.time[i], out.reward[i], out.accel[i])
        assert [float(x).hex() for x in got] == [
            x.hex() for x in (want.next_state.loc, want.next_state.vel, want.next_state.time,
                              want.reward, want.accel_applied)
        ], row
        assert out.arrived[i] == want.arrived


BOUNDARIES = [0.0, 499.999, 500.0, 600.0, 700.0, 1000.0, 1499.0, 1500.0]
ROW = st.tuples(
    st.one_of(st.sampled_from(BOUNDARIES), st.floats(0.0, 1500.0)),
    st.one_of(st.sampled_from([0.0, 40.0, 50.0]), st.floats(0.0, 4.0), st.floats(0.0, 130.0)),
    st.floats(0.0, 300.0),
    st.one_of(st.sampled_from([-1.0, 0.0, 1.0]), st.floats(-1.0, 1.0)),
    st.one_of(st.none(), st.floats(-3.0, 3.0)),
)


class TestStepBatch:
    @given(rows=st.lists(ROW, min_size=1, max_size=30), graded=st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_matches_scalar_step_bitwise(self, rows, graded):
        assert_rows_match(GRADED if graded else make_track(), rows)

    def test_named_edge_cases(self):
        assert_rows_match(make_track(), [
            (10.0, 2.0, 0.0, -1.0, 0.0),  # stops partway through the interval
            (1499.5, 60.0, 90.0, 0.0, 0.0),  # arrival clamps the position
            (500.0, 59.0, 3.0, 0.4, 0.0),  # exactly on a segment boundary
            (1500.0, 0.0, 3.0, 0.0, 0.0),  # the end point belongs to the last segment
            (200.0, 45.0, 3.0, 0.6, 0.0),  # traction energy branch above the knee
            (200.0, 55.0, 3.0, -0.6, 0.0),  # regen energy branch above the knee
            (200.0, 30.0, 3.0, 0.5, None),  # jerk exactly at the threshold
            (200.0, 30.0, 3.0, -0.5, 2.0),  # jerk beyond the threshold
        ])
        assert_rows_match(GRADED, [(650.0, 30.0, 0.0, 0.2, 0.0), (700.0, 30.0, 0.0, -0.2, None)])

    def test_broadcasts_one_state_over_commands(self, model, track):
        cmds = np.array([-1.0, 0.0, 1.0])
        out = step_batch(model, track, 100.0, 30.0, 5.0, cmds)
        assert out.time.shape == out.loc.shape == (3,)
        for i, cmd in enumerate(cmds):
            want = step(model, track, OperationState(100.0, 30.0, 5.0), cmd)
            assert out.vel[i] == want.next_state.vel

    @pytest.mark.parametrize("loc, vel, cmd", [
        (100.0, 30.0, 1.5), (100.0, -1.0, 0.0), (-1.0, 30.0, 0.0), (1500.5, 30.0, 0.0),
    ])
    def test_rejects_what_step_rejects(self, model, track, loc, vel, cmd):
        with pytest.raises(ValueError):
            step(model, track, OperationState(loc, vel), cmd)
        with pytest.raises(ValueError):
            step_batch(model, track, [100.0, loc], [30.0, vel], 0.0, [0.0, cmd])


class TestRewardTerms:
    def test_on_time_terminal_has_zero_time_penalty(self, track):
        _, d, _ = reward_terms(
            track, DEFAULT_WEIGHTS, 0.5, 1.0, 0.0, 10.0, 0.0, 0.0,
            arrived=True, total_time=track.scheduled_time,
        )
        assert d == 0.0

    def test_jerk_at_threshold_is_not_punished(self, track):
        # threshold is strict: change of exactly sigma draws no penalty
        _, _, c = reward_terms(
            track, DEFAULT_WEIGHTS, 0.5, 0.0, 0.0, track.mean_speed_target,
            accel_applied=DEFAULT_WEIGHTS.jerk_threshold, prev_accel=0.0,
            arrived=False, total_time=10.0,
        )
        assert c == 0.0
        _, _, c = reward_terms(
            track, DEFAULT_WEIGHTS, 0.5, 0.0, 0.0, track.mean_speed_target,
            accel_applied=DEFAULT_WEIGHTS.jerk_threshold + 1e-6, prev_accel=0.0,
            arrived=False, total_time=10.0,
        )
        assert c == DEFAULT_WEIGHTS.comfort_penalty

    def test_traction_weight_scales_energy(self, track):
        e, _, _ = reward_terms(
            track, RewardWeights(alpha_traction=3.0), 0.8, 2.0, 0.0,
            10.0, 0.0, 0.0, arrived=False, total_time=5.0,
        )
        assert e == pytest.approx(6.0)


class TestValidators:
    def test_default_setup_is_valid(self, model, track):
        assert validate_model(model) == []
        assert validate_track(model, track) == []

    def test_steep_uphill_rejected(self, model):
        track = make_track(grades=((0.0, 1500.0, -2.0),))
        errors = validate_track(model, track)
        assert any("motor bound" in e for e in errors)

    def test_steep_downhill_rejected(self, model):
        track = make_track(grades=((0.0, 1500.0, 2.0),))
        errors = validate_track(model, track)
        assert any("downhill" in e for e in errors)

    def test_overlapping_limit_segments_rejected(self, model):
        track = make_track(limits=((0.0, 800.0, 80.0), (500.0, 1500.0, 60.0)))
        errors = validate_track(model, track)
        assert any("overlap" in e for e in errors)

    def test_gap_rejected(self, model):
        track = make_track(limits=((0.0, 400.0, 80.0), (500.0, 1500.0, 60.0)))
        errors = validate_track(model, track)
        assert any("gap" in e for e in errors)

    def test_negative_mass_rejected(self):
        assert any("mass" in e for e in validate_model(make_model(mass_tonnes=-1.0)))


def test_limit_lookup_half_open(track):
    assert limit_at(track, 499.999) == 80.0
    assert limit_at(track, 500.0) == 60.0
    assert limit_at(track, 1500.0) == 80.0
