import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atoshield import shield
from atoshield.dynamics import Condition, OperationState, limit_at, step, step_batch, validate_track
from atoshield.shield import (
    Label,
    Rule,
    SafetySpec,
    UnrecoverableStateError,
    brake_recoverable,
    command_grid,
    is_safe,
    label,
    safe_action_set,
    safe_mask,
    shield_filter,
)

from conftest import make_model, make_track

STRICT_FLOOR = SafetySpec(min_speed=0.0, enforce_min_speed=True, terminal_zone=150.0)
PLAIN = SafetySpec()
REVERSAL = SafetySpec(forbid_direct_reversal=True)


def oracle_violation(model, track, state, cmd, subsamples=64):
    """Brute-force check: simulate the command and a full-braking tail,
    sampling interpolated speeds densely against the local limit."""

    def span_bad(s0, out):
        v0 = s0.vel / 3.6
        a = out.accel_applied
        d_total = out.next_state.loc - s0.loc
        for k in range(subsamples + 1):
            d = d_total * k / subsamples
            v_sq = v0 * v0 + 2.0 * a * d
            v_kmh = np.sqrt(max(0.0, v_sq)) * 3.6
            pos = min(s0.loc + d, track.length)
            if v_kmh > limit_at(track, pos) + 1e-9:
                return True
        return out.next_state.vel > limit_at(track, out.next_state.loc) + 1e-9

    out = step(model, track, state, cmd)
    if span_bad(state, out):
        return True
    current = out.next_state
    while current.vel > 0.0 and current.loc < track.length:
        out = step(model, track, current, -1.0)
        if span_bad(current, out):
            return True
        current = out.next_state
    return False


class TestLabel:
    def test_standstill_with_strict_floor(self, model, track):
        state = OperationState(loc=200.0, vel=0.0)
        assert label(STRICT_FLOOR, track, state) is Label.BELOW_MIN

    def test_limit_is_inclusive(self, model, track):
        state = OperationState(loc=200.0, vel=80.0)
        assert label(PLAIN, track, state) is Label.IN_BAND

    def test_above_limit(self, model, track):
        state = OperationState(loc=200.0, vel=81.0)
        assert label(PLAIN, track, state) is Label.OVER_LIMIT

    def test_floor_waived_in_terminal_zone(self, track):
        state = OperationState(loc=1400.0, vel=0.0)
        assert label(STRICT_FLOOR, track, state) is Label.IN_BAND

    @given(vel=st.floats(0.0, 120.0), loc=st.floats(0.0, 1500.0))
    def test_over_limit_iff_above_local_limit(self, vel, loc):
        track = make_track()
        state = OperationState(loc=loc, vel=vel)
        verdict = label(PLAIN, track, state)
        assert (verdict is Label.OVER_LIMIT) == (vel > limit_at(track, loc))


class TestIsSafe:
    def test_full_traction_at_limit_is_overspeed(self, model, track):
        state = OperationState(loc=200.0, vel=80.0)
        verdict = is_safe(PLAIN, model, track, state, 1.0)
        assert not verdict.safe and verdict.violated_rule is Rule.OVERSPEED

    def test_reversal_from_traction(self, model, track):
        state = OperationState(loc=200.0, vel=40.0, last_condition=Condition.TRACTION)
        verdict = is_safe(REVERSAL, model, track, state, -0.5)
        assert not verdict.safe and verdict.violated_rule is Rule.REVERSAL

    def test_reversal_from_braking(self, model, track):
        state = OperationState(loc=200.0, vel=40.0, last_condition=Condition.BRAKING)
        verdict = is_safe(REVERSAL, model, track, state, 0.5)
        assert not verdict.safe and verdict.violated_rule is Rule.REVERSAL

    def test_coasting_never_reverses(self, model, track):
        state = OperationState(loc=200.0, vel=40.0, last_condition=Condition.TRACTION)
        assert is_safe(REVERSAL, model, track, state, 0.0).safe

    def test_start_of_motion_is_safe(self, model, track):
        assert is_safe(STRICT_FLOOR, model, track, OperationState(), 1.0).safe

    def test_standstill_coast_is_underspeed_with_floor(self, model, track):
        verdict = is_safe(STRICT_FLOOR, model, track, OperationState(), 0.0)
        assert not verdict.safe and verdict.violated_rule is Rule.UNDERSPEED

    def test_approaching_drop_too_fast_is_unsafe(self, model, track):
        # 80 km/h just before the 60 km/h zone cannot brake down in time
        state = OperationState(loc=495.0, vel=80.0)
        assert not is_safe(PLAIN, model, track, state, 0.0).safe

    def test_verdict_rule_consistency(self, model, track):
        verdict = is_safe(PLAIN, model, track, OperationState(loc=100.0, vel=30.0), 0.3)
        assert verdict.safe and verdict.violated_rule is None


class TestCommandGrid:
    def test_size_three_is_exact(self):
        assert command_grid(3) == [-1.0, 0.0, 1.0]

    def test_contains_anchors(self):
        for size in (2, 5, 9, 21, 22):
            grid = command_grid(size)
            for anchor in (-1.0, 0.0, 1.0):
                assert anchor in grid
            assert grid == sorted(grid)
            assert len(grid) == (size if size % 2 else size + 1)

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            command_grid(1)


class TestSafeActionSet:
    def test_far_below_limit_everything_safe(self, model, track):
        state = OperationState(loc=100.0, vel=20.0)
        assert safe_action_set(PLAIN, model, track, state, 9) == command_grid(9)

    def test_at_limit_excludes_acceleration_keeps_full_brake(self, model, track):
        state = OperationState(loc=200.0, vel=80.0)
        safe = safe_action_set(PLAIN, model, track, state, 9)
        assert -1.0 in safe
        assert all(is_safe(PLAIN, model, track, state, c).safe for c in safe)
        assert 1.0 not in safe

    def test_ordering(self, model, track):
        safe = safe_action_set(PLAIN, model, track, OperationState(loc=50.0, vel=40.0), 21)
        assert safe == sorted(safe)

    def test_monotone_braking_membership_on_flat_track(self, model):
        # overspeed-risk state on a single-limit flat track: anything below a
        # safe command is safe too
        track = make_track(limits=((0.0, 1500.0, 60.0),))
        state = OperationState(loc=300.0, vel=59.5)
        safe = safe_action_set(PLAIN, model, track, state, 21)
        grid = command_grid(21)
        if safe:
            threshold = max(safe)
            assert safe == [c for c in grid if c <= threshold]


class TestShieldFilter:
    def test_safe_passthrough_is_bitwise(self, model, track):
        state = OperationState(loc=100.0, vel=30.0)
        proposed = 0.123456789
        out, intervened = shield_filter(PLAIN, model, track, state, proposed, min)
        assert out == proposed and not intervened

    def test_unsafe_replaced_by_chooser(self, model, track):
        state = OperationState(loc=200.0, vel=80.0)
        out, intervened = shield_filter(PLAIN, model, track, state, 1.0, max, grid_size=9)
        assert intervened
        safe = safe_action_set(PLAIN, model, track, state, 9)
        assert out == max(safe)

    def test_interventions_count_per_call(self, model, track):
        state = OperationState(loc=200.0, vel=80.0)
        count = 0
        for _ in range(2):
            _, intervened = shield_filter(PLAIN, model, track, state, 1.0, min)
            count += int(intervened)
        assert count == 2


class TestSoundness:
    def test_randomized_soundness_against_oracle(self, model, track, rng):
        checked = 0
        for _ in range(800):
            loc = float(rng.uniform(0.0, track.length - 1.0))
            vel = float(rng.uniform(0.0, limit_at(track, loc)))
            cond = rng.choice(list(Condition))
            state = OperationState(loc=loc, vel=vel, last_condition=cond)
            cmd = float(rng.uniform(-1.0, 1.0))
            if is_safe(PLAIN, model, track, state, cmd).safe:
                checked += 1
                assert not oracle_violation(model, track, state, cmd)
        assert checked > 100

    def test_soundness_with_grades(self, model, rng):
        track = make_track(
            limits=((0.0, 600.0, 70.0), (600.0, 1000.0, 45.0), (1000.0, 1500.0, 80.0)),
            grades=((0.0, 700.0, -0.004), (700.0, 1500.0, 0.006)),
        )
        assert validate_track(model, track) == []
        for _ in range(500):
            loc = float(rng.uniform(0.0, track.length - 1.0))
            vel = float(rng.uniform(0.0, limit_at(track, loc)))
            state = OperationState(loc=loc, vel=vel)
            cmd = float(rng.uniform(-1.0, 1.0))
            if is_safe(PLAIN, model, track, state, cmd).safe:
                assert not oracle_violation(model, track, state, cmd)

    def test_recoverability_closure_random_walk(self, model, track, rng):
        # states reached through the filter always keep a nonempty safe set
        state = OperationState()
        for _ in range(150):
            proposed = float(rng.uniform(-1.0, 1.0))
            cmd, _ = shield_filter(PLAIN, model, track, state, proposed, min, grid_size=9)
            out = step(model, track, state, cmd)
            if out.done:
                state = OperationState()
                continue
            state = out.next_state
            assert safe_action_set(PLAIN, model, track, state, 9)

    def test_recoverability_closure_with_reversal_rule(self, model, track, rng):
        state = OperationState()
        for _ in range(150):
            proposed = float(rng.uniform(-1.0, 1.0))
            cmd, _ = shield_filter(REVERSAL, model, track, state, proposed, min, grid_size=9)
            out = step(model, track, state, cmd)
            if out.done:
                state = OperationState()
                continue
            state = out.next_state
            assert safe_action_set(REVERSAL, model, track, state, 9)


class TestBrakeRecoverable:
    def test_fast_path_matches_simulation(self, model, track, rng):
        # states below every downstream limit must agree with the simulated tail
        for _ in range(200):
            loc = float(rng.uniform(0.0, track.length - 1.0))
            vel = float(rng.uniform(0.0, 59.0))
            state = OperationState(loc=loc, vel=vel)
            assert brake_recoverable(PLAIN, model, track, state)

    def test_hopeless_state_not_recoverable(self, model, track):
        # 80 km/h one metre before the 60 zone
        state = OperationState(loc=499.0, vel=80.0)
        assert not brake_recoverable(PLAIN, model, track, state)


CONDITION_SIGN = {Condition.TRACTION: 1, Condition.COASTING: 0, Condition.BRAKING: -1}


def mask_and_verdicts(spec, track, rows):
    """safe_mask over (loc, vel, last_condition, cmd) rows, and is_safe of each row."""
    model = make_model()
    loc, vel, conds, cmd = zip(*rows)
    loc, vel, cmd = np.array(loc), np.array(vel), np.array(cmd)
    signs = np.array([CONDITION_SIGN[c] for c in conds])
    out = step_batch(model, track, loc, vel, 0.0, cmd)
    got = safe_mask(spec, model, track, loc, vel, signs, cmd, out)
    want = [is_safe(spec, model, track, OperationState(r[0], r[1], 0.0, r[2]), r[3]).safe
            for r in rows]
    return got.tolist(), want


SHIELD_ROW = st.tuples(
    st.floats(0.0, 1500.0),
    st.one_of(st.floats(0.0, 95.0), st.floats(55.0, 85.0)),  # the second often misses the fast path
    st.sampled_from(list(Condition)),
    st.one_of(st.sampled_from([-1.0, 0.0, 1.0]), st.floats(-1.0, 1.0)),
)
GRADED_SHIELD = make_track(
    limits=((0.0, 600.0, 70.0), (600.0, 1000.0, 45.0), (1000.0, 1500.0, 80.0)),
    grades=((0.0, 700.0, -0.004), (700.0, 1500.0, 0.006)),
)


class TestSafeMask:
    @given(
        rows=st.lists(SHIELD_ROW, min_size=1, max_size=30),
        forbid=st.booleans(),
        floor=st.booleans(),
        graded=st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_is_safe(self, rows, forbid, floor, graded):
        spec = SafetySpec(min_speed=8.0, enforce_min_speed=floor,
                          forbid_direct_reversal=forbid, terminal_zone=200.0)
        got, want = mask_and_verdicts(spec, GRADED_SHIELD if graded else make_track(), rows)
        assert got == want

    def test_slow_braking_path_cases(self, track):
        # above the 60 km/h zone ahead, so recoverability needs the braking loop
        rows = [(300.0, 75.0, Condition.TRACTION, -1.0), (300.0, 75.0, Condition.TRACTION, 0.5),
                (440.0, 78.0, Condition.BRAKING, -0.2), (440.0, 78.0, Condition.COASTING, -1.0),
                (1200.0, 70.0, Condition.TRACTION, 0.3),
                # recoverable by braking at once, not after the coast the reversal rule forces
                (380.0, 75.0, Condition.TRACTION, 0.2)]
        verdicts = {}
        for spec in (PLAIN, REVERSAL):
            got, want = mask_and_verdicts(spec, track, rows)
            assert got == want
            assert True in want and False in want
            verdicts[spec] = want
        assert verdicts[PLAIN][-1] and not verdicts[REVERSAL][-1]

    def test_recovery_cap_raises_like_scalar(self, model, track, monkeypatch):
        monkeypatch.setattr(shield, "_RECOVERY_STEP_CAP", 2)
        state = OperationState(loc=300.0, vel=75.0)
        with pytest.raises(RuntimeError, match="failed to terminate"):
            is_safe(PLAIN, model, track, state, -1.0)
        with pytest.raises(RuntimeError, match="failed to terminate"):
            mask_and_verdicts(PLAIN, track, [(300.0, 75.0, Condition.COASTING, -1.0)])


def test_unrecoverable_error_carries_position(model, track):
    # force an empty safe set by shrinking the grid to commands that all
    # violate an artificially strict floor
    spec = SafetySpec(min_speed=200.0, enforce_min_speed=True, terminal_zone=10.0)
    with pytest.raises(UnrecoverableStateError):
        shield_filter(spec, make_model(), track, OperationState(loc=100.0, vel=30.0), 0.5, min)
