import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from atoshield import dynamics, shield
from atoshield.dynamics import (
    ARRAYS, OperationState, _check_step_inputs, _kinematics, davis_resistance_accel, step,
    validate_track,
)
from atoshield.shield import (
    SafetySpec,
    UnrecoverableStateError,
    Verdict,
    brake_recoverable,
    command_grid,
    is_safe,
    rule_codes,
    safe_action_set,
    shield_filter,
    span_overspeed,
)

from conftest import BAD_STEP_INPUTS, make_model, make_track
from oracles import _ref_limit_at, ref_brake_recoverable, ref_brake_to_stop, ref_is_safe

STRICT_FLOOR = SafetySpec(min_speed=0.0, terminal_zone=150.0)
PLAIN = SafetySpec()
REVERSAL = SafetySpec(forbid_direct_reversal=True)
# a command, or the last command a state carries: full braking, coasting and
# full traction, or any value in [-1, 1]
COMMAND = st.one_of(st.sampled_from([-1.0, 0.0, 1.0]), st.floats(-1.0, 1.0))


def oracle_violation(model, track, state, cmd, subsamples=64):
    """Brute-force check: simulate the command and a full-braking tail,
    sampling interpolated speeds densely against the local limit."""

    def span_bad(s0, out):
        v0 = s0.vel / 3.6
        a = out.next_state.last_accel
        d_total = out.next_state.loc - s0.loc
        for k in range(subsamples + 1):
            d = d_total * k / subsamples
            v_sq = v0 * v0 + 2.0 * a * d
            v_kmh = np.sqrt(max(0.0, v_sq)) * 3.6
            pos = min(s0.loc + d, track.length)
            if v_kmh > _ref_limit_at(track, pos) + 1e-9:
                return True
        return out.next_state.vel > _ref_limit_at(track, out.next_state.loc) + 1e-9

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


class TestSpeedBand:
    """The band the certifier holds a state to: the posted limit is
    inclusive, and the floor holds only outside the terminal zone."""

    def test_standstill_with_strict_floor(self, model, track):
        state = OperationState(loc=200.0, vel=0.0)
        assert is_safe(STRICT_FLOOR, model, track, state, 0.0) is Verdict.UNDERSPEED

    def test_limit_is_inclusive(self, track):
        assert not span_overspeed(track, 200.0, 80.0, 0.0, 200.0, 80.0)

    def test_above_limit(self, track):
        assert span_overspeed(track, 200.0, 81.0, 0.0, 200.0, 81.0)

    def test_floor_waived_in_terminal_zone(self, model, track):
        state = OperationState(loc=1400.0, vel=0.0)
        assert is_safe(STRICT_FLOOR, model, track, state, 0.0).safe

    @given(vel=st.floats(0.0, 120.0), loc=st.floats(0.0, 1500.0))
    def test_over_limit_iff_above_local_limit(self, vel, loc):
        track = make_track()
        assert span_overspeed(track, loc, vel, 0.0, loc, vel) == (vel > _ref_limit_at(track, loc))


class TestIsSafe:
    def test_full_traction_at_limit_is_overspeed(self, model, track):
        state = OperationState(loc=200.0, vel=80.0)
        verdict = is_safe(PLAIN, model, track, state, 1.0)
        assert not verdict.safe and verdict is Verdict.OVERSPEED

    def test_reversal_from_traction(self, model, track):
        state = OperationState(loc=200.0, vel=40.0, last_cmd=0.5)
        verdict = is_safe(REVERSAL, model, track, state, -0.5)
        assert not verdict.safe and verdict is Verdict.REVERSAL

    # a subnormal command reverses too, though -0.5 * 5e-324 rounds to -0.0
    @pytest.mark.parametrize("cmd", [0.5, 5e-324], ids=["half", "subnormal"])
    def test_reversal_from_braking(self, model, track, cmd):
        state = OperationState(loc=200.0, vel=40.0, last_cmd=-0.5)
        verdict = is_safe(REVERSAL, model, track, state, cmd)
        assert not verdict.safe and verdict is Verdict.REVERSAL
        codes = rule_codes(REVERSAL, model, track, *batch_args(track, [(200.0, 40.0, -0.5, cmd)]))
        assert codes.tolist() == [1]

    def test_coasting_never_reverses(self, model, track):
        state = OperationState(loc=200.0, vel=40.0, last_cmd=1.0)
        assert is_safe(REVERSAL, model, track, state, 0.0).safe

    def test_start_of_motion_is_safe(self, model, track):
        assert is_safe(STRICT_FLOOR, model, track, OperationState(), 1.0).safe

    def test_standstill_coast_is_underspeed_with_floor(self, model, track):
        verdict = is_safe(STRICT_FLOOR, model, track, OperationState(), 0.0)
        assert not verdict.safe and verdict is Verdict.UNDERSPEED

    def test_approaching_drop_too_fast_is_unsafe(self, model, track):
        # 80 km/h just before the 60 km/h zone cannot brake down in time
        state = OperationState(loc=495.0, vel=80.0)
        assert not is_safe(PLAIN, model, track, state, 0.0).safe

    def test_verdict_rule_consistency(self, model, track):
        verdict = is_safe(PLAIN, model, track, OperationState(loc=100.0, vel=30.0), 0.3)
        assert verdict.safe and verdict is Verdict.SAFE

    def test_verdict_values_are_the_rule_codes(self):
        # the codes rule_codes gives, in priority order; only SAFE is safe,
        # and every verdict is truthy, SAFE included
        assert [(v.name, v.value) for v in Verdict] == [
            ("SAFE", 0), ("REVERSAL", 1), ("OVERSPEED", 2), ("UNDERSPEED", 3), ("UNRECOVERABLE", 4)]
        assert [v.safe for v in Verdict] == [True, False, False, False, False]
        assert all(map(bool, Verdict))

    def test_overspeed_before_a_limit_rise(self, model, track):
        # reaches 1,000 m at 60.7 km/h, still inside the 60 km/h segment [500, 1000)
        assert not is_safe(PLAIN, model, track, OperationState(loc=995.0, vel=59.9), 1.0).safe


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
        out, intervened = shield_filter(PLAIN, model, track, state, proposed, min, grid_size=21)
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
            _, intervened = shield_filter(PLAIN, model, track, state, 1.0, min, grid_size=21)
            count += int(intervened)
        assert count == 2


class TestSoundness:
    def test_randomized_soundness_against_oracle(self, model, track, rng):
        checked = 0
        for _ in range(800):
            loc = float(rng.uniform(0.0, track.length - 1.0))
            vel = float(rng.uniform(0.0, _ref_limit_at(track, loc)))
            last_cmd = (1.0, 0.0, -1.0)[rng.integers(3)]
            state = OperationState(loc=loc, vel=vel, last_cmd=last_cmd)
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
            vel = float(rng.uniform(0.0, _ref_limit_at(track, loc)))
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
            if out.arrived:
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
            if out.arrived:
                state = OperationState()
                continue
            state = out.next_state
            assert safe_action_set(REVERSAL, model, track, state, 9)


@st.composite
def generated_sections(draw):
    """Valid sections with 2-4 limit segments and nonzero grades, at times one
    as steep downhill as validation allows."""
    length = draw(st.floats(600.0, 2500.0))
    n_limits = draw(st.integers(2, 4))
    cuts = sorted(draw(st.lists(st.floats(0.1, 0.9), min_size=n_limits - 1,
                                max_size=n_limits - 1, unique=True)))
    edges = [0.0, *(c * length for c in cuts), length]
    limits = draw(st.lists(st.floats(30.0, 100.0), min_size=n_limits, max_size=n_limits))
    n_grades = draw(st.integers(1, 3))
    grade_cuts = sorted(draw(st.lists(st.floats(0.1, 0.9), min_size=n_grades - 1,
                                      max_size=n_grades - 1, unique=True)))
    grade_edges = [0.0, *(c * length for c in grade_cuts), length]
    # positive grade helps the train along; the steep-slope check bounds both
    # signs, and a grade equal to standstill resistance is the steepest it allows
    grade = st.one_of(st.floats(-0.3, 0.008).filter(lambda g: g != 0.0),
                      st.just(davis_resistance_accel(make_model(), 0.0)))
    grades = draw(st.lists(grade, min_size=n_grades, max_size=n_grades))
    track = make_track(
        length=length,
        limits=tuple(zip(edges, edges[1:], limits)),
        grades=tuple(zip(grade_edges, grade_edges[1:], grades)),
    )
    assume(validate_track(make_model(), track) == [])
    return track


# the floor that a first interval of full traction clears on every generated
# section, the steepest uphill included
LOW_FLOOR_AND_REVERSAL = SafetySpec(min_speed=2.0, forbid_direct_reversal=True, terminal_zone=100.0)


class TestRecoverabilityOnGeneratedSections:
    @pytest.mark.parametrize("spec", [PLAIN, REVERSAL, LOW_FLOOR_AND_REVERSAL],
                             ids=["plain", "reversal", "floor-and-reversal"])
    @settings(max_examples=25, deadline=None)
    @given(track=generated_sections(), seed=st.integers(0, 2**32 - 1),
           floor=st.sampled_from([-1.0, -0.5, 0.0, 0.5]))
    def test_random_walk_keeps_a_safe_command(self, spec, track, seed, floor):
        # proposals uniform on [floor, 1]: the higher the floor, the more the
        # walk drives into the limits and the shield has to act
        model = make_model()
        rng = np.random.default_rng(seed)
        state = OperationState()
        for _ in range(300):
            proposed = float(rng.uniform(floor, 1.0))
            cmd, _ = shield_filter(spec, model, track, state, proposed, min, grid_size=9)
            out = step(model, track, state, cmd)
            if out.arrived:
                state = OperationState()
                continue
            state = out.next_state
            assert safe_action_set(spec, model, track, state, 9)


def test_brake_into_a_floor_dead_end_is_unrecoverable(model):
    # with both rules on, a state entered by braking leaves a coast at best:
    # a 3.75 km/h train braking lightly uphill would reach 2.8 km/h, where a
    # coast ends at 1.85 km/h, below the 2 km/h floor, and traction reverses
    spec, uphill = LOW_FLOOR_AND_REVERSAL, make_track(grades=((0.0, 1500.0, -0.25),))
    state = OperationState(loc=19.8, vel=3.753, last_cmd=-0.002)
    out = step(model, uphill, state, -0.002)
    assert [is_safe(spec, model, uphill, out.next_state, c) for c in (-1.0, 0.0, 0.25)] \
        == [Verdict.UNDERSPEED, Verdict.UNDERSPEED, Verdict.REVERSAL]
    assert is_safe(spec, model, uphill, state, -0.002) is Verdict.UNRECOVERABLE
    assert not ref_is_safe(spec, model, uphill, state, -0.002)
    assert is_safe(spec, model, uphill, state, 0.0) is Verdict.SAFE
    assert safe_action_set(spec, model, uphill, step(model, uphill, state, 0.0).next_state, 9)


def downstream_minimum(track, loc):
    """Lowest limit from loc on; at the section end, the last segment's."""
    return min(lim for _, end, lim in track.limit_segments if end > loc or end == track.length)


@st.composite
def sections_with_states(draw):
    """A generated section and 1-20 (loc, vel, last command, command) rows,
    each at a posted limit or above the downstream minimum, often within
    2 km/h of it and within 2 m before a limit boundary."""
    track = draw(generated_sections())
    edges = [start for start, _, _ in track.limit_segments] + [track.length]
    limits = [lim for _, _, lim in track.limit_segments]
    rows = []
    for _ in range(draw(st.integers(1, 20))):
        loc = draw(st.one_of(st.sampled_from(edges), st.floats(0.0, track.length),
                             st.sampled_from(edges).flatmap(
                                 lambda e: st.floats(max(0.0, e - 2.0), e))))
        lowest = downstream_minimum(track, loc)
        vel = draw(st.one_of(st.sampled_from(limits), st.floats(lowest, lowest + 2.0),
                             st.floats(lowest, max(lowest, 100.0))))
        rows.append((loc, vel, draw(COMMAND), draw(COMMAND)))
    return track, rows


class TestRecoverabilityAgainstFullRollout:
    @pytest.mark.parametrize("spec", [PLAIN, REVERSAL], ids=["plain", "reversal"])
    @settings(max_examples=60, deadline=None)
    @given(case=sections_with_states())
    def test_verdicts_match_braking_to_a_stop(self, spec, case):
        # the rollout's early exit at the first clear state must never change a verdict
        track, rows = case
        model = make_model()
        states = [OperationState(loc, vel, 0.0, last) for loc, vel, last, _ in rows]
        recoverable = [ref_brake_recoverable(spec, model, track, s) for s in states]
        assert [brake_recoverable(spec, model, track, loc, vel, last)
                for loc, vel, last, _ in rows] == recoverable
        loc, vel, last, _ = zip(*rows)
        assert shield._recovered(
            ARRAYS, spec, model, track, np.array(loc), np.array(vel), np.array(last)
        ).tolist() == recoverable
        got, verdicts = mask_and_verdicts(spec, track, rows)
        want = [ref_is_safe(spec, model, track, OperationState(loc, vel, 0.0, last), cmd)
                for loc, vel, last, cmd in rows]
        assert got == verdicts == want


class TestCertifierIgnoresEnteringAcceleration:
    """The shield certifies on motion alone: the applied acceleration that
    entered a state, which only the reward's comfort term reads, changes no
    verdict, recovery or safe set."""

    @pytest.mark.parametrize("spec", [PLAIN, REVERSAL, LOW_FLOOR_AND_REVERSAL],
                             ids=["plain", "reversal", "floor-and-reversal"])
    @settings(max_examples=30, deadline=None)
    @given(case=sections_with_states(),
           last_accel=st.one_of(st.sampled_from([-1.2, 1.2]), st.floats(-3.0, 3.0)))
    def test_same_verdicts_whatever_the_entering_acceleration(self, spec, case, last_accel):
        track, rows = case
        model = make_model()
        for loc, vel, last_cmd, cmd in rows:
            fresh = OperationState(loc, vel, 0.0, last_cmd)
            entered = OperationState(loc, vel, 0.0, last_cmd, last_accel)
            assert is_safe(spec, model, track, entered, cmd) is is_safe(spec, model, track, fresh, cmd)
            assert (brake_recoverable(spec, model, track, entered.loc, entered.vel, entered.last_cmd)
                    == brake_recoverable(spec, model, track, fresh.loc, fresh.vel, fresh.last_cmd))
            assert (safe_action_set(spec, model, track, entered, 9)
                    == safe_action_set(spec, model, track, fresh, 9))


class TestBrakeRecoverable:
    def test_fast_path_matches_simulation(self, model, track, rng):
        # states below every downstream limit must agree with the simulated tail
        for _ in range(200):
            loc = float(rng.uniform(0.0, track.length - 1.0))
            vel = float(rng.uniform(0.0, 59.0))
            state = OperationState(loc=loc, vel=vel)
            assert brake_recoverable(PLAIN, model, track, loc, vel, 0.0)
            assert ref_brake_to_stop(PLAIN, model, track, state)

    def test_rollout_stops_at_first_clear_state(self, model, track, monkeypatch):
        # 75 km/h at 300 m is clear of the 60 km/h zone ahead after five
        # braking intervals; braking on to a stop would take nineteen
        calls = []
        kinematics = shield._kinematics
        monkeypatch.setattr(shield, "_kinematics", lambda *a: calls.append(a) or kinematics(*a))
        assert brake_recoverable(PLAIN, model, track, 300.0, 75.0, 0.0)
        assert len(calls) == 5
        loc, vel = np.array([300.0]), np.array([75.0])
        assert shield._recovered(ARRAYS, PLAIN, model, track, loc, vel, np.array([0.0]))
        assert len(calls) == 10

    def test_array_rollout_steps_every_row_until_the_longest_ends(self, model, track,
                                                                   monkeypatch):
        # rows that end after 0 intervals (clear), 1 (80 km/h one metre before
        # the 60 km/h zone), 3 (an overspeed) and 2-8 (recovered above that
        # zone, the last after the coast the reversal rule forces)
        rows = [(100.0, 30.0, 0.0), (499.0, 80.0, 0.0), (420.0, 66.0, 0.0), (440.0, 78.0, 0.0),
                (380.0, 72.0, 0.0), (300.0, 75.0, 0.0), (250.0, 80.0, 0.0), (200.0, 80.0, 1.0)]
        stepped = []
        kinematics = shield._kinematics
        monkeypatch.setattr(shield, "_kinematics",
                            lambda *a: stepped.append(np.size(a[3])) or kinematics(*a))
        lengths, verdicts = [], []
        for loc, vel, last in rows:
            stepped.clear()
            verdicts.append(brake_recoverable(REVERSAL, model, track, loc, vel, last))
            lengths.append(len(stepped))
        assert lengths == [0, 1, 2, 3, 4, 5, 7, 8]
        assert verdicts == [True, False, True, False, True, True, True, True]
        stepped.clear()
        loc, vel, last = (np.array(column) for column in zip(*rows))
        assert shield._recovered(ARRAYS, REVERSAL, model, track, loc, vel, last).tolist() == verdicts
        # every interval steps every row, and the longest rollout sets how many there are
        assert stepped == [len(rows)] * max(lengths)

    def test_hopeless_state_not_recoverable(self, model, track):
        # 80 km/h one metre before the 60 zone
        assert not brake_recoverable(PLAIN, model, track, 499.0, 80.0, 0.0)

    def test_section_end_is_under_the_last_limit(self, model):
        # the reversal rule makes the rollout coast first from the section end,
        # and that coast leaves the train above the last segment's 30 km/h
        track = make_track(length=600.0, limits=((0.0, 300.0, 40.0), (300.0, 600.0, 30.0)))
        state = OperationState(loc=600.0, vel=31.0, last_cmd=1.0)
        assert not ref_brake_to_stop(REVERSAL, model, track, state)
        assert not ref_brake_recoverable(REVERSAL, model, track, state)
        assert not brake_recoverable(REVERSAL, model, track, 600.0, 31.0, 1.0)
        assert not shield._recovered(
            ARRAYS, REVERSAL, model, track, np.array([600.0]), np.array([31.0]), np.array([1.0])
        ).any()
        assert brake_recoverable(PLAIN, model, track, 600.0, 31.0, 1.0)


def batch_args(track, rows):
    """The :func:`rule_codes` arrays of (loc, vel, last_cmd, cmd) rows: the
    rows, then each interval's applied acceleration, next loc, next vel and arrival."""
    loc, vel, last, cmd = (np.array(column) for column in zip(*rows))
    _, accel, _, loc1, vel1, arrived = _kinematics(ARRAYS, make_model(), track, loc, vel, cmd)
    return loc, vel, last, cmd, accel, loc1, vel1, arrived


def mask_and_verdicts(spec, track, rows):
    """Whether rule_codes is 0 on each (loc, vel, last_cmd, cmd) row, and is_safe of each row."""
    model = make_model()
    got = rule_codes(spec, model, track, *batch_args(track, rows)) == 0
    want = [is_safe(spec, model, track, OperationState(r[0], r[1], 0.0, r[2]), r[3]).safe
            for r in rows]
    return got.tolist(), want


def ref_verdicts(spec, track, rows):
    return [ref_is_safe(spec, make_model(), track, OperationState(r[0], r[1], 0.0, r[2]), r[3])
            for r in rows]


SHIELD_ROW = st.tuples(
    st.floats(0.0, 1500.0),
    st.one_of(st.floats(0.0, 95.0), st.floats(55.0, 85.0)),  # the second often misses the fast path
    COMMAND,
    COMMAND,
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
        spec = SafetySpec(min_speed=8.0 if floor else None,
                          forbid_direct_reversal=forbid, terminal_zone=200.0)
        track = GRADED_SHIELD if graded else make_track()
        got, want = mask_and_verdicts(spec, track, rows)
        assert got == want == ref_verdicts(spec, track, rows)

    @given(
        rows=st.lists(SHIELD_ROW, min_size=1, max_size=30),
        forbid=st.booleans(),
        floor=st.booleans(),
        graded=st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_rule_codes_match_violated_rule(self, rows, forbid, floor, graded):
        # the last row breaks both the reversal rule and the 60 km/h limit ahead
        rows = [*rows, (495.0, 79.0, -1.0, 1.0)]
        spec = SafetySpec(min_speed=8.0 if floor else None,
                          forbid_direct_reversal=forbid, terminal_zone=200.0)
        track = GRADED_SHIELD if graded else make_track()
        model = make_model()
        codes = rule_codes(spec, model, track, *batch_args(track, rows))
        want = [is_safe(spec, model, track, OperationState(r[0], r[1], 0.0, r[2]), r[3])
                for r in rows]
        assert codes.tolist() == [v.value for v in want]
        assert want[-1] is (Verdict.REVERSAL if forbid else Verdict.OVERSPEED)

    def test_slow_braking_path_cases(self, track):
        # above the 60 km/h zone ahead, so recoverability needs the braking loop
        rows = [(300.0, 75.0, 1.0, -1.0), (300.0, 75.0, 1.0, 0.5),
                (440.0, 78.0, -1.0, -0.2), (440.0, 78.0, 0.0, -1.0),
                (1200.0, 70.0, 1.0, 0.3),
                # recoverable by braking at once, not after the coast the reversal rule forces
                (380.0, 75.0, 1.0, 0.2)]
        verdicts = {}
        for spec in (PLAIN, REVERSAL):
            got, want = mask_and_verdicts(spec, track, rows)
            assert got == want == ref_verdicts(spec, track, rows)
            assert True in want and False in want
            verdicts[spec] = want
        assert verdicts[PLAIN][-1] and not verdicts[REVERSAL][-1]

    def test_recovery_cap_raises_like_scalar(self, model, track, monkeypatch):
        monkeypatch.setattr(shield, "_RECOVERY_STEP_CAP", 2)
        state = OperationState(loc=300.0, vel=75.0)
        with pytest.raises(RuntimeError, match="failed to terminate"):
            is_safe(PLAIN, model, track, state, -1.0)
        with pytest.raises(RuntimeError, match="failed to terminate"):
            mask_and_verdicts(PLAIN, track, [(300.0, 75.0, 0.0, -1.0)])


def test_unrecoverable_error_carries_position(model, track):
    # force an empty safe set by shrinking the grid to commands that all
    # violate an artificially strict floor
    spec = SafetySpec(min_speed=200.0, terminal_zone=10.0)
    with pytest.raises(UnrecoverableStateError):
        shield_filter(spec, make_model(), track, OperationState(loc=100.0, vel=30.0), 0.5, min,
                      grid_size=21)


FLOOR_AND_REVERSAL = SafetySpec(min_speed=8.0, forbid_direct_reversal=True, terminal_zone=200.0)
# (loc, vel, last_cmd, cmd) rows whose recovery rollouts step: above the
# 60 km/h zone ahead, entered by traction, braking and coasting
ROLLOUT_ROWS = [(300.0, 75.0, 1.0, 0.2), (300.0, 75.0, 0.0, -1.0),
                (440.0, 78.0, -1.0, -0.2), (380.0, 75.0, 1.0, 0.0)]


class TestCertifierRunsKinematicsOnly:
    @pytest.mark.parametrize("spec", [PLAIN, REVERSAL, FLOOR_AND_REVERSAL],
                             ids=["plain", "reversal", "floor-and-reversal"])
    def test_no_reward_or_energy_term(self, spec, model, track, monkeypatch):
        args = batch_args(track, ROLLOUT_ROWS)
        loc, vel, last, cmd = args[:4]
        states = [OperationState(r[0], r[1], 0.0, r[2]) for r in ROLLOUT_ROWS]

        def certify():
            return (
                [is_safe(spec, model, track, s, c) for s, c in zip(states, cmd.tolist())],
                [safe_action_set(spec, model, track, s, 9) for s in states],
                [brake_recoverable(spec, model, track, *r[:3]) for r in ROLLOUT_ROWS],
                shield._recovered(ARRAYS, spec, model, track, loc, vel, last).tolist(),
                rule_codes(spec, model, track, *args).tolist(),
            )

        want = certify()
        intervals = []
        kinematics = shield._kinematics
        monkeypatch.setattr(shield, "_kinematics", lambda *a: intervals.append(a) or kinematics(*a))

        def no_reward(*args):
            raise AssertionError("the certifier ran a reward or energy term")

        # _price runs _reward_terms after both energies, so no scalar or
        # array pricing can run unseen
        monkeypatch.setattr(dynamics, "_reward_terms", no_reward)
        assert certify() == want
        # the rollouts stepped: more intervals than one per certified command
        assert len(intervals) > len(ROLLOUT_ROWS) * (1 + 9)
        if spec.forbid_direct_reversal:
            intervals.clear()
            assert brake_recoverable(spec, model, track, *ROLLOUT_ROWS[0][:3])
            assert intervals[0][-1] == 0.0  # the coast the reversal rule forces


class TestErrorParity:
    """The certifier raises step's errors on the inputs step rejects."""

    @pytest.mark.parametrize("loc, vel, cmd", BAD_STEP_INPUTS)
    def test_certifier_rejects_what_step_rejects(self, model, track, loc, vel, cmd):
        state = OperationState(loc, vel)
        with pytest.raises(ValueError) as want:
            step(model, track, state, cmd)
        text = re.escape(str(want.value))
        with pytest.raises(ValueError, match=f"^{text}$"):
            is_safe(PLAIN, model, track, state, cmd)
        with pytest.raises(ValueError, match=f"^{text}$"):
            shield_filter(PLAIN, model, track, state, cmd, min, 9)
        if abs(cmd) <= 1.0:  # the grid's commands are all in range
            with pytest.raises(ValueError, match=f"^{text}$"):
                safe_action_set(PLAIN, model, track, state, 9)

    # start states above the last 80 km/h limit, so the rollout steps from them
    @pytest.mark.parametrize("spec, loc, last_cmd", [
        (PLAIN, -1.0, 0.0), (REVERSAL, -1.0, 1.0), (REVERSAL, 1500.5, 1.0),
    ], ids=["brake-before-start", "coast-before-start", "coast-past-end"])
    def test_rollout_rejects_the_state_it_steps_from(self, model, track, spec, loc, last_cmd):
        state = OperationState(loc, 100.0, 0.0, last_cmd)
        first = 0.0 if spec.forbid_direct_reversal and last_cmd > 0.0 else -1.0
        with pytest.raises(ValueError) as want:
            step(model, track, state, first)
        with pytest.raises(ValueError, match=f"^{re.escape(str(want.value))}$"):
            brake_recoverable(spec, model, track, loc, 100.0, last_cmd)
        # a clear row before the bad one: the array check names the first bad row
        loc_rows, vel_rows, last_rows = [100.0, loc], [30.0, 100.0], [0.0, last_cmd]
        with pytest.raises(ValueError) as want:
            _check_step_inputs(ARRAYS, track, np.array(loc_rows), np.array(vel_rows),
                               np.array([-1.0, first]))
        with pytest.raises(ValueError, match=f"^{re.escape(str(want.value))}$"):
            shield._recovered(ARRAYS, spec, model, track,
                              np.array(loc_rows), np.array(vel_rows), np.array(last_rows))

    @pytest.mark.parametrize("loc, vel", [(100.0, -1.0), (1500.5, 100.0), (-1.0, 30.0)])
    def test_rollout_ends_before_stepping_from_a_clear_state(self, model, track, loc, vel):
        # a start state the rollout does not step from is judged, not checked
        assert brake_recoverable(PLAIN, model, track, loc, vel, 0.0)
        assert shield._recovered(
            ARRAYS, PLAIN, model, track, np.array([loc]), np.array([vel]), np.array([0.0])
        ).all()
