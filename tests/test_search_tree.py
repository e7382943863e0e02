import dataclasses
import math
import re

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from atoshield import dynamics, search_tree, trainer
from atoshield.config import ConfigError, default_scenario_path, load_config
from atoshield.dynamics import OperationState, RewardWeights, step
from atoshield.search_tree import (
    Level,
    SearchConfig,
    SearchTree,
    backup,
    build_tree,
    price,
    prune,
    search_safe_action,
    select_safe_action,
)
from atoshield.shield import SafetySpec, is_safe, safe_action_set
from atoshield.trainer import TrainEnv

from conftest import BAD_STEP_INPUTS, make_model, make_track
from oracles import (
    RefNode,
    breadth_first_levels,
    brute_backup,
    random_forest,
    random_tree,
    ref_backup,
    ref_prune,
    ref_select,
    reference_build_tree,
    reference_choice,
    reference_search,
)

CFG = SearchConfig(expansion_width=3, backup_discount=0.9, action_grid=9)
T_UP = 5  # the policy-update cadence: every branch ends on a multiple of it
PLAIN = SafetySpec()


def horizon_at(t, t_up=T_UP):
    """The episode loop's ``horizon`` at step t: steps from the roots, at
    step t + 1, to the next multiple of ``t_up``."""
    return -(t + 1) % t_up


def steady_policy(cmd):
    return lambda states, n: np.full((len(states), n), cmd)


def seeded_policy(seed, scale=0.4):
    rng = np.random.default_rng(seed)
    return lambda states, n: np.clip(rng.normal(0.2, scale, (len(states), n)), -1.0, 1.0)


@pytest.fixture()
def env(model, track):
    return TrainEnv(model, track)


def to_tree(roots, root_step, t_up=T_UP):
    """The SearchTree of a reference forest whose roots sit at ``root_step``,
    flattened breadth first."""
    levels = []
    for rows in breadth_first_levels(roots):
        nodes = [n for n, _ in rows]

        def column(read):
            return np.array([read(n) for n in nodes], dtype=float)

        def state(name):
            return column(lambda n: 0.0 if n.state is None else getattr(n.state, name))

        levels.append(Level(
            cmd=column(lambda n: n.cmd), a_motor=column(lambda n: 0.0),
            mean_speed=column(lambda n: 0.0),
            loc=state("loc"), vel=state("vel"), time=state("time"),
            accel=state("last_accel"),
            terminal=np.array([n.terminal for n in nodes], dtype=bool),
            parent=np.array([k for _, k in rows], dtype=np.intp),
            reward=column(lambda n: n.reward),
        ))
    return SearchTree(levels, -root_step % t_up)


def assert_same_levels(tree, roots, env, accel_in=0.0, t_up=T_UP):
    """Every level equals the reference forest's breadth-first rows, exactly,
    rewards once :func:`price` has run from an unsafe state entered with
    ``accel_in``: ``build_tree`` leaves them unset."""
    want = breadth_first_levels(roots)
    root_step = roots[0].depth_step
    assert tree.horizon == -root_step % t_up
    assert len(tree.levels) == len(want)
    assert all(level.reward is None for level in tree.levels)
    price(tree, env, accel_in)
    for depth, (level, rows) in enumerate(zip(tree.levels, want)):
        nodes = [n for n, _ in rows]
        assert all(n.depth_step == root_step + depth for n in nodes)
        assert level.cmd.tolist() == [n.cmd for n in nodes]
        assert level.reward.tolist() == [n.reward for n in nodes]
        assert level.loc.tolist() == [n.state.loc for n in nodes]
        assert level.vel.tolist() == [n.state.vel for n in nodes]
        assert level.time.tolist() == [n.state.time for n in nodes]
        assert level.accel.tolist() == [n.state.last_accel for n in nodes]
        assert level.terminal.tolist() == [n.terminal for n in nodes]
        assert level.parent.tolist() == [k for _, k in rows]


def surviving_leaves(tree, root_step):
    """(environment step, terminal) of every surviving node without a surviving
    child, for roots at ``root_step``."""
    out = []
    for depth, level in enumerate(tree.levels):
        below = tree.levels[depth + 1] if depth + 1 < len(tree.levels) else None
        has_child = np.zeros(len(level), dtype=bool)
        if below is not None:
            has_child[below.parent[below.alive]] = True
        for row in np.flatnonzero(level.alive & ~has_child):
            out.append((root_step + depth, bool(level.terminal[row])))
    return out


class TestBuildTree:
    def test_update_step_gives_depth_one(self, env):
        state = OperationState(loc=100.0, vel=40.0)
        # roots land on step t+1 = 5, an update step, so no expansion happens
        tree = build_tree(env, PLAIN, steady_policy(0.2), state, [0.0, 0.5], horizon_at(4), CFG)
        assert len(tree.levels) == 1 and len(tree.levels[0]) == 2
        assert tree.horizon == 0

    def test_width_one_is_single_path(self, env):
        cfg = SearchConfig(expansion_width=1, action_grid=9)
        state = OperationState(loc=100.0, vel=40.0)
        tree = build_tree(env, PLAIN, steady_policy(0.1), state, [0.3], horizon_at(0), cfg)
        assert all(len(level) == 1 for level in tree.levels)
        assert all(level.parent.tolist() == [0] for level in tree.levels)
        assert len(tree.levels) <= T_UP

    def test_unsafe_policy_starves_expansion(self, env, model, track):
        # a policy that always floors the throttle right at the limit is
        # never certified, so non-update-step roots end up childless
        state = OperationState(loc=200.0, vel=79.8)
        tree = build_tree(env, PLAIN, steady_policy(1.0), state, [-1.0, -0.5], horizon_at(0), CFG)
        if prune(tree) is not None:
            assert all(terminal or step % T_UP == 0
                       for step, terminal in surviving_leaves(tree, 1))
        # the orchestrator falls back to hardest braking
        chosen = search_safe_action(
            env, PLAIN, steady_policy(1.0), state, [-1.0, -0.5], horizon_at(0), CFG
        )
        assert chosen in (-1.0, -0.5)

    @pytest.mark.parametrize("spec", [PLAIN, SafetySpec(forbid_direct_reversal=True)],
                             ids=["plain", "reversal"])
    def test_every_node_shield_certified(self, env, model, track, spec):
        state = OperationState(loc=300.0, vel=55.0)
        safe_set = safe_action_set(spec, model, track, state, 9)
        tree = build_tree(env, spec, seeded_policy(3), state, safe_set, horizon_at(1), CFG)
        assert len(tree.levels) > 1
        for cmd in tree.levels[0].cmd:
            assert is_safe(spec, model, track, state, float(cmd)).safe
        for above, level in zip(tree.levels, tree.levels[1:]):
            for cmd, k in zip(level.cmd.tolist(), level.parent.tolist()):
                parent = OperationState(
                    loc=float(above.loc[k]), vel=float(above.vel[k]), time=float(above.time[k]),
                    last_cmd=float(above.cmd[k]),
                )
                assert is_safe(spec, model, track, parent, cmd).safe

    def test_deterministic_with_seeded_sampler(self, env):
        state = OperationState(loc=300.0, vel=55.0)

        def run():
            tree = build_tree(env, PLAIN, seeded_policy(7), state, [-0.5, 0.0], horizon_at(2), CFG)
            assert prune(tree) is tree
            price(tree, env, 0.4)
            backup(tree, CFG)
            return [level.ret.tolist() for level in tree.levels]

        assert run() == run()

    def test_depth_law_after_pruning(self, env):
        state = OperationState(loc=300.0, vel=50.0)
        for t in range(0, 10):
            tree = build_tree(env, PLAIN, seeded_policy(t), state, [0.0, 0.3], horizon_at(t), CFG)
            assert len(tree.levels) <= T_UP
            if prune(tree) is None:
                continue
            for step, terminal in surviving_leaves(tree, t + 1):
                assert terminal or step % T_UP == 0

    def test_node_walk_counts_nodes(self, env):
        # the on-demand node views walk every node before pruning, survivors after
        state = OperationState(loc=300.0, vel=55.0)
        tree = build_tree(env, PLAIN, seeded_policy(5, scale=0.9), state, [-0.5, 0.0, 0.4],
                          horizon_at(1), CFG)

        def count(node):
            return 1 + sum(count(child) for child in node.children)

        assert sum(count(root) for root in tree) == sum(len(level) for level in tree.levels)
        prune(tree)
        assert sum(count(root) for root in tree) == sum(int(lv.alive.sum()) for lv in tree.levels)


class TestStepping:
    """Roots and levels step on kinematics and, once priced, equal scalar
    steps from the unsafe state; a level's sampled commands are
    range-checked once, before any of its pairs is stepped."""

    @pytest.mark.parametrize("loc, vel, time, last_accel", [
        (300.0, 55.0, 3.0, 0.0), (460.0, 66.0, 1.0, 0.8), (1495.0, 30.0, 90.0, -1.1),
    ], ids=["mid-section", "jerky", "arriving"])
    @pytest.mark.parametrize("graded", [False, True], ids=["flat", "graded"])
    def test_root_rows_are_scalar_steps_bitwise(self, loc, vel, time, last_accel, graded):
        track = GRADED if graded else make_track()
        env = TrainEnv(make_model(), track, RewardWeights(alpha_traction=2.0, jerk_threshold=2.5))
        state = OperationState(loc, vel, time, 0.3, last_accel)
        safe_set = [-1.0, -0.5, 0.0, 0.25, 1.0]
        tree = build_tree(env, PLAIN, steady_policy(0.0), state, safe_set, horizon_at(3), CFG)
        price(tree, env, state.last_accel)
        roots = tree.levels[0]
        outs = [step(env.model, track, state, cmd, env.weights) for cmd in safe_set]
        want = {
            "reward": [out.reward for out in outs],
            "loc": [out.next_state.loc for out in outs],
            "vel": [out.next_state.vel for out in outs],
            "time": [out.next_state.time for out in outs],
            "accel": [out.next_state.last_accel for out in outs],
        }
        for name, values in want.items():
            column = getattr(roots, name)
            assert column.dtype == np.float64, name
            assert [x.hex() for x in column.tolist()] == [x.hex() for x in values], name
        assert roots.terminal.dtype == bool
        assert roots.terminal.tolist() == [out.arrived for out in outs]
        assert any(roots.terminal) == (loc > 1400.0)
        assert roots.cmd.dtype == np.float64 and roots.cmd.tolist() == safe_set
        assert roots.parent.dtype == np.intp and not roots.parent.any()

    @pytest.mark.parametrize("loc, vel, cmd", BAD_STEP_INPUTS)
    def test_unsafe_state_checked_as_step_checks_it(self, env, loc, vel, cmd):
        state = OperationState(loc, vel)
        with pytest.raises(ValueError) as want:
            step(env.model, env.track, state, cmd)
        with pytest.raises(ValueError, match=f"^{re.escape(str(want.value))}$"):
            build_tree(env, PLAIN, steady_policy(0.0), state, [cmd], horizon_at(0), CFG)

    @pytest.mark.parametrize("bad", [1.5, -1.0 - 1e-9, math.nan], ids=["above", "below", "nan"])
    @pytest.mark.parametrize("width", [3, 1000], ids=["one-block", "wider-than-a-block"])
    def test_bad_sample_raises_before_any_pair_steps(self, env, monkeypatch, bad, width):
        state = OperationState(loc=300.0, vel=55.0)
        safe_set = safe_action_set(PLAIN, env.model, env.track, state, 9)
        assert (len(safe_set) * width > search_tree._BLOCK_PAIRS) == (width == 1000)

        def sampler(states, n):
            samples = np.full((len(states), n), 0.1)
            samples[-1, -1] = bad  # the level's last pair, in its last block
            return samples

        stepped = []
        kernel = search_tree._kinematics
        monkeypatch.setattr(search_tree, "_kinematics", lambda *a: stepped.append(a) or kernel(*a))
        with pytest.raises(ValueError) as want:
            step(env.model, env.track, state, bad)
        with pytest.raises(ValueError, match=f"^{re.escape(str(want.value))}$"):
            build_tree(env, PLAIN, sampler, state, safe_set, horizon_at(0),
                       SearchConfig(expansion_width=width))
        # the roots' one array step over the safe set, and no pair of the bad level
        assert [args[-1].tolist() for args in stepped] == [safe_set]


class TestPricedAfterPrune:
    """No reward or energy term runs while a tree is built, nor for a tree
    that falls back; a tree that keeps a root is priced."""

    @pytest.fixture()
    def unpriced(self, monkeypatch):
        def no_reward(*args):
            raise AssertionError("a reward or energy term ran")

        # _price runs _reward_terms after both energies, so no pricing runs unseen
        monkeypatch.setattr(dynamics, "_reward_terms", no_reward)

    def test_build_runs_no_reward_term(self, env, unpriced):
        state = OperationState(loc=300.0, vel=55.0)
        safe_set = safe_action_set(PLAIN, env.model, env.track, state, 9)
        tree = build_tree(env, PLAIN, seeded_policy(3), state, safe_set, horizon_at(1), CFG)
        assert len(tree.levels) > 1
        assert all(level.reward is None for level in tree.levels)

    def test_fallback_runs_no_reward_term(self, env, unpriced):
        state = OperationState(loc=200.0, vel=79.8)
        assert search_safe_action(
            env, PLAIN, steady_policy(1.0), state, [-1.0, -0.5], horizon_at(0), CFG
        ) == -1.0

    def test_kept_root_is_priced(self, env, unpriced):
        state = OperationState(loc=300.0, vel=55.0)
        tree = build_tree(env, PLAIN, seeded_policy(3), state, [-0.5, 0.0], horizon_at(1), CFG)
        assert prune(tree) is tree
        with pytest.raises(AssertionError, match="reward or energy"):
            search_safe_action(env, PLAIN, seeded_policy(3), state, [-0.5, 0.0], horizon_at(1),
                               CFG)


def wavy_policy(states, n):
    """Deterministic sampler: each command depends only on the raw state row and its slot."""
    return np.array([
        [min(1.0, max(-1.0, math.sin(0.013 * loc + 0.7 * j) + 0.02 * vel + 0.001 * time - 0.6))
         for j in range(n)]
        for loc, vel, time in states.tolist()
    ]).reshape(len(states), n)


GRADED = make_track(
    limits=((0.0, 600.0, 70.0), (600.0, 1000.0, 45.0), (1000.0, 1500.0, 80.0)),
    grades=((0.0, 700.0, -0.004), (700.0, 1500.0, 0.006)),
)
FLOOR_AND_REVERSAL = SafetySpec(min_speed=8.0, forbid_direct_reversal=True, terminal_zone=200.0)


class TestMatchesDepthFirstReference:
    """The level arrays are the depth-first reference tree, flattened breadth first."""

    @pytest.mark.parametrize(
        "spec", [PLAIN, SafetySpec(forbid_direct_reversal=True), FLOOR_AND_REVERSAL],
        ids=["plain", "reversal", "floor+reversal"],
    )
    @pytest.mark.parametrize("policy", [wavy_policy, steady_policy(0.4), steady_policy(-0.3)],
                             ids=["wavy", "steady+0.4", "steady-0.3"])
    @pytest.mark.parametrize("track", [make_track(), GRADED], ids=["flat", "graded"])
    def test_trees_and_choices_identical(self, spec, policy, track):
        env = TrainEnv(make_model(), track)
        cfg = SearchConfig(expansion_width=3)
        for loc, vel, t, last_accel in [(300.0, 55.0, 0, 0.0), (460.0, 66.0, 1, 0.8),
                                        (1380.0, 40.0, 5, -1.1), (40.0, 12.0, 2, 0.3)]:
            state = OperationState(loc=loc, vel=vel, time=float(t), last_accel=last_accel)
            safe_set = safe_action_set(spec, env.model, track, state, 9)
            if not safe_set:
                continue
            args, horizon = (env, spec, policy, state, safe_set), horizon_at(t, 4)
            assert_same_levels(build_tree(*args, horizon, cfg),
                               reference_build_tree(*args, t, 4, cfg), env, last_accel, 4)
            assert search_safe_action(*args, horizon, cfg) == reference_search(*args, t, 4, cfg)

    def test_all_unsafe_samples_fall_back_to_hardest_braking(self, env):
        state = OperationState(loc=200.0, vel=79.8)
        args = (env, PLAIN, steady_policy(1.0), state, [-1.0, -0.5])
        tree = build_tree(*args, horizon_at(0), CFG)
        assert_same_levels(tree, reference_build_tree(*args, 0, T_UP, CFG), env)
        assert prune(tree) is None
        assert not tree.levels[0].alive.any()
        assert (search_safe_action(*args, horizon_at(0), CFG)
                == reference_search(*args, 0, T_UP, CFG) == -1.0)

    def test_constant_probe_at_t_up_7(self, monkeypatch):
        # every correction of a +1 noise-test episode, checked against the reference
        cfg = load_config(default_scenario_path())
        cfg = dataclasses.replace(cfg, run=dataclasses.replace(cfg.run, t_up=7))
        checked = []

        def checked_search(env, spec, policy, state, safe_set, horizon, search_cfg):
            # the probe's state time counts its steps, so the reference grows
            # from the step the loop is at, on its own (t, t_up) rule
            t = round(state.time / cfg.track.dt)
            assert horizon == horizon_at(t, 7)
            args = (env, spec, policy, state, safe_set)
            want = reference_build_tree(*args, t, 7, search_cfg)
            assert_same_levels(build_tree(*args, horizon, search_cfg), want, env,
                               state.last_accel, 7)
            chosen = search_safe_action(*args, horizon, search_cfg)
            assert chosen == reference_choice(want, safe_set, 7, search_cfg)
            checked.append(chosen)
            return chosen

        monkeypatch.setattr(trainer, "search_safe_action", checked_search)
        metrics = trainer.noise_test(cfg, 1.0, episodes=1)
        assert len(checked) == metrics[0].protect_times > 0

    def test_probe_tree_shape_pinned(self, monkeypatch):
        # the +1 probe's digest and pins read only the executed commands,
        # which mostly fall back to min(safe_set): the tree's size and its
        # fallbacks are pinned here
        cfg = load_config(default_scenario_path())
        cfg = dataclasses.replace(cfg, run=dataclasses.replace(cfg.run, t_up=7))
        built, fell_back = [], []
        build, cut = search_tree.build_tree, search_tree.prune

        def counted_build(*args):
            tree = build(*args)
            built.append(sum(len(level) for level in tree.levels))
            return tree

        def counted_prune(tree):
            kept = cut(tree)
            fell_back.append(kept is None)
            return kept

        monkeypatch.setattr(search_tree, "build_tree", counted_build)
        monkeypatch.setattr(search_tree, "prune", counted_prune)
        metrics = trainer.noise_test(cfg, 1.0, episodes=1)
        assert metrics[0].protect_times == len(built) == len(fell_back) == 30
        assert sum(fell_back) == 20
        assert sum(built) == 6112

    def test_sampler_gets_raw_state_rows_of_open_nodes(self, env):
        seen = []

        def recording(states, n):
            seen.append(states.copy())
            return wavy_policy(states, n)

        state = OperationState(loc=300.0, vel=55.0, time=3.0)
        tree = build_tree(env, PLAIN, recording, state, [-0.5, 0.0, 0.4], horizon_at(3), CFG)
        assert len(seen) == len(tree.levels) - 1 > 0
        for states, level in zip(seen, tree.levels):
            open_rows = ~level.terminal
            assert states.shape == (int(open_rows.sum()), 3)
            assert states.tolist() == np.column_stack(
                (level.loc, level.vel, level.time))[open_rows].tolist()

    def test_sampler_shape_checked(self, env):
        with pytest.raises(ValueError, match="shape"):
            build_tree(env, PLAIN, lambda states, n: np.zeros(n),
                       OperationState(loc=100.0, vel=30.0), [0.0], horizon_at(0), CFG)


def node(step_idx, reward, children=(), terminal=False, cmd=0.0):
    return RefNode(cmd=cmd, reward=reward, depth_step=step_idx, terminal=terminal,
                   children=children)


class TestPrune:
    def test_complete_tree_unchanged(self):
        tree = to_tree([node(4, 1.0, [node(5, 2.0), node(5, 3.0)])], 4)
        assert prune(tree) is tree
        assert [lv.alive.tolist() for lv in tree.levels] == [[True], [True, True]]

    def test_truncated_branch_removed(self):
        # one child stops short of the update step and must vanish entirely
        short = node(4, 9.0)  # 4 % 5 != 0, childless
        full = node(4, 1.0, [node(5, 2.0)])
        tree = to_tree([node(3, 0.0, [short, full])], 3)
        assert prune(tree) is tree
        assert [lv.alive.tolist() for lv in tree.levels] == [[True], [False, True], [True]]
        (root,) = tree.children
        assert [child.row for child in root.children] == [1]

    def test_everything_truncated_gives_none(self):
        tree = to_tree([node(3, 0.0, [node(4, 1.0), node(4, 2.0)])], 3)
        assert prune(tree) is None
        assert tree.children == []

    def test_terminal_leaf_survives_off_cadence(self):
        tree = to_tree([node(3, 0.0, [node(4, 5.0, terminal=True)])], 3)
        assert prune(tree) is tree
        assert [lv.alive.tolist() for lv in tree.levels] == [[True], [True]]

    def test_dead_roots_dropped_live_ones_kept(self):
        tree = to_tree([node(4, 0.0), node(4, 0.0, [node(5, 1.0)]), node(4, 0.0)], 4)
        assert prune(tree) is tree
        assert tree.levels[0].alive.tolist() == [False, True, False]


class TestBackup:
    @staticmethod
    def backed(roots, root_step, discount=CFG.backup_discount):
        tree = to_tree(roots, root_step)
        assert prune(tree) is tree
        backup(tree, dataclasses.replace(CFG, backup_discount=discount))
        return tree

    def test_leaf_keeps_rollout_reward(self):
        assert self.backed([node(5, 2.5)], 5).levels[0].ret.tolist() == [2.5]

    def test_branch_mixes_discounted_child_mean(self):
        tree = self.backed([node(4, 1.0, [node(5, 2.0), node(5, 4.0)])], 4)
        assert tree.levels[0].ret[0] == pytest.approx(1.0 + 0.9 * 3.0)

    def test_three_node_chain(self):
        tree = self.backed([node(3, 1.0, [node(4, 1.0, [node(5, 1.0)])])], 3)
        assert tree.levels[0].ret[0] == pytest.approx(1.0 + 0.9 * (1.0 + 0.9 * 1.0))

    def test_dead_children_left_out_of_the_mean(self):
        tree = self.backed([node(3, 1.0, [node(4, 100.0), node(4, 2.0, [node(5, 4.0)])])], 3)
        assert tree.levels[0].ret[0] == pytest.approx(1.0 + 0.9 * (2.0 + 0.9 * 4.0))

    def test_wide_nodes_sum_children_in_sample_order(self, rng):
        # past 8 children a pairwise sum rounds differently from the sequential one
        for _ in range(200):
            kids = [node(5, float(rng.uniform(-10, 10))) for _ in range(int(rng.integers(9, 13)))]
            root = node(4, float(rng.uniform(-10, 10)), kids)
            assert self.backed([root], 4).levels[0].ret[0] == ref_backup(root, CFG.backup_discount)

    def test_randomized_trees_match_brute_force(self, rng):
        for _ in range(300):
            root = random_tree(rng)
            tree = self.backed([root], root.depth_step)
            for level, rows in zip(tree.levels, breadth_first_levels([root])):
                assert level.ret.tolist() == [brute_backup(n, CFG.backup_discount) for n, _ in rows]


class TestSelect:
    @staticmethod
    def chosen(returns_and_cmds):
        # roots on an update step survive and are leaves, so ret is the reward
        tree = to_tree([node(5, r, cmd=c) for r, c in returns_and_cmds], 5)
        prune(tree)
        backup(tree, CFG)
        return select_safe_action(tree)

    def test_argmax(self):
        assert self.chosen([(3.7, 0.5), (2.1, -0.5)]) == 0.5

    def test_tie_breaks_toward_braking(self):
        assert self.chosen([(2.0, 0.5), (2.0, -0.25)]) == -0.25
        assert self.chosen([(2.0, -0.25), (2.0, 0.5)]) == -0.25

    def test_single_root(self):
        assert self.chosen([(-1.0, 0.75)]) == 0.75

    def test_empty_rejected(self):
        tree = to_tree([node(3, 0.0), node(3, 1.0)], 3)
        assert prune(tree) is None
        with pytest.raises(ValueError):
            select_safe_action(tree)

    def test_randomized_selection_is_exact_argmax(self, rng):
        for _ in range(200):
            pairs = [(float(rng.choice([1.0, 2.0, rng.uniform(-5, 5)])), float(rng.uniform(-1, 1)))
                     for _ in range(int(rng.integers(1, 9)))]
            best = max(r for r, _ in pairs)
            assert self.chosen(pairs) == min(c for r, c in pairs if r == best)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    t_up=st.integers(2, 6),
    root_step=st.integers(1, 10),
    max_width=st.integers(1, 12),
    p_stop=st.sampled_from([0.0, 0.2, 0.6, 1.0]),
    p_terminal=st.sampled_from([0.0, 0.1, 0.4]),
    discount=st.sampled_from([0.9, 1.0, 0.37]),
)
def test_array_prune_backup_select_equal_naive_oracle(
    seed, t_up, root_step, max_width, p_stop, p_terminal, discount
):
    """Over random level trees (more than 8 children per node, off-cadence
    terminals, all roots dying), the array passes equal the recursive oracle
    exactly, ties toward braking included."""
    rng = np.random.default_rng(seed)
    roots = random_forest(rng, t_up, root_step, max_width, p_stop, p_terminal)
    full = breadth_first_levels(roots)
    tree = to_tree(roots, root_step, t_up)
    cfg = SearchConfig(expansion_width=1, backup_discount=discount)

    kept = prune(tree)
    survivors = [r for r in roots if ref_prune(r, t_up) is not None]
    alive = {id(n) for rows in breadth_first_levels(survivors) for n, _ in rows}
    assert [lv.alive.tolist() for lv in tree.levels] == [
        [id(n) in alive for n, _ in rows] for rows in full
    ]
    if not survivors:
        assert kept is None
        return
    assert kept is tree
    backup(tree, cfg)
    for root in survivors:
        ref_backup(root, discount)
    for level, rows in zip(tree.levels, full):
        assert level.ret[level.alive].tolist() == [n.ret for n, _ in rows if id(n) in alive]
    assert select_safe_action(tree) == ref_select(survivors)


def test_search_config_validation(tmp_path):
    base = yaml.safe_load(default_scenario_path().read_text())
    for key, value in (("action_grid", 1), ("expansion_width", 0), ("backup_discount", 0.0)):
        path = tmp_path / f"{key}.yaml"
        path.write_text(yaml.safe_dump({**base, "search": {**base["search"], key: value}}))
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert [e.split(":")[0] for e in err.value.errors] == [f"search.{key}"]
