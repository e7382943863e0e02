import numpy as np
import pytest

import dataclasses

from atoshield import trainer
from atoshield.config import default_scenario_path, load_config
from atoshield.dynamics import OperationState
from atoshield.search_tree import (
    SearchConfig,
    SearchNode,
    backup,
    build_tree,
    prune,
    search_safe_action,
    select_safe_action,
)
from atoshield.shield import SafetySpec, is_safe, safe_action_set
from atoshield.trainer import TrainEnv

from conftest import make_model, make_track
from oracles import (
    brute_backup,
    random_tree,
    reference_build_tree,
    reference_choice,
    reference_search,
)

CFG = SearchConfig(expansion_width=3, update_frequency=5, backup_discount=0.9, action_grid=9)
PLAIN = SafetySpec()


def steady_policy(cmd):
    return lambda states, n: np.full((len(states), n), cmd)


def seeded_policy(seed, scale=0.4):
    rng = np.random.default_rng(seed)
    return lambda states, n: np.clip(rng.normal(0.2, scale, (len(states), n)), -1.0, 1.0)


def pruned(roots, cfg=CFG):
    return [kept for kept in (prune(r, cfg.update_frequency) for r in roots) if kept is not None]


@pytest.fixture()
def env(model, track):
    return TrainEnv(model, track)


def leaves(node):
    if not node.children:
        return [node]
    out = []
    for child in node.children:
        out += leaves(child)
    return out


def all_nodes(node):
    out = [node]
    for child in node.children:
        out += all_nodes(child)
    return out


class TestBuildTree:
    def test_update_step_gives_depth_one(self, env):
        state = OperationState(loc=100.0, vel=40.0)
        # roots land on step t+1 = 5, an update step, so no expansion happens
        roots = build_tree(env, PLAIN, steady_policy(0.2), state, [0.0, 0.5], 4, CFG)
        assert len(roots) == 2
        assert all(not r.children for r in roots)
        assert all(r.depth_step == 5 for r in roots)

    def test_width_one_is_single_path(self, env):
        cfg = SearchConfig(expansion_width=1, update_frequency=5, action_grid=9)
        state = OperationState(loc=100.0, vel=40.0)
        roots = build_tree(env, PLAIN, steady_policy(0.1), state, [0.3], 0, cfg)
        node = roots[0]
        length = 1
        while node.children:
            assert len(node.children) == 1
            node = node.children[0]
            length += 1
        assert length <= cfg.update_frequency

    def test_unsafe_policy_starves_expansion(self, env, model, track):
        # a policy that always floors the throttle right at the limit is
        # never certified, so non-update-step roots end up childless
        state = OperationState(loc=200.0, vel=79.8)
        roots = build_tree(env, PLAIN, steady_policy(1.0), state, [-1.0, -0.5], 0, CFG)
        kept = pruned(roots)
        assert kept == [] or all(
            leaf.terminal or leaf.depth_step % CFG.update_frequency == 0
            for r in kept for leaf in leaves(r)
        )
        # the orchestrator falls back to hardest braking
        chosen = search_safe_action(
            env, PLAIN, steady_policy(1.0), state, [-1.0, -0.5], 0, CFG
        )
        assert chosen in (-1.0, -0.5)

    def test_every_node_shield_certified(self, env, model, track):
        state = OperationState(loc=300.0, vel=55.0)
        roots = build_tree(env, PLAIN, seeded_policy(3), state, [-0.5, 0.0, 0.4], 1, CFG)
        for root in roots:
            stack = [(state, root)]
            while stack:
                parent_state, node = stack.pop()
                assert is_safe(PLAIN, model, track, parent_state, node.incoming_cmd).safe
                for child in node.children:
                    stack.append((node.state, child))

    def test_deterministic_with_seeded_sampler(self, env):
        state = OperationState(loc=300.0, vel=55.0)

        def run():
            roots = build_tree(env, PLAIN, seeded_policy(7), state, [-0.5, 0.0], 2, CFG)
            roots = pruned(roots)
            return [backup(r, CFG) for r in roots]

        assert run() == run()

    def test_depth_law_after_pruning(self, env):
        state = OperationState(loc=300.0, vel=50.0)
        for t in range(0, 10):
            roots = build_tree(env, PLAIN, seeded_policy(t), state, [0.0, 0.3], t, CFG)
            for root in pruned(roots):
                for leaf in leaves(root):
                    assert leaf.terminal or leaf.depth_step % CFG.update_frequency == 0
                depth = max(n.depth_step for n in all_nodes(root)) - root.depth_step + 1
                assert depth <= CFG.update_frequency


def wavy_policy(states, n):
    """Deterministic sampler: each command depends only on the state and its slot."""
    return np.array([
        [float(np.clip(np.sin(0.013 * s.loc + 0.7 * j) + 0.02 * s.vel - 0.6, -1.0, 1.0))
         for j in range(n)]
        for s in states
    ]).reshape(len(states), n)


def assert_same_tree(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert (a.incoming_cmd, a.rollout_reward, a.state, a.accel, a.depth_step, a.terminal) == (
            b.incoming_cmd, b.rollout_reward, b.state, b.accel, b.depth_step, b.terminal
        )
        assert_same_tree(a.children, b.children)


GRADED = make_track(
    limits=((0.0, 600.0, 70.0), (600.0, 1000.0, 45.0), (1000.0, 1500.0, 80.0)),
    grades=((0.0, 700.0, -0.004), (700.0, 1500.0, 0.006)),
)
FLOOR_AND_REVERSAL = SafetySpec(
    min_speed=8.0, enforce_min_speed=True, forbid_direct_reversal=True, terminal_zone=200.0
)


class TestMatchesDepthFirstReference:
    """The level-batched tree is node-for-node the depth-first one."""

    @pytest.mark.parametrize(
        "spec", [PLAIN, SafetySpec(forbid_direct_reversal=True), FLOOR_AND_REVERSAL],
        ids=["plain", "reversal", "floor+reversal"],
    )
    @pytest.mark.parametrize("policy", [wavy_policy, steady_policy(0.4), steady_policy(-0.3)],
                             ids=["wavy", "steady+0.4", "steady-0.3"])
    @pytest.mark.parametrize("track", [make_track(), GRADED], ids=["flat", "graded"])
    def test_trees_and_choices_identical(self, spec, policy, track):
        env = TrainEnv(make_model(), track)
        cfg = SearchConfig(expansion_width=3, update_frequency=4)
        for loc, vel, t, prev_accel in [(300.0, 55.0, 0, 0.0), (460.0, 66.0, 1, 0.8),
                                        (1380.0, 40.0, 5, -1.1), (40.0, 12.0, 2, 0.3)]:
            state = OperationState(loc=loc, vel=vel, time=float(t))
            safe_set = safe_action_set(spec, env.model, track, state, 9)
            if not safe_set:
                continue
            args = (env, spec, policy, state, safe_set, t, cfg, prev_accel)
            assert_same_tree(build_tree(*args), reference_build_tree(*args))
            assert search_safe_action(*args) == reference_search(*args)

    def test_all_unsafe_samples_fall_back_to_hardest_braking(self, env):
        state = OperationState(loc=200.0, vel=79.8)
        args = (env, PLAIN, steady_policy(1.0), state, [-1.0, -0.5], 0, CFG)
        roots = build_tree(*args)
        assert_same_tree(roots, reference_build_tree(*args))
        assert pruned(roots) == []
        assert search_safe_action(*args) == reference_search(*args) == -1.0

    def test_constant_probe_at_t_up_7(self, monkeypatch):
        # every correction of a +1 noise-test episode, checked against the reference
        cfg = load_config(default_scenario_path())
        cfg = dataclasses.replace(
            cfg,
            run=dataclasses.replace(cfg.run, t_up=7),
            search=dataclasses.replace(cfg.search, update_frequency=7),
        )
        checked = []

        def checked_search(*args):
            want = reference_build_tree(*args)
            assert_same_tree(build_tree(*args), want)
            chosen = search_safe_action(*args)
            assert chosen == reference_choice(want, args[4], args[6])
            checked.append(chosen)
            return chosen

        monkeypatch.setattr(trainer, "search_safe_action", checked_search)
        metrics = trainer.noise_test(cfg, 1.0, episodes=1)
        assert len(checked) == metrics[0].protect_times > 0

    def test_sampler_shape_checked(self, env):
        with pytest.raises(ValueError, match="shape"):
            build_tree(env, PLAIN, lambda states, n: np.zeros(n),
                       OperationState(loc=100.0, vel=30.0), [0.0], 0, CFG)


def node(step_idx, reward, children=()):
    return SearchNode(
        state=None, incoming_cmd=0.0, rollout_reward=reward,
        depth_step=step_idx, children=list(children),
    )


class TestPrune:
    def test_complete_tree_unchanged(self):
        root = node(4, 1.0, [node(5, 2.0), node(5, 3.0)])
        kept = prune(root, 5)
        assert kept is root and len(kept.children) == 2

    def test_truncated_branch_removed(self):
        # one child stops short of the update step and must vanish entirely
        short = node(4, 9.0)  # 4 % 5 != 0, childless
        full = node(4, 1.0, [node(5, 2.0)])
        root = node(3, 0.0, [short, full])
        kept = prune(root, 5)
        assert kept is root
        assert kept.children == [full]

    def test_everything_truncated_gives_none(self):
        root = node(3, 0.0, [node(4, 1.0), node(4, 2.0)])
        assert prune(root, 5) is None

    def test_terminal_leaf_survives_off_cadence(self):
        done = node(4, 5.0)
        done.terminal = True
        root = node(3, 0.0, [done])
        assert prune(root, 5) is root


class TestBackup:
    def test_leaf_keeps_rollout_reward(self):
        leaf = node(5, 2.5)
        assert backup(leaf, CFG) == 2.5

    def test_branch_mixes_discounted_child_mean(self):
        root = node(4, 1.0, [node(5, 2.0), node(5, 4.0)])
        assert backup(root, CFG) == pytest.approx(1.0 + 0.9 * 3.0)

    def test_three_node_chain(self):
        root = node(3, 1.0, [node(4, 1.0, [node(5, 1.0)])])
        assert backup(root, CFG) == pytest.approx(1.0 + 0.9 * (1.0 + 0.9 * 1.0))

    def test_randomized_trees_match_brute_force(self, rng):
        for _ in range(300):
            tree = random_tree(rng)
            got = backup(tree, CFG)
            want = brute_backup(tree, CFG.backup_discount)
            assert got == pytest.approx(want, abs=1e-9)
            for n in all_nodes(tree):
                assert n.backed_return == pytest.approx(
                    brute_backup(n, CFG.backup_discount), abs=1e-9
                )


class TestSelect:
    def test_argmax(self):
        a = node(5, 0.0)
        a.backed_return, a.incoming_cmd = 3.7, 0.5
        b = node(5, 0.0)
        b.backed_return, b.incoming_cmd = 2.1, -0.5
        assert select_safe_action([a, b]) == 0.5

    def test_tie_breaks_toward_braking(self):
        a = node(5, 0.0)
        a.backed_return, a.incoming_cmd = 2.0, 0.5
        b = node(5, 0.0)
        b.backed_return, b.incoming_cmd = 2.0, -0.25
        assert select_safe_action([a, b]) == -0.25
        assert select_safe_action([b, a]) == -0.25

    def test_single_root(self):
        a = node(5, 0.0)
        a.backed_return, a.incoming_cmd = -1.0, 0.75
        assert select_safe_action([a]) == 0.75

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            select_safe_action([])

    def test_randomized_selection_is_exact_argmax(self, rng):
        for _ in range(200):
            k = int(rng.integers(1, 9))
            roots = []
            for _ in range(k):
                r = node(5, 0.0)
                r.backed_return = float(rng.choice([1.0, 2.0, rng.uniform(-5, 5)]))
                r.incoming_cmd = float(rng.uniform(-1, 1))
                roots.append(r)
            best = max(r.backed_return for r in roots)
            want = min(r.incoming_cmd for r in roots if r.backed_return == best)
            assert select_safe_action(roots) == want


def test_search_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(action_grid=1)
    with pytest.raises(ValueError):
        SearchConfig(expansion_width=0)
    with pytest.raises(ValueError):
        SearchConfig(backup_discount=0.0)
    with pytest.raises(ValueError):
        SearchConfig(update_frequency=0)
