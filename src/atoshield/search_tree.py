"""Reward-greedy correction of unsafe proposals by bounded tree search.

Each safe candidate command seeds one root; nodes expand with policy-sampled
actions kept only when the shield certifies them, and every branch runs out
exactly at the next policy-update step, ``horizon`` levels below the roots, so
the lookahead never outlives the network weights it was computed with.  Returns
back up with a fixed discount over the uniform mean of children, and the root
with the best backed-up return wins (ties resolve toward harder braking).

The tree is one struct-of-arrays per level, with no Python object per node.
Every node of a level sits at the same environment step, so level k holds
the nodes entered k steps after the roots as parallel arrays (:class:`Level`):
command, the motion of the interval that entered the node (motor and
applied acceleration, mean speed), state, whether the episode ended, and
the row of the parent in the previous level.  The tree is built on motion
alone, with :func:`~.dynamics._kinematics`.  :func:`build_tree` checks the
unsafe state and the safe set as :func:`~.dynamics.step` would, steps all
roots in one array call, then appends one level per step: one sampler call
over the raw ``(loc, vel, time)`` rows of the level's open nodes, one range
check of the sampled commands, and one array step over the (node, sample)
pairs, whose outcome both certifies each pair
(:func:`~.shield.rule_codes` is 0, with the parent's ``cmd`` as the command
that entered its state) and, when it is safe, becomes a row of the next
level.  The commands are the only level inputs from outside the tree: every
parent row is the kernel's own output from checked inputs.  A level wider
than ``_BLOCK_PAIRS`` pairs is stepped in blocks of that many.  Children
keep their sample order under their parent, so a level's ``parent`` column
never decreases, and a sampler whose draws depend only on the state gives
the same tree as expanding one node at a time, depth first.

A tree that :func:`prune` kills needs no rewards, so they are computed
only for a tree that keeps a root: :func:`price` runs
:func:`~.dynamics._price`, the reward body of :func:`~.dynamics.step`, once
per level, and gives every node the reward ``step`` would have given it.  :func:`prune` and :func:`backup`
are each one bottom-up pass over the levels, and :func:`select_safe_action`
reads the root level.  Children are summed with
``np.bincount(parent, weights=...)``, which adds in input order (sample
order), as a sequential sum over each node's children does.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from .dynamics import (
    ARRAYS, FLOATS, OperationState, _check_command, _check_step_inputs, _kinematics, _price,
)
from .shield import SafetySpec, rule_codes

if TYPE_CHECKING:
    from .trainer import TrainEnv

# (node, sample) pairs per array step: a wide level runs in blocks, so the
# kernels' temporaries stay small however many pairs the level holds
_BLOCK_PAIRS = 4096

PolicySampler = Callable[[np.ndarray, int], np.ndarray]
"""``(states, n) -> array (rows, n)``: n commands in [-1, 1] per state.

``states`` is a ``(rows, 3)`` array of raw ``(loc, vel, time)`` rows.  The tree
calls the sampler once per level with the level's open (non-terminal) nodes
in row order (roots in safe-set order, then each parent's children in sample
order).  A sampler that draws random numbers draws them row-major, so row
i's samples come before row i+1's.
"""


@dataclass
class SearchConfig:
    """Tree search settings; ``config.load_config`` checks their bounds."""

    expansion_width: int = 5  # policy samples per expanded node
    backup_discount: float = 0.9
    action_grid: int = 9  # candidate grid used to form the safe set


@dataclass(slots=True, eq=False)
class Level:
    """The nodes of one tree depth as parallel arrays, one row per node."""

    cmd: np.ndarray  # command entering the node
    a_motor: np.ndarray  # motor accel of that transition, m/s^2: prices its energy
    mean_speed: np.ndarray  # its mean speed, m/s: prices its energy and timekeeping
    loc: np.ndarray  # state entered: m
    vel: np.ndarray  # km/h
    time: np.ndarray  # s
    accel: np.ndarray  # applied accel entering the node, threads the jerk term
    terminal: np.ndarray  # bool: the transition ended the episode
    parent: np.ndarray  # row of the parent in the previous level; roots: 0, the unsafe state
    alive: np.ndarray | None = None  # bool, set by prune
    reward: np.ndarray | None = None  # reward of the transition, set by price
    ret: np.ndarray | None = None  # backed-up return, set by backup

    def __len__(self) -> int:
        return len(self.cmd)


_ARRAYS = tuple(f.name for f in fields(Level) if f.name not in ("alive", "reward", "ret"))


class SearchTree:
    """The correction tree from one unsafe state, level by level.

    ``levels[0]`` holds the roots and level ``horizon``, if the tree reaches
    it, the next policy-update step; no level is empty.  Iterating the tree (or
    reading ``children``) walks it node by node as :class:`NodeView` objects,
    made only on demand; after :func:`prune` only surviving nodes are walked.
    """

    def __init__(self, levels: list[Level], horizon: int):
        self.levels = levels
        self.horizon = horizon

    @property
    def children(self) -> list["NodeView"]:
        return NodeView(self, -1, 0).children

    def __iter__(self):
        return iter(self.children)


class NodeView:
    """Node ``row`` of level ``depth`` (depth -1 is the unsafe state)."""

    __slots__ = ("tree", "depth", "row")

    def __init__(self, tree: SearchTree, depth: int, row: int):
        self.tree, self.depth, self.row = tree, depth, row

    @property
    def children(self) -> list["NodeView"]:
        if self.depth + 1 == len(self.tree.levels):
            return []
        below = self.tree.levels[self.depth + 1]
        lo, hi = np.searchsorted(below.parent, (self.row, self.row + 1))
        return [
            NodeView(self.tree, self.depth + 1, k)
            for k in range(int(lo), int(hi))
            if below.alive is None or below.alive[k]
        ]


def build_tree(
    env: "TrainEnv",
    spec: SafetySpec,
    policy: PolicySampler,
    state_unsafe: OperationState,
    safe_set: Sequence[float],
    horizon: int,
    cfg: SearchConfig,
) -> SearchTree:
    """Grow one root per safe candidate command taken from the unsafe state.

    The tree grows at most ``horizon`` levels below the roots: ``horizon`` is
    the number of steps from the roots to the next policy update, 0 when the
    roots sit on it.  Transitions use ``env``'s model and track, and no node is
    priced (see :func:`price`).  Unsafe policy samples are dropped rather than
    replaced, so branches can die out before the update step and get pruned.
    """
    if not safe_set:
        raise ValueError("safe_set must be nonempty")
    model, track = env.model, env.track
    cmds = np.asarray(safe_set, dtype=float)
    # the unsafe state and the safe set are the roots' only inputs from outside
    # the tree: checked as stepping each command in turn would check them
    loc, vel = state_unsafe.loc, state_unsafe.vel
    _check_step_inputs(FLOATS, track, loc, vel, float(cmds[0]))
    _check_command(ARRAYS, cmds)
    a_motor, accel, mean_speed, loc1, vel1, arrived = _kinematics(
        ARRAYS, model, track, loc, vel, cmds
    )
    time1 = np.full(cmds.size, state_unsafe.time + track.dt)
    levels = [Level(cmds, a_motor, mean_speed, loc1, vel1, time1, accel, arrived,
                    np.zeros(cmds.size, np.intp))]
    width = cfg.expansion_width
    for _ in range(horizon):
        above = levels[-1]
        open_rows = np.flatnonzero(~above.terminal)
        if open_rows.size == 0:
            break
        states = np.column_stack((above.loc[open_rows], above.vel[open_rows], above.time[open_rows]))
        samples = np.asarray(policy(states, width), dtype=float)
        if samples.shape != (open_rows.size, width):
            raise ValueError(
                f"sampler returned shape {samples.shape}, expected {(open_rows.size, width)}"
            )
        cmd = samples.ravel()  # pair k is sample k % width of open row k // width
        _check_command(ARRAYS, cmd)
        pair_parent = np.repeat(open_rows, width)
        blocks = []
        for lo in range(0, cmd.size, _BLOCK_PAIRS):
            pairs = slice(lo, lo + _BLOCK_PAIRS)
            parent, block_cmd = pair_parent[pairs], cmd[pairs]
            loc, vel = above.loc[parent], above.vel[parent]
            a_motor, accel, mean_speed, loc1, vel1, arrived = _kinematics(
                ARRAYS, model, track, loc, vel, block_cmd
            )
            codes = rule_codes(spec, model, track, loc, vel, above.cmd[parent], block_cmd,
                               accel, loc1, vel1, arrived)
            safe = np.flatnonzero(codes == 0)
            kept = parent[safe]
            blocks.append(Level(block_cmd[safe], a_motor[safe], mean_speed[safe], loc1[safe],
                                vel1[safe], above.time[kept] + track.dt, accel[safe],
                                arrived[safe], kept))
        level = blocks[0] if len(blocks) == 1 else Level(
            *(np.concatenate([getattr(b, name) for b in blocks]) for name in _ARRAYS)
        )
        if not len(level):
            break
        levels.append(level)
    return SearchTree(levels, horizon)


def prune(tree: SearchTree) -> SearchTree | None:
    """Keep only the branches that reach the update step or end the episode.

    One bottom-up pass sets each level's ``alive``: a node survives when it
    ended the episode, sits at depth ``tree.horizon`` (the update step), or
    has a surviving child.  Returns the tree, or None when no root survives.
    """
    below = None
    for depth in range(len(tree.levels) - 1, -1, -1):
        level = tree.levels[depth]
        if depth == tree.horizon:
            alive = np.ones(len(level), dtype=bool)
        else:
            alive = level.terminal.copy()
            if below is not None:
                alive |= np.bincount(below.parent[below.alive], minlength=len(level)) > 0
        level.alive = alive
        below = level
    return tree if tree.levels[0].alive.any() else None


def price(tree: SearchTree, env: "TrainEnv", accel_in: float) -> None:
    """Fill each level's ``reward`` with ``env``'s reward weights: each node
    gets the reward of :func:`~.dynamics.step` into it, bitwise.  Roots follow
    the unsafe state, entered with applied acceleration ``accel_in``; every
    other node follows its parent's ``accel``."""
    model, track, weights = env.model, env.track, env.weights
    for depth, level in enumerate(tree.levels):
        if depth:
            accel_in = tree.levels[depth - 1].accel[level.parent]
        level.reward = _price(ARRAYS, model, track, weights, level.cmd, level.a_motor,
                              level.accel, level.mean_speed, level.terminal, level.time,
                              accel_in)[0]


def backup(tree: SearchTree, cfg: SearchConfig) -> None:
    """Fill each level's ``ret`` over a pruned tree: leaves keep their reward,
    branch nodes add the discounted mean of their surviving children's returns."""
    below = None
    for level in reversed(tree.levels):
        ret = level.reward.copy()
        if below is not None:
            kids = below.parent[below.alive]
            count = np.bincount(kids, minlength=len(level))
            total = np.bincount(kids, weights=below.ret[below.alive], minlength=len(level))
            branch = count > 0
            ret[branch] += cfg.backup_discount * (total[branch] / count[branch])
        level.ret = ret
        below = level


def select_safe_action(tree: SearchTree) -> float:
    """Command of the surviving root with maximal backed-up return; ties brake harder."""
    roots = tree.levels[0]
    rows = np.flatnonzero(roots.alive)
    if rows.size == 0:
        raise ValueError("no surviving roots to select from")
    ret = roots.ret[rows]
    return float(roots.cmd[rows[ret == ret.max()]].min())


def search_safe_action(
    env: "TrainEnv",
    spec: SafetySpec,
    policy: PolicySampler,
    state_unsafe: OperationState,
    safe_set: Sequence[float],
    horizon: int,
    cfg: SearchConfig,
) -> float:
    """Full correction pipeline, at most ``horizon`` levels deep: build, prune, price, back up, select.

    Falls back to the hardest-braking safe candidate when pruning kills every
    root, the conservative default for a train protection system; a tree that
    falls back is never priced.  The roots' jerk term reads the applied
    acceleration that entered the unsafe state, its ``last_accel``.
    """
    tree = build_tree(env, spec, policy, state_unsafe, safe_set, horizon, cfg)
    if prune(tree) is None:
        return min(safe_set)
    price(tree, env, state_unsafe.last_accel)
    backup(tree, cfg)
    return select_safe_action(tree)
