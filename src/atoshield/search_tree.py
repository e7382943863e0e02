"""Reward-greedy correction of unsafe proposals by bounded tree search.

Each safe candidate command seeds one root; nodes expand with policy-sampled
actions kept only when the shield certifies them, and every branch runs out
exactly at the next policy-update step so the lookahead never outlives the
network weights it was computed with.  Returns back up with a fixed discount
over the uniform mean of children, and the root with the best backed-up
return wins (ties resolve toward harder braking).

The tree grows one level at a time.  Every node of a level sits at the same
environment step, so a level's frontier is expanded together: one sampler
call for all its nodes, then one array step (:func:`~.dynamics.step_batch`)
over the (node, sample) pairs, whose outcome both certifies each pair
(:func:`~.shield.safe_mask`) and, when it is safe, becomes the child.  A level
wider than ``_BLOCK_PAIRS`` pairs is stepped in blocks of that many.  Children
keep their sample order under their parent, so a sampler whose draws depend
only on the state gives the same tree as expanding one node at a time, depth
first.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from .dynamics import BatchOutcome, OperationState, condition_of, step_batch
from .shield import SafetySpec, safe_mask

if TYPE_CHECKING:
    from .trainer import TrainEnv

# (node, sample) pairs per array step: a wide level runs in blocks, so the
# kernels' temporaries stay small however many pairs the level holds
_BLOCK_PAIRS = 4096

PolicySampler = Callable[[Sequence[OperationState], int], np.ndarray]
"""``(states, n) -> array (len(states), n)``: n commands in [-1, 1] per state.

The tree calls it once per level with the level's expandable nodes in order
(roots in safe-set order, then each parent's children in sample order).  A
sampler that draws random numbers draws them row-major, so row i's samples
come before row i+1's.
"""


@dataclass
class SearchConfig:
    expansion_width: int = 5  # policy samples per expanded node
    update_frequency: int = 5  # environment steps between policy updates
    backup_discount: float = 0.9
    action_grid: int = 9  # candidate grid used to form the safe set

    def __post_init__(self):
        if self.expansion_width < 1:
            raise ValueError("expansion_width must be >= 1")
        if self.update_frequency < 1:
            raise ValueError("update_frequency must be >= 1")
        if not 0.0 < self.backup_discount <= 1.0:
            raise ValueError("backup_discount must be in (0, 1]")
        if self.action_grid < 2:
            raise ValueError("action_grid must be >= 2")


@dataclass(slots=True)
class SearchNode:
    state: OperationState
    incoming_cmd: float
    rollout_reward: float
    depth_step: int  # absolute environment step index of entering this node
    children: list["SearchNode"] = field(default_factory=list)
    backed_return: float | None = None
    terminal: bool = False
    accel: float = 0.0  # applied accel entering the node, threads the jerk term


def _nodes(
    out: BatchOutcome, cmds: np.ndarray, depth_step: int, rows=slice(None)
) -> list[SearchNode]:
    """One node per selected row of a transition batch."""
    return [
        SearchNode(
            state=OperationState(loc=loc, vel=vel, time=time, last_condition=condition_of(cmd)),
            incoming_cmd=cmd,
            rollout_reward=reward,
            depth_step=depth_step,
            terminal=arrived,
            accel=accel,
        )
        for loc, vel, time, cmd, reward, arrived, accel in zip(
            *(values[rows].tolist() for values in (
                out.loc, out.vel, out.time, cmds, out.reward, out.arrived, out.accel
            ))
        )
    ]


def build_tree(
    env: "TrainEnv",
    spec: SafetySpec,
    policy: PolicySampler,
    state_unsafe: OperationState,
    safe_set: Sequence[float],
    t: int,
    cfg: SearchConfig,
    prev_accel: float = 0.0,
) -> list[SearchNode]:
    """Grow one root per safe candidate command taken from the unsafe state.

    ``t`` is the environment step at which the unsafe proposal occurred; roots
    therefore sit at step t+1.  Transitions use ``env``'s model, track and
    reward weights.  Unsafe policy samples are dropped rather than replaced,
    so branches can die out before the update step and get pruned.
    """
    if not safe_set:
        raise ValueError("safe_set must be nonempty")
    model, track, weights = env.model, env.track, env.weights
    cmds = np.asarray(safe_set, dtype=float)
    out = step_batch(
        model, track, state_unsafe.loc, state_unsafe.vel, state_unsafe.time,
        cmds, weights, prev_accel,
    )
    roots = _nodes(out, cmds, t + 1)
    frontier = roots
    depth_step = t + 1
    width = cfg.expansion_width
    while depth_step % cfg.update_frequency != 0:
        frontier = [node for node in frontier if not node.terminal]
        if not frontier:
            break
        samples = np.asarray(policy([node.state for node in frontier], width), dtype=float)
        if samples.shape != (len(frontier), width):
            raise ValueError(
                f"sampler returned shape {samples.shape}, expected {(len(frontier), width)}"
            )
        cmd = samples.ravel()  # pair k is sample k % width of parent k // width
        p_loc, p_vel, p_time, p_accel, p_cmd = np.array(
            [(n.state.loc, n.state.vel, n.state.time, n.accel, n.incoming_cmd) for n in frontier]
        ).T
        depth_step += 1
        children = []
        for lo in range(0, cmd.size, _BLOCK_PAIRS):
            pair = np.arange(lo, min(lo + _BLOCK_PAIRS, cmd.size))
            parent = pair // width
            loc, vel = p_loc[parent], p_vel[parent]
            out = step_batch(model, track, loc, vel, p_time[parent], cmd[pair], weights,
                             p_accel[parent])
            safe = safe_mask(spec, model, track, loc, vel, np.sign(p_cmd[parent]), cmd[pair], out)
            kept = np.flatnonzero(safe)
            block = _nodes(out, cmd[pair], depth_step, kept)
            for k, child in zip(parent[kept].tolist(), block):
                frontier[k].children.append(child)
            children += block
        frontier = children
    return roots


def prune(node: SearchNode, update_frequency: int) -> SearchNode | None:
    """Drop every branch that fails to reach the update step.

    A surviving leaf either sits exactly on an update step or ended the
    episode; interior nodes whose subtrees die out entirely are removed.
    Returns None when nothing of the tree survives.
    """
    node.children = [
        kept
        for kept in (prune(child, update_frequency) for child in node.children)
        if kept is not None
    ]
    if node.children:
        return node
    if node.terminal or node.depth_step % update_frequency == 0:
        return node
    return None


def backup(node: SearchNode, cfg: SearchConfig) -> float:
    """Fill backed-up returns: leaves keep their rollout reward, branch nodes
    add the discounted mean of their children's returns."""
    if not node.children:
        node.backed_return = node.rollout_reward
    else:
        child_mean = sum(backup(child, cfg) for child in node.children) / len(node.children)
        node.backed_return = node.rollout_reward + cfg.backup_discount * child_mean
    return node.backed_return


def select_safe_action(roots: Sequence[SearchNode]) -> float:
    """Command of the root with maximal backed-up return; ties brake harder."""
    if not roots:
        raise ValueError("no surviving roots to select from")
    best = roots[0]
    for root in roots[1:]:
        if root.backed_return > best.backed_return or (
            root.backed_return == best.backed_return and root.incoming_cmd < best.incoming_cmd
        ):
            best = root
    return best.incoming_cmd


def search_safe_action(
    env: "TrainEnv",
    spec: SafetySpec,
    policy: PolicySampler,
    state_unsafe: OperationState,
    safe_set: Sequence[float],
    t: int,
    cfg: SearchConfig,
    prev_accel: float = 0.0,
) -> float:
    """Full correction pipeline: build, prune, back up, select.

    Falls back to the hardest-braking safe candidate when pruning kills every
    root, the conservative default for a train protection system.
    """
    roots = build_tree(env, spec, policy, state_unsafe, safe_set, t, cfg, prev_accel)
    roots = [kept for kept in (prune(r, cfg.update_frequency) for r in roots) if kept is not None]
    if not roots:
        return min(safe_set)
    for root in roots:
        backup(root, cfg)
    return select_safe_action(roots)
