"""Independent reference implementations the tests check the package against.

Everything here is deliberately naive (plain loops, no shared code with the
package internals) so it can serve as an oracle.  The tree reference is a
plain node object per node, grown depth first on the scalar ``step`` and
``is_safe`` (the kernels the array forms are held equal to), then pruned,
backed up and selected recursively.  The recoverability reference tests for
a clear state only at entry and otherwise brakes all the way to a stop.  The
learner references keep one array, or one tuple, per parameter or
transition, as the package did before it moved to flat vectors and ring
arrays.
"""

from collections import deque

import numpy as np

from atoshield.dynamics import Condition, condition_of, davis_resistance_accel, step
from atoshield.shield import floor_applies, is_safe, span_overspeed


def _overspeeds(track, state, out):
    nxt = out.next_state
    return span_overspeed(track, state.loc, state.vel, out.accel_applied, nxt.loc, nxt.vel)


def ref_brake_to_stop(spec, model, track, state):
    """Full braking to a stop or to the section end, after the one coast the
    reversal rule forces; recoverable unless some interval overspeeds."""
    current = state
    if spec.forbid_direct_reversal and current.last_condition is Condition.TRACTION:
        out = step(model, track, current, 0.0)
        if _overspeeds(track, current, out):
            return False
        current = out.next_state
    while current.vel > 0.0 and current.loc < track.length:
        out = step(model, track, current, -1.0)
        if _overspeeds(track, current, out):
            return False
        current = out.next_state
    return True


def ref_brake_recoverable(spec, model, track, state):
    """Recoverability with one clear-state test, at entry: a state at or below
    every downstream limit, on a track where standstill resistance outweighs
    every grade, is recoverable.  Any other state goes to
    :func:`ref_brake_to_stop`."""
    downstream = [lim for _, end, lim in track.limit_segments if end > state.loc]
    steepest = max(grade for _, _, grade in track.grade_segments)
    if davis_resistance_accel(model, 0.0) >= steepest and state.vel <= min(
        downstream, default=np.inf
    ):
        return True
    return ref_brake_to_stop(spec, model, track, state)


def ref_is_safe(spec, model, track, state, cmd):
    """``is_safe(...).safe`` with :func:`ref_brake_recoverable` for recoverability."""
    conditions = {state.last_condition, condition_of(cmd)}
    if spec.forbid_direct_reversal and conditions == {Condition.TRACTION, Condition.BRAKING}:
        return False
    out = step(model, track, state, cmd)
    if _overspeeds(track, state, out):
        return False
    nxt = out.next_state
    if not out.arrived and floor_applies(spec, track, nxt.loc) and nxt.vel <= spec.min_speed:
        return False
    return ref_brake_recoverable(spec, model, track, nxt)


class RefNode:
    """One tree node as a Python object, children in sample order."""

    def __init__(self, cmd, reward, depth_step, state=None, accel=0.0, terminal=False,
                 children=()):
        self.cmd = cmd
        self.reward = reward
        self.depth_step = depth_step
        self.state = state  # OperationState entered, None in synthetic trees
        self.accel = accel
        self.terminal = terminal
        self.children = list(children)
        self.ret = None


def ref_prune(node, update_frequency):
    """Drop every branch that fails to reach the update step; None if all of it dies."""
    node.children = [
        kept
        for kept in (ref_prune(child, update_frequency) for child in node.children)
        if kept is not None
    ]
    if node.children or node.terminal or node.depth_step % update_frequency == 0:
        return node
    return None


def ref_backup(node, discount):
    """Fill ``ret``: leaves keep their reward, branches add the discounted child mean."""
    if not node.children:
        node.ret = node.reward
    else:
        total = 0.0
        for child in node.children:
            total += ref_backup(child, discount)
        node.ret = node.reward + discount * (total / len(node.children))
    return node.ret


def ref_select(roots):
    """Command of the root with maximal return, scanning in order; ties brake harder."""
    best = roots[0]
    for root in roots[1:]:
        if root.ret > best.ret or (root.ret == best.ret and root.cmd < best.cmd):
            best = root
    return best.cmd


def random_tree(rng, max_depth=5, max_width=5, t_up=5):
    """Random pruned-shaped tree: every leaf lands on an update step."""

    def grow(depth_step, depth_left):
        node = RefNode(cmd=float(rng.uniform(-1, 1)), reward=float(rng.uniform(-10, 10)),
                       depth_step=depth_step)
        if depth_left > 0 and depth_step % t_up != 0:
            width = int(rng.integers(1, max_width + 1))
            node.children = [grow(depth_step + 1, depth_left - 1) for _ in range(width)]
        return node

    start = int(rng.integers(1, t_up + 1))
    depth_left = (t_up - start % t_up) % t_up
    return grow(start, min(depth_left, max_depth))


def random_forest(rng, t_up, root_step, max_width, p_stop, p_terminal, max_nodes=1500):
    """Random unpruned forest of 1-9 roots.

    Nodes expand to max_width children (half the time to 1..max_width) until
    the update step, except terminal nodes and, with probability p_stop, nodes
    whose samples were all unsafe (off-cadence leaves that die).  Rewards and
    commands come from small sets half the time, so returns and commands tie."""
    made = 0

    def value(choices, low, high):
        return float(rng.choice(choices)) if rng.random() < 0.5 else float(rng.uniform(low, high))

    def grow(depth_step):
        nonlocal made
        made += 1
        node = RefNode(cmd=value([-1.0, -0.5, 0.0, 0.5, 1.0], -1, 1),
                       reward=value([-1.0, 0.0, 0.5, 2.0], -10, 10),
                       depth_step=depth_step, terminal=bool(rng.random() < p_terminal))
        if node.terminal or depth_step % t_up == 0 or rng.random() < p_stop:
            return node
        width = max_width if rng.random() < 0.5 else int(rng.integers(1, max_width + 1))
        for _ in range(width):
            if made >= max_nodes:
                break
            node.children.append(grow(depth_step + 1))
        return node

    return [grow(root_step) for _ in range(int(rng.integers(1, 10)))]


def brute_backup(node, discount):
    """Direct recursive evaluation of the backup rule, no mutation."""
    if not node.children:
        return node.reward
    total = 0.0
    for child in node.children:
        total += brute_backup(child, discount)
    return node.reward + discount * (total / len(node.children))


def breadth_first_levels(roots):
    """The forest as lists of nodes per depth, each with its parent's position
    in the previous depth (roots: 0), in the order a breadth-first walk meets them."""
    levels = [[(root, 0) for root in roots]]
    while True:
        below = [(child, k) for k, (node, _) in enumerate(levels[-1]) for child in node.children]
        if not below:
            return levels
        levels.append(below)


def reference_build_tree(env, spec, policy, state_unsafe, safe_set, t, cfg, prev_accel=0.0):
    """Depth-first tree growth, one node at a time: a one-row sampler call per
    expanded node, then the scalar ``is_safe`` and ``step`` per sample."""

    def child_of(state, cmd, accel, depth_step):
        out = step(env.model, env.track, state, cmd, env.weights, accel)
        return RefNode(cmd=cmd, reward=out.reward, depth_step=depth_step,
                       state=out.next_state, accel=out.accel_applied, terminal=out.done)

    def expand(node):
        if node.terminal or node.depth_step % cfg.update_frequency == 0:
            return
        s = node.state
        for cmd in policy(np.array([[s.loc, s.vel, s.time]]), cfg.expansion_width)[0]:
            cmd = float(cmd)
            if not is_safe(spec, env.model, env.track, s, cmd).safe:
                continue
            child = child_of(s, cmd, node.accel, node.depth_step + 1)
            node.children.append(child)
            expand(child)

    roots = []
    for cmd in safe_set:
        root = child_of(state_unsafe, cmd, prev_accel, t + 1)
        expand(root)
        roots.append(root)
    return roots


def reference_search(env, spec, policy, state_unsafe, safe_set, t, cfg, prev_accel=0.0):
    """The correction pipeline over :func:`reference_build_tree`."""
    roots = reference_build_tree(env, spec, policy, state_unsafe, safe_set, t, cfg, prev_accel)
    return reference_choice(roots, safe_set, cfg)


def reference_choice(roots, safe_set, cfg):
    """Prune, back up and select over built roots, falling back to hardest braking."""
    roots = [r for r in roots if ref_prune(r, cfg.update_frequency) is not None]
    if not roots:
        return min(safe_set)
    for root in roots:
        ref_backup(root, cfg.backup_discount)
    return ref_select(roots)


def pcc_brute(x, y):
    """Pearson correlation via explicit covariance sums."""
    n = len(x)
    mx = sum(x) / n
    my = sum(y) / n
    cov = sum((a - mx) * (b - my) for a, b in zip(x, y))
    vx = sum((a - mx) ** 2 for a in x)
    vy = sum((b - my) ** 2 for b in y)
    return cov / (vx**0.5 * vy**0.5)


def flatten_params(net):
    return np.concatenate([p.ravel() for p in net.parameters()])


def set_flat_params(net, flat):
    offset = 0
    for p in net.parameters():
        p[...] = flat[offset : offset + p.size].reshape(p.shape)
        offset += p.size


def numeric_gradient(loss_fn, net, eps=1e-6):
    """Central finite differences of a scalar loss over every net parameter."""
    base = flatten_params(net).copy()
    grad = np.zeros_like(base)
    for i in range(base.size):
        up = base.copy()
        up[i] += eps
        set_flat_params(net, up)
        hi = loss_fn()
        down = base.copy()
        down[i] -= eps
        set_flat_params(net, down)
        lo = loss_fn()
        grad[i] = (hi - lo) / (2.0 * eps)
    set_flat_params(net, base)
    return grad


def relu_kink_margin(net, x):
    """Smallest |pre-activation| over the hidden stack; finite differences are
    only trustworthy when every unit sits clear of its kink."""
    h = np.atleast_2d(np.asarray(x, dtype=float))
    margin = np.inf
    for w, b in zip(net.weights[:-1], net.biases[:-1]):
        z = h @ w + b
        margin = min(margin, float(np.min(np.abs(z))))
        h = np.maximum(z, 0.0)
    return margin


def max_rel_error(analytic, numeric):
    denom = np.maximum(np.abs(analytic) + np.abs(numeric), 1e-8)
    return float(np.max(np.abs(analytic - numeric) / denom))


class ReferenceReplayBuffer:
    """FIFO replay as a deque of transition tuples, sampled by stacking rows."""

    def __init__(self, capacity):
        self._data = deque(maxlen=capacity)

    def push(self, s, a, r, s2, d):
        self._data.append((s, a, r, s2, d))

    def sample(self, batch_size, rng):
        n = len(self._data)
        idx = rng.choice(n, size=batch_size, replace=batch_size > n)
        rows = [self._data[i] for i in idx]
        return (
            np.stack([row[0] for row in rows]),
            np.array([row[1] for row in rows], dtype=float),
            np.array([row[2] for row in rows], dtype=float),
            np.stack([row[3] for row in rows]),
            np.array([row[4] for row in rows], dtype=float),
        )


def reference_backward(net, cache, grad_out):
    """Per-layer (d/dW, d/db) pairs and d/d(input), one array per parameter."""
    grad = np.atleast_2d(np.asarray(grad_out, dtype=float))
    if net.output_activation == "tanh":
        grad = grad * (1.0 - cache[-1] ** 2)
    pairs = [None] * net.n_layers
    for i in range(net.n_layers - 1, -1, -1):
        pairs[i] = (cache[i].T @ grad, grad.sum(axis=0))
        grad = grad @ net.weights[i].T
        if i > 0:
            grad = grad * (cache[i] > 0.0)
    return pairs, grad


class ReferenceAdam:
    """Adam with one moment array per parameter array, updated array by array."""

    def __init__(self, params, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.t = 0
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]

    def step(self, params, grads):
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        for p, g, m, v in zip(params, grads, self.m, self.v):
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)
