"""Independent reference implementations the tests check the package against.

Everything here is deliberately naive (plain loops, no shared code with the
package internals) so it can serve as an oracle.  The tree reference grows
node by node on the scalar ``step`` and ``is_safe``, the kernels the array
forms are held equal to, and shares only the pruning, backup and selection
that both tree builders feed.
"""

import numpy as np

from atoshield.dynamics import step
from atoshield.search_tree import SearchNode, backup, prune, select_safe_action
from atoshield.shield import is_safe


def random_tree(rng, max_depth=5, max_width=5, t_up=5):
    """Random pruned-shaped tree: every leaf lands on an update step."""

    def grow(depth_step, depth_left):
        node = SearchNode(
            state=None,
            incoming_cmd=float(rng.uniform(-1, 1)),
            rollout_reward=float(rng.uniform(-10, 10)),
            depth_step=depth_step,
        )
        if depth_left > 0 and depth_step % t_up != 0:
            width = int(rng.integers(1, max_width + 1))
            node.children = [grow(depth_step + 1, depth_left - 1) for _ in range(width)]
        return node

    start = int(rng.integers(1, t_up + 1))
    depth_left = (t_up - start % t_up) % t_up
    return grow(start, min(depth_left, max_depth))


def brute_backup(node, discount):
    """Direct recursive evaluation of the backup rule, no mutation."""
    if not node.children:
        return node.rollout_reward
    total = 0.0
    for child in node.children:
        total += brute_backup(child, discount)
    return node.rollout_reward + discount * (total / len(node.children))


def reference_build_tree(env, spec, policy, state_unsafe, safe_set, t, cfg, prev_accel=0.0):
    """Depth-first tree growth, one node at a time: a single-state sampler
    call per expanded node, then the scalar ``is_safe`` and ``step`` per sample."""

    def child_of(state, cmd, accel, depth_step):
        out = step(env.model, env.track, state, cmd, env.weights, accel)
        return SearchNode(
            state=out.next_state,
            incoming_cmd=cmd,
            rollout_reward=out.reward,
            depth_step=depth_step,
            terminal=out.done,
            accel=out.accel_applied,
        )

    def expand(node):
        if node.terminal or node.depth_step % cfg.update_frequency == 0:
            return
        for cmd in policy([node.state], cfg.expansion_width)[0]:
            if not is_safe(spec, env.model, env.track, node.state, cmd).safe:
                continue
            child = child_of(node.state, cmd, node.accel, node.depth_step + 1)
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
    roots = [r for r in roots if prune(r, cfg.update_frequency) is not None]
    if not roots:
        return min(safe_set)
    for root in roots:
        backup(root, cfg)
    return select_safe_action(roots)


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


def flatten_grads(param_grads):
    out = []
    for gw, gb in param_grads:
        out.append(np.asarray(gw).ravel())
        out.append(np.asarray(gb).ravel())
    return np.concatenate(out)


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
