"""Independent reference implementations the tests check the package against.

Everything here is deliberately naive (plain loops, no shared code with the
package internals) so it can serve as an oracle.  :func:`ref_step` and
:func:`ref_span_overspeed` are the scalar physics as it stood before the
package wrote each formula once for floats and arrays, copied with the
helpers they call, so a change to a shared kernel cannot pass its tests by
moving both of its callers at once; like the package, the span check holds
a limit boundary's crossing speed to the lower of the two limits that meet
there.  :func:`ref_true_overspeed` judges an executed span from the
closed-form motion over each limit segment it touches, so it does not rest
on that boundary rule.  The tree reference is a plain node
object per node, grown depth first on the scalar ``step`` and ``is_safe``
(the kernels the array forms are held equal to), then pruned, backed up and
selected recursively.  The recoverability reference tests for a clear state
only at entry and otherwise brakes all the way to a stop.  The learner
references keep one array, or one tuple, per parameter or transition, as the
package did before it moved to flat vectors and ring arrays.
"""

import math
from collections import deque

import numpy as np

from atoshield.dynamics import (
    DEFAULT_WEIGHTS,
    JOULES_PER_KWH,
    KMH_PER_MPS,
    OperationState,
    StepOutcome,
    step,
)
from atoshield.shield import floor_applies, is_safe


def _ref_segment_value(segments, loc):
    # Half-open [start, end) lookup; the final segment is closed at its end.
    last = segments[-1]
    if loc >= last[1]:
        return last[2]
    for start, end, value in segments:
        if start <= loc < end:
            return value
    return segments[0][2]


def _ref_limit_at(track, loc):
    """Posted speed limit (km/h) at a position."""
    if loc < 0.0 or loc > track.length:
        raise ValueError(f"position {loc} outside [0, {track.length}]")
    return _ref_segment_value(track.limit_segments, loc)


def _ref_grade_accel(track, loc):
    """Signed gravity acceleration (m/s^2) from the grade profile at a position."""
    if loc < 0.0 or loc > track.length:
        raise ValueError(f"position {loc} outside [0, {track.length}]")
    return _ref_segment_value(track.grade_segments, loc)


def _ref_davis_resistance_accel(model, vel):
    """Running-resistance deceleration (m/s^2) from the quadratic Davis law.

    Coefficients are specific forces in N/tonne with speed in km/h, so the
    polynomial divided by 1000 is directly an acceleration.
    """
    if vel < 0.0:
        raise ValueError(f"velocity must be nonnegative, got {vel}")
    return (model.davis_r1 + model.davis_r2 * vel + model.davis_r3 * vel * vel) / 1000.0


def _ref_motor_accel(model, cmd, vel):
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


def _ref_reward_terms(
    track,
    weights,
    cmd,
    energy_traction,
    energy_regen,
    mean_speed,
    accel_applied,
    prev_accel,
    arrived,
    total_time,
):
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


def ref_step(
    model,
    track,
    state,
    cmd,
    weights=DEFAULT_WEIGHTS,
):
    """Advance one control interval with semi-implicit Euler integration.

    Net acceleration is motor - resistance + grade, clamped to the vehicle
    bounds; velocity is floored at zero (the train does not roll back) and
    displacement uses the interval's mean speed.  The comfort term reads the
    applied acceleration that entered ``state``; the next state carries this
    interval's.
    """
    prev_accel = state.last_accel
    if abs(cmd) > 1.0 + 1e-12:
        raise ValueError(f"command must lie in [-1, 1], got {cmd}")
    dt = track.dt
    v0 = state.vel / KMH_PER_MPS  # m/s
    a_motor = _ref_motor_accel(model, cmd, state.vel)
    a_net = a_motor - _ref_davis_resistance_accel(model, state.vel) + _ref_grade_accel(track, state.loc)
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

    e_term, d_term, c_term = _ref_reward_terms(
        track, weights, cmd, energy_traction, energy_regen,
        mean_speed, a, prev_accel, arrived, t1,
    )
    next_state = OperationState(loc=loc1, vel=v1 * KMH_PER_MPS, time=t1, last_cmd=cmd,
                                last_accel=a)
    return StepOutcome(
        next_state=next_state,
        reward=-(e_term + d_term + c_term),
        energy_traction=energy_traction,
        energy_regen=energy_regen,
        arrived=arrived,
    )


def ref_span_overspeed(
    track,
    start_loc,
    start_vel,
    accel,
    end_loc,
    end_vel,
):
    """Whether speed exceeds the posted limit anywhere on a traversed span.

    Within one control interval acceleration is constant, so the speed when
    crossing a limit boundary at distance d is sqrt(v0^2 + 2 a d).  Speed is
    monotone inside each segment, which makes the boundary crossings and the
    endpoint the only places a violation can first appear.
    """
    if end_vel > _ref_limit_at(track, min(end_loc, track.length)):
        return True
    if end_loc <= start_loc:
        return False
    v0 = start_vel / KMH_PER_MPS
    limits = track.limit_segments
    for (_, _, before), (seg_start, _, after) in zip(limits, limits[1:]):
        if start_loc < seg_start <= end_loc and seg_start <= track.length:
            v_cross_sq = v0 * v0 + 2.0 * accel * (seg_start - start_loc)
            if v_cross_sq <= 0.0:
                continue
            if math.sqrt(v_cross_sq) * KMH_PER_MPS > min(before, after):
                return True
    return False


_ROUNDING_KMH = 1e-9


def ref_true_overspeed(track, start_loc, start_vel, accel, end_loc):
    """Whether the train runs above a posted limit anywhere on one executed
    span, judged from the closed-form motion alone, with no code shared with
    the shield.

    With ``accel`` constant over the span, the speed at x is
    sqrt(v0^2 + 2 accel (x - start_loc)), monotone in x.  So on each limit
    segment [s, e) that the span touches, its sup over the touched part
    [max(s, start_loc), min(e, end_loc)] is at one end of that part (at e, it
    is the speed on the way to e), and it must not exceed that segment's own
    limit.  ``_ROUNDING_KMH`` absorbs the float rounding of the closed form
    against the stepped speed.
    """

    def kmh_at(x):
        v_sq = (start_vel / KMH_PER_MPS) ** 2 + 2.0 * accel * (x - start_loc)
        return math.sqrt(max(v_sq, 0.0)) * KMH_PER_MPS

    for seg_start, seg_end, limit in track.limit_segments:
        if start_loc < seg_end and seg_start <= end_loc:
            lo, hi = max(seg_start, start_loc), min(seg_end, end_loc)
            if max(kmh_at(lo), kmh_at(hi)) > limit + _ROUNDING_KMH:
                return True
    return False


def _overspeeds(track, state, out):
    nxt = out.next_state
    return ref_span_overspeed(track, state.loc, state.vel, nxt.last_accel, nxt.loc, nxt.vel)


def _ref_condition(cmd):
    """The drivetrain's working condition under a command."""
    if cmd > 0.0:
        return "traction"
    if cmd < 0.0:
        return "braking"
    return "coasting"


def ref_brake_to_stop(spec, model, track, state):
    """Full braking to a stop or to the section end, after the one coast the
    reversal rule forces; recoverable unless some interval overspeeds."""
    current = state
    if spec.forbid_direct_reversal and _ref_condition(current.last_cmd) == "traction":
        out = ref_step(model, track, current, 0.0)
        if _overspeeds(track, current, out):
            return False
        current = out.next_state
    while current.vel > 0.0 and current.loc < track.length:
        out = ref_step(model, track, current, -1.0)
        if _overspeeds(track, current, out):
            return False
        current = out.next_state
    return True


def ref_brake_recoverable(spec, model, track, state):
    """Recoverability with one clear-state test, at entry: a state at or below
    every downstream limit, on a track where standstill resistance outweighs
    every grade, is recoverable.  The final segment's limit is downstream of
    every position, its end point included.  Any other state goes to
    :func:`ref_brake_to_stop`.  With the floor and the reversal rule both on,
    a state entered by braking whose coast ends on the floor is not
    recoverable, whatever its speed: coasting is the fastest command left."""
    if (spec.min_speed is not None and spec.forbid_direct_reversal
            and _ref_condition(state.last_cmd) == "braking"):
        coast = ref_step(model, track, state, 0.0)
        after = coast.next_state
        if not coast.arrived and floor_applies(spec, track, after.loc) and after.vel <= spec.min_speed:
            return False
    segments = track.limit_segments
    downstream = [lim for _, end, lim in segments[:-1] if end > state.loc] + [segments[-1][2]]
    steepest = max(grade for _, _, grade in track.grade_segments)
    if _ref_davis_resistance_accel(model, 0.0) >= steepest and state.vel <= min(downstream):
        return True
    return ref_brake_to_stop(spec, model, track, state)


def ref_is_safe(spec, model, track, state, cmd):
    """``is_safe(...).safe`` with :func:`ref_brake_recoverable` for recoverability."""
    conditions = {_ref_condition(state.last_cmd), _ref_condition(cmd)}
    if spec.forbid_direct_reversal and conditions == {"traction", "braking"}:
        return False
    out = ref_step(model, track, state, cmd)
    if _overspeeds(track, state, out):
        return False
    nxt = out.next_state
    if not out.arrived and floor_applies(spec, track, nxt.loc) and nxt.vel <= spec.min_speed:
        return False
    return ref_brake_recoverable(spec, model, track, nxt)


class RefNode:
    """One tree node as a Python object, children in sample order."""

    def __init__(self, cmd, reward, depth_step, state=None, terminal=False, children=()):
        self.cmd = cmd
        self.reward = reward
        self.depth_step = depth_step
        self.state = state  # OperationState entered, None in synthetic trees
        self.terminal = terminal
        self.children = list(children)
        self.ret = None


def ref_prune(node, t_up):
    """Drop every branch that fails to reach the update step; None if all of it dies."""
    node.children = [
        kept
        for kept in (ref_prune(child, t_up) for child in node.children)
        if kept is not None
    ]
    if node.children or node.terminal or node.depth_step % t_up == 0:
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


def reference_build_tree(env, spec, policy, state_unsafe, safe_set, t, t_up, cfg):
    """Depth-first tree growth, one node at a time: a one-row sampler call per
    expanded node, then the scalar ``is_safe`` and ``step`` per sample."""

    def child_of(state, cmd, depth_step):
        out = step(env.model, env.track, state, cmd, env.weights)
        return RefNode(cmd=cmd, reward=out.reward, depth_step=depth_step,
                       state=out.next_state, terminal=out.arrived)

    def expand(node):
        if node.terminal or node.depth_step % t_up == 0:
            return
        s = node.state
        for cmd in policy(np.array([[s.loc, s.vel, s.time]]), cfg.expansion_width)[0]:
            cmd = float(cmd)
            if not is_safe(spec, env.model, env.track, s, cmd).safe:
                continue
            child = child_of(s, cmd, node.depth_step + 1)
            node.children.append(child)
            expand(child)

    roots = []
    for cmd in safe_set:
        root = child_of(state_unsafe, cmd, t + 1)
        expand(root)
        roots.append(root)
    return roots


def reference_search(env, spec, policy, state_unsafe, safe_set, t, t_up, cfg):
    """The correction pipeline over :func:`reference_build_tree`."""
    roots = reference_build_tree(env, spec, policy, state_unsafe, safe_set, t, t_up, cfg)
    return reference_choice(roots, safe_set, t_up, cfg)


def reference_choice(roots, safe_set, t_up, cfg):
    """Prune, back up and select over built roots, falling back to hardest braking."""
    roots = [r for r in roots if ref_prune(r, t_up) is not None]
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


def layer_arrays(net):
    """The net's parameter arrays, layer by layer: weights, then biases."""
    return [p for pair in zip(net.weights, net.biases) for p in pair]


def flatten_params(net):
    return np.concatenate([p.ravel() for p in layer_arrays(net)])


def set_flat_params(net, flat):
    offset = 0
    for p in layer_arrays(net):
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


def reference_forward(net, x):
    """The layer loop's cache from plain expressions in the net's dtype, with
    ``@`` for every product and the 1-D biases: each layer's input, then
    the output."""
    h = np.atleast_2d(np.asarray(x, dtype=net.flat.dtype))
    cache = [h]
    for w, b in zip(net.weights[:-1], net.biases[:-1]):
        h = np.maximum(h @ w + b, 0.0)
        cache.append(h)
    out = h @ net.weights[-1] + net.biases[-1]
    cache.append(np.tanh(out) if net.output_activation == "tanh" else out)
    return cache


def reference_backward(net, cache, grad_out):
    """Per-layer (d/dW, d/db) pairs and d/d(input), one array per parameter,
    from plain expressions in the net's dtype, with ``@`` for every product."""
    grad = np.atleast_2d(np.asarray(grad_out, dtype=net.flat.dtype))
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
