"""Replay storage: a FIFO transition buffer and the best-in-worst-out
trajectory buffer that feeds the self-protection actor."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Trajectory:
    """One complete episode, one row per step: the normalized state each
    command was chosen in, in the nets' dtype as the episode loop casts it,
    the executed command, the speed after the step (km/h) and the applied
    acceleration (m/s^2).  ``total_return``, the reward summed in step
    order, ranks it in the elite buffer."""

    states: np.ndarray  # (T, state_dim), float32
    actions: np.ndarray  # (T,)
    speeds: np.ndarray  # (T,)
    accels: np.ndarray  # (T,)
    total_return: float

    def __len__(self) -> int:
        return len(self.actions)


class ReplayBuffer:
    """Bounded FIFO store of (s, a, r, s', d) transitions with uniform sampling.

    Transitions live in ring arrays, one per field, that the first push
    makes ``_FIRST_ROWS`` rows long (or ``capacity``, if smaller) and that
    double, by copy, whenever a push reaches their end, up to ``capacity``
    rows; so the ring costs the rows a run fills, not its capacity.  The
    state arrays take the shape and the floating dtype of the first pushed
    state; every later state must match that shape and is stored in that
    dtype.  Actions, rewards and done flags are float64.  Row ``next`` is
    written next, so once the ring is full it holds the oldest transition.
    ``sample`` draws indices counted oldest first, as over a FIFO queue, and
    maps index ``i`` to row ``(i + next) % capacity`` once full (to row ``i``
    before).  It gathers those rows with ``ndarray.take``, which copies the
    same rows as fancy indexing but on numpy's contiguous gather loop.
    """

    _FIRST_ROWS = 1024

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._size = 0
        self._next = 0
        self._s = self._a = self._r = self._s2 = self._d = None

    def push(self, s: np.ndarray, a: float, r: float, s2: np.ndarray, d: float) -> None:
        if self._s is None:
            rows = min(self._FIRST_ROWS, self.capacity)
            dtype = np.promote_types(np.asarray(s).dtype, np.float32)  # integer states store as floats
            self._s = np.empty((rows, *np.shape(s)), dtype=dtype)
            self._s2 = np.empty_like(self._s)
            self._a, self._r, self._d = np.empty(rows), np.empty(rows), np.empty(rows)
        shape = self._s.shape[1:]
        if np.shape(s) != shape or np.shape(s2) != shape:
            raise ValueError(f"state shapes {np.shape(s)} and {np.shape(s2)} do not match the stored {shape}")
        i = self._next
        if i == len(self._a):  # only before the ring is full: then i is the row count
            self._grow(min(2 * i, self.capacity))
        self._s[i] = s
        self._a[i] = a
        self._r[i] = r
        self._s2[i] = s2
        self._d[i] = d
        self._next = (i + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)

    def _grow(self, rows: int) -> None:
        """Copy each ring array into a new one of ``rows`` rows."""
        for field in ("_s", "_a", "_r", "_s2", "_d"):
            old = getattr(self, field)
            new = np.empty((rows, *old.shape[1:]), dtype=old.dtype)
            new[: len(old)] = old
            setattr(self, field, new)

    def __len__(self) -> int:
        return self._size

    def sample(self, batch_size: int, rng: np.random.Generator):
        """Uniform sample without replacement (with replacement only if short)."""
        n = self._size
        if n == 0:
            raise ValueError("cannot sample from an empty buffer")
        idx = rng.choice(n, size=batch_size, replace=batch_size > n)
        if n == self.capacity:
            idx = (idx + self._next) % self.capacity
        s, s2 = self._s.take(idx, axis=0), self._s2.take(idx, axis=0)
        return s, self._a.take(idx), self._r.take(idx), s2, self._d.take(idx)


class EliteBuffer:
    """Keeps the highest-return complete trajectories, sorted best first.

    Insertions into a full buffer evict the current worst, and only when the
    candidate's return is at least that worst return.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._items: list[Trajectory] = []

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self):
        return iter(self._items)

    @property
    def min_return(self) -> float:
        if not self._items:
            raise ValueError("elite buffer is empty")
        return self._items[-1].total_return

    def insert(self, traj: Trajectory) -> bool:
        """Best-in-worst-out admission; returns whether the trajectory was kept."""
        if len(self._items) >= self.capacity:
            if traj.total_return < self.min_return:
                return False
            self._items.pop()
        self._items.append(traj)
        self._items.sort(key=lambda t: t.total_return, reverse=True)
        return True

    def sample(self, batch_size: int, rng: np.random.Generator) -> list[Trajectory]:
        """Up to ``batch_size`` distinct whole trajectories."""
        if not self._items:
            raise ValueError("elite buffer is empty")
        k = min(batch_size, len(self._items))
        idx = rng.choice(len(self._items), size=k, replace=False)
        return [self._items[i] for i in idx]
