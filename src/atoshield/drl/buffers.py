"""Replay storage: a FIFO transition buffer and the best-in-worst-out
trajectory buffer that feeds the self-protection actor."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Trajectory:
    """One complete episode: per-step normalized states, executed commands,
    rewards, and the episode return used for ranking."""

    states: np.ndarray  # (T, state_dim)
    actions: np.ndarray  # (T,)
    rewards: np.ndarray  # (T,)
    total_return: float

    def __len__(self) -> int:
        return len(self.actions)


class ReplayBuffer:
    """Bounded FIFO store of (s, a, r, s', d) transitions with uniform sampling."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._data = deque(maxlen=capacity)

    def push(self, s: np.ndarray, a: float, r: float, s2: np.ndarray, d: float) -> None:
        self._data.append((s, a, r, s2, d))

    def __len__(self) -> int:
        return len(self._data)

    def sample(self, batch_size: int, rng: np.random.Generator):
        """Uniform sample without replacement (with replacement only if short)."""
        n = len(self._data)
        if n == 0:
            raise ValueError("cannot sample from an empty buffer")
        replace = batch_size > n
        idx = rng.choice(n, size=batch_size, replace=replace)
        rows = [self._data[i] for i in idx]
        s = np.stack([row[0] for row in rows])
        a = np.array([row[1] for row in rows], dtype=float)
        r = np.array([row[2] for row in rows], dtype=float)
        s2 = np.stack([row[3] for row in rows])
        d = np.array([row[4] for row in rows], dtype=float)
        return s, a, r, s2, d


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
