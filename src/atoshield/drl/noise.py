"""Exploration noise processes and the noisy action wrapper."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class NoiseProcess:
    """Ornstein-Uhlenbeck or Gaussian exploration noise for one scalar command.

    The OU state reverts to zero at rate ``ou_theta`` with innovations of
    scale ``ou_sigma``, giving temporally correlated exploration; the Gaussian
    variant draws white noise scaled by ``scale``, which training anneals
    toward zero.  Reset at every episode start.
    """

    kind: str = "ou"
    ou_theta: float = 0.15
    ou_sigma: float = 0.2
    scale: float = 1.0
    seed: int | None = None
    _state: float = field(default=0.0, repr=False)
    _rng: np.random.Generator = field(default=None, repr=False)

    def __post_init__(self):
        if self.kind not in ("ou", "gaussian"):
            raise ValueError(f"unknown noise kind {self.kind!r}")
        self._rng = np.random.default_rng(self.seed)

    def reset(self) -> None:
        self._state = 0.0

    def sample(self) -> float:
        if self.kind == "ou":
            self._state += self.ou_theta * (0.0 - self._state) + self.ou_sigma * float(
                self._rng.standard_normal()
            )
            return self._state * self.scale
        return self.scale * float(self._rng.standard_normal())

    def exploration_std(self) -> float:
        """Spread used when diversifying policy samples inside the search tree."""
        if self.kind == "ou":
            return self.ou_sigma * self.scale
        return self.scale


def act(policy, state_vec: np.ndarray) -> float:
    """Deterministic command from a policy net on one normalized state."""
    return float(policy.forward(state_vec)[0, 0])


def act_with_noise(policy, state_vec: np.ndarray, noise: NoiseProcess) -> float:
    """Exploratory command: policy output plus one noise draw, clipped to [-1, 1]."""
    return min(1.0, max(-1.0, act(policy, state_vec) + noise.sample()))
