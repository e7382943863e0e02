import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atoshield.drl.buffers import EliteBuffer, ReplayBuffer, Trajectory
from atoshield.drl.nets import Mlp
from atoshield.drl.noise import NoiseProcess, act, act_with_noise


def traj(total_return, length=4):
    rng = np.random.default_rng(int(abs(total_return) * 1000) + length)
    return Trajectory(
        states=rng.normal(0, 1, (length, 3)),
        actions=rng.uniform(-1, 1, length),
        rewards=np.full(length, total_return / length),
        total_return=float(total_return),
    )


class TestReplayBuffer:
    def test_fifo_eviction(self):
        buf = ReplayBuffer(capacity=3)
        for i in range(5):
            buf.push(np.array([i]), float(i), 0.0, np.array([i]), 0.0)
        _, kept, _, _, _ = buf.sample(len(buf), np.random.default_rng(0))
        assert sorted(kept.tolist()) == [2.0, 3.0, 4.0]

    @given(capacity=st.integers(1, 20), extra=st.integers(0, 30))
    @settings(max_examples=50)
    def test_fifo_law(self, capacity, extra):
        buf = ReplayBuffer(capacity)
        n = capacity + extra
        for i in range(n):
            buf.push(np.array([i]), float(i), 0.0, np.array([i]), 0.0)
        _, kept, _, _, _ = buf.sample(len(buf), np.random.default_rng(0))
        assert sorted(kept.tolist()) == [float(i) for i in range(n - capacity, n)]

    def test_sample_without_replacement(self):
        buf = ReplayBuffer(10)
        for i in range(10):
            buf.push(np.array([i]), float(i), 0.0, np.array([i]), 0.0)
        _, a, _, _, _ = buf.sample(10, np.random.default_rng(0))
        assert sorted(a.tolist()) == [float(i) for i in range(10)]

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            ReplayBuffer(4).sample(1, np.random.default_rng(0))


class TestEliteBuffer:
    def test_displaces_worst(self):
        buf = EliteBuffer(2)
        assert buf.insert(traj(5.0))
        assert buf.insert(traj(3.0))
        assert buf.insert(traj(4.0))
        assert [t.total_return for t in buf] == [5.0, 4.0]

    def test_worse_than_minimum_rejected_when_full(self):
        buf = EliteBuffer(2)
        buf.insert(traj(5.0))
        buf.insert(traj(4.0))
        assert not buf.insert(traj(1.0))
        assert [t.total_return for t in buf] == [5.0, 4.0]

    def test_empty_buffer_accepts_anything(self):
        buf = EliteBuffer(3)
        assert buf.insert(traj(-1e9))

    def test_equal_to_minimum_enters(self):
        buf = EliteBuffer(2)
        buf.insert(traj(5.0))
        buf.insert(traj(4.0))
        assert buf.insert(traj(4.0))

    @given(returns=st.lists(st.floats(-100, 100, allow_nan=False), min_size=1, max_size=40))
    @settings(max_examples=50)
    def test_ordering_and_monotone_minimum(self, returns):
        # the worst kept return can only improve once the buffer is full
        buf = EliteBuffer(5)
        last_min = -float("inf")
        for r in returns:
            buf.insert(traj(r))
            stored = [t.total_return for t in buf]
            assert stored == sorted(stored, reverse=True)
            if len(buf) == buf.capacity:
                assert buf.min_return >= last_min
                last_min = buf.min_return


class TestNoise:
    def test_zero_scale_gaussian_equals_policy(self):
        net = Mlp([3, 4, 1], "tanh", np.random.default_rng(0))
        noise = NoiseProcess(kind="gaussian", scale=0.0, seed=1)
        x = np.array([0.2, 0.4, 0.1])
        assert act_with_noise(net, x, noise) == act(net, x)

    def test_ou_mean_reversion_without_diffusion(self):
        noise = NoiseProcess(kind="ou", ou_theta=0.25, ou_sigma=0.0, seed=0)
        noise._state = 1.0
        values = [noise.sample() for _ in range(10)]
        assert values[0] == pytest.approx(0.75)
        assert all(b < a for a, b in zip(values, values[1:]))
        assert values[-1] > 0.0

    def test_reset_clears_state(self):
        noise = NoiseProcess(kind="ou", seed=3)
        for _ in range(10):
            noise.sample()
        noise.reset()
        assert noise._state == 0.0

    def test_commands_always_clipped(self):
        net = Mlp([3, 4, 1], "tanh", np.random.default_rng(0))
        noise = NoiseProcess(kind="gaussian", scale=50.0, seed=2)
        x = np.array([0.2, 0.4, 0.1])
        for _ in range(100):
            assert -1.0 <= act_with_noise(net, x, noise) <= 1.0

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            NoiseProcess(kind="pink")

    def test_seeded_determinism(self):
        a = NoiseProcess(kind="ou", seed=9)
        b = NoiseProcess(kind="ou", seed=9)
        assert [a.sample() for _ in range(5)] == [b.sample() for _ in range(5)]
