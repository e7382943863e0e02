import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atoshield.drl.buffers import EliteBuffer, ReplayBuffer, Trajectory

from oracles import ReferenceReplayBuffer


def traj(total_return, length=4):
    rng = np.random.default_rng(int(abs(total_return) * 1000) + length)
    return Trajectory(
        states=rng.normal(0, 1, (length, 3)),
        actions=rng.uniform(-1, 1, length),
        speeds=np.zeros(length),
        accels=np.zeros(length),
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

    @given(capacity=st.integers(1, 40), pushes=st.integers(1, 120), batch=st.integers(1, 60),
           dim=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_sample_equals_deque_reference(self, capacity, pushes, batch, dim, seed):
        # covers the wrap-around (pushes > capacity) and batch > len (with replacement)
        data = np.random.default_rng(seed)
        buf, ref = ReplayBuffer(capacity), ReferenceReplayBuffer(capacity)
        for _ in range(pushes):
            row = (data.normal(size=dim), float(data.uniform(-1, 1)), float(data.normal()),
                   data.normal(size=dim), float(data.integers(0, 2)))
            buf.push(*row)
            ref.push(*row)
        got = buf.sample(batch, np.random.default_rng(seed + 1))
        want = ref.sample(batch, np.random.default_rng(seed + 1))
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.shape == w.shape
            assert g.tobytes() == w.tobytes()

    def test_float32_states_come_back_as_pushed(self):
        # the ring takes its state dtype from the first push; the rest stays float64
        data = np.random.default_rng(3)
        buf = ReplayBuffer(16)
        rows = [(data.uniform(0, 1.2, 3).astype(np.float32), float(i), 0.5 * i,
                 data.uniform(0, 1.2, 3).astype(np.float32), 0.0) for i in range(10)]
        for row in rows:
            buf.push(*row)
        s, a, r, s2, d = buf.sample(10, np.random.default_rng(0))
        assert s.dtype == s2.dtype == np.float32
        assert a.dtype == r.dtype == d.dtype == np.float64
        for k, i in enumerate(a.astype(int)):
            assert s[k].tobytes() == rows[i][0].tobytes()
            assert s2[k].tobytes() == rows[i][3].tobytes()

    def test_sample_equals_fancy_index_gather(self):
        # integer states, before and after the ring wraps: every field comes
        # back with the bytes of indexing the ring with the drawn rows
        buf = ReplayBuffer(7)
        for i in range(12):
            buf.push(np.array([i, -i, 2 * i]), 0.5 * i, -float(i), np.array([i + 1, 0, i]), float(i % 2))
            if i in (4, 11):
                rng, twin = np.random.default_rng(i), np.random.default_rng(i)
                got = buf.sample(9, rng)
                idx = twin.choice(len(buf), size=9, replace=True)
                if len(buf) == buf.capacity:
                    idx = (idx + buf._next) % buf.capacity
                rings = (buf._s, buf._a, buf._r, buf._s2, buf._d)
                for g, ring in zip(got, rings):
                    want = ring[idx]
                    assert g.dtype == want.dtype and g.shape == want.shape
                    assert g.tobytes() == want.tobytes()
        assert got[0].dtype == np.float64  # integer states store as floats

    @pytest.mark.parametrize("bad", [np.zeros(1), np.zeros(4), np.zeros((1, 3))])
    def test_state_of_wrong_shape_fails_at_push(self, bad):
        buf = ReplayBuffer(8)
        buf.push(np.zeros(3), 0.0, 0.0, np.zeros(3), 0.0)
        with pytest.raises(ValueError, match="shape"):
            buf.push(bad, 0.0, 0.0, np.zeros(3), 0.0)
        with pytest.raises(ValueError, match="shape"):
            buf.push(np.zeros(3), 0.0, 0.0, bad, 0.0)
        assert len(buf) == 1


def ring_rows(buf):
    """Row counts of the ring's five arrays."""
    return {len(a) for a in (buf._s, buf._a, buf._r, buf._s2, buf._d)}


class TestGrowingRing:
    """The ring arrays start small and double up to ``capacity``, and sampling
    gives the bytes of the FIFO reference across every growth step."""

    @pytest.mark.parametrize("capacity,growth", [
        (1, [1]), (3, [3]), (1500, [1024, 1500]), (5000, [1024, 2048, 4096, 5000]),
    ])
    def test_samples_equal_the_reference_across_growth_and_wrap(self, capacity, growth):
        data = np.random.default_rng(capacity)
        buf, ref = ReplayBuffer(capacity), ReferenceReplayBuffer(capacity)
        seen = []
        for n in range(1, 2 * capacity + 1):
            row = (data.uniform(0, 1.2, 3).astype(np.float32), float(data.uniform(-1, 1)),
                   float(data.normal()), data.uniform(0, 1.2, 3).astype(np.float32), float(n % 2))
            buf.push(*row)
            ref.push(*row)
            (rows,) = ring_rows(buf)
            if not seen or seen[-1] != rows:
                seen.append(rows)
            got = buf.sample(8, np.random.default_rng(n))
            want = ref.sample(8, np.random.default_rng(n))
            for g, w in zip(got, want):
                assert g.dtype == w.dtype and g.tobytes() == w.tobytes()
        assert seen == growth

    @pytest.mark.parametrize("capacity", [1, 3, 1023, 1024, 1025, 1500, 2048, 5000])
    def test_rows_follow_the_pushes_and_never_pass_capacity(self, capacity):
        buf = ReplayBuffer(capacity)
        for n in range(1, 2 * capacity + 2):
            buf.push(np.zeros(2), 0.0, 0.0, np.zeros(2), 0.0)
            (rows,) = ring_rows(buf)
            assert rows <= min(capacity, max(ReplayBuffer._FIRST_ROWS, 2 * n))
            if n >= capacity:
                assert rows == capacity

    def test_huge_capacity_holds_what_it_filled(self):
        # 2,000 pushes fill 2,048 rows of two float32 states and three floats
        states = np.random.default_rng(5).uniform(0, 1.2, (2001, 3)).astype(np.float32)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            buf = ReplayBuffer(10**13)
            for i in range(2000):
                buf.push(states[i], 0.5, -1.0, states[i + 1], 0.0)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(buf) == 2000
        assert kept <= 2048 * (2 * states[0].nbytes + 3 * 8) + 4096


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

