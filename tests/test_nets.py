import json
import tracemalloc

import numpy as np
import pytest

from atoshield.drl import nets
from atoshield.drl.nets import Adam, Mlp, Scratch, soft_update

from oracles import (
    ReferenceAdam,
    layer_arrays,
    max_rel_error,
    numeric_gradient,
    reference_backward,
    reference_forward,
    relu_kink_margin,
)


def sample_clear_of_kinks(seed, sizes, activation, batch, margin=1e-4):
    """Net and inputs where no hidden unit sits near its ReLU kink, so central
    differences cannot straddle a nondifferentiability."""
    rng = np.random.default_rng(seed)
    while True:
        net = Mlp(list(sizes), activation, rng, final_init_scale=0.5)
        x = rng.normal(0, 1, (batch, sizes[0]))
        if relu_kink_margin(net, x) > margin:
            return net, x, rng


class TestForward:
    def test_zero_weights_give_zero_command(self):
        net = Mlp([3, 4, 1], "tanh", np.random.default_rng(0))
        for w in net.weights:
            w[...] = 0.0
        assert net.forward(np.zeros(3))[0, 0] == 0.0

    def test_tanh_output_bounded(self, rng):
        # float tanh saturates to exactly +-1.0 for huge inputs
        net = Mlp([3, 16, 1], "tanh", rng, final_init_scale=5.0)
        for _ in range(50):
            y = net.forward(rng.normal(0, 3, 3))
            assert -1.0 <= y[0, 0] <= 1.0

    def test_seeded_reproducibility(self):
        a = Mlp([3, 8, 1], "tanh", np.random.default_rng(42))
        b = Mlp([3, 8, 1], "tanh", np.random.default_rng(42))
        x = np.array([0.3, -0.1, 0.7])
        assert a.forward(x)[0, 0] == b.forward(x)[0, 0]

    def test_non_finite_output_faults(self):
        net = Mlp([2, 2, 1], "identity", np.random.default_rng(0))
        net.weights[0][...] = 1e308
        net.weights[1][...] = 1e308
        with np.errstate(over="ignore"), pytest.raises(FloatingPointError):
            net.forward(np.array([1e30, 1e30]))


class TestGradients:
    def test_mse_loss_gradient_matches_finite_differences(self):
        for trial in range(20):
            net, x, rng = sample_clear_of_kinks(100 + trial, (4, 8, 6, 1), "identity", 5)
            target = rng.normal(0, 1, 5)

            def loss():
                out = net.forward(x)[:, 0]
                return float(np.mean((out - target) ** 2))

            out, cache = net.forward_cached(x)
            err = out[:, 0] - target
            grads = net.backward(cache, (2.0 * err / err.size)[:, None])
            assert max_rel_error(grads, numeric_gradient(loss, net)) < 1e-4

    def test_tanh_head_gradient_matches_finite_differences(self):
        for trial in range(10):
            net, x, _ = sample_clear_of_kinks(200 + trial, (3, 6, 1), "tanh", 4)

            def loss():
                return float(np.sum(net.forward(x)))

            _, cache = net.forward_cached(x)
            grads = net.backward(cache, np.ones((4, 1)))
            assert max_rel_error(grads, numeric_gradient(loss, net)) < 1e-4

    def test_input_gradient(self):
        net, x, _ = sample_clear_of_kinks(7, (3, 5, 1), "identity", 1)
        _, cache = net.forward_cached(x)
        grad_in = net.backward(cache, np.ones((1, 1)), params=False)
        eps = 1e-6
        for i in range(3):
            up = x.copy()
            up[0, i] += eps
            down = x.copy()
            down[0, i] -= eps
            numeric = (net.forward(up)[0, 0] - net.forward(down)[0, 0]) / (2 * eps)
            assert grad_in[0, i] == pytest.approx(numeric, rel=1e-5, abs=1e-8)


NET_SHAPES = [((3, 8, 1), "tanh"), ((4, 16, 16, 1), "identity"), ((3, 5, 7, 2), "identity"),
              ((1, 1), "tanh")]
# NET_SHAPES plus the agents' shapes: critic and value heads, the DDPG
# actor, and the SAC policy's two-column head
BACKWARD_SHAPES = NET_SHAPES + [((4, 64, 64, 1), "identity"), ((3, 64, 64, 1), "tanh"),
                                ((3, 64, 64, 2), "identity")]


def backward_and_reference(net, rows, rng):
    """``net.backward``'s parameter and input passes on a fresh batch, with
    the reference's param and input gradients flattened the same way."""
    _, cache = net.forward_cached(rng.normal(0, 1, (rows, net.layer_sizes[0])))
    g_out = rng.normal(0, 1, (rows, net.layer_sizes[-1]))
    g_out[::3] = 0.0  # zero gradients: the products must keep their signed zeros
    grads, grad_in = net.backward(cache, g_out), net.backward(cache, g_out, params=False)
    pairs, ref_in = reference_backward(net, cache, g_out)
    ref = np.concatenate([g.ravel() for pair in pairs for g in pair])
    return (grads, grad_in), (ref, ref_in)


def assert_same_bytes(got, want):
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


class TestFlatLayout:
    @pytest.mark.parametrize("sizes,activation", BACKWARD_SHAPES)
    def test_full_backward_equals_per_layer_reference(self, sizes, activation):
        # one net per dtype, through a growing then shrinking batch
        for dtype in (np.float64, np.float32):
            rng = np.random.default_rng(11)
            net = Mlp(list(sizes), activation, rng, final_init_scale=0.5, dtype=dtype)
            for rows in (1, 256, 1077, 9):
                got, want = backward_and_reference(net, rows, rng)
                assert got[0].shape == net.flat.shape
                assert got[0].dtype == dtype
                assert_same_bytes(got, want)

    @pytest.mark.parametrize("sizes,activation", BACKWARD_SHAPES)
    def test_forward_equals_forward_cached_bitwise(self, sizes, activation):
        # one net per dtype, so forward's scratch grows and is reused; 1-D
        # inputs take the single-row path of the decision loop; both equal
        # the plain per-layer expression
        for dtype in (np.float64, np.float32):
            rng = np.random.default_rng(14)
            net = Mlp(list(sizes), activation, rng, final_init_scale=0.5, dtype=dtype)
            for rows in (1, 256, 1077, 9):
                x = rng.normal(0, 1, (rows, sizes[0]))
                want = x.astype(dtype)
                for w, b in zip(net.weights[:-1], net.biases[:-1]):
                    want = np.maximum(want @ w + b, 0.0)
                want = want @ net.weights[-1] + net.biases[-1]
                if activation == "tanh":
                    want = np.tanh(want)
                for given in (x, x[0]) if rows == 1 else (x,):
                    assert_same_bytes([net.forward(given), net.forward_cached(given)[0]], [want, want])

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_relu_against_zeros_equals_scalar_zero(self, dtype):
        # the layer loop's ReLU runs against a zeros block cut from a longer
        # flat buffer; it must keep every byte of np.maximum(h, 0.0), over
        # pre-activations of exactly -0.0 as well as +0.0, subnormals,
        # infinities and NaN
        tiny = np.finfo(dtype).smallest_subnormal
        special = np.array([-0.0, 0.0, tiny, -tiny, np.inf, -np.inf, np.nan, 1.5, -1.5], dtype)
        for rows, width in ((1, 64), (256, 64), (9, 7)):
            h = np.resize(special, (rows, width))
            want = np.maximum(h, 0.0)
            zeros = np.zeros(300 * 64, dtype)[: rows * width].reshape(rows, -1)
            np.maximum(h, zeros, out=h)
            assert h.tobytes() == want.tobytes()

    @pytest.mark.parametrize("sizes,activation", NET_SHAPES)
    def test_input_only_backward_equals_reference_bitwise(self, sizes, activation):
        rng = np.random.default_rng(12)
        net = Mlp(list(sizes), activation, rng, final_init_scale=0.5)
        for rows in (1, 7, 256):
            _, cache = net.forward_cached(rng.normal(0, 1, (rows, sizes[0])))
            g_out = rng.normal(0, 1, (rows, sizes[-1]))
            _, ref_in = reference_backward(net, cache, g_out)
            only = net.backward(cache, g_out, params=False)
            assert only.tobytes() == ref_in.tobytes()

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_backward_scratch_reuse_equals_reference(self, dtype):
        # backward's per-net scratch must not leak one call into the next:
        # shrink and regrow one net's batch, interleave two nets of one
        # shape, and run a clone beside its original; every call, and every
        # array it returned, must still match the reference at the end
        rng = np.random.default_rng(13)
        net = Mlp([4, 64, 64, 1], "identity", rng, final_init_scale=0.5, dtype=dtype)
        other = Mlp([4, 64, 64, 1], "identity", rng, final_init_scale=0.5, dtype=dtype)
        calls = [(net, 1077), (net, 256), (net, 1077)]
        calls += [(net, 256), (other, 1077), (net, 1077), (other, 256)]
        twin = net.clone()
        calls += [(twin, 256), (net, 1077), (twin, 1077), (net, 256)]
        kept = []
        for which, rows in calls:
            got, want = backward_and_reference(which, rows, rng)
            assert_same_bytes(got, want)
            kept.append((got, want))
        for got, want in kept:
            assert_same_bytes(got, want)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_shared_scratch_equals_reference(self, dtype):
        # two nets of different widths on one scratch, interleaved while it
        # grows and while it is reused; every call, and every array it
        # returned, must still match the reference at the end
        rng = np.random.default_rng(14)
        scratch = Scratch(dtype)
        wide = Mlp([3, 32, 96, 2], "tanh", rng, final_init_scale=0.5, dtype=dtype, scratch=scratch)
        narrow = Mlp([5, 48, 1], "identity", rng, final_init_scale=0.5, dtype=dtype, scratch=scratch)
        kept = []
        for which, rows in [(narrow, 256), (wide, 256), (narrow, 1077), (wide, 300), (narrow, 256)]:
            got, want = backward_and_reference(which, rows, rng)
            assert_same_bytes(got, want)
            kept.append((got, want))
        for got, want in kept:
            assert_same_bytes(got, want)

    def test_scratch_of_another_dtype_is_rejected(self, rng):
        with pytest.raises(ValueError, match="scratch dtype"):
            Mlp([3, 8, 1], "tanh", rng, dtype=np.float32, scratch=Scratch(np.float64))

    def test_views_share_the_flat_vector(self, rng):
        net = Mlp([3, 8, 8, 2], "identity", rng)
        loaded = Mlp([3, 8, 8, 2], "identity")
        loaded.load_dict(net.to_dict())
        for twin in (net, net.clone(), loaded):
            assert len(twin.weights) == len(twin.biases) == len(twin.layer_sizes) - 1
            for p in layer_arrays(twin):
                assert np.shares_memory(p, twin.flat)
            assert twin.flat.size == sum(p.size for p in layer_arrays(twin))
            assert np.array_equal(twin.flat, net.flat)
        clone = net.clone()
        clone.flat[0] += 1.0
        assert clone.weights[0][0, 0] == net.weights[0][0, 0] + 1.0
        assert not np.shares_memory(clone.flat, net.flat)

    def test_clone_keeps_the_dtype(self, rng):
        net = Mlp([3, 8, 2], "identity", rng, dtype=np.float32)
        twin = net.clone()
        assert twin.flat.dtype == np.float32
        assert twin.flat.tobytes() == net.flat.tobytes()

    @pytest.mark.parametrize("field,index,shape", [
        ("biases", 0, (1, 8)), ("biases", 1, (1,)), ("weights", 0, (8, 3)), ("weights", 1, (8, 1)),
    ])
    def test_load_dict_rejects_misshapen_arrays(self, rng, field, index, shape):
        blob = Mlp([3, 8, 2], "identity", rng).to_dict()
        blob[field][index] = np.zeros(shape).tolist()
        with pytest.raises(ValueError, match=rf"{field}\[{index}\]"):
            Mlp([3, 8, 2], "identity", rng).load_dict(blob)

    def test_load_dict_rejects_missing_layer(self, rng):
        blob = Mlp([3, 8, 2], "identity", rng).to_dict()
        blob["biases"].pop()
        with pytest.raises(ValueError, match="biases"):
            Mlp([3, 8, 2], "identity", rng).load_dict(blob)

    @pytest.mark.parametrize("edit,problem", [
        (lambda b: b.update(layer_sizes=[4, 8, 2]), r"expected \(layer sizes, activation\)"),
        (lambda b: b.update(output_activation="tanh"), r"expected \(layer sizes, activation\)"),
        (lambda b: b["biases"][0].__setitem__(0, 1e300),
         r"biases\[0\]: expected finite float32 values, got inf"),
        # float() would read each of these as a number
        (lambda b: b["weights"][0][0].__setitem__(0, "0.5"),
         r"weights\[0\]: expected numbers, got '0.5'"),
        (lambda b: b["biases"][1].__setitem__(0, True), r"biases\[1\]: expected numbers, got True"),
        (lambda b: b["weights"][1][0].__setitem__(0, [0.5]),
         r"weights\[1\]: expected numbers, got \[0.5\]"),
    ])
    def test_load_dict_rejects_another_net(self, rng, edit, problem):
        # 1e300 is finite as stored, infinite in the float32 net
        blob = Mlp([3, 8, 2], "identity", rng).to_dict()
        edit(blob)
        with pytest.raises(ValueError, match=problem):
            Mlp([3, 8, 2], "identity", dtype=np.float32).load_dict(blob)

    def test_clone_and_a_net_without_rng_draw_nothing(self, rng, monkeypatch):
        net = Mlp([3, 8, 2], "identity", rng)
        monkeypatch.setattr(np.random, "default_rng", None)  # a fresh generator would fail
        assert not Mlp([3, 8, 2], "identity").flat.any()
        assert net.clone().flat.tobytes() == net.flat.tobytes()

    @pytest.mark.parametrize("sizes", [[3, 0, 1], [3, -2, 1], [3, 2.5, 1], [3, "8", 1]])
    def test_layer_sizes_must_be_positive_integers(self, sizes):
        with pytest.raises(ValueError, match="positive integers"):
            Mlp(sizes, "tanh", np.random.default_rng(0))


class TestOneProductRule:
    """Every layer product of both loops runs on np.dot, a one-element by
    one-element product on @, and each gives the bytes of the @ expression;
    the bias adds read (1, n) row views of ``flat``."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("sizes,activation", BACKWARD_SHAPES)
    def test_both_loops_equal_the_matmul_oracle(self, sizes, activation, dtype):
        # the (1, 1) net at one row multiplies one-element operands, which
        # stay on @; zero output gradients make products of signed zeros
        rng = np.random.default_rng(43)
        net = Mlp(list(sizes), activation, rng, final_init_scale=0.5, dtype=dtype)
        for rows in (1, 2, 45, 256, 1077):
            x = rng.normal(0, 1, (rows, sizes[0])).astype(dtype)
            want = reference_forward(net, x)
            out, cache = net.forward_cached(x)
            assert len(cache) == len(want)
            assert_same_bytes([net.forward(x), out, *cache], [want[-1], want[-1], *want])
            g_out = rng.normal(0, 1, (rows, sizes[-1])).astype(dtype)
            g_out[::3] = 0.0
            pairs, ref_in = reference_backward(net, want, g_out)
            ref = np.concatenate([g.ravel() for pair in pairs for g in pair])
            got = [net.backward(cache, g_out), net.backward(cache, g_out, params=False)]
            assert_same_bytes(got, [ref, ref_in])

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_one_element_products_keep_the_matmul_zero(self, dtype):
        # a zero output gradient times an input of -1 and a weight of -0.5:
        # np.dot's scalar products are -0.0 where @ gives +0.0, in the
        # weight and the input gradient alike
        net = Mlp([1, 1], "identity", dtype=dtype)
        net.weights[0][...] = -0.5
        _, cache = net.forward_cached(np.full((1, 1), -1.0, dtype))
        g_out = np.zeros((1, 1), dtype)
        grads, grad_in = net.backward(cache, g_out), net.backward(cache, g_out, params=False)
        pairs, ref_in = reference_backward(net, cache, g_out)
        assert_same_bytes([grads[:1], grad_in], [pairs[0][0].ravel(), ref_in])
        assert not np.signbit(grads[0]) and not np.signbit(grad_in[0, 0])

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_one_row_forward_follows_every_write_to_flat(self, dtype):
        # Adam, soft_update and load_dict write flat in place; the row
        # views the layer loop adds must show each write, as the 1-D
        # biases the oracle adds do
        rng = np.random.default_rng(47)
        net, online, stored = (Mlp([3, 64, 64, 1], "tanh", rng, final_init_scale=0.5, dtype=dtype)
                               for _ in range(3))
        for other in (online, stored):
            for b in other.biases:
                b[...] = rng.normal(0, 0.5, b.shape)
        adam = Adam(net, lr=1e-2)
        grad = rng.normal(0, 1, net.flat.shape).astype(dtype)
        x = rng.normal(0, 1, 3).astype(dtype)
        writes = (lambda: adam.step(net, grad), lambda: soft_update(net, online, 0.5),
                  lambda: net.load_dict(stored.to_dict()))
        for write in writes:
            biases, before = [b.copy() for b in net.biases], net.forward(x)
            write()
            assert all(not np.array_equal(b, old) for b, old in zip(net.biases, biases))
            want = reference_forward(net, x)[-1]
            assert_same_bytes([net.forward(x), net.clone().forward(x)], [want, want])
            assert want.tobytes() != before.tobytes()


class TestBackwardProducts:
    """Each backward pass makes only the products of the array it returns."""

    @pytest.mark.parametrize("sizes,activation", [((4, 64, 64, 1), "identity"), ((3, 64, 64, 1), "tanh")])
    def test_each_pass_skips_the_other_passes_products(self, sizes, activation, monkeypatch):
        # the parameter pass makes three weight products and the two hidden
        # input products, but no (rows, input width) one; the input pass
        # makes the three input products and no weight product
        rng = np.random.default_rng(53)
        net = Mlp(list(sizes), activation, rng, final_init_scale=0.5, dtype=np.float32)
        _, cache = net.forward_cached(rng.normal(0, 1, (256, sizes[0])))
        g_out = rng.normal(0, 1, (256, 1))
        shapes, product = [], nets._product

        def spy(a, b, out=None):
            shapes.append((a.shape[0], b.shape[1]))
            return product(a, b, out)

        monkeypatch.setattr(nets, "_product", spy)
        weight_shapes = [w.shape for w in net.weights]
        net.backward(cache, g_out)
        assert len(shapes) == 5 and (256, sizes[0]) not in shapes
        assert sorted(shape for shape in shapes if shape in weight_shapes) == sorted(weight_shapes)
        shapes.clear()
        net.backward(cache, g_out, params=False)
        assert shapes == [(256, 64), (256, 64), (256, sizes[0])]


class TestSoftUpdate:
    def test_tau_one_copies_online(self, rng):
        online = Mlp([2, 3, 1], "tanh", rng)
        target = Mlp([2, 3, 1], "tanh", rng)
        soft_update(target, online, 1.0)
        for t, o in zip(layer_arrays(target), layer_arrays(online)):
            assert np.array_equal(t, o)

    def test_tau_zero_keeps_target(self, rng):
        online = Mlp([2, 3, 1], "tanh", rng)
        target = Mlp([2, 3, 1], "tanh", rng)
        before = [p.copy() for p in layer_arrays(target)]
        soft_update(target, online, 0.0)
        for t, b in zip(layer_arrays(target), before):
            assert np.array_equal(t, b)

    def test_halfway_blend_on_scalars(self):
        online = Mlp([1, 1], "identity", np.random.default_rng(0))
        target = Mlp([1, 1], "identity", np.random.default_rng(0))
        online.weights[0][...] = 2.0
        target.weights[0][...] = 0.0
        soft_update(target, online, 0.5)
        assert target.weights[0][0, 0] == 1.0

    def test_geometric_convergence(self):
        online = Mlp([1, 1], "identity", np.random.default_rng(0))
        target = Mlp([1, 1], "identity", np.random.default_rng(0))
        online.weights[0][...] = 1.0
        target.weights[0][...] = 0.0
        tau = 0.25
        for k in range(1, 30):
            soft_update(target, online, tau)
            assert target.weights[0][0, 0] == pytest.approx(1.0 - (1.0 - tau) ** k)

    def test_shape_mismatch_faults(self, rng):
        with pytest.raises(ValueError):
            soft_update(Mlp([2, 1], "tanh", rng), Mlp([3, 1], "tanh", rng), 0.5)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("tau", [0.01, np.float64(0.01)])
    def test_equals_the_plain_expression_bitwise(self, dtype, tau):
        # a numpy float64 tau promotes a float32 blend to float64, as the
        # plain expression does
        rng = np.random.default_rng(43)
        online = Mlp([4, 16, 16, 1], "identity", rng, dtype=dtype)
        target = Mlp([4, 16, 16, 1], "identity", rng, dtype=dtype)
        plain = target.flat.copy()
        for _ in range(3):
            online.flat += rng.normal(0, 0.1, online.flat.shape).astype(dtype)
            soft_update(target, online, tau)
            plain *= 1.0 - tau
            plain += tau * online.flat
            assert target.flat.tobytes() == plain.tobytes()


class TestAdam:
    def test_zero_gradient_leaves_params(self, rng):
        net = Mlp([2, 3, 1], "tanh", rng)
        adam = Adam(net, lr=0.1)
        before = [p.copy() for p in layer_arrays(net)]
        adam.step(net, np.zeros_like(net.flat))
        for p, b in zip(layer_arrays(net), before):
            assert np.array_equal(p, b)

    def test_descends_a_quadratic(self):
        net = Mlp([1, 1], "identity", np.random.default_rng(0))
        net.weights[0][...] = 4.0
        net.biases[0][...] = 0.0
        adam = Adam(net, lr=0.05)
        for _ in range(500):
            w = net.weights[0][0, 0]
            adam.step(net, np.array([2.0 * w, 0.0]))
        assert abs(net.weights[0][0, 0]) < 1e-2


    @pytest.mark.parametrize("sizes,activation", NET_SHAPES)
    def test_flat_step_equals_per_array_reference(self, sizes, activation):
        rng = np.random.default_rng(13)
        net = Mlp(list(sizes), activation, rng, final_init_scale=0.5)
        ref_params = [p.copy() for p in layer_arrays(net)]
        adam, ref = Adam(net, lr=3e-3), ReferenceAdam(ref_params, lr=3e-3)
        for _ in range(6):
            grad = rng.normal(0, 1, net.flat.shape) * rng.choice([1e-9, 1.0, 1e3])
            splits = np.cumsum([p.size for p in ref_params])[:-1]
            ref_grads = [g.reshape(p.shape) for g, p in zip(np.split(grad, splits), ref_params)]
            adam.step(net, grad)
            ref.step(ref_params, ref_grads)
            for p, q in zip(layer_arrays(net), ref_params):
                assert p.tobytes() == q.tobytes()


    def test_step_leaves_the_gradient(self, rng):
        net = Mlp([3, 8, 1], "tanh", rng)
        adam = Adam(net, lr=1e-2)
        grad = rng.normal(0, 1, net.flat.shape)
        before = grad.copy()
        for _ in range(3):
            adam.step(net, grad)
        assert grad.tobytes() == before.tobytes()

    def test_alternating_optimisers_equal_reference(self):
        # each Adam's scratch is its own: interleaved steps on two nets match
        # two per-array references stepped the same way
        rng = np.random.default_rng(17)
        nets = [Mlp([3, 8, 1], "tanh", rng), Mlp([4, 5, 5, 2], "identity", rng)]
        adams = [Adam(nets[0], lr=3e-3), Adam(nets[1], lr=1e-2, beta1=0.8)]
        refs_params = [[p.copy() for p in layer_arrays(net)] for net in nets]
        refs = [ReferenceAdam(refs_params[0], lr=3e-3), ReferenceAdam(refs_params[1], lr=1e-2, beta1=0.8)]
        for _ in range(5):
            for net, adam, ref, ref_params in zip(nets, adams, refs, refs_params):
                grad = rng.normal(0, 1, net.flat.shape)
                splits = np.cumsum([p.size for p in ref_params])[:-1]
                adam.step(net, grad)
                ref.step(ref_params, [g.reshape(p.shape) for g, p in zip(np.split(grad, splits), ref_params)])
        for net, ref_params in zip(nets, refs_params):
            for p, q in zip(layer_arrays(net), ref_params):
                assert p.tobytes() == q.tobytes()


class TestNoAliasing:
    """The in-place kernels write only into arrays their own call allocated."""

    @pytest.mark.parametrize("sizes,activation", NET_SHAPES)
    def test_outputs_and_caches_survive_later_calls(self, sizes, activation):
        rng = np.random.default_rng(19)
        net = Mlp(list(sizes), activation, rng, final_init_scale=0.5)
        x = rng.normal(0, 1, (6, sizes[0]))
        y, cache = net.forward_cached(x)
        y_plain = net.forward(x)
        kept = [a.copy() for a in (x, y, y_plain, *cache)]
        x2 = rng.normal(0, 1, (6, sizes[0]))
        y2, cache2 = net.forward_cached(x2)
        net.forward(x2)
        net.backward(cache2, rng.normal(0, 1, y2.shape))
        net.backward(cache, rng.normal(0, 1, y.shape), params=False)
        for now, then in zip((x, y, y_plain, *cache), kept):
            assert now.tobytes() == then.tobytes()

    @pytest.mark.parametrize("sizes,activation", NET_SHAPES)
    @pytest.mark.parametrize("params", [True, False])
    def test_backward_leaves_grad_out_and_cache(self, sizes, activation, params):
        rng = np.random.default_rng(23)
        net = Mlp(list(sizes), activation, rng, final_init_scale=0.5)
        y, cache = net.forward_cached(rng.normal(0, 1, (6, sizes[0])))
        grad_out = rng.normal(0, 1, y.shape)
        kept = [a.copy() for a in (grad_out, *cache)]
        net.backward(cache, grad_out, params=params)
        for now, then in zip((grad_out, *cache), kept):
            assert now.tobytes() == then.tobytes()


def traced_peak(call) -> int:
    """Peak bytes traced while ``call`` runs, numpy buffers included."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
class TestAllocations:
    """The learner's kernels make no throwaway arrays of their working size,
    in either dtype: a float32 kernel that upcast to float64 would double its
    bytes and fail the same bounds."""

    def test_adam_step_allocates_less_than_one_parameter_vector(self, dtype):
        rng = np.random.default_rng(29)
        net = Mlp([4, 64, 64, 1], "identity", rng, dtype=dtype)
        adam = Adam(net, lr=1e-3)
        grad = rng.normal(0, 1, net.flat.shape).astype(dtype)
        adam.step(net, grad)  # warm-up
        assert traced_peak(lambda: adam.step(net, grad)) < net.flat.nbytes
        assert net.flat.dtype == dtype

    def test_forward_cached_keeps_what_it_allocates(self, dtype):
        # float64 input: a float32 net casts it once, within the margin
        rng = np.random.default_rng(31)
        net = Mlp([4, 64, 64, 1], "identity", rng, dtype=dtype)
        x = rng.normal(0, 1, (256, 4))
        net.forward_cached(x)  # warm-up
        out = []
        peak = traced_peak(lambda: out.append(net.forward_cached(x)))
        _, cache = out[0]
        kept = sum(a.nbytes for a in cache[1:])
        assert all(a.dtype == dtype for a in cache)
        assert peak <= kept + 256 * 64 * np.dtype(dtype).itemsize


    def test_forward_keeps_one_layer_above_what_it_returns(self, dtype):
        # the cache-free forward runs its hidden layers in the net's scratch
        rng = np.random.default_rng(33)
        net = Mlp([4, 64, 64, 1], "identity", rng, dtype=dtype)
        x = rng.normal(0, 1, (256, 4))
        net.forward(x)  # warm-up: makes the scratch
        out = []
        peak = traced_peak(lambda: out.append(net.forward(x)))
        assert out[0].dtype == dtype
        assert peak <= out[0].nbytes + 256 * 64 * np.dtype(dtype).itemsize

    def test_backward_keeps_what_it_returns(self, dtype):
        # the margin is one (rows, width) array; numpy's buffered cast of the
        # bool ReLU mask in ``grad *= mask`` takes part of it
        rng = np.random.default_rng(37)
        net = Mlp([4, 64, 64, 1], "identity", rng, dtype=dtype)
        _, cache = net.forward_cached(rng.normal(0, 1, (256, 4)))
        grad_out = rng.normal(0, 1, (256, 1)).astype(dtype)
        net.backward(cache, grad_out)  # warm-up: makes the scratch
        out = []
        peak = traced_peak(lambda: out.append(net.backward(cache, grad_out)))
        grads = out[0]
        assert grads.dtype == dtype
        assert peak <= grads.nbytes + 256 * 64 * np.dtype(dtype).itemsize

    def test_wide_net_scratch_is_two_products_a_mask_and_zeros(self, dtype):
        # the paper's four 256-wide layers: what a warmed net keeps between
        # calls is rows x widest layer x (two products + zeros + a bool mask)
        rows = 1077
        rng = np.random.default_rng(39)
        net = Mlp([3, 256, 256, 256, 256, 1], "tanh", rng, dtype=dtype)
        x = rng.normal(0, 1, (rows, 3))
        grad_out = rng.normal(0, 1, (rows, 1))
        # a twin's warm-up fills numpy's small-buffer caches, which the
        # traced difference would otherwise count
        _, cache = net.clone().forward_cached(x)
        net.clone().backward(cache, grad_out)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            cache = net.forward_cached(x)[1]
            net.backward(cache, grad_out)
            del cache
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        # plus one page for the array and tuple objects that hold them
        assert kept <= rows * 256 * (3 * np.dtype(dtype).itemsize + 1) + 4096

    def test_soft_update_allocates_less_than_one_parameter_vector(self, dtype):
        rng = np.random.default_rng(41)
        online = Mlp([4, 64, 64, 1], "identity", rng, dtype=dtype)
        target = online.clone()
        soft_update(target, online, 0.01)  # warm-up: makes the blend vector
        assert traced_peak(lambda: soft_update(target, online, 0.01)) < online.flat.nbytes


class TestPrecision:
    """A float32 net against a float64 net holding the same weights.

    Bounds set from measurement: over 20 seeds, on inputs in [0, 1.2]^3 (the
    normalized state box) at batch 256, the largest gap, relative to the
    largest float64 magnitude, was 7.3e-7 forward and 9.8e-7 for the
    parameter gradient on the [64, 64] nets the agents train, and 3.6e-6 and
    5.0e-6 on four 256-wide layers.  1e-5 is about 84 float32 epsilons.
    """

    @pytest.mark.parametrize("sizes,activation", [
        ((3, 64, 64, 1), "tanh"), ((4, 64, 64, 1), "identity"), ((3, 64, 64, 2), "identity"),
        ((3, 256, 256, 256, 256, 1), "tanh"),
    ])
    @pytest.mark.parametrize("seed", range(3))
    def test_float32_tracks_float64(self, sizes, activation, seed):
        rng = np.random.default_rng(seed)
        single = Mlp(list(sizes), activation, rng, final_init_scale=0.5,
                     dtype=np.float32)
        double = Mlp(list(sizes), activation, np.random.default_rng(0))
        double.flat[...] = single.flat
        x = rng.uniform(0.0, 1.2, (256, sizes[0]))
        y32, cache32 = single.forward_cached(x)
        y64, cache64 = double.forward_cached(x)
        assert y32.dtype == np.float32 and y64.dtype == np.float64
        assert np.max(np.abs(y32 - y64)) <= 1e-5 * np.max(np.abs(y64))
        g_out = rng.normal(0, 1, y64.shape) / 256
        g32 = single.backward(cache32, g_out)
        g64 = double.backward(cache64, g_out)
        assert g32.dtype == np.float32
        assert np.max(np.abs(g32 - g64)) <= 1e-5 * np.max(np.abs(g64))


class TestSerialization:
    def test_round_trip(self, rng, tmp_path):
        net = Mlp([3, 8, 1], "tanh", rng)
        blob = json.dumps(net.to_dict())
        twin = Mlp([3, 8, 1], "tanh")
        twin.load_dict(json.loads(blob))
        x = rng.normal(0, 1, (4, 3))
        assert np.array_equal(net.forward(x), twin.forward(x))
