"""Small fully connected networks with hand-rolled backprop, plus Adam.

ReLU hidden layers throughout; the output layer is tanh for policies that
emit commands and identity for value heads.  Gradients are exact, which the
test suite pins against central finite differences.

Each network keeps all of its parameters in one vector, ``Mlp.flat``, laid
out layer by layer as weights (row-major) then biases.  ``weights[i]`` and
``biases[i]`` are reshaped views into it, so writing through a view writes
the vector.  ``backward`` returns the parameter gradient as one vector of the
same layout, and ``Adam``, ``soft_update`` and ``clone`` each run their
elementwise work once over the whole vector; elementwise results do not
depend on how the vector is split, so they equal a per-array update bitwise.
``backward(..., params=False)`` returns only d(loss)/d(input), for callers
that differentiate through a network they do not train; it makes no weight
products, and the parameter pass skips the first layer's input product.

One product rule for both layer loops: every layer product (forward
products, weight and input gradients) runs on ``np.dot``, which gives the
bytes of ``@`` at less call overhead, most of all on the one-row forward of
the decision loop; a one-element by one-element product stays on ``@``,
whose sum turns a -0.0 that ``np.dot``'s scalar product keeps into +0.0.
The forward loop adds each bias as a (1, n) row view of ``flat``, which
numpy adds to a one-row layer on its same-shape path; ``biases[i]`` stays
the 1-D view of the same memory, so every write to ``flat`` shows in both.

In place, but only on what the call owns: ``forward_cached`` applies each
layer's bias and activation in place to the array its product allocated,
and ``forward``, the same loop without the cache, writes its hidden layers
into the network's ``Scratch``, so only its output is fresh.  The ReLU runs
against a same-shape zeros block: the same bytes as against 0.0, on numpy's
contiguous loop.  ``backward`` writes each hidden layer's input-gradient
product and ReLU mask into that scratch: two product buffers that alternate
by layer, the bool mask and the zeros, each flat, the largest batch seen
times the widest hidden layer (3 x itemsize + 1 bytes per row and unit),
used through C-contiguous views.  A net builds
a scratch of its own unless it is handed one; nets that never run at the
same time, such as an agent's five nets, may share one, so the nets of
one scratch run one ``forward`` or ``backward`` at a time among them, and
no scratch view leaves a call.  Neither method writes into
an array the caller passed in or still holds (the input, ``grad_out``, a
cache), and every array they return or cache, but the input itself, is
fresh on every call, so a caller may keep any of them as long as it likes.
``Adam`` runs its update in two scratch vectors of its own, and
``soft_update`` blends in one that the target network owns.  Each in-place
form does the floating-point operations of the plain expression it stands
for, in the same order, so results are bitwise those of that expression.

A scratch follows the largest batch its nets have run.  The agents'
regression steps (``drl.agents.regress``) and convergence check run in
blocks of at most 256 rows, so a regression of any size needs scratch and
caches for 256 rows only.

One dtype per network: ``Mlp(..., dtype=)`` sets the dtype of ``flat``
(float64 by default), and every array a network or its ``Adam`` makes
follows ``flat.dtype``: caches, outputs, parameter and input gradients, and
the Adam moments and scratch.  ``forward_cached`` and ``backward`` cast
their input and ``grad_out`` to that dtype once, at entry, so a float32 net
fed float64 arrays still computes wholly in float32; an input already in
that dtype passes without a copy.  The initial weights
are drawn in float64 and rounded, so float32 and float64 nets built from the
same generator hold the same weights up to that rounding.
"""

from __future__ import annotations

import numpy as np

_ACTIVATIONS = ("tanh", "identity")


class Scratch:
    """The layer loops' working memory (see above), for the nets handed it.

    ``size`` is the elements of each of the four flat buffers: the largest
    rows times widest hidden layer a ``views`` call has asked for.
    ``views(rows, widths)`` gives per hidden layer (rows, width) views of a
    product buffer (alternating by layer), the mask and the zeros; the views
    of up to 16 (rows, widths) keys are kept.
    """

    def __init__(self, dtype):
        self.dtype = np.dtype(dtype)
        self.size = -1
        self._buffers = None
        self._views = {}

    def views(self, rows: int, widths: tuple[int, ...]) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        views = self._views.get((rows, widths))
        if views is None:
            size = rows * max(widths, default=0)
            if size > self.size:
                self._buffers = (np.empty(size, self.dtype), np.empty(size, self.dtype),
                                 np.empty(size, bool), np.zeros(size, self.dtype))
                self.size, self._views = size, {}
            elif len(self._views) >= 16:
                self._views = {}
            first, second, mask, zeros = self._buffers
            views = self._views[rows, widths] = [
                tuple(a[: rows * n].reshape(rows, n) for a in ((first, second)[j % 2], mask, zeros))
                for j, n in enumerate(widths)
            ]
        return views


def _product(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``a @ b`` by the one product rule (see above), into ``out`` if given."""
    if a.size == b.size == 1:
        return np.matmul(a, b, out=out)
    return np.dot(a, b, out=out)


def check_layer_sizes(layer_sizes) -> list[int]:
    """``layer_sizes`` as a list: input, output and any hidden sizes, each >= 1."""
    if len(layer_sizes) < 2:
        raise ValueError("need at least input and output sizes")
    if not all(isinstance(n, (int, np.integer)) and not isinstance(n, bool) and n >= 1 for n in layer_sizes):
        raise ValueError(f"layer sizes must be positive integers, got {list(layer_sizes)}")
    return list(layer_sizes)


class Mlp:
    """A ReLU stack with a tanh or identity output over one flat parameter
    vector.  ``scratch`` is the working memory of its layer loops: its own
    unless the builder hands it one that other nets share (see ``Scratch``).
    Without ``rng`` nothing is drawn and the weights start at zero."""

    def __init__(
        self,
        layer_sizes: list[int],
        output_activation: str = "tanh",
        rng: np.random.Generator | None = None,
        final_init_scale: float = 3e-3,
        dtype=np.float64,
        scratch: "Scratch | None" = None,
    ):
        self.layer_sizes = check_layer_sizes(layer_sizes)
        if output_activation not in _ACTIVATIONS:
            raise ValueError(f"output_activation must be one of {_ACTIVATIONS}")
        self.output_activation = output_activation
        pairs = list(zip(self.layer_sizes[:-1], self.layer_sizes[1:]))
        size = sum(n_in * n_out + n_out for n_in, n_out in pairs)
        if size * np.dtype(dtype).itemsize > np.iinfo(np.intp).max:  # numpy's ValueError otherwise
            raise MemoryError(f"{size} parameters of layer sizes {self.layer_sizes} exceed the address space")
        self.flat = np.zeros(size, dtype=dtype)
        self.weights, self.biases = self._split(self.flat)
        self._bias_rows = [b.reshape(1, -1) for b in self.biases]  # (1, n) views for the layer loop
        self.scratch = Scratch(dtype) if scratch is None else scratch
        if self.scratch.dtype != self.flat.dtype:
            raise ValueError(f"scratch dtype {self.scratch.dtype} is not the net's {self.flat.dtype}")
        self._hidden = tuple(self.layer_sizes[1:-1])
        self._blend = None  # soft_update's blend vector when this net is a target
        for i, (n_in, n_out) in enumerate(pairs if rng is not None else ()):
            if i == len(pairs) - 1:
                self.weights[i][...] = rng.uniform(-final_init_scale, final_init_scale, (n_in, n_out))
            else:
                # He-uniform for the ReLU stack
                bound = np.sqrt(6.0 / n_in)
                self.weights[i][...] = rng.uniform(-bound, bound, (n_in, n_out))

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    def _split(self, vec: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Per-layer (weights, biases) views into a vector laid out like ``flat``."""
        weights, biases = [], []
        offset = 0
        for n_in, n_out in zip(self.layer_sizes[:-1], self.layer_sizes[1:]):
            weights.append(vec[offset : offset + n_in * n_out].reshape(n_in, n_out))
            offset += n_in * n_out
            biases.append(vec[offset : offset + n_out])
            offset += n_out
        return weights, biases

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Forward pass returning only the output, with no cache."""
        return self._layers(x, None)

    def forward_cached(self, x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
        """Forward pass keeping per-layer inputs for the backward pass."""
        cache = []
        return self._layers(x, cache), cache

    def _layers(self, x: np.ndarray, cache: list | None) -> np.ndarray:
        """The one layer loop; with a ``cache`` list it appends each layer's
        input and the output, without one the hidden layers run in scratch."""
        h = np.array(x, dtype=self.flat.dtype, copy=None, ndmin=2)
        if cache is not None:
            cache.append(h)
        hidden = zip(self.weights, self._bias_rows, self.scratch.views(h.shape[0], self._hidden))
        for w, b, (product, _, zeros) in hidden:
            h = _product(h, w, None if cache is not None else product)
            h += b
            np.maximum(h, zeros, out=h)
            if cache is not None:
                cache.append(h)
        h = _product(h, self.weights[-1])
        h += self._bias_rows[-1]
        if self.output_activation == "tanh":
            np.tanh(h, out=h)
        if cache is not None:
            cache.append(h)
        if not np.isfinite(h).all():
            raise FloatingPointError("network produced non-finite output")
        return h

    def backward(self, cache: list[np.ndarray], grad_out: np.ndarray, params: bool = True) -> np.ndarray:
        """Backpropagate d(loss)/d(output).

        Returns d(loss)/d(parameters) as one vector laid out like ``flat``,
        or with ``params`` false d(loss)/d(input) alone.
        """
        grad = np.array(grad_out, dtype=self.flat.dtype, copy=None, ndmin=2)
        if self.output_activation == "tanh":
            slope = cache[-1] ** 2
            np.subtract(1.0, slope, out=slope)
            slope *= grad
            grad = slope
        if params:
            param_grad = np.empty_like(self.flat)
            grad_w, grad_b = self._split(param_grad)
        views = self.scratch.views(grad.shape[0], self._hidden)
        for i in range(self.n_layers - 1, -1, -1):
            if params:
                _product(cache[i].T, grad, grad_w[i])
                np.add.reduce(grad, axis=0, out=grad_b[i])
            if i == 0:
                return param_grad if params else _product(grad, self.weights[0].T)
            product, mask, _ = views[i - 1]
            grad = _product(grad, self.weights[i].T, product)
            np.greater(cache[i], 0.0, out=mask)
            grad *= mask

    def clone(self, scratch: "Scratch | None" = None) -> "Mlp":
        """A twin holding the same weights, with its own scratch unless one is
        given; nothing is drawn."""
        twin = Mlp(self.layer_sizes, self.output_activation, dtype=self.flat.dtype, scratch=scratch)
        twin.flat[...] = self.flat
        return twin

    def to_dict(self) -> dict:
        return {
            "layer_sizes": self.layer_sizes,
            "output_activation": self.output_activation,
            "weights": [w.tolist() for w in self.weights],
            "biases": [b.tolist() for b in self.biases],
        }

    def load_dict(self, blob: dict) -> None:
        """Write ``to_dict`` output into this net, rounded to its dtype.

        Raises KeyError for a missing field, else ValueError naming the first
        one that is not this net's: the layer sizes and activation, an array
        of another shape (a view would broadcast some), a non-number, or a
        value not finite in this dtype, where a finite one can round to inf.
        """
        want = (self.layer_sizes, self.output_activation)
        got = (blob["layer_sizes"], blob["output_activation"])
        if got != want:
            raise ValueError(f"expected (layer sizes, activation) {want}, got {got}")
        for field, views in (("weights", self.weights), ("biases", self.biases)):
            stored = blob[field]
            if not isinstance(stored, list) or len(stored) != self.n_layers:
                raise ValueError(f"{field}: expected a list of {self.n_layers} arrays")
            for i, (view, values) in enumerate(zip(views, stored)):
                values = np.asarray(values, dtype=object)
                if values.shape != view.shape:
                    raise ValueError(f"{field}[{i}]: expected shape {view.shape}, got {values.shape}")
                if not set(map(type, values.flat)) <= {int, float}:  # type() is exact: no bool
                    bad = next(x for x in values.flat if type(x) not in (int, float))
                    raise ValueError(f"{field}[{i}]: expected numbers, got {bad!r}")
                with np.errstate(over="ignore"):
                    view[...] = values.astype(float)
                finite = np.isfinite(view)
                if not finite.all():
                    raise ValueError(f"{field}[{i}]: expected finite {view.dtype} values, "
                                     f"got {view[~finite][0]}")


class Adam:
    """Per-network Adam state over the flat parameter vector; ``step``
    applies one descent update in place, with two private scratch vectors
    instead of temporaries."""

    def __init__(self, net: Mlp, lr: float, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self._m = np.zeros_like(net.flat)
        self._v = np.zeros_like(net.flat)
        self._step = np.empty_like(net.flat)
        self._denom = np.empty_like(net.flat)

    def step(self, net: Mlp, grad: np.ndarray) -> None:
        """One update from ``grad``, a vector laid out like ``net.flat``.

        Operation for operation: m = beta1 m + (1 - beta1) g, v = beta2 v +
        ((1 - beta2) g) g, flat -= (lr (m / bc1)) / (sqrt(v / bc2) + eps).
        """
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        m, v, step, denom = self._m, self._v, self._step, self._denom
        m *= self.beta1
        np.multiply(1.0 - self.beta1, grad, out=step)
        m += step
        v *= self.beta2
        np.multiply(1.0 - self.beta2, grad, out=step)
        step *= grad
        v += step
        np.divide(v, bc2, out=denom)
        np.sqrt(denom, out=denom)
        denom += self.eps
        np.divide(m, bc1, out=step)
        np.multiply(self.lr, step, out=step)
        step /= denom
        net.flat -= step


def soft_update(target: Mlp, online: Mlp, tau: float) -> None:
    """target <- (1 - tau) * target + tau * online, elementwise."""
    if target.layer_sizes != online.layer_sizes:
        raise ValueError("layer size mismatch between target and online nets")
    dtype = np.result_type(tau, online.flat)
    if target._blend is None or target._blend.dtype != dtype:
        target._blend = np.empty(online.flat.shape, dtype)
    target.flat *= 1.0 - tau
    np.multiply(tau, online.flat, out=target._blend)
    target.flat += target._blend
