"""Dense networks with hand-written backprop and an adaptive-moment optimizer.

Inputs are (batch, features). A net keeps all its parameters in one flat
buffer, `flat`, laid out [W0, b0, W1, b1, ...] with each array raveled in C
order, and `params` are per-layer views of it; `bind` also pairs them into
(W, b) per layer, which the forward passes iterate. `backward` returns the
parameter gradients only, in that layout, so `Adam` and `soft_update` act on
whole buffers. `input_grad` returns the gradient w.r.t. the input only, for a
loss that reaches a net's input but trains another net.

One-row input: `forward` runs a (1, features) input, one state being acted
on, as its row x[0]. Each layer is then a vector-matrix product (a BLAS gemv,
as the (1, features) matrix product is) and a 1-D bias add in place of a
broadcast one, and the output keeps its (1, outputs) shape. `forward` takes
its products through `ndarray.dot`, which reaches the same BLAS routine as
`@` with less dispatch per call. Every bit is that of the matrix pass; a
one-row pass costs per call, not per flop, so this is where acting saves.

Precision: a net computes in the dtype of its buffer and its inputs. The
nets `DenseNet(...)` builds are float64 masters, and `Adam` keeps float64
moments and steps a float64 buffer, promoting a float32 gradient to float64
first; `soft_update` acts on float64 buffers. A float32 working copy
(`from_flat` over `master.flat.astype(np.float32)`) runs `forward`,
`forward_cache`, `backward` and `input_grad` in float32 on float32 inputs,
and its gradients come out float32. Nothing here flushes subnormals: a
float32 caller keeps them out of what it passes in (see `sac.flush_tiny`).
"""

from __future__ import annotations

import math
from itertools import accumulate

import numpy as np


def param_shapes(sizes) -> list[tuple]:
    """Shapes of [W0, b0, W1, b1, ...] for the layer widths `sizes`."""
    return [shape for fan_in, fan_out in zip(sizes[:-1], sizes[1:])
            for shape in ((fan_in, fan_out), (fan_out,))]


def param_count(sizes) -> int:
    """Length of the flat parameter buffer of a net of layer widths `sizes`."""
    return sum(math.prod(s) for s in param_shapes(sizes))


def back_product(delta: np.ndarray, W: np.ndarray) -> np.ndarray:
    """delta @ W.T, the gradient a layer of weights W passes down. For a
    fan-out of 1 it is the broadcast product delta * W.T: the same values as
    the K = 1 matrix product at a fraction of its cost, except that a zero
    factor can give -0 where the matrix product gives +0."""
    return delta * W.T if W.shape[1] == 1 else delta @ W.T


class DenseNet:
    """Fully connected net, rectifier on hidden layers, linear output."""

    def __init__(self, sizes, rng: np.random.Generator,
                 final_weight_scale: float = 1.0):
        self.sizes = tuple(int(s) for s in sizes)
        self.bind(np.empty(param_count(self.sizes)))
        for fan_in, (W, b) in zip(self.sizes, self._hidden + [self._out]):
            bound = 1.0 / np.sqrt(fan_in)
            W[...] = rng.uniform(-bound, bound, size=W.shape)
            b[...] = rng.uniform(-bound, bound, size=b.shape)
        if final_weight_scale != 1.0:
            for p in self._out:
                p *= final_weight_scale

    @classmethod
    def from_flat(cls, sizes, flat: np.ndarray) -> "DenseNet":
        """A net of layer widths `sizes` over the buffer `flat` (not copied)."""
        net = cls.__new__(cls)
        net.sizes = tuple(sizes)
        net.bind(flat)
        return net

    def bind(self, flat: np.ndarray) -> None:
        """Adopt `flat` as the parameter buffer; `params` become its views."""
        shapes = param_shapes(self.sizes)
        counts = [math.prod(s) for s in shapes]
        self._layout = [(slice(end - n, end), s)
                        for s, n, end in zip(shapes, counts, accumulate(counts))]
        self.flat = flat
        self.params = self.views(flat)
        pairs = list(zip(self.params[::2], self.params[1::2]))
        self._hidden, self._out = pairs[:-1], pairs[-1]

    def views(self, buf: np.ndarray) -> list[np.ndarray]:
        """Per-parameter views of a buffer laid out like `flat`."""
        return [buf[sl].reshape(s) for sl, s in self._layout]

    @property
    def n_layers(self) -> int:
        return len(self.sizes) - 1

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Outputs (batch, outputs); a one-row batch runs as a vector (module
        docstring)."""
        row = x.shape[0] == 1
        h = x[0] if row else x
        for W, b in self._hidden:
            h = h.dot(W)
            h += b
            np.maximum(h, 0.0, out=h)
        W, b = self._out
        h = h.dot(W)
        h += b
        return h[None] if row else h

    def forward_cache(self, x: np.ndarray):
        """Forward pass keeping the layer inputs needed for backprop."""
        acts = [x]
        for W, b in self._hidden:
            h = acts[-1] @ W
            h += b
            acts.append(np.maximum(h, 0.0, out=h))
        W, b = self._out
        h = acts[-1] @ W
        h += b
        acts.append(h)
        return h, acts

    def backward(self, acts, grad_out: np.ndarray) -> np.ndarray:
        """Gradient of sum(grad_out * output) w.r.t. the parameters, laid out
        like `flat`."""
        grad = np.empty_like(self.flat)
        g = self.views(grad)
        last = self.n_layers - 1
        delta = grad_out
        for k in range(last, -1, -1):
            if k < last:  # delta is the fresh product of the layer above
                delta *= acts[k + 1] > 0.0
            np.matmul(acts[k].T, delta, out=g[2 * k])
            np.add.reduce(delta, axis=0, out=g[2 * k + 1])
            if k:
                delta = back_product(delta, self.params[2 * k])
        return grad

    def input_grad(self, acts, grad_out: np.ndarray) -> np.ndarray:
        """Gradient of sum(grad_out * output) w.r.t. the input."""
        last = self.n_layers - 1
        delta = grad_out
        for k in range(last, -1, -1):
            if k < last:
                delta *= acts[k + 1] > 0.0
            delta = back_product(delta, self.params[2 * k])
        return delta

    def clone(self) -> "DenseNet":
        return DenseNet.from_flat(self.sizes, self.flat.copy())


# Adam's moment decay rates and denominator floor
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


class Adam:
    """Adaptive-moment gradient descent with bias correction over one flat
    parameter buffer of `size` entries."""

    def __init__(self, size: int, lr: float):
        self.lr = lr
        self.t = 0
        self.m = np.zeros(size)
        self.v = np.zeros(size)

    def step(self, flat: np.ndarray, grad: np.ndarray) -> None:
        grad = np.asarray(grad, dtype=np.float64)
        self.t += 1
        c1 = 1.0 - BETA1 ** self.t
        c2 = 1.0 - BETA2 ** self.t
        m, v = self.m, self.v
        m *= BETA1
        m += (1.0 - BETA1) * grad
        v *= BETA2
        v += (1.0 - BETA2) * grad * grad
        flat -= self.lr * (m / c1) / (np.sqrt(v / c2) + EPS)


def soft_update(target: DenseNet, online: DenseNet, coef: float) -> None:
    """target <- (1 - coef) * target + coef * online."""
    target.flat *= 1.0 - coef
    target.flat += coef * online.flat
