"""Dense networks with hand-written backprop and an adaptive-moment optimizer.

Everything is float64 numpy; inputs are (batch, features). Parameters live in
a flat list [W0, b0, W1, b1, ...] so optimizers and checkpoints can treat all
networks uniformly.
"""

from __future__ import annotations

import numpy as np


class DenseNet:
    """Fully connected net, rectifier on hidden layers, linear output."""

    def __init__(self, sizes, rng: np.random.Generator | None = None,
                 final_weight_scale: float = 1.0):
        self.sizes = tuple(int(s) for s in sizes)
        self.params: list[np.ndarray] = []
        if rng is None:
            rng = np.random.default_rng(0)
        for k in range(len(self.sizes) - 1):
            fan_in = self.sizes[k]
            bound = 1.0 / np.sqrt(fan_in)
            W = rng.uniform(-bound, bound, size=(fan_in, self.sizes[k + 1]))
            b = rng.uniform(-bound, bound, size=self.sizes[k + 1])
            if k == len(self.sizes) - 2 and final_weight_scale != 1.0:
                W *= final_weight_scale
                b *= final_weight_scale
            self.params.append(W)
            self.params.append(b)

    @property
    def n_layers(self) -> int:
        return len(self.sizes) - 1

    def forward(self, x: np.ndarray) -> np.ndarray:
        h = x
        for k in range(self.n_layers):
            h = h @ self.params[2 * k] + self.params[2 * k + 1]
            if k < self.n_layers - 1:
                h = np.maximum(h, 0.0)
        return h

    def forward_cache(self, x: np.ndarray):
        """Forward pass keeping the layer inputs needed for backprop."""
        acts = [x]
        h = x
        for k in range(self.n_layers):
            h = h @ self.params[2 * k] + self.params[2 * k + 1]
            if k < self.n_layers - 1:
                h = np.maximum(h, 0.0)
            acts.append(h)
        return h, acts

    def backward(self, acts, grad_out: np.ndarray):
        """Gradients of sum(grad_out * output) w.r.t. params and input."""
        grads = [None] * len(self.params)
        delta = grad_out
        for k in range(self.n_layers - 1, -1, -1):
            if k < self.n_layers - 1:
                delta = delta * (acts[k + 1] > 0.0)
            grads[2 * k] = acts[k].T @ delta
            grads[2 * k + 1] = delta.sum(axis=0)
            delta = delta @ self.params[2 * k].T
        return grads, delta

    def clone(self) -> "DenseNet":
        other = DenseNet.__new__(DenseNet)
        other.sizes = self.sizes
        other.params = [p.copy() for p in self.params]
        return other

    # flat views make finite-difference checks and norms painless
    def get_flat(self) -> np.ndarray:
        return np.concatenate([p.ravel() for p in self.params])

    def set_flat(self, vec: np.ndarray) -> None:
        i = 0
        for p in self.params:
            p[...] = vec[i:i + p.size].reshape(p.shape)
            i += p.size


class Adam:
    """Adaptive-moment gradient descent with bias correction."""

    def __init__(self, params, lr: float = 3e-4, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]

    def step(self, params, grads) -> None:
        self.t += 1
        c1 = 1.0 - self.beta1 ** self.t
        c2 = 1.0 - self.beta2 ** self.t
        for p, g, m, v in zip(params, grads, self.m, self.v):
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p -= self.lr * (m / c1) / (np.sqrt(v / c2) + self.eps)


def soft_update(target: DenseNet, online: DenseNet, coef: float) -> None:
    """target <- (1 - coef) * target + coef * online."""
    for pt, po in zip(target.params, online.params):
        pt *= 1.0 - coef
        pt += coef * po
