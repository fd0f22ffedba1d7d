import numpy as np
import pytest

from lyaq.nets import BETA1, BETA2, EPS, Adam, DenseNet, param_shapes, soft_update


# ---------------------------------------------------------------------------
# References: the list-form networks code as it was before the flat parameter
# buffer, kept verbatim (`self` is the net or optimizer passed in) so the
# lean path can be checked against it bit for bit.


def reference_forward(self, x):
    h = x
    for k in range(self.n_layers):
        h = h @ self.params[2 * k] + self.params[2 * k + 1]
        if k < self.n_layers - 1:
            h = np.maximum(h, 0.0)
    return h


def reference_forward_cache(self, x):
    acts = [x]
    h = x
    for k in range(self.n_layers):
        h = h @ self.params[2 * k] + self.params[2 * k + 1]
        if k < self.n_layers - 1:
            h = np.maximum(h, 0.0)
        acts.append(h)
    return h, acts


def reference_backward(self, acts, grad_out):
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


def reference_adam_step(self, params, grads, ms, vs):
    """Adam.step's per-parameter loop; `ms` and `vs` are the per-parameter
    moments that were `self.m` and `self.v`."""
    self.t += 1
    c1 = 1.0 - BETA1 ** self.t
    c2 = 1.0 - BETA2 ** self.t
    for p, g, m, v in zip(params, grads, ms, vs):
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * g * g
        p -= self.lr * (m / c1) / (np.sqrt(v / c2) + EPS)


def reference_soft_update(target, online, coef):
    """target <- (1 - coef) * target + coef * online."""
    for pt, po in zip(target.params, online.params):
        pt *= 1.0 - coef
        pt += coef * po


def numeric_grad(f, net, h=1e-5):
    """Central finite differences of a scalar function of the net's weights."""
    flat = net.flat.copy()
    grad = np.zeros_like(flat)
    for i in range(flat.size):
        for sign in (1.0, -1.0):
            net.flat[:] = flat
            net.flat[i] += sign * h
            grad[i] += sign * f()
    net.flat[:] = flat
    return grad / (2 * h)


def flatten(grads):
    return np.concatenate([g.ravel() for g in grads])


class TestDenseNet:
    def test_forward_shapes_and_determinism(self):
        rng = np.random.default_rng(0)
        net = DenseNet([5, 8, 8, 3], rng)
        x = rng.standard_normal((7, 5))
        y1 = net.forward(x)
        y2 = net.forward(x)
        assert y1.shape == (7, 3)
        assert np.array_equal(y1, y2)

    def test_zero_weights_give_zero_output(self):
        net = DenseNet([4, 6, 2], np.random.default_rng(1))
        net.flat[:] = 0.0
        assert np.all(net.forward(np.ones((3, 4))) == 0.0)

    def test_backward_matches_finite_differences(self):
        # the core numerical-correctness gate: d(sum(c*y))/dw to 1e-4 relative
        rng = np.random.default_rng(2)
        for sizes in ([3, 4, 2], [5, 8, 8, 3], [2, 16, 1]):
            net = DenseNet(sizes, rng)
            x = rng.standard_normal((6, sizes[0]))
            c = rng.standard_normal((6, sizes[-1]))
            y, cache = net.forward_cache(x)
            an = net.backward(cache, c)
            fd = numeric_grad(lambda: float(np.sum(c * net.forward(x))), net)
            denom = np.maximum(np.abs(fd), np.maximum(np.abs(an), 1e-6))
            assert np.max(np.abs(fd - an) / denom) < 1e-4

    def test_input_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        net = DenseNet([4, 10, 2], rng)
        x = rng.standard_normal((3, 4))
        c = rng.standard_normal((3, 2))
        _, cache = net.forward_cache(x)
        gin = net.input_grad(cache, c)
        h = 1e-6
        for r in range(3):
            for j in range(4):
                up, dn = x.copy(), x.copy()
                up[r, j] += h
                dn[r, j] -= h
                fd = (np.sum(c * net.forward(up)) - np.sum(c * net.forward(dn))) / (2 * h)
                assert fd == pytest.approx(gin[r, j], rel=1e-4, abs=1e-7)

    @pytest.mark.parametrize("sizes", [[3, 2], [4, 10, 2], [23, 64, 64, 1],
                                       [11, 32, 16, 8, 12]])
    @pytest.mark.parametrize("batch", [1, 7, 256])
    def test_passes_match_the_list_form_reference(self, sizes, batch):
        rng = np.random.default_rng(len(sizes) * 1000 + batch)
        net = DenseNet(sizes, rng)
        x = rng.standard_normal((batch, sizes[0]))
        c = rng.standard_normal((batch, sizes[-1]))
        y, cache = net.forward_cache(x)
        ref_y, ref_cache = reference_forward_cache(net, x)
        assert np.array_equal(net.forward(x), reference_forward(net, x))
        assert np.array_equal(y, ref_y)
        for got, want in zip(cache, ref_cache):
            assert np.array_equal(got, want)
        grads, gin = reference_backward(net, ref_cache, c)
        c_before = c.copy()
        assert np.array_equal(net.backward(cache, c), flatten(grads))
        assert np.array_equal(net.input_grad(cache, c), gin)
        assert np.array_equal(c, c_before)  # the caller's gradient is kept

    def test_params_are_views_of_the_flat_buffer(self):
        net = DenseNet([3, 5, 2], np.random.default_rng(12))
        assert [p.shape for p in net.params] == param_shapes(net.sizes)
        assert all(np.shares_memory(p, net.flat) for p in net.params)
        net.flat[:] = np.arange(net.flat.size)
        assert np.array_equal(flatten(net.params), np.arange(net.flat.size))

    def test_clone_is_deep(self):
        net = DenseNet([3, 4, 1], np.random.default_rng(4))
        other = net.clone()
        other.params[0][0, 0] += 1.0
        assert net.params[0][0, 0] != other.params[0][0, 0]
        assert other.flat[0] == other.params[0][0, 0]

    def test_final_scale_shrinks_last_layer(self):
        rng = np.random.default_rng(5)
        a = DenseNet([3, 4, 2], np.random.default_rng(5))
        b = DenseNet([3, 4, 2], np.random.default_rng(5), final_weight_scale=0.01)
        assert np.allclose(b.params[-2], 0.01 * a.params[-2])
        assert np.allclose(b.params[0], a.params[0])


class TestAdam:
    def test_descends_a_quadratic(self):
        rng = np.random.default_rng(6)
        net = DenseNet([2, 1], rng)
        target = np.array([[1.5], [-0.5]])
        opt = Adam(net.flat.size, lr=0.05)
        x = np.eye(2)
        for _ in range(500):
            y, cache = net.forward_cache(x)
            opt.step(net.flat, net.backward(cache, 2 * (y - target) / 2))
        assert np.allclose(net.forward(x), target, atol=1e-3)

    def test_moments_shape_and_time(self):
        net = DenseNet([2, 3, 1], np.random.default_rng(7))
        opt = Adam(net.flat.size, lr=3e-4)
        opt.step(net.flat, np.ones_like(net.flat))
        assert opt.t == 1
        assert opt.m.shape == opt.v.shape == net.flat.shape
        assert [m.shape for m in net.views(opt.m)] == [p.shape for p in net.params]

    def test_matches_the_per_parameter_reference(self):
        rng = np.random.default_rng(13)
        net = DenseNet([6, 9, 4, 2], rng)
        twin = net.clone()
        opt, ref = Adam(net.flat.size, lr=1e-2), Adam(net.flat.size, lr=1e-2)
        for _ in range(20):
            g = rng.standard_normal(net.flat.size) * 10.0 ** rng.uniform(-6, 2)
            opt.step(net.flat, g)
            reference_adam_step(ref, twin.params, twin.views(g),
                                twin.views(ref.m), twin.views(ref.v))
        assert opt.t == ref.t == 20
        for got, want in ((net.flat, twin.flat), (opt.m, ref.m), (opt.v, ref.v)):
            assert np.array_equal(got, want)


class TestSoftUpdate:
    def test_full_copy_with_coefficient_one(self):
        a = DenseNet([3, 4, 2], np.random.default_rng(8))
        b = DenseNet([3, 4, 2], np.random.default_rng(9))
        soft_update(a, b, 1.0)
        assert all(np.array_equal(x, y) for x, y in zip(a.params, b.params))

    def test_geometric_convergence_to_frozen_online(self):
        # ||target - online|| shrinks by exactly (1 - coef) per update
        target = DenseNet([4, 6, 2], np.random.default_rng(10))
        online = DenseNet([4, 6, 2], np.random.default_rng(11))
        coef = 0.005
        dist = [np.linalg.norm(target.flat - online.flat)]
        for _ in range(50):
            soft_update(target, online, coef)
            dist.append(np.linalg.norm(target.flat - online.flat))
        ratios = np.array(dist[1:]) / np.array(dist[:-1])
        assert np.allclose(ratios, 1.0 - coef, rtol=1e-9)

    def test_matches_the_per_parameter_reference(self):
        target = DenseNet([5, 7, 3], np.random.default_rng(14))
        online = DenseNet([5, 7, 3], np.random.default_rng(15))
        twin = target.clone()
        for coef in (0.005, 0.3, 1.0, 0.005):
            soft_update(target, online, coef)
            reference_soft_update(twin, online, coef)
            assert np.array_equal(target.flat, twin.flat)
