"""Property tests: the flat-vector training step against the per-array
step it replaced.

The oracle below is the earlier training loop: every forward and
backward contraction through ``einsum`` with optimization disabled,
derivatives recomputed from the pre-activations, and one Adam update
per weight and bias array.  ``train`` now keeps the parameters in one
flat vector with one Adam update per step, takes the two backward
contractions through BLAS ``matmul`` and reads the tanh and sigmoid
derivatives off the stored activations.  The derivatives are the same
bits, but BLAS sums the batch in another order, and ``train``'s Adam
keeps its moments divided by 1 - beta1 and 1 - beta2 and folds the bias
corrections into one scalar and a scaled eps, which rounds differently
from the oracle's textbook update.  So the two agree:

* on every epoch of the loss trace within 1e-12 relative;
* on every weight and bias array within 1e-12 of that array's largest
  magnitude in the oracle.

The scaled-moment step alone is checked against the textbook update
over gradients from 1e-150 to 1e150, where both stay finite.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from chfkit.cli import DEFAULT_HIDDEN
from chfkit.mlp import ACTIVATIONS, Mlp, TrainConfig, _adam_step, init_mlp, train

REL_TOL = 1e-12

# ---------------------------------------------------------------------------
# Oracle: per-array einsum backward and per-array Adam
# ---------------------------------------------------------------------------


def _sigmoid(z):
    return ACTIVATIONS["sigmoid"][0](z)


def _elu_prime(z):
    out = np.ones_like(z)
    neg = z <= 0.0
    out[neg] = np.exp(z[neg])
    return out


# derivatives of the pre-activation alone, as the oracle step used them
REF_DERIVATIVES = {
    "identity": lambda z: np.ones_like(z),
    "relu": lambda z: (z > 0.0).astype(z.dtype),
    "elu": _elu_prime,
    "softplus": _sigmoid,
    "sigmoid": lambda z: _sigmoid(z) * (1.0 - _sigmoid(z)),
    "tanh": lambda z: 1.0 - np.tanh(z) ** 2,
}


def _ref_loss_and_grads(layers, z, y):
    n = z.shape[0]
    pre, post = [], [z]
    a = z
    for w, b, act in layers:
        s = np.einsum("ni,oi->no", a, w, optimize=False) + b
        pre.append(s)
        a = ACTIVATIONS[act][0](s)
        post.append(a)
    err = post[-1][:, 0] - y
    loss = float(np.mean(err**2))
    grads = [None] * len(layers)
    delta = (2.0 / n) * err.reshape(-1, 1)
    for k in range(len(layers) - 1, -1, -1):
        w, _, act = layers[k]
        delta = delta * REF_DERIVATIVES[act](pre[k])
        grads[k] = (np.einsum("no,ni->oi", delta, post[k], optimize=False),
                    delta.sum(axis=0))
        if k > 0:
            delta = np.einsum("no,oi->ni", delta, w, optimize=False)
    return loss, grads


def ref_train(m: Mlp, x, y, cfg: TrainConfig):
    """The per-array training loop; returns [(weights, bias)] and the trace."""
    layers = [(l.weights.copy(), l.bias.copy(), l.activation) for l in m.layers]
    rng = np.random.default_rng(cfg.seed)
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    adam = [(np.zeros_like(w), np.zeros_like(w), np.zeros_like(b), np.zeros_like(b))
            for w, b, _ in layers]
    step = 0
    n = x.shape[0]
    trace = []
    for epoch in range(cfg.epochs):
        lr = cfg.lr0 * cfg.decay_rate**epoch
        order = rng.permutation(n)
        batch_losses = []
        for b0 in range(0, n, cfg.batch_size):
            idx = order[b0 : b0 + cfg.batch_size]
            loss, grads = _ref_loss_and_grads(layers, x[idx], y[idx])
            assert math.isfinite(loss)
            batch_losses.append(loss)
            step += 1
            c1 = 1.0 - beta1**step
            c2 = 1.0 - beta2**step
            for (w, b, _), (mw, vw, mb, vb), (gw, gb) in zip(layers, adam, grads):
                mw *= beta1
                mw += (1.0 - beta1) * gw
                vw *= beta2
                vw += (1.0 - beta2) * gw**2
                w -= lr * (mw / c1) / (np.sqrt(vw / c2) + eps)
                mb *= beta1
                mb += (1.0 - beta1) * gb
                vb *= beta2
                vb += (1.0 - beta2) * gb**2
                b -= lr * (mb / c1) / (np.sqrt(vb / c2) + eps)
        trace.append(float(np.mean(batch_losses)))
    return [(w, b) for w, b, _ in layers], trace


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------


@st.composite
def training_cases(draw):
    depth = draw(st.integers(0, 4))
    widths = tuple(draw(st.lists(st.integers(1, 70), min_size=depth, max_size=depth)))
    act = draw(st.sampled_from(sorted(ACTIVATIONS)))
    batch = draw(st.integers(1, 64))
    # full batches, then a remainder batch unless it is drawn empty
    n = batch * draw(st.integers(0, 3)) + draw(st.integers(0, batch - 1))
    n = max(n, 1)
    n_in = draw(st.integers(1, 6))
    epochs = draw(st.integers(1, 3))
    lr0 = draw(st.sampled_from((1e-4, 1e-3, 1e-2)))
    seed = draw(st.integers(0, 2**16))
    return widths, act, batch, n, n_in, epochs, lr0, seed


def _check_against_oracle(widths, act, batch, n, n_in, epochs, lr0, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, n_in))
    y = np.tanh(x @ rng.standard_normal(n_in)) + 0.1 * rng.standard_normal(n)
    net = init_mlp(n_in, widths, act, seed=seed)
    cfg = TrainConfig(epochs=epochs, batch_size=batch, lr0=lr0, decay_rate=0.97,
                      seed=seed + 1)

    fitted, trace = train(net, x, y, cfg)
    want_layers, want_trace = ref_train(net, x, y, cfg)

    assert len(trace) == len(want_trace) == epochs
    for got, want in zip(trace, want_trace):
        assert abs(got - want) <= REL_TOL * abs(want), (got, want)
    for layer, (w, b) in zip(fitted.layers, want_layers):
        for got, want in ((layer.weights, w), (layer.bias, b)):
            assert got.shape == want.shape
            scale = np.max(np.abs(want))
            assert np.max(np.abs(got - want)) <= REL_TOL * scale, (act, widths)


@settings(max_examples=200)
@given(training_cases())
def test_train_matches_per_array_oracle(case):
    _check_against_oracle(*case)


def test_train_matches_per_array_oracle_at_default_architecture():
    # the architecture ``train`` runs by default: 7 tanh layers, batch 32,
    # and 1,000 rows, so each epoch ends on a batch of 8
    widths = tuple(int(w) for w in DEFAULT_HIDDEN.split(","))
    assert len(widths) == 7
    _check_against_oracle(widths, "tanh", 32, 1000, 5, 2, 1e-3, 7)


def _textbook_adam(grads, lrs):
    """Theta from 0 after each step of Adam as Kingma and Ba write it."""
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    theta, m, v, out = np.zeros_like(grads[0]), 0.0, 0.0, []
    for step, (g, lr) in enumerate(zip(grads, lrs), 1):
        m = beta1 * m + (1.0 - beta1) * g
        v = beta2 * v + (1.0 - beta2) * g**2
        theta = theta - lr * (m / (1.0 - beta1**step)) / (np.sqrt(v / (1.0 - beta2**step)) + eps)
        out.append(theta)
    return out


@settings(max_examples=300)
@given(st.integers(1, 12), st.integers(1, 8), st.data())
def test_adam_step_on_scaled_moments_matches_textbook(steps, width, data):
    # gradients of either sign from 1e-150 to 1e150, where the textbook
    # form stays finite; the tolerance scales with the theta the same
    # gradients give without signs, which bounds what cancellation in the
    # first moment and in theta can leave
    exps = data.draw(st.lists(st.floats(-150.0, 150.0), min_size=steps * width,
                              max_size=steps * width))
    signs = data.draw(st.lists(st.sampled_from((-1.0, 1.0)), min_size=steps * width,
                               max_size=steps * width))
    grads = list((np.array(signs) * 10.0 ** np.array(exps)).reshape(steps, width))
    lrs = [data.draw(st.sampled_from((1e-4, 1e-3, 1e-2))) for _ in range(steps)]
    want = _textbook_adam(grads, lrs)
    scale = _textbook_adam([np.abs(g) for g in grads], lrs)
    theta, mom, vel, tmp = (np.zeros(width) for _ in range(4))
    for step, (g, lr) in enumerate(zip(grads, lrs), 1):
        _adam_step(theta, g, mom, vel, tmp, step, lr)
        assert np.isfinite(want[step - 1]).all()
        assert np.all(np.abs(theta - want[step - 1]) <= REL_TOL * np.abs(scale[step - 1]))


@settings(max_examples=20)
@given(st.integers(0, 3), st.sampled_from(sorted(ACTIVATIONS)), st.integers(0, 2**16))
def test_trained_model_shares_no_memory_with_input(depth, act, seed):
    net = init_mlp(3, (4,) * depth, act, seed=seed)
    before = [(l.weights.copy(), l.bias.copy()) for l in net.layers]
    rng = np.random.default_rng(seed)
    x, y = rng.standard_normal((9, 3)), rng.standard_normal(9)
    fitted, _ = train(net, x, y, TrainConfig(epochs=2, batch_size=4, seed=seed))

    mine = [a for l in fitted.layers for a in (l.weights, l.bias)]
    mine += [fitted.input_scaler.mean, fitted.input_scaler.std,
             fitted.output_scaler.mean, fitted.output_scaler.std]
    theirs = [a for l in net.layers for a in (l.weights, l.bias)]
    theirs += [net.input_scaler.mean, net.input_scaler.std,
               net.output_scaler.mean, net.output_scaler.std]
    for a in mine:
        assert not any(np.shares_memory(a, b) for b in theirs)
    # each returned array owns its data, so no layer aliases another
    for layer in fitted.layers:
        assert layer.weights.flags.owndata and layer.bias.flags.owndata
    for layer, (w, b) in zip(net.layers, before):
        assert np.array_equal(layer.weights, w) and np.array_equal(layer.bias, b)


@given(st.lists(st.floats(-40.0, 40.0), min_size=1, max_size=50))
def test_derivative_from_activation_is_the_recomputed_derivative(values):
    z = np.array(values)
    for name, (f, df) in ACTIVATIONS.items():
        assert np.array_equal(df(z, f(z)), REF_DERIVATIVES[name](z)), name
