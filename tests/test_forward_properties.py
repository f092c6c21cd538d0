"""Property tests: the feature-major inference affine.

``forward_batch`` keeps activations as (features, n), pads n with zeros
to a multiple of 8 and takes each layer through ``einsum("oi,in->on")``,
so every output sums its inputs in one fixed order whatever the batch
size.  Three ways of evaluating the same rows must give the same bits:

* one ``forward_batch`` over all rows;
* the concatenated results of ``forward_batch`` over a random chunking;
* one ``forward`` call per row.

The oracle is the row-major affine it replaced,
``einsum("ni,oi->no")`` with optimization disabled.  It sums in another
order, so the two agree within 1e-12 relative to the largest output
magnitude of the batch.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from chfkit.mlp import ACTIVATIONS, DenseLayer, Mlp, Scaler, forward, forward_batch, init_mlp

REL_TOL = 1e-12


def oracle_forward_batch(m: Mlp, x: np.ndarray) -> np.ndarray:
    a = m.input_scaler.transform(x)
    for layer in m.layers:
        s = np.einsum("ni,oi->no", a, layer.weights, optimize=False) + layer.bias
        a = ACTIVATIONS[layer.activation][0](s)
    return a[:, 0] * m.output_scaler.std[0] + m.output_scaler.mean[0]


@st.composite
def networks_and_rows(draw):
    depth = draw(st.integers(0, 4))
    widths = tuple(draw(st.lists(st.integers(1, 256), min_size=depth, max_size=depth)))
    act = draw(st.sampled_from(sorted(ACTIVATIONS)))
    n_in = draw(st.integers(1, 8))
    n = draw(st.integers(1, 400))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    net = init_mlp(n_in, widths, act, seed=seed,
                   input_scaler=Scaler(rng.normal(size=n_in), rng.uniform(0.5, 2.0, n_in)),
                   output_scaler=Scaler(rng.normal(size=1), rng.uniform(0.5, 2.0, 1)))
    # nonzero biases, so the bias add is exercised too
    net.layers = [DenseLayer(l.weights, 0.3 * rng.standard_normal(l.out_dim), l.activation)
                  for l in net.layers]
    x = 2.0 * rng.standard_normal((n, n_in))
    cuts = sorted(draw(st.lists(st.integers(1, max(n - 1, 1)), max_size=6, unique=True)))
    return net, x, [c for c in cuts if c < n]


@settings(max_examples=150, deadline=None)
@given(networks_and_rows())
def test_batch_chunks_and_rows_give_the_same_bits(case):
    net, x, cuts = case
    whole = forward_batch(net, x)
    chunked = np.concatenate([forward_batch(net, part) for part in np.split(x, cuts)])
    rows = np.array([forward(net, row) for row in x])
    assert whole.shape == (x.shape[0],)
    assert np.array_equal(whole, chunked, equal_nan=True)
    assert np.array_equal(whole, rows, equal_nan=True)


@settings(max_examples=150, deadline=None)
@given(networks_and_rows())
def test_batch_matches_row_major_oracle(case):
    net, x, _ = case
    got, want = forward_batch(net, x), oracle_forward_batch(net, x)
    scale = np.max(np.abs(want))
    assert np.max(np.abs(got - want)) <= REL_TOL * scale, (got, want)
