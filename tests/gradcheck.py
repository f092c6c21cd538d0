"""Finite-difference verification of the MLP's analytic gradients.

A test helper: criterion 4 of tests/test_acceptance.py and
tests/test_mlp.py check ``chfkit.mlp``'s backpropagation with it.
"""

import numpy as np

from chfkit.mlp import DenseLayer, Mlp, _forward_std, _loss_and_grads


def gradient_check(
    m: Mlp, x_std: np.ndarray, y_std: np.ndarray, step: float = 1e-5
) -> float:
    """Verify analytic gradients against central finite differences.

    Perturbs every weight and bias by +-``step`` on the standardized
    scale and compares the resulting difference quotients with the
    backpropagated gradients.  Returns the maximum absolute discrepancy
    normalized by the largest gradient magnitude, i.e.
    ``max|g_a - g_fd| / max(|g_a|_inf, |g_fd|_inf)``.
    """
    x_std = np.atleast_2d(np.asarray(x_std, dtype=np.float64))
    y_std = np.asarray(y_std, dtype=np.float64).reshape(-1)
    layers = [DenseLayer(l.weights.copy(), l.bias.copy(), l.activation) for l in m.layers]
    grads = [(np.empty_like(l.weights), np.empty_like(l.bias)) for l in layers]
    _loss_and_grads(layers, x_std, y_std, grads)

    def loss_only() -> float:
        out = _forward_std(layers, x_std)
        return float(np.mean((out - y_std) ** 2))

    worst = 0.0
    scale = 0.0
    for layer, (gw, gb) in zip(layers, grads):
        for arr, g in ((layer.weights, gw), (layer.bias, gb)):
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                ix = it.multi_index
                keep = arr[ix]
                arr[ix] = keep + step
                up = loss_only()
                arr[ix] = keep - step
                down = loss_only()
                arr[ix] = keep
                fd = (up - down) / (2.0 * step)
                worst = max(worst, abs(g[ix] - fd))
                scale = max(scale, abs(g[ix]), abs(fd))
    return worst / max(scale, 1e-300)
