"""Tests for the MLP engine: activations, scalers, forward passes,
Adam/MSE training, gradient verification, the successive-halving tuner
and the portable model file format."""

import math

import numpy as np
import pytest

from chfkit.mlp import (
    ACTIVATIONS,
    CandidateConfig,
    DenseLayer,
    Mlp,
    ModelFormatError,
    ModelValidationError,
    Scaler,
    SearchSpace,
    TrainConfig,
    TrainingDivergedError,
    candidate_seed,
    forward,
    forward_batch,
    init_mlp,
    load_model,
    sample_configs,
    save_model,
    train,
    tune,
)
from chfkit.mlp import _fit_and_score  # noqa: F401  (oracle replication)

from gradcheck import gradient_check

# Hand-computed 2-2-1 tanh network output (plain-python arithmetic,
# see test_forward_hand_computed_2_2_1 for the full chain)
HAND_221 = -2.8299875074661065

REFERENCE_HIDDEN = (44, 64, 41, 26, 67, 10, 17)


def _hand_net() -> Mlp:
    return Mlp(
        layers=[
            DenseLayer(np.array([[0.5, -0.25], [0.1, 0.8]]), np.array([0.05, -0.10]), "tanh"),
            DenseLayer(np.array([[1.5, -2.0]]), np.array([0.25]), "identity"),
        ],
        input_scaler=Scaler(np.array([1.0, -2.0]), np.array([2.0, 4.0])),
        output_scaler=Scaler(np.array([3.0]), np.array([10.0])),
    )


# ---------------------------------------------------------------------------
# Activations
# ---------------------------------------------------------------------------

def test_activation_values():
    z = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
    f = {name: ACTIVATIONS[name][0] for name in ACTIVATIONS}
    assert np.array_equal(f["identity"](z), z)
    assert np.array_equal(f["relu"](z), np.array([0.0, 0.0, 0.0, 0.5, 2.0]))
    for zi, got in zip(z, f["elu"](z)):
        want = zi if zi > 0 else math.exp(zi) - 1.0
        assert got == pytest.approx(want, rel=1e-15)
    for zi, got in zip(z, f["softplus"](z)):
        assert got == pytest.approx(math.log(1.0 + math.exp(zi)), rel=1e-12)
    for zi, got in zip(z, f["sigmoid"](z)):
        assert got == pytest.approx(1.0 / (1.0 + math.exp(-zi)), rel=1e-12)
    for zi, got in zip(z, f["tanh"](z)):
        assert got == pytest.approx(math.tanh(zi), rel=1e-15)


def test_activation_derivatives_match_finite_differences():
    rng = np.random.default_rng(101)
    z = rng.uniform(-3.0, 3.0, size=200)
    z = z[np.abs(z) > 1e-3]  # keep away from the relu kink
    h = 1e-6
    for name, (f, df) in ACTIVATIONS.items():
        fd = (f(z + h) - f(z - h)) / (2.0 * h)
        assert np.max(np.abs(df(z, f(z)) - fd)) < 5e-9, name


def test_softplus_sigmoid_overflow_safe():
    big = np.array([-800.0, 800.0])
    sp = ACTIVATIONS["softplus"][0](big)
    sg = ACTIVATIONS["sigmoid"][0](big)
    assert np.all(np.isfinite(sp))
    assert sp[0] == pytest.approx(0.0, abs=1e-300)
    assert sp[1] == pytest.approx(800.0, rel=1e-12)
    assert sg[0] == pytest.approx(0.0, abs=1e-300)
    assert sg[1] == 1.0


# ---------------------------------------------------------------------------
# Scaler
# ---------------------------------------------------------------------------

def test_scaler_fit_population_statistics():
    sc = Scaler.fit(np.array([[1.0], [2.0], [3.0], [4.0]]))
    assert sc.mean[0] == pytest.approx(2.5, rel=1e-15)
    # population (1/N) convention: var = (2.25+0.25+0.25+2.25)/4
    assert sc.std[0] == pytest.approx(math.sqrt(1.25), rel=1e-15)


def test_scaler_roundtrip():
    rng = np.random.default_rng(7)
    x = rng.normal(3.0, 10.0, size=(50, 4))
    sc = Scaler.fit(x)
    z = sc.transform(x)
    assert np.abs(z.mean(axis=0)).max() < 1e-12
    assert np.abs(z.std(axis=0) - 1.0).max() < 1e-12
    back = sc.inverse_transform(z)
    assert np.max(np.abs(back - x) / np.abs(x).max()) < 1e-14


def test_scaler_constant_column_warns_and_keeps_unit_std():
    x = np.array([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]])
    with pytest.warns(UserWarning, match="constant feature"):
        sc = Scaler.fit(x)
    assert sc.std[1] == 1.0
    assert sc.mean[1] == 5.0


def test_scaler_constant_column_found_when_std_rounds_above_zero():
    # three rows of 0.1 have a computed std of 1.4e-17, not 0
    x = np.array([[1.0, 0.1], [2.0, 0.1], [3.0, 0.1]])
    assert x.std(axis=0)[1] > 0.0
    assert Scaler.constant_columns(x).tolist() == [False, True]
    with pytest.warns(UserWarning, match=r"constant feature column\(s\) \[1\]"):
        sc = Scaler.fit(x)
    assert sc.std[1] == 1.0
    # with that std as divisor every row would read -1.0
    assert np.max(np.abs(sc.transform(x)[:, 1])) < 1e-16


def test_scaler_validation():
    with pytest.raises(ValueError, match="matching 1-D"):
        Scaler(np.zeros(3), np.ones(2))
    with pytest.raises(ValueError, match="positive"):
        Scaler(np.zeros(2), np.array([1.0, 0.0]))


@pytest.mark.parametrize("mean,std", [([0.0, 0.0], [1.0, np.nan]), ([np.inf, 0.0], [1.0, 1.0]),
                                      ([0.0, np.nan], [1.0, np.inf])])
def test_scaler_rejects_non_finite_entries(mean, std):
    # NaN slips past a `std <= 0` test; the transform would give NaN
    with pytest.raises(ModelValidationError, match="must be finite"):
        Scaler(np.array(mean), np.array(std))


# ---------------------------------------------------------------------------
# Construction and validation
# ---------------------------------------------------------------------------

def test_init_glorot_bounds_and_zero_bias():
    m = init_mlp(5, REFERENCE_HIDDEN, "elu", seed=3)
    widths = [5, *REFERENCE_HIDDEN, 1]
    for layer, fan_in, fan_out in zip(m.layers, widths[:-1], widths[1:]):
        assert layer.weights.shape == (fan_out, fan_in)
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        assert np.max(np.abs(layer.weights)) <= limit
        assert np.all(layer.bias == 0.0)
    assert [l.activation for l in m.layers] == ["elu"] * 7 + ["identity"]

    same = init_mlp(5, REFERENCE_HIDDEN, "elu", seed=3)
    assert all(np.array_equal(a.weights, b.weights) for a, b in zip(m.layers, same.layers))
    other = init_mlp(5, REFERENCE_HIDDEN, "elu", seed=4)
    assert not np.array_equal(m.layers[0].weights, other.layers[0].weights)


def test_mlp_validation_errors():
    w = lambda o, i: np.zeros((o, i))
    ok = [DenseLayer(w(3, 2), np.zeros(3), "tanh"), DenseLayer(w(1, 3), np.zeros(1), "identity")]
    Mlp(list(ok), Scaler.identity(2), Scaler.identity(1))  # sanity

    with pytest.raises(ModelValidationError, match="layer 1"):
        Mlp([DenseLayer(w(3, 2), np.zeros(3), "tanh"),
             DenseLayer(w(1, 4), np.zeros(1), "identity")],
            Scaler.identity(2), Scaler.identity(1))
    with pytest.raises(ModelValidationError, match="single output"):
        Mlp([DenseLayer(w(2, 2), np.zeros(2), "identity")],
            Scaler.identity(2), Scaler.identity(1))
    with pytest.raises(ModelValidationError, match="identity"):
        Mlp([DenseLayer(w(1, 2), np.zeros(1), "tanh")],
            Scaler.identity(2), Scaler.identity(1))
    with pytest.raises(ModelValidationError, match="input scaler"):
        Mlp(list(ok), Scaler.identity(5), Scaler.identity(1))
    with pytest.raises(ModelValidationError, match="inconsistent"):
        Mlp(list(ok), Scaler.identity(2), Scaler.identity(1), mode="residual")
    with pytest.raises(ModelValidationError, match="inconsistent"):
        Mlp(list(ok), Scaler.identity(2), Scaler.identity(1), base_model="biasi")
    with pytest.raises(ValueError, match="unknown activation"):
        DenseLayer(w(2, 2), np.zeros(2), "swish")
    with pytest.raises(ValueError, match="bias length"):
        DenseLayer(w(2, 2), np.zeros(3), "tanh")
    with pytest.raises(ModelValidationError, match="feature names"):
        Mlp(list(ok), Scaler.identity(2), Scaler.identity(1), feature_names=("a",))


# ---------------------------------------------------------------------------
# Forward passes
# ---------------------------------------------------------------------------

def test_forward_hand_computed_2_2_1():
    # full chain in plain python: standardize, two tanh units, linear
    # output, de-standardize
    x = [2.0, 1.0]
    z = [(2.0 - 1.0) / 2.0, (1.0 - (-2.0)) / 4.0]
    h1 = math.tanh(0.5 * z[0] - 0.25 * z[1] + 0.05)
    h2 = math.tanh(0.1 * z[0] + 0.8 * z[1] - 0.10)
    y = (1.5 * h1 - 2.0 * h2 + 0.25) * 10.0 + 3.0
    assert y == pytest.approx(HAND_221, rel=1e-12)

    got = forward(_hand_net(), x)
    assert got == pytest.approx(HAND_221, rel=1e-9)
    assert got == pytest.approx(y, rel=1e-12)


def test_forward_batch_matches_single_bitwise():
    # the affine step must not depend on batch size, so a batched pass
    # equals a loop of single passes exactly
    m = init_mlp(5, (44, 64, 41, 26, 67, 10, 17), "elu", seed=3)
    rng = np.random.default_rng(11)
    x = rng.normal(size=(64, 5)) * [0.01, 5.0, 1e7, 3000.0, 1e5]
    batch = forward_batch(m, x)
    single = np.array([forward(m, row) for row in x])
    assert np.array_equal(batch, single)
    # and prefixes of a batch agree with the full batch
    assert np.array_equal(forward_batch(m, x[:7]), batch[:7])


def test_forward_batch_shape_validation():
    m = init_mlp(3, (4,), "tanh", seed=0)
    with pytest.raises(ValueError, match=r"\(n, 3\)"):
        forward_batch(m, np.zeros((5, 2)))


def test_forward_applies_scalers():
    # identity network: forward must reduce to the scaler algebra
    m = Mlp(
        layers=[DenseLayer(np.array([[1.0]]), np.array([0.0]), "identity")],
        input_scaler=Scaler(np.array([10.0]), np.array([4.0])),
        output_scaler=Scaler(np.array([100.0]), np.array([50.0])),
    )
    # z = (x-10)/4; y = z*50 + 100
    assert forward(m, [18.0]) == pytest.approx(200.0, rel=1e-15)


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

def test_adam_first_step_closed_form():
    # net y = w*x + b with x=1, target 0, w0=1, b0=0.5:
    # dL/dw = dL/db = 2(w+b) = 3; the first bias-corrected Adam step is
    # exactly -lr * g / (|g| + eps)
    m = Mlp(
        layers=[DenseLayer(np.array([[1.0]]), np.array([0.5]), "identity")],
        input_scaler=Scaler.identity(1),
        output_scaler=Scaler.identity(1),
    )
    cfg = TrainConfig(epochs=1, batch_size=1, lr0=0.01, decay_rate=1.0, seed=0)
    fitted, trace = train(m, np.array([[1.0]]), np.array([0.0]), cfg)
    step = 0.01 * 3.0 / (3.0 + 1e-8)
    assert fitted.layers[0].weights[0, 0] == pytest.approx(1.0 - step, rel=1e-12)
    assert fitted.layers[0].bias[0] == pytest.approx(0.5 - step, rel=1e-12)
    assert trace == [pytest.approx(2.25, rel=1e-15)]


def test_train_linear_target_frozen_trace():
    rng = np.random.default_rng(42)
    x = rng.uniform(-1.0, 1.0, size=(64, 1))
    y = 2.0 * x[:, 0]
    m = init_mlp(1, [], "identity", seed=7)
    cfg = TrainConfig(epochs=10, batch_size=8, lr0=0.02, decay_rate=0.99, seed=3)
    _, trace = train(m, x, y, cfg)
    assert len(trace) == 10
    assert all(a > b for a, b in zip(trace, trace[1:]))
    assert trace[0] == pytest.approx(0.6953547788784772, rel=1e-12)
    assert trace[-1] == pytest.approx(0.05666214232076022, rel=1e-12)


def test_train_does_not_mutate_input_model():
    m = init_mlp(2, (4,), "tanh", seed=1)
    before = [l.weights.copy() for l in m.layers]
    rng = np.random.default_rng(0)
    x = rng.normal(size=(20, 2))
    y = x[:, 0] - x[:, 1]
    train(m, x, y, TrainConfig(epochs=3, batch_size=5, seed=0))
    assert all(np.array_equal(b, l.weights) for b, l in zip(before, m.layers))


def test_train_deterministic_given_seed():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(30, 2))
    y = np.sin(x[:, 0])
    m = init_mlp(2, (6,), "tanh", seed=5)
    cfg = TrainConfig(epochs=5, batch_size=8, lr0=1e-3, seed=9)
    a, ta = train(m, x, y, cfg)
    b, tb = train(m, x, y, cfg)
    assert ta == tb
    assert all(np.array_equal(p.weights, q.weights) for p, q in zip(a.layers, b.layers))
    _, tc = train(m, x, y, TrainConfig(epochs=5, batch_size=8, lr0=1e-3, seed=10))
    assert ta != tc


def test_train_handles_remainder_batch():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(10, 1))
    y = 3.0 * x[:, 0]
    m = init_mlp(1, [], "identity", seed=0)
    fitted, trace = train(m, x, y, TrainConfig(epochs=40, batch_size=4, lr0=0.05, seed=1))
    assert len(trace) == 40
    assert trace[-1] < 0.05 * trace[0]
    assert fitted.layers[0].weights[0, 0] == pytest.approx(3.0, abs=0.2)


def test_train_divergence_reports_epoch_batch_lr():
    m = init_mlp(1, (1, 1, 1), "identity", seed=0)
    x = np.array([[1.0], [2.0], [-1.0], [0.5]])
    y = np.array([1.0, 2.0, -1.0, 0.5])
    cfg = TrainConfig(epochs=5, batch_size=2, lr0=1e40, decay_rate=1.0, seed=0)
    with np.errstate(all="ignore"):
        with pytest.raises(TrainingDivergedError, match="epoch 0, batch 1"):
            try:
                train(m, x, y, cfg)
            except TrainingDivergedError as e:
                assert (e.epoch, e.batch) == (0, 1)
                assert e.lr == 1e40
                raise


def test_train_config_validation():
    with pytest.raises(ValueError, match="epochs"):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError, match="batch_size"):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError, match="lr0"):
        TrainConfig(lr0=-1.0)
    with pytest.raises(ValueError, match="decay_rate"):
        TrainConfig(decay_rate=1.5)


# ---------------------------------------------------------------------------
# Gradient verification
# ---------------------------------------------------------------------------

def test_gradient_check_linear_closed_form():
    m = init_mlp(3, [], "identity", seed=1)
    err = gradient_check(m, np.array([[0.3, -0.7, 1.1]]), np.array([0.4]))
    assert err < 1e-10


@pytest.mark.parametrize("act", ["tanh", "elu", "softplus", "sigmoid"])
def test_gradient_check_smooth_activations(act):
    m = init_mlp(3, (8, 8), act, seed=2)
    rng = np.random.default_rng(17)
    x = rng.normal(size=(4, 3))
    y = rng.normal(size=4)
    assert gradient_check(m, x, y) < 1e-8


def test_gradient_check_relu_away_from_kinks():
    m = init_mlp(3, (6, 6), "relu", seed=4)
    for layer in m.layers[:-1]:
        layer.bias += 1.5  # push pre-activations away from zero
    err = gradient_check(m, np.array([[0.3, -0.7, 1.1]]), np.array([0.4]))
    assert err < 1e-6


def test_gradient_check_reference_architecture():
    m = init_mlp(5, REFERENCE_HIDDEN, "elu", seed=3)
    rng = np.random.default_rng(9)
    err = gradient_check(m, rng.normal(size=(1, 5)), np.array([0.2]))
    assert err < 1e-5


# ---------------------------------------------------------------------------
# Hyperparameter search
# ---------------------------------------------------------------------------

def _toy_quadratic(seed=5, n=200):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, size=(n, 2))
    y = x[:, 0] ** 2 + 0.5 * x[:, 1] ** 2 - 0.25 * x[:, 0] * x[:, 1]
    sc = Scaler.fit(y.reshape(-1, 1))
    return x, sc.transform(y.reshape(-1, 1))[:, 0]


TOY_SPACE = SearchSpace(
    depths=(1, 2), width_range=(4, 12), batch_sizes=(16, 32),
    lr_range=(1e-3, 1e-2), activations=("tanh", "elu"),
)


def test_sample_configs_respect_ranges():
    space = SearchSpace()
    configs = sample_configs(space, 200, seed=0)
    assert len(configs) == 200
    for c in configs:
        assert len(c.hidden_widths) in space.depths
        assert all(space.width_range[0] <= w <= space.width_range[1] for w in c.hidden_widths)
        assert c.activation in space.activations
        assert c.batch_size in space.batch_sizes
        assert space.lr_range[0] <= c.lr0 <= space.lr_range[1]
    # log-uniform sampling puts mass in every decade
    lrs = np.array([c.lr0 for c in configs])
    assert np.sum(lrs < 1e-3) > 40
    assert np.sum(lrs > 1e-3) > 40
    assert sample_configs(space, 200, seed=0) == configs
    assert sample_configs(space, 200, seed=1) != configs


def test_tune_single_config_space_returns_it():
    x, y = _toy_quadratic()
    space = SearchSpace(depths=(2,), width_range=(6, 6), batch_sizes=(16,),
                        lr_range=(3e-3, 3e-3), activations=("tanh",))
    res = tune(space, x, y, budget=100, n_configs=1, rung0_epochs=10, seed=0)
    assert res.candidate.hidden_widths == (6, 6)
    assert res.candidate.activation == "tanh"
    assert res.candidate.batch_size == 16
    assert res.candidate.lr0 == pytest.approx(3e-3, rel=1e-12)


def test_tune_budget_too_small_is_config_error():
    x, y = _toy_quadratic()
    with pytest.raises(ValueError, match="budget"):
        tune(TOY_SPACE, x, y, budget=100, n_configs=16, rung0_epochs=10, seed=0)


def test_tune_dominant_config_wins_every_rung():
    # with seed 1 on this data, candidate 1 has strictly lower
    # validation loss than candidate 0 at both completed rungs
    x, y = _toy_quadratic()
    seed = 1
    res = tune(TOY_SPACE, x, y, budget=10_000, n_configs=2, rung0_epochs=10,
               seed=seed)
    cands = sample_configs(TOY_SPACE, 2, seed)
    n_val = max(1, int(x.shape[0] * 0.2))
    order = np.random.default_rng(seed).permutation(x.shape[0])
    vi, fi = order[:n_val], order[n_val:]
    per_rung = []
    for epochs in (10, 30):
        per_rung.append([
            _fit_and_score(c, candidate_seed(seed, i), epochs, 0.99,
                           x[fi], y[fi], x[vi], y[vi])
            for i, c in enumerate(cands)
        ])
    assert per_rung[0][1] < per_rung[0][0]
    assert per_rung[1][1] < per_rung[1][0]
    assert res.candidate == cands[1]
    assert [(e, len(s)) for e, s in res.rungs] == [(10, 2), (30, 1)]


def test_tune_sixteen_configs_matches_exhaustive_oracle():
    # successive halving over 16 sampled candidates must land on the
    # same winner as training all 16 from scratch at the deepest rung
    # and picking the best validation score
    x, y = _toy_quadratic()
    seed = 3
    res = tune(TOY_SPACE, x, y, budget=10_000, n_configs=16, rung0_epochs=10,
               seed=seed)
    assert [(e, len(s)) for e, s in res.rungs] == [(10, 16), (30, 6), (90, 2), (270, 1)]
    assert res.epochs_trained == 270

    cands = sample_configs(TOY_SPACE, 16, seed)
    n_val = max(1, int(x.shape[0] * 0.2))
    order = np.random.default_rng(seed).permutation(x.shape[0])
    vi, fi = order[:n_val], order[n_val:]
    scores = [
        _fit_and_score(c, candidate_seed(seed, i), res.epochs_trained, 0.99,
                       x[fi], y[fi], x[vi], y[vi])
        for i, c in enumerate(cands)
    ]
    assert cands[int(np.argmin(scores))] == res.candidate

    assert res.candidate == CandidateConfig(
        hidden_widths=(7, 12), activation="tanh", batch_size=16,
        lr0=pytest.approx(0.00499374480598858, rel=1e-12),
    )
    assert res.score == pytest.approx(0.005831623551168457, rel=1e-9)


def test_tune_deterministic():
    x, y = _toy_quadratic()
    a = tune(TOY_SPACE, x, y, budget=400, n_configs=4, rung0_epochs=10, seed=2)
    b = tune(TOY_SPACE, x, y, budget=400, n_configs=4, rung0_epochs=10, seed=2)
    assert a == b


# ---------------------------------------------------------------------------
# Model file format
# ---------------------------------------------------------------------------

def _trained_reference(tmp_path):
    m = init_mlp(5, REFERENCE_HIDDEN, "elu", seed=3,
                 input_scaler=Scaler(np.array([0.008, 2.0, 1.1e7, 3000.0, 2e5]),
                                     np.array([0.004, 1.5, 5e6, 1500.0, 3e5])),
                 output_scaler=Scaler(np.array([3.1e6]), np.array([2.2e6])),
                 feature_names=("diameter", "heated_length", "pressure",
                                "mass_flux", "inlet_subcooling"))
    path = tmp_path / "ref.chfmlp"
    save_model(m, str(path))
    return m, path


def test_save_load_roundtrip_bit_exact(tmp_path):
    m, path = _trained_reference(tmp_path)
    back = load_model(str(path))
    assert len(back.layers) == len(m.layers)
    for a, b in zip(m.layers, back.layers):
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.bias, b.bias)
        assert a.activation == b.activation
    assert np.array_equal(back.input_scaler.mean, m.input_scaler.mean)
    assert np.array_equal(back.input_scaler.std, m.input_scaler.std)
    assert np.array_equal(back.output_scaler.mean, m.output_scaler.mean)
    assert np.array_equal(back.output_scaler.std, m.output_scaler.std)
    assert back.mode == m.mode
    assert back.base_model == m.base_model
    assert back.feature_names == m.feature_names

    rng = np.random.default_rng(11)
    x = rng.normal(size=(1000, 5)) * [0.004, 1.5, 5e6, 1500.0, 3e5] + \
        [0.008, 2.0, 1.1e7, 3000.0, 2e5]
    assert np.array_equal(forward_batch(m, x), forward_batch(back, x))


def test_save_load_preserves_awkward_scaler_values(tmp_path):
    # shortest round-trip decimal text must reproduce non-terminating
    # binary fractions exactly
    m = Mlp(
        layers=[DenseLayer(np.array([[1.0 / 3.0, 0.1]]), np.array([2.0 / 7.0]), "identity")],
        input_scaler=Scaler(np.array([0.1, 1e-300]), np.array([1.0 / 3.0, 3.0])),
        output_scaler=Scaler(np.array([0.2]), np.array([7.0 / 11.0])),
        feature_names=("a", "b"),
    )
    path = tmp_path / "m.chfmlp"
    save_model(m, str(path))
    back = load_model(str(path))
    assert back.input_scaler.mean[1] == 1e-300
    assert back.input_scaler.std[0] == 1.0 / 3.0
    assert back.output_scaler.std[0] == 7.0 / 11.0
    assert back.layers[0].weights[0, 0] == 1.0 / 3.0


def test_load_rejects_unknown_version(tmp_path):
    m, path = _trained_reference(tmp_path)
    blob = path.read_bytes().replace(b"CHFKIT-MLP 1\n", b"CHFKIT-MLP 2\n", 1)
    bad = tmp_path / "v2.chfmlp"
    bad.write_bytes(blob)
    with pytest.raises(ModelFormatError, match="version"):
        load_model(str(bad))


def test_load_rejects_foreign_file(tmp_path):
    p = tmp_path / "junk.chfmlp"
    p.write_bytes(b"PNG\x89 not a model\n")
    with pytest.raises(ModelFormatError):
        load_model(str(p))


def test_load_truncated_weights_names_layer_and_offset(tmp_path):
    m, path = _trained_reference(tmp_path)
    blob = path.read_bytes()
    bad = tmp_path / "trunc.chfmlp"
    bad.write_bytes(blob[:-100])
    with pytest.raises(ModelFormatError, match="layer 7.*truncated") as exc:
        load_model(str(bad))
    assert exc.value.offset > 0


def test_load_trailing_bytes_rejected(tmp_path):
    m, path = _trained_reference(tmp_path)
    bad = tmp_path / "extra.chfmlp"
    bad.write_bytes(path.read_bytes() + b"\x00" * 8)
    with pytest.raises(ModelFormatError, match="trailing"):
        load_model(str(bad))


def test_load_missing_field(tmp_path):
    m, path = _trained_reference(tmp_path)
    lines = path.read_bytes().split(b"\n")
    lines = [l for l in lines if not l.startswith(b"mode:")]
    bad = tmp_path / "nofield.chfmlp"
    bad.write_bytes(b"\n".join(lines))
    with pytest.raises(ModelFormatError, match="'mode'"):
        load_model(str(bad))


def test_load_unknown_field(tmp_path):
    m, path = _trained_reference(tmp_path)
    blob = path.read_bytes().replace(b"end_header\n", b"surprise: 1\nend_header\n", 1)
    bad = tmp_path / "extra_field.chfmlp"
    bad.write_bytes(blob)
    with pytest.raises(ModelFormatError, match="'surprise'"):
        load_model(str(bad))


def test_load_structural_tamper_names_layer(tmp_path):
    # byte-compatible header edit that breaks a network invariant: the
    # final layer's activation flipped away from identity
    m, path = _trained_reference(tmp_path)
    blob = path.read_bytes().replace(b"17->1 identity", b"17->1 tanh    ", 1)
    bad = tmp_path / "tamper.chfmlp"
    bad.write_bytes(blob)
    with pytest.raises(ModelValidationError, match="layer 7"):
        load_model(str(bad))


def _with_non_finite(blob: bytes, where: str) -> bytes:
    """A model file with one parameter made non-finite: the first weight,
    the last bias, or the first entry of a scaler field of the header."""
    bad = np.array([np.nan], dtype="<f8").tobytes()
    if where == "weight":
        cut = blob.index(b"end_header\n") + len(b"end_header\n")
        return blob[:cut] + bad + blob[cut + 8:]
    if where == "bias":
        return blob[:-8] + bad
    line = next(l for l in blob.split(b"\n") if l.startswith(where.encode() + b": "))
    key, values = line.split(b": ", 1)
    return blob.replace(line, key + b": " + b",".join([b"nan", *values.split(b",")[1:]]), 1)


@pytest.mark.parametrize("where", ["weight", "bias", "input_mean", "input_std",
                                   "output_mean", "output_std"])
def test_load_rejects_non_finite_parameter(tmp_path, where):
    m, path = _trained_reference(tmp_path)
    bad = tmp_path / "nonfinite.chfmlp"
    bad.write_bytes(_with_non_finite(path.read_bytes(), where))
    with pytest.raises(ModelValidationError, match="finite"):
        load_model(str(bad))


def test_mlp_rejects_non_finite_weight_or_bias():
    for w, b in ((np.array([[np.nan]]), np.zeros(1)), (np.ones((1, 1)), np.array([np.inf]))):
        with pytest.raises(ModelValidationError, match="layer 0 has a non-finite"):
            Mlp(layers=[DenseLayer(w, b, "identity")], input_scaler=Scaler.identity(1),
                output_scaler=Scaler.identity(1))


def test_load_mode_base_inconsistency_rejected(tmp_path):
    m, path = _trained_reference(tmp_path)
    blob = path.read_bytes().replace(b"mode: direct", b"mode: residual", 1)
    bad = tmp_path / "modeflip.chfmlp"
    bad.write_bytes(blob)
    with pytest.raises(ModelValidationError, match="inconsistent"):
        load_model(str(bad))


def test_save_rejects_feature_names_with_commas(tmp_path):
    m = init_mlp(2, (3,), "tanh", seed=0, feature_names=("a,b", "c"))
    with pytest.raises(ValueError, match="comma"):
        save_model(m, str(tmp_path / "x.chfmlp"))


def test_residual_mode_roundtrip(tmp_path):
    m = init_mlp(5, (8,), "tanh", seed=2, mode="residual", base_model="bowring")
    path = tmp_path / "res.chfmlp"
    save_model(m, str(path))
    back = load_model(str(path))
    assert back.mode == "residual"
    assert back.base_model == "bowring"
