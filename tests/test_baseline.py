import numpy as np
import pytest

from qnnff.baseline import (
    MlpForceField,
    _candidates,
    MlpSpec,
    mlp_backward,
    mlp_forward,
    mlp_init_xavier,
    mlp_param_grad_fn,
    mse_value_and_grad,
    pack_params,
    param_count,
    topology_search,
    unpack_params,
)
from qnnff.circuit import EncodingSpec, encoding_exprs
from qnnff.errors import ArgumentError
from qnnff.presets import generate_lih, get_preset
from qnnff.train import AdamConfig, adam_minimize

from helpers import central_diff


def test_param_count_formula():
    assert param_count((7, 4, 5, 2, 1)) == 72
    assert param_count((7, 4, 6, 2, 2, 1)) == 85
    assert param_count((6, 14, 2, 1)) == 131
    assert MlpSpec((3, 1)).param_count == 4


def test_spec_validation():
    with pytest.raises(ArgumentError):
        MlpSpec((3,))
    with pytest.raises(ArgumentError):
        MlpSpec((3, 2))  # output width must be 1
    with pytest.raises(ArgumentError):
        MlpSpec((3, 0, 1))


def test_xavier_init_properties():
    spec = MlpSpec((7, 4, 5, 2, 1))
    model = mlp_init_xavier(spec, seed=5)
    for b in model.biases:
        assert np.all(b == 0)
    for w, (w_in, w_out) in zip(model.weights, zip(spec.widths, spec.widths[1:])):
        bound = np.sqrt(6 / (w_in + w_out))
        assert np.max(np.abs(w)) <= bound
    again = mlp_init_xavier(spec, seed=5)
    assert all(np.array_equal(a, b)
               for a, b in zip(model.weights, again.weights))


def test_zero_weights_zero_output():
    spec = MlpSpec((4, 3, 1))
    model = unpack_params(spec, np.zeros(spec.param_count))
    assert mlp_forward(model, np.ones(4)) == 0.0


def test_pack_unpack_round_trip(rng):
    spec = MlpSpec((5, 3, 2, 1))
    theta = rng.normal(size=spec.param_count)
    assert np.array_equal(pack_params(unpack_params(spec, theta)), theta)


@pytest.mark.parametrize("widths", [(3, 1), (4, 5, 1), (5, 4, 3, 2, 1)])
def test_backward_matches_fd(rng, widths):
    spec = MlpSpec(widths)
    theta = rng.normal(scale=0.7, size=spec.param_count)
    x = rng.normal(size=widths[0])
    model = unpack_params(spec, theta)
    _, d_params, d_inputs = mlp_backward(model, x)
    fd_params = central_diff(
        lambda t: mlp_forward(unpack_params(spec, t), x), theta, h=1e-5)
    assert np.max(np.abs(d_params - fd_params)) < 1e-7
    fd_inputs = central_diff(
        lambda xx: mlp_forward(model, xx), x, h=1e-5)
    assert np.max(np.abs(d_inputs - fd_inputs)) < 1e-7


def test_backward_batched_matches_single(rng):
    spec = MlpSpec((4, 6, 1))
    theta = rng.normal(size=spec.param_count)
    model = unpack_params(spec, theta)
    X = rng.normal(size=(5, 4))
    vals, d_params, d_inputs = mlp_backward(model, X)
    for i in range(5):
        v, g, gi = mlp_backward(model, X[i])
        assert vals[i] == pytest.approx(v)
        assert np.allclose(d_params[i], g)
        assert np.allclose(d_inputs[i], gi)


def test_affine_function_learned_exactly(rng):
    # a bias-only linear unit (no hidden layer) reproduces an affine map
    spec = MlpSpec((2, 1))
    X = rng.normal(size=(30, 2))
    w_true = np.array([1.3, -0.7])
    e = X @ w_true + 0.25

    def value_and_grad(theta):
        model = unpack_params(spec, theta)
        f, d_params, _ = mlp_backward(model, X)
        r = f - e
        return float(np.mean(r ** 2)), (2 / len(r)) * (d_params.T @ r)

    theta, losses, _, _ = adam_minimize(
        value_and_grad, np.zeros(spec.param_count),
        AdamConfig(learning_rate=0.05, max_steps=3000, tolerance=1e-16,
                   patience=3000))
    # least-squares oracle: the exact affine coefficients
    assert np.allclose(theta, [1.3, -0.7, 0.25], atol=1e-5)


def test_param_grad_fn_adapter(rng):
    spec = MlpSpec((3, 4, 1))
    fn = mlp_param_grad_fn(spec)
    theta = rng.normal(size=spec.param_count)
    X = rng.normal(size=(6, 3))
    grads = fn(theta, X)
    assert grads.shape == (6, spec.param_count)


def test_topology_search_budget():
    spec = topology_search(budget_d=73, input_width=7, trials=8, seed=0)
    assert abs(spec.param_count - 73) <= 2
    assert spec.widths[0] == 7 and spec.widths[-1] == 1


def test_topology_search_single_trial():
    s1 = topology_search(budget_d=73, input_width=7, trials=1, seed=3)
    s2 = topology_search(budget_d=73, input_width=7, trials=1, seed=3)
    assert s1 == s2


def test_topology_search_with_data(rng):
    X = rng.normal(size=(20, 3))
    e = np.tanh(X[:, 0]) * 0.4
    spec = topology_search(budget_d=20, input_width=3, trials=3, seed=1,
                           train=(X, e), epochs=50)
    assert abs(spec.param_count - 20) <= 2


def test_topology_search_infeasible():
    with pytest.raises(ArgumentError):
        topology_search(budget_d=1, input_width=7, trials=4, seed=0)


@pytest.mark.parametrize("kwargs, named", [
    ({"trials": 0}, "trials=0"), ({"trials": -2}, "trials=-2"),
    ({"tolerance": -1}, "tolerance=-1")])
def test_topology_search_rejects_bad_arguments(kwargs, named):
    # reported as bad arguments, not as an infeasible budget
    args = {"budget_d": 73, "input_width": 7, "trials": 8} | kwargs
    with pytest.raises(ArgumentError, match=named) as err:
        topology_search(**args)
    assert "no feasible topology" not in str(err.value)


def _reference_draws(seed, count):
    """The hidden widths of the per-draw search loop: a scalar depth draw,
    then that many widths, one draw after the other."""
    rng = np.random.default_rng(seed)
    return [tuple(int(w) for w in rng.integers(1, 17, size=rng.integers(1, 5)))
            for _ in range(count)]


def _reference_candidates(draws, budget_d, input_width, trials, tolerance):
    """The per-draw search loop over the draws of ``_reference_draws``."""
    candidates, seen = [], set()
    for hidden in draws[:max(200, 400 * trials)]:
        if len(candidates) >= trials:
            break
        widths = (input_width, *hidden, 1)
        if widths in seen:
            continue
        seen.add(widths)
        if abs(param_count(widths) - budget_d) <= tolerance:
            candidates.append(MlpSpec(widths))
    return candidates


@pytest.mark.parametrize("seed", range(6))
def test_candidates_match_the_per_draw_stream(seed):
    # the bulk draw relies on numpy's Lemire map for bounded integers; a
    # numpy release that draws them otherwise fails here
    draws = _reference_draws(seed, 400 * 8)
    for budget in (1, 10, 20, 50, 72, 73, 87, 100, 156, 300, 700):
        for width in (1, 3, 7, 15):
            for trials in (1, 3, 8):
                for tolerance in (0, 2, 5):
                    assert _candidates(budget, width, trials, seed,
                                       tolerance) == _reference_candidates(
                        draws, budget, width, trials, tolerance)


@pytest.mark.parametrize("seed", range(3))
def test_topology_search_with_data_picks_the_reference_spec(rng, seed):
    X = rng.normal(size=(20, 3))
    e = np.tanh(X[:, 0]) * 0.4
    best, best_loss = None, np.inf
    for k, spec in enumerate(_reference_candidates(
            _reference_draws(seed, 1200), 20, 3, 3, 2)):
        theta, _, _, _ = adam_minimize(
            mse_value_and_grad(spec, X, e),
            pack_params(mlp_init_xavier(spec, seed=seed + k)),
            AdamConfig(max_steps=50, seed=seed + k))
        loss = np.mean((mlp_forward(unpack_params(spec, theta), X) - e) ** 2)
        if loss < best_loss:
            best, best_loss = spec, loss
    assert topology_search(budget_d=20, input_width=3, trials=3, seed=seed,
                           train=(X, e), epochs=50) == best


@pytest.mark.parametrize("name, widths", [
    ("lih", (7, 1, 14, 1, 7, 1)), ("h2o", (7, 2, 2, 16, 1)),
    ("h3o", (15, 9, 1, 1))])
def test_benchmark_networks_are_pinned(name, widths):
    # the budget-matched networks the benchmark workloads build
    preset = get_preset(name)
    spec = topology_search(
        budget_d=preset.template().param_count,
        input_width=len(encoding_exprs(preset.encoding_spec())),
        trials=8, seed=0)
    assert spec.widths == widths


def test_mlp_force_field_consistency(rng):
    preset = get_preset("lih")
    data = generate_lih(30)
    pipeline = preset.pipeline().fit(data.cartesians())
    enc = preset.encoding_spec()
    spec = MlpSpec((7, 4, 5, 2, 1))
    theta = rng.normal(scale=0.5, size=spec.param_count)
    ff = MlpForceField(spec, pipeline, theta, energy_scale=1.4,
                       energy_offset=0.8, encoding=enc)
    geoms = data.cartesians()[[9, 4, 17]]
    energies, batch_forces = ff.energy_forces(geoms)
    assert np.allclose(energies, ff.predict_energy_batch(geoms), rtol=0, atol=1e-12)
    h = 1e-5
    for k, geom in enumerate(geoms):
        forces = ff.predict_forces(geom)
        assert energies[k] == pytest.approx(ff.predict_energy(geom), rel=0, abs=1e-12)
        assert np.allclose(batch_forces[k], forces, rtol=0, atol=1e-12)
        fd = np.zeros_like(geom)
        for c in range(geom.size):
            xp, xm = geom.copy(), geom.copy()
            xp[c] += h
            xm[c] -= h
            fd[c] = -(ff.predict_energy(xp) - ff.predict_energy(xm)) / (2 * h)
        assert np.max(np.abs(forces - fd)) < 1e-6


def test_energy_forces_runs_one_backward_pass(rng, monkeypatch):
    from qnnff import baseline

    preset = get_preset("lih")
    data = generate_lih(30)
    pipeline = preset.pipeline().fit(data.cartesians())
    spec = MlpSpec((7, 4, 5, 2, 1))
    ff = MlpForceField(spec, pipeline, rng.normal(scale=0.5, size=spec.param_count),
                       energy_scale=1.4, energy_offset=0.8,
                       encoding=preset.encoding_spec())
    geoms = data.cartesians()[[9, 4, 17]]
    energies_want = ff.predict_energy_batch(geoms)
    forces_want = [ff.predict_forces(geom) for geom in geoms]
    calls = []
    monkeypatch.setattr(baseline, "mlp_forward",
                        lambda *args: calls.append("forward") or mlp_forward(*args))
    monkeypatch.setattr(baseline, "mlp_backward",
                        lambda *args: calls.append("backward") or mlp_backward(*args))
    energies, _ = ff.energy_forces(geoms)
    assert calls == ["backward"]
    assert np.array_equal(energies, energies_want)
    # one geometry per call, so that the products round as in predict_forces
    for geom, want in zip(geoms, forces_want):
        assert np.array_equal(ff.energy_forces(geom[None])[1][0], want)


def test_mlp_force_field_checkpoint(tmp_path, rng):
    from qnnff.model import load_checkpoint, save_checkpoint

    preset = get_preset("lih")
    data = generate_lih(30)
    pipeline = preset.pipeline().fit(data.cartesians())
    spec = MlpSpec((7, 4, 5, 2, 1))
    ff = MlpForceField(spec, pipeline, rng.normal(size=spec.param_count),
                       energy_scale=2.0, energy_offset=-1.0,
                       encoding=preset.encoding_spec())
    path = tmp_path / "mlp.json"
    save_checkpoint(ff, path)
    back = load_checkpoint(path)
    geom = data.samples[4].cartesian
    assert back.predict_energy(geom) == ff.predict_energy(geom)
    assert isinstance(back, MlpForceField)


def test_input_width_mismatch():
    preset = get_preset("lih")
    data = generate_lih(10)
    pipeline = preset.pipeline().fit(data.cartesians())
    with pytest.raises(ArgumentError):
        MlpForceField(MlpSpec((3, 1)), pipeline, np.zeros(4), 1.0, 0.0,
                      encoding=preset.encoding_spec())


@pytest.mark.parametrize("scale, offset", [(np.nan, 0.0), (np.inf, 0.0),
                                           (0.0, 0.0), (1.0, np.nan),
                                           (1.0, np.inf)])
def test_non_finite_label_scaling_rejected(scale, offset):
    preset = get_preset("lih")
    pipeline = preset.pipeline().fit(generate_lih(10).cartesians())
    spec = MlpSpec((pipeline.num_features, 1))
    with pytest.raises(ArgumentError, match="energy"):
        MlpForceField(spec, pipeline, np.zeros(spec.param_count), scale, offset)
