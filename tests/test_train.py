import dataclasses

import numpy as np
import pytest

from qnnff import gradients, train
from qnnff.baseline import (MlpForceField, MlpSpec, mlp_init_xavier,
                            mse_value_and_grad, pack_params)
from qnnff.circuit import encoding_exprs, encoding_monomials
from qnnff.data import Dataset, Sample
from qnnff.errors import ArgumentError, DataError, NumericalError
from qnnff.model import QffModel, initialized_model
from qnnff.presets import generate_h2o, generate_lih, get_preset
from qnnff.train import (
    AdamConfig,
    LossSpec,
    adam_fit,
    adam_minimize,
    evaluate_rmse,
    gradient_free_fit,
    loss_chi,
    zero_init,
)

from conftest import central_diff


def small_lih_model(depth=2, count=24):
    preset = get_preset("lih")
    data = generate_lih(count)
    template = preset.template(depth=depth)
    pipeline = preset.pipeline().fit(data.cartesians())
    return initialized_model(template, pipeline, data.energies()), data


def dataset_from_model(model, data, with_forces=False):
    """Relabel a dataset with the model's own predictions (a perfect fit)."""
    samples = []
    for s in data.samples:
        f = model.predict_forces(s.cartesian) if with_forces else None
        samples.append(Sample(s.cartesian, model.predict_energy(s.cartesian), f))
    return Dataset(samples, data.elements, preset=data.preset)


def test_zero_init():
    preset = get_preset("lih")
    template = preset.template(depth=3)
    theta = zero_init(template)
    assert theta.shape == (template.param_count,)
    assert np.all(theta == 0)


def test_loss_zero_for_perfect_model(rng):
    model, data = small_lih_model()
    model = QffModel(model.template, model.pipeline,
                     rng.uniform(-0.5, 0.5, model.param_count),
                     model.energy_scale, model.energy_offset)
    perfect = dataset_from_model(model, data, with_forces=True)
    assert loss_chi(model, perfect, LossSpec(chi=1.0)) == pytest.approx(0.0, abs=1e-24)


def test_loss_chi_zero_ignores_forces():
    model, data = small_lih_model()
    no_forces = Dataset([Sample(s.cartesian, s.energy, None) for s in data.samples],
                        data.elements)
    wrong_forces = Dataset([Sample(s.cartesian, s.energy, s.forces * 7)
                            for s in data.samples], data.elements)
    spec = LossSpec(chi=0.0)
    assert loss_chi(model, no_forces, spec) == loss_chi(model, wrong_forces, spec)


def test_loss_missing_forces_with_chi():
    model, data = small_lih_model()
    no_forces = Dataset([Sample(s.cartesian, s.energy, None) for s in data.samples],
                        data.elements)
    with pytest.raises(DataError):
        loss_chi(model, no_forces, LossSpec(chi=1.0))


def test_loss_hand_computed_two_samples():
    model, data = small_lih_model()
    two = Dataset(data.samples[:2], data.elements)
    spec = LossSpec(chi=0.0)
    f = model.sweep(model.feature_matrix(two.cartesians()), model.theta)[0]
    e = [model.scaled_energy(s.energy) for s in two.samples]
    expected = 0.5 * ((f[0] - e[0]) ** 2 + (f[1] - e[1]) ** 2)
    assert loss_chi(model, two, spec) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("name", ["lih", "h2o"])
def test_force_weighted_gradient_matches_finite_differences(name):
    # at chi = 1 the force term's gradient comes from Hessian-vector
    # products: it matches central differences of loss_chi and, to rounding,
    # the contraction of the full mixed Hessian
    preset = get_preset(name)
    data = generate_lih(6) if name == "lih" else generate_h2o(4, seed=3)
    model = initialized_model(preset.template(),
                              preset.pipeline().fit(data.cartesians()),
                              data.energies())
    theta = np.random.default_rng(7).uniform(-np.pi, np.pi, model.param_count)
    spec = LossSpec(chi=1.0)
    prob = train._lower(model, data, spec.chi)
    loss, grad = train._loss_and_grad(model, prob, spec.chi, theta)

    def loss_at(th):
        return loss_chi(dataclasses.replace(model, theta=th), data, spec)

    assert loss == pytest.approx(loss_at(theta), rel=1e-14)
    fd = central_diff(loss_at, theta, h=1e-5)
    assert np.max(np.abs(grad - fd)) <= 1e-6 * np.max(np.abs(grad))

    _, residual, force_residual, g_param = train._loss_terms(
        model, prob, spec.chi, theta, params=True)
    hess = gradients.mixed_hessian_batch(model.template, prob.features, theta)
    pull = np.einsum("bjc,bc->bj", prob.jacobians, force_residual)
    reference = ((2.0 / residual.size) * (g_param.T @ residual)
                 - (2.0 / force_residual.size) * np.einsum("bpj,bj->p", hess, pull))
    assert np.max(np.abs(grad - reference)) <= 1e-10 * np.max(np.abs(reference))


def test_adam_quadratic_toy():
    target = np.array([1.7])
    vg = lambda th: (float((th - target) @ (th - target)), 2 * (th - target))
    theta, losses, epochs, _ = adam_minimize(
        vg, np.zeros(1), AdamConfig(learning_rate=0.05, max_steps=500,
                                    tolerance=1e-14, patience=500))
    assert epochs <= 500
    assert abs(theta[0] - 1.7) < 1e-6


@pytest.mark.parametrize("rate", [-1.0, 0.0, np.nan, np.inf])
def test_adam_learning_rate_must_be_finite_and_positive(rate):
    with pytest.raises(ArgumentError, match="learning rate"):
        AdamConfig(learning_rate=rate)


def test_adam_monotone_on_convex_toy():
    vg = lambda th: (float(th @ th), 2 * th)
    _, losses, _, _ = adam_minimize(
        vg, np.array([1.0]), AdamConfig(learning_rate=1e-3, max_steps=200,
                                        patience=200))
    assert all(b <= a + 1e-15 for a, b in zip(losses, losses[1:]))


def test_zero_gradient_start_is_fixed_point():
    model, data = small_lih_model()
    # unit scale / zero offset so relabelling with model predictions is
    # bit exact and the initial loss gradient is exactly zero
    model = QffModel(model.template, model.pipeline, model.theta, 1.0, 0.0)
    perfect = dataset_from_model(model, data)
    trained, report = adam_fit(model, perfect, LossSpec(0.0),
                               AdamConfig(max_steps=1, patience=5))
    assert np.array_equal(trained.theta, model.theta)


def test_adam_fit_reduces_loss_and_is_deterministic():
    model, data = small_lih_model(depth=2, count=24)
    cfg = AdamConfig(max_steps=60, patience=60, seed=11)
    t1, r1 = adam_fit(model, data, LossSpec(0.0), cfg)
    t2, r2 = adam_fit(model, data, LossSpec(0.0), cfg)
    assert r1.losses[-1] < r1.losses[0]
    assert np.array_equal(t1.theta, t2.theta)
    assert r1.losses == r2.losses
    assert r1.epochs == r2.epochs


def test_adam_fit_validation_report():
    model, data = small_lih_model()
    trained, report = adam_fit(model, data, LossSpec(0.0),
                               AdamConfig(max_steps=20, patience=20),
                               validation=data)
    assert report.val_rmse_energy == pytest.approx(report.train_rmse_energy)
    assert report.circuit_evals > 0
    assert report.wall_time >= 0
    text = report.to_text()
    assert "val_rmse_energy_eV" in text


@pytest.mark.filterwarnings("ignore:overflow")
def test_adam_nan_labels_abort():
    model, data = small_lih_model()
    bad = Dataset([Sample(data.samples[0].cartesian, 1e300, None)],
                  data.elements)
    # 1e300 energies blow past float range once squared
    with pytest.raises(NumericalError):
        adam_fit(model, bad, LossSpec(0.0), AdamConfig(max_steps=3, patience=5))


def test_cobyla_quadratic_toy():
    model, data = small_lih_model(depth=1, count=12)
    # 2-parameter quadratic via adam_minimize's counterpart: drive COBYLA
    # through gradient_free_fit on a dataset the model can represent is
    # slow; test the optimizer contract on the toy directly instead.
    from scipy.optimize import minimize

    res = minimize(lambda t: float((t[0] - 0.3) ** 2 + (t[1] + 0.2) ** 2),
                   np.zeros(2), method="COBYLA", options={"maxiter": 200})
    assert abs(res.x[0] - 0.3) < 1e-4 and abs(res.x[1] + 0.2) < 1e-4


def test_gradient_free_fit_no_param_gradients():
    preset = get_preset("h2o")
    data = generate_h2o(8, seed=2)
    template = preset.template(depth=1)
    pipeline = preset.pipeline().fit(data.cartesians())
    model = initialized_model(template, pipeline, data.energies())
    gradients.counter.reset()
    trained, report = gradient_free_fit(model, data, LossSpec(chi=1.0),
                                        AdamConfig(max_steps=25))
    assert gradients.counter.grad_params == 0
    assert gradients.counter.hessian == 0
    assert gradients.counter.grad_inputs > 0  # force predictions inside the loss
    assert report.optimizer == "cobyla"
    # best-so-far trace is monotone non-increasing
    assert all(b <= a for a, b in zip(report.losses, report.losses[1:]))


def test_gradient_free_budget_flag():
    model, data = small_lih_model(depth=1, count=10)
    _, report = gradient_free_fit(model, data, LossSpec(0.0),
                                  AdamConfig(max_steps=model.param_count + 2))
    assert report.budget_exhausted or report.converged


def test_gradient_free_budget_below_cobyla_minimum():
    # COBYLA needs d + 2 evaluations to build its first simplex
    model, data = small_lih_model(depth=1, count=10)
    with pytest.raises(ArgumentError, match="d \\+ 2"):
        gradient_free_fit(model, data, LossSpec(0.0),
                          AdamConfig(max_steps=model.param_count + 1))


@pytest.mark.parametrize("chi", [0.0, 1.0])
def test_report_counts_hardware_circuits_and_simulated_passes(chi):
    model, data = small_lih_model(depth=2, count=6)
    _, report = adam_fit(model, data, LossSpec(chi), AdamConfig(max_steps=1))
    b, d = len(data), model.param_count
    m = model.template.depth * len(encoding_exprs(model.template.encoding))
    # the shift rule's cost: 1 + 2d circuits per sample for the loss and its
    # gradient, 2m + 4dm more for force predictions and the mixed Hessian,
    # and 1 + 2m for the report's energies and forces
    epoch = b * (1 + 2 * d) + (b * (2 * m + 4 * d * m) if chi else 0)
    assert report.circuit_evals == epoch + b * (1 + 2 * m)
    # one adjoint row per sample, plus one tangent-augmented row each for
    # the force term's Hessian-vector product
    assert report.simulated_passes == b + (b if chi else 0) + b
    assert f"simulated_passes = {report.simulated_passes}" in report.to_text()


def test_evaluate_rmse_perfect_model(rng):
    model, data = small_lih_model()
    model = QffModel(model.template, model.pipeline,
                     rng.uniform(-0.5, 0.5, model.param_count),
                     model.energy_scale, model.energy_offset)
    perfect = dataset_from_model(model, data, with_forces=True)
    rmse_e, rmse_f = evaluate_rmse(model, perfect)
    assert rmse_e == pytest.approx(0.0, abs=1e-12)
    assert rmse_f == pytest.approx(0.0, abs=1e-12)


def test_config_validation():
    with pytest.raises(ArgumentError):
        AdamConfig(beta1=1.5)
    with pytest.raises(ArgumentError):
        AdamConfig(max_steps=0)
    with pytest.raises(ArgumentError):
        LossSpec(chi=-1.0)


def test_loss_curve_file(tmp_path):
    model, data = small_lih_model()
    _, report = adam_fit(model, data, LossSpec(0.0),
                         AdamConfig(max_steps=5, patience=10))
    path = tmp_path / "loss.txt"
    report.save_loss_curve(path)
    rows = np.loadtxt(path)
    assert rows.shape == (5, 2)
    assert np.allclose(rows[:, 1], report.losses)


def small_lih_network():
    model, data = small_lih_model()
    spec = MlpSpec((7, 4, 1))
    ff = MlpForceField(spec, model.pipeline, pack_params(mlp_init_xavier(spec)),
                       model.energy_scale, model.energy_offset,
                       encoding=get_preset("lih").encoding_spec(),
                       metadata={"preset": "lih", "family": "mlp"})
    return ff, data


def test_adam_fit_trains_the_mlp_on_its_energy_loss():
    # the one fit path gives the network the descent its own loss gives
    ff, data = small_lih_network()
    config = AdamConfig(max_steps=60)
    gradients.counter.reset()
    trained, report = adam_fit(ff, data, LossSpec(0.0), config, validation=data)
    inputs = encoding_monomials(ff.encoding, ff.feature_matrix(data.cartesians()))
    theta, losses, epochs, converged = adam_minimize(
        mse_value_and_grad(ff.spec, inputs, ff.scaled_energy(data.energies())),
        ff.theta, config)
    assert isinstance(trained, MlpForceField)
    assert np.array_equal(trained.theta, theta)
    assert (report.losses, report.epochs, report.converged) == (losses, epochs,
                                                                converged)
    assert trained.metadata == ff.metadata and trained.metadata is not ff.metadata
    assert (report.circuit_evals, report.simulated_passes) == (0, 0)
    assert dataclasses.astuple(gradients.counter) == (0, 0, 0, 0, 0)
    assert report.val_rmse_energy == evaluate_rmse(trained, data)[0]


def test_adam_fit_rejects_forces_on_the_mlp():
    ff, data = small_lih_network()
    with pytest.raises(ArgumentError, match="chi"):
        adam_fit(ff, data, LossSpec(chi=1.0), AdamConfig(max_steps=3))


def test_gradient_free_fit_takes_the_mlp_with_forces():
    ff, data = small_lih_network()
    trained, report = gradient_free_fit(ff, data, LossSpec(chi=1.0),
                                        AdamConfig(max_steps=ff.param_count + 2))
    assert report.optimizer == "cobyla"
    assert report.losses[-1] <= loss_chi(ff, data, LossSpec(chi=1.0))
    assert report.losses[-1] == loss_chi(trained, data, LossSpec(chi=1.0))
