import dataclasses
import json

import numpy as np
import pytest

from qnnff import gradients
from qnnff.data import diatomic_geometry
from qnnff.errors import ArgumentError, CheckpointError, DataError
from qnnff.model import (
    QffModel,
    bond_energy_force,
    fit_label_scaling,
    initialized_model,
    load_checkpoint,
    save_checkpoint,
)
from qnnff.presets import generate_lih, get_preset


@pytest.fixture(scope="module")
def lih_setup():
    preset = get_preset("lih")
    data = generate_lih(40)
    template = preset.template(depth=2)
    pipeline = preset.pipeline().fit(data.cartesians())
    model = initialized_model(template, pipeline, data.energies(),
                              metadata={"preset": "lih"})
    return preset, data, model


def randomized(model, rng):
    theta = rng.uniform(-0.8, 0.8, size=model.param_count)
    return QffModel(model.template, model.pipeline, theta,
                    model.energy_scale, model.energy_offset, model.metadata)


def test_label_scaling_band():
    scale, offset = fit_label_scaling([0.0, 1.0, 3.0])
    scaled = (np.array([0.0, 3.0]) - offset) / scale
    assert np.allclose(scaled, [-0.9, 0.9])


def test_label_scaling_constant_energies():
    scale, offset = fit_label_scaling([2.0, 2.0])
    assert scale == 1.0 and offset == 2.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_label_scaling_rejects_non_finite_energies(bad):
    with pytest.raises(DataError, match="non-finite"):
        fit_label_scaling([bad, 1.0])


@pytest.mark.parametrize("scale, offset", [(np.nan, 0.0), (np.inf, 0.0),
                                           (1.0, np.nan), (1.0, -np.inf)])
def test_model_rejects_non_finite_label_scaling(lih_setup, scale, offset):
    _, _, model = lih_setup
    with pytest.raises(ArgumentError, match="finite"):
        QffModel(model.template, model.pipeline, model.theta, scale, offset)


def test_zero_init_prediction_is_encoding_only(lih_setup):
    _, data, model = lih_setup
    geom = data.samples[3].cartesian
    y = model.pipeline.apply(geom)
    f_enc = gradients.eval_qnn(model.template, y, np.zeros(model.param_count))
    assert model.predict_energy(geom) == pytest.approx(
        model.energy_scale * f_enc + model.energy_offset)


def test_predictions_stay_in_label_band(lih_setup, rng):
    _, data, model = lih_setup
    m = randomized(model, rng)
    for s in data.samples[::7]:
        e = m.predict_energy(s.cartesian)
        assert m.energy_offset - m.energy_scale <= e <= m.energy_offset + m.energy_scale


def test_energy_rigid_motion_invariance(lih_setup, rng):
    _, data, model = lih_setup
    m = randomized(model, rng)
    geom = data.samples[5].cartesian.reshape(2, 3)
    e0 = m.predict_energy(geom)
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] *= -1
    e1 = m.predict_energy(geom @ q.T + np.array([1.0, -2.0, 0.5]))
    assert e1 == pytest.approx(e0, abs=1e-10)


def test_force_equivariance_under_rotation(lih_setup, rng):
    _, data, model = lih_setup
    m = randomized(model, rng)
    geom = data.samples[8].cartesian.reshape(2, 3)
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] *= -1
    f0 = m.predict_forces(geom).reshape(2, 3)
    f1 = m.predict_forces(geom @ q.T).reshape(2, 3)
    assert np.allclose(f1, f0 @ q.T, atol=1e-8)


def test_net_translation_force_is_zero(lih_setup, rng):
    _, data, model = lih_setup
    m = randomized(model, rng)
    f = m.predict_forces(data.samples[4].cartesian).reshape(2, 3)
    assert np.allclose(f.sum(axis=0), 0.0, atol=1e-10)


def test_forces_match_minus_fd_energy(lih_setup, rng):
    _, data, model = lih_setup
    m = randomized(model, rng)
    h = 1e-5
    geoms = data.cartesians()[3:24:10]
    energies, batch_forces = m.energy_forces(geoms)
    assert np.allclose(energies, m.predict_energy_batch(geoms), rtol=0, atol=1e-12)
    for k, x in enumerate(geoms):
        forces = m.predict_forces(x)
        assert energies[k] == pytest.approx(m.predict_energy(x), rel=0, abs=1e-12)
        assert np.allclose(batch_forces[k], forces, rtol=0, atol=1e-12)
        fd = np.zeros_like(x)
        for c in range(x.size):
            xp, xm = x.copy(), x.copy()
            xp[c] += h
            xm[c] -= h
            fd[c] = -(m.predict_energy(xp) - m.predict_energy(xm)) / (2 * h)
        assert np.max(np.abs(forces - fd)) < 1e-5


def test_lih_force_is_along_bond(lih_setup, rng):
    _, data, model = lih_setup
    m = randomized(model, rng)
    f = m.predict_forces(diatomic_geometry(2.3)).reshape(2, 3)
    # canonical geometry lies on the x axis: no perpendicular components
    assert np.allclose(f[:, 1:], 0.0, atol=1e-12)
    assert f[0, 0] == pytest.approx(-f[1, 0])
    e, fbond = bond_energy_force(m, 2.3)
    assert fbond == pytest.approx(f[1, 0])


def test_checkpoint_round_trip(tmp_path, lih_setup, rng):
    _, data, model = lih_setup
    m = randomized(model, rng)
    path = tmp_path / "model.json"
    save_checkpoint(m, path)
    back = load_checkpoint(path)
    geom = data.samples[7].cartesian
    assert back.predict_energy(geom) == m.predict_energy(geom)
    assert np.array_equal(back.theta, m.theta)
    assert back.metadata == m.metadata


def test_failed_save_keeps_earlier_checkpoint(tmp_path, lih_setup):
    _, _, model = lih_setup
    path = tmp_path / "m.json"
    save_checkpoint(model, path)
    before = path.read_bytes()
    bad = QffModel(model.template, model.pipeline, model.theta,
                   model.energy_scale, model.energy_offset,
                   {"not_json": object()})
    with pytest.raises(TypeError):
        save_checkpoint(bad, path)
    assert path.read_bytes() == before
    assert np.array_equal(load_checkpoint(path).theta, model.theta)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.json"]


def test_save_into_a_missing_directory_names_the_checkpoint(tmp_path, lih_setup):
    _, _, model = lih_setup
    path = tmp_path / "no" / "m.json"
    with pytest.raises(CheckpointError, match="cannot write checkpoint") as err:
        save_checkpoint(model, path)
    assert str(path) in str(err.value)
    assert ".tmp" not in str(err.value)


def test_checkpoint_truncated_file(tmp_path, lih_setup):
    _, _, model = lih_setup
    path = tmp_path / "model.json"
    save_checkpoint(model, path)
    text = path.read_text()
    path.write_text(text[: len(text) // 2])
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_checkpoint_version_mismatch(tmp_path, lih_setup):
    _, _, model = lih_setup
    path = tmp_path / "model.json"
    save_checkpoint(model, path)
    payload = json.loads(path.read_text())
    payload["version"] = 99
    path.write_text(json.dumps(payload))
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(path)


def _mlp_model(lih_setup, rng):
    from qnnff.baseline import MlpForceField, MlpSpec

    preset, _, model = lih_setup
    spec = MlpSpec((7, 4, 1))
    return MlpForceField(spec, model.pipeline, rng.normal(size=spec.param_count),
                         energy_scale=2.0, energy_offset=-1.0,
                         encoding=preset.encoding_spec())


def _circuit_model(lih_setup, rng):
    return randomized(lih_setup[2], rng)


def _set(field, index, value):
    def edit(payload):
        target = payload
        for key in field[:-1]:
            target = target[key]
        if index is None:
            target[field[-1]] = value
        else:
            target[field[-1]][index] = value
    return edit


@pytest.mark.parametrize("family", [_circuit_model, _mlp_model],
                         ids=["circuit", "mlp"])
@pytest.mark.parametrize("name, edit", [
    ("theta", _set(("theta",), 0, float("nan"))),
    ("energy_scale", _set(("energy_scale",), None, float("inf"))),
    ("energy_offset", _set(("energy_offset",), None, float("nan"))),
    ("pipeline bounds", _set(("pipeline", "bounds"), 0, [0.9, float("nan")])),
], ids=["theta", "energy_scale", "energy_offset", "pipeline_bounds"])
def test_checkpoint_rejects_non_finite_field(tmp_path, lih_setup, rng, family,
                                             name, edit):
    path = tmp_path / "model.json"
    save_checkpoint(family(lih_setup, rng), path)
    payload = json.loads(path.read_text())
    edit(payload)
    path.write_text(json.dumps(payload))   # writes NaN and Infinity
    with pytest.raises(CheckpointError, match=f"non-finite value in {name}"):
        load_checkpoint(path)


def test_model_dimension_validation(lih_setup):
    _, _, model = lih_setup
    with pytest.raises(ArgumentError):
        QffModel(model.template, model.pipeline, np.zeros(3), 1.0, 0.0)
    with pytest.raises(ArgumentError):
        QffModel(model.template, model.pipeline,
                 np.zeros(model.param_count), -1.0, 0.0)


@pytest.mark.parametrize("family", [_circuit_model, _mlp_model],
                         ids=["circuit", "mlp"])
def test_constructor_checks_the_length_of_theta(lih_setup, rng, family):
    model = family(lih_setup, rng)
    with pytest.raises(ArgumentError, match="theta has shape"):
        dataclasses.replace(model, theta=model.theta[:-1])


@pytest.mark.parametrize("family, edit, message", [
    (_circuit_model, lambda p: p["theta"].pop(), "theta has shape"),
    (_mlp_model, lambda p: p["theta"].pop(), "theta has shape"),
    (_circuit_model, lambda p: p["template"]["gates"].pop(), "gate list"),
    (_mlp_model, lambda p: p["widths"].insert(1, 1), "theta has shape"),
], ids=["circuit-theta", "mlp-theta", "circuit-gates", "mlp-widths"])
def test_checkpoint_inconsistent_with_its_model_is_checkpoint_error(
        tmp_path, lih_setup, rng, family, edit, message):
    path = tmp_path / "model.json"
    save_checkpoint(family(lih_setup, rng), path)
    payload = json.loads(path.read_text())
    edit(payload)
    path.write_text(json.dumps(payload))
    with pytest.raises(CheckpointError, match=f"model.json: .*{message}"):
        load_checkpoint(path)


def test_predictions_charge_what_the_circuit_calls_charge(lih_setup, rng):
    _, data, model = lih_setup
    m = randomized(model, rng)
    geoms = data.cartesians()[:3]
    y, _ = m.pipeline.apply_with_jacobian_batch(geoms)
    t, theta = m.template, m.theta

    def charge(call):
        gradients.counter.reset()
        call()
        return dataclasses.astuple(gradients.counter)

    assert (charge(lambda: m.predict_energy(geoms[0]))
            == charge(lambda: gradients.eval_qnn_batch(t, y[:1], theta)))
    assert (charge(lambda: m.predict_energy_batch(geoms))
            == charge(lambda: gradients.eval_qnn_batch(t, y, theta)))
    assert (charge(lambda: m.predict_forces(geoms[0]))
            == charge(lambda: gradients.grad_inputs_batch(t, y[:1], theta)))
    assert (charge(lambda: m.energy_forces(geoms))
            == charge(lambda: gradients.sweep(t, y, theta, inputs=True)))
