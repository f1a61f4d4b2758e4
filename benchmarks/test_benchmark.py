"""Tests of the benchmark itself: the reference agrees with the program on
right answers, and every check rejects a wrong one.

    python3 -m pytest benchmarks
"""

import json
import os
import shutil
import subprocess
import sys
import types

import numpy as np
import pytest

import checks
import reference
import tracing
import workloads
from qnnff import data, dynamics, gradients, presets, train
from qnnff import model as qmodel
from qnnff.circuit import AnsatzSpec, EncodingSpec, assemble_qnn

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


@pytest.fixture(scope="module")
def small():
    """3-qubit depth-2 template at random parameters and features."""
    rng = np.random.default_rng(7)
    enc = EncodingSpec(3, "full", ((0, 1, 2),))
    template = assemble_qnn(enc, AnsatzSpec(3, "full", ((0, 1, 2),)), 2)
    theta = rng.uniform(-np.pi, np.pi, template.param_count)
    y = rng.uniform(-0.8, 0.8, 3)
    return template, theta, y


@pytest.fixture(scope="module")
def h2o_model():
    """h2o preset model after one ADAM epoch, with its reference descriptors."""
    preset = presets.get_preset("h2o")
    ds = presets.generate_h2o(12, seed=5)
    pipeline = preset.pipeline().fit(ds.cartesians())
    qnn = qmodel.initialized_model(preset.template(depth=2), pipeline,
                                   ds.energies())
    trained, _ = train.adam_fit(qnn, ds, train.LossSpec(0.0),
                                train.AdamConfig(max_steps=1))
    desc = reference.Descriptors(preset.coords, preset.features, ds.cartesians())
    interior = workloads._interior(pipeline, ds.samples)
    return qnn, trained, desc, ds, interior


# -- the reference agrees with the program ----------------------------------

def test_dense_reference_matches_engine(small):
    template, theta, y = small
    ref = reference.circuit_output(template, y, theta)
    got = gradients.eval_qnn_batch(template, y[None], theta)[0]
    assert checks.close("output", got, ref, checks.OUTPUT_ATOL) is None
    assert checks.close("output", got + 1e-6, ref, checks.OUTPUT_ATOL) is not None


def test_reference_descriptors_match_pipeline():
    preset = presets.get_preset("h3o")
    ds = presets.generate_h3o(6, seed=2)
    pipeline = preset.pipeline().fit(ds.cartesians())
    desc = reference.Descriptors(preset.coords, preset.features, ds.cartesians())
    for cart in ds.cartesians():
        np.testing.assert_allclose(desc.features_of(cart), pipeline.apply(cart),
                                   rtol=0, atol=1e-10)


# -- every check rejects a wrong answer --------------------------------------

def test_gradient_checks_reject_perturbed_gradients(small):
    template, theta, y = small
    f = lambda th, yy: reference.circuit_output(template, yy, th)
    gp = gradients.grad_params(template, y, theta)
    fd = reference.fd_gradient(lambda th: f(th, y), theta, workloads.GRADIENT_STEP)
    assert checks.close("dθ", gp, fd, checks.GRADIENT_ATOL) is None
    assert checks.close("dθ", gp + 1e-5, fd, checks.GRADIENT_ATOL) is not None
    gi = gradients.grad_inputs(template, y, theta)
    fd = reference.fd_gradient(lambda yy: f(theta, yy), y, workloads.GRADIENT_STEP)
    assert checks.close("dy", gi, fd, checks.GRADIENT_ATOL) is None
    assert checks.close("dy", -gi, fd, checks.GRADIENT_ATOL) is not None


def test_hessian_check_rejects_perturbed_entries(small):
    template, theta, y = small
    f = lambda th, yy: reference.circuit_output(template, yy, th)
    hess = gradients.mixed_hessian(template, y, theta)
    pairs = [(0, 0), (5, 1), (11, 2)]
    fd = [reference.fd_mixed(f, theta, y, p, j, workloads.GRADIENT_STEP)
          for p, j in pairs]
    got = np.array([hess[p, j] for p, j in pairs])
    assert checks.close("hessian", got, fd, checks.HESSIAN_ATOL) is None
    assert checks.close("hessian", got + 1e-4, fd, checks.HESSIAN_ATOL) is not None


def test_energy_and_force_checks(h2o_model):
    _, trained, desc, _, interior = h2o_model
    carts = np.stack([s.cartesian for s in interior[:3]])
    minus_grad = workloads._minus_gradient(trained.predict_energy_batch, carts,
                                           workloads.FORCE_STEP)
    for cart, mg in zip(carts, minus_grad):
        energy = trained.predict_energy(cart)
        ref = reference.qnn_energy(trained, desc, cart)
        assert checks.energy("E", energy, ref) is None
        assert checks.energy("E", energy + 1e-6, ref) is not None
        forces = trained.predict_forces(cart)
        assert checks.forces("F", forces, mg) is None
        assert checks.forces("F", -forces, mg) is not None


def test_mlp_reference_and_force_check(h2o_model):
    qnn, _, desc, _, interior = h2o_model
    ff = workloads._mlp(presets.get_preset("h2o"), qnn, seed=3)
    carts = np.stack([s.cartesian for s in interior[:3]])
    minus_grad = workloads._minus_gradient(ff.predict_energy_batch, carts,
                                           workloads.FORCE_STEP)
    for cart, mg in zip(carts, minus_grad):
        ref = reference.mlp_energy(ff, desc, cart)
        assert checks.energy("E", ff.predict_energy(cart), ref) is None
        assert checks.energy("E", ff.predict_energy(cart) * (1 + 1e-6), ref) is not None
        assert checks.forces("F", ff.predict_forces(cart), mg) is None
        assert checks.forces("F", -ff.predict_forces(cart), mg) is not None


@pytest.mark.parametrize("chi", [0.0, 1.0])
def test_reference_loss_matches_program_loss(h2o_model, chi):
    qnn, trained, desc, ds, interior = h2o_model
    subset = workloads._subset(ds, interior[:2])
    program = train.loss_chi(trained, subset, train.LossSpec(chi))
    ref = reference.scaled_loss(trained, desc, subset, chi, trained.theta,
                                workloads.FORCE_STEP)
    assert checks.loss("loss", program, ref) is None
    assert checks.loss("loss", program * (1 + 1e-5), ref) is not None


def test_out_of_range_lih_forces_fail_the_check():
    """The clamp fault the lih workload counts: beyond the fitted bond range
    the energy is clamped flat while the force keeps the clamped slope."""
    case = workloads.build_lih(0)
    trained, _ = train.adam_fit(case.qnn, case.adam_set, train.LossSpec(0.0),
                                train.AdamConfig(max_steps=2))
    desc = reference.Descriptors(case.preset.coords, case.preset.features,
                                 case.fit_set.cartesians())
    carts = np.stack([data.diatomic_geometry(r) for r in (8.06, 4.0)])
    minus_grad = workloads._minus_gradient(trained.predict_energy_batch, carts,
                                           workloads.FORCE_STEP)
    outside, inside = carts
    assert np.max(np.abs(desc.scaled(outside))) > 1.0
    assert checks.forces("F", trained.predict_forces(outside), minus_grad[0]) is not None
    assert checks.forces("F", trained.predict_forces(inside), minus_grad[1]) is None


def test_training_loss_checks():
    assert checks.finite_losses("L", [0.5, 0.4]) is None
    assert checks.finite_losses("L", [0.5, np.nan]) is not None
    assert checks.finite_losses("L", []) is not None


def test_effective_dimension_check():
    assert checks.effective_dimension(12.5, 73) is None
    assert checks.effective_dimension(73.0, 73) is None
    for bad in (0.0, -1.0, 73.5, np.nan):
        assert checks.effective_dimension(bad, 73) is not None


def _harmonic(x):
    return 0.5 * float(x @ x), -x


def test_drift_check_accepts_verlet_and_rejects_first_order():
    def drift(dt, steps, integrator):
        cfg = dynamics.MdConfig(dt=dt, steps=steps, masses=[0.05], x0=[1.0], v0=[0.0])
        traj = integrator(_harmonic, cfg)
        return float(np.max(np.abs(traj.total - traj.total[0])))

    def euler(provider, cfg):   # symplectic Euler: first-order energy error
        x, v = cfg.x0.copy(), cfg.v0.copy()
        m = cfg.masses * dynamics.AMU_ANG2_FS2_IN_EV
        totals = []
        for _ in range(cfg.steps + 1):
            e, f = provider(x)
            totals.append(e + 0.5 * float(m @ v ** 2))
            v = v + cfg.dt * f / m
            x = x + cfg.dt * v
        return types.SimpleNamespace(total=np.array(totals))

    vv = dynamics.velocity_verlet_run
    assert checks.drift_ratio(drift(0.02, 50, vv), drift(0.01, 100, vv)) is None
    assert checks.drift_ratio(drift(0.02, 50, euler),
                              drift(0.01, 100, euler)) is not None
    assert checks.drift_ratio(1.0, 0.0) is not None


def test_domain_and_repeat_checks():
    assert checks.inside_domain("MD", [[0.2, -1.0], [0.99, 0.5]]) is None
    assert checks.inside_domain("MD", [[0.2, -1.0001]]) is not None
    assert checks.identical("x", np.array([1.0, 2.0]), np.array([1.0, 2.0])) is None
    assert checks.identical("x", np.array([1.0, 2.0]),
                            np.array([1.0, 2.0 + 1e-15])) is not None


# -- tracing ------------------------------------------------------------------

def test_tracer_self_time_and_missing_targets():
    inner_mod = types.ModuleType("benchfake.inner")
    outer_mod = types.ModuleType("benchfake.outer")
    exec("import time\n"
         "def inner():\n    time.sleep(0.02)\n", inner_mod.__dict__)
    outer_mod.inner = None
    exec("import time\n"
         "def outer():\n    time.sleep(0.01)\n    inner()\n    return 3\n",
         outer_mod.__dict__)
    outer_mod.inner = inner_mod.inner     # as ``from inner import inner``
    sys.modules.update({"benchfake": types.ModuleType("benchfake"),
                        "benchfake.inner": inner_mod, "benchfake.outer": outer_mod})
    try:
        tracer = tracing.Tracer()
        tracer.install([
            ("benchfake.inner", "inner", "fake.inner", None, False),
            ("benchfake.outer", "outer", "fake.outer", None, False),
            ("benchfake.outer", "gone", "fake.gone", None, False),
        ])
        assert tracer.missing == ["benchfake.outer.gone"]
        assert outer_mod.outer() == 3 and not tracer.spans   # disabled
        with tracer.op("call"):
            outer_mod.outer()
        calls_in, self_in, _ = tracer.agg["round", "fake.inner"]
        calls_out, self_out, _ = tracer.agg["round", "fake.outer"]
        assert calls_in == calls_out == 1
        assert 0.015 < self_in < 0.05 and 0.005 < self_out < 0.018
        names = {span[2]: span for span in tracer.spans}
        assert names["fake.inner"][1] == names["fake.outer"][0]
        assert names["fake.outer"][1] == names["op.call"][0]
    finally:
        for name in ("benchfake", "benchfake.inner", "benchfake.outer"):
            sys.modules.pop(name, None)


# -- the metric contract --------------------------------------------------------

def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(workloads.E2E)
    assert ([(m["name"], m["unit"]) for m in spec["per_layer"]]
            == tracing.per_layer_names())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_run_without_sources_fails(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "lih", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
