"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  The LiH training fixture is shared by criteria 6, 8 and 9; budget
about ten minutes for the whole module on one core.
"""

import time

import numpy as np
import pytest

from qnnff import gradients, statevec
from qnnff.baseline import MlpSpec, mlp_param_grad_fn
from qnnff.capacity import effective_dimension
from qnnff.circuit import (
    AnsatzSpec,
    EncodingSpec,
    InputExpr,
    assemble_qnn,
    bind,
    encoding_monomials,
)
from qnnff.data import mirror_augment, morse_oracle, train_test_split
from qnnff.descriptors import bond_angle, bond_length, dihedral
from qnnff.dynamics import (
    MdConfig,
    dominant_frequency,
    oscillation_spectrum,
    qnn_model_spectrum,
    spectral_mass_outside,
    velocity_verlet_run,
)
from qnnff.gradients import eval_qnn, grad_inputs, grad_params, mixed_hessian
from qnnff.model import bond_energy_force, initialized_model
from qnnff.presets import generate_lih, get_preset, reduced_mass
from qnnff.train import AdamConfig, LossSpec, adam_fit

from helpers import central_diff


def report(num, name, ok, detail=""):
    line = f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def random_small_template(rng, depth=3):
    ent = str(rng.choice(["linear", "circular", "full"]))
    sets = ((0, 1, 2),) if rng.random() < 0.7 else ()
    enc = EncodingSpec(3, ent, sets)
    return assemble_qnn(enc, AnsatzSpec(3, ent, sets), depth)


@pytest.fixture(scope="module")
def lih_training():
    """Morse-surrogate dataset (50 train / 120 test, mirrored), LiH preset
    (N=3, D=10, full coupling, degree-3 set), ADAM from zero init."""
    preset = get_preset("lih")
    data = generate_lih(170, mirror=True)
    train_set, test_set = train_test_split(data, 50, seed=0)
    template = preset.template()
    pipeline = preset.pipeline().fit(train_set.cartesians())
    model = initialized_model(template, pipeline, train_set.energies())
    trained, rep = adam_fit(model, train_set, LossSpec(chi=0.0),
                            AdamConfig(max_steps=4000, seed=0),
                            validation=test_set)
    return trained, rep, train_set, test_set


def test_criterion_1_gradient_exactness():
    started = time.monotonic()
    rng = np.random.default_rng(100)
    worst = 0.0
    for _ in range(20):
        t = random_small_template(rng)
        y = rng.uniform(-0.6, 0.6, size=3)
        theta = rng.uniform(-np.pi, np.pi, size=t.param_count)
        gp = grad_params(t, y, theta)
        fd_p = central_diff(lambda th: eval_qnn(t, y, th), theta, h=1e-4)
        gi = grad_inputs(t, y, theta)
        fd_i = central_diff(lambda yy: eval_qnn(t, yy, theta), y, h=1e-4)
        worst = max(worst, np.max(np.abs(gp - fd_p)), np.max(np.abs(gi - fd_i)))
    elapsed = time.monotonic() - started
    report(1, "shift-rule gradients vs central differences",
           worst <= 1e-6 and elapsed <= 10.0,
           f"max |error| = {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_second_order_exactness():
    started = time.monotonic()
    rng = np.random.default_rng(200)
    worst = 0.0
    for _ in range(5):
        t = random_small_template(rng)
        y = rng.uniform(-0.6, 0.6, size=3)
        theta = rng.uniform(-np.pi, np.pi, size=t.param_count)
        hess = mixed_hessian(t, y, theta)
        h = 1e-4
        fd = np.empty_like(hess)
        for j in range(3):
            yp, ym = y.copy(), y.copy()
            yp[j] += h
            ym[j] -= h
            fd[:, j] = (grad_params(t, yp, theta)
                        - grad_params(t, ym, theta)) / (2 * h)
        worst = max(worst, float(np.max(np.abs(hess - fd))))
    elapsed = time.monotonic() - started
    report(2, "nested-shift mixed Hessian vs FD of the shift gradient",
           worst <= 1e-5 and elapsed <= 60.0,
           f"max |error| = {worst:.2e}, {elapsed:.1f}s")


def test_criterion_3_parameter_counts():
    lih = get_preset("lih").template()
    h2o = get_preset("h2o").template()
    h3o = get_preset("h3o").template()
    # the 6-qubit linear config with sliding degree-3 windows yields
    # 6 + 10 * (6 + 5 + 4) = 156 parameters; reported as computed
    ok = (lih.param_count == 73 and h2o.param_count == 87
          and h3o.param_count == 156)
    report(3, "preset parameter counts",
           ok, f"lih d={lih.param_count}, h2o d={h2o.param_count}, "
               f"h3o d={h3o.param_count} (computed, not forced)")


def test_criterion_4_identity_initialization():
    rng = np.random.default_rng(400)
    preset = get_preset("lih")
    t = preset.template()
    worst = 0.0
    for _ in range(5):
        y = rng.uniform(-np.pi, np.pi, size=3)
        zero = np.zeros(t.param_count)
        full = statevec.run_circuit(statevec.init_zero(3), bind(t, y, zero))
        stage = [g for g, s in zip(bind(t, y, zero), t.gates)
                 if isinstance(s.source, InputExpr)]
        enc_only = statevec.run_circuit(statevec.init_zero(3), stage)
        worst = max(worst, float(np.max(np.abs(full.amplitudes
                                               - enc_only.amplitudes))))
    report(4, "zero parameters act as the identity",
           worst <= 1e-12, f"max amplitude deviation = {worst:.2e}")


def test_criterion_5_fourier_support():
    rng = np.random.default_rng(500)
    worst = 0.0
    for depth in (1, 2, 4):
        t = assemble_qnn(EncodingSpec(1), AnsatzSpec(1), depth)
        for _ in range(4):
            theta = rng.uniform(-np.pi, np.pi, size=t.param_count)
            freqs, mags = qnn_model_spectrum(t, theta, grid_points=64)
            worst = max(worst, spectral_mass_outside(freqs, mags, depth))
    report(5, "re-uploading Fourier support limited to depth",
           worst <= 1e-10, f"max outside mass = {worst:.2e}")


def test_criterion_6_lih_reproduction(lih_training):
    trained, rep, train_set, test_set = lih_training
    scale = trained.energy_scale
    rmse_e = rep.val_rmse_energy / scale
    rmse_f = rep.val_rmse_forces / scale
    ok = (rmse_e <= 1e-2 and rmse_f <= 0.1 and rep.wall_time <= 1800
          and rep.epochs <= 4000)
    report(6, "LiH surrogate training reaches target accuracy", ok,
           f"scaled val RMSE(E) = {rmse_e:.2e} (<= 1e-2), "
           f"scaled val RMSE(F) = {rmse_f:.2e} (<= 0.1), "
           f"epochs = {rep.epochs}, wall = {rep.wall_time / 60:.1f} min")


def test_criterion_7_capacity_ordering(lih_training):
    started = time.monotonic()
    trained, _, train_set, _ = lih_training
    feats = np.stack([trained.pipeline.apply(c)
                      for c in train_set.cartesians()])
    template = trained.template
    enc = get_preset("lih").encoding_spec()
    mono = np.stack([encoding_monomials(enc, y) for y in feats])
    mlp = MlpSpec((7, 4, 5, 2, 1))  # 72 parameters, matched to d = 73
    wins = 0
    for seed in range(10):
        q = effective_dimension(gradients.qnn_param_grad_fn(template), feats,
                                dim=template.param_count, n=50,
                                bounds=(-np.pi, np.pi), draws=100, seed=seed)
        c = effective_dimension(mlp_param_grad_fn(mlp), mono,
                                dim=mlp.param_count, n=50,
                                bounds=(-1.0, 1.0), draws=100, seed=seed)
        wins += q.normalized > c.normalized
    elapsed = time.monotonic() - started
    report(7, "normalized effective dimension: circuit above matched network",
           wins >= 8 and elapsed <= 600,
           f"{wins}/10 trials, {elapsed:.0f}s")


def test_criterion_8_energy_force_consistency(lih_training):
    trained, _, _, _ = lih_training
    rng = np.random.default_rng(800)
    h = 1e-5
    worst = 0.0
    for _ in range(50):
        r = rng.uniform(1.1, 4.2)
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        origin = rng.uniform(-1, 1, size=3)
        geom = np.concatenate([origin, origin + r * direction])
        forces = trained.predict_forces(geom)
        fd = np.zeros_like(geom)
        for c in range(6):
            xp, xm = geom.copy(), geom.copy()
            xp[c] += h
            xm[c] -= h
            fd[c] = -(trained.predict_energy(xp)
                      - trained.predict_energy(xm)) / (2 * h)
        worst = max(worst, float(np.max(np.abs(forces - fd))))
    report(8, "trained forces equal minus the energy gradient",
           worst <= 1e-5, f"max |difference| = {worst:.2e} eV/A")


def test_criterion_9_md_conservation_and_frequency(lih_training):
    trained, _, _, _ = lih_training
    mu = reduced_mass(get_preset("lih"))

    def oracle_provider(x):
        e, f = morse_oracle(float(x[0]))
        return e, np.array([f])

    drift_traj = velocity_verlet_run(
        oracle_provider,
        MdConfig(dt=0.05, steps=10_000, masses=[mu], x0=[1.05], v0=[0.0]))
    drift = float(np.max(np.abs(drift_traj.total - drift_traj.total[0]))
                  / abs(drift_traj.total[0]))

    def model_provider(x):
        e, f = bond_energy_force(trained, float(x[0]))
        return e, np.array([f])

    config = MdConfig(dt=0.2, steps=2400, masses=[mu], x0=[1.05], v0=[0.0])
    oracle_traj = velocity_verlet_run(oracle_provider, config)
    model_traj = velocity_verlet_run(model_provider, config)
    f_oracle = dominant_frequency(*oscillation_spectrum(oracle_traj,
                                                        repetitions=10))
    f_model = dominant_frequency(*oscillation_spectrum(model_traj,
                                                       repetitions=10))
    rel = abs(f_model - f_oracle) / f_oracle
    report(9, "Verlet energy conservation and dominant frequency",
           drift <= 1e-4 and rel <= 0.05,
           f"drift = {drift:.2e}, oracle f = {f_oracle:.5f}/fs, "
           f"model f = {f_model:.5f}/fs, rel diff = {rel:.3f}")


def test_criterion_10_descriptor_correctness():
    rng = np.random.default_rng(1000)
    worst = 0.0
    checked = 0
    while checked < 8:
        pos = rng.uniform(-1.5, 1.5, size=(4, 3))
        pair_min = min(np.linalg.norm(pos[a] - pos[b])
                       for a in range(4) for b in range(a + 1, 4))
        if pair_min < 0.5:
            continue
        try:
            evaluations = [
                bond_length(pos, 0, 1),
                bond_angle(pos, 0, 1, 2),
                dihedral(pos, 0, 1, 2, 3),
            ]
        except Exception:
            continue
        fns = [lambda x: bond_length(x.reshape(4, 3), 0, 1)[0],
               lambda x: bond_angle(x.reshape(4, 3), 0, 1, 2)[0],
               lambda x: dihedral(x.reshape(4, 3), 0, 1, 2, 3)[0]]
        angle_val = evaluations[1][0]
        dihedral_val = evaluations[2][0]
        if not 0.3 < angle_val < np.pi - 0.3:
            continue
        if min(abs(dihedral_val), np.pi - abs(dihedral_val)) < 0.3:
            continue
        for (value, grad), fn in zip(evaluations, fns):
            fd = central_diff(fn, pos.ravel(), h=1e-5)
            worst = max(worst, float(np.max(np.abs(grad - fd))))
        checked += 1

    cis = np.array([[0, 1, 0], [0, 0, 0], [1, 0, 0], [1, 1, 0]], float)
    trans = np.array([[0, 1, 0], [0, 0, 0], [1, 0, 0], [1, -1, 0]], float)
    cis_ok = abs(dihedral(cis, 0, 1, 2, 3)[0]) <= 1e-12
    trans_ok = abs(abs(dihedral(trans, 0, 1, 2, 3)[0]) - np.pi) <= 1e-12

    invariance = 0.0
    pos = np.array([[0, 0, 0], [1.1, 0, 0], [0.1, 1.0, 0.2], [0.9, 0.8, 0.9]])
    for _ in range(5):
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        if np.linalg.det(q) < 0:
            q[:, 0] *= -1
        moved = pos @ q.T + rng.uniform(-2, 2, size=3)
        for fn in (lambda p: bond_length(p, 0, 1)[0],
                   lambda p: bond_angle(p, 0, 1, 2)[0],
                   lambda p: dihedral(p, 0, 1, 2, 3)[0]):
            invariance = max(invariance, abs(fn(moved) - fn(pos)))

    report(10, "internal coordinates: gradients, dihedral cases, invariance",
           worst <= 1e-7 and cis_ok and trans_ok and invariance <= 1e-9,
           f"max FD gap = {worst:.2e}, rigid-motion gap = {invariance:.2e}")


def test_criterion_11_mirroring():
    data = generate_lih(170, mirror=False, lo=0.9, hi=4.5)
    augmented = mirror_augment(data, 4.5)
    table = {}
    for s in augmented.samples:
        r = bond_length(s.cartesian.reshape(2, 3), 0, 1)[0]
        table[round(r, 12)] = s
    exact = True
    for r, s in table.items():
        partner = table.get(round(2 * 4.5 - r, 12))
        if partner is None:
            exact = False
            continue
        if partner.energy != s.energy:
            exact = False
        if not np.array_equal(partner.forces, -s.forces):
            exact = False
    report(11, "mirrored dataset is exactly even with odd bond forces",
           exact and len(augmented) == 2 * len(data),
           f"{len(augmented)} samples, symmetric about r = 4.5")
