"""The benchmark's workloads and the round of operations each one times.

Every workload runs the same round of user-facing calls on its own inputs:

* ``train.adam_fit``, one epoch per call, chained from zero parameters;
* ``train.gradient_free_fit`` (COBYLA) for its initial d + 2 evaluations;
* ``train.evaluate_rmse`` on held-out geometries, for the circuit model that
  ADAM just trained and for a budget-matched ``baseline.MlpForceField``;
* ``capacity.effective_dimension``, one draw per call, for the circuit
  template;
* ``dynamics.velocity_verlet_run`` driven by the trained circuit model.

A round repeats the same calls on the same inputs, so its outputs must
repeat exactly; the first round's outputs are also checked in depth against
``reference`` (outside the timed calls).  Inputs depend only on the seed.
"""

from __future__ import annotations

import resource
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from qnnff import (baseline, capacity, data, dynamics, gradients, presets,
                   train)
from qnnff import model as qmodel
from qnnff.circuit import encoding_exprs
from qnnff.errors import ArgumentError

import checks
import reference

clock = time.perf_counter

EFFDIM_N = 50          # sample size n in the effective-dimension formula
FORCE_STEP = 1e-6      # Angstrom, finite-difference step for -grad E
GRADIENT_STEP = 2e-4   # radians, finite-difference step on circuit angles
CHECKED_PARAMS = 6     # parameter-gradient entries compared per run
CHECKED_PAIRS = 4      # mixed-Hessian entries compared per run
INTERIOR = 0.98        # |scaled coordinate| bound for "inside the domain"


@dataclass
class Case:
    """Inputs of one workload, made from the seed."""

    seed: int
    preset: presets.MoleculePreset
    fit_set: data.Dataset          # geometries the descriptor scaler was fit on
    qnn: qmodel.QffModel           # zero parameters, label scaling fit
    chi: float
    adam_set: data.Dataset
    adam_calls: int                # one epoch each, chained
    cobyla_set: data.Dataset
    cobyla_calls: int
    heldout: data.Dataset
    chunk: int                     # held-out geometries per evaluate_rmse call
    mlp: baseline.MlpForceField
    mlp_reps: int
    effdim_inputs: np.ndarray
    effdim_calls: int              # one Monte Carlo draw each
    md_x0: np.ndarray
    md_dt: float                   # fs
    md_steps: int
    md_calls: int
    md_reduced: bool               # diatomic: reduced bond coordinate

    def chunks(self) -> list:
        return [_subset(self.heldout, self.heldout.samples[i:i + self.chunk])
                for i in range(0, len(self.heldout), self.chunk)]


@dataclass
class Round:
    times: dict = field(default_factory=dict)   # metric -> per-unit samples
    out: dict = field(default_factory=dict)     # outputs, repeated exactly
    model: object = None                        # circuit model ADAM trained
    trajectory: object = None
    attempted: int = 0


# ---------------------------------------------------------------------------
# Inputs.

def _without_forces(ds: data.Dataset) -> data.Dataset:
    """Energy-only copy, so chi = 0 fits skip force predictions on exit."""
    return data.Dataset([data.Sample(s.cartesian, s.energy) for s in ds.samples],
                        ds.elements, ds.preset, ds.provenance)


def _subset(ds: data.Dataset, samples) -> data.Dataset:
    return data.Dataset(list(samples), ds.elements, ds.preset, ds.provenance)


def _scaled(pipeline, cart) -> np.ndarray:
    q = pipeline.internal_values(cart)
    lo, hi = np.array(pipeline.bounds).T
    return 2.0 * (q - lo) / (hi - lo) - 1.0


def _interior(pipeline, samples) -> list:
    return [s for s in samples
            if np.max(np.abs(_scaled(pipeline, s.cartesian))) <= INTERIOR]


def _md_start(pipeline, samples) -> np.ndarray:
    """The sample farthest inside the fitted descriptor range: MD from a
    training extreme meets the clamp fault at once."""
    return min(samples, key=lambda s: np.max(np.abs(_scaled(pipeline, s.cartesian)))
               ).cartesian


def _heldout_inside(pipeline, count, rng, place, oracle, ds) -> data.Dataset:
    """Geometries whose internal coordinates are drawn inside the inner 90%
    of the fitted range, labelled by the surrogate oracle.  ``place`` builds
    Cartesians from the internal coordinates in the pipeline's order."""
    lo, hi = np.array(pipeline.bounds).T
    margin = 0.05 * (hi - lo)
    samples = []
    while len(samples) < count:
        try:
            cart = place(*rng.uniform(lo + margin, hi - margin))
        except ArgumentError:   # no placement reaches these values
            continue
        e, f = oracle(cart)
        samples.append(data.Sample(cart, e, f))
    return _subset(ds, samples)


def _mlp(preset, qnn, seed: int) -> baseline.MlpForceField:
    """tanh network on the encoded monomials, parameter count matched to d.
    The layer widths are searched with a fixed seed, so the network's cost
    does not vary with the workload seed; its weights do."""
    enc = preset.encoding_spec()
    spec = baseline.topology_search(budget_d=qnn.param_count,
                                    input_width=len(encoding_exprs(enc)),
                                    trials=8, seed=0)
    theta = baseline.pack_params(baseline.mlp_init_xavier(spec, seed=seed))
    return baseline.MlpForceField(spec, qnn.pipeline, theta, qnn.energy_scale,
                                  qnn.energy_offset, encoding=enc)


def _warm_up(case: Case) -> Case:
    geom = case.heldout.samples[0].cartesian
    for model in (case.qnn, case.mlp):
        model.predict_energy(geom)
        model.predict_forces(geom)
    return case


def build_lih(seed: int) -> Case:
    """The acceptance fixture: 170-point mirrored grid, 50/120 split."""
    preset = presets.get_preset("lih")
    full = presets.generate_lih(170, mirror=True)
    train_set, heldout = data.train_test_split(full, 50, seed=0)
    pipeline = preset.pipeline().fit(train_set.cartesians())
    qnn = qmodel.initialized_model(preset.template(), pipeline,
                                   train_set.energies())
    energy_only = _without_forces(train_set)
    rng = np.random.default_rng(seed)
    return _warm_up(Case(
        seed=seed, preset=preset, fit_set=train_set, qnn=qnn,
        chi=preset.chi, adam_set=energy_only, adam_calls=2,
        cobyla_set=energy_only, cobyla_calls=2, heldout=heldout, chunk=30,
        mlp=_mlp(preset, qnn, seed), mlp_reps=2,
        effdim_inputs=qnn.feature_matrix(train_set.cartesians()),
        effdim_calls=2, md_x0=np.array([rng.uniform(3.0, 6.0)]), md_dt=0.05,
        md_steps=25, md_calls=2, md_reduced=True))


def build_h3o(seed: int) -> Case:
    """Dihedral sweep; 16 training geometries make kernel arithmetic dominate."""
    preset = presets.get_preset("h3o")
    train_set = presets.generate_h3o(16, seed=seed)
    pipeline = preset.pipeline().fit(train_set.cartesians())
    qnn = qmodel.initialized_model(preset.template(), pipeline,
                                   train_set.energies())
    rng = np.random.default_rng(seed)
    heldout = _heldout_inside(pipeline, 12, rng, data.hydronium_geometry,
                              data.hydronium_oracle, train_set)
    energy_only = _without_forces(train_set)
    return _warm_up(Case(
        seed=seed, preset=preset, fit_set=train_set, qnn=qnn,
        chi=preset.chi, adam_set=energy_only, adam_calls=1,
        cobyla_set=_subset(energy_only, energy_only.samples[:8]),
        cobyla_calls=1, heldout=heldout, chunk=4,
        mlp=_mlp(preset, qnn, seed), mlp_reps=4,
        effdim_inputs=qnn.feature_matrix(train_set.cartesians()[:2]),
        effdim_calls=2, md_x0=_md_start(pipeline, train_set.samples),
        md_dt=0.005, md_steps=5, md_calls=3, md_reduced=False))


def build_h2o_forces(seed: int) -> Case:
    """The published H2O setting: depth 12, chi = 1.  The scaler is fit on 24
    geometries; the force-weighted fits use interior ones only, because at a
    coordinate's training extreme the descriptor Jacobian is clamped."""
    preset = presets.get_preset("h2o")
    fit_set = presets.generate_h2o(24, seed=seed)
    pipeline = preset.pipeline().fit(fit_set.cartesians())
    qnn = qmodel.initialized_model(preset.template(), pipeline,
                                   fit_set.energies())
    interior = _interior(pipeline, fit_set.samples)
    if len(interior) < 8:
        raise RuntimeError(f"seed {seed}: only {len(interior)} interior samples")
    rng = np.random.default_rng(seed)
    heldout = _heldout_inside(pipeline, 24, rng, data.triatomic_geometry,
                              data.triatomic_oracle, fit_set)
    return _warm_up(Case(
        seed=seed, preset=preset, fit_set=fit_set, qnn=qnn,
        chi=preset.chi, adam_set=_subset(fit_set, interior[:1]), adam_calls=2,
        cobyla_set=_subset(fit_set, interior[:4]), cobyla_calls=1,
        heldout=heldout, chunk=6,
        mlp=_mlp(preset, qnn, seed), mlp_reps=4,
        effdim_inputs=qnn.feature_matrix([s.cartesian for s in interior[:8]]),
        effdim_calls=2, md_x0=_md_start(pipeline, interior), md_dt=0.05,
        md_steps=10, md_calls=2, md_reduced=False))


WORKLOADS = {"lih": build_lih, "h3o": build_h3o, "h2o-forces": build_h2o_forces}


# ---------------------------------------------------------------------------
# One round.

def _md_provider(case: Case, model):
    if case.md_reduced:
        def provider(x):
            e, f = qmodel.bond_energy_force(model, float(x[0]))
            return e, np.array([f])
    else:
        def provider(x):
            return model.predict_energy(x), model.predict_forces(x)
    return provider


def _md_config(case: Case, dt: float, steps: int) -> dynamics.MdConfig:
    masses = ([presets.reduced_mass(case.preset)] if case.md_reduced
              else case.preset.masses)
    return dynamics.MdConfig(dt=dt, steps=steps, masses=masses, x0=case.md_x0,
                             v0=np.zeros_like(case.md_x0))


def _clamps(case: Case) -> int:
    return getattr(case.qnn.pipeline, "clamp_count", 0)


def run_round(case: Case, tracer) -> Round:
    r = Round()
    d = case.qnn.param_count
    spec = train.LossSpec(case.chi)

    trained, losses = case.qnn, []
    r.times["train_epoch_s"] = []
    for _ in range(case.adam_calls):   # one epoch per call, chained
        with tracer.op("adam_fit"):
            t = clock()
            trained, rep = train.adam_fit(trained, case.adam_set, spec,
                                          train.AdamConfig(max_steps=1))
            r.times["train_epoch_s"].append(clock() - t)
        losses += rep.losses
    r.model = trained
    r.out["adam_losses"] = np.array(losses)
    r.out["adam_theta"] = trained.theta

    r.times["cobyla_eval_s"], losses = [], []
    for _ in range(case.cobyla_calls):   # the same fit each call
        with tracer.op("gradient_free_fit"):
            t = clock()
            _, rep = train.gradient_free_fit(case.qnn, case.cobyla_set, spec,
                                             train.AdamConfig(max_steps=d + 2))
            r.times["cobyla_eval_s"].append((clock() - t) / len(rep.losses))
        losses.append(rep.losses)
    r.out["cobyla_losses"] = np.array(losses)

    chunks = case.chunks()
    for key, model, reps in (("qnn", trained, 1), ("mlp", case.mlp, case.mlp_reps)):
        times, rmse = r.times.setdefault(f"{key}_s_per_geom", []), []
        for _ in range(reps):
            for chunk in chunks:
                with tracer.op(f"evaluate_rmse.{key}"):
                    t = clock()
                    rmse.append(train.evaluate_rmse(model, chunk))
                    times.append((clock() - t) / len(chunk))
        r.out[f"{key}_rmse"] = np.array(rmse).reshape(reps, len(chunks), 2)

    grad_fn = gradients.qnn_param_grad_fn(case.qnn.template)
    r.times["effdim_draw_s"], d_n = [], []
    for k in range(case.effdim_calls):   # one Monte Carlo draw per call
        with tracer.op("effective_dimension"):
            t = clock()
            rep = capacity.effective_dimension(grad_fn, case.effdim_inputs,
                                               dim=d, n=EFFDIM_N, draws=1,
                                               seed=case.seed + k)
            r.times["effdim_draw_s"].append(clock() - t)
        d_n.append(rep.d_n)
    r.out["d_n"] = np.array(d_n)

    clamps0 = _clamps(case)
    provider = _md_provider(case, trained)
    config = _md_config(case, case.md_dt, case.md_steps)
    r.times["md_step_ms"], totals = [], []
    for _ in range(case.md_calls):   # the same trajectory each call
        with tracer.op("velocity_verlet_run"):
            t = clock()
            traj = dynamics.velocity_verlet_run(provider, config)
            r.times["md_step_ms"].append(1e3 * (clock() - t) / case.md_steps)
        totals.append(traj.total)
    r.trajectory = traj
    r.out["md_clamps"] = np.array(_clamps(case) - clamps0)
    r.out["md_positions"] = traj.positions
    r.out["md_total"] = np.array(totals)

    r.attempted = (case.adam_calls + r.out["cobyla_losses"].size
                   + len(case.heldout) * (1 + case.mlp_reps)
                   + case.effdim_calls + case.md_calls * case.md_steps)
    return r


def round_checks(case: Case, r: Round, first: Round | None) -> list:
    """Checks every round gets: finite losses, d_n range, no clamps in MD,
    repeated calls agreeing, and outputs equal to the first round's."""
    problems = [
        checks.finite_losses("ADAM losses", r.out["adam_losses"]),
        checks.finite_losses("COBYLA losses", r.out["cobyla_losses"].ravel()),
    ]
    problems += [checks.identical("repeated COBYLA fit", losses,
                                  r.out["cobyla_losses"][0])
                 for losses in r.out["cobyla_losses"][1:]]
    problems += [checks.effective_dimension(d_n, case.qnn.param_count)
                 for d_n in r.out["d_n"]]
    if r.out["md_clamps"]:
        problems.append(f"{int(r.out['md_clamps'])} descriptor clamps during MD")
    problems += [checks.identical("repeated MLP evaluation", rmse,
                                  r.out["mlp_rmse"][0])
                 for rmse in r.out["mlp_rmse"][1:]]
    problems += [checks.identical("repeated MD trajectory", total,
                                  r.out["md_total"][0])
                 for total in r.out["md_total"][1:]]
    if first is not None:
        problems += [checks.identical(key, r.out[key], first.out[key])
                     for key in first.out]
    return problems


# ---------------------------------------------------------------------------
# Checks of the first round against the reference.

def _minus_gradient(energy_batch, carts: np.ndarray, h: float) -> np.ndarray:
    """-dE/dx for each row of ``carts`` by the fourth-order central stencil,
    evaluating every displaced geometry in one batch."""
    b, c = carts.shape
    steps = np.array([2.0, 1.0, -1.0, -2.0])
    weights = np.array([-1.0, 8.0, -8.0, 1.0]) / (12 * h)
    shifted = (carts[:, None, None, :]
               + h * steps[None, None, :, None] * np.eye(c)[None, :, None, :])
    energies = np.asarray(energy_batch(shifted.reshape(-1, c))).reshape(b, c, 4)
    return -(energies @ weights)


def _prediction_checks(label, model, desc, heldout, chunk, ref_energy, rmse):
    """Energies against the reference, forces against -grad E.  A force
    mismatch on a geometry outside the fitted descriptor range is the known
    clamp fault and counts as a failed operation; anywhere else it is wrong."""
    carts = heldout.cartesians()
    energies = model.predict_energy_batch(carts)
    forces = np.stack([model.predict_forces(c) for c in carts])
    minus_grad = _minus_gradient(model.predict_energy_batch, carts, FORCE_STEP)
    problems, failed = [], 0
    for i, cart in enumerate(carts):
        problems.append(checks.energy(f"{label} energy, held-out geometry {i}",
                                      energies[i], ref_energy(cart)))
        bad = checks.forces(f"{label} forces, held-out geometry {i}",
                            forces[i], minus_grad[i])
        if bad and np.max(np.abs(desc.scaled(cart))) > 1.0:
            failed += 1
        else:
            problems.append(bad)
    rmse_e, rmse_f = [], []
    for i in range(0, len(carts), chunk):
        part = slice(i, i + chunk)
        rmse_e.append(np.sqrt(np.mean((energies[part] - heldout.energies()[part]) ** 2)))
        rmse_f.append(np.sqrt(np.mean(
            (forces[part] - heldout.forces_matrix()[part]) ** 2)))
    problems.append(checks.close(f"{label} evaluate_rmse", rmse,
                                 np.column_stack([rmse_e, rmse_f]), 0.0, 1e-12))
    return problems, failed


def _gradient_checks(case: Case, template, y, theta, rng) -> list:
    """Shift-rule engine against differences of the dense reference."""
    f = lambda th, yy: reference.circuit_output(template, yy, th)
    problems = []
    eval_batch = getattr(gradients, "eval_qnn_batch", None)
    if eval_batch is not None:
        problems.append(checks.close("circuit output",
                                     eval_batch(template, y[None], theta)[0],
                                     f(theta, y), checks.OUTPUT_ATOL))
    params = rng.choice(theta.size, size=CHECKED_PARAMS, replace=False)
    grad_params = getattr(gradients, "grad_params_batch", None)
    if grad_params is not None:
        problems.append(checks.close(
            "shift-rule parameter gradient",
            grad_params(template, y[None], theta)[0][params],
            reference.fd_gradient(lambda th: f(th, y), theta, GRADIENT_STEP, params),
            checks.GRADIENT_ATOL))
    grad_inputs = getattr(gradients, "grad_inputs_batch", None)
    if grad_inputs is not None:
        problems.append(checks.close(
            "shift-rule input gradient",
            grad_inputs(template, y[None], theta)[0],
            reference.fd_gradient(lambda yy: f(theta, yy), y, GRADIENT_STEP),
            checks.GRADIENT_ATOL))
    mixed_hessian = getattr(gradients, "mixed_hessian", None)
    if case.chi > 0 and mixed_hessian is not None:
        pairs = [(int(p), k % y.size) for k, p in enumerate(params[:CHECKED_PAIRS])]
        hess = mixed_hessian(template, y, theta)
        problems.append(checks.close(
            "nested-shift mixed Hessian", [hess[p, j] for p, j in pairs],
            [reference.fd_mixed(f, theta, y, p, j, GRADIENT_STEP) for p, j in pairs],
            checks.HESSIAN_ATOL))
    return problems


def _drift(traj) -> float:
    return float(np.max(np.abs(traj.total - traj.total[0])))


def verify(case: Case, first: Round) -> tuple[list, int]:
    """Deep checks of the first round; returns (problems, failed per round)."""
    desc = reference.Descriptors(case.preset.coords, case.preset.features,
                                 case.fit_set.cartesians())
    trained = first.model
    rng = np.random.default_rng([case.seed, 1])
    problems = [
        checks.loss("first ADAM loss", first.out["adam_losses"][0],
                    reference.scaled_loss(case.qnn, desc, case.adam_set,
                                          case.chi, case.qnn.theta, FORCE_STEP)),
        checks.loss("first COBYLA loss", first.out["cobyla_losses"][0, 0],
                    reference.scaled_loss(case.qnn, desc, case.cobyla_set,
                                          case.chi, case.qnn.theta, FORCE_STEP)),
    ]
    y = desc.features_of(case.adam_set.samples[0].cartesian)
    problems += _gradient_checks(case, trained.template, y, trained.theta, rng)

    p, failed_qnn = _prediction_checks(
        "QNN", trained, desc, case.heldout, case.chunk,
        lambda c: reference.qnn_energy(trained, desc, c), first.out["qnn_rmse"][0])
    problems += p
    p, failed_mlp = _prediction_checks(
        "MLP", case.mlp, desc, case.heldout, case.chunk,
        lambda c: reference.mlp_energy(case.mlp, desc, c), first.out["mlp_rmse"][0])
    problems += p

    traj = first.trajectory
    half = dynamics.velocity_verlet_run(
        _md_provider(case, trained),
        _md_config(case, case.md_dt / 2, 2 * case.md_steps))
    problems.append(checks.drift_ratio(_drift(traj), _drift(half)))
    frames = (traj.positions if not case.md_reduced else
              [data.diatomic_geometry(x[0]) for x in traj.positions])
    problems.append(checks.inside_domain("MD trajectory",
                                         [desc.scaled(f) for f in frames]))
    return problems, failed_qnn + case.mlp_reps * failed_mlp


# ---------------------------------------------------------------------------
# A whole run.

E2E = (("setup_s", "s"), ("train_epoch_s", "s"), ("cobyla_eval_s", "s"),
       ("predict_geoms_per_s", "1/s"), ("mlp_predict_geoms_per_s", "1/s"),
       ("effdim_draw_s", "s"), ("md_step_ms", "ms"), ("peak_rss_mb", "MB"))


@dataclass
class RunResult:
    problems: list
    attempted: int
    failed: int
    rounds: int
    setups: int
    e2e: dict
    samples: dict


def _set_up(build, seed: int, tracer, times: list) -> Case:
    tracer.scope = "setup"
    with tracer.op("setup"):
        t = clock()
        case = build(seed)
        times.append(clock() - t)
    tracer.scope = "round"
    return case


def run(name: str, seed: int, seconds: float, tracer) -> RunResult:
    """Set up, then alternate rounds and fresh set-ups until ``seconds`` of
    both have passed.  Set-up repeats once per round so that its samples,
    like every other metric's, are spread over the whole run."""
    build = WORKLOADS[name]
    setup_times = []
    case = _set_up(build, seed, tracer, setup_times)
    first, problems, samples = None, [], {}
    rounds = attempted = failed_per_round = 0
    measured = setup_times[0]
    while rounds == 0 or measured < seconds:
        t = clock()
        r = run_round(case, tracer)
        measured += clock() - t
        problems += round_checks(case, r, first)
        if first is None:
            first = r
            p, failed_per_round = verify(case, r)
            problems += p
        for key, values in r.times.items():
            samples.setdefault(key, []).extend(values)
        rounds += 1
        attempted += r.attempted
        if measured < seconds:
            case = _set_up(build, seed, tracer, setup_times)
            measured += setup_times[-1]

    # Per-call times mix the host's common speed with fast phases of seconds
    # to minutes; the 90th percentile stays with the common speed, where the
    # median moves with the share of fast phases a run happens to catch.
    p90 = {key: float(np.percentile(v, 90)) for key, v in samples.items()}
    e2e = {
        "setup_s": statistics.median(setup_times),
        "train_epoch_s": p90["train_epoch_s"],
        "cobyla_eval_s": p90["cobyla_eval_s"],
        "predict_geoms_per_s": 1.0 / p90["qnn_s_per_geom"],
        "mlp_predict_geoms_per_s": 1.0 / p90["mlp_s_per_geom"],
        "effdim_draw_s": p90["effdim_draw_s"],
        "md_step_ms": p90["md_step_ms"],
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    samples["setup_s"] = setup_times
    return RunResult([p for p in problems if p], attempted,
                     rounds * failed_per_round, rounds, len(setup_times), e2e,
                     samples)
