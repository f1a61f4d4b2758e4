"""Loss functions and optimizers.

The loss is evaluated in scaled units: energies pass through the model's
affine label transform, forces are divided by the energy scale.  Training is
full batch with exact gradients, and both model families take one path: the
family's ``sweep`` hook gives the outputs, d f / d theta and, when the force
weight chi is nonzero, d f / d y for the force predictions, from one adjoint
sweep per sample for the circuit (``gradients.sweep``) and one backward pass
for the network.  The force term's parameter gradient needs the mixed
Hessian d^2 f / d theta d y only through its product with each sample's
force residual pulled back to the features, which the circuit's
``hvp_params`` (``gradients.hvp_params_batch``) gives from one
tangent-augmented sweep per sample (``gradients.mixed_hessian_batch``,
which builds the whole Hessian, is its reference).  The gradient-free path
drives the same loss through COBYLA and never requests a parameter
gradient.  Reports count circuit evaluations as the parameter-shift rule
would run them on hardware (the force term's 4dm per sample among them),
and the rows the simulator actually swept as simulated passes.  Parameters
start at zero so every trainable stage begins as the identity.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from . import gradients
from .data import Dataset
from .errors import ArgumentError, DataError, NumericalError


@dataclass(frozen=True)
class LossSpec:
    """Force weight chi in  loss = MSE(energy) + chi * MSE(forces)."""

    chi: float = 0.0

    def __post_init__(self):
        if not np.isfinite(self.chi) or self.chi < 0:
            raise ArgumentError("chi must be finite and non-negative")


@dataclass(frozen=True)
class AdamConfig:
    learning_rate: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    max_steps: int = 4000
    tolerance: float = 1e-6   # relative loss improvement per epoch ...
    patience: int = 50        # ... sustained below tolerance for this long
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.learning_rate < np.inf:
            raise ArgumentError("ADAM learning rate must be finite and "
                                f"positive, got {self.learning_rate}")
        if not (0 < self.beta1 < 1 and 0 < self.beta2 < 1):
            raise ArgumentError("ADAM betas must lie in (0, 1)")
        if self.max_steps < 1:
            raise ArgumentError("max_steps must be positive")


@dataclass
class TrainReport:
    losses: list[float]
    epochs: int
    converged: bool
    train_rmse_energy: float
    train_rmse_forces: float | None
    val_rmse_energy: float | None
    val_rmse_forces: float | None
    wall_time: float
    circuit_evals: int
    optimizer: str
    budget_exhausted: bool = False
    simulated_passes: int = 0

    def to_text(self) -> str:
        rows = [
            ("optimizer", self.optimizer),
            ("epochs", self.epochs),
            ("converged", self.converged),
            ("budget_exhausted", self.budget_exhausted),
            ("final_loss", self.losses[-1] if self.losses else float("nan")),
            ("train_rmse_energy_eV", self.train_rmse_energy),
            ("train_rmse_forces_eV_per_A", self.train_rmse_forces),
            ("val_rmse_energy_eV", self.val_rmse_energy),
            ("val_rmse_forces_eV_per_A", self.val_rmse_forces),
            ("wall_time_s", round(self.wall_time, 3)),
            ("circuit_evals", self.circuit_evals),
            ("simulated_passes", self.simulated_passes),
        ]
        return "\n".join(f"{k} = {v}" for k, v in rows)

    def save_loss_curve(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("# epoch loss\n")
            for i, loss in enumerate(self.losses):
                fh.write(f"{i} {loss!r}\n")


def zero_init(template) -> np.ndarray:
    """All-zero parameters: every trainable stage acts as the identity."""
    return np.zeros(template.param_count)


@dataclass
class _Problem:
    """Dataset lowered to arrays in scaled units, reused across epochs."""

    features: np.ndarray        # (B, N)
    energies: np.ndarray        # (B,) scaled
    jacobians: np.ndarray       # (B, N, 3n)
    forces: np.ndarray | None   # (B, 3n) scaled


def _lower(model, dataset: Dataset, chi: float) -> _Problem:
    if chi > 0 and not dataset.has_forces:
        raise DataError("chi > 0 requires force labels on every sample")
    feats, jacs = model.pipeline.apply_with_jacobian_batch(dataset.cartesians())
    forces = dataset.forces_matrix() / model.energy_scale if chi > 0 else None
    return _Problem(feats, model.scaled_energy(dataset.energies()), jacs, forces)


def _loss_terms(model, prob: _Problem, chi: float, theta: np.ndarray,
                params: bool = False):
    """Loss, energy and force residuals and, with ``params``, d f / d theta,
    all from one call of the family's hook."""
    f, g_param, gy = model.sweep(prob.features, theta, params=params,
                                 inputs=chi > 0)
    residual = f - prob.energies
    loss = float(np.mean(residual ** 2))
    force_residual = None
    if chi > 0:
        pred = -np.einsum("bj,bjc->bc", gy, prob.jacobians)
        force_residual = pred - prob.forces
        loss += chi * float(np.mean(force_residual ** 2))
    return loss, residual, force_residual, g_param


def loss_chi(model, dataset: Dataset, spec: LossSpec) -> float:
    """Scaled-unit loss: mean squared energy residual plus chi times the mean
    squared force-component residual."""
    prob = _lower(model, dataset, spec.chi)
    return _loss_terms(model, prob, spec.chi, model.theta)[0]


def _loss_and_grad(model, prob: _Problem, chi: float, theta: np.ndarray):
    loss, residual, force_residual, g_param = _loss_terms(model, prob, chi,
                                                          theta, params=True)
    grad = (2.0 / residual.size) * (g_param.T @ residual)
    if chi > 0:
        # d(pred)/d theta = -hess . J, contracted with the residual per
        # sample: the mixed Hessian times pull, one tangent sweep per sample
        pull = np.einsum("bjc,bc->bj", prob.jacobians, force_residual)
        hvp = model.hvp_params(prob.features, theta, pull)
        grad -= (2.0 * chi / force_residual.size) * hvp.sum(axis=0)
    return loss, grad


def adam_minimize(value_and_grad, theta0: np.ndarray, config: AdamConfig):
    """Plain full-batch ADAM with a patience-window convergence test.

    Returns (theta, losses, epochs, converged).  Shared by the circuit and
    classical model families so comparisons use one optimizer code path.
    """
    theta = np.asarray(theta0, dtype=float).copy()
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    losses: list[float] = []
    stall = 0
    for step in range(1, config.max_steps + 1):
        loss, grad = value_and_grad(theta)
        if not np.isfinite(loss) or not np.all(np.isfinite(grad)):
            raise NumericalError(
                f"non-finite loss or gradient at epoch {step} (loss={loss})"
            )
        if losses:
            prev = losses[-1]
            improvement = (prev - loss) / max(abs(prev), 1e-30)
            stall = stall + 1 if improvement < config.tolerance else 0
        losses.append(loss)
        if stall >= config.patience:
            return theta, losses, step, True
        m = config.beta1 * m + (1 - config.beta1) * grad
        v = config.beta2 * v + (1 - config.beta2) * grad ** 2
        m_hat = m / (1 - config.beta1 ** step)
        v_hat = v / (1 - config.beta2 ** step)
        theta = theta - config.learning_rate * m_hat / (np.sqrt(v_hat) + config.eps)
    return theta, losses, config.max_steps, False


def predict_dataset(model, dataset: Dataset, with_forces: bool):
    """Energies (B,) and forces (B, 3n) of every sample from one batched
    call; forces are None unless asked for and labelled."""
    geoms = dataset.cartesians()
    if with_forces and dataset.has_forces:
        return model.energy_forces(geoms)
    return model.predict_energy_batch(geoms), None


def prediction_rmse(dataset: Dataset, energies, forces):
    """Physical-unit RMSEs (eV, eV/A) of predictions; None for no forces."""
    rmse_e = float(np.sqrt(np.mean((energies - dataset.energies()) ** 2)))
    rmse_f = None
    if forces is not None:
        rmse_f = float(np.sqrt(np.mean((forces - dataset.forces_matrix()) ** 2)))
    return rmse_e, rmse_f


def evaluate_rmse(model, dataset: Dataset, with_forces: bool = True):
    """Physical-unit RMSEs (eV, eV/A); force RMSE is None without labels."""
    return prediction_rmse(dataset, *predict_dataset(model, dataset, with_forces))


def _finish(model, dataset, validation, theta, losses, epochs, converged,
            started, counts0, optimizer, budget_exhausted=False):
    """The fitted model and its report: training and validation RMSEs, wall
    time since ``started``, and circuit evaluations and simulated passes
    since ``counts0``, a snapshot of the counter."""
    trained = replace(model, theta=theta, metadata=dict(model.metadata))
    tr_e, tr_f = evaluate_rmse(trained, dataset)
    va_e = va_f = None
    if validation is not None:
        va_e, va_f = evaluate_rmse(trained, validation)
    return trained, TrainReport(
        losses=losses,
        epochs=epochs,
        converged=converged,
        train_rmse_energy=tr_e,
        train_rmse_forces=tr_f,
        val_rmse_energy=va_e,
        val_rmse_forces=va_f,
        wall_time=time.monotonic() - started,
        circuit_evals=gradients.counter.total - counts0.total,
        optimizer=optimizer,
        budget_exhausted=budget_exhausted,
        simulated_passes=gradients.counter.simulated - counts0.simulated,
    )


def adam_fit(model, dataset: Dataset, spec: LossSpec, config: AdamConfig,
             validation: Dataset | None = None):
    """Full-batch gradient descent with ADAM moments from the given model, a
    circuit or a network; weighting forces (chi > 0) needs the family's
    ``hvp_params``."""
    started = time.monotonic()
    counts0 = gradients.counter.snapshot()
    prob = _lower(model, dataset, spec.chi)
    theta, losses, epochs, converged = adam_minimize(
        lambda th: _loss_and_grad(model, prob, spec.chi, th),
        model.theta, config,
    )
    return _finish(model, dataset, validation, theta, losses, epochs,
                   converged, started, counts0, "adam")


def gradient_free_fit(model, dataset: Dataset, spec: LossSpec,
                      config: AdamConfig, validation: Dataset | None = None):
    """Derivative-free COBYLA over the same scaled loss; never evaluates a
    parameter gradient, so the only shift-rule calls are the input gradients
    used for force predictions when chi > 0."""
    from scipy.optimize import minimize

    if config.max_steps < model.param_count + 2:
        raise ArgumentError(
            f"COBYLA needs a budget of at least d + 2 = {model.param_count + 2} "
            f"loss evaluations, got {config.max_steps}")
    started = time.monotonic()
    counts0 = gradients.counter.snapshot()
    prob = _lower(model, dataset, spec.chi)
    best = {"theta": model.theta.copy(), "loss": np.inf}
    trace: list[float] = []

    def objective(theta):
        loss = _loss_terms(model, prob, spec.chi, theta)[0]
        if not np.isfinite(loss):
            raise NumericalError("non-finite loss during gradient-free fit")
        if loss < best["loss"]:
            best["loss"] = loss
            best["theta"] = np.array(theta, dtype=float)
        trace.append(best["loss"])
        return loss

    result = minimize(objective, model.theta, method="COBYLA",
                      options={"maxiter": config.max_steps, "rhobeg": 0.4})
    exhausted = len(trace) >= config.max_steps and not result.success
    return _finish(model, dataset, validation, best["theta"], trace,
                   len(trace), bool(result.success), started, counts0,
                   "cobyla", budget_exhausted=exhausted)
