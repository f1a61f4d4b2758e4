"""Pass/fail rules applied to program outputs; each returns a problem string
or None.  Tolerances are fixed here so the tests can show that every rule
rejects a wrong answer."""

from __future__ import annotations

import numpy as np

OUTPUT_ATOL = 1e-9        # circuit outputs, dense reference vs program
ENERGY_RTOL = 1e-9        # energies in eV, relative to 1 + |E|
GRADIENT_ATOL = 1e-7      # shift rule vs fourth-order differences
HESSIAN_ATOL = 1e-6       # nested shifts vs nested differences
FORCE_RTOL = 1e-6         # forces vs -grad E, relative to 1 + max |F|
LOSS_RTOL = 1e-7          # first recorded loss vs the reference loss
DRIFT_RATIO = (3.2, 4.8)  # Verlet drift(dt) / drift(dt / 2); 4 in the limit


def close(what: str, actual, expected, atol: float, rtol: float = 0.0):
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    if actual.shape != expected.shape:
        return f"{what}: shape {actual.shape} != {expected.shape}"
    err = np.abs(actual - expected)
    allowed = atol + rtol * np.abs(expected)
    if not np.all(np.isfinite(actual)) or np.any(err > allowed):
        worst = float(np.max(err)) if err.size else 0.0
        return f"{what}: max |error| {worst:.3e} exceeds tolerance"
    return None


def energy(what: str, actual: float, expected: float):
    return close(what, actual, expected, ENERGY_RTOL * (1 + abs(expected)))


def forces(what: str, actual, minus_grad):
    """Forces must equal the negative energy gradient."""
    scale = 1.0 + float(np.max(np.abs(minus_grad)))
    return close(what, actual, minus_grad, FORCE_RTOL * scale)


def loss(what: str, actual: float, expected: float):
    return close(what, actual, expected, LOSS_RTOL * (1 + abs(expected)))


def finite_losses(what: str, losses):
    if len(losses) == 0 or not np.all(np.isfinite(losses)):
        return f"{what}: a recorded loss is missing or not finite"
    return None


def effective_dimension(d_n: float, dim: int):
    if not (np.isfinite(d_n) and 0 < d_n <= dim):
        return f"effective dimension {d_n} outside (0, {dim}]"
    return None


def drift_ratio(drift_dt: float, drift_half_dt: float):
    """Velocity Verlet energy error is second order in the time step."""
    if not drift_half_dt > 0:
        return f"energy drift {drift_half_dt} at dt/2 is not positive"
    ratio = drift_dt / drift_half_dt
    lo, hi = DRIFT_RATIO
    if not lo <= ratio <= hi:
        return f"energy drift ratio {ratio:.3f} for halved dt outside [{lo}, {hi}]"
    return None


def inside_domain(what: str, scaled):
    """Every scaled descriptor coordinate within the training range [-1, 1]."""
    worst = float(np.max(np.abs(scaled)))
    if worst > 1.0:
        return f"{what}: left the training domain (max |scaled| = {worst:.6f})"
    return None


def identical(what: str, actual, expected):
    """Repeated rounds run the same operations on the same inputs."""
    if not np.array_equal(np.asarray(actual), np.asarray(expected)):
        return f"{what}: differs from the first round"
    return None
