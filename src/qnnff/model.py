"""End-to-end force field: descriptor pipeline + model + label scaling.

The model output lives in [-1, 1]; an affine label transform fit on the
training energies maps that band onto physical eV.  Energies are

    E(C) = scale * f_theta(pipeline(C)) + offset

and forces follow by the exact chain rule through the pipeline Jacobian,

    F(C) = -scale * grad_y f . d(pipeline)/dC,

so energy and force predictions are consistent by construction.
"""

from __future__ import annotations

import contextlib
import json
import os
from dataclasses import dataclass, field

import numpy as np

from . import gradients
from .circuit import QnnTemplate, template_from_dict, template_to_dict
from .descriptors import DescriptorPipeline, pipeline_from_dict, pipeline_to_dict
from .errors import ArgumentError, CheckpointError, DataError

CHECKPOINT_FORMAT = "qnnff-checkpoint"
CHECKPOINT_VERSION = 1

LABEL_HEADROOM = 0.1  # training energies map into +-(1 - headroom)


def fit_label_scaling(energies, headroom: float = LABEL_HEADROOM):
    """Affine transform sending [E_min, E_max] onto +-(1 - headroom)."""
    e = np.asarray(energies, dtype=float)
    if not np.all(np.isfinite(e)):
        raise DataError("cannot fit the label scaling to non-finite energies")
    lo, hi = float(e.min()), float(e.max())
    offset = 0.5 * (hi + lo)
    scale = (hi - lo) / (2.0 * (1.0 - headroom)) if hi > lo else 1.0
    return scale, offset


class ForceFieldMixin:
    """Energies and forces, as in the module docstring, of a family that
    holds ``pipeline``, ``theta``, ``energy_scale`` and ``energy_offset``,
    has a ``param_count`` and a box ``PARAM_BOUNDS`` that its effective
    dimension draws parameters from, and supplies one hook,

        sweep(features, theta, params=False, inputs=False, value=True)
            -> (f (B,), d f / d theta (B, d) or None, d f / d y (B, N) or None)

    the outputs of a feature matrix and, on request, their gradients, all
    from one pass; with ``value`` false a family that counts circuits leaves
    f uncharged.  Predictions and training both run on the hook, and
    ``predict_energy`` asks it for no gradient."""

    def feature_matrix(self, geoms) -> np.ndarray:
        return self.pipeline.apply_batch(geoms)

    def predict_energy(self, geom) -> float:
        f = self.sweep(self.pipeline.apply(geom)[None], self.theta)[0]
        return self.energy_scale * float(f[0]) + self.energy_offset

    def predict_energy_batch(self, geoms) -> np.ndarray:
        f = self.sweep(self.feature_matrix(geoms), self.theta)[0]
        return self.energy_scale * f + self.energy_offset

    def predict_forces(self, geom) -> np.ndarray:
        y, jac = self.pipeline.apply_with_jacobian(geom)
        grads = self.sweep(y[None], self.theta, inputs=True, value=False)[2]
        return self._forces(grads, jac[None])[0]

    def energy_forces(self, geoms):
        """Energies (B,) and forces (B, 3n) from one descriptor pass."""
        y, jac = self.pipeline.apply_with_jacobian_batch(geoms)
        f, _, grads = self.sweep(y, self.theta, inputs=True)
        return self.energy_scale * f + self.energy_offset, self._forces(grads, jac)

    def _forces(self, grads: np.ndarray, jac: np.ndarray) -> np.ndarray:
        return -self.energy_scale * np.einsum("bj,bjc->bc", grads, jac)

    def hvp_params(self, features, theta, directions) -> np.ndarray:
        """d/d theta of sum_j v_bj d f / d y_j per row b, the mixed Hessian
        times the directions v (B, N), which force-weighted ADAM needs."""
        raise ArgumentError(f"{type(self).__name__} supplies no mixed Hessian, "
                            "so ADAM cannot weight forces (chi > 0); pass chi = 0")

    def _check(self) -> None:
        """Theta's shape and the label scaling; every family's constructor
        runs it."""
        self.theta = np.asarray(self.theta, dtype=float)
        if self.theta.shape != (self.param_count,):
            raise ArgumentError(f"theta has shape {self.theta.shape}, the model "
                                f"wants {self.param_count} parameters")
        if not (np.isfinite(self.energy_scale) and self.energy_scale > 0):
            raise ArgumentError("energy scale must be finite and positive")
        if not np.isfinite(self.energy_offset):
            raise ArgumentError("energy offset must be finite")

    def scaled_energy(self, energy) -> np.ndarray:
        """Map physical energies into model-output units."""
        return (np.asarray(energy, dtype=float) - self.energy_offset) / self.energy_scale


@dataclass
class QffModel(ForceFieldMixin):
    """Trained (or trainable) circuit force field."""

    template: QnnTemplate
    pipeline: DescriptorPipeline
    theta: np.ndarray
    energy_scale: float
    energy_offset: float
    metadata: dict = field(default_factory=dict)

    PARAM_BOUNDS = (-np.pi, np.pi)

    def __post_init__(self):
        self._check()
        if self.pipeline.num_features != self.template.num_features:
            raise ArgumentError(
                f"pipeline emits {self.pipeline.num_features} features, "
                f"template expects {self.template.num_features}"
            )

    @property
    def param_count(self) -> int:
        return self.template.param_count

    def sweep(self, features, theta, params=False, inputs=False, value=True):
        return gradients.sweep(self.template, features, theta, params, inputs,
                               value)

    def hvp_params(self, features, theta, directions) -> np.ndarray:
        return gradients.hvp_params_batch(self.template, features, theta,
                                          directions)


def initialized_model(template: QnnTemplate, pipeline: DescriptorPipeline,
                      train_energies, metadata: dict | None = None) -> QffModel:
    """Zero-parameter model with label scaling fit on the training energies."""
    scale, offset = fit_label_scaling(train_energies)
    return QffModel(template, pipeline, np.zeros(template.param_count),
                    scale, offset, metadata or {})


def bond_energy_force(model, r: float):
    """Energy and the signed bond-axis force of a diatomic model at distance r.

    The bond force is -dE/dr; in the canonical axis-aligned geometry it is
    the x component of the force on the second atom.
    """
    from .data import diatomic_geometry

    energies, forces = model.energy_forces(diatomic_geometry(r)[None])
    return float(energies[0]), forces[0, 3]


# ---------------------------------------------------------------------------
# Checkpoints.  One JSON container serves both model families; the family tag
# selects the payload interpretation on load.

def _model_payload(model) -> dict:
    from . import baseline

    if isinstance(model, QffModel):
        return {
            "family": "qnn",
            "template": template_to_dict(model.template),
            "theta": [float(v) for v in model.theta],
        }
    if isinstance(model, baseline.MlpForceField):
        return baseline.mlp_payload(model)
    raise ArgumentError(f"cannot checkpoint object of type {type(model).__name__}")


def save_checkpoint(model, path) -> None:
    payload = _model_payload(model)
    payload.update({
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "pipeline": pipeline_to_dict(model.pipeline),
        "energy_scale": float(model.energy_scale),
        "energy_offset": float(model.energy_offset),
        "metadata": dict(model.metadata),
    })
    # Serialise into a temporary file beside the target and rename it over
    # the target, so a failed save leaves any earlier checkpoint intact.
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w") as fh:
            json.dump(payload, fh, indent=1)
            fh.write("\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException as exc:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        if not isinstance(exc, OSError):
            raise
        raise CheckpointError(
            f"cannot write checkpoint {path}: {exc.strerror or exc}") from exc


def load_checkpoint(path):
    from . import baseline

    try:
        with open(path) as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CheckpointError(
            f"{path}: not a valid checkpoint (line {exc.lineno}, col {exc.colno}: "
            f"{exc.msg})"
        ) from exc
    if payload.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(f"{path}: missing or wrong format tag")
    version = payload.get("version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"{path}: unsupported checkpoint version {version!r} "
            f"(this build reads version {CHECKPOINT_VERSION})"
        )
    try:
        # json reads NaN and Infinity; no checkpoint field may hold them
        for name, value in (("theta", payload["theta"]),
                            ("energy_scale", payload["energy_scale"]),
                            ("energy_offset", payload["energy_offset"]),
                            ("pipeline bounds", payload["pipeline"].get("bounds"))):
            if value is not None and not np.all(np.isfinite(np.asarray(value, dtype=float))):
                raise CheckpointError(f"{path}: non-finite value in {name}")
        pipeline = pipeline_from_dict(payload["pipeline"])
        scale = float(payload["energy_scale"])
        offset = float(payload["energy_offset"])
        metadata = dict(payload.get("metadata", {}))
        family = payload["family"]
        if family == "qnn":
            template = template_from_dict(payload["template"])
            theta = np.array(payload["theta"], dtype=float)
            return QffModel(template, pipeline, theta, scale, offset, metadata)
        if family == "mlp":
            return baseline.mlp_from_payload(payload, pipeline, scale, offset,
                                             metadata)
        raise CheckpointError(f"{path}: unknown model family {family!r}")
    except ArgumentError as exc:
        raise CheckpointError(f"{path}: {exc}") from exc
    except KeyError as exc:
        raise CheckpointError(f"{path}: missing checkpoint field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: malformed checkpoint field: {exc}") from exc
