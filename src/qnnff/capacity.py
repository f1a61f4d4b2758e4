"""Fisher information and effective dimension for differentiable models.

The Fisher matrix is approximated by the average outer product of model
output gradients over K data inputs,

    F(theta) = (1/K) sum_k  g_k g_k^T,   g_k = grad_theta f_theta(x_k),

and the effective dimension at sample size n is

    d_n = 2 log( E_theta sqrt(det(1 + kappa F(theta))) ) / log kappa,

with kappa = n / (2 pi log n) and the expectation taken uniformly over a box
Omega in parameter space (Monte Carlo with M draws).  Determinants are
evaluated through eigenvalues and averaged in log space so large kappa never
overflows.  The optional trace normalization rescales F by d / mean(tr F)
before the determinant; the default applies the formula as stated.

A model enters through ``grad_fn(theta, inputs) -> (K, d)`` rows of output
gradients; adapters exist for both model families (``qnn_param_grad_fn`` and
``mlp_param_grad_fn``).  Draws use per-index seed sequences, so results are
independent of evaluation order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .errors import ArgumentError, NumericalError

PSD_TOLERANCE = -1e-10


@dataclass
class FisherEstimate:
    matrix: np.ndarray
    num_samples: int
    theta: np.ndarray


@dataclass
class EffectiveDimensionReport:
    n: int
    d_n: float
    normalized: float
    dim: int
    draws: int
    domain: str
    std_error: float
    kappa: float
    trace_normalized: bool

    def to_text(self) -> str:
        rows = [
            ("n", self.n),
            ("d_n", self.d_n),
            ("normalized_d_n", self.normalized),
            ("dim", self.dim),
            ("draws", self.draws),
            ("domain", self.domain),
            ("std_error", self.std_error),
            ("kappa", self.kappa),
            ("trace_normalized", self.trace_normalized),
        ]
        return "\n".join(f"{k} = {v}" for k, v in rows)


def _gradient_rows(grad_fn, inputs, theta: np.ndarray) -> np.ndarray:
    grads = np.atleast_2d(np.asarray(grad_fn(theta, inputs), dtype=float))
    if grads.shape[0] < 1:
        raise ArgumentError("need at least one data input")
    return grads


def fisher_matrix(grad_fn, inputs, theta) -> FisherEstimate:
    """Averaged outer product of output gradients at fixed parameters."""
    theta = np.asarray(theta, dtype=float)
    grads = _gradient_rows(grad_fn, inputs, theta)
    k = grads.shape[0]
    return FisherEstimate(matrix=(grads.T @ grads) / k, num_samples=k, theta=theta)


def _fisher_eigenvalues(grad_fn, inputs, theta) -> np.ndarray:
    """The d eigenvalues of the Fisher estimate G^T G / K at ``theta``.  With
    fewer inputs than parameters (K < d) they come from the K x K Gram
    matrix G G^T / K, which has the same nonzero eigenvalues, and d - K
    zeros."""
    theta = np.asarray(theta, dtype=float)
    grads = _gradient_rows(grad_fn, inputs, theta)
    k, d = grads.shape
    eig = np.linalg.eigvalsh((grads @ grads.T if k < d else grads.T @ grads) / k)
    if eig.min() < PSD_TOLERANCE:
        raise NumericalError(
            f"Fisher estimate lost positive semidefiniteness "
            f"(min eigenvalue {eig.min():.3e}) at theta={theta!r}"
        )
    return np.concatenate((np.zeros(max(d - k, 0)), np.clip(eig, 0.0, None)))


def effective_dimension(grad_fn, inputs, dim: int, n: int,
                        bounds: tuple[float, float] = (-np.pi, np.pi),
                        draws: int = 100, seed: int = 0,
                        trace_normalize: bool = False) -> EffectiveDimensionReport:
    """Monte Carlo effective dimension over Omega = [lo, hi]^dim."""
    if draws < 1:
        raise ArgumentError("need at least one Monte Carlo draw")
    if n < 2:
        raise ArgumentError("sample size n must be at least 2")
    kappa = n / (2 * np.pi * np.log(n))
    if kappa <= 1.0:
        raise ArgumentError(
            f"n={n} gives kappa={kappa:.4f} <= 1; the effective dimension "
            f"formula needs n / (2 pi log n) > 1"
        )
    lo, hi = bounds
    if hi <= lo:
        raise ArgumentError(f"invalid parameter domain ({lo}, {hi})")
    spectra = np.empty((draws, dim))
    for m in range(draws):
        rng = np.random.default_rng([seed, m])
        theta = rng.uniform(lo, hi, size=dim)
        spectra[m] = _fisher_eigenvalues(grad_fn, inputs, theta)
    if trace_normalize:
        mean_trace = float(spectra.sum(axis=1).mean())
        if mean_trace > 0:
            spectra = spectra * (dim / mean_trace)
    # 0.5 * logdet(1 + kappa F) per draw, averaged in log space
    half_logdet = 0.5 * np.sum(np.log1p(kappa * spectra), axis=1)
    if not np.all(np.isfinite(half_logdet)):
        bad = int(np.flatnonzero(~np.isfinite(half_logdet))[0])
        raise NumericalError(f"non-finite determinant at draw index {bad}")
    log_kappa = np.log(kappa)

    def estimate(values: np.ndarray) -> float:
        log_mean = logsumexp(values) - np.log(values.size)
        return float(2.0 * log_mean / log_kappa)

    d_n = estimate(half_logdet)
    if draws > 1:
        loo = np.array([
            estimate(np.delete(half_logdet, m)) for m in range(draws)
        ])
        std_error = float(np.sqrt((draws - 1) / draws
                                  * np.sum((loo - loo.mean()) ** 2)))
    else:
        std_error = float("nan")
    return EffectiveDimensionReport(
        n=n,
        d_n=d_n,
        normalized=d_n / dim,
        dim=dim,
        draws=draws,
        domain=f"uniform[{lo:g}, {hi:g}]^{dim}",
        std_error=std_error,
        kappa=float(kappa),
        trace_normalized=trace_normalize,
    )
