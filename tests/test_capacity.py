import numpy as np
import pytest

from qnnff.baseline import MlpSpec, mlp_param_grad_fn
from qnnff.capacity import (EffectiveDimensionReport, _fisher_eigenvalues,
                            effective_dimension, fisher_matrix)
from qnnff.circuit import encoding_monomials
from qnnff.errors import ArgumentError
from qnnff.gradients import qnn_param_grad_fn
from qnnff.presets import generate_lih, get_preset


def test_fisher_single_sample_rank_one(rng):
    g = rng.normal(size=4)
    est = fisher_matrix(lambda th, x: g[None, :], [0], np.zeros(4))
    assert np.allclose(est.matrix, np.outer(g, g))
    assert np.linalg.matrix_rank(est.matrix) == 1


def test_fisher_zero_gradients():
    est = fisher_matrix(lambda th, x: np.zeros((5, 3)), range(5), np.zeros(3))
    assert np.allclose(est.matrix, 0.0)


def test_fisher_trace_identity(rng):
    grads = rng.normal(size=(6, 4))
    est = fisher_matrix(lambda th, x: grads, range(6), np.zeros(4))
    assert np.trace(est.matrix) == pytest.approx(np.mean(np.sum(grads ** 2, axis=1)))


def test_fisher_symmetry_and_psd(rng):
    grads = rng.normal(size=(8, 5))
    est = fisher_matrix(lambda th, x: grads, range(8), np.zeros(5))
    assert np.allclose(est.matrix, est.matrix.T)
    assert np.linalg.eigvalsh(est.matrix).min() >= -1e-10


@pytest.mark.parametrize("k, d", [(1, 4), (2, 156), (5, 9), (7, 7), (12, 5)])
def test_fisher_spectrum_from_the_smaller_side(rng, k, d):
    # with K < d the spectrum comes from the K x K Gram matrix, padded
    # with zeros; it is the spectrum of the d x d Fisher estimate
    grads = rng.normal(size=(k, d))
    grad_fn = lambda th, x: grads
    got = np.sort(_fisher_eigenvalues(grad_fn, range(k), np.zeros(d)))
    want = np.linalg.eigvalsh(fisher_matrix(grad_fn, range(k), np.zeros(d)).matrix)
    assert got.shape == (d,)
    assert np.max(np.abs(got - want)) < 1e-12


def test_fisher_spectrum_of_a_circuit_from_the_smaller_side(rng):
    t = get_preset("h3o").template()
    grad_fn = qnn_param_grad_fn(t)
    inputs = rng.uniform(-1.0, 1.0, size=(2, t.num_features))
    theta = rng.uniform(-np.pi, np.pi, size=t.param_count)
    got = np.sort(_fisher_eigenvalues(grad_fn, inputs, theta))
    want = np.linalg.eigvalsh(fisher_matrix(grad_fn, inputs, theta).matrix)
    assert np.max(np.abs(got - want)) < 1e-12


def test_effective_dimension_zero_fisher():
    rep = effective_dimension(lambda th, x: np.zeros((4, 3)), range(4),
                              dim=3, n=100, draws=10)
    assert rep.d_n == pytest.approx(0.0)
    assert rep.normalized == pytest.approx(0.0)


def test_effective_dimension_constant_identity_fisher():
    # F = gamma I exactly: gradient rows sqrt(gamma * d) e_k over K = d inputs
    d, gamma, n = 3, 1.0, 100
    rows = np.sqrt(gamma * d) * np.eye(d)
    rep = effective_dimension(lambda th, x: rows, range(d), dim=d, n=n,
                              draws=8)
    kappa = n / (2 * np.pi * np.log(n))
    expected = d * np.log(1 + kappa * gamma) / np.log(kappa)
    assert rep.d_n == pytest.approx(expected, rel=1e-10)
    assert rep.std_error == pytest.approx(0.0, abs=1e-12)


def test_effective_dimension_bounded_by_dim():
    # with unit-bounded outputs the circuit Fisher spectrum stays small and
    # the rank bound d_n <= d holds at the tested sample sizes
    preset = get_preset("lih")
    data = generate_lih(30)
    pipeline = preset.pipeline().fit(data.cartesians())
    template = preset.template(depth=2)
    feats = np.stack([pipeline.apply(c) for c in data.cartesians()[:10]])
    rep = effective_dimension(qnn_param_grad_fn(template), feats,
                              dim=template.param_count, n=50, draws=6, seed=4)
    assert 0.0 <= rep.d_n <= template.param_count


def test_small_n_domain_error():
    with pytest.raises(ArgumentError):
        effective_dimension(lambda th, x: np.zeros((2, 2)), range(2),
                            dim=2, n=10)
    with pytest.raises(ArgumentError):
        effective_dimension(lambda th, x: np.zeros((2, 2)), range(2),
                            dim=2, n=1)


def test_effective_dimension_deterministic():
    rows = np.eye(3)
    a = effective_dimension(lambda th, x: rows * np.linalg.norm(th), range(3),
                            dim=3, n=60, draws=12, seed=9)
    b = effective_dimension(lambda th, x: rows * np.linalg.norm(th), range(3),
                            dim=3, n=60, draws=12, seed=9)
    assert a.d_n == b.d_n
    assert a.std_error == b.std_error


def test_monte_carlo_convergence():
    # doubling the draw count moves the estimate by less than 3 SE
    def grad_fn(theta, x):
        return np.outer(np.sin(theta), np.ones(3)).T[:, : theta.size]

    base = effective_dimension(grad_fn, range(3), dim=4, n=80, draws=40, seed=2)
    double = effective_dimension(grad_fn, range(3), dim=4, n=80, draws=80, seed=2)
    assert abs(double.d_n - base.d_n) < 3 * max(base.std_error, 1e-6)


def test_trace_normalized_mode():
    rows = 0.01 * np.eye(3)
    plain = effective_dimension(lambda th, x: rows, range(3), dim=3, n=100,
                                draws=4)
    normed = effective_dimension(lambda th, x: rows, range(3), dim=3, n=100,
                                 draws=4, trace_normalize=True)
    assert normed.trace_normalized
    # normalization rescales the tiny Fisher up to trace d
    assert normed.d_n > plain.d_n


def test_qnn_exceeds_matched_mlp_smoke():
    # one budget-matched comparison (73 circuit vs 72 network parameters);
    # the acceptance suite repeats this over ten seeds
    preset = get_preset("lih")
    data = generate_lih(40)
    pipeline = preset.pipeline().fit(data.cartesians())
    template = preset.template()
    feats = np.stack([pipeline.apply(c) for c in data.cartesians()[:12]])
    rep_qnn = effective_dimension(qnn_param_grad_fn(template), feats,
                                  dim=template.param_count, n=50,
                                  bounds=(-np.pi, np.pi), draws=8, seed=0)
    enc = preset.encoding_spec()
    mono = np.stack([encoding_monomials(enc, y) for y in feats])
    spec = MlpSpec((7, 4, 5, 2, 1))
    rep_mlp = effective_dimension(mlp_param_grad_fn(spec), mono,
                                  dim=spec.param_count, n=50,
                                  bounds=(-1.0, 1.0), draws=8, seed=0)
    assert isinstance(rep_qnn, EffectiveDimensionReport)
    assert rep_qnn.normalized > rep_mlp.normalized
