import numpy as np
import pytest

from qnnff.descriptors import (
    Angle,
    Bond,
    Dihedral,
    DescriptorPipeline,
    MoleculeGeometry,
    bond_angle,
    bond_length,
    dihedral,
    minmax_apply,
    minmax_derivative,
    minmax_fit,
    pipeline_from_dict,
    pipeline_to_dict,
)
from qnnff.errors import ArgumentError, DegenerateGeometryError, ScalerError

from helpers import central_diff


def lih_pipeline(bounds=((0.9, 4.5),)):
    return DescriptorPipeline(
        coords=(Bond(0, 1),),
        features=((0, "pi_scale"), (0, "arcsin"), (0, "arccos")),
        bounds=bounds,
    )


def water_pipeline():
    return DescriptorPipeline(
        coords=(Bond(0, 1), Bond(0, 2), Angle(1, 0, 2)),
        features=((0, "arcsin"), (1, "arcsin"), (2, "arcsin")),
    )


def random_positions(rng, n, min_dist=0.6):
    while True:
        pos = rng.uniform(-2, 2, size=(n, 3))
        dists = [np.linalg.norm(pos[a] - pos[b])
                 for a in range(n) for b in range(a + 1, n)]
        if min(dists) > min_dist:
            return pos


def test_bond_unit_displacement():
    r, grad = bond_length(np.array([[0, 0, 0], [1, 0, 0]], float), 0, 1)
    assert r == pytest.approx(1.0)
    assert np.allclose(grad, [-1, 0, 0, 1, 0, 0])


def test_bond_345():
    r, _ = bond_length(np.array([[0, 0, 0], [3, 4, 0]], float), 0, 1)
    assert r == pytest.approx(5.0)


def test_bond_gradient_fd(rng):
    pos = random_positions(rng, 2)
    _, grad = bond_length(pos, 0, 1)
    fd = central_diff(lambda x: bond_length(x.reshape(2, 3), 0, 1)[0], pos.ravel())
    assert np.allclose(grad, fd, atol=1e-8)


def test_bond_coincident_atoms():
    with pytest.raises(DegenerateGeometryError):
        bond_length(np.zeros((2, 3)), 0, 1)
    # one degenerate row fails the whole batch
    good = np.array([0, 0, 0, 1.0, 0, 0])
    with pytest.raises(DegenerateGeometryError, match="geometry 1"):
        lih_pipeline().apply_batch(np.stack([good, np.zeros(6), good]))


def test_angle_right_angle():
    pos = np.array([[1, 0, 0], [0, 0, 0], [0, 1, 0]], float)
    theta, _ = bond_angle(pos, 0, 1, 2)
    assert theta == pytest.approx(np.pi / 2)


def test_angle_collinear_clamps_with_warning():
    pos = np.array([[1, 0, 0], [0, 0, 0], [-1, 0, 0]], float)
    with pytest.warns(RuntimeWarning):
        theta, grad = bond_angle(pos, 0, 1, 2)
    assert theta == pytest.approx(np.pi, abs=1e-4)
    assert np.all(np.isfinite(grad))


def test_angle_gradient_fd(rng):
    for _ in range(4):
        pos = random_positions(rng, 3)
        theta, grad = bond_angle(pos, 0, 1, 2)
        if not 0.2 < theta < np.pi - 0.2:
            continue
        fd = central_diff(lambda x: bond_angle(x.reshape(3, 3), 0, 1, 2)[0],
                          pos.ravel())
        assert np.allclose(grad, fd, atol=1e-8)


def test_dihedral_cis_is_zero():
    pos = np.array([[0, 1, 0], [0, 0, 0], [1, 0, 0], [1, 1, 0]], float)
    d, _ = dihedral(pos, 0, 1, 2, 3)
    assert d == pytest.approx(0.0, abs=1e-14)


def test_dihedral_trans_is_plus_pi():
    pos = np.array([[0, 1, 0], [0, 0, 0], [1, 0, 0], [1, -1, 0]], float)
    d, _ = dihedral(pos, 0, 1, 2, 3)
    assert d == pytest.approx(np.pi)


def test_dihedral_sign_convention():
    # lifting the last atom in +z from the cis plane gives a positive angle
    pos = np.array([[0, 1, 0], [0, 0, 0], [1, 0, 0], [1, 1, 0.1]], float)
    d, _ = dihedral(pos, 0, 1, 2, 3)
    assert d > 0


def test_dihedral_gradient_fd(rng):
    count = 0
    while count < 5:
        pos = random_positions(rng, 4)
        try:
            d, grad = dihedral(pos, 0, 1, 2, 3)
        except DegenerateGeometryError:
            continue
        if abs(abs(d) - np.pi) < 0.2 or abs(d) < 0.2:
            continue  # keep away from the branch point for plain FD
        fd = central_diff(lambda x: dihedral(x.reshape(4, 3), 0, 1, 2, 3)[0],
                          pos.ravel())
        assert np.max(np.abs(grad - fd)) < 1e-7
        count += 1


def test_dihedral_gradient_fd_near_planar(rng):
    # the analytic gradient stays accurate near cis where arccos would blow up
    pos = np.array([[0, 1, 0], [0, 0, 0], [1, 0, 0], [1, 1, 0.05]], float)
    _, grad = dihedral(pos, 0, 1, 2, 3)
    fd = central_diff(lambda x: dihedral(x.reshape(4, 3), 0, 1, 2, 3)[0],
                      pos.ravel())
    assert np.max(np.abs(grad - fd)) < 1e-7


def test_dihedral_collinear_error():
    pos = np.array([[0, 0, 0], [1, 0, 0], [2, 0, 0], [3, 1, 0]], float)
    with pytest.raises(DegenerateGeometryError):
        dihedral(pos, 0, 1, 2, 3)


def test_distinct_indices_required():
    pos = np.zeros((4, 3))
    with pytest.raises(ArgumentError):
        bond_length(pos, 1, 1)
    with pytest.raises(ArgumentError):
        bond_angle(pos, 0, 1, 0)
    with pytest.raises(ArgumentError):
        dihedral(pos, 0, 1, 2, 2)


def test_minmax_paper_range():
    lo, hi = minmax_fit([0.9, 2.0, 4.5])
    assert (lo, hi) == (0.9, 4.5)
    assert minmax_apply(0.9, lo, hi) == pytest.approx(-1.0)
    assert minmax_apply(4.5, lo, hi) == pytest.approx(1.0)
    assert minmax_apply(2.7, lo, hi) == pytest.approx(0.0)
    assert minmax_derivative(lo, hi) == pytest.approx(2 / 3.6)


def test_minmax_constant_column():
    with pytest.raises(ScalerError):
        minmax_fit([1.0, 1.0, 1.0])


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_minmax_non_finite_column(bad):
    with pytest.raises(ScalerError):
        minmax_fit([1.0, bad, 2.0])


def test_pipeline_rejects_non_finite_bounds():
    p = lih_pipeline()
    with pytest.raises(ScalerError):
        DescriptorPipeline(p.coords, p.features, ((0.9, float("nan")),))


def test_lih_pipeline_midpoint():
    p = lih_pipeline()
    geom = np.array([[0, 0, 0], [2.7, 0, 0]], float)  # scaled value 0
    y = p.apply(geom)
    assert np.allclose(y, [0.0, 0.0, np.pi / 2], atol=1e-12)


def test_lih_pipeline_endpoint():
    p = lih_pipeline()
    geom = np.array([[0, 0, 0], [4.5, 0, 0]], float)  # scaled value exactly 1
    y = p.apply(geom)
    assert np.allclose(y, [np.pi, np.pi / 2, 0.0], atol=1e-12)


def test_pipeline_clamps_out_of_range_without_nan():
    p = lih_pipeline()
    geom = np.array([[0, 0, 0], [4.8, 0, 0]], float)  # beyond the fit range
    y = p.apply(geom)
    assert np.all(np.isfinite(y))
    # the arcsin and arccos features clamp; pi_scale never does
    assert p.clamp_count == 2
    jac = p.jacobian(geom)
    assert np.all(np.isfinite(jac))
    inside = np.array([[0, 0, 0], [2.7, 0, 0]], float)
    p.apply_batch(np.stack([inside, geom, geom]).reshape(3, 6))
    assert p.clamp_count == 8


def test_lih_jacobian_rank_one(rng):
    p = lih_pipeline()
    geom = random_positions(rng, 2) * 0.8 + np.array([1.2, 0, 0])
    _, jac = p.apply_with_jacobian(geom)
    assert np.linalg.matrix_rank(jac, tol=1e-10) == 1


def test_pipeline_jacobian_fd(rng):
    p = water_pipeline()
    geoms = []
    for r1, r2, th in [(0.85, 0.85, 1.5), (1.15, 1.15, 2.1), (1.0, 0.95, 1.8)]:
        geoms.append(np.array(
            [[0, 0, 0], [r1, 0, 0], [r2 * np.cos(th), r2 * np.sin(th), 0]]))
    p.fit(geoms)
    # probe well inside the fitted range, away from the arcsin clamp region
    pos = geoms[2] + rng.normal(scale=0.005, size=(3, 3))
    y, jac = p.apply_with_jacobian(pos)
    fd = np.empty_like(jac)
    for col in range(9):
        xp, xm = pos.ravel().copy(), pos.ravel().copy()
        xp[col] += 1e-6
        xm[col] -= 1e-6
        fd[:, col] = (p.apply(xp.reshape(3, 3)) - p.apply(xm.reshape(3, 3))) / 2e-6
    assert np.max(np.abs(jac - fd)) < 1e-6


@pytest.mark.parametrize("name", ["lih", "h2o", "h3o"])
def test_batch_equals_single_geometry_calls(name):
    from qnnff.presets import get_preset

    preset = get_preset(name)
    ds = preset.generate(12, seed=4)
    p = preset.pipeline().fit(ds.cartesians()[:8])
    geoms = ds.cartesians()
    y, jac = p.apply_with_jacobian_batch(geoms)
    assert y.shape == (12, p.num_features)
    assert jac.shape == (12, p.num_features, geoms.shape[1])
    assert np.array_equal(p.apply_batch(list(geoms)), y)
    for k, geom in enumerate(geoms):
        y1, jac1 = p.apply_with_jacobian(geom)
        assert np.array_equal(y1, y[k]) and np.array_equal(jac1, jac[k])
        assert np.array_equal(p.apply(geom), y[k])


def rigid_transform(rng, pos):
    # random rotation (QR of a Gaussian matrix) plus translation
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] *= -1
    return pos @ q.T + rng.uniform(-3, 3, size=3)


def test_rigid_motion_invariance(rng):
    pos = random_positions(rng, 4)
    for coord in (Bond(0, 1), Angle(1, 0, 2), Dihedral(0, 1, 2, 3)):
        try:
            v0, _ = coord.evaluate(pos)
        except DegenerateGeometryError:
            pytest.skip("degenerate draw")
        for _ in range(5):
            v1, _ = coord.evaluate(rigid_transform(rng, pos))
            assert abs(v1 - v0) <= 1e-9


def test_pipeline_requires_fit():
    p = water_pipeline()
    with pytest.raises(ArgumentError):
        p.apply(np.zeros((3, 3)))


def test_pipeline_serialization_round_trip():
    p = lih_pipeline()
    back = pipeline_from_dict(pipeline_to_dict(p))
    assert back.coords == p.coords
    assert back.features == p.features
    assert back.bounds == p.bounds


def test_geometry_validation():
    with pytest.raises(ArgumentError):
        MoleculeGeometry(("H", "H"), np.zeros(5))
    g = MoleculeGeometry(("Li", "H"), np.array([0, 0, 0, 1.5, 0, 0.0]))
    assert bond_length(g, 0, 1)[0] == pytest.approx(1.5)
