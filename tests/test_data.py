import math

import numpy as np
import pytest
from scipy.optimize import brentq

from qnnff import data, presets
from qnnff.data import (
    Dataset,
    HydroniumParams,
    Sample,
    TriatomicParams,
    diatomic_geometry,
    filter_bond_range,
    finite_difference_forces,
    hydronium_geometry,
    hydronium_oracle,
    load_dataset,
    load_external,
    mirror_augment,
    morse_oracle,
    register_converter,
    save_dataset,
    train_test_split,
    triatomic_geometry,
    triatomic_oracle,
)
from qnnff.descriptors import Dihedral, bond_angle, bond_length, dihedral
from qnnff.errors import (ArgumentError, DataError, DegenerateGeometryError,
                          NumericalError)
from qnnff.presets import generate_h3o, generate_lih


def lih_grid_dataset(count=170, lo=0.9, hi=4.5, mirror=True):
    base = count // 2 if mirror else count
    rs = lo + (hi - lo) * np.arange(base) / base  # half-open grid, never hits hi
    samples = []
    for r in rs:
        e, f = morse_oracle(r)
        # canonical geometry along +x: dr/dC1 = +x, so F_1 = f x, F_0 = -f x
        forces = np.array([-f, 0, 0, f, 0, 0])
        samples.append(Sample(diatomic_geometry(r), e, forces))
    ds = Dataset(samples, ("Li", "H"), preset="lih")
    return mirror_augment(ds, hi) if mirror else ds


def test_morse_minimum():
    e, f = morse_oracle(1.6, well_depth=2.5, width=1.1, r_eq=1.6)
    assert e == pytest.approx(0.0)
    assert f == pytest.approx(0.0)


def test_morse_dissociation_limit():
    e, _ = morse_oracle(60.0, well_depth=2.5, width=1.1, r_eq=1.6)
    assert e == pytest.approx(2.5, rel=1e-10)


def test_morse_force_is_minus_gradient():
    for r in (1.0, 1.6, 2.5, 4.0):
        _, f = morse_oracle(r)
        h = 1e-6
        fd = -(morse_oracle(r + h)[0] - morse_oracle(r - h)[0]) / (2 * h)
        assert f == pytest.approx(fd, abs=1e-9)


def test_triatomic_equilibrium_is_stationary():
    p = TriatomicParams()
    geom = triatomic_geometry(p.r_eq, p.r_eq, p.theta_eq)
    e, forces = triatomic_oracle(geom, p)
    assert e == pytest.approx(0.0)
    assert np.allclose(forces, 0.0, atol=1e-12)


def test_triatomic_forces_match_fd():
    geom = triatomic_geometry(1.02, 0.93, 1.7)
    _, forces = triatomic_oracle(geom)
    fd = finite_difference_forces(lambda x: triatomic_oracle(x)[0], geom, h=1e-6)
    assert np.max(np.abs(forces - fd)) < 1e-8


def test_triatomic_rotation_invariance(rng):
    geom = triatomic_geometry(1.0, 0.95, 1.8).reshape(3, 3)
    e0, _ = triatomic_oracle(geom)
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    e1, _ = triatomic_oracle(geom @ q.T + 1.5)
    assert e1 == pytest.approx(e0, abs=1e-12)


def test_hydronium_oracle_forces_match_fd():
    geom = hydronium_geometry(0.99, 0.97, 1.01, 1.85, 1.95, 0.4)
    _, forces = hydronium_oracle(geom)
    fd = finite_difference_forces(lambda x: hydronium_oracle(x)[0], geom, h=1e-6)
    assert np.max(np.abs(forces - fd)) < 1e-7


@pytest.mark.parametrize("oracle,geoms", [
    (triatomic_oracle, [triatomic_geometry(1.02, 0.93, 1.7),
                        triatomic_geometry(0.9, 1.0, 1.9)]),
    (hydronium_oracle, [hydronium_geometry(0.99, 0.97, 1.01, 1.85, 1.95, 0.4),
                        hydronium_geometry(0.98, 0.96, 1.02, 1.9, 1.85, -0.5)]),
])
def test_oracle_batch_equals_single_geometry_calls(oracle, geoms):
    energies, forces = oracle(np.stack(geoms))
    assert energies.shape == (2,) and forces.shape == (2, geoms[0].size)
    for i, geom in enumerate(geoms):
        e, f = oracle(geom)
        assert isinstance(e, float)
        assert e == energies[i]
        assert np.array_equal(f, forces[i])
    bad = np.stack([geoms[0], np.zeros_like(geoms[0])])
    with pytest.raises(DegenerateGeometryError, match="geometry 1"):
        oracle(bad)


def test_hydronium_geometry_hits_targets():
    geom = hydronium_geometry(0.98, 0.96, 1.02, 1.9, 1.85, -0.5)
    pos = geom.reshape(4, 3)
    assert bond_length(pos, 0, 1)[0] == pytest.approx(0.98)
    assert bond_length(pos, 0, 2)[0] == pytest.approx(0.96)
    assert bond_length(pos, 0, 3)[0] == pytest.approx(1.02)
    assert bond_angle(pos, 1, 0, 2)[0] == pytest.approx(1.9)
    assert bond_angle(pos, 1, 0, 3)[0] == pytest.approx(1.85)
    assert dihedral(pos, 0, 3, 2, 1)[0] == pytest.approx(-0.5, abs=1e-9)


# A scalar reference for the hydronium placement: one geometry per grid
# azimuth built with math.cos/math.sin, the first bracket found by a Python
# loop, and its root by Brent's method.


def _scalar_placement(r1, r2, r3, theta12, theta13):
    """The azimuth grid, the geometry at an azimuth, and the dihedral over
    (O, H3, H2, H1) on the grid, one geometry at a time."""
    base = np.array([
        [0.0, 0.0, 0.0],
        [r1, 0.0, 0.0],
        [r2 * math.cos(theta12), r2 * math.sin(theta12), 0.0],
        [0.0, 0.0, 0.0],
    ])

    def with_azimuth(psi):
        pos = base.copy()
        pos[3] = r3 * np.array([
            math.cos(theta13),
            math.sin(theta13) * math.cos(psi),
            math.sin(theta13) * math.sin(psi),
        ])
        return pos

    grid = np.linspace(-np.pi + 0.05, np.pi - 0.05, 73)
    scan = Dihedral(0, 3, 2, 1).batch(
        np.stack([with_azimuth(psi) for psi in grid]))[0]
    return grid, with_azimuth, scan


def _brent_geometry(r1, r2, r3, theta12, theta13, d_target):
    grid, with_azimuth, scan = _scalar_placement(r1, r2, r3, theta12, theta13)
    vals = scan - d_target
    for a, b, fa, fb in zip(grid[:-1], grid[1:], vals[:-1], vals[1:]):
        if np.isfinite(fa) and np.isfinite(fb) and fa * fb <= 0 and abs(fa - fb) < np.pi:
            psi = brentq(lambda p: dihedral(with_azimuth(p), 0, 3, 2, 1)[0]
                         - d_target, a, b, xtol=1e-12)
            return with_azimuth(psi).ravel()
    raise ArgumentError("no placement")


def _brent_generate_h3o(count, seed):
    """Cartesians of generate_h3o's stream, drawn and placed one candidate at
    a time with the reference placement."""
    rng = np.random.default_rng(seed)
    lo, hi = presets.H3O_DIHEDRAL_RANGE
    geoms, missed = [], 0
    while len(geoms) < count:
        d = lo + (hi - lo) * (len(geoms) + 0.5) / count
        r1, r2, r3 = rng.uniform(0.94, 1.02, size=3)
        a12, a13 = rng.uniform(1.83, 1.99, size=2)
        try:
            geoms.append(_brent_geometry(r1, r2, r3, a12, a13, d))
        except ArgumentError:
            missed += 1
            assert missed <= 20 * count
    return np.stack(geoms)


def _h3o_candidates(n, seed):
    """n candidate rows (r1, r2, r3, theta12, theta13) inside the preset's
    ranges, with dihedral targets inside its sweep."""
    rng = np.random.default_rng(seed)
    params = rng.uniform(presets._H3O_LOW, presets._H3O_HIGH, size=(n, 5))
    return params, rng.uniform(*presets.H3O_DIHEDRAL_RANGE, size=n)


def _dihedral_misses(geoms, targets):
    d = np.array([dihedral(g.reshape(4, 3), 0, 3, 2, 1)[0] for g in geoms])
    return np.abs(d - targets)


def test_block_draw_equals_the_per_attempt_stream():
    rng = np.random.default_rng(5)
    per_attempt = [np.concatenate([rng.uniform(0.94, 1.02, size=3),
                                   rng.uniform(1.83, 1.99, size=2)])
                   for _ in range(150)]
    rng = np.random.default_rng(5)
    blocks = [rng.uniform(presets._H3O_LOW, presets._H3O_HIGH, size=(k, 5))
              for k in (64, 86)]
    assert np.array_equal(np.concatenate(blocks), np.stack(per_attempt))


def test_bulk_scan_is_bitwise_the_one_candidate_and_scalar_scans():
    params, _ = _h3o_candidates(40, seed=11)
    bulk = data._hydronium_scan(params)
    assert bulk.shape == (40, 73)
    for row, scan in zip(params, bulk):
        assert np.array_equal(scan, data._hydronium_scan(row[None])[0])
        assert np.array_equal(scan, _scalar_placement(*row)[2])


def test_placement_agrees_with_the_brent_reference():
    params, targets = _h3o_candidates(300, seed=3)
    placed = 0
    for row, d in zip(params, targets):
        try:
            want = _brent_geometry(*row, d)
        except ArgumentError:
            with pytest.raises(ArgumentError, match="no hydronium placement"):
                hydronium_geometry(*row, d)
            continue
        got = hydronium_geometry(*row, d)
        assert np.max(np.abs(got - want)) <= 1e-10
        assert _dihedral_misses([got], d)[0] <= 1e-12
        placed += 1
    assert 100 < placed < 300   # both outcomes are exercised


@pytest.mark.parametrize("count,seed", [(16, s) for s in range(20)] + [(170, 0)])
def test_generate_h3o_agrees_with_the_brent_reference(count, seed):
    """The same candidates are accepted, so the same geometries come out.
    Labels are the oracle's on the placed Cartesians.  Against the
    reference's labels they agree only relatively: where O, H3 and H2 are
    nearly collinear the dihedral's gradient reaches 1e6, and the reference's
    Brent root (xtol 1e-12) misses its target by up to 1e-8 there."""
    ds = generate_h3o(count, seed)
    want = _brent_generate_h3o(count, seed)
    got = ds.cartesians()
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-10
    energies, forces = hydronium_oracle(got)
    assert np.array_equal(ds.energies(), energies)
    assert np.array_equal(ds.forces_matrix(), forces)
    ref_e, ref_f = hydronium_oracle(want)
    assert np.all(np.abs(energies - ref_e) <= 1e-10 + 1e-6 * np.abs(ref_e))
    assert np.all(np.abs(forces - ref_f).max(axis=1)
                  <= 1e-10 + 1e-6 * np.abs(ref_f).max(axis=1))
    lo, hi = presets.H3O_DIHEDRAL_RANGE
    targets = lo + (hi - lo) * (np.arange(count) + 0.5) / count
    assert np.max(_dihedral_misses(got, targets)) <= 1e-12


def test_generate_h3o_gives_up_after_20_misses_per_sample(monkeypatch):
    monkeypatch.setattr(presets, "H3O_DIHEDRAL_RANGE", (3.2, 3.3))
    tested = []

    def brackets(scan, targets):
        tested.append(len(scan))
        return data._hydronium_brackets(scan, targets)

    monkeypatch.setattr(presets, "_hydronium_brackets", brackets)
    with pytest.raises(ArgumentError, match="reaches dihedral 3.225 rad"):
        generate_h3o(2, seed=0)
    assert sum(tested) == 20 * 2 + 1


@pytest.mark.parametrize("count", [0, -3])
def test_generate_h3o_needs_a_sample(count):
    with pytest.raises(ArgumentError, match="at least 1"):
        generate_h3o(count)


@pytest.mark.parametrize("args", [
    (0.98, 0.96, 0.0, 1.9, 1.85, 0.3),    # H3 on the oxygen
    (0.98, 0.96, 1.0, 1.9, 0.0, 0.3),     # H3 on the O-H1 axis
    (0.98, 0.96, 1.0, 0.0, 1.85, 0.3),    # H2 on the O-H1 axis
])
def test_degenerate_placement_raises_the_placement_error(args):
    with pytest.raises(ArgumentError, match="no hydronium placement reaches "
                       "dihedral 0.300 rad with the given bonds and angles"):
        hydronium_geometry(*args)


def test_unconverged_placement_is_a_numerical_error(monkeypatch):
    monkeypatch.setattr(data, "_POLISH_STEPS", 1)
    with pytest.raises(NumericalError, match="did not converge"):
        hydronium_geometry(0.98, 0.96, 1.02, 1.9, 1.85, -0.5)


def test_fd_forces_exact_for_quadratic():
    k = 3.7
    energy = lambda x: 0.5 * k * float(x @ x)
    x = np.array([0.3, -0.2, 0.9])
    forces = finite_difference_forces(energy, x, h=1e-3)
    assert np.allclose(forces, -k * x, atol=1e-10)


def test_fd_forces_convergence_order():
    geom = diatomic_geometry(2.1)

    def energy(x):
        r = np.linalg.norm(x[3:] - x[:3])
        return morse_oracle(r)[0]

    _, f_exact = morse_oracle(2.1)
    errs = []
    for h in (1e-2, 1e-3):
        fd = finite_difference_forces(energy, geom, h=h)
        errs.append(abs(fd[3] - f_exact))
    ratio = errs[0] / errs[1]
    assert 80 < ratio < 120  # second-order central differences


def test_fd_forces_symmetric_geometry():
    p = TriatomicParams()
    geom = triatomic_geometry(p.r_eq + 0.05, p.r_eq + 0.05, p.theta_eq)
    forces = finite_difference_forces(lambda x: triatomic_oracle(x)[0], geom)
    # mirror symmetry swaps the two outer atoms
    f = forces.reshape(3, 3)
    assert np.linalg.norm(f[1]) == pytest.approx(np.linalg.norm(f[2]), abs=1e-8)


def test_mirror_extends_grid_to_8_1():
    ds = lih_grid_dataset(count=170)
    assert len(ds) == 170
    rs = [bond_length(s.cartesian.reshape(2, 3), 0, 1)[0] for s in ds.samples]
    assert max(rs) == pytest.approx(8.1, abs=0.05)


def test_mirror_energies_symmetric():
    ds = lih_grid_dataset(count=20)
    base = {round(bond_length(s.cartesian.reshape(2, 3), 0, 1)[0], 9): s.energy
            for s in ds.samples}
    for r, e in base.items():
        mirrored_r = round(2 * 4.5 - r, 9)
        if mirrored_r in base:
            assert base[mirrored_r] == e


def test_mirror_is_involution():
    # the reflection r -> 2 r_m - r is an involution, so the augmented set is
    # closed under it: every sample's partner is present with equal energy
    ds = lih_grid_dataset(count=20, mirror=False)
    once = mirror_augment(ds, 4.5)
    table = {round(bond_length(s.cartesian.reshape(2, 3), 0, 1)[0], 9): s.energy
             for s in once.samples}
    for r, e in table.items():
        partner = round(2 * 4.5 - r, 9)
        assert partner in table
        assert table[partner] == e


def test_mirror_point_sample_not_duplicated():
    e, f = morse_oracle(4.5)
    samples = [Sample(diatomic_geometry(2.0), 1.0, None),
               Sample(diatomic_geometry(4.5), e, None)]
    ds = Dataset(samples, ("Li", "H"))
    out = mirror_augment(ds, 4.5)
    assert len(out) == 3


def test_mirror_rejects_samples_beyond_point():
    ds = Dataset([Sample(diatomic_geometry(5.0), 1.0, None)], ("Li", "H"))
    with pytest.raises(ArgumentError):
        mirror_augment(ds, 4.5)


def test_mirror_names_the_first_sample_beyond_the_point():
    ds = Dataset([Sample(diatomic_geometry(r), 1.0, None)
                  for r in (2.0, 4.5, 5.0, 6.0)], ("Li", "H"))
    with pytest.raises(ArgumentError, match=r"sample 2 has r=5\.000000"):
        mirror_augment(ds, 4.5)


def _reference_mirror(dataset, mirror_point):
    """Per-sample reflection: one bond length and one partner at a time."""
    mirrored = []
    for idx, s in enumerate(dataset.samples):
        pos = s.cartesian.reshape(2, 3)
        r, _ = bond_length(pos, 0, 1)
        assert r <= mirror_point + 1e-12, idx
        if abs(r - mirror_point) <= 1e-12:
            continue
        new_pos = pos.copy()
        new_pos[1] = pos[0] + (pos[1] - pos[0]) / r * (2.0 * mirror_point - r)
        forces = None if s.forces is None else -s.forces
        mirrored.append(Sample(new_pos.ravel(), s.energy, forces))
    return list(dataset.samples) + mirrored


def _reference_lih(count, mirror):
    """The LiH grid labelled and mirrored one bond length at a time."""
    ds = lih_grid_dataset(count // 2 if mirror else count, mirror=False)
    return _reference_mirror(ds, 4.5) if mirror else ds.samples


def _assert_bitwise(samples, reference):
    assert len(samples) == len(reference)
    for s, ref in zip(samples, reference):
        assert s.cartesian.tobytes() == ref.cartesian.tobytes()
        assert s.energy == ref.energy
        assert (s.forces is None) == (ref.forces is None)
        if s.forces is not None:
            assert s.forces.tobytes() == ref.forces.tobytes()


@pytest.mark.parametrize("mirror", [True, False])
@pytest.mark.parametrize("count", [2, 3, 20, 170, 171])
def test_lih_grid_equals_per_sample_labelling(count, mirror):
    _assert_bitwise(generate_lih(count, mirror=mirror).samples,
                    _reference_lih(count, mirror))


def test_mirror_equals_per_sample_reflection(rng):
    # random orientations and offsets, a sample on the mirror point every
    # seventh, and force labels on every other sample
    samples = []
    for k in range(30):
        d = rng.normal(size=3)
        r = 4.5 if k % 7 == 0 else rng.uniform(0.5, 4.5)
        a = rng.normal(size=3)
        forces = None if k % 2 else rng.normal(size=6)
        samples.append(Sample(np.concatenate([a, a + r * d / np.linalg.norm(d)]),
                              rng.normal(), forces))
    ds = Dataset(samples, ("Li", "H"))
    out = mirror_augment(ds, 4.5)
    assert len(out) == 30 + 30 - 5
    _assert_bitwise(out.samples, _reference_mirror(ds, 4.5))


def test_mirror_force_antisymmetry():
    ds = lih_grid_dataset(count=40)
    by_r = {round(bond_length(s.cartesian.reshape(2, 3), 0, 1)[0], 9): s
            for s in ds.samples}
    for r, s in by_r.items():
        partner = by_r.get(round(9.0 - r, 9))
        if partner is not None:
            assert np.allclose(partner.forces, -s.forces, atol=1e-12)


def test_save_load_round_trip(tmp_path):
    ds = lih_grid_dataset(count=30)
    ds.provenance = "unit-test grid"
    path = tmp_path / "lih.txt"
    save_dataset(ds, path)
    back = load_dataset(path)
    assert back.elements == ds.elements
    assert back.preset == ds.preset
    assert back.provenance == ds.provenance
    assert len(back) == len(ds)
    for a, b in zip(ds.samples, back.samples):
        assert np.array_equal(a.cartesian, b.cartesian)
        assert a.energy == b.energy
        assert np.array_equal(a.forces, b.forces)


def test_load_malformed_row_reports_line(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2 Li H forces=0\n0 0 0 1 0 0 1.5\n0 0 0 oops 0 0 1.5\n")
    with pytest.raises(DataError, match="row 3"):
        load_dataset(path)


def test_split_sizes_and_disjointness():
    ds = lih_grid_dataset(count=170)
    train, test = train_test_split(ds, 50, seed=3)
    assert len(train) == 50 and len(test) == 120
    train_ids = {tuple(s.cartesian) for s in train.samples}
    test_ids = {tuple(s.cartesian) for s in test.samples}
    assert not train_ids & test_ids


def test_split_infeasible():
    ds = lih_grid_dataset(count=10)
    with pytest.raises(ArgumentError):
        train_test_split(ds, 10)


def test_split_deterministic():
    ds = lih_grid_dataset(count=30)
    a1, _ = train_test_split(ds, 10, seed=7)
    a2, _ = train_test_split(ds, 10, seed=7)
    assert all(np.array_equal(x.cartesian, y.cartesian)
               for x, y in zip(a1.samples, a2.samples))


def test_filter_bond_range():
    ds = lih_grid_dataset(count=40, mirror=False)
    kept = filter_bond_range(ds, 0, 1, 1.5, 2.5)
    rs = [bond_length(s.cartesian.reshape(2, 3), 0, 1)[0] for s in kept.samples]
    assert all(1.5 <= r <= 2.5 for r in rs)
    assert len(kept) < len(ds)


def test_converter_stub(tmp_path):
    path = tmp_path / "dump.txt"
    path.write_text("1.0 2.0\n")

    def parser(p):
        r, e = np.loadtxt(p)
        return [Sample(diatomic_geometry(r), e, None)], ("Li", "H")

    register_converter("toy", parser)
    ds = load_external(path, "toy")
    assert len(ds) == 1
    assert ds.provenance.startswith("converted:toy")
    with pytest.raises(ArgumentError):
        load_external(path, "unknown")


def test_sample_validation():
    with pytest.raises(DataError):
        Sample(np.array([0.0, np.nan, 0.0]), 1.0)
    with pytest.raises(DataError):
        Sample(np.zeros(6), 1.0, np.zeros(3))
