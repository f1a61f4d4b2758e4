import numpy as np
import pytest

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
from qnnff.descriptors import bond_angle, bond_length, dihedral
from qnnff.errors import ArgumentError, DataError, DegenerateGeometryError
from qnnff.presets import generate_lih


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
