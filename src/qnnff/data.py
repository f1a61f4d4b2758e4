"""Datasets, file persistence, analytic surrogate oracles and augmentation.

The analytic oracles (Morse diatomic, harmonic triatomic, hydronium with a
double-well umbrella term) stand in for ab initio labels so that every
pipeline stage can be exercised end to end without external chemistry codes.
Externally produced datasets are ingested either from the native file format
below or through a user-registered converter.

Hydronium geometries are placed from internal coordinates: H3 sits on the
cone of half-angle theta13 around the O-H1 axis, and its azimuth is found in
two batched steps.  A scan of 73 azimuths picks the first grid interval over
which the (O, H3, H2, H1) dihedral crosses its target, with both ends defined
and no jump across the +-pi seam; safeguarded Newton steps, their slope taken
from the dihedral kernel's gradient, then polish every bracket at once.
``presets.generate_h3o`` scans its candidates in blocks and polishes all
accepted ones in one solve.

File format (space-delimited decimal text):

    line 1:   <n_atoms> <element_1> ... <element_n> forces=<0|1> [preset=<tag>]
    line 2:   # provenance: <free text>            (optional)
    line 3+:  3n coordinates, energy, then 3n force components if forces=1

Units are Angstrom, eV, eV/Angstrom.  Floats are written with shortest
round-trip precision, so save/load is bit exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .descriptors import (Angle, Bond, Dihedral, bond_length,
                          internal_coordinates)
from .errors import ArgumentError, DataError, NumericalError


@dataclass
class Sample:
    """One labelled configuration: flat Cartesian vector, energy, forces."""

    cartesian: np.ndarray
    energy: float
    forces: np.ndarray | None = None

    def __post_init__(self):
        self.cartesian = np.asarray(self.cartesian, dtype=float).ravel()
        self.energy = float(self.energy)
        if not np.all(np.isfinite(self.cartesian)) or not math.isfinite(self.energy):
            raise DataError("non-finite sample data")
        if self.forces is not None:
            self.forces = np.asarray(self.forces, dtype=float).ravel()
            if self.forces.shape != self.cartesian.shape:
                raise DataError(
                    f"forces length {self.forces.size} does not match "
                    f"{self.cartesian.size} coordinates"
                )
            if not np.all(np.isfinite(self.forces)):
                raise DataError("non-finite forces")


@dataclass
class Dataset:
    samples: list[Sample]
    elements: tuple[str, ...]
    preset: str = "custom"
    provenance: str = ""

    def __post_init__(self):
        if not self.samples:
            raise DataError("dataset needs at least one sample")
        self.elements = tuple(self.elements)
        want = 3 * len(self.elements)
        for s in self.samples:
            if s.cartesian.size != want:
                raise DataError(
                    f"sample has {s.cartesian.size} coordinates, expected {want}"
                )

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def num_atoms(self) -> int:
        return len(self.elements)

    @property
    def has_forces(self) -> bool:
        return all(s.forces is not None for s in self.samples)

    def energies(self) -> np.ndarray:
        return np.array([s.energy for s in self.samples])

    def cartesians(self) -> np.ndarray:
        return np.stack([s.cartesian for s in self.samples])

    def forces_matrix(self) -> np.ndarray:
        if not self.has_forces:
            raise DataError("dataset has samples without force labels")
        return np.stack([s.forces for s in self.samples])


# ---------------------------------------------------------------------------
# Analytic oracles.

def morse_oracle(r: float, well_depth: float = 2.5, width: float = 1.1,
                 r_eq: float = 1.6) -> tuple[float, float]:
    """Morse diatomic: V = D (1 - exp(-a (r - r_e)))^2, plus F = -dV/dr."""
    if r <= 0:
        raise ArgumentError(f"bond length must be positive, got {r}")
    ex = math.exp(-width * (r - r_eq))
    energy = well_depth * (1.0 - ex) ** 2
    force = -2.0 * well_depth * width * ex * (1.0 - ex)
    return energy, force


@dataclass(frozen=True)
class TriatomicParams:
    k_bond: float = 20.0       # eV / A^2
    r_eq: float = 0.9584       # A
    k_angle: float = 2.0       # eV / rad^2
    theta_eq: float = 1.8235   # rad


def _batch(geom, atoms: int):
    """(B, 3 * atoms) rows of one geometry, flat or (atoms, 3), or of a
    batch, and whether it was a batch."""
    arr = np.asarray(geom, dtype=float)
    batch = arr.ndim == 2 and arr.shape[1] == 3 * atoms
    return arr.reshape(-1, 3 * atoms), batch


def _labels(energy: np.ndarray, forces: np.ndarray, batch: bool):
    return (energy, forces) if batch else (float(energy[0]), forces[0])


def _wells(q: np.ndarray, grads: np.ndarray, wells):
    """Energies (B,) and forces (B, 3n) of harmonic wells k/2 (q_c - q0)^2,
    one (k, q0) per column c of the coordinates q (B, C) with gradients
    (B, C, 3n)."""
    energy, forces = np.zeros(len(q)), np.zeros((len(q), grads.shape[2]))
    for c, (k, q0) in enumerate(wells):
        energy += 0.5 * k * (q[:, c] - q0) ** 2
        forces -= (k * (q[:, c] - q0))[:, None] * grads[:, c]
    return energy, forces


def triatomic_oracle(geom, params: TriatomicParams = TriatomicParams()):
    """Harmonic bend-stretch surrogate for a triatomic (atom 0 is the vertex).
    One geometry gives (energy, forces (9,)); a (B, 9) batch gives energies
    (B,) and forces (B, 9)."""
    p = params
    rows, batch = _batch(geom, 3)
    q, grads = internal_coordinates(
        (Bond(0, 1), Bond(0, 2), Angle(1, 0, 2)), rows)
    return _labels(*_wells(q, grads, [(p.k_bond, p.r_eq), (p.k_bond, p.r_eq),
                                      (p.k_angle, p.theta_eq)]), batch)


@dataclass(frozen=True)
class HydroniumParams:
    k_bond: float = 25.0
    r_eq: float = 0.98
    k_angle: float = 4.0
    theta_eq: float = 1.91
    k_umbrella: float = 0.1    # barrier height of the dihedral double well, eV
    d_well: float = 0.5        # rad, positions of the two minima


def hydronium_oracle(geom, params: HydroniumParams = HydroniumParams()):
    """Four-atom surrogate: harmonic bonds/angles plus a double-well dihedral.

    Atom order (O, H1, H2, H3); the umbrella coordinate is the dihedral over
    the chain (O, H3, H2, H1) with minima at +-d_well.  One geometry gives
    (energy, forces (12,)); a (B, 12) batch gives (B,) and (B, 12).
    """
    p = params
    rows, batch = _batch(geom, 4)
    q, grads = internal_coordinates(
        [Bond(0, j) for j in (1, 2, 3)] + [Angle(1, 0, j) for j in (2, 3)]
        + [Dihedral(0, 3, 2, 1)], rows)
    energy, forces = _wells(q, grads, [(p.k_bond, p.r_eq)] * 3
                            + [(p.k_angle, p.theta_eq)] * 2)
    d, grad = q[:, 5], grads[:, 5]
    u = (d / p.d_well) ** 2 - 1.0
    energy += p.k_umbrella * u * u
    forces -= (p.k_umbrella * 4.0 * u * d / p.d_well ** 2)[:, None] * grad
    return _labels(energy, forces, batch)


def finite_difference_forces(energy_fn, cartesian, h: float = 1e-5) -> np.ndarray:
    """Central-difference forces F_c = -dE/dc, one energy pair per coordinate."""
    if h <= 0:
        raise ArgumentError("finite-difference step must be positive")
    x = np.asarray(cartesian, dtype=float).ravel()
    forces = np.zeros_like(x)
    for c in range(x.size):
        xp, xm = x.copy(), x.copy()
        xp[c] += h
        xm[c] -= h
        forces[c] = -(energy_fn(xp) - energy_fn(xm)) / (2 * h)
    return forces


# ---------------------------------------------------------------------------
# Geometry builders for the presets (positions are canonical: first atom at
# the origin, first bond along x, second neighbour in the xy plane).

def diatomic_geometry(r: float) -> np.ndarray:
    return np.array([0.0, 0.0, 0.0, r, 0.0, 0.0])


def triatomic_geometry(r1: float, r2: float, theta: float) -> np.ndarray:
    return np.array([
        0.0, 0.0, 0.0,
        r1, 0.0, 0.0,
        r2 * math.cos(theta), r2 * math.sin(theta), 0.0,
    ])


def hydronium_geometry(r1: float, r2: float, r3: float, theta12: float,
                       theta13: float, d_target: float) -> np.ndarray:
    """Place (O, H1, H2, H3) with the requested bonds, angles at the oxygen,
    and dihedral over (O, H3, H2, H1): the batch-of-one view of the scan and
    polish below."""
    params = np.array([[r1, r2, r3, theta12, theta13]], dtype=float)
    targets = np.array([d_target], dtype=float)
    found, *bracket = _hydronium_brackets(_hydronium_scan(params), targets)
    if not found[0]:
        raise _no_placement(d_target)
    return _hydronium_polish(params, targets, *bracket)[0]


# H3 sits on the cone of half-angle theta13 around the O-H1 axis, at azimuth
# psi about that axis (psi = 0 puts it in the xy plane, on H2's side).
# Candidates are rows (r1, r2, r3, theta12, theta13).
_UMBRELLA = Dihedral(0, 3, 2, 1)
_AZIMUTHS = np.linspace(-np.pi + 0.05, np.pi - 0.05, 73)
_PSI_TOL = 1e-13        # rad; a row stops once its step is this small
_POLISH_STEPS = 60      # bisection alone needs 41 from a grid interval


def _no_placement(d_target: float) -> ArgumentError:
    return ArgumentError(
        f"no hydronium placement reaches dihedral {d_target:.3f} rad with the "
        f"given bonds and angles"
    )


def _hydronium_positions(params: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """(B, G, 4, 3) positions of candidates (B, 5) at azimuths psi (B, G)."""
    r1, r2, r3, t12, t13 = params.T[:, :, None]
    pos = np.zeros(psi.shape + (4, 3))
    pos[..., 1, 0] = r1
    pos[..., 2, 0] = r2 * np.cos(t12)
    pos[..., 2, 1] = r2 * np.sin(t12)
    pos[..., 3, 0] = r3 * np.cos(t13)
    pos[..., 3, 1] = r3 * (np.sin(t13) * np.cos(psi))
    pos[..., 3, 2] = r3 * (np.sin(t13) * np.sin(psi))
    return pos


def _hydronium_scan(params: np.ndarray) -> np.ndarray:
    """The dihedral (B, 73) of candidates (B, 5) on the azimuth grid, from one
    kernel call; NaN where it is undefined."""
    psi = np.broadcast_to(_AZIMUTHS, (len(params), _AZIMUTHS.size))
    pos = _hydronium_positions(params, psi).reshape(-1, 4, 3)
    return _UMBRELLA.batch(pos)[0].reshape(psi.shape)


def _hydronium_brackets(scan: np.ndarray, targets: np.ndarray):
    """Each row's first grid interval [a, b] over which f = dihedral - target
    changes sign (or touches 0), with both ends finite and no jump across the
    +-pi seam (|f(a) - f(b)| < pi).  Returns whether a row has one (B,) and
    a, b, f(a), f(b) (B,) of it, which are junk where it has none."""
    f = scan - targets[:, None]
    fa, fb = f[:, :-1], f[:, 1:]
    ok = (np.isfinite(fa) & np.isfinite(fb) & (fa * fb <= 0)
          & (np.abs(fa - fb) < np.pi))
    first, rows = ok.argmax(axis=1), np.arange(len(f))
    return (ok[rows, first], _AZIMUTHS[first], _AZIMUTHS[first + 1],
            fa[rows, first], fb[rows, first])


def _hydronium_polish(params, targets, a, b, fa, fb) -> np.ndarray:
    """Flat (B, 12) geometries of candidates (B, 5) whose dihedral hits
    ``targets`` (B,), each from its bracket [a, b] with f(a), f(b).

    Safeguarded Newton, all rows at once: start at the bracket's secant point,
    take the slope from the kernel's gradient, dd/dpsi = grad_H3 d . dH3/dpsi,
    shrink the bracket by the sign of f, and bisect whenever a Newton step
    leaves it.  A row stops once its step is at most ``_PSI_TOL``."""
    psi, rows = np.empty(len(params)), np.arange(len(params))
    x = a - fa * (b - a) / np.where(fb == fa, 1.0, fb - fa)
    for _ in range(_POLISH_STEPS):
        if not rows.size:
            break
        cand = params[rows]
        d, grad = _UMBRELLA.batch(_hydronium_positions(cand, x[:, None])[:, 0])
        f = d - targets[rows]
        if not np.isfinite(f).all():
            break
        left = np.sign(f) == np.sign(fa)    # the root lies right of x
        a, fa = np.where(left, x, a), np.where(left, f, fa)
        b, fb = np.where(left, b, x), np.where(left, fb, f)
        lever = cand[:, 2] * np.sin(cand[:, 4])
        slope = lever * (grad[:, 11] * np.cos(x) - grad[:, 10] * np.sin(x))
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = x - f / slope
        step = np.where((newton >= a) & (newton <= b), newton, 0.5 * (a + b))
        done = np.abs(step - x) <= _PSI_TOL
        psi[rows[done]] = step[done]
        keep = ~done
        rows, x = rows[keep], step[keep]
        a, b, fa, fb = a[keep], b[keep], fa[keep], fb[keep]
    if rows.size:
        raise NumericalError(
            f"hydronium placement did not converge for {rows.size} of "
            f"{len(params)} geometries")
    return _hydronium_positions(params, psi[:, None]).reshape(-1, 12)


# ---------------------------------------------------------------------------
# Mirroring augmentation for 1D bond-coordinate datasets.

def mirror_augment(dataset: Dataset, mirror_point: float) -> Dataset:
    """Reflect a diatomic dataset about r = mirror_point.

    Every sample at bond length r <= mirror_point gains a partner at
    2*mirror_point - r with the same energy and sign-flipped forces, making
    the extended potential exactly even about the mirror point.  A sample
    sitting exactly on the mirror point is not duplicated.
    """
    if dataset.num_atoms != 2:
        raise ArgumentError("mirroring is defined for diatomic datasets")
    carts = dataset.cartesians()
    r = internal_coordinates((Bond(0, 1),), carts)[0][:, 0]
    beyond = np.flatnonzero(r > mirror_point + 1e-12)
    if beyond.size:
        raise ArgumentError(
            f"sample {beyond[0]} has r={r[beyond[0]]:.6f} beyond the mirror "
            f"point {mirror_point}"
        )
    keep = np.flatnonzero(np.abs(r - mirror_point) > 1e-12)
    pos, rk = carts[keep].reshape(-1, 2, 3), r[keep, None]
    pos[:, 1] = (pos[:, 0]
                 + (pos[:, 1] - pos[:, 0]) / rk * (2.0 * mirror_point - rk))
    mirrored = [Sample(p.ravel(), s.energy,
                       None if s.forces is None else -s.forces)
                for p, s in zip(pos, (dataset.samples[k] for k in keep))]
    return Dataset(
        samples=list(dataset.samples) + mirrored,
        elements=dataset.elements,
        preset=dataset.preset,
        provenance=dataset.provenance,
    )


# ---------------------------------------------------------------------------
# Persistence and splitting.

def _fmt(x: float) -> str:
    return repr(float(x))


def save_dataset(dataset: Dataset, path) -> None:
    tokens = [str(dataset.num_atoms), *dataset.elements,
              f"forces={int(dataset.has_forces)}"]
    if dataset.preset:
        tokens.append(f"preset={dataset.preset}")
    lines = [" ".join(tokens)]
    if dataset.provenance:
        lines.append(f"# provenance: {dataset.provenance}")
    with_forces = dataset.has_forces
    for s in dataset.samples:
        row = [_fmt(v) for v in s.cartesian] + [_fmt(s.energy)]
        if with_forces:
            row += [_fmt(v) for v in s.forces]
        lines.append(" ".join(row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_dataset(path) -> Dataset:
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise DataError(f"cannot read dataset {path}: {exc}") from exc
    if not lines:
        raise DataError(f"{path}: empty dataset file")
    header = lines[0].split()
    try:
        n_atoms = int(header[0])
        elements = tuple(header[1: 1 + n_atoms])
        if len(elements) != n_atoms:
            raise ValueError("missing element labels")
        flags = dict(tok.split("=", 1) for tok in header[1 + n_atoms:])
        with_forces = bool(int(flags.get("forces", "0")))
        preset = flags.get("preset", "custom")
    except (ValueError, IndexError) as exc:
        raise DataError(f"{path}: malformed header line: {exc}") from exc
    provenance = ""
    body_start = 1
    if len(lines) > 1 and lines[1].startswith("# provenance:"):
        provenance = lines[1][len("# provenance:"):].strip()
        body_start = 2
    want = 3 * n_atoms + 1 + (3 * n_atoms if with_forces else 0)
    samples = []
    for lineno, line in enumerate(lines[body_start:], start=body_start + 1):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != want:
            raise DataError(
                f"{path}: row {lineno}: expected {want} columns, got {len(parts)}"
            )
        try:
            vals = [float(p) for p in parts]
        except ValueError as exc:
            raise DataError(f"{path}: row {lineno}: {exc}") from exc
        cart = np.array(vals[: 3 * n_atoms])
        energy = vals[3 * n_atoms]
        forces = np.array(vals[3 * n_atoms + 1:]) if with_forces else None
        samples.append(Sample(cart, energy, forces))
    if not samples:
        raise DataError(f"{path}: no samples")
    return Dataset(samples, elements, preset=preset, provenance=provenance)


def train_test_split(dataset: Dataset, n_train: int, seed: int = 0):
    """Deterministic disjoint split: n_train samples train, the rest test."""
    if not 0 < n_train < len(dataset):
        raise ArgumentError(
            f"n_train={n_train} infeasible for {len(dataset)} samples"
        )
    order = np.random.default_rng(seed).permutation(len(dataset))
    pick = lambda idx: [dataset.samples[i] for i in idx]
    common = dict(elements=dataset.elements, preset=dataset.preset,
                  provenance=dataset.provenance)
    return (Dataset(pick(order[:n_train]), **common),
            Dataset(pick(order[n_train:]), **common))


def filter_bond_range(dataset: Dataset, i: int, j: int, lo: float, hi: float) -> Dataset:
    """Keep samples whose i-j bond length lies inside [lo, hi] (units as given)."""
    kept = [s for s in dataset.samples
            if lo <= bond_length(s.cartesian.reshape(-1, 3), i, j)[0] <= hi]
    if not kept:
        raise DataError("bond-range filter removed every sample")
    return Dataset(kept, dataset.elements, dataset.preset, dataset.provenance)


# Converter stub for external ab initio dumps: register a parser that maps a
# file to (samples, elements), then load through it.
_CONVERTERS: dict[str, callable] = {}


def register_converter(name: str, parser) -> None:
    _CONVERTERS[name] = parser


def load_external(path, converter: str, **kwargs) -> Dataset:
    if converter not in _CONVERTERS:
        raise ArgumentError(
            f"no converter {converter!r} registered; known: {sorted(_CONVERTERS)}"
        )
    samples, elements = _CONVERTERS[converter](path, **kwargs)
    return Dataset(list(samples), tuple(elements), preset="custom",
                   provenance=f"converted:{converter}:{path}")
