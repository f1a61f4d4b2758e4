"""Built-in molecule presets: circuit shape, descriptors, surrogate oracle
and generation ranges for each supported system.

* lih: one bond coordinate expanded into 3 features (pi*r, arcsin r,
  arccos r), 3 qubits, full coupling with one degree-3 set, depth 10.
  The sampling grid covers 0.9–4.5 A and is mirrored about 4.5 A so the
  extended dataset is periodic-friendly.
* h2o: bonds (O-H1, O-H2) plus the H-O-H angle at the oxygen vertex,
  arcsin each, 3 qubits, depth 12, forces in the loss (chi = 1) with the
  gradient-free optimizer.
* h3o: three O-H bonds, two H-O-H angles and the (O, H3, H2, H1) dihedral,
  arcsin each, 6 qubits, linear coupling, degree-3 sets on neighbouring
  qubit triples, depth 10; the generator sweeps the dihedral over
  +-0.78 rad.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .circuit import (
    AnsatzSpec,
    EncodingSpec,
    QnnTemplate,
    assemble_qnn,
    sliding_degree_sets,
)
from .data import (
    Dataset,
    Sample,
    _hydronium_brackets,
    _hydronium_polish,
    _hydronium_scan,
    _no_placement,
    hydronium_oracle,
    morse_oracle,
    mirror_augment,
    triatomic_geometry,
    triatomic_oracle,
)
from .descriptors import Angle, Bond, DescriptorPipeline, Dihedral
from .errors import ArgumentError

ATOMIC_MASS = {"H": 1.008, "Li": 6.94, "O": 15.999}


@dataclass(frozen=True)
class MoleculePreset:
    name: str
    elements: tuple[str, ...]
    coords: tuple
    features: tuple[tuple[int, str], ...]
    entanglement: str
    depth: int
    chi: float
    optimizer: str
    steps: int
    generate: callable = field(repr=False, compare=False, default=None)

    @property
    def num_features(self) -> int:
        return len(self.features)

    @property
    def masses(self) -> np.ndarray:
        return np.array([ATOMIC_MASS[e] for e in self.elements])

    def degree_sets(self, degree: int = 3):
        return sliding_degree_sets(self.num_features) if degree >= 3 else ()

    def encoding_spec(self, entanglement=None, degree: int = 3) -> EncodingSpec:
        return EncodingSpec(self.num_features, entanglement or self.entanglement,
                            self.degree_sets(degree))

    def ansatz_spec(self, entanglement=None, degree: int = 3) -> AnsatzSpec:
        return AnsatzSpec(self.num_features, entanglement or self.entanglement,
                          self.degree_sets(degree))

    def template(self, depth=None, entanglement=None, degree: int = 3) -> QnnTemplate:
        return assemble_qnn(self.encoding_spec(entanglement, degree),
                            self.ansatz_spec(entanglement, degree),
                            self.depth if depth is None else depth)

    def pipeline(self) -> DescriptorPipeline:
        return DescriptorPipeline(self.coords, self.features)


LIH_RANGE = (0.9, 4.5)
H3O_DIHEDRAL_RANGE = (-0.78, 0.78)
# candidate rows (r1, r2, r3, theta12, theta13) for generate_h3o
_H3O_LOW = (0.94,) * 3 + (1.83,) * 2
_H3O_HIGH = (1.02,) * 3 + (1.99,) * 2


def generate_lih(count: int, seed: int = 0, mirror: bool = True,
                 lo: float = LIH_RANGE[0], hi: float = LIH_RANGE[1]) -> Dataset:
    """Even grid over [lo, hi); with mirroring the grid halves and reflects
    about hi, so `count` samples cover the extended range up to 2*hi - lo."""
    base = count // 2 if mirror else count
    if base < 1:
        raise ArgumentError(f"count {count} too small")
    rs = lo + (hi - lo) * np.arange(base) / base
    energies, forces = np.array([morse_oracle(r) for r in rs.tolist()]).T
    geoms, labels = np.zeros((2, base, 6))
    geoms[:, 3] = rs
    labels[:, 0], labels[:, 3] = -forces, forces
    samples = [Sample(*s) for s in zip(geoms, energies, labels)]
    ds = Dataset(samples, ("Li", "H"), preset="lih",
                 provenance="morse surrogate grid")
    return mirror_augment(ds, hi) if mirror else ds


def _labelled(geoms: list, oracle) -> list:
    """Samples of the drawn geometries, labelled by one batched oracle call."""
    if not geoms:
        raise ArgumentError("count must be at least 1")
    energies, forces = oracle(np.stack(geoms))
    return [Sample(g, e, f) for g, e, f in zip(geoms, energies, forces)]


def generate_h2o(count: int, seed: int = 0) -> Dataset:
    rng = np.random.default_rng(seed)
    geoms = []
    for _ in range(count):
        r1, r2 = rng.uniform(0.87, 1.05, size=2)
        theta = rng.uniform(1.62, 2.02)
        geoms.append(triatomic_geometry(r1, r2, theta))
    return Dataset(_labelled(geoms, triatomic_oracle), ("O", "H", "H"),
                   preset="h2o", provenance="harmonic surrogate samples")


def generate_h3o(count: int, seed: int = 0) -> Dataset:
    """``count`` geometries whose dihedral targets step evenly across
    H3O_DIHEDRAL_RANGE.  Candidates (three O-H bonds, two H-O-H angles) are
    drawn and scanned in blocks; the next target goes to the next candidate
    whose scan brackets it, so samples do not depend on the block size.
    Generation gives up after 20 * count candidates miss their targets."""
    if count < 1:
        raise ArgumentError("count must be at least 1")
    rng = np.random.default_rng(seed)
    lo, hi = H3O_DIHEDRAL_RANGE
    picked, targets, brackets = [], [], []
    missed = 0
    while len(picked) < count:
        block = rng.uniform(_H3O_LOW, _H3O_HIGH,
                            size=(min(64, 4 * (count - len(picked))), 5))
        for cand, scan in zip(block, _hydronium_scan(block)):
            d = lo + (hi - lo) * (len(picked) + 0.5) / count
            found, *bracket = _hydronium_brackets(scan[None], np.array([d]))
            if found[0]:
                picked.append(cand)
                targets.append(d)
                brackets.append(bracket)
                if len(picked) == count:
                    break
            else:
                missed += 1
                if missed > 20 * count:
                    raise _no_placement(d)
    geoms = _hydronium_polish(np.array(picked), np.array(targets),
                              *np.concatenate(brackets, axis=1))
    return Dataset(_labelled(list(geoms), hydronium_oracle), ("O", "H", "H", "H"),
                   preset="h3o", provenance="hydronium surrogate dihedral sweep")


PRESETS = {
    "lih": MoleculePreset(
        name="lih",
        elements=("Li", "H"),
        coords=(Bond(0, 1),),
        features=((0, "pi_scale"), (0, "arcsin"), (0, "arccos")),
        entanglement="full",
        depth=10,
        chi=0.0,
        optimizer="adam",
        steps=4000,
        generate=generate_lih,
    ),
    "h2o": MoleculePreset(
        name="h2o",
        elements=("O", "H", "H"),
        coords=(Bond(0, 1), Bond(0, 2), Angle(1, 0, 2)),
        features=((0, "arcsin"), (1, "arcsin"), (2, "arcsin")),
        entanglement="full",
        depth=12,
        chi=1.0,
        optimizer="cobyla",
        steps=4000,
        generate=generate_h2o,
    ),
    "h3o": MoleculePreset(
        name="h3o",
        elements=("O", "H", "H", "H"),
        coords=(Bond(0, 1), Bond(0, 2), Bond(0, 3),
                Angle(1, 0, 2), Angle(1, 0, 3), Dihedral(0, 3, 2, 1)),
        features=tuple((i, "arcsin") for i in range(6)),
        entanglement="linear",
        depth=10,
        chi=0.0,
        optimizer="adam",
        steps=5000,
        generate=generate_h3o,
    ),
}


def get_preset(name: str) -> MoleculePreset:
    try:
        return PRESETS[name]
    except KeyError:
        raise ArgumentError(
            f"unknown preset {name!r}; choose from {sorted(PRESETS)}"
        ) from None


def reduced_mass(preset: MoleculePreset) -> float:
    m = preset.masses
    if m.size != 2:
        raise ArgumentError("reduced mass is defined for diatomic presets")
    return float(m[0] * m[1] / (m[0] + m[1]))
