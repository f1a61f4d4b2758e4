"""Symbolic circuit IR for alternating re-uploading networks.

A template is an ordered gate program ``U_0 . Phi . U_1 . Phi . ... . Phi . U_D``
where the encoding stage ``Phi`` is repeated verbatim (same input expressions)
while each trainable stage ``U_l`` carries its own fresh parameters.  Angles
are symbolic: either a product of input features, a reference into the
trainable parameter vector, or a constant.  Templates are immutable after
assembly and binding is pure, so they are safe to share across threads.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import ArgumentError
from .statevec import BoundGate

ENTANGLEMENTS = ("linear", "circular", "full")


@dataclass(frozen=True)
class InputExpr:
    """Product of input features: the represented angle is prod_j y_j."""

    indices: tuple[int, ...]

    def __post_init__(self):
        idx = tuple(int(i) for i in self.indices)
        if not idx:
            raise ArgumentError("InputExpr needs at least one feature index")
        if len(set(idx)) != len(idx):
            raise ArgumentError(f"repeated feature index in {idx}")
        object.__setattr__(self, "indices", idx)


@dataclass(frozen=True)
class ParamRef:
    """Reference to one trainable angle: layer index plus a slot label."""

    layer: int
    slot: tuple

    def __post_init__(self):
        if self.layer == 0 and self.slot[0] != "ry":
            raise ArgumentError("layer 0 carries single-qubit rotation slots only")


@dataclass(frozen=True)
class SymbolicGate:
    """Gate whose angle source is a constant, an InputExpr, or a ParamRef."""

    kind: str
    qubits: tuple[int, ...]
    source: object = None  # float, InputExpr, or ParamRef

    def __post_init__(self):
        object.__setattr__(self, "qubits", tuple(int(q) for q in self.qubits))
        if self.source is None:
            raise ArgumentError(f"{self.kind} gate needs an angle source")


def pair_set(num_qubits: int, entanglement: str) -> tuple[tuple[int, int], ...]:
    """Qubit pairs for the chosen entanglement pattern, as sorted unordered
    pairs in lexicographic order (pairs commute, the order is for determinism)."""
    if entanglement not in ENTANGLEMENTS:
        raise ArgumentError(f"entanglement must be one of {ENTANGLEMENTS}")
    if entanglement == "linear":
        pairs = {(j, j + 1) for j in range(num_qubits - 1)}
    elif entanglement == "circular":
        pairs = set()
        for j in range(num_qubits):
            k = (j + 1) % num_qubits
            if j != k:
                pairs.add(tuple(sorted((j, k))))
    else:
        pairs = set(itertools.combinations(range(num_qubits), 2))
    return tuple(sorted(pairs))


def sliding_degree_sets(num_qubits: int, size: int = 3) -> tuple[tuple[int, ...], ...]:
    """Width-`size` windows over neighbouring qubits, stride 1."""
    return tuple(tuple(range(j, j + size)) for j in range(num_qubits - size + 1))


@dataclass(frozen=True)
class EncodingSpec:
    """Shape of one encoding stage: entangling pairs plus higher-degree sets."""

    num_qubits: int
    entanglement: str = "full"
    degree_sets: tuple[tuple[int, ...], ...] = ()

    def __post_init__(self):
        if self.num_qubits < 1:
            raise ArgumentError("need at least one qubit")
        if self.entanglement not in ENTANGLEMENTS:
            raise ArgumentError(f"entanglement must be one of {ENTANGLEMENTS}")
        sets = tuple(tuple(int(q) for q in s) for s in self.degree_sets)
        object.__setattr__(self, "degree_sets", sets)
        for s in sets:
            if len(set(s)) != len(s):
                raise ArgumentError(f"degree set {s} has repeated qubits")
            if any(not 0 <= q < self.num_qubits for q in s):
                raise ArgumentError(f"degree set {s} out of range for "
                                    f"{self.num_qubits} qubits")

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        return pair_set(self.num_qubits, self.entanglement)


class AnsatzSpec(EncodingSpec):
    """Shape of one trainable stage; the knobs match the encoding's."""


def feature_map(spec: EncodingSpec) -> list[SymbolicGate]:
    """One encoding stage: ry(y_j) per qubit, then multiz(y_j*y_k) per pair,
    then multiz(prod y) per degree set, in a fixed deterministic order."""
    gates = [SymbolicGate("ry", (j,), InputExpr((j,)))
             for j in range(spec.num_qubits)]
    gates += [SymbolicGate("multiz", pair, InputExpr(pair))
              for pair in spec.pairs]
    gates += [SymbolicGate("multiz", s, InputExpr(s))
              for s in spec.degree_sets]
    return gates


def trainable_layer(spec: AnsatzSpec, layer: int) -> list[SymbolicGate]:
    """One trainable stage.  Layer 0 is single-qubit rotations only; deeper
    layers add entangling pair and degree-set rotations, each with its own
    fresh parameter."""
    if layer < 0:
        raise ArgumentError("layer index must be non-negative")
    gates = [SymbolicGate("ry", (j,), ParamRef(layer, ("ry", j)))
             for j in range(spec.num_qubits)]
    if layer == 0:
        return gates
    gates += [SymbolicGate("multiz", pair, ParamRef(layer, ("zz",) + pair))
              for pair in spec.pairs]
    gates += [SymbolicGate("multiz", s, ParamRef(layer, ("z" * len(s),) + s))
              for s in spec.degree_sets]
    return gates


@dataclass(frozen=True)
class QnnTemplate:
    """Assembled re-uploading program with its parameter table."""

    encoding: EncodingSpec
    ansatz: AnsatzSpec
    depth: int
    gates: tuple[SymbolicGate, ...]
    param_refs: tuple[ParamRef, ...]

    @property
    def num_features(self) -> int:
        return self.encoding.num_qubits

    @property
    def num_qubits(self) -> int:
        return self.encoding.num_qubits

    @property
    def param_count(self) -> int:
        return len(self.param_refs)

    @cached_property
    def _hash(self) -> int:
        return hash((self.encoding, self.ansatz, self.depth, self.gates,
                     self.param_refs))

    def __hash__(self) -> int:
        # computed once: every circuit call looks its lowering up by template
        return self._hash


def assemble_qnn(encoding: EncodingSpec, ansatz: AnsatzSpec, depth: int) -> QnnTemplate:
    """Interleave D identical encoding stages with D+1 trainable stages."""
    if encoding.num_qubits != ansatz.num_qubits:
        raise ArgumentError(
            f"encoding has {encoding.num_qubits} qubits but ansatz has "
            f"{ansatz.num_qubits}"
        )
    if depth < 1:
        raise ArgumentError("depth must be at least 1")
    gates: list[SymbolicGate] = list(trainable_layer(ansatz, 0))
    stage = feature_map(encoding)
    for layer in range(1, depth + 1):
        gates += stage
        gates += trainable_layer(ansatz, layer)
    refs = tuple(g.source for g in gates if isinstance(g.source, ParamRef))
    assert len(set(refs)) == len(refs)
    return QnnTemplate(encoding, ansatz, depth, tuple(gates), refs)


def bind(template: QnnTemplate, y: np.ndarray, theta: np.ndarray) -> list[BoundGate]:
    """Substitute concrete features and parameters, yielding executable gates.
    The angles come from the same lowering that every circuit run uses."""
    from .gradients import _program  # gradients imports this module

    y = np.asarray(y, dtype=float)
    theta = np.asarray(theta, dtype=float)
    if y.shape != (template.num_features,):
        raise ArgumentError(
            f"expected {template.num_features} features, got shape {y.shape}"
        )
    if theta.shape != (template.param_count,):
        raise ArgumentError(
            f"expected {template.param_count} parameters, got shape {theta.shape}"
        )
    prog = _program(template)
    angles = prog.base_angles(theta)
    angles[prog.input_cols] = prog.input_values(y[None, :])[0]
    return [BoundGate(kind, qubits, angle)
            for kind, qubits, angle in zip(prog.kinds, prog.qubits, angles)]


# ---------------------------------------------------------------------------
# Encoded monomials.  The encoding stage applies rotations by y_j, y_j*y_k and
# higher products; classical reference networks take this same monomial vector
# as their input so that both model families see identical information.

def encoding_exprs(spec: EncodingSpec) -> tuple[InputExpr, ...]:
    return tuple(g.source for g in feature_map(spec))


def _with_ones(features: np.ndarray) -> np.ndarray:
    return np.concatenate([features, np.ones((features.shape[0], 1))], axis=1)


class MonomialTable:
    """The monomials of one encoding stage and their partial derivatives.
    ``factors[k]`` holds the feature indices of monomial k and ``others[k,
    j]`` those of its derivative by y_j, padded with index n, a column of
    ones; ``member[k, j]`` is 1 where y_j is a factor of monomial k."""

    def __init__(self, spec: EncodingSpec):
        self.index_sets = tuple(e.indices for e in encoding_exprs(spec))
        n, width = spec.num_qubits, max(len(ix) for ix in self.index_sets)
        self.factors = np.full((len(self.index_sets), width), n)
        self.others = np.full((len(self.index_sets), n, width - 1), n)
        self.member = np.zeros((len(self.index_sets), n))
        for k, ix in enumerate(self.index_sets):
            self.factors[k, :len(ix)] = ix
            for j in ix:
                rest = [i for i in ix if i != j]
                self.others[k, j, :len(rest)] = rest
                self.member[k, j] = 1.0

    def values(self, features: np.ndarray) -> np.ndarray:
        """Monomials of every feature row, (B, K)."""
        return np.prod(_with_ones(features)[:, self.factors], axis=2)

    def partials(self, features: np.ndarray) -> np.ndarray:
        """d(monomial k)/d y_j for every feature row, (B, K, n)."""
        return np.prod(_with_ones(features)[:, self.others], axis=3) * self.member


encoding_table = lru_cache(maxsize=64)(MonomialTable)


def encoding_monomials(spec: EncodingSpec, y) -> np.ndarray:
    """Encoded monomials of one feature row, (K,), or of a matrix, (B, K)."""
    y = np.asarray(y, dtype=float)
    out = encoding_table(spec).values(np.atleast_2d(y))
    return out[0] if y.ndim == 1 else out


def monomial_jacobian(spec: EncodingSpec, y) -> np.ndarray:
    """d(monomials)/d(features) of one row, (K, N), or a matrix, (B, K, N)."""
    y = np.asarray(y, dtype=float)
    out = encoding_table(spec).partials(np.atleast_2d(y))
    return out[0] if y.ndim == 1 else out


# ---------------------------------------------------------------------------
# Serialization (embedded in model checkpoints).

def _spec_to_dict(spec: EncodingSpec) -> dict:
    return {
        "num_qubits": spec.num_qubits,
        "entanglement": spec.entanglement,
        "degree_sets": [list(s) for s in spec.degree_sets],
    }


def _spec_from_dict(d: dict, cls):
    return cls(
        num_qubits=int(d["num_qubits"]),
        entanglement=str(d["entanglement"]),
        degree_sets=tuple(tuple(s) for s in d["degree_sets"]),
    )


def _gate_to_dict(gate: SymbolicGate) -> dict:
    out = {"kind": gate.kind, "qubits": list(gate.qubits)}
    src = gate.source
    if isinstance(src, InputExpr):
        out["input"] = list(src.indices)
    elif isinstance(src, ParamRef):
        out["param"] = [src.layer, list(src.slot)]
    else:
        out["const"] = float(src)
    return out


def template_to_dict(template: QnnTemplate) -> dict:
    return {
        "encoding": _spec_to_dict(template.encoding),
        "ansatz": _spec_to_dict(template.ansatz),
        "depth": template.depth,
        "gates": [_gate_to_dict(g) for g in template.gates],
    }


def template_from_dict(d: dict) -> QnnTemplate:
    try:
        encoding = _spec_from_dict(d["encoding"], EncodingSpec)
        ansatz = _spec_from_dict(d["ansatz"], AnsatzSpec)
        depth = int(d["depth"])
    except (KeyError, TypeError) as exc:
        raise ArgumentError(f"malformed template record: {exc}") from exc
    template = assemble_qnn(encoding, ansatz, depth)
    stored = d.get("gates")
    if stored is not None:
        rebuilt = [_gate_to_dict(g) for g in template.gates]
        if rebuilt != list(stored):
            raise ArgumentError("stored gate list does not match the declared specs")
    return template
