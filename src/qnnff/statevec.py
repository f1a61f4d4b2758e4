"""Dense statevector simulation of small qubit registers.

Conventions (fixed for reproducibility, checked by the test suite):

* Little-endian ordering: qubit ``q`` is bit ``q`` of the basis-state
  index, so ``|q1 q0> = |01>`` is index 1 for ``q0 = 1``.
* ``ry(phi) = exp(-i phi sigma_y / 2)`` (half-angle convention).
* ``multiz(phi)`` on qubits ``(j1 .. jk)`` is ``exp(-i phi Z_{j1} ... Z_{jk})``
  with a *full* angle (no 1/2 factor).

All public operations are value-semantic: they return a new ``StateVector``
and never mutate their inputs, so independent circuits can safely be
evaluated concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import ArgumentError, CapacityError

MAX_QUBITS = 24

GATE_KINDS = ("ry", "multiz")


@dataclass(frozen=True)
class BoundGate:
    """A gate with all angles bound to concrete values."""

    kind: str
    qubits: tuple[int, ...]
    angle: float | None = None

    def __post_init__(self):
        if self.kind not in GATE_KINDS:
            raise ArgumentError(f"unknown gate kind {self.kind!r}")
        qubits = tuple(int(q) for q in self.qubits)
        object.__setattr__(self, "qubits", qubits)
        if len(set(qubits)) != len(qubits):
            raise ArgumentError(f"repeated qubit index in {qubits}")
        if any(q < 0 for q in qubits):
            raise ArgumentError(f"negative qubit index in {qubits}")
        if self.kind == "ry" and len(qubits) != 1:
            raise ArgumentError(f"ry acts on exactly 1 qubit, got {qubits}")
        if len(qubits) < 1:
            raise ArgumentError(f"{self.kind} needs at least 1 qubit")
        if self.angle is None:
            raise ArgumentError(f"{self.kind} requires an angle")
        object.__setattr__(self, "angle", float(self.angle))


def ry(qubit: int, angle: float) -> BoundGate:
    return BoundGate("ry", (qubit,), angle)


def multiz(qubits: tuple[int, ...], angle: float) -> BoundGate:
    return BoundGate("multiz", tuple(qubits), angle)


@dataclass(frozen=True, eq=False)
class StateVector:
    """Complex amplitudes over the computational basis of ``num_qubits`` qubits."""

    num_qubits: int
    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (1 << self.num_qubits,):
            raise ArgumentError(
                f"amplitude vector of length {amps.shape} does not match "
                f"{self.num_qubits} qubits"
            )
        object.__setattr__(self, "amplitudes", amps)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


def init_zero(num_qubits: int) -> StateVector:
    """Prepare |0...0>."""
    if not 1 <= num_qubits <= MAX_QUBITS:
        raise CapacityError(
            f"num_qubits must be in [1, {MAX_QUBITS}], got {num_qubits}"
        )
    amps = np.zeros(1 << num_qubits, dtype=complex)
    amps[0] = 1.0
    return StateVector(num_qubits, amps)


# ---------------------------------------------------------------------------
# Gate kernels.  They act on the last axis of an array shaped (..., 2**n) so
# the same code drives single states and batched evaluation, with an angle
# that is either a scalar or an array matching the leading axes.

@lru_cache(maxsize=256)
def _zstring_signs(num_qubits: int, qubits: tuple[int, ...]) -> np.ndarray:
    """Eigenvalue (+1/-1) of the Z-string on each basis state."""
    idx = np.arange(1 << num_qubits)
    parity = np.zeros_like(idx)
    for q in qubits:
        parity ^= (idx >> q) & 1
    return (1 - 2 * parity).astype(float)


def _expand(angle, extra_axes: int):
    ang = np.asarray(angle, dtype=float)
    if ang.ndim:
        return ang.reshape(ang.shape + (1,) * extra_axes)
    return ang


def _apply_ry(amps: np.ndarray, num_qubits: int, qubit: int, angle) -> np.ndarray:
    lead = amps.shape[:-1]
    shaped = amps.reshape(lead + (1 << (num_qubits - 1 - qubit), 2, 1 << qubit))
    half = _expand(angle, 2) / 2.0
    c, s = np.cos(half), np.sin(half)
    x0 = shaped[..., 0, :]
    x1 = shaped[..., 1, :]
    out = np.empty_like(shaped)
    out[..., 0, :] = c * x0 - s * x1
    out[..., 1, :] = s * x0 + c * x1
    return out.reshape(amps.shape)


def _apply_multiz(amps: np.ndarray, num_qubits: int, qubits: tuple[int, ...], angle) -> np.ndarray:
    signs = _zstring_signs(num_qubits, tuple(sorted(qubits)))
    ang = np.asarray(angle, dtype=float)
    if ang.ndim:
        # one complex exponential per row; +1/-1 eigenvalues are conjugates
        plus = np.exp(-1j * ang)[..., None]
        out = amps.copy()
        pos = signs > 0
        out[..., pos] *= plus
        out[..., ~pos] *= np.conj(plus)
        return out
    return amps * np.exp(-1j * ang * signs)


def _apply_kind(amps: np.ndarray, num_qubits: int, kind: str,
                qubits: tuple[int, ...], angle) -> np.ndarray:
    if kind == "ry":
        return _apply_ry(amps, num_qubits, qubits[0], angle)
    if kind == "multiz":
        return _apply_multiz(amps, num_qubits, qubits, angle)
    raise ArgumentError(f"unknown gate kind {kind!r}")


def _expectation_z_raw(amps: np.ndarray, num_qubits: int, qubit: int) -> np.ndarray:
    signs = _zstring_signs(num_qubits, (qubit,))
    return (signs * (amps.real ** 2 + amps.imag ** 2)).sum(axis=-1)


# ---------------------------------------------------------------------------
# Public single-state operations.

def _check_qubits(state: StateVector, qubits: tuple[int, ...]) -> None:
    for q in qubits:
        if not 0 <= q < state.num_qubits:
            raise ArgumentError(
                f"qubit index {q} out of range for {state.num_qubits} qubits"
            )


def apply_gates(amps: np.ndarray, num_qubits: int, gates) -> np.ndarray:
    """The gate loop behind every circuit run: apply ``(kind, qubits, angle)``
    triples left to right to amplitudes shaped (..., 2**n)."""
    for kind, qubits, angle in gates:
        amps = _apply_kind(amps, num_qubits, kind, qubits, angle)
    return amps


def run_circuit(state: StateVector, gates) -> StateVector:
    """Apply a gate sequence left to right."""
    gates = list(gates)
    for gate in gates:
        _check_qubits(state, gate.qubits)
    amps = apply_gates(state.amplitudes, state.num_qubits,
                       ((g.kind, g.qubits, g.angle) for g in gates))
    return StateVector(state.num_qubits, amps)


def apply_gate(state: StateVector, gate: BoundGate) -> StateVector:
    """Apply one gate, returning the transformed state."""
    return run_circuit(state, [gate])


def expectation_z(state: StateVector, qubit: int) -> float:
    """Exact <Z> on one qubit (no sampling)."""
    _check_qubits(state, (qubit,))
    return float(_expectation_z_raw(state.amplitudes, state.num_qubits, qubit))
