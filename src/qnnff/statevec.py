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

import math
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


@lru_cache(maxsize=256)
def _bit_flip(num_qubits: int, qubit: int):
    """Basis index with ``qubit`` flipped, and -1/+1 where that bit is 0/1."""
    idx = np.arange(1 << num_qubits)
    return idx ^ (1 << qubit), np.where((idx >> qubit) & 1, 1.0, -1.0)


def _apply_ry(amps: np.ndarray, num_qubits: int, qubit: int, angle) -> np.ndarray:
    # new |0> = c |0> - s |1>, new |1> = s |0> + c |1> on the rotated qubit
    flip, sign = _bit_flip(num_qubits, qubit)
    if np.ndim(angle):
        half = np.asarray(angle, dtype=float)[..., None] / 2.0
        c, s = np.cos(half), np.sin(half)
    else:
        c, s = math.cos(angle / 2.0), math.sin(angle / 2.0)
    return c * amps + (s * sign) * amps[..., flip]


def _apply_kind(amps: np.ndarray, num_qubits: int, kind: str,
                qubits: tuple[int, ...], angle) -> np.ndarray:
    """One non-diagonal gate; diagonal gates run in blocks (``_apply_phase``)."""
    if kind == "ry":
        return _apply_ry(amps, num_qubits, qubits[0], angle)
    raise ArgumentError(f"no single-gate kernel for kind {kind!r}")


def _apply_phase(amps: np.ndarray, signs: np.ndarray, angles):
    """A diagonal block: commuting Z-strings with sign table ``signs`` (k,
    2**n) and angles ``a_1 .. a_k`` act as the phase vector exp(-i A S).
    Returns the new amplitudes and the phase, (2**n,) when every angle is a
    scalar and (rows, 2**n) otherwise.  The contraction is an einsum, whose
    rounding per row does not depend on the number of rows."""
    if all(np.ndim(a) == 0 for a in angles):
        phase = np.exp(-1j * np.einsum("k,kx->x", np.array(angles, dtype=float),
                                       signs))
    else:
        table = np.stack(np.broadcast_arrays(*angles), axis=-1)
        phase = np.exp(-1j * np.einsum("rk,kx->rx", table, signs))
    return amps * phase, phase


# d f / d(ry angle) = Re(<lam_1|psi_0> - <lam_0|psi_1>) on the rotated qubit,
# written as lam_i J_ij psi_j over real and imaginary parts
_RY_GENERATOR = np.array([[0.0, -1.0], [1.0, 0.0]])


def _ry_derivative(pair: np.ndarray, num_qubits: int, qubit: int) -> np.ndarray:
    """2 Im <lam| sigma_y / 2 |psi> per row of the stacked (psi, lam) pair."""
    parts = pair.view(float).reshape(
        2, pair.shape[1], 1 << (num_qubits - 1 - qubit), 2, 2 << qubit)
    return np.einsum("ij,rhik,rhjk->r", _RY_GENERATOR, parts[1], parts[0])


def _expectation_z_raw(amps: np.ndarray, num_qubits: int, qubit: int) -> np.ndarray:
    signs = _zstring_signs(num_qubits, (qubit,))
    return (signs * (amps.real ** 2 + amps.imag ** 2)).sum(axis=-1)


# ---------------------------------------------------------------------------
# The gate loop: every circuit run lowers its gates to ops and runs them here.

def lower_ops(num_qubits: int, kinds, qubits) -> list:
    """Group a gate list into the ops the gate loop runs: ``("ry", qubit,
    g)`` per rotation and ``("phase", signs, cols)`` per run of consecutive
    ``multiz`` gates ``cols``, which are diagonal and commute."""
    ops, run = [], []

    def close_run():
        if run:
            signs = np.stack([_zstring_signs(num_qubits, tuple(sorted(qubits[g])))
                              for g in run])
            ops.append(("phase", signs, np.array(run)))
            run.clear()

    for g, kind in enumerate(kinds):
        if kind == "multiz":
            run.append(g)
        else:
            close_run()
            ops.append((kind, qubits[g][0], g))
    close_run()
    return ops


def forward(amps: np.ndarray, num_qubits: int, ops, angles, phases=None):
    """The gate loop behind every circuit run: apply ``ops`` (``lower_ops``)
    left to right to amplitudes shaped (..., 2**n).  ``angles[g]`` is gate
    g's angle, a scalar or one per row; each block's phase is appended to
    ``phases`` when given, for ``backward``."""
    for kind, where, cols in ops:
        if kind == "phase":
            amps, phase = _apply_phase(amps, where, [angles[g] for g in cols])
            if phases is not None:
                phases.append(phase)
        else:
            amps = _apply_kind(amps, num_qubits, kind, (where,), angles[cols])
    return amps


def backward(psi: np.ndarray, lam: np.ndarray, num_qubits: int, ops, angles,
             phases, grads: np.ndarray) -> None:
    """Adjoint sweep: un-apply ``ops`` last to first to the stacked final
    state ``psi`` (rows, 2**n) and ``lam = O psi``, writing d<O>/d(angle of
    gate g) = 2 Im <lam|G_g|psi> into ``grads[:, g]``, with G_g the gate's
    generator and both states taken just after the gate acted.  The gates of
    a block commute, so one contraction with its sign table gives them all."""
    pair = np.stack((psi, lam))
    phases = iter(reversed(phases))
    for kind, where, cols in reversed(ops):
        if kind == "phase":
            overlap = (np.conj(pair[1]) * pair[0]).imag
            grads[:, cols] = 2.0 * np.einsum("rx,kx->rk", overlap, where)
            pair = pair * np.conj(next(phases))
        else:
            grads[:, cols] = _ry_derivative(pair, num_qubits, where)
            pair = _apply_kind(pair, num_qubits, kind, (where,), -angles[cols])


# ---------------------------------------------------------------------------
# Public single-state operations.

def _check_qubits(state: StateVector, qubits: tuple[int, ...]) -> None:
    for q in qubits:
        if not 0 <= q < state.num_qubits:
            raise ArgumentError(
                f"qubit index {q} out of range for {state.num_qubits} qubits"
            )


def run_circuit(state: StateVector, gates) -> StateVector:
    """Apply a gate sequence left to right."""
    gates = list(gates)
    for gate in gates:
        _check_qubits(state, gate.qubits)
    ops = lower_ops(state.num_qubits, [g.kind for g in gates],
                    [g.qubits for g in gates])
    amps = forward(state.amplitudes, state.num_qubits, ops,
                   [g.angle for g in gates])
    return StateVector(state.num_qubits, amps)


def apply_gate(state: StateVector, gate: BoundGate) -> StateVector:
    """Apply one gate, returning the transformed state."""
    return run_circuit(state, [gate])


def expectation_z(state: StateVector, qubit: int) -> float:
    """Exact <Z> on one qubit (no sampling)."""
    _check_qubits(state, (qubit,))
    return float(_expectation_z_raw(state.amplitudes, state.num_qubits, qubit))
