"""Dense statevector simulation of small qubit registers.

Conventions (fixed for reproducibility, checked by the test suite):

* Little-endian ordering: qubit ``q`` is bit ``q`` of the basis-state
  index, so ``|q1 q0> = |01>`` is index 1 for ``q0 = 1``.
* ``ry(phi) = exp(-i phi sigma_y / 2)`` (half-angle convention).
* ``multiz(phi)`` on qubits ``(j1 .. jk)`` is ``exp(-i phi Z_{j1} ... Z_{jk})``
  with a *full* angle (no 1/2 factor).

Circuits run as layers (``Layers``), one kernel call per layer and block
rather than per gate: a run of ``ry`` on distinct qubits is a Kronecker
product of real blocks on windows of at most 3 neighbouring qubits, each one
stacked matmul (``_apply_kind``), and a run of ``multiz`` is one phase vector
(``_apply_phase``).  ``Tables`` builds every layer's table of a call in one
vectorised pass per kind, with a row axis of length 1 where all rows share
it.  ``Layers.backward`` is the adjoint sweep: it keeps the state after every
layer, un-applies each layer to lam with one op, and contracts once per qubit
for the rotations and once for the phase blocks.  Given the tables'
derivatives along a direction of the angles (``Tables.build`` with a
tangent), the same two loops carry the derivatives of psi and lam: each
state runs stacked with its derivative as one block of rows, and a step
adds U' psi (or U'^dag lam) to the derivative half.

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
# Layers.  A circuit runs as a list of layers (``lower_ops``): each run of
# consecutive ``ry`` on distinct qubits is one rotation layer and each run of
# consecutive ``multiz`` (diagonal, commuting) one phase block.  A layer acts
# through tables.  A rotation layer is a Kronecker product of real blocks,
# one per window of at most BLOCK_QUBITS neighbouring qubits (``_windows``),
# each applied by one stacked matmul; a phase block is the phase vector
# exp(-i A S) of its angles A and sign table S.  Tables carry a leading row
# axis, of length 1 when every row shares them.

BLOCK_QUBITS = 3

# a 2x2 rotation [[c, -s], [s, c]] as picks from (c, s) and signs
_ROT_PICK = np.array([[0, 1], [1, 0]])
_ROT_SIGN = np.array([[1.0, -1.0], [1.0, 1.0]])

# sign of Re <lam|psi with one qubit flipped> in Im <lam|sigma_y|psi>, by the
# value of that qubit's bit in lam's basis state
_FLIP_SIGN = np.array([-1.0, 1.0])

_I2 = np.eye(2)


@lru_cache(maxsize=256)
def _zstring_signs(num_qubits: int, qubits: tuple[int, ...]) -> np.ndarray:
    """Eigenvalue (+1/-1) of the Z-string on each basis state."""
    idx = np.arange(1 << num_qubits)
    parity = np.zeros_like(idx)
    for q in qubits:
        parity ^= (idx >> q) & 1
    return (1 - 2 * parity).astype(float)


def _windows(num_qubits: int) -> list:
    return [tuple(range(lo, min(lo + BLOCK_QUBITS, num_qubits)))
            for lo in range(0, num_qubits, BLOCK_QUBITS)]


def _low_window(num_qubits: int, qubits) -> bool:
    """Whether a block on ``qubits`` runs as a right product (``_apply_kind``)."""
    return qubits[0] == 0 and len(qubits) < num_qubits


def _apply_kind(amps: np.ndarray, num_qubits: int, kind: str,
                qubits: tuple[int, ...], table: np.ndarray, out=None) -> np.ndarray:
    """One rotation block, the real matrix K of a layer's rotations on the
    window ``qubits`` (k neighbouring qubits, lowest first), applied to
    amplitudes (rows, 2**n) by one stacked matmul.  ``table`` is K as (rows
    or 1, 1, 2**k, 2**k), which multiplies the window's axis from the left;
    on a low window (``_low_window``) it is kron(K^T, I_2) as (rows or 1,
    2**(k+1), 2**(k+1)), which multiplies each run of 2**k amplitudes from
    the right, one product per row instead of one per higher basis state.
    Each row's products run on their own, so their rounding does not depend
    on the number of rows.  Writes into ``out`` when given."""
    if kind != "ry":
        raise ArgumentError(f"no block kernel for kind {kind!r}")
    rows, k, lo = len(amps), len(qubits), qubits[0]
    if _low_window(num_qubits, qubits):
        shape = (rows, 1 << (num_qubits - k), 2 << k)
        operands = (amps.view(float).reshape(shape), table)
    else:
        shape = (rows, 1 << (num_qubits - lo - k), 1 << k, 2 << lo)
        operands = (table, amps.view(float).reshape(shape))
    if out is not None:
        np.matmul(*operands, out=out.view(float).reshape(shape))
        return out
    return np.matmul(*operands).reshape(rows, -1).view(complex)


def _apply_phase(amps: np.ndarray, phase: np.ndarray, out=None) -> np.ndarray:
    """One phase block: amplitudes (rows, 2**n) times its phase vector."""
    return np.multiply(amps, phase, out=out)


def _expectation_z_raw(amps: np.ndarray, num_qubits: int, qubit: int) -> np.ndarray:
    signs = _zstring_signs(num_qubits, (qubit,))
    return (signs * (amps.real ** 2 + amps.imag ** 2)).sum(axis=-1)


def lower_ops(num_qubits: int, kinds, qubits) -> list:
    """Group a gate list into layers ``(kind, data, cols)`` over the gate
    columns ``cols``: ``("ry", blocks, cols)`` for a run of consecutive
    ``ry`` on distinct qubits, with ``(window, slot)`` in ``blocks`` for each
    window holding one of them, ``slot[t]`` the position in ``cols`` of the
    gate on the window's t-th qubit from the top or -1; and ``("phase",
    signs, cols)`` for a run of consecutive ``multiz``, with its sign table
    (len(cols), 2**n)."""
    ops, run = [], []

    def close():
        if not run:
            return
        cols = np.array(run)
        if kinds[run[0]] == "multiz":
            ops.append(("phase", np.stack([
                _zstring_signs(num_qubits, tuple(sorted(qubits[g]))) for g in run]),
                cols))
        else:
            where = {qubits[g][0]: k for k, g in enumerate(run)}
            ops.append(("ry", tuple(
                (w, np.array([where.get(q, -1) for q in reversed(w)]))
                for w in _windows(num_qubits) if any(q in where for q in w)), cols))
        run.clear()

    for g, kind in enumerate(kinds):
        if run and (kind != kinds[run[0]] or kind == "ry" and any(
                qubits[h][0] == qubits[g][0] for h in run)):
            close()
        run.append(g)
    close()
    return ops


def _padded_phases(num_qubits: int, ops):
    """Gate columns (P, w) and sign tables (P, w, 2**n) of the P phase blocks
    in ``ops``, padded to the widest block w with column -1 and zero signs."""
    blocks = [(signs, cols) for kind, signs, cols in ops if kind == "phase"]
    width = max((len(cols) for _, cols in blocks), default=0)
    cols = np.full((len(blocks), width), -1)
    signs = np.zeros((len(blocks), width, 1 << num_qubits))
    for p, (block_signs, block_cols) in enumerate(blocks):
        cols[p, :len(block_cols)] = block_cols
        signs[p, :len(block_cols)] = block_signs
    return cols, signs


def _steps(ops) -> list:
    """The kernel calls of ``ops`` in order: one per rotation block, with its
    window, and one per phase block, with None."""
    return [(window, i) for i, (kind, data, _) in enumerate(ops)
            for window in ([w for w, _ in data] if kind == "ry" else [None])]


class Tables:
    """Builds the table of every kernel call (``_steps``) of ``ops`` from an
    angle matrix (rows or 1, C) whose column c holds the angle of gate column
    c: one vectorised pass for all rotation blocks of a window size and one
    for all phase blocks, every row on its own."""

    def __init__(self, num_qubits: int, ops):
        steps = _steps(ops)
        self.windows = [window for window, _ in steps]
        self.first = {}   # op -> its first step
        for s, (_, i) in enumerate(steps):
            self.first.setdefault(i, s)
        self.rotations = []   # (size, gate column per slot, filled slots,
        #                        blocks, positions of the low-window blocks)
        by_size = {}
        for s, (window, i) in enumerate(steps):
            if window is not None:
                _, data, cols = ops[i]
                slot = dict(data)[window]
                gates, where, low = by_size.setdefault(len(window), ([], [], []))
                gates.append(np.where(slot >= 0, cols[slot], -1))
                low.append(_low_window(num_qubits, window))
                where.append(s)
        order = []
        for size, (gates, where, low) in sorted(by_size.items()):
            gates = np.concatenate(gates)
            filled = gates >= 0
            self.rotations.append((size, gates[filled],
                                   None if filled.all() else filled, len(where),
                                   np.flatnonzero(low)))
            order += where
        order += [s for s, (w, _) in enumerate(steps) if w is None]
        self.order = np.argsort(order).tolist()
        # a padding column reads the last angle under a zero sign
        self.phase_cols, self.phase_signs = _padded_phases(num_qubits, ops)

    def row_bytes(self) -> int:
        """Bytes the tables of one row take while they are built and used."""
        size = 0
        for k, gates, filled, blocks, low in self.rotations:
            size += 80 * (len(gates) if filled is None else len(filled))
            size += blocks * (24 << 2 * k) + len(low) * (96 << 2 * k)
        return (size + 8 * self.phase_cols.size
                + 56 * len(self.phase_cols) * self.phase_signs.shape[-1])

    def build(self, angles: np.ndarray, adjoint: bool = False, tangent=None):
        """Per step, in order: the table of a rotation block as
        ``_apply_kind`` takes it, or the phase (R, 2**n) of a phase block.
        With ``tangent``, a direction (rows, C) over the same columns, also
        the derivatives of those tables along it, in the same layouts, and
        the tables themselves take 2 * rows rows, to act on states stacked
        over their derivatives (``Layers.forward``).  With ``adjoint``, also
        the tables that un-apply each of them (``_unapply``).  Returns
        (forward, back, dforward, dback), None for what was not asked."""
        forward, dforward = [], []
        for k, gates, filled, count, low in self.rotations:
            half = _slot_values(angles, gates, filled) * 0.5
            trig = np.empty(half.shape + (2,))
            np.cos(half, out=trig[..., 0])
            np.sin(half, out=trig[..., 1])
            mats = _rotation_mats(trig, count, k)
            blocks = mats[:, :, 0]
            if tangent is not None:
                # dR(a)/da = R(a + pi) / 2: (cos, sin) -> (-sin, cos) / 2
                rate = _slot_values(tangent, gates, filled) * 0.5
                dmats = _rotation_mats(np.stack((-trig[..., 1] * rate,
                                                 trig[..., 0] * rate), axis=-1),
                                       count, k)
                dblocks = dmats[:, :, 0]
            for t in range(1, k):   # Kronecker product, highest qubit first
                if tangent is not None:
                    dblocks = (_kron(dblocks, mats[:, :, t])
                               + _kron(blocks, dmats[:, :, t]))
                blocks = _kron(blocks, mats[:, :, t])
            if tangent is not None:
                dforward += _block_tables(dblocks, low, k)
                blocks = np.concatenate((blocks, blocks))
            forward += _block_tables(blocks, low, k)
        if len(self.phase_cols):
            phase = np.exp(-1j * self._exponents(angles))
            if tangent is not None:
                dphase = -1j * self._exponents(tangent) * phase
                dforward += list(dphase.swapaxes(0, 1))
                phase = np.concatenate((phase, phase))
            forward += list(phase.swapaxes(0, 1))
        forward = [forward[s] for s in self.order]
        back = self._unapply(forward) if adjoint else None
        if tangent is None:
            return forward, back, None, None
        dforward = [dforward[s] for s in self.order]
        return forward, back, dforward, self._unapply(dforward) if adjoint else None

    def _unapply(self, tables: list) -> list:
        """The tables that un-apply the steps' ``tables``, or take the
        derivatives of those: a rotation block's transpose, a phase
        block's conjugate."""
        return [np.conj(table) if window is None else table.swapaxes(-1, -2)
                for window, table in zip(self.windows, tables)]

    def _exponents(self, angles: np.ndarray) -> np.ndarray:
        """A S of every phase block and row, (rows, P, 2**n): one
        matrix-vector product per row and block, on a C-ordered gather.
        ``angles[:, cols]`` would lay the rows innermost, and a strided
        vector is summed in another order than a contiguous one."""
        return np.matmul(np.take(angles, self.phase_cols, axis=1)[:, :, None],
                         self.phase_signs)[:, :, 0]


def _slot_values(angles: np.ndarray, gates: np.ndarray, filled) -> np.ndarray:
    """The angles of a window size's rotation slots, (rows, slots), 0 in an
    empty slot."""
    values = angles[:, gates]
    if filled is None:
        return values
    out = np.zeros((len(angles), len(filled)))
    out[:, filled] = values
    return out


def _rotation_mats(trig: np.ndarray, count: int, k: int) -> np.ndarray:
    """The 2x2 matrices [[c, -s], [s, c]] of (c, s) pairs (rows, slots, 2),
    as (rows, count, k, 2, 2)."""
    return (trig[..., _ROT_PICK] * _ROT_SIGN).reshape(len(trig), count, k, 2, 2)


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker products a (..., d, d) x b (..., 2, 2), a the higher."""
    d = a.shape[-1]
    return (a[..., :, None, :, None] * b[..., None, :, None, :]).reshape(
        a.shape[:-2] + (2 * d, 2 * d))


def _block_tables(blocks: np.ndarray, low: np.ndarray, k: int) -> list:
    """Tables of rotation blocks (rows, count, 2**k, 2**k) as ``_apply_kind``
    takes them: K on a window's axis, kron(K^T, I_2) on a low window."""
    rows = len(blocks)
    tables = list(blocks[:, :, None].swapaxes(0, 1))
    if len(low):
        right = np.multiply(blocks[:, low].swapaxes(-1, -2)[..., :, None, :, None],
                            _I2[:, None, :], order="C").reshape(
                                rows, len(low), 2 << k, 2 << k)
        for j, table in zip(low, right.swapaxes(0, 1)):
            tables[j] = table
    return tables


class Layers:
    """A gate list lowered to layers, with the gate loop and the adjoint sweep
    over them.  An adjoint run keeps the state after every layer in one
    (layers, rows, 2**n) array, in slots that put the rotation layers
    first, so each kind's states form one contiguous slice."""

    def __init__(self, num_qubits: int, kinds, qubits):
        self.num_qubits = num_qubits
        self.ops = ops = lower_ops(num_qubits, kinds, qubits)
        rot = [i for i, op in enumerate(ops) if op[0] == "ry"]
        phase = [i for i, op in enumerate(ops) if op[0] == "phase"]
        slot = [0] * len(ops)
        for k, i in enumerate(rot + phase):
            slot[i] = k
        steps = _steps(ops)
        last = {i: s for s, (_, i) in enumerate(steps)}
        # (window or None, state slot written after the step or None)
        self.steps = [(w, slot[i] if last[i] == s else None)
                      for s, (w, i) in enumerate(steps)]
        # un-apply layers last to first but the first, from lam after the
        # layer into lam after the one before it:
        # (window or None, step, slot read or None, slot written or None)
        self.back_steps = []
        for i in range(len(ops) - 1, 0, -1):
            mine = [s for s, (_, j) in enumerate(steps) if j == i][::-1]
            self.back_steps += [
                (steps[s][0], s, slot[i] if t == 0 else None,
                 slot[i - 1] if t == len(mine) - 1 else None)
                for t, s in enumerate(mine)]
        self.last_slot = slot[-1] if ops else None
        self.no_tangents = [None] * len(steps)
        self.num_rotations = len(rot)
        spare = len(kinds)   # the gradient column that takes padding
        # per qubit, the gate rotating it in each rotation layer
        on_qubit = np.full((num_qubits, len(rot)), spare)
        for layer, i in enumerate(rot):
            for g in ops[i][2]:
                on_qubit[qubits[g][0], layer] = g
        self.rotation_cols = [(q, cols) for q, cols in enumerate(on_qubit)
                              if np.any(cols < spare)]
        cols, signs = _padded_phases(num_qubits, ops)
        self.phase_cols = np.where(cols < 0, spare, cols).ravel()
        # 2 S^T, one (2**n, w) matrix per block
        self.phase_signs = np.ascontiguousarray(2.0 * signs.swapaxes(1, 2))[:, None]

    def forward(self, amps: np.ndarray, tables, states=None,
                tangents=None) -> np.ndarray:
        """Apply every layer to amplitudes (rows, 2**n), step s through
        ``tables[s]``; the state after each layer goes to its slot of
        ``states`` when that is given.  With ``tangents``, the rows are R
        states over their derivatives along a direction of the angles, and
        ``tangents[s]``, the derivative U' of ``tables[s]`` (None where it
        is 0), adds U' psi to them: psi' <- U psi' + U' psi."""
        n, half = self.num_qubits, len(amps) // 2
        for (window, slot), table, tangent in zip(self.steps, tables,
                                                  tangents or self.no_tangents):
            out = None if states is None or slot is None else states[slot]
            if window is None:
                moved = _apply_phase(amps, table, out)
                if tangent is not None:
                    moved[half:] += _apply_phase(amps[:half], tangent)
            else:
                moved = _apply_kind(amps, n, "ry", window, table, out)
                if tangent is not None:
                    moved[half:] += _apply_kind(amps[:half], n, "ry", window, tangent)
            amps = moved
        return amps

    def backward(self, psi: np.ndarray, lam: np.ndarray, observable: np.ndarray,
                 back, grads: np.ndarray, tangents=None) -> None:
        """Adjoint sweep over the states ``psi`` that ``forward`` kept: set
        lam = O psi after the last layer, un-apply the layers last to first
        into ``lam`` (step s through ``back[s]``), and write d<O>/d(angle of
        gate g) = 2 Im <lam|G_g|psi> into ``grads[:, g]`` (``_contract``).
        With ``tangents`` (``tangents[s]`` the derivative of ``back[s]``),
        ``psi`` holds states over derivatives, and lam' = O psi', lam' <-
        U^dag lam' + U'^dag lam runs stacked over lam, so that ``grads``
        takes 2 Im <lam'|G_g|psi> in its first half and 2 Im <lam|G_g|psi'>
        in its second: their sum is the derivative along the direction."""
        n, last, half = self.num_qubits, self.last_slot, psi.shape[1] // 2
        if tangents is None:
            np.multiply(psi[last], observable, out=lam[last])
        else:
            np.multiply(psi[last, half:], observable, out=lam[last, :half])
            np.multiply(psi[last, :half], observable, out=lam[last, half:])
        tangents = tangents or self.no_tangents
        for window, s, src, dst in self.back_steps:
            if src is not None:
                amps = lam[src]
            out = None if dst is None else lam[dst]
            if window is None:
                moved = _apply_phase(amps, back[s], out)
                if tangents[s] is not None:
                    moved[:half] += _apply_phase(amps[half:], tangents[s])
            else:
                moved = _apply_kind(amps, n, "ry", window, back[s], out)
                if tangents[s] is not None:
                    moved[:half] += _apply_kind(amps[half:], n, "ry", window,
                                                tangents[s])
            amps = moved
        self._contract(psi, lam, grads)

    def _contract(self, psi: np.ndarray, lam: np.ndarray, grads: np.ndarray) -> None:
        """Write 2 Im <lam|G_g|psi> into ``grads[:, g]`` for every gate g,
        G_g being the gate's generator and column len(kinds) taking padding;
        both states are taken after the gate's layer, whose other gates
        commute with G_g.  One contraction per qubit gives its rotations in
        every layer (lam against psi with that qubit flipped, signed by its
        bit), one all phase blocks.  Overwrites the phase blocks' slots of
        ``lam``."""
        n = self.num_qubits
        rows, r = psi.shape[1], self.num_rotations
        for q, cols in self.rotation_cols:
            shape = (r, rows, 1 << (n - 1 - q), 2, 2 << q)
            grads[:, cols] = np.einsum(
                "lrhik,lrhik,i->rl", lam[:r].view(float).reshape(shape),
                psi[:r].view(float).reshape(shape)[:, :, :, ::-1], _FLIP_SIGN)
        if r < len(self.ops):   # one vector-matrix product per block and row
            overlap = lam[r:]
            np.conjugate(overlap, out=overlap)
            np.multiply(overlap, psi[r:], out=overlap)
            grads[:, self.phase_cols] = np.matmul(
                overlap.imag[:, :, None], self.phase_signs)[:, :, 0].swapaxes(0, 1).reshape(rows, -1)


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
    layers = Layers(state.num_qubits, [g.kind for g in gates],
                    [g.qubits for g in gates])
    tables = Tables(state.num_qubits, layers.ops).build(
        np.array([[g.angle for g in gates]]))[0]
    amps = layers.forward(state.amplitudes[None], tables)
    return StateVector(state.num_qubits, amps[0])


def apply_gate(state: StateVector, gate: BoundGate) -> StateVector:
    """Apply one gate, returning the transformed state."""
    return run_circuit(state, [gate])


def expectation_z(state: StateVector, qubit: int) -> float:
    """Exact <Z> on one qubit (no sampling)."""
    _check_qubits(state, (qubit,))
    return float(_expectation_z_raw(state.amplitudes, state.num_qubits, qubit))
