"""Dense statevector simulation of small qubit registers.

Conventions (fixed for reproducibility, checked by the test suite):

* Little-endian ordering: qubit ``q`` is bit ``q`` of the basis-state
  index, so ``|q1 q0> = |01>`` is index 1 for ``q0 = 1``.
* ``ry(phi) = exp(-i phi sigma_y / 2)`` (half-angle convention).
* ``multiz(phi)`` on qubits ``(j1 .. jk)`` is ``exp(-i phi Z_{j1} ... Z_{jk})``
  with a *full* angle (no 1/2 factor).

Circuits run as ops (``Layers``): each op is a rotation layer (a run of
``ry`` on distinct qubits) and the phase block (a run of ``multiz``) after
it, either part possibly empty, on every register.  Only its kernel calls
(``_apply_kind``) depend on the register.  A rotation layer is a Kronecker
product of real blocks K on windows of at most ``BLOCK_QUBITS`` = 3
neighbouring qubits, and a phase block is one phase vector p.  A register of
up to 3 qubits is one window, and there an op runs as one stage: one stacked
complex matmul by T = diag(p) K.  A wider register runs one real matmul per
block and one product per phase block.  ``Tables`` builds every table of a
call in one vectorised pass per kind, with a row axis of length 1 where all
rows share it.  ``Layers.backward`` is the adjoint sweep: it keeps every
state, un-applies each op to lam, and contracts once per qubit for the
rotations and once for the phase blocks.  Op i's rotation gradients are read
at state i, before it, and its phase gradients at state i + 1, after it,
where the rest of the op commutes with the gate's generator.  Given the
tables' derivatives along a direction of the angles (``Tables.build`` with a
tangent), the same two loops carry the derivatives of psi and lam: each
state runs stacked with its derivative as one block of rows, and a step adds
U' psi (or U'^dag lam) to the derivative half.

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
# Ops.  A circuit runs as a list of ops (``lower_ops``), each a run of
# consecutive ``ry`` on distinct qubits (a rotation layer) and the run of
# consecutive ``multiz`` after it (a phase block: diagonal, commuting).  An
# op acts through tables, one per kernel call (``_steps``).  A rotation layer
# is a Kronecker product of real blocks K, one per window of at most
# BLOCK_QUBITS neighbouring qubits (``_windows``), each one stacked matmul; a
# phase block is the phase vector p = exp(-i A S) of its angles A and sign
# table S.  A register that one window covers runs each op as one stage
# instead, with the complex table T = diag(p) K, one stacked matmul.  Tables
# carry a leading row axis, of length 1 when every row shares them.

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
    """One kernel call on amplitudes (rows, 2**n), writing into ``out`` when
    given.  Each row's products run on their own, so their rounding does not
    depend on the number of rows.

    * ``"stage"``: the complex matrix T = diag(p) K of a stage, ``table``
      its transpose as (rows or 1, 2**n, 2**n), which multiplies each row
      from the right: one stacked matmul (rows, 1, 2**n) @ table.
    * ``"multiz"``: a phase block, ``table`` its phase vector (rows or 1,
      2**n).
    * ``"ry"``: a rotation block, the real matrix K of a layer's rotations
      on the window ``qubits`` (k neighbouring qubits, lowest first), by one
      stacked matmul.  ``table`` is K as (rows or 1, 1, 2**k, 2**k), which
      multiplies the window's axis from the left; on a low window
      (``_low_window``) it is kron(K^T, I_2) as (rows or 1, 2**(k+1),
      2**(k+1)), which multiplies each run of 2**k amplitudes from the
      right, one product per row instead of one per higher basis state."""
    if kind == "stage":
        if out is None:
            return np.matmul(amps[:, None], table)[:, 0]
        np.matmul(amps[:, None], table, out=out[:, None])
        return out
    if kind == "multiz":
        return np.multiply(amps, table, out=out)
    if kind != "ry":
        raise ArgumentError(f"no kernel for kind {kind!r}")
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


def _expectation_z_raw(amps: np.ndarray, num_qubits: int, qubit: int) -> np.ndarray:
    signs = _zstring_signs(num_qubits, (qubit,))
    return (signs * (amps.real ** 2 + amps.imag ** 2)).sum(axis=-1)


def lower_ops(num_qubits: int, kinds, qubits) -> list:
    """Group a gate list into ops ``(blocks, signs, cols)`` over the gate
    columns ``cols``: a rotation layer and the phase block after it, either
    of them possibly empty, its rotations first.  ``blocks`` holds
    ``(window, slot)`` for each window that the op rotates, or for the
    register's one window on a register of at most BLOCK_QUBITS qubits,
    ``slot[t]`` the position in ``cols`` of the gate on the window's t-th
    qubit from the top or -1, and ``signs`` the sign table (len(signs), 2**n)
    of its phase gates, the last len(signs) of ``cols``."""
    groups = []   # (rotation gates, phase gates) per op
    for g, kind in enumerate(kinds):
        last = groups[-1] if groups else None
        # a phase gate joins any op, a rotation one with no phase gate yet
        # and no rotation on its qubit
        if last is not None and (kind != "ry" or not last[1] and all(
                qubits[h][0] != qubits[g][0] for h in last[0])):
            last[kind != "ry"].append(g)
        else:
            groups.append(([g], []) if kind == "ry" else ([], [g]))
    stages = num_qubits <= BLOCK_QUBITS
    ops = []
    for rot, phase in groups:
        where = {qubits[g][0]: k for k, g in enumerate(rot)}
        blocks = tuple((w, np.array([where.get(q, -1) for q in reversed(w)]))
                       for w in _windows(num_qubits)
                       if stages or any(q in where for q in w))
        signs = np.array([_zstring_signs(num_qubits, tuple(sorted(qubits[g])))
                          for g in phase]).reshape(len(phase), 1 << num_qubits)
        ops.append((blocks, signs, np.array(rot + phase, dtype=int)))
    return ops


def _steps(num_qubits: int, ops) -> list:
    """The kernel calls of ``ops`` in order, ``(kind, window, op)``: one
    ``"stage"`` per op on a register of at most BLOCK_QUBITS qubits;
    otherwise one ``"ry"`` per rotation block and then, if the op has phase
    gates, one ``"multiz"``, window None."""
    if num_qubits <= BLOCK_QUBITS:
        return [("stage", blocks[0][0], i) for i, (blocks, _, _) in enumerate(ops)]
    return [step for i, (blocks, signs, _) in enumerate(ops)
            for step in [("ry", w, i) for w, _ in blocks]
            + [("multiz", None, i)] * bool(len(signs))]


def _padded_phases(num_qubits: int, ops):
    """Gate columns (P, w) and sign tables (P, w, 2**n) of the phase gates of
    the P ``ops``, padded to the widest w with column -1 and zero signs."""
    width = max((len(signs) for _, signs, _ in ops), default=0)
    cols = np.full((len(ops), width), -1)
    table = np.zeros((len(ops), width, 1 << num_qubits))
    for p, (_, signs, op_cols) in enumerate(ops):
        cols[p, :len(signs)] = op_cols[len(op_cols) - len(signs):]
        table[p, :len(signs)] = signs
    return cols, table


class Tables:
    """Builds the table of every kernel call (``_steps``) of ``ops`` from an
    angle matrix (rows or 1, C) whose column c holds the angle of gate column
    c: one vectorised pass for all rotation blocks of a window size, one for
    all phase vectors and, on a register of stages, one product that
    composes them, every row on its own."""

    def __init__(self, num_qubits: int, ops):
        steps = _steps(num_qubits, ops)
        self.stages = num_qubits <= BLOCK_QUBITS
        self.kinds = [kind for kind, _, _ in steps]
        self.of_op = [[] for _ in ops]   # the steps of each op
        self.rotations = []   # (size, gate column per slot, half-angle
        #                        factor per slot, blocks, positions of the
        #                        low-window blocks)
        by_size = {}
        for s, (kind, window, i) in enumerate(steps):
            self.of_op[i].append(s)
            if window is not None:
                blocks, _, cols = ops[i]
                slot = dict(blocks)[window]
                gates, where, low = by_size.setdefault(len(window), ([], [], []))
                gates.append(np.where(slot >= 0, cols[slot], -1))
                low.append(_low_window(num_qubits, window))
                where.append(s)
        order = []
        for size, (gates, where, low) in sorted(by_size.items()):
            # an empty slot reads column 0 at factor 0: an identity 2x2
            gates = np.concatenate(gates)
            self.rotations.append((size, np.maximum(gates, 0), 0.5 * (gates >= 0),
                                   len(where), np.flatnonzero(low)))
            order += where
        phased = [s for s, kind in enumerate(self.kinds) if kind != "ry"]
        if not self.stages:
            order += phased
        self.order = np.argsort(order).tolist()
        # a padding column reads the last angle under a zero sign
        self.phase_cols, self.phase_signs = _padded_phases(
            num_qubits, [ops[steps[s][2]] for s in phased])

    def row_bytes(self) -> int:
        """Bytes the tables of one row take while they are built and used."""
        size = 0
        for k, gates, _, blocks, low in self.rotations:
            size += 80 * len(gates)
            size += blocks * ((56 if self.stages else 24) << 2 * k)
            size += len(low) * (96 << 2 * k)
        return (size + 8 * self.phase_cols.size
                + 56 * len(self.phase_cols) * self.phase_signs.shape[-1])

    def build(self, angles: np.ndarray, adjoint: bool = False, tangent=None):
        """Per step, in order, its table as ``_apply_kind`` takes it.  With
        ``tangent``, a direction (rows, C) over the same columns, also the
        derivatives of those tables along it, in the same layouts, and the
        tables themselves take 2 * rows rows, to act on states stacked over
        their derivatives (``Layers.forward``).  With ``adjoint``, also the
        tables that un-apply each of them (``_unapply``).  Returns (forward,
        back, dforward, dback), None for what was not asked."""
        blocks = [_rotation_blocks(angles, tangent, *group[:4])
                  for group in self.rotations]
        phase = dphase = None
        if len(self.phase_cols):
            phase = np.exp(-1j * self._exponents(angles))
            if tangent is not None:
                dphase = -1j * self._exponents(tangent) * phase
        if self.stages:
            forward, dforward = _stage_tables(blocks, phase, dphase)
        else:
            forward, dforward = [], []
            for (k, _, _, _, low), (mats, dmats) in zip(self.rotations, blocks):
                forward += _block_tables(mats, low, k)
                if dmats is not None:
                    dforward += _block_tables(dmats, low, k)
            if phase is not None:
                forward += list(phase.swapaxes(0, 1))
                if dphase is not None:
                    dforward += list(dphase.swapaxes(0, 1))
            forward = [forward[s] for s in self.order]
            dforward = [dforward[s] for s in self.order] if tangent is not None else None
        if tangent is not None:
            forward = [np.concatenate((table, table)) for table in forward]
        back = self._unapply(forward) if adjoint else None
        if tangent is None:
            return forward, back, None, None
        return forward, back, dforward, self._unapply(dforward) if adjoint else None

    def _unapply(self, tables: list) -> list:
        """The tables that un-apply the steps' ``tables``, or take the
        derivatives of those: a stage's conjugate transpose, a rotation
        block's transpose, a phase block's conjugate."""
        return [table.swapaxes(-1, -2) if kind == "ry"
                else np.conj(table) if kind == "multiz"
                else np.conj(table).swapaxes(-1, -2)
                for kind, table in zip(self.kinds, tables)]

    def _exponents(self, angles: np.ndarray) -> np.ndarray:
        """A S of every phase block and row, (rows, P, 2**n): one
        matrix-vector product per row and block, on a C-ordered gather.
        ``angles[:, cols]`` would lay the rows innermost, and a strided
        vector is summed in another order than a contiguous one."""
        return np.matmul(np.take(angles, self.phase_cols, axis=1)[:, :, None],
                         self.phase_signs)[:, :, 0]


def _rotation_blocks(angles: np.ndarray, tangent, k: int, gates: np.ndarray,
                     factor: np.ndarray, count: int):
    """The real blocks K (rows, count, 2**k, 2**k) of a window size's
    rotation steps and, with ``tangent``, their derivatives along it, else
    None; slot j rotates by ``factor[j]`` times angle column ``gates[j]``."""
    half = angles[:, gates] * factor
    trig = np.empty(half.shape + (2,))
    np.cos(half, out=trig[..., 0])
    np.sin(half, out=trig[..., 1])
    mats = _rotation_mats(trig, count, k)
    blocks, dblocks = mats[:, :, 0], None
    if tangent is not None:
        # dR(a)/da = R(a + pi) / 2: (cos, sin) -> (-sin, cos) / 2
        rate = tangent[:, gates] * factor
        dmats = _rotation_mats(np.stack((-trig[..., 1] * rate,
                                         trig[..., 0] * rate), axis=-1), count, k)
        dblocks = dmats[:, :, 0]
    for t in range(1, k):   # Kronecker product, highest qubit first
        if dblocks is not None:
            dblocks = _kron(dblocks, mats[:, :, t]) + _kron(blocks, dmats[:, :, t])
        blocks = _kron(blocks, mats[:, :, t])
    return blocks, dblocks


def _stage_tables(blocks: list, phase, dphase) -> tuple:
    """Tables of the stages from their rotation blocks [(K, dK)] and phase
    vectors p (rows, stages, 2**n): T^T = K^T diag(p) and, given the
    derivatives dp, dT^T = dK^T diag(p) + K^T diag(dp), one list each."""
    if not blocks:
        return [], []
    (mats, dmats), = blocks
    mats, phase = mats.swapaxes(-1, -2), phase[:, :, None]
    dtables = [] if dphase is None else list(
        (dmats.swapaxes(-1, -2) * phase + mats * dphase[:, :, None]).swapaxes(0, 1))
    return list((mats * phase).swapaxes(0, 1)), dtables


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
    """A gate list lowered to ops, with the gate loop and the adjoint sweep
    over them.  State t is the state after t ops, state 0 the initial one,
    and an adjoint run keeps every one of them in a (kept, rows, 2**n)
    array.  The gradient of op i's rotation gates is read at the state
    before it (state i) and that of its phase gates at the state after it
    (state i + 1): an ``ry`` generator commutes with its whole rotation
    layer and a Z-string with its whole phase block."""

    def __init__(self, num_qubits: int, kinds, qubits):
        self.num_qubits = num_qubits
        self.ops = ops = lower_ops(num_qubits, kinds, qubits)
        self.kept = len(ops) + 1
        steps = _steps(num_qubits, ops)
        last = {i: s for s, (_, _, i) in enumerate(steps)}
        first = {i: s for s, (_, _, i) in reversed(list(enumerate(steps)))}
        # (kind, window, state written after the step or None)
        self.steps = [(kind, window, i + 1 if last[i] == s else None)
                      for s, (kind, window, i) in enumerate(steps)]
        # un-apply ops last to first, from lam after the last down to the
        # initial state: (kind, window, step, state written or None)
        self.back_steps = [(kind, window, s, i if first[i] == s else None)
                           for s, (kind, window, i) in reversed(list(enumerate(steps)))]
        self.no_tangents = [None] * len(steps)
        spare = len(kinds)   # the gradient column that takes padding
        # per qubit, the gate rotating it in each op
        on_qubit = np.full((num_qubits, len(ops)), spare)
        for i, (_, signs, cols) in enumerate(ops):
            for g in cols[:len(cols) - len(signs)]:
                on_qubit[qubits[g][0], i] = g
        self.rotation_cols = [(q, cols) for q, cols in enumerate(on_qubit)
                              if np.any(cols < spare)]
        cols, signs = _padded_phases(num_qubits, ops)
        self.phase_cols = np.where(cols < 0, spare, cols).ravel()
        # 2 S^T, one (2**n, w) matrix per block
        self.phase_signs = np.ascontiguousarray(2.0 * signs.swapaxes(1, 2))[:, None]

    def forward(self, amps: np.ndarray, tables, states=None,
                tangents=None) -> np.ndarray:
        """Apply every op to amplitudes (rows, 2**n), step s through
        ``tables[s]``; the initial state and the state after each op go to
        ``states`` when that is given.  With ``tangents``, the rows are R
        states over their derivatives along a direction of the angles, and
        ``tangents[s]``, the derivative U' of ``tables[s]`` (None where it
        is 0), adds U' psi to them: psi' <- U psi' + U' psi."""
        n, half = self.num_qubits, len(amps) // 2
        if states is not None:
            states[0] = amps
        for (kind, window, t), table, tangent in zip(self.steps, tables,
                                                     tangents or self.no_tangents):
            out = None if states is None or t is None else states[t]
            moved = _apply_kind(amps, n, kind, window, table, out)
            if tangent is not None:
                moved[half:] += _apply_kind(amps[:half], n, kind, window, tangent)
            amps = moved
        return amps

    def backward(self, psi: np.ndarray, lam: np.ndarray, observable: np.ndarray,
                 back, grads: np.ndarray, tangents=None) -> None:
        """Adjoint sweep over the states ``psi`` that ``forward`` kept: set
        lam = O psi after the last op, un-apply the ops last to first into
        ``lam`` (step s through ``back[s]``) down to the initial state, and
        write d<O>/d(angle of gate g) = 2 Im <lam|G_g|psi> into
        ``grads[:, g]`` (``_contract``).  With ``tangents`` (``tangents[s]``
        the derivative of ``back[s]``), ``psi`` holds states over
        derivatives, and lam' = O psi', lam' <- U^dag lam' + U'^dag lam runs
        stacked over lam, so that ``grads`` takes 2 Im <lam'|G_g|psi> in its
        first half and 2 Im <lam|G_g|psi'> in its second: their sum is the
        derivative along the direction."""
        n, half = self.num_qubits, psi.shape[1] // 2
        amps = lam[-1]
        if tangents is None:
            np.multiply(psi[-1], observable, out=amps)
        else:
            np.multiply(psi[-1, half:], observable, out=amps[:half])
            np.multiply(psi[-1, :half], observable, out=amps[half:])
        tangents = tangents or self.no_tangents
        for kind, window, s, t in self.back_steps:
            out = None if t is None else lam[t]
            moved = _apply_kind(amps, n, kind, window, back[s], out)
            if tangents[s] is not None:
                moved[:half] += _apply_kind(amps[half:], n, kind, window, tangents[s])
            amps = moved
        self._contract(psi, lam, grads)

    def _contract(self, psi: np.ndarray, lam: np.ndarray, grads: np.ndarray) -> None:
        """Write 2 Im <lam|G_g|psi> into ``grads[:, g]`` for every gate g,
        G_g being the gate's generator and column len(kinds) taking padding.
        One contraction per qubit gives its rotations in every op, at
        states 0 .. L - 1 (lam against psi with that qubit flipped, signed
        by its bit), one all phase blocks, at states 1 .. L.  Overwrites
        states 1 .. L of ``lam``."""
        n, rows, ops = self.num_qubits, psi.shape[1], len(self.ops)
        for q, cols in self.rotation_cols:
            shape = (ops, rows, 1 << (n - 1 - q), 2, 2 << q)
            grads[:, cols] = np.einsum(
                "lrhik,lrhik,i->rl", lam[:ops].view(float).reshape(shape),
                psi[:ops].view(float).reshape(shape)[:, :, :, ::-1], _FLIP_SIGN)
        if self.phase_signs.shape[-1]:   # one vector-matrix product per block and row
            overlap = lam[1:]
            np.conjugate(overlap, out=overlap)
            np.multiply(overlap, psi[1:], out=overlap)
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
