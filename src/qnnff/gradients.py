"""Exact derivatives of circuit outputs: adjoint sweeps, with the
parameter-shift rule as the hardware-faithful reference.

Every parameterized gate here is generated by a Pauli string P:
``ry(t) = exp(-i t sigma_y / 2)`` and ``multiz(t) = exp(-i t P)``.

*Adjoint mode* (Jones & Gacon, arXiv:2009.02823) runs one forward pass to
the final state psi, keeping the state after every op, sets lam = Z_0 psi,
and un-applies the ops last to first to lam; at each gate
d<Z_0>/d(angle) = 2 Im <lam|G|psi> with G its generator.  An op is a
rotation layer and the phase block after it, and both states are taken
before the op for a rotation and after it for a phase gate: an ``ry``
generator commutes with its whole rotation layer and a Z-string with its
whole phase block, so no op needs to be split.  One sweep per sample thus
gives the output, every parameter derivative and every encoding-occurrence
derivative, which the product-expression chain factors turn into d f / d y.
``sweep``, ``grad_params_batch``, ``grad_inputs_batch`` and the models'
energies and forces run on it.

*Second-order adjoint mode* (Griewank & Walther, *Evaluating Derivatives*,
ch. 5): ``hvp_params_batch`` gives the mixed Hessian d^2 f / d theta d y
times a direction v per sample, the gradient over theta of
g = sum_j v_j d f / d y_j, from one tangent-augmented sweep per sample.  The
chain factors turn v into a direction w over the encoding angles; the
forward pass carries psi' = d psi / d(w) beside psi, the backward pass lam'
beside lam, and d g / d theta_p = 2 Im (<lam'|G_p|psi> + <lam|G_p|psi'>).
Force-weighted training needs only this product.

*Parameter shift*: writing each gate as ``exp(-i mu P / 2)`` in a
normalized half-angle ``mu``, the output is a degree-1 trigonometric
polynomial in ``mu`` and

    df/dmu = (f(mu + pi/2) - f(mu - pi/2)) / 2

holds exactly.  Mapping back to the raw gate angle contributes the chain
factor d(mu)/d(angle): 1 for ry, 2 for multiz (which turns the shift into
+-pi/4 on the raw angle with unit coefficient).  ``_run`` nests the rule
over any levels of gate columns; the tests compare the adjoint results with
it.  ``mixed_hessian_batch``, the reference for the Hessian-vector
product, uses one level over the encoding occurrences with an adjoint sweep
inside each shifted row: 2m rows per sample where nested shifts run 4dm
circuits.

The counter charges what the shift rule would run on hardware, whatever
the simulator did (4dm circuits per sample for a Hessian-vector product as
for the mixed Hessian), and counts the simulated rows apart.

One engine runs every circuit: ``_Program`` lowers a template to ops
(``statevec.Layers``: each a rotation layer and the phase block after it,
one complex matrix on up to 3 qubits, rotation blocks and a diagonal phase
block on wider registers) plus the sources of its angle table, and
``_run`` forms the angles of each chunk (the shared angle row, and a
per-row table with one shifted column per level of the shift rule) and runs
them through the ``statevec`` op loop under one memory budget.
``_Layout`` says which ops share one table across rows (the trainable ones,
and the D repeats of an encoding op) and which take one per row (encoding
ops, and any op holding a shifted gate).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .circuit import InputExpr, ParamRef, QnnTemplate, encoding_table
from .errors import ArgumentError
from .statevec import Layers, Tables, _expectation_z_raw, _zstring_signs

# (shift on the raw angle, coefficient on the difference) per gate kind
_SHIFT = {"ry": (np.pi / 2, 0.5), "multiz": (np.pi / 4, 1.0)}

OBSERVABLE_QUBIT = 0

# Bytes of rows (``_Layout.row_bytes``) one executed chunk may hold, so
# every circuit call stays inside a fixed memory budget whatever its size.
_CHUNK_BYTES = 1 << 26


@dataclass
class EvalCounter:
    """Bookkeeping for circuit executions.  ``total`` and the fields split
    by what requested them count what the shift rule runs on hardware: one
    circuit per output, 2d per parameter gradient, 2m per input gradient and
    4dm per mixed Hessian or Hessian-vector product (m encoding
    occurrences), which ``hessian`` counts.  ``simulated`` counts the
    statevector rows the simulator swept; an adjoint row counts once, though
    it runs forward and back, and so does a tangent-augmented row."""

    total: int = 0
    grad_params: int = 0
    grad_inputs: int = 0
    hessian: int = 0
    simulated: int = 0

    def reset(self) -> None:
        self.total = self.grad_params = self.grad_inputs = self.hessian = 0
        self.simulated = 0

    def snapshot(self) -> "EvalCounter":
        return dataclasses.replace(self)


counter = EvalCounter()


class _Program:
    """Template lowered to ops plus the sources of its angle table.

    Gate ``g`` applies ``kinds[g]`` to ``qubits[g]``.  Its angle is
    ``theta[param[g]]`` for a trainable gate, the input monomial of occurrence
    ``o`` (``input_cols[o] == g``) for an encoding gate, and ``const[g]``
    otherwise; ``shift[g]`` and ``coef[g]`` are its shift-rule constants.
    ``layers`` (``statevec.Layers``) runs the gates; ``layout(levels)`` says
    how a set of shift levels binds their tables.
    """

    def __init__(self, template: QnnTemplate):
        self.num_qubits = template.num_qubits
        gates = template.gates
        self.kinds = tuple(g.kind for g in gates)
        self.qubits = tuple(g.qubits for g in gates)
        for kind in self.kinds:
            if kind not in _SHIFT:
                raise ArgumentError(f"unknown gate kind {kind!r}")
        self.shift, self.coef = np.array([_SHIFT[k] for k in self.kinds]).T
        index = {ref: i for i, ref in enumerate(template.param_refs)}
        self.param = np.full(len(gates), -1)
        self.param_cols = np.empty(template.param_count, dtype=int)
        self.const = np.zeros(len(gates))
        exprs = []
        for g, gate in enumerate(gates):
            src = gate.source
            if isinstance(src, InputExpr):
                exprs.append((g, src.indices))
            elif isinstance(src, ParamRef):
                self.param[g] = index[src]
                self.param_cols[index[src]] = g
            else:
                self.const[g] = float(src)
        self.trained = np.flatnonzero(self.param >= 0)
        self.input_cols = np.array([g for g, _ in exprs], dtype=int)
        self.monomials = encoding_table(template.encoding)
        position = {ix: k for k, ix in enumerate(self.monomials.index_sets)}
        if any(ix not in position for _, ix in exprs):
            raise ArgumentError("an input gate applies no monomial of the "
                                "template's encoding stage")
        self.occurrence = np.array([position[ix] for _, ix in exprs], dtype=int)
        self.sweep_cols = np.r_[self.param_cols, self.input_cols, -1]
        self.layers = Layers(self.num_qubits, self.kinds, self.qubits)
        self.observable = _zstring_signs(self.num_qubits, (OBSERVABLE_QUBIT,))
        self._layouts = {}

    def input_values(self, features: np.ndarray) -> np.ndarray:
        """Bound angle of every input occurrence for every sample, (B, m)."""
        return self.monomials.values(features)[:, self.occurrence]

    def input_partials(self, features: np.ndarray) -> np.ndarray:
        """d(angle of occurrence o)/d y_j for every sample, (B, m, n)."""
        return self.monomials.partials(features)[:, self.occurrence]

    def base_angles(self, theta: np.ndarray) -> np.ndarray:
        """Angle of every gate that is not an input, (G,)."""
        base = self.const.copy()
        base[self.trained] = theta[self.param[self.trained]]
        return base

    def layout(self, levels) -> "_Layout":
        key = tuple(tuple(level) for level in levels)
        if key not in self._layouts:
            self._layouts[key] = _Layout(self, levels)
        return self._layouts[key]

    def angles(self, values: np.ndarray, theta: np.ndarray, idx,
               levels=(), directions=None) -> tuple:
        """Angles of a block of rows: ``(layout, base, table, tangent)``,
        with the angle row (1, G) of the ops every row shares and the
        table (rows, U) of ``layout.row_gates``, the gates of the ops with
        a table per row.  ``tangent`` is None or, given ``directions`` (a
        direction over the input occurrences per sample, as ``values``), the
        direction of each row's angles, as ``table``.

        ``idx`` gives each row's sample and, per level, its shifted column
        position and sign (0 for +, 1 for -), as ``np.unravel_index`` returns
        them over the shape (samples, len(level_1), 2, len(level_2), 2, ...).
        """
        layout = self.layout(levels)
        sample = idx[0]
        base = self.base_angles(theta)
        table = np.empty((sample.size, len(layout.row_gates)))
        table[:] = base[layout.row_gates]
        table[:, layout.input_at] = values[sample[:, None], layout.input_occ]
        rows = np.arange(sample.size)
        for depth, level in enumerate(levels):
            col = level[idx[1 + 2 * depth]]
            sign = 1.0 - 2.0 * idx[2 + 2 * depth]
            table[rows, layout.position[col]] += sign * self.shift[col]
        tangent = None
        if directions is not None:
            tangent = np.zeros_like(table)
            tangent[:, layout.input_at] = directions[sample[:, None], layout.input_occ]
        return layout, base[None], table, tangent


class _Layout:
    """How the ops take their tables under one set of shift levels.

    An op with no input and no shifted gate takes one table that every row
    shares.  Every other op takes one table per row, built from the
    columns of the per-row angle table that ``row_gates`` lists; the repeats
    of an encoding op none of whose gates is shifted share one.
    """

    def __init__(self, prog: _Program, levels):
        shifted = set(np.concatenate(levels).tolist()) if levels else set()
        occurrence = {g: o for o, g in enumerate(prog.input_cols.tolist())}
        shared, per_row, gates, seen = [], [], [], {}
        source = []   # per op: (0 shared or 1 per row, its index there)
        for op in prog.layers.ops:
            blocks, signs, cols = op
            cols = cols.tolist()
            if not any(g in occurrence or g in shifted for g in cols):
                source.append((0, len(shared)))
                shared.append(op)
                continue
            key = None if shifted.intersection(cols) else tuple(
                (prog.kinds[g], prog.qubits[g], prog.occurrence[occurrence[g]])
                if g in occurrence else g for g in cols)
            if key in seen:
                source.append((1, seen[key]))
                continue
            if key is not None:
                seen[key] = len(per_row)
            source.append((1, len(per_row)))
            per_row.append((blocks, signs,
                            np.arange(len(gates), len(gates) + len(cols))))
            gates += cols
        self.row_gates = np.array(gates, dtype=int)
        self.input_at = np.array([u for u, g in enumerate(gates) if g in occurrence],
                                 dtype=int)
        self.input_occ = np.array([occurrence[gates[u]] for u in self.input_at],
                                  dtype=int)
        self.position = np.full(len(prog.kinds), -1)
        self.position[self.row_gates] = np.arange(len(gates))
        n = prog.num_qubits
        self.shared, self.per_row = Tables(n, shared), Tables(n, per_row)
        groups = (self.shared, self.per_row)
        # per kernel call, its group and its step there
        self.steps = [(group, s) for group, j in source
                      for s in groups[group].of_op[j]]
        self.memo = (None, None)   # the shared tables of the last angle row
        # bytes one row of a chunk holds in a plain run, an adjoint sweep and
        # a tangent sweep: its amplitudes with their temporaries, its angles
        # and tables and, in a sweep, the states kept for the gradients and
        # the derivative table; a tangent sweep doubles all of it and adds
        # the tables' derivatives
        amps, tables = 16 << n, self.per_row.row_bytes()
        size = 3 * amps + 8 * len(gates) + tables
        adjoint = size + 2 * prog.layers.kept * amps + 8 * (len(prog.kinds) + 2)
        self.row_bytes = {"run": size, "adjoint": adjoint,
                          "tangent": 2 * adjoint + tables}

    def tables(self, base: np.ndarray, table: np.ndarray, adjoint: bool,
               tangent=None):
        """The tables of every kernel call and, with ``adjoint``, those that
        un-apply them, from ``_Program.angles``' parts; with ``tangent``, the
        derivatives of both along it too, None for a shared table, whose
        angles do not move.  Returns (forward, back, dforward, dback) as
        ``Tables.build``.  The shared tables are kept for the next call with
        the same angle row."""
        key, memo = base.tobytes(), self.memo
        if memo[0] != key:
            forward, back, _, _ = self.shared.build(base, adjoint=True)
            fixed = [None] * len(forward)
            memo = self.memo = key, (forward, back, fixed, fixed)
        own = self.per_row.build(table, adjoint, tangent)
        return [None if part is None else
                [(shared, part)[group][s] for group, s in self.steps]
                for shared, part in zip(memo[1], own)]


@lru_cache(maxsize=64)
def _program(template: QnnTemplate) -> _Program:
    return _Program(template)


def _zero_states(rows: int, num_qubits: int) -> np.ndarray:
    amps = np.zeros((rows, 1 << num_qubits), dtype=complex)
    amps[:, 0] = 1.0
    return amps


def _execute(prog: _Program, angles: tuple, rows: int, wrt=None) -> np.ndarray:
    """Run the program over `rows` circuits with the angles that
    ``_Program.angles`` formed.  Returns <Z_0> per row or, with ``wrt``, an
    adjoint sweep's d<Z_0>/d(angle of gate g) for each g in ``wrt``, (rows,
    len(wrt)), where g = -1 stands for <Z_0> itself.  With a tangent in the
    angles, the sweep runs the rows' states stacked over their derivatives
    along it (``statevec.Layers``) and returns instead the derivatives of
    those columns along it (g >= 0 only)."""
    layout, base, table, tangent = angles
    layers, n = prog.layers, prog.num_qubits
    tables, back, dtables, dback = layout.tables(base, table, wrt is not None,
                                                 tangent)
    amps = _zero_states(rows, n)
    if wrt is None:
        return _expectation_z_raw(layers.forward(amps, tables), n, OBSERVABLE_QUBIT)
    if tangent is not None:
        amps = np.concatenate((amps, np.zeros_like(amps)))
    states = np.empty((2, layers.kept) + amps.shape, dtype=complex)
    amps = layers.forward(amps, tables, states[0], dtables)
    grads = np.empty((len(amps), len(prog.kinds) + 2))
    if tangent is None:
        grads[:, -1] = _expectation_z_raw(amps, n, OBSERVABLE_QUBIT)
    layers.backward(states[0], states[1], prog.observable, back, grads, dback)
    if tangent is None:
        return grads[:, wrt]
    return grads[:rows, wrt] + grads[rows:, wrt]


def _run(prog: _Program, values: np.ndarray, theta: np.ndarray, *levels,
         wrt=None, directions=None) -> np.ndarray:
    """Circuit outputs for every sample, differentiated once per level.

    A level is an array of gate columns.  For each column c the circuit runs
    with angle_c + shift_c and angle_c - shift_c, and the pair combines as
    coef_c * (f(+) - f(-)); levels nest, the first outermost.  The result
    has shape (samples, len(level_1), len(level_2), ...); with ``wrt`` every
    row is an adjoint sweep and the result gains a last axis, as
    ``_execute`` returns it, and with ``directions`` too, (samples, m) over
    the input occurrences, a tangent-augmented one.  Rows run in chunks
    under ``_CHUNK_BYTES``, and a chunk's angle rows are formed only when it
    runs.
    """
    shape = (values.shape[0],) + tuple(k for lv in levels for k in (len(lv), 2))
    tail = () if wrt is None else (len(wrt),)
    rows = int(np.prod(shape))
    mode = ("run" if wrt is None else "adjoint" if directions is None
            else "tangent")
    chunk = max(1, _CHUNK_BYTES // prog.layout(levels).row_bytes[mode])
    out = np.empty((rows,) + tail)
    for lo in range(0, rows, chunk):
        hi = min(lo + chunk, rows)
        # built inline, so a chunk's angle rows are freed when its run ends
        out[lo:hi] = _execute(
            prog, prog.angles(values, theta,
                              np.unravel_index(np.arange(lo, hi), shape), levels,
                              directions),
            hi - lo, wrt)
    counter.simulated += rows
    out = out.reshape(shape + tail)
    for depth in reversed(range(len(levels))):
        plus, minus = np.moveaxis(out, 2 + 2 * depth, 0)
        coef = prog.coef[levels[depth]]
        trailing = len(levels) - 1 - depth + len(tail)
        out = coef.reshape(coef.shape + (1,) * trailing) * (plus - minus)
    return out


def _as_feature_matrix(template: QnnTemplate, features) -> np.ndarray:
    mat = np.atleast_2d(np.asarray(features, dtype=float))
    if mat.shape[1] != template.num_features:
        raise ArgumentError(
            f"expected {template.num_features} features per row, got {mat.shape[1]}"
        )
    return mat


def _check_theta(template: QnnTemplate, theta) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (template.param_count,):
        raise ArgumentError(
            f"expected {template.param_count} parameters, got shape {theta.shape}"
        )
    return theta


def _prepare(template: QnnTemplate, features, theta):
    feats = _as_feature_matrix(template, features)
    return _program(template), feats, _check_theta(template, theta)


def sweep(template: QnnTemplate, features, theta, params: bool = False,
          inputs: bool = False, value: bool = True):
    """Outputs f (B,) and, on request, d f / d theta (B, d) and d f / d y
    (B, N), all from one adjoint sweep per row; a plain forward run when no
    gradient is asked for.  Returns (f, grad_theta or None, grad_y or None).
    The counter is charged what the shift rule runs on hardware; with
    ``value`` false the B circuits of f go uncharged, for callers that use
    only a gradient.  This is the circuit family's force-field hook."""
    prog, feats, theta = _prepare(template, features, theta)
    values = prog.input_values(feats)
    b, d, m = len(feats), template.param_count, len(prog.input_cols)
    counter.total += b * value + 2 * b * (d * params + m * inputs)
    counter.grad_params += 2 * b * d * params
    counter.grad_inputs += 2 * b * m * inputs
    if not (params or inputs):
        return _run(prog, values, theta), None, None
    table = _run(prog, values, theta, wrt=prog.sweep_cols)
    grad_theta = table[:, :d] if params else None
    grad_y = (np.einsum("bo,boj->bj", table[:, d:-1], prog.input_partials(feats))
              if inputs else None)
    return table[:, -1], grad_theta, grad_y


def eval_qnn_batch(template: QnnTemplate, features, theta) -> np.ndarray:
    """Model output <Z_0> for each feature row."""
    return sweep(template, features, theta)[0]


def eval_qnn(template: QnnTemplate, y, theta) -> float:
    """Expectation of Z on qubit 0 after the bound circuit acts on |0...0>."""
    return float(eval_qnn_batch(template, np.asarray(y, dtype=float)[None, :], theta)[0])


def grad_params_batch(template: QnnTemplate, features, theta) -> np.ndarray:
    """d f / d theta, one row per sample (the shift rule's 2d circuits each)."""
    return sweep(template, features, theta, params=True, value=False)[1]


def grad_params(template: QnnTemplate, y, theta) -> np.ndarray:
    return grad_params_batch(template, np.asarray(y, dtype=float)[None, :], theta)[0]


def grad_inputs_batch(template: QnnTemplate, features, theta) -> np.ndarray:
    """d f / d y_j: the derivative by every encoding occurrence, weighted by
    the derivative of its product expression (the shift rule's 2m circuits)."""
    return sweep(template, features, theta, inputs=True, value=False)[2]


def grad_inputs(template: QnnTemplate, y, theta) -> np.ndarray:
    return grad_inputs_batch(template, np.asarray(y, dtype=float)[None, :], theta)[0]


def mixed_hessian_batch(template: QnnTemplate, features, theta) -> np.ndarray:
    """d^2 f / d theta_p d y_j for each feature row, shape (B, d, N).

    Each encoding occurrence is shifted independently, an adjoint sweep on
    each shifted row gives its parameter gradient, and the occurrences are
    weighted by the product-expression chain factor, which is exact under
    re-uploading: 2m rows per sample stand for the shift rule's 4dm circuits.
    """
    prog, feats, theta = _prepare(template, features, theta)
    core = _run(prog, prog.input_values(feats), theta, prog.input_cols,
                wrt=prog.param_cols)
    counter.total += 4 * core.size
    counter.hessian += 4 * core.size
    return np.swapaxes(core, 1, 2) @ prog.input_partials(feats)


def hvp_params_batch(template: QnnTemplate, features, theta,
                     directions) -> np.ndarray:
    """d g_b / d theta for every feature row b, shape (B, d), where g_b =
    sum_j v_bj d f / d y_j for the directions v (B, N): the mixed Hessian
    times v, ``mixed_hessian_batch(...) @ v``, from one tangent-augmented
    adjoint sweep per row.  The chain factors turn v_b into a direction w_b
    over the encoding angles; the sweep carries the derivatives of the state
    and of lam along w_b beside them (second-order adjoint mode, Griewank &
    Walther, *Evaluating Derivatives*, ch. 5), and d g_b / d theta_p =
    2 Im (<lam'|G_p|psi> + <lam|G_p|psi'>).  The counter is charged the
    shift rule's 4dm circuits per row of the mixed Hessian it stands for."""
    prog, feats, theta = _prepare(template, features, theta)
    directions = np.asarray(directions, dtype=float)
    if directions.shape != feats.shape:
        raise ArgumentError(f"expected directions of shape {feats.shape}, "
                            f"got {directions.shape}")
    w = np.einsum("boj,bj->bo", prog.input_partials(feats), directions)
    hvp = _run(prog, prog.input_values(feats), theta, wrt=prog.param_cols,
               directions=w)
    circuits = 4 * hvp.size * len(prog.input_cols)
    counter.total += circuits
    counter.hessian += circuits
    return hvp


def mixed_hessian(template: QnnTemplate, y, theta) -> np.ndarray:
    """d^2 f / d theta_p d y_j of one feature row, shape (d, N)."""
    y = np.asarray(y, dtype=float)
    if y.shape != (template.num_features,):
        raise ArgumentError(f"expected {template.num_features} features")
    return mixed_hessian_batch(template, y[None, :], theta)[0]


def qnn_param_grad_fn(template: QnnTemplate):
    """Adapter for the capacity module: (theta, inputs) -> (K, d) gradient rows."""
    def fn(theta, inputs):
        return grad_params_batch(template, inputs, theta)
    return fn
