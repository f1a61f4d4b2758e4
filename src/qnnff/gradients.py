"""Exact derivatives of circuit outputs: adjoint sweeps, with the
parameter-shift rule as the hardware-faithful reference.

Every parameterized gate here is generated by a Pauli string P:
``ry(t) = exp(-i t sigma_y / 2)`` and ``multiz(t) = exp(-i t P)``.

*Adjoint mode* (Jones & Gacon, arXiv:2009.02823) runs one forward pass to
the final state psi, sets lam = Z_0 psi, and un-applies the gates last to
first to both states; at each gate d<Z_0>/d(angle) = 2 Im <lam|G|psi> with
G its generator.  One sweep per sample thus gives the output, every
parameter derivative and every encoding-occurrence derivative, which the
product-expression chain factors turn into d f / d y.  ``sweep``,
``grad_params_batch``, ``grad_inputs_batch`` and the models' energies and
forces run on it.

*Parameter shift*: writing each gate as ``exp(-i mu P / 2)`` in a
normalized half-angle ``mu``, the output is a degree-1 trigonometric
polynomial in ``mu`` and

    df/dmu = (f(mu + pi/2) - f(mu - pi/2)) / 2

holds exactly.  Mapping back to the raw gate angle contributes the chain
factor d(mu)/d(angle): 1 for ry, 2 for multiz (which turns the shift into
+-pi/4 on the raw angle with unit coefficient).  ``_run`` nests the rule
over any levels of gate columns; the tests compare the adjoint results with
it.  ``mixed_hessian_batch`` uses one level over the encoding occurrences
with an adjoint sweep inside each shifted row: 2m rows per sample where
nested shifts run 4dm circuits.

The counter charges what the shift rule would run on hardware, whatever
the simulator did, and counts the simulated rows apart.

One engine runs every circuit: ``_Program`` lowers a template to ops (each
``ry`` alone, each run of ``multiz`` gates as one diagonal phase block) plus
the sources of its angle table, and ``_run`` forms the angle rows of each
chunk (base angles, with one shifted column per level of the shift rule)
and runs them through the ``statevec`` gate loop under one memory budget.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .circuit import InputExpr, ParamRef, QnnTemplate, encoding_table
from .errors import ArgumentError
from .statevec import _expectation_z_raw, _zstring_signs, backward, forward, lower_ops

# (shift on the raw angle, coefficient on the difference) per gate kind
_SHIFT = {"ry": (np.pi / 2, 0.5), "multiz": (np.pi / 4, 1.0)}

OBSERVABLE_QUBIT = 0

# Bytes of rows (``_Program.row_bytes``) one executed chunk may hold, so
# every circuit call stays inside a fixed memory budget whatever its size.
_CHUNK_BYTES = 1 << 26


@dataclass
class EvalCounter:
    """Bookkeeping for circuit executions.  ``total`` and the fields split
    by what requested them count what the shift rule runs on hardware: one
    circuit per output, 2d per parameter gradient, 2m per input gradient and
    4dm per mixed Hessian (m encoding occurrences).  ``simulated`` counts the
    statevector rows the simulator swept; an adjoint row counts once, though
    it runs forward and back."""

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
    """Template lowered to a gate list plus the sources of its angle table.

    Gate ``g`` applies ``kinds[g]`` to ``qubits[g]``.  Its angle is
    ``theta[param[g]]`` for a trainable gate, the input monomial of occurrence
    ``o`` (``input_cols[o] == g``) for an encoding gate, and ``const[g]``
    otherwise; ``shift[g]`` and ``coef[g]`` are its shift-rule constants.
    The gate loop runs ``ops`` (``statevec.lower_ops``); ``block[g]`` numbers
    the diagonal block that holds gate g, -1 for a rotation.
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
        self.input_cols = np.array([g for g, _ in exprs], dtype=int)
        self.monomials = encoding_table(template.encoding)
        position = {ix: k for k, ix in enumerate(self.monomials.index_sets)}
        if any(ix not in position for _, ix in exprs):
            raise ArgumentError("an input gate applies no monomial of the "
                                "template's encoding stage")
        self.occurrence = np.array([position[ix] for _, ix in exprs], dtype=int)
        self.ops = lower_ops(self.num_qubits, self.kinds, self.qubits)
        self.block = np.full(len(gates), -1)
        for k, cols in enumerate(c for kind, _, c in self.ops if kind == "phase"):
            self.block[cols] = k
        self.observable = _zstring_signs(self.num_qubits, (OBSERVABLE_QUBIT,))

    def input_values(self, features: np.ndarray) -> np.ndarray:
        """Bound angle of every input occurrence for every sample, (B, m)."""
        return self.monomials.values(features)[:, self.occurrence]

    def input_partials(self, features: np.ndarray) -> np.ndarray:
        """d(angle of occurrence o)/d y_j for every sample, (B, m, n)."""
        return self.monomials.partials(features)[:, self.occurrence]

    def row_cols(self, levels) -> np.ndarray:
        """Gate columns whose angle varies by row: the inputs, in occurrence
        order, then the other shifted gates."""
        if not levels:
            return self.input_cols
        shifted = np.concatenate((self.input_cols,) + tuple(levels))
        return np.concatenate([self.input_cols,
                               np.setdiff1d(shifted, self.input_cols)])

    def row_bytes(self, levels, adjoint: bool) -> int:
        """Bytes one row of a chunk holds: its amplitudes and row-varying
        angles and, in an adjoint sweep, the second state, the phase of every
        block with a row-varying angle and the derivative table."""
        cols = self.row_cols(levels)
        size = (16 << self.num_qubits) + 8 * len(cols)
        if adjoint:
            blocks = self.block[cols]
            varying = len(np.unique(blocks[blocks >= 0]))
            size += ((16 << self.num_qubits) * (1 + varying)
                     + 8 * (len(self.kinds) + 1))
        return size

    def angles(self, values: np.ndarray, theta: np.ndarray, idx=None,
               levels=()) -> list:
        """Angle of every gate over a block of rows.

        ``idx`` gives each row's sample and, per level, its shifted column
        position and sign (0 for +, 1 for -), as ``np.unravel_index`` returns
        them over the shape (samples, len(level_1), 2, len(level_2), 2, ...);
        by default the rows are the samples, unshifted.  Input and shifted
        columns come back as (rows,) arrays, every other angle as a scalar.
        """
        sample = np.arange(values.shape[0]) if idx is None else idx[0]
        base = self.const.copy()
        trained = self.param >= 0
        base[trained] = theta[self.param[trained]]
        cols = self.row_cols(levels)
        pos = np.empty(len(base), dtype=int)
        pos[cols] = np.arange(len(cols))
        m = len(self.input_cols)
        table = np.empty((len(cols), sample.size))
        table[m:] = base[cols[m:], None]
        # mode="clip" gathers straight into the table; "raise" would buffer
        np.take(values.T, sample, axis=1, out=table[:m], mode="clip")
        rows = np.arange(sample.size)
        for depth, level in enumerate(levels):
            col = level[idx[1 + 2 * depth]]
            sign = 1.0 - 2.0 * idx[2 + 2 * depth]
            table[pos[col], rows] += sign * self.shift[col]
        angles = list(base)
        for k, g in enumerate(cols):
            angles[g] = table[k]
        return angles


@lru_cache(maxsize=64)
def _program(template: QnnTemplate) -> _Program:
    return _Program(template)


def _zero_states(rows: int, num_qubits: int) -> np.ndarray:
    amps = np.zeros((rows, 1 << num_qubits), dtype=complex)
    amps[:, 0] = 1.0
    return amps


def _execute(prog: _Program, angles: list, rows: int, wrt=None) -> np.ndarray:
    """Run the program over `rows` circuits; angles are scalars or (rows,)
    arrays.  Returns <Z_0> per row or, with ``wrt``, an adjoint sweep's
    d<Z_0>/d(angle of gate g) for each g in ``wrt``, (rows, len(wrt)), where
    g = -1 stands for <Z_0> itself."""
    n = prog.num_qubits
    phases = None if wrt is None else []
    amps = forward(_zero_states(rows, n), n, prog.ops, angles, phases)
    value = _expectation_z_raw(amps, n, OBSERVABLE_QUBIT)
    if wrt is None:
        return value
    table = np.empty((rows, len(prog.kinds) + 1))
    table[:, -1] = value
    backward(amps, amps * prog.observable, n, prog.ops, angles, phases, table)
    return table[:, wrt]


def _run(prog: _Program, values: np.ndarray, theta: np.ndarray, *levels,
         wrt=None) -> np.ndarray:
    """Circuit outputs for every sample, differentiated once per level.

    A level is an array of gate columns.  For each column c the circuit runs
    with angle_c + shift_c and angle_c - shift_c, and the pair combines as
    coef_c * (f(+) - f(-)); levels nest, the first outermost.  The result
    has shape (samples, len(level_1), len(level_2), ...); with ``wrt`` every
    row is an adjoint sweep and the result gains a last axis, as
    ``_execute`` returns it.  Rows run in chunks under ``_CHUNK_BYTES``, and
    a chunk's angle rows are formed only when it runs.
    """
    shape = (values.shape[0],) + tuple(k for lv in levels for k in (len(lv), 2))
    tail = () if wrt is None else (len(wrt),)
    rows = int(np.prod(shape))
    chunk = max(1, _CHUNK_BYTES // prog.row_bytes(levels, wrt is not None))
    out = np.empty((rows,) + tail)
    for lo in range(0, rows, chunk):
        hi = min(lo + chunk, rows)
        # built inline, so a chunk's angle rows are freed when its run ends
        out[lo:hi] = _execute(
            prog, prog.angles(values, theta,
                              np.unravel_index(np.arange(lo, hi), shape), levels),
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
          inputs: bool = False):
    """Outputs f (B,) and, on request, d f / d theta (B, d) and d f / d y
    (B, N), all from one adjoint sweep per row; a plain forward run when no
    gradient is asked for.  Returns (f, grad_theta or None, grad_y or None).
    The counter is charged what the shift rule runs on hardware."""
    return _sweep(template, features, theta, params, inputs)


def _sweep(template, features, theta, params, inputs, value=True):
    """``sweep``; with ``value`` false the B circuits of f go uncharged, for
    callers that return only a gradient."""
    prog, feats, theta = _prepare(template, features, theta)
    values = prog.input_values(feats)
    b, d, m = len(feats), template.param_count, len(prog.input_cols)
    counter.total += b * value + 2 * b * (d * params + m * inputs)
    counter.grad_params += 2 * b * d * params
    counter.grad_inputs += 2 * b * m * inputs
    if not (params or inputs):
        return _run(prog, values, theta), None, None
    table = _run(prog, values, theta, wrt=np.r_[prog.param_cols, prog.input_cols, -1])
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
    return _sweep(template, features, theta, params=True, inputs=False,
                  value=False)[1]


def grad_params(template: QnnTemplate, y, theta) -> np.ndarray:
    return grad_params_batch(template, np.asarray(y, dtype=float)[None, :], theta)[0]


def grad_inputs_batch(template: QnnTemplate, features, theta) -> np.ndarray:
    """d f / d y_j: the derivative by every encoding occurrence, weighted by
    the derivative of its product expression (the shift rule's 2m circuits)."""
    return _sweep(template, features, theta, params=False, inputs=True,
                  value=False)[2]


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
