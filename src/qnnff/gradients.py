"""Exact differentiation of circuit outputs via the parameter-shift rule.

Every parameterized gate here is generated by a Pauli string P:
``ry(t) = exp(-i t sigma_y / 2)`` and ``multiz(t) = exp(-i t P)``.  Writing
each as ``exp(-i mu P / 2)`` in a normalized half-angle ``mu``, the output is
a degree-1 trigonometric polynomial in ``mu`` and

    df/dmu = (f(mu + pi/2) - f(mu - pi/2)) / 2

holds exactly.  Mapping back to the raw gate angle contributes the chain
factor d(mu)/d(angle): 1 for ry, 2 for multiz (which turns the shift into
+-pi/4 on the raw angle with unit coefficient).  Input derivatives shift each
*occurrence* of a feature independently and weight it by the derivative of
the gate's product expression; second derivatives nest two shifts with the
[++ - +- - -+ + --]/4 pattern.

One engine runs every circuit: ``_Program`` lowers a template to a gate list
plus the sources of its angle table, ``_run`` forms the angle rows of each
chunk (base angles, with one shifted column per level of the shift rule) and
runs them through the ``statevec`` gate loop under one memory budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .circuit import InputExpr, ParamRef, QnnTemplate, encoding_table
from .errors import ArgumentError
from .statevec import _expectation_z_raw, apply_gates

# (shift on the raw angle, coefficient on the difference) per gate kind
_SHIFT = {"ry": (np.pi / 2, 0.5), "multiz": (np.pi / 4, 1.0)}

OBSERVABLE_QUBIT = 0

# Bytes of amplitude rows plus angle rows one executed chunk may hold, so
# every circuit call stays inside a fixed memory budget whatever its size.
_CHUNK_BYTES = 1 << 26


@dataclass
class EvalCounter:
    """Bookkeeping for circuit executions, split by what requested them."""

    total: int = 0
    grad_params: int = 0
    grad_inputs: int = 0
    hessian: int = 0

    def reset(self) -> None:
        self.total = self.grad_params = self.grad_inputs = self.hessian = 0


counter = EvalCounter()


class _Program:
    """Template lowered to a gate list plus the sources of its angle table.

    Gate ``g`` applies ``kinds[g]`` to ``qubits[g]``.  Its angle is
    ``theta[param[g]]`` for a trainable gate, the input monomial of occurrence
    ``o`` (``input_cols[o] == g``) for an encoding gate, and ``const[g]``
    otherwise; ``shift[g]`` and ``coef[g]`` are its shift-rule constants.
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

    def input_values(self, features: np.ndarray) -> np.ndarray:
        """Bound angle of every input occurrence for every sample, (B, m)."""
        return self.monomials.values(features)[:, self.occurrence]

    def input_partials(self, features: np.ndarray) -> np.ndarray:
        """d(angle of occurrence o)/d y_j for every sample, (B, m, n)."""
        return self.monomials.partials(features)[:, self.occurrence]

    def row_cols(self, levels) -> np.ndarray:
        """Gate columns whose angle varies by row: the inputs, in occurrence
        order, then the other shifted gates."""
        shifted = np.concatenate((self.input_cols,) + tuple(levels))
        return np.concatenate([self.input_cols,
                               np.setdiff1d(shifted, self.input_cols)])

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


def _execute(prog: _Program, angles: list, rows: int) -> np.ndarray:
    """Run the program over `rows` circuits; angles are scalars or (rows,) arrays."""
    # no reference to |0...0> stays here, so the gate loop can free it
    amps = apply_gates(_zero_states(rows, prog.num_qubits), prog.num_qubits,
                       zip(prog.kinds, prog.qubits, angles))
    return _expectation_z_raw(amps, prog.num_qubits, OBSERVABLE_QUBIT)


def _run(prog: _Program, values: np.ndarray, theta: np.ndarray, *levels) -> np.ndarray:
    """Circuit outputs for every sample, differentiated once per level.

    A level is an array of gate columns.  For each column c the circuit runs
    with angle_c + shift_c and angle_c - shift_c, and the pair combines as
    coef_c * (f(+) - f(-)); levels nest, the first outermost.  The result
    has shape (samples, len(level_1), len(level_2), ...).  Rows run in
    chunks under ``_CHUNK_BYTES``, and a chunk's angle rows are formed only
    when it runs.
    """
    shape = (values.shape[0],) + tuple(k for lv in levels for k in (len(lv), 2))
    rows = int(np.prod(shape))
    per_row = (16 << prog.num_qubits) + 8 * len(prog.row_cols(levels))
    chunk = max(1, _CHUNK_BYTES // per_row)
    out = np.empty(rows)
    for lo in range(0, rows, chunk):
        hi = min(lo + chunk, rows)
        # built inline, so a chunk's angle rows are freed when its run ends
        out[lo:hi] = _execute(
            prog, prog.angles(values, theta,
                              np.unravel_index(np.arange(lo, hi), shape), levels),
            hi - lo)
    counter.total += rows
    out = out.reshape(shape)
    for depth in reversed(range(len(levels))):
        plus, minus = np.moveaxis(out, 2 + 2 * depth, 0)
        coef = prog.coef[levels[depth]]
        out = coef.reshape(coef.shape + (1,) * (len(levels) - 1 - depth)) * (plus - minus)
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


def eval_qnn_batch(template: QnnTemplate, features, theta) -> np.ndarray:
    """Model output <Z_0> for each feature row."""
    feats = _as_feature_matrix(template, features)
    theta = _check_theta(template, theta)
    prog = _program(template)
    return _run(prog, prog.input_values(feats), theta)


def eval_qnn(template: QnnTemplate, y, theta) -> float:
    """Expectation of Z on qubit 0 after the bound circuit acts on |0...0>."""
    return float(eval_qnn_batch(template, np.asarray(y, dtype=float)[None, :], theta)[0])


def grad_params_batch(template: QnnTemplate, features, theta) -> np.ndarray:
    """Shift-rule gradient d f / d theta, one row per sample; 2d runs each."""
    feats = _as_feature_matrix(template, features)
    theta = _check_theta(template, theta)
    prog = _program(template)
    out = _run(prog, prog.input_values(feats), theta, prog.param_cols)
    counter.grad_params += 2 * out.size
    return out


def grad_params(template: QnnTemplate, y, theta) -> np.ndarray:
    return grad_params_batch(template, np.asarray(y, dtype=float)[None, :], theta)[0]


def grad_inputs_batch(template: QnnTemplate, features, theta) -> np.ndarray:
    """d f / d y_j, summing the shift derivative of every encoding occurrence
    weighted by the derivative of its product expression."""
    feats = _as_feature_matrix(template, features)
    theta = _check_theta(template, theta)
    prog = _program(template)
    d_occ = _run(prog, prog.input_values(feats), theta, prog.input_cols)
    counter.grad_inputs += 2 * d_occ.size
    return np.einsum("bo,boj->bj", d_occ, prog.input_partials(feats))


def grad_inputs(template: QnnTemplate, y, theta) -> np.ndarray:
    return grad_inputs_batch(template, np.asarray(y, dtype=float)[None, :], theta)[0]


def mixed_hessian(template: QnnTemplate, y, theta) -> np.ndarray:
    """d^2 f / d theta_p d y_j via nested shifts, shape (d, num_features).

    Each (parameter gate, encoding occurrence) pair is shifted independently
    and weighted by the product-expression chain factor, which is exact under
    re-uploading.
    """
    y = np.asarray(y, dtype=float)
    theta = _check_theta(template, theta)
    if y.shape != (template.num_features,):
        raise ArgumentError(f"expected {template.num_features} features")
    prog = _program(template)
    feats = y[None, :]
    core = _run(prog, prog.input_values(feats), theta,
                prog.param_cols, prog.input_cols)[0]
    counter.hessian += 4 * core.size
    return core @ prog.input_partials(feats)[0]


def qnn_param_grad_fn(template: QnnTemplate):
    """Adapter for the capacity module: (theta, inputs) -> (K, d) gradient rows."""
    def fn(theta, inputs):
        return grad_params_batch(template, inputs, theta)
    return fn
