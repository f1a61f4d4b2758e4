"""Reference computations the benchmark checks the program against.

Nothing here runs the program's circuit engine: circuits are multiplied out
as explicit 2^n x 2^n unitaries built from the ``circuit.bind`` gate list,
descriptors are recomputed from Cartesian coordinates with plain numpy, and
the classical network is evaluated from its flat parameter vector.
Derivatives come from central finite differences.
"""

from __future__ import annotations

import numpy as np

from qnnff.circuit import bind, encoding_exprs


# ---------------------------------------------------------------------------
# Dense-matrix circuit evaluator (qubit q is bit q of the basis index).

def _on_qubit(num_qubits: int, qubit: int, u2: np.ndarray) -> np.ndarray:
    return np.kron(np.kron(np.eye(1 << (num_qubits - 1 - qubit)), u2),
                   np.eye(1 << qubit))


def _parity_signs(num_qubits: int, qubits) -> np.ndarray:
    idx = np.arange(1 << num_qubits)
    parity = np.zeros_like(idx)
    for q in qubits:
        parity ^= (idx >> q) & 1
    return 1.0 - 2.0 * parity


def gate_unitary(num_qubits: int, gate) -> np.ndarray:
    """Explicit unitary of one bound gate of the kinds templates use."""
    if gate.kind == "ry":
        c, s = np.cos(gate.angle / 2), np.sin(gate.angle / 2)
        return _on_qubit(num_qubits, gate.qubits[0], np.array([[c, -s], [s, c]]))
    if gate.kind == "multiz":
        return np.diag(np.exp(-1j * gate.angle
                              * _parity_signs(num_qubits, gate.qubits)))
    raise ValueError(f"no reference unitary for gate kind {gate.kind!r}")


def circuit_output(template, y, theta) -> float:
    """<Z_0> of the bound circuit applied to |0...0>."""
    n = template.num_qubits
    state = np.zeros(1 << n, dtype=complex)
    state[0] = 1.0
    for gate in bind(template, np.asarray(y, float), np.asarray(theta, float)):
        state = gate_unitary(n, gate) @ state
    return float(np.sum(np.abs(state) ** 2 * _parity_signs(n, (0,))))


# ---------------------------------------------------------------------------
# Finite differences (fourth-order central stencil).

def fd_gradient(fn, x, h: float, indices=None) -> np.ndarray:
    """d fn / d x_i for each i in ``indices`` (default: all)."""
    x = np.asarray(x, dtype=float)
    indices = range(x.size) if indices is None else indices
    out = []
    for i in indices:
        vals = []
        for step in (2, 1, -1, -2):
            xs = x.copy()
            xs[i] += step * h
            vals.append(fn(xs))
        out.append((-vals[0] + 8 * vals[1] - 8 * vals[2] + vals[3]) / (12 * h))
    return np.array(out)


def fd_mixed(fn, theta, y, p: int, j: int, h: float) -> float:
    """d^2 fn(theta, y) / d theta_p d y_j by nesting the stencil."""
    return float(fd_gradient(
        lambda th: fd_gradient(lambda yy: fn(th, yy), y, h, [j])[0],
        theta, h, [p])[0])


# ---------------------------------------------------------------------------
# Descriptors: internal coordinates -> min-max scaling -> nonlinearity.

def internal_coordinate(coord, cart) -> float:
    pos = np.asarray(cart, dtype=float).reshape(-1, 3)
    kind = type(coord).__name__
    if kind == "Bond":
        return float(np.linalg.norm(pos[coord.i] - pos[coord.j]))
    if kind == "Angle":
        u = pos[coord.i] - pos[coord.j]
        v = pos[coord.k] - pos[coord.j]
        return float(np.arctan2(np.linalg.norm(np.cross(u, v)), u @ v))
    if kind == "Dihedral":
        r_ij = pos[coord.i] - pos[coord.j]
        r_kj = pos[coord.k] - pos[coord.j]
        r_kl = pos[coord.k] - pos[coord.l]
        b1, b2 = np.cross(r_ij, r_kj), np.cross(r_kj, r_kl)
        sin = np.cross(b1, b2) @ r_kj / np.linalg.norm(r_kj)
        angle = float(np.arctan2(sin, b1 @ b2))
        return np.pi if angle <= -np.pi + 1e-15 else angle
    raise ValueError(f"no reference for coordinate {coord!r}")


class Descriptors:
    """Feature map of a ``DescriptorPipeline`` definition, with scaler bounds
    taken from the extrema of the fit geometries."""

    def __init__(self, coords, features, fit_geometries):
        self.coords = tuple(coords)
        self.features = tuple(features)
        table = np.array([self.internal(g) for g in fit_geometries])
        self.lo, self.hi = table.min(axis=0), table.max(axis=0)

    def internal(self, cart) -> np.ndarray:
        return np.array([internal_coordinate(c, cart) for c in self.coords])

    def scaled(self, cart) -> np.ndarray:
        """Coordinates mapped so the fit range is [-1, 1]."""
        return 2.0 * (self.internal(cart) - self.lo) / (self.hi - self.lo) - 1.0

    def features_of(self, cart) -> np.ndarray:
        x = self.scaled(cart)
        out = []
        for src, tag in self.features:
            v = x[src]
            if tag == "pi_scale":
                out.append(np.pi * v)
            elif tag == "arcsin":
                out.append(np.arcsin(np.clip(v, -1.0, 1.0)))
            elif tag == "arccos":
                out.append(np.arccos(np.clip(v, -1.0, 1.0)))
            else:
                raise ValueError(f"no reference for nonlinearity {tag!r}")
        return np.array(out)


# ---------------------------------------------------------------------------
# Model energies.

def qnn_energy(model, desc: Descriptors, cart, theta=None) -> float:
    theta = model.theta if theta is None else theta
    return (model.energy_scale
            * circuit_output(model.template, desc.features_of(cart), theta)
            + model.energy_offset)


def mlp_output(widths, theta, x) -> float:
    """tanh network, parameters packed per layer as row-major weights then
    biases, linear output unit."""
    a = np.asarray(x, dtype=float)
    at = 0
    layers = list(zip(widths, widths[1:]))
    for l, (w_in, w_out) in enumerate(layers):
        w = theta[at: at + w_in * w_out].reshape(w_out, w_in)
        at += w_in * w_out
        z = w @ a + theta[at: at + w_out]
        at += w_out
        a = z if l == len(layers) - 1 else np.tanh(z)
    return float(a[0])


def mlp_energy(ff, desc: Descriptors, cart) -> float:
    y = desc.features_of(cart)
    inputs = (y if ff.encoding is None else
              np.array([np.prod(y[list(e.indices)])
                        for e in encoding_exprs(ff.encoding)]))
    return (ff.energy_scale * mlp_output(ff.spec.widths, ff.theta, inputs)
            + ff.energy_offset)


def scaled_loss(model, desc: Descriptors, dataset, chi: float,
                theta, h: float) -> float:
    """The training loss in scaled units at ``theta``: mean squared energy
    residual plus chi times the mean squared force residual, with forces
    from finite differences of the reference energy."""
    carts = dataset.cartesians()
    pred = np.array([circuit_output(model.template, desc.features_of(c), theta)
                     for c in carts])
    target = (dataset.energies() - model.energy_offset) / model.energy_scale
    loss = float(np.mean((pred - target) ** 2))
    if chi > 0:
        forces = np.stack([
            -fd_gradient(lambda x: qnn_energy(model, desc, x, theta), c, h)
            for c in carts])
        loss += chi * float(np.mean(
            ((forces - dataset.forces_matrix()) / model.energy_scale) ** 2))
    return loss
