"""Shared test helpers: dense-matrix circuit oracle and finite differences.

They live outside ``conftest.py`` because ``benchmarks/`` has a conftest of
its own, and a ``from conftest import`` would reach whichever of the two
pytest loaded last."""

import numpy as np

from qnnff import statevec
from qnnff.circuit import AnsatzSpec, EncodingSpec, assemble_qnn


def kron_on(num_qubits, qubit, u2):
    """Embed a 2x2 matrix on one qubit (little-endian: qubit 0 is the LSB)."""
    full = np.eye(1, dtype=complex)
    for q in range(num_qubits - 1, -1, -1):
        full = np.kron(full, u2 if q == qubit else np.eye(2))
    return full


def gate_matrix(num_qubits, gate):
    """Explicit 2^n x 2^n unitary for a BoundGate."""
    if gate.kind == "ry":
        t = gate.angle / 2
        u = np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]], dtype=complex)
        return kron_on(num_qubits, gate.qubits[0], u)
    if gate.kind == "multiz":
        dim = 1 << num_qubits
        diag = np.empty(dim, dtype=complex)
        for b in range(dim):
            parity = 0
            for q in gate.qubits:
                parity ^= (b >> q) & 1
            diag[b] = np.exp(-1j * gate.angle * (1 - 2 * parity))
        return np.diag(diag)
    raise ValueError(gate.kind)


def circuit_matrix(num_qubits, gates):
    full = np.eye(1 << num_qubits, dtype=complex)
    for g in gates:
        full = gate_matrix(num_qubits, g) @ full
    return full


def random_gate_sequence(rng, num_qubits, length):
    """Random ry and multiz gates, the kinds the simulator implements."""
    gates = []
    for _ in range(length):
        if rng.choice(["ry", "multiz"]) == "ry":
            gates.append(statevec.ry(int(rng.integers(num_qubits)),
                                     float(rng.uniform(-np.pi, np.pi))))
        else:
            k = int(rng.integers(1, num_qubits + 1))
            qs = tuple(int(q) for q in rng.choice(num_qubits, size=k, replace=False))
            gates.append(statevec.multiz(qs, float(rng.uniform(-np.pi, np.pi))))
    return gates


def random_template(rng, num_qubits=3, depth=3):
    """Re-uploading template with a random entanglement pattern and, on three
    or more qubits, usually one random degree-3 set."""
    ent = str(rng.choice(["linear", "circular", "full"]))
    sets = ((tuple(sorted(rng.choice(num_qubits, size=3, replace=False))),)
            if num_qubits >= 3 and rng.random() < 0.7 else ())
    enc = EncodingSpec(num_qubits, ent, sets)
    return assemble_qnn(enc, AnsatzSpec(num_qubits, ent, sets), depth)


def draw_point(rng, template, y_scale=0.6):
    """Features from U(-y_scale, y_scale) and parameters from U(-pi, pi)."""
    y = rng.uniform(-y_scale, y_scale, size=template.num_features)
    theta = rng.uniform(-np.pi, np.pi, size=template.param_count)
    return y, theta


def central_diff(f, x, h=1e-4):
    """Central finite-difference gradient of a scalar function of a vector."""
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    for i in range(x.size):
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        grad[i] = (f(xp) - f(xm)) / (2 * h)
    return grad

