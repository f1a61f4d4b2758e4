import numpy as np
import pytest

from qnnff import statevec
from qnnff.errors import ArgumentError, CapacityError
from qnnff.statevec import (
    BoundGate,
    apply_gate,
    expectation_z,
    init_zero,
    multiz,
    run_circuit,
    ry,
)

from helpers import circuit_matrix, random_gate_sequence


def test_init_zero_single_qubit():
    state = init_zero(1)
    assert np.allclose(state.amplitudes, [1, 0])


def test_init_zero_three_qubits():
    state = init_zero(3)
    expected = np.zeros(8)
    expected[0] = 1
    assert np.allclose(state.amplitudes, expected)


def test_init_zero_expectation():
    assert expectation_z(init_zero(2), 0) == pytest.approx(1.0)


@pytest.mark.parametrize("bad", [0, -1, 25])
def test_init_zero_capacity_guard(bad):
    with pytest.raises(CapacityError):
        init_zero(bad)


def test_ry_pi_flips_zero():
    state = apply_gate(init_zero(1), ry(0, np.pi))
    assert np.allclose(state.amplitudes, [0, 1], atol=1e-15)


def test_ry_half_pi_superposition():
    state = apply_gate(init_zero(1), ry(0, np.pi / 2))
    assert np.allclose(state.amplitudes, [1 / np.sqrt(2), 1 / np.sqrt(2)])


def test_multiz_phase_on_01():
    # |01> means qubit 0 set: Z(x)Z eigenvalue -1, so the phase is e^{+i phi}
    state = apply_gate(init_zero(2), ry(0, np.pi))  # |01>
    phi = 0.7
    out = apply_gate(state, multiz((0, 1), phi))
    assert out.amplitudes[1] == pytest.approx(np.exp(1j * phi))


def test_expectation_eigenstates():
    one = apply_gate(init_zero(1), ry(0, np.pi))
    assert expectation_z(one, 0) == pytest.approx(-1.0)
    plus = apply_gate(init_zero(1), ry(0, np.pi / 2))
    assert expectation_z(plus, 0) == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("theta", [0.0, np.pi / 3, np.pi / 2])
def test_expectation_after_ry_is_cos(theta):
    state = apply_gate(init_zero(1), ry(0, theta))
    assert expectation_z(state, 0) == pytest.approx(np.cos(theta), abs=1e-14)


def test_run_circuit_empty_is_identity():
    state = init_zero(2)
    out = run_circuit(state, [])
    assert np.allclose(out.amplitudes, state.amplitudes)


def test_double_ry_pi_preserves_expectation():
    out = run_circuit(init_zero(1), [ry(0, np.pi), ry(0, np.pi)])
    # RY(2 pi) = -I; expectation values are phase blind
    assert expectation_z(out, 0) == pytest.approx(1.0)
    assert np.allclose(np.abs(out.amplitudes), [1, 0], atol=1e-15)


def test_run_circuit_is_pure():
    state = init_zero(1)
    before = state.amplitudes.copy()
    run_circuit(state, [ry(0, 1.0)])
    assert np.array_equal(state.amplitudes, before)


@pytest.mark.parametrize("num_qubits", [1, 2, 3, 4, 5, 6, 7])
def test_against_dense_matrix_oracle(rng, num_qubits):
    # random runs give partial rotation layers, repeated-qubit rotations that
    # split a layer, and, from 4 qubits on, layers of several blocks
    for _ in range(4):
        gates = random_gate_sequence(rng, num_qubits, length=12)
        out = run_circuit(init_zero(num_qubits), gates)
        mat = circuit_matrix(num_qubits, gates)
        expected = mat[:, 0]
        assert np.allclose(out.amplitudes, expected, atol=1e-12)


def test_norm_preserved_on_random_circuits(rng):
    for _ in range(10):
        gates = random_gate_sequence(rng, 3, length=30)
        out = run_circuit(init_zero(3), gates)
        assert abs(out.norm - 1.0) <= 1e-10


def test_expectation_bounded(rng):
    for _ in range(5):
        out = run_circuit(init_zero(2), random_gate_sequence(rng, 2, 15))
        for q in range(2):
            assert -1.0 <= expectation_z(out, q) <= 1.0


def test_index_out_of_range():
    state = init_zero(2)
    with pytest.raises(ArgumentError):
        apply_gate(state, ry(2, 0.3))
    with pytest.raises(ArgumentError):
        expectation_z(state, 5)


def test_bad_gate_construction():
    with pytest.raises(ArgumentError):
        BoundGate("ry", (0, 1), 0.1)
    with pytest.raises(ArgumentError):
        BoundGate("multiz", (1, 1), 0.5)
    with pytest.raises(ArgumentError):
        BoundGate("cnot", (0, 1))  # not a simulated kind
    with pytest.raises(ArgumentError):
        BoundGate("multiz", (0, 1))  # missing angle
    with pytest.raises(ArgumentError):
        BoundGate("hadamard", (0,))



def _random_layers(rng, num_qubits, length, rows):
    """Layers and tables of a random gate list, with random angles per row."""
    gates = random_gate_sequence(rng, num_qubits, length)
    layers = statevec.Layers(num_qubits, [g.kind for g in gates],
                             [g.qubits for g in gates])
    angles = rng.uniform(-np.pi, np.pi, size=(rows, length))
    return layers, statevec.Tables(num_qubits, layers.ops), angles


def _sweep_rows(layers, tables, angles, direction=None):
    """Final states and adjoint gradients of one forward and backward sweep
    from |0...0>, with each state stacked over its derivative along
    ``direction`` when that is given."""
    n = layers.num_qubits
    forward, back, dforward, dback = tables.build(angles, adjoint=True,
                                                  tangent=direction)
    amps = np.zeros((len(angles), 1 << n), dtype=complex)
    amps[:, 0] = 1.0
    if direction is not None:
        amps = np.concatenate((amps, np.zeros_like(amps)))
    states = np.empty((2, layers.kept) + amps.shape, dtype=complex)
    final = layers.forward(amps, forward, states[0], dforward)
    grads = np.zeros((len(amps), angles.shape[1] + 2))
    layers.backward(states[0], states[1], statevec._zstring_signs(n, (0,)),
                    back, grads, dback)
    return final, grads


@pytest.mark.parametrize("num_qubits", [1, 2, 3, 4, 5, 6])
def test_tangent_rows_carry_the_derivative_of_the_state(num_qubits):
    # the derivative half of a tangent sweep is the central difference of
    # the state half along the direction, and the two halves of its
    # gradients sum to that of the plain gradients; the state half is the
    # plain run, bit for bit
    rng = np.random.default_rng(num_qubits)
    layers, tables, angles = _random_layers(rng, num_qubits, 16, rows=3)
    direction = rng.normal(size=angles.shape)
    final, grads = _sweep_rows(layers, tables, angles, direction)
    plain, _ = _sweep_rows(layers, tables, angles)
    h = 1e-5
    (up, up_grads), (down, down_grads) = (
        _sweep_rows(layers, tables, angles + sign * h * direction)
        for sign in (1.0, -1.0))
    rows, gates = len(angles), angles.shape[1]
    assert np.array_equal(final[:rows], plain)
    assert np.max(np.abs(final[rows:] - (up - down) / (2 * h))) < 1e-7
    fd = (up_grads - down_grads)[:, :gates] / (2 * h)
    assert np.max(np.abs((grads[:rows] + grads[rows:])[:, :gates] - fd)) < 1e-7


@pytest.mark.parametrize("num_qubits", [1, 2, 3, 4, 5, 6])
def test_plain_rows_run_alike_stacked_or_apart(num_qubits):
    # without tangents the rows are independent: an odd block of rows gives
    # bit for bit what its parts give in two runs
    rng = np.random.default_rng(10 + num_qubits)
    layers, tables, angles = _random_layers(rng, num_qubits, 16, rows=5)
    final, grads = _sweep_rows(layers, tables, angles)
    parts = [_sweep_rows(layers, tables, part) for part in (angles[:2], angles[2:])]
    assert np.array_equal(final, np.concatenate([p[0] for p in parts]))
    assert np.array_equal(grads, np.concatenate([p[1] for p in parts]))


def _lowering_gates(num_qubits):
    """A lone phase block, a rotation layer with its phase block, a lone
    rotation layer (the next one rotates qubit 1 again) and a rotation layer
    with its phase block."""
    top = num_qubits - 1
    return [("multiz", (0, 1)), ("multiz", (top,)),
            ("ry", (0,)), ("ry", (top,)),
            ("multiz", (1, top)), ("multiz", tuple(range(num_qubits))),
            ("ry", (1,)),
            ("ry", (1,)), ("ry", (top,)), ("multiz", (0,))]


@pytest.mark.parametrize("num_qubits", [3, 4, 5, 6, 7])
def test_an_op_is_a_rotation_layer_and_its_phase_block(num_qubits):
    # the same grouping on every register; only the kernel calls differ
    kinds, qubits = zip(*_lowering_gates(num_qubits))
    layers = statevec.Layers(num_qubits, kinds, qubits)
    assert [(cols[:len(cols) - len(signs)].tolist(),
             cols[len(cols) - len(signs):].tolist())
            for _, signs, cols in layers.ops] \
        == [([], [0, 1]), ([2, 3], [4, 5]), ([6], []), ([7, 8], [9])]
    assert layers.kept == len(layers.ops) + 1
    steps = [(kind, i) for kind, _, i in statevec._steps(num_qubits, layers.ops)]
    if num_qubits <= statevec.BLOCK_QUBITS:
        assert steps == [("stage", i) for i in range(4)]
        return
    # qubits 0 and 1 share the low window, the top qubit is in another
    assert steps == [("multiz", 0), ("ry", 1), ("ry", 1), ("multiz", 1),
                     ("ry", 2), ("ry", 3), ("ry", 3), ("multiz", 3)]
    # forward writes state i + 1 after op i's last step, backward state i
    # after un-applying op i's first step, down to the initial state
    assert [t for _, _, t in layers.steps] == [1, None, None, 2, 3, None, None, 4]
    assert [t for *_, t in layers.back_steps] == [None, None, 3, 2, None, None, 1, 0]
