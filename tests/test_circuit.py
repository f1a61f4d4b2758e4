import numpy as np
import pytest

from qnnff import circuit, statevec
from qnnff.circuit import (
    AnsatzSpec,
    EncodingSpec,
    InputExpr,
    ParamRef,
    assemble_qnn,
    bind,
    encoding_monomials,
    feature_map,
    monomial_jacobian,
    pair_set,
    sliding_degree_sets,
    template_from_dict,
    template_to_dict,
    trainable_layer,
)
from qnnff.errors import ArgumentError

from conftest import circuit_matrix


def lih_like_template(depth=10):
    enc = EncodingSpec(3, "full", ((0, 1, 2),))
    return assemble_qnn(enc, AnsatzSpec(3, "full", ((0, 1, 2),)), depth)


def test_pair_sets():
    assert pair_set(2, "linear") == ((0, 1),)
    assert set(pair_set(3, "circular")) == {(0, 1), (1, 2), (0, 2)}
    assert pair_set(4, "full") == ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
    assert pair_set(1, "full") == ()
    assert pair_set(2, "circular") == ((0, 1),)


def test_sliding_degree_sets():
    assert sliding_degree_sets(6) == ((0, 1, 2), (1, 2, 3), (2, 3, 4), (3, 4, 5))
    assert sliding_degree_sets(3) == ((0, 1, 2),)


def test_feature_map_gate_counts():
    spec = EncodingSpec(3, "full", ((0, 1, 2),))
    gates = feature_map(spec)
    kinds = [g.kind for g in gates]
    assert kinds.count("ry") == 3
    assert kinds.count("multiz") == 4  # 3 pairs + 1 triple
    sizes = sorted(len(g.qubits) for g in gates if g.kind == "multiz")
    assert sizes == [2, 2, 2, 3]


def test_feature_map_degree_set_validation():
    with pytest.raises(ArgumentError):
        EncodingSpec(3, "full", ((0, 1, 3),))
    with pytest.raises(ArgumentError):
        EncodingSpec(3, "full", ((0, 0, 1),))


def test_trainable_layer_param_counts():
    spec = AnsatzSpec(3, "full", ((0, 1, 2),))
    assert len(trainable_layer(spec, 0)) == 3
    assert len(trainable_layer(spec, 1)) == 7  # 3 + 3 + 1
    h3o = AnsatzSpec(6, "linear", sliding_degree_sets(6))
    assert len(trainable_layer(h3o, 1)) == 15  # 6 + 5 + 4


def test_layer_zero_slots_are_single_qubit():
    with pytest.raises(ArgumentError):
        ParamRef(0, ("zz", 0, 1))


def test_parameter_counts_match_presets():
    assert lih_like_template(depth=10).param_count == 73
    assert lih_like_template(depth=12).param_count == 87
    h3o = assemble_qnn(
        EncodingSpec(6, "linear", sliding_degree_sets(6)),
        AnsatzSpec(6, "linear", sliding_degree_sets(6)),
        10,
    )
    assert h3o.param_count == 6 + 10 * 15


def test_minimal_template_param_count():
    t = assemble_qnn(EncodingSpec(1, "linear"), AnsatzSpec(1, "linear"), 1)
    assert t.param_count == 2


def test_parameter_count_formula(rng):
    for _ in range(5):
        n = int(rng.integers(2, 6))
        ent = str(rng.choice(["linear", "circular", "full"]))
        sets = sliding_degree_sets(n) if n >= 3 and rng.random() < 0.5 else ()
        depth = int(rng.integers(1, 5))
        enc = EncodingSpec(n, ent, sets)
        t = assemble_qnn(enc, AnsatzSpec(n, ent, sets), depth)
        assert t.param_count == n + depth * (n + len(enc.pairs) + len(sets))


def test_encoding_stages_identical():
    t = lih_like_template(depth=3)
    per_stage = len(feature_map(t.encoding))
    stages = []
    gates = list(t.gates)
    idx = 0
    for layer in range(t.depth):
        idx += len(trainable_layer(t.ansatz, layer))
        stages.append(tuple(gates[idx: idx + per_stage]))
        idx += per_stage
    assert all(stage == stages[0] for stage in stages)


def test_qubit_count_mismatch():
    with pytest.raises(ArgumentError):
        assemble_qnn(EncodingSpec(2), AnsatzSpec(3), 1)


def test_bind_zero_features_zero_encoding_angles():
    t = lih_like_template(depth=2)
    bound = bind(t, np.zeros(3), np.ones(t.param_count))
    trainable = {id(g) for g, s in zip(t.gates, t.gates)}
    for sym, g in zip(t.gates, bound):
        if isinstance(sym.source, InputExpr):
            assert g.angle == 0.0


def test_bind_zero_params_identity_rotations():
    t = lih_like_template(depth=2)
    bound = bind(t, np.full(3, 0.4), np.zeros(t.param_count))
    for sym, g in zip(t.gates, bound):
        if isinstance(sym.source, ParamRef):
            assert g.angle == 0.0


def test_bind_dimension_mismatch():
    t = lih_like_template(depth=1)
    with pytest.raises(ArgumentError):
        bind(t, np.zeros(2), np.zeros(t.param_count))
    with pytest.raises(ArgumentError):
        bind(t, np.zeros(3), np.zeros(t.param_count + 1))


def test_bound_circuit_matches_dense_oracle(rng):
    enc = EncodingSpec(2, "linear")
    t = assemble_qnn(enc, AnsatzSpec(2, "linear"), 2)
    y = rng.uniform(-1, 1, size=2)
    theta = rng.uniform(-np.pi, np.pi, size=t.param_count)
    bound = bind(t, y, theta)
    out = statevec.run_circuit(statevec.init_zero(2), bound)
    expected = circuit_matrix(2, bound)[:, 0]
    assert np.allclose(out.amplitudes, expected, atol=1e-12)


def test_zero_theta_equals_encoding_only(rng):
    t = lih_like_template(depth=3)
    y = rng.uniform(-1, 1, size=3)
    full = statevec.run_circuit(
        statevec.init_zero(3), bind(t, y, np.zeros(t.param_count))
    )
    encoding_only = statevec.init_zero(3)
    stage = [g for g, s in zip(bind(t, y, np.zeros(t.param_count)), t.gates)
             if isinstance(s.source, InputExpr)]
    # D identical stages: replay the encoding gates alone
    encoding_only = statevec.run_circuit(encoding_only, stage)
    assert np.allclose(full.amplitudes, encoding_only.amplitudes, atol=1e-12)


def test_template_serialization_round_trip():
    t = lih_like_template(depth=4)
    d = template_to_dict(t)
    back = template_from_dict(d)
    assert back == t


def test_template_deserialization_rejects_tampered_gates():
    t = lih_like_template(depth=1)
    d = template_to_dict(t)
    d["gates"][0]["kind"] = "rz"
    with pytest.raises(ArgumentError):
        template_from_dict(d)


def test_monomials_and_jacobian(rng):
    spec = EncodingSpec(3, "full", ((0, 1, 2),))
    y = rng.uniform(-1, 1, size=3)
    mono = encoding_monomials(spec, y)
    assert mono.shape == (7,)
    assert np.allclose(mono[:3], y)
    assert mono[3] == pytest.approx(y[0] * y[1])
    assert mono[-1] == pytest.approx(y[0] * y[1] * y[2])
    jac = monomial_jacobian(spec, y)
    h = 1e-7
    for j in range(3):
        yp, ym = y.copy(), y.copy()
        yp[j] += h
        ym[j] -= h
        fd = (encoding_monomials(spec, yp) - encoding_monomials(spec, ym)) / (2 * h)
        assert np.allclose(jac[:, j], fd, atol=1e-6)
    # a (B, N) matrix gives one row per feature row
    ys = np.stack([y, -y, 2 * y])
    assert np.array_equal(encoding_monomials(spec, ys),
                          np.stack([encoding_monomials(spec, r) for r in ys]))
    assert np.array_equal(monomial_jacobian(spec, ys),
                          np.stack([monomial_jacobian(spec, r) for r in ys]))
