import dataclasses

import numpy as np
import pytest

from qnnff import gradients
from qnnff.circuit import (AnsatzSpec, EncodingSpec, assemble_qnn, bind,
                          sliding_degree_sets)
from qnnff.errors import ArgumentError
from qnnff.gradients import (
    counter,
    eval_qnn,
    eval_qnn_batch,
    grad_inputs,
    grad_inputs_batch,
    grad_params,
    grad_params_batch,
    hvp_params_batch,
    mixed_hessian,
    mixed_hessian_batch,
    sweep,
)
from hypothesis import given, settings, strategies as st

from conftest import (central_diff, circuit_matrix, draw_point,
                      random_template)


def single_ry_template(depth=1):
    return assemble_qnn(EncodingSpec(1), AnsatzSpec(1), depth)


def test_identity_circuit_outputs_one():
    t = single_ry_template()
    assert eval_qnn(t, np.zeros(1), np.zeros(2)) == pytest.approx(1.0)


def test_single_ry_is_cosine():
    # one qubit, one trainable rotation: f(theta) = cos(theta)
    t = single_ry_template(depth=1)
    for theta0 in (0.0, 0.4, np.pi / 2):
        f = eval_qnn(t, np.zeros(1), np.array([theta0, 0.0]))
        assert f == pytest.approx(np.cos(theta0), abs=1e-14)


def test_output_bounded(rng):
    t = random_template(rng)
    for _ in range(5):
        y, theta = draw_point(rng, t, y_scale=np.pi)
        assert abs(eval_qnn(t, y, theta)) <= 1.0 + 1e-12


def test_grad_at_extremum_is_zero():
    t = single_ry_template()
    g = grad_params(t, np.zeros(1), np.zeros(2))
    assert np.allclose(g, 0.0, atol=1e-14)


def test_grad_matches_minus_sine():
    t = single_ry_template()
    g = grad_params(t, np.zeros(1), np.array([np.pi / 2, 0.0]))
    assert g[0] == pytest.approx(-1.0, abs=1e-12)


def test_grad_params_matches_finite_differences(rng):
    for _ in range(4):
        t = random_template(rng)
        y, theta = draw_point(rng, t)
        exact = grad_params(t, y, theta)
        fd = central_diff(lambda th: eval_qnn(t, y, th), theta)
        assert np.max(np.abs(exact - fd)) < 1e-6


def test_grad_inputs_matches_finite_differences(rng):
    for _ in range(4):
        t = random_template(rng)
        y, theta = draw_point(rng, t)
        exact = grad_inputs(t, y, theta)
        fd = central_diff(lambda yy: eval_qnn(t, yy, theta), y)
        assert np.max(np.abs(exact - fd)) < 1e-6


def test_grad_inputs_reuploaded_single_qubit(rng):
    t = single_ry_template(depth=4)
    y = np.array([0.3])
    theta = rng.uniform(-np.pi, np.pi, size=t.param_count)
    exact = grad_inputs(t, y, theta)
    fd = central_diff(lambda yy: eval_qnn(t, yy, theta), y)
    assert np.max(np.abs(exact - fd)) < 1e-6


def test_grad_inputs_zero_feature_kills_pair_terms(rng):
    # with y_k = 0 for all k != j, pair gates containing j contribute nothing
    enc = EncodingSpec(2, "linear")
    t = assemble_qnn(enc, AnsatzSpec(2, "linear"), 2)
    theta = rng.uniform(-np.pi, np.pi, size=t.param_count)
    y = np.array([0.37, 0.0])
    base = grad_inputs(t, y, theta)
    # derivative w.r.t. y_0 must match the same circuit with the pair gates
    # frozen at angle zero (their chain coefficient y_1 vanishes)
    fd = central_diff(lambda yy: eval_qnn(t, yy, theta), y)
    assert base[0] == pytest.approx(fd[0], abs=1e-7)


def test_unused_feature_has_zero_gradient(rng):
    # hand-build a template whose gates never reference feature 1
    from qnnff.circuit import InputExpr, ParamRef, QnnTemplate, SymbolicGate

    enc = EncodingSpec(2, "linear")
    ref = ParamRef(0, ("ry", 0))
    gates = (
        SymbolicGate("ry", (0,), ref),
        SymbolicGate("ry", (0,), InputExpr((0,))),
    )
    t = QnnTemplate(enc, AnsatzSpec(2, "linear"), 1, gates, (ref,))
    y = np.array([0.3, 0.9])
    g = grad_inputs(t, y, np.array([0.2]))
    assert g[1] == 0.0
    assert g[0] != 0.0


def test_input_gate_outside_encoding_stage_rejected():
    from qnnff.circuit import InputExpr, ParamRef, QnnTemplate, SymbolicGate

    ref = ParamRef(0, ("ry", 0))
    gates = (SymbolicGate("ry", (0,), ref),
             SymbolicGate("multiz", (0, 2), InputExpr((0, 2))))
    t = QnnTemplate(EncodingSpec(3, "linear"), AnsatzSpec(3, "linear"), 1,
                    gates, (ref,))
    with pytest.raises(ArgumentError, match="encoding stage"):
        eval_qnn(t, np.zeros(3), np.zeros(1))


def test_hessian_symmetric_one_qubit_case():
    # f(theta_0, y) = cos(theta_0 + y + theta_1):
    # d^2 f / d theta_0 d y = -cos(...) -> -1 at the origin
    t = single_ry_template()
    h = mixed_hessian(t, np.zeros(1), np.zeros(2))
    assert h.shape == (2, 1)
    assert h[0, 0] == pytest.approx(-1.0, abs=1e-12)
    assert h[1, 0] == pytest.approx(-1.0, abs=1e-12)


def test_hessian_matches_fd_of_shift_gradient(rng):
    for _ in range(2):
        t = random_template(rng, depth=2)
        y, theta = draw_point(rng, t)
        exact = mixed_hessian(t, y, theta)
        h = 1e-4
        fd = np.empty_like(exact)
        for j in range(t.num_features):
            yp, ym = y.copy(), y.copy()
            yp[j] += h
            ym[j] -= h
            fd[:, j] = (grad_params(t, yp, theta) - grad_params(t, ym, theta)) / (2 * h)
        assert np.max(np.abs(exact - fd)) < 1e-5


def test_batch_matches_single_sample(rng):
    t = random_template(rng, depth=2)
    Y = rng.uniform(-0.8, 0.8, size=(6, t.num_features))
    theta = rng.uniform(-np.pi, np.pi, size=t.param_count)
    fb = eval_qnn_batch(t, Y, theta)
    gb = grad_params_batch(t, Y, theta)
    ib = grad_inputs_batch(t, Y, theta)
    for i, y in enumerate(Y):
        assert fb[i] == pytest.approx(eval_qnn(t, y, theta), abs=1e-13)
        assert np.allclose(gb[i], grad_params(t, y, theta), atol=1e-13)
        assert np.allclose(ib[i], grad_inputs(t, y, theta), atol=1e-13)


def test_chunked_runs_equal_unsplit(rng, monkeypatch):
    # a small memory budget splits every call into several chunks, with
    # boundaries falling inside a sample's shift variants
    _assert_chunks_equal_unsplit(random_template(rng, depth=2), rng, monkeypatch)


@pytest.mark.parametrize("num_qubits", [4, 5, 6, 7])
def test_chunked_runs_equal_unsplit_on_wider_registers(num_qubits, monkeypatch):
    # from 4 qubits a rotation layer has 2-3 blocks, the low one a right
    # product; wider phase blocks sum more terms per row
    rng = np.random.default_rng(num_qubits)
    for _ in range(3):
        with monkeypatch.context() as patch:
            _assert_chunks_equal_unsplit(random_template(rng, num_qubits, depth=2),
                                         rng, patch)


def test_chunked_runs_equal_unsplit_past_blas_threading(monkeypatch):
    # 600 rows of 4 qubits make the low window's products 1,200 rows of 16
    # when all rows run as one: past the size at which a BLAS gemm splits
    # its work across threads and blocks it otherwise than for one row; on
    # 3 qubits the 600 rows run as stages, one complex product per row
    rng = np.random.default_rng(600)
    for num_qubits in (4, 3):
        with monkeypatch.context() as patch:
            _assert_chunks_equal_unsplit(random_template(rng, num_qubits, depth=2),
                                         rng, patch, rows=600)


def _assert_chunks_equal_unsplit(t, rng, monkeypatch, rows=7):
    Y = rng.uniform(-0.8, 0.8, size=(rows, t.num_features))
    theta = rng.uniform(-np.pi, np.pi, size=t.param_count)
    # its own generator, so that the other inputs do not depend on it
    V = np.random.default_rng(rows).normal(size=Y.shape)
    calls = [(eval_qnn_batch, Y), (grad_params_batch, Y),
             (grad_inputs_batch, Y),
             (lambda t, x, th: hvp_params_batch(t, x, th, V), Y),
             (mixed_hessian, Y[0]), (mixed_hessian_batch, Y[:2])]
    chunks = []
    execute = gradients._execute

    def counted(prog, angles, rows, *wrt):
        chunks.append(rows)
        return execute(prog, angles, rows, *wrt)

    monkeypatch.setattr(gradients, "_execute", counted)

    def run_all():
        out = []
        for fn, x in calls:
            counter.reset()
            chunks.clear()
            value = fn(t, x, theta)
            out.append((value, dataclasses.astuple(counter), len(chunks)))
        return out

    whole = run_all()
    monkeypatch.setattr(gradients, "_CHUNK_BYTES", 1000)
    split = run_all()
    for (a, count_a, n_a), (b, count_b, n_b) in zip(whole, split):
        assert n_a == 1 and n_b > 1
        assert a.shape == b.shape
        assert np.all(a == b)
        assert count_a == count_b


def _shift_reference(t, Y, theta):
    """f, d f / d theta, d f / d y and the mixed Hessian of every row from the
    nested parameter-shift rule alone: the circuits hardware would run."""
    prog = gradients._program(t)
    values, partials = prog.input_values(Y), prog.input_partials(Y)
    run = lambda *levels: gradients._run(prog, values, theta, *levels)
    return (run(), run(prog.param_cols),
            np.einsum("bo,boj->bj", run(prog.input_cols), partials),
            run(prog.param_cols, prog.input_cols) @ partials)


@settings(max_examples=30, deadline=None, database=None,
          derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), num_qubits=st.integers(1, 6),
       depth=st.integers(1, 3), rows=st.integers(1, 3))
def test_adjoint_sweep_agrees_with_shift_rule(seed, num_qubits, depth, rows):
    rng = np.random.default_rng(seed)
    t = random_template(rng, num_qubits, depth)
    Y = rng.uniform(-1.0, 1.0, size=(rows, t.num_features))
    theta = rng.uniform(-np.pi, np.pi, size=t.param_count)
    f, gp, gy = sweep(t, Y, theta, params=True, inputs=True)
    hess = mixed_hessian_batch(t, Y, theta)
    for got, want in zip((f, gp, gy, hess), _shift_reference(t, Y, theta)):
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) < 1e-12
    # and with an independent dense-matrix evaluation and differences of it
    obs = np.diag([1.0 if b % 2 == 0 else -1.0 for b in range(1 << num_qubits)])

    def dense(yy, th):
        state = circuit_matrix(num_qubits, bind(t, yy, th))[:, 0]
        return float(np.real(np.conj(state) @ obs @ state))

    y = Y[0]
    assert abs(f[0] - dense(y, theta)) < 1e-12
    assert np.max(np.abs(gp[0] - central_diff(lambda th: dense(y, th), theta))) < 1e-6
    assert np.max(np.abs(gy[0] - central_diff(lambda yy: dense(yy, theta), y))) < 1e-6
    j = int(rng.integers(t.num_features))
    h = 1e-4
    yp, ym = y.copy(), y.copy()
    yp[j] += h
    ym[j] -= h
    fd = (grad_params(t, yp, theta) - grad_params(t, ym, theta)) / (2 * h)
    assert np.max(np.abs(hess[0, :, j] - fd)) < 1e-5


def _random_circuit_template(rng, num_qubits, length):
    """A template with a random gate list: rotation runs that leave qubits
    out or rotate one twice, phase runs, trainable and encoding angles."""
    from qnnff.circuit import ParamRef, QnnTemplate, SymbolicGate, encoding_exprs

    enc = EncodingSpec(num_qubits, "full")
    exprs = encoding_exprs(enc)
    gates, refs = [], []
    for k in range(length):
        if rng.random() < 0.6:
            kind, qubits = "ry", (int(rng.integers(num_qubits)),)
        else:
            size = int(rng.integers(1, num_qubits + 1))
            kind = "multiz"
            qubits = tuple(int(q) for q in rng.choice(num_qubits, size, replace=False))
        if rng.random() < 0.5:
            source = exprs[int(rng.integers(len(exprs)))]
        else:
            source = ParamRef(1, ("gate", k))
            refs.append(source)
        gates.append(SymbolicGate(kind, qubits, source))
    return QnnTemplate(enc, AnsatzSpec(num_qubits, "full"), 1, tuple(gates),
                       tuple(refs))


@pytest.mark.parametrize("num_qubits", [1, 2, 3, 4, 5, 6, 7])
def test_adjoint_sweep_on_irregular_layers(num_qubits):
    rng = np.random.default_rng(num_qubits)
    for _ in range(3):
        t = _random_circuit_template(rng, num_qubits, 24)
        Y = rng.uniform(-1.0, 1.0, size=(2, t.num_features))
        theta = rng.uniform(-np.pi, np.pi, size=t.param_count)
        f, gp, gy = sweep(t, Y, theta, params=True, inputs=True)
        hess = mixed_hessian_batch(t, Y, theta)
        for got, want in zip((f, gp, gy, hess), _shift_reference(t, Y, theta)):
            assert np.max(np.abs(got - want), initial=0.0) < 1e-12


def _mixed_template(num_qubits):
    """One rotation layer that mixes encoding and trainable gates, a phase
    block that does too, and an encoding whose monomials repeat, within a
    layer and across layers."""
    from qnnff.circuit import ParamRef, QnnTemplate, SymbolicGate, encoding_exprs

    enc = EncodingSpec(num_qubits, "full")
    exprs = encoding_exprs(enc)
    refs = [ParamRef(1, ("gate", k)) for k in range(2 * num_qubits + 2)]
    gates = [SymbolicGate("ry", (q,), exprs[q] if q % 2 else refs[q])
             for q in range(num_qubits)]
    gates += [SymbolicGate("multiz", (0,), exprs[0]),
              SymbolicGate("multiz", tuple(range(num_qubits)), refs[-1]),
              SymbolicGate("multiz", (num_qubits - 1,), exprs[-1])]
    gates += [SymbolicGate("ry", (q,), refs[num_qubits + q] if q % 2 else exprs[q])
              for q in range(num_qubits)]
    gates += [SymbolicGate("ry", (0,), exprs[0]),
              SymbolicGate("multiz", (0,), refs[-2])]
    used = {g.source for g in gates}
    return QnnTemplate(enc, AnsatzSpec(num_qubits, "full"), 1, tuple(gates),
                       tuple(r for r in refs if r in used))


def _edge_stage_template(lead_phase):
    """3 qubits, run in stages: with ``lead_phase`` a lone phase block
    first, then a rotation layer with its phase block, a lone rotation layer
    (the next one rotates qubit 1 again) and a last stage that ends on a
    phase block."""
    from qnnff.circuit import ParamRef, QnnTemplate, SymbolicGate, encoding_exprs

    enc = EncodingSpec(3, "full")
    exprs = encoding_exprs(enc)
    refs = [ParamRef(1, ("gate", k)) for k in range(6)]
    gates = [("multiz", (0, 1), exprs[3]), ("multiz", (2,), refs[0])] * lead_phase
    gates += [("ry", (0,), refs[1]), ("ry", (2,), exprs[2]),
              ("multiz", (0, 2), refs[2]),
              ("ry", (1,), exprs[1]), ("ry", (0,), refs[3]),
              ("ry", (1,), refs[4]), ("ry", (2,), exprs[0]),
              ("multiz", (0, 1, 2), refs[5]), ("multiz", (1,), exprs[-1])]
    return QnnTemplate(enc, AnsatzSpec(3, "full"), 1,
                       tuple(SymbolicGate(*g) for g in gates),
                       tuple(refs[not lead_phase:]))


@pytest.mark.parametrize("lead_phase", [True, False])
def test_stages_with_lone_ops_agree_with_the_oracles(lead_phase):
    t = _edge_stage_template(lead_phase)
    layers = gradients._program(t).layers
    # (rotation gates, phase gates) per stage
    assert [(len(cols) - len(signs), len(signs)) for _, signs, cols in layers.ops] \
        == [(0, 2)] * lead_phase + [(2, 1), (2, 0), (2, 2)]
    # every state is kept, the initial one too
    assert layers.kept == len(layers.ops) + 1
    rng = np.random.default_rng(3)
    Y = rng.uniform(-1.0, 1.0, size=(3, t.num_features))
    V = rng.normal(size=Y.shape)
    theta = rng.uniform(-np.pi, np.pi, size=t.param_count)
    f, gp, gy = sweep(t, Y, theta, params=True, inputs=True)
    hess = mixed_hessian_batch(t, Y, theta)
    for got, want in zip((f, gp, gy, hess), _shift_reference(t, Y, theta)):
        assert np.max(np.abs(got - want)) < 1e-12
    assert np.max(np.abs(hvp_params_batch(t, Y, theta, V)
                         - np.einsum("bpj,bj->bp", hess, V))) < 1e-12
    for y, value in zip(Y, f):
        state = circuit_matrix(3, bind(t, y, theta))[:, 0]
        dense = np.sum(np.abs(state[::2]) ** 2) - np.sum(np.abs(state[1::2]) ** 2)
        assert abs(value - dense) < 1e-12


def test_lih_forward_pass_runs_one_kernel_call_per_stage(monkeypatch):
    # 10 re-uploading blocks of a rotation layer and a phase block each,
    # plus the first trainable rotation layer, are 21 stages on 3 qubits
    from qnnff import statevec
    from qnnff.presets import get_preset

    t = get_preset("lih").template()
    y, theta = draw_point(np.random.default_rng(0), t)
    kinds = []
    apply = statevec._apply_kind
    monkeypatch.setattr(statevec, "_apply_kind",
                        lambda *args: kinds.append(args[2]) or apply(*args))
    eval_qnn(t, y, theta)
    assert kinds == ["stage"] * 21


@pytest.mark.parametrize("name", ["lih", "h2o", "h3o"])
def test_preset_ops_states_and_kernel_calls(name, monkeypatch):
    # one op per rotation layer and its phase block, every state kept; the
    # kernel calls of a one-row forward, adjoint and tangent pass
    from qnnff import statevec
    from qnnff.presets import get_preset

    ops, calls = {"lih": (21, (21, 42, 62)), "h2o": (25, (25, 50, 74)),
                  "h3o": (21, (62, 124, 184))}[name]
    t = get_preset(name).template()
    layers = gradients._program(t).layers
    assert (len(layers.ops), layers.kept) == (ops, ops + 1)
    rng = np.random.default_rng(0)
    y, theta = draw_point(rng, t)
    v = rng.normal(size=(1, t.num_features))
    kinds = []
    apply = statevec._apply_kind
    monkeypatch.setattr(statevec, "_apply_kind",
                        lambda *args: kinds.append(args[2]) or apply(*args))
    counts = []
    for run in (lambda: eval_qnn(t, y, theta), lambda: grad_params(t, y, theta),
                lambda: hvp_params_batch(t, y[None], theta, v)):
        kinds.clear()
        run()
        counts.append(len(kinds))
    assert tuple(counts) == calls


@settings(max_examples=40, deadline=None, database=None,
          derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), num_qubits=st.integers(1, 7),
       length=st.integers(4, 24), rows=st.integers(2, 4),
       mixed=st.booleans())
def test_hvp_equals_mixed_hessian_times_direction(seed, num_qubits, length, rows,
                                                  mixed):
    rng = np.random.default_rng(seed)
    t = (_mixed_template(num_qubits) if mixed
         else _random_circuit_template(rng, num_qubits, length))
    Y = rng.uniform(-1.0, 1.0, size=(rows, t.num_features))
    V = rng.normal(size=Y.shape)
    theta = rng.uniform(-np.pi, np.pi, size=t.param_count)
    got = hvp_params_batch(t, Y, theta, V)
    want = np.einsum("bpj,bj->bp", mixed_hessian_batch(t, Y, theta), V)
    assert got.shape == (rows, t.param_count)
    assert np.max(np.abs(got - want), initial=0.0) < 1e-12


def test_hvp_rejects_directions_of_another_shape(rng):
    t = random_template(rng, depth=1)
    Y = rng.uniform(-0.8, 0.8, size=(3, t.num_features))
    with pytest.raises(ArgumentError, match="directions"):
        hvp_params_batch(t, Y, np.zeros(t.param_count), np.ones((2, t.num_features)))


def test_row_bytes_bound_the_memory_of_a_call(monkeypatch):
    # h3o's mixed Hessian keeps the states its gates read and builds a table
    # per row for every encoding layer, h2o's a complex stage table per row
    # for every encoding stage; with the chunk budget at 4 MiB, the shifted
    # rows run in chunks, and the traced peak of the call, with its
    # unchunked output, stays within the budget
    for t, rng, samples in _templates((2, 8)):
        Y = rng.uniform(-1.0, 1.0, size=(samples, t.num_features))
        with monkeypatch.context() as patch:
            _assert_peak_within_budget(lambda th: mixed_hessian_batch(t, Y, th),
                                       t, rng, patch)


def test_row_bytes_bound_the_memory_of_a_tangent_sweep(monkeypatch):
    # a tangent-augmented row also keeps the derivative of every state and of
    # lam, and the derivatives of its tables: the rows run in chunks
    for t, rng, samples in _templates((100, 300)):
        Y = rng.uniform(-1.0, 1.0, size=(samples, t.num_features))
        V = rng.normal(size=Y.shape)
        with monkeypatch.context() as patch:
            _assert_peak_within_budget(lambda th: hvp_params_batch(t, Y, th, V),
                                       t, rng, patch)


def _templates(samples):
    """The h3o template (6 qubits, blocks) and the h2o one (3 qubits,
    stages), each with a generator and its number of samples."""
    from qnnff.presets import get_preset

    return [(get_preset(name).template(), np.random.default_rng(0), count)
            for name, count in zip(("h3o", "h2o"), samples)]


def _assert_peak_within_budget(fn, t, rng, monkeypatch, budget=4 << 20):
    import tracemalloc

    theta = rng.uniform(-np.pi, np.pi, size=t.param_count)
    fn(theta)   # builds the cached lowering
    monkeypatch.setattr(gradients, "_CHUNK_BYTES", budget)
    chunks = []
    execute = gradients._execute
    monkeypatch.setattr(gradients, "_execute",
                        lambda *args: chunks.append(args[2]) or execute(*args))
    tracemalloc.start()
    try:
        fn(theta)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(chunks) > 1
    assert peak <= budget


def test_sweep_counts_hardware_circuits(rng):
    t = random_template(rng, depth=2)
    Y = rng.uniform(-0.8, 0.8, size=(3, t.num_features))
    theta = rng.uniform(-np.pi, np.pi, size=t.param_count)
    d, m = t.param_count, len(gradients._program(t).input_cols)
    counter.reset()
    sweep(t, Y, theta, params=True, inputs=True)
    assert dataclasses.astuple(counter) == (3 * (1 + 2 * d + 2 * m), 3 * 2 * d,
                                            3 * 2 * m, 0, 3)
    counter.reset()
    mixed_hessian_batch(t, Y, theta)
    assert (counter.total, counter.hessian) == (3 * 4 * d * m, 3 * 4 * d * m)
    assert counter.simulated == 3 * 2 * m
    # the Hessian-vector product stands for the same circuits, in one
    # tangent-augmented row per sample
    counter.reset()
    hvp_params_batch(t, Y, theta, rng.normal(size=Y.shape))
    assert dataclasses.astuple(counter) == (3 * 4 * d * m, 0, 0, 3 * 4 * d * m, 3)


def test_eval_counter_bookkeeping(rng):
    t = random_template(rng, depth=2)
    y, theta = draw_point(rng, t)
    counter.reset()
    grad_params(t, y, theta)
    assert counter.grad_params == 2 * t.param_count
    assert counter.total == 2 * t.param_count
    counter.reset()
    eval_qnn(t, y, theta)
    assert counter.total == 1
    assert counter.grad_params == 0


def test_dimension_mismatch():
    t = single_ry_template()
    with pytest.raises(ArgumentError):
        eval_qnn(t, np.zeros(2), np.zeros(2))
    with pytest.raises(ArgumentError):
        grad_params(t, np.zeros(1), np.zeros(3))
