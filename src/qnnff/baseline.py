"""Fully connected tanh networks with parameter budgets matched to circuit
models, for accuracy and effective-dimension comparisons.

Hidden layers use tanh, the single output unit is linear.  Parameters pack
into one flat vector layer by layer (weights row-major, then biases), which
is the layout the Fisher/effective-dimension code differentiates against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .circuit import (EncodingSpec, encoding_monomials, encoding_table,
                      monomial_jacobian)
from .descriptors import DescriptorPipeline
from .errors import ArgumentError
from .model import ForceFieldMixin


@dataclass(frozen=True)
class MlpSpec:
    """Layer widths input -> hidden... -> 1; at least one affine layer."""

    widths: tuple[int, ...]

    def __post_init__(self):
        widths = tuple(int(w) for w in self.widths)
        object.__setattr__(self, "widths", widths)
        if len(widths) < 2:
            raise ArgumentError("need at least input and output widths")
        if widths[-1] != 1:
            raise ArgumentError("output width must be 1")
        if any(w < 1 for w in widths):
            raise ArgumentError("layer widths must be positive")

    @property
    def param_count(self) -> int:
        return param_count(self.widths)


def param_count(widths) -> int:
    return sum(w_in * w_out + w_out for w_in, w_out in zip(widths, widths[1:]))


@dataclass
class MlpModel:
    spec: MlpSpec
    weights: list[np.ndarray]
    biases: list[np.ndarray]

    @property
    def param_count(self) -> int:
        return self.spec.param_count


def mlp_init_xavier(spec: MlpSpec, seed: int = 0) -> MlpModel:
    """Xavier-uniform weights, zero biases, deterministic per seed."""
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for w_in, w_out in zip(spec.widths, spec.widths[1:]):
        bound = np.sqrt(6.0 / (w_in + w_out))
        weights.append(rng.uniform(-bound, bound, size=(w_out, w_in)))
        biases.append(np.zeros(w_out))
    return MlpModel(spec, weights, biases)


def pack_params(model: MlpModel) -> np.ndarray:
    parts = []
    for w, b in zip(model.weights, model.biases):
        parts.append(w.ravel())
        parts.append(b)
    return np.concatenate(parts)


def unpack_params(spec: MlpSpec, theta: np.ndarray) -> MlpModel:
    theta = np.asarray(theta, dtype=float)
    if theta.size != spec.param_count:
        raise ArgumentError(
            f"theta has {theta.size} entries, spec wants {spec.param_count}"
        )
    weights, biases, at = [], [], 0
    for w_in, w_out in zip(spec.widths, spec.widths[1:]):
        weights.append(theta[at: at + w_in * w_out].reshape(w_out, w_in))
        at += w_in * w_out
        biases.append(theta[at: at + w_out])
        at += w_out
    return MlpModel(spec, weights, biases)


def _forward_cached(model: MlpModel, x: np.ndarray):
    acts = [np.atleast_2d(np.asarray(x, dtype=float))]
    if acts[0].shape[1] != model.spec.widths[0]:
        raise ArgumentError(
            f"input width {acts[0].shape[1]} does not match {model.spec.widths[0]}"
        )
    last = len(model.weights) - 1
    for l, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = acts[-1] @ w.T + b
        acts.append(z if l == last else np.tanh(z))
    return acts


def mlp_forward(model: MlpModel, x) -> np.ndarray | float:
    """Network output; a single input vector yields a scalar."""
    single = np.asarray(x).ndim == 1
    out = _forward_cached(model, x)[-1][:, 0]
    return float(out[0]) if single else out


def mlp_backward(model: MlpModel, x):
    """Exact gradients of the output w.r.t. parameters and inputs.

    Returns (value, d_params, d_inputs); batched inputs give one row per
    sample.  These are output gradients (not loss gradients), which is what
    both force prediction and the Fisher estimator need.
    """
    single = np.asarray(x).ndim == 1
    acts = _forward_cached(model, x)
    batch = acts[0].shape[0]
    delta = np.ones((batch, 1))
    grads = [None] * len(model.weights)
    for l in range(len(model.weights) - 1, -1, -1):
        gw = np.einsum("bo,bi->boi", delta, acts[l])
        gb = delta
        grads[l] = (gw, gb)
        delta = delta @ model.weights[l]
        if l > 0:  # route through the tanh of the previous hidden layer
            delta = delta * (1.0 - acts[l] ** 2)
    d_inputs = delta
    d_params = np.concatenate(
        [np.concatenate([gw.reshape(batch, -1), gb], axis=1) for gw, gb in grads],
        axis=1,
    )
    value = acts[-1][:, 0]
    if single:
        return float(value[0]), d_params[0], d_inputs[0]
    return value, d_params, d_inputs


def mlp_param_grad_fn(spec: MlpSpec):
    """Adapter for the capacity module: (theta, inputs) -> (K, d) gradients."""
    def fn(theta, inputs):
        model = unpack_params(spec, theta)
        _, d_params, _ = mlp_backward(model, np.atleast_2d(inputs))
        return d_params
    return fn


def mse_value_and_grad(spec: MlpSpec, x, labels):
    """theta -> (mean squared error of the network on (x, labels), its
    gradient), the loss the optimizer minimises."""
    def value_and_grad(theta):
        f, d_params, _ = mlp_backward(unpack_params(spec, theta), x)
        r = f - labels
        return float(np.mean(r ** 2)), (2.0 / r.size) * (d_params.T @ r)
    return value_and_grad


def _candidates(budget_d: int, input_width: int, trials: int, seed: int,
                tolerance: int) -> list[MlpSpec]:
    """The first ``trials`` distinct topologies within ``tolerance`` of the
    budget among the seed's ``max(200, 400 * trials)`` draws.

    A draw is a depth ``rng.integers(1, 5)``, then that many widths
    ``rng.integers(1, 17)``.  numpy's ``Generator`` maps a range of n <= 2**32
    values onto one 32-bit word by Lemire's method, ``low + (word * n >> 32)``,
    which never rejects a word when n is a power of two, as 4 and 16 are.  So
    the raw words of one call replay the stream: a draw's depth is one plus
    the top 2 bits of its first word, its widths one plus the top 4 bits of
    the next ``depth`` words.  The draw starts are found by pointer jumping
    over the words.  A repeated tuple is feasible exactly when its first
    occurrence was, so dropping repeats among the feasible draws keeps the
    candidates and their order.  ``tests/test_baseline.py`` checks this
    against the per-draw loop.
    """
    draws = max(200, 400 * trials)
    words = np.random.default_rng(seed).integers(2**32, size=5 * draws)
    # jump[i]: the first word after a draw that starts at word i (clipped to
    # the last word); each pass of the loop doubles the draws it spans
    jump = np.minimum(np.arange(words.size) + 2 + (words >> 30), words.size - 1)
    starts = np.zeros(1, dtype=int)
    while starts.size < draws:
        starts, jump = np.concatenate([starts, jump[starts]]), jump[jump]
    starts = starts[:draws]
    depth = 1 + (words[starts] >> 30)
    layer = np.arange(4)
    hidden = np.where(layer < depth[:, None],
                      1 + (words[starts[:, None] + 1 + layer] >> 28), 0)
    counts = (input_width * hidden[:, 0] + hidden.sum(1) + 1
              + (hidden[:, :-1] * hidden[:, 1:]).sum(1)
              + hidden[np.arange(draws), depth - 1])
    feasible = hidden[np.abs(counts - budget_d) <= tolerance]
    rows = list(dict.fromkeys(map(tuple, feasible.tolist())))[:trials]
    return [MlpSpec((input_width, *filter(None, row), 1)) for row in rows]


def topology_search(budget_d: int, input_width: int, trials: int, seed: int = 0,
                    train=None, val=None, tolerance: int = 2,
                    epochs: int = 300):
    """Random search over layer widths with parameter count within
    ``tolerance`` of the budget.

    ``train``/``val`` are optional (features, labels) pairs; when given, each
    candidate is trained briefly and the best validation loss wins.  Without
    data the candidate whose count is closest to the budget wins.  The search
    is deterministic per seed; its candidates come from one bulk draw (see
    ``_candidates``).
    """
    if trials < 1 or tolerance < 0:
        raise ArgumentError(
            f"topology search needs trials >= 1 and tolerance >= 0, got "
            f"trials={trials}, tolerance={tolerance}")
    candidates = _candidates(budget_d, input_width, trials, seed, tolerance)
    if not candidates:
        raise ArgumentError(
            f"no feasible topology within {tolerance} of budget {budget_d} "
            f"for input width {input_width}"
        )
    if train is None:
        return min(candidates,
                   key=lambda s: (abs(s.param_count - budget_d), s.widths))
    from .train import AdamConfig, adam_minimize

    x_train, e_train = train
    x_val, e_val = val if val is not None else train
    best_spec, best_loss = None, np.inf
    for k, spec in enumerate(candidates):
        theta0 = pack_params(mlp_init_xavier(spec, seed=seed + k))

        cfg = AdamConfig(max_steps=epochs, seed=seed + k)
        theta, _, _, _ = adam_minimize(
            mse_value_and_grad(spec, x_train, e_train), theta0, cfg)
        val_loss = float(np.mean(
            (mlp_forward(unpack_params(spec, theta), x_val) - e_val) ** 2))
        if val_loss < best_loss:
            best_spec, best_loss = spec, val_loss
    return best_spec


@dataclass
class MlpForceField(ForceFieldMixin):
    """Classical counterpart of the circuit force field.

    Inputs are either the pipeline features directly or, when ``encoding``
    is set, the same monomials (singles, pair products, degree products) the
    circuit encoding applies, so both families see identical information.
    """

    spec: MlpSpec
    pipeline: DescriptorPipeline
    theta: np.ndarray
    energy_scale: float
    energy_offset: float
    encoding: EncodingSpec | None = None
    metadata: dict = field(default_factory=dict)

    PARAM_BOUNDS = (-1.0, 1.0)

    def __post_init__(self):
        self._check()
        expected = (self.pipeline.num_features if self.encoding is None
                    else len(encoding_table(self.encoding).index_sets))
        if self.spec.widths[0] != expected:
            raise ArgumentError(
                f"network input width {self.spec.widths[0]} does not match "
                f"{expected} model inputs"
            )

    @property
    def param_count(self) -> int:
        return self.spec.param_count

    def sweep(self, features, theta, params=False, inputs=False, value=True):
        """The family's hook: one ``mlp_forward`` for the outputs alone, else
        one ``mlp_backward``, its input gradient chained through the
        monomials' Jacobian when the network reads them."""
        net = unpack_params(self.spec, theta)
        x = (features if self.encoding is None
             else encoding_monomials(self.encoding, features))
        if not (params or inputs):
            return mlp_forward(net, x), None, None
        f, d_params, d_in = mlp_backward(net, x)
        if inputs and self.encoding is not None:
            d_in = np.einsum("bk,bkj->bj", d_in,
                             monomial_jacobian(self.encoding, features))
        return f, d_params if params else None, d_in if inputs else None


def mlp_payload(ff: MlpForceField) -> dict:
    from .circuit import _spec_to_dict

    return {
        "family": "mlp",
        "widths": list(ff.spec.widths),
        "theta": [float(v) for v in ff.theta],
        "encoding": None if ff.encoding is None else _spec_to_dict(ff.encoding),
    }


def mlp_from_payload(payload: dict, pipeline, scale, offset, metadata) -> MlpForceField:
    from .circuit import _spec_from_dict

    enc = payload.get("encoding")
    return MlpForceField(
        spec=MlpSpec(tuple(payload["widths"])),
        pipeline=pipeline,
        theta=np.array(payload["theta"], dtype=float),
        energy_scale=scale,
        energy_offset=offset,
        encoding=None if enc is None else _spec_from_dict(enc, EncodingSpec),
        metadata=metadata,
    )
