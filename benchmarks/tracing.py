"""Layer trace taken from outside the program.

``Tracer.install`` replaces selected qnnff functions with wrappers that
record a span (name, start, end, parent) while tracing is enabled, plus
counts at the same boundaries.  A layer's self time is its span's duration
minus the time covered by its child spans.  A target that no longer exists
in the program is skipped, and the metrics of a layer none of whose targets
exist are dropped.  Spans stay in memory until ``write``.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext

clock = time.perf_counter

SPAN_CAP = 100_000   # spans kept for the trace file; aggregates see all


def _kernel_name(args):
    return f"statevec.{args[2]}"


def _amps(args):
    return args[0].size


# (module, attribute, span name or a function of the call arguments,
#  amplitude counter, clamp counter)
TARGETS = [
    ("qnnff.statevec", "_apply_kind", _kernel_name, _amps, False),
    ("qnnff.statevec", "_expectation_z_raw", "statevec.readout", _amps, False),
    ("qnnff.gradients", "eval_qnn_batch", "gradients.eval", None, False),
    ("qnnff.gradients", "grad_params_batch", "gradients.grad_params", None, False),
    ("qnnff.gradients", "grad_inputs_batch", "gradients.grad_inputs", None, False),
    ("qnnff.gradients", "mixed_hessian", "gradients.mixed_hessian", None, False),
    ("qnnff.gradients", "_base_angles", "gradients.bind", None, False),
    ("qnnff.gradients", "_Program.input_values", "gradients.bind", None, False),
    ("qnnff.circuit", "bind", "gradients.bind", None, False),
    ("qnnff.descriptors", "DescriptorPipeline.apply", "descriptors.apply",
     None, True),
    ("qnnff.descriptors", "DescriptorPipeline.apply_with_jacobian",
     "descriptors.apply_with_jacobian", None, True),
    ("qnnff.model", "QffModel.predict_energy", "model.predict_energy", None, False),
    ("qnnff.model", "QffModel.predict_forces", "model.predict_forces", None, False),
    ("qnnff.model", "QffModel.predict_energy_batch", "model.predict_energy_batch",
     None, False),
    ("qnnff.train", "_lower", "train.lower", None, False),
    ("qnnff.train", "_loss_terms", "train.loss", None, False),
    ("qnnff.train", "_loss_and_grad", "train.loss", None, False),
    ("qnnff.train", "adam_minimize", "train.optimizer", None, False),
    ("qnnff.capacity", "fisher_matrix", "capacity.fisher", None, False),
    ("qnnff.capacity", "_fisher_eigenvalues", "capacity.eigensolve", None, False),
    ("qnnff.dynamics", "velocity_verlet_run", "dynamics.integrator", None, False),
    ("qnnff.baseline", "mlp_forward", "baseline.mlp", None, False),
    ("qnnff.baseline", "mlp_backward", "baseline.mlp", None, False),
    ("qnnff.baseline", "unpack_params", "baseline.mlp", None, False),
    ("qnnff.circuit", "encoding_monomials", "baseline.monomials", None, False),
    ("qnnff.circuit", "monomial_jacobian", "baseline.monomials", None, False),
    ("qnnff.presets", "generate_lih", "data.generate", None, False),
    ("qnnff.presets", "generate_h2o", "data.generate", None, False),
    ("qnnff.presets", "generate_h3o", "data.generate", None, False),
    ("qnnff.data", "hydronium_geometry", "data.generate", None, False),
]

KERNELS = ("statevec.ry", "statevec.multiz", "statevec.readout")
LAYERS = KERNELS + (
    "gradients.eval", "gradients.grad_params", "gradients.grad_inputs",
    "gradients.mixed_hessian", "gradients.bind",
    "descriptors.apply", "descriptors.apply_with_jacobian",
    "model.predict_energy", "model.predict_forces", "model.predict_energy_batch",
    "train.lower", "train.loss", "train.optimizer",
    "capacity.fisher", "capacity.eigensolve",
    "dynamics.integrator",
    "baseline.mlp", "baseline.monomials",
    "data.generate",
)
COUNTS = ("gradients.circuit_evals", "gradients.simulated_rows",
          "descriptors.clamps")
SETUP_LAYERS = ("data.generate",)


def per_layer_names() -> list[tuple[str, str]]:
    """(metric name, unit) of every per-layer metric, in report order."""
    out = []
    for layer in LAYERS:
        out += [(f"{layer}.calls", "count"), (f"{layer}.self_s", "s")]
        if layer in KERNELS:
            out.append((f"{layer}.amps", "count"))
    return out + [(name, "count") for name in COUNTS]


class NullTracer:
    """Stand-in used when the run measures end-to-end metrics."""

    scope = "round"

    def op(self, name):
        return nullcontext()


class Tracer:
    def __init__(self):
        self.enabled = False
        self.scope = "round"
        self.stack: list[list] = []
        self.agg = defaultdict(lambda: [0, 0.0, 0])   # (scope, name) -> calls, self, amps
        self.counts = defaultdict(int)                 # (scope, name) -> count
        self.spans: list[tuple] = []
        self.present: set[str] = set()
        self.missing: list[str] = []
        self.origin = clock()
        self._next_id = 0

    # -- installation -------------------------------------------------------

    def install(self, targets=TARGETS) -> None:
        for modname, attr, name, amps_of, clamps in targets:
            try:
                module = importlib.import_module(modname)
            except ImportError:
                self.missing.append(f"{modname}.{attr}")
                continue
            owner, _, leaf = attr.rpartition(".")
            holder = getattr(module, owner, None) if owner else module
            original = getattr(holder, leaf, None) if holder is not None else None
            if original is None:
                self.missing.append(f"{modname}.{attr}")
                continue
            wrapper = self._wrap(original, name, amps_of, clamps)
            if owner:
                setattr(holder, leaf, wrapper)
            else:
                # also rebind names imported with ``from module import name``
                for mod in list(sys.modules.values()):
                    if (getattr(mod, "__name__", "").startswith(modname.split(".")[0])
                            and getattr(mod, leaf, None) is original):
                        setattr(mod, leaf, wrapper)
            self.present.update(("statevec.ry", "statevec.multiz") if callable(name)
                                else (name,))

    def install_counters(self) -> None:
        """Counts read from the program: circuit evaluations, rows passed to
        the executor, and descriptor clamps."""
        gradients = importlib.import_module("qnnff.gradients")
        if hasattr(gradients, "counter"):
            self.present.add("gradients.circuit_evals")
        pipeline = getattr(importlib.import_module("qnnff.descriptors"),
                           "DescriptorPipeline", None)
        if hasattr(pipeline, "clamp_count"):
            self.present.add("descriptors.clamps")
        execute = getattr(gradients, "_execute", None)
        if execute is None:
            self.missing.append("qnnff.gradients._execute")
            return
        tracer = self

        @functools.wraps(execute)
        def counted(*args, **kwargs):
            if tracer.enabled:
                rows = args[2] if len(args) > 2 else kwargs["rows"]
                tracer.counts[tracer.scope, "gradients.simulated_rows"] += rows
            return execute(*args, **kwargs)

        gradients._execute = counted
        self.present.add("gradients.simulated_rows")

    def _wrap(self, fn, name, amps_of, clamps):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            before = getattr(args[0], "clamp_count", 0) if clamps else 0
            tracer._open(name(args) if callable(name) else name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(amps_of(args) if amps_of else 0)
                if clamps:
                    tracer.counts[tracer.scope, "descriptors.clamps"] += (
                        getattr(args[0], "clamp_count", 0) - before)

        return wrapper

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str) -> None:
        self._next_id += 1
        self.stack.append([name, clock(), 0.0, self._next_id])

    def _close(self, amps: int) -> None:
        end = clock()
        name, start, child, span_id = self.stack.pop()
        duration = end - start
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[2] += duration
        entry = self.agg[self.scope, name]
        entry[0] += 1
        entry[1] += duration - child
        entry[2] += amps
        if len(self.spans) < SPAN_CAP:
            self.spans.append((span_id, parent[3] if parent else 0, name,
                               start - self.origin, duration))

    @contextmanager
    def op(self, name: str):
        """Root span around one call the benchmark makes into the program."""
        counter = getattr(sys.modules.get("qnnff.gradients"), "counter", None)
        evals0 = counter.total if counter is not None else 0
        self.enabled = True
        self._open(f"op.{name}")
        try:
            yield
        finally:
            self._close(0)
            self.enabled = False
            if counter is not None:
                self.counts[self.scope, "gradients.circuit_evals"] += (
                    counter.total - evals0)

    # -- results -------------------------------------------------------------

    def per_layer(self, rounds: int, setups: int) -> dict:
        """Per-layer metrics per round (set-up layers per set-up)."""
        metrics = {}
        for layer in LAYERS:
            if layer not in self.present:
                continue
            scope, n = (("setup", setups) if layer in SETUP_LAYERS
                        else ("round", rounds))
            calls, self_s, amps = self.agg.get((scope, layer), (0, 0.0, 0))
            metrics[f"{layer}.calls"] = {"value": calls / n, "unit": "count"}
            metrics[f"{layer}.self_s"] = {"value": self_s / n, "unit": "s"}
            if layer in KERNELS:
                metrics[f"{layer}.amps"] = {"value": amps / n, "unit": "count"}
        for name in COUNTS:
            if name in self.present:
                metrics[name] = {"value": self.counts.get(("round", name), 0) / rounds,
                                 "unit": "count"}
        return metrics

    def write(self, path, extra: dict) -> None:
        payload = dict(extra)
        payload["missing_targets"] = self.missing
        payload["aggregates"] = [
            {"scope": scope, "name": name, "calls": c, "self_s": s, "amps": a}
            for (scope, name), (c, s, a) in sorted(self.agg.items())]
        payload["counts"] = [{"scope": scope, "name": name, "value": v}
                             for (scope, name), v in sorted(self.counts.items())]
        payload["span_fields"] = ["id", "parent", "name", "start_s", "duration_s"]
        payload["spans"] = self.spans
        with open(path, "w") as fh:
            json.dump(payload, fh)
