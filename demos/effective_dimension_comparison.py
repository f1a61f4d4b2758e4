"""Capacity comparison: circuit model vs a budget-matched tanh network.

Both models see the same inputs (the circuit's encoded monomials) and the
same Fisher-matrix estimator; only the parameter space differs.  The
normalized effective dimension measures how much of its parameter space a
model actually uses; re-uploading circuits consistently score higher at a
matched parameter budget.
"""

import numpy as np

from qnnff.baseline import MlpSpec, mlp_param_grad_fn
from qnnff.capacity import effective_dimension
from qnnff.circuit import encoding_monomials
from qnnff.gradients import qnn_param_grad_fn
from qnnff.presets import generate_lih, get_preset

preset = get_preset("lih")
data = generate_lih(100, mirror=True)
pipeline = preset.pipeline().fit(data.cartesians())
features = pipeline.apply_batch(data.cartesians()[:50])

template = preset.template()
network = MlpSpec((7, 4, 5, 2, 1))
encoding = preset.encoding_spec()
monomials = encoding_monomials(encoding, features)
print(f"circuit: d = {template.param_count} parameters")
print(f"network: widths {network.widths}, d = {network.param_count} parameters")
print(f"Fisher data: {len(features)} inputs; sample-size parameter n = 50\n")

print("seed   circuit d_n/d   network d_n/d")
wins = 0
for seed in range(5):
    q = effective_dimension(qnn_param_grad_fn(template), features,
                            dim=template.param_count, n=50,
                            bounds=(-np.pi, np.pi), draws=60, seed=seed)
    c = effective_dimension(mlp_param_grad_fn(network), monomials,
                            dim=network.param_count, n=50,
                            bounds=(-1.0, 1.0), draws=60, seed=seed)
    wins += q.normalized > c.normalized
    print(f"  {seed}      {q.normalized:.3f}           {c.normalized:.3f}")
print(f"\ncircuit ranked higher in {wins}/5 trials")
