"""Build a re-uploading circuit model and differentiate it exactly.

Walks through the three building blocks: the encoding stage (single-qubit
rotations, pairwise ZZ phases and one degree-3 phase), the trainable stages,
and the adjoint sweep that returns machine-precision gradients.
"""

import numpy as np

from qnnff.circuit import AnsatzSpec, EncodingSpec, assemble_qnn, feature_map
from qnnff.gradients import eval_qnn, grad_inputs, grad_params

rng = np.random.default_rng(7)

# Three features on three qubits, fully coupled, with one three-body term;
# this is the diatomic preset's circuit at a shallower depth.
encoding = EncodingSpec(num_qubits=3, entanglement="full", degree_sets=((0, 1, 2),))
ansatz = AnsatzSpec(num_qubits=3, entanglement="full", degree_sets=((0, 1, 2),))
template = assemble_qnn(encoding, ansatz, depth=4)

stage = feature_map(encoding)
print(f"encoding stage: {len(stage)} gates "
      f"({sum(g.kind == 'ry' for g in stage)} rotations, "
      f"{sum(g.kind == 'multiz' for g in stage)} phase couplings)")
print(f"depth {template.depth} template: {len(template.gates)} gates, "
      f"{template.param_count} trainable parameters")

y = rng.uniform(-0.5, 0.5, size=3)
theta = rng.uniform(-np.pi, np.pi, size=template.param_count)
value = eval_qnn(template, y, theta)
print(f"\nmodel output at a random point: {value:+.6f} (always within [-1, 1])")

# Adjoint-mode gradients against central finite differences.
exact = grad_params(template, y, theta)
h = 1e-4
fd = np.zeros_like(exact)
for p in range(template.param_count):
    tp, tm = theta.copy(), theta.copy()
    tp[p] += h
    tm[p] -= h
    fd[p] = (eval_qnn(template, y, tp) - eval_qnn(template, y, tm)) / (2 * h)
print(f"parameter gradient: max |adjoint - finite difference| = "
      f"{np.max(np.abs(exact - fd)):.2e}")

gi = grad_inputs(template, y, theta)
fd_y = np.zeros(3)
for j in range(3):
    yp, ym = y.copy(), y.copy()
    yp[j] += h
    ym[j] -= h
    fd_y[j] = (eval_qnn(template, yp, theta) - eval_qnn(template, ym, theta)) / (2 * h)
print(f"feature gradient:   max |adjoint - finite difference| = "
      f"{np.max(np.abs(gi - fd_y)):.2e}")
print("\nfeature   d f / d y_j")
for j, g in enumerate(gi):
    print(f"   y_{j}    {g:+.6f}")
