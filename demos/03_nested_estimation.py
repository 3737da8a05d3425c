"""
Nested integration with a double loop
=====================================

The target is an outer integral of log of an inner integral,

    I = int_0^1 log( int_0^1 exp(x y) dx ) dy,

whose inner statistical error leaks into the outer estimate as bias.  The
double-loop estimator with scrambled nets in both loops (and an independent
inner randomization per outer sample) cuts both the bias and the variance
rates relative to iid sampling.
"""

import numpy as np

from nestiq import (
    NestedProblem,
    RandomizationKey,
    dlmc_estimate,
    rdlqmc_estimate,
    tensor_quadrature_reference,
)


def g(y, x):
    return np.exp(x[:, :, 0] * y[:, 0][:, None])


problem = NestedProblem(d1=1, d2=1, inner=g, outer_map="log")
truth = tensor_quadrature_reference(problem, 32, 32)
print(f"quadrature reference: {truth:.10f}")

key = RandomizationKey(11, tag="nested-demo")

res_mc = dlmc_estimate(problem, N=4096, M=64, key=key)
print(f"double-loop MC   (N=4096, M=64):  {res_mc.estimate:.6f} "
      f"+- {res_mc.stderr:.1e}   |err| {abs(res_mc.estimate - truth):.2e}")

res_q = rdlqmc_estimate(problem, N=1024, M=128, S=8, R=1, key=key)
print(f"double-loop rQMC (N=1024, M=128, S=8): {res_q.estimate:.6f} "
      f"+- {res_q.stderr:.1e}   |err| {abs(res_q.estimate - truth):.2e}")
print(f"work: MC {res_mc.work:.0f} evaluations, rQMC {res_q.work:.0f}")

# the replicate values behind the rQMC error bar are the S outer
# randomization means
print("outer-randomization means:", np.round(res_q.replicate_values, 6))
