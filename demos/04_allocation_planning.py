"""
Pilot constants and near-optimal sample allocation
==================================================

Fit the bias/variance constraint constants of the nested rQMC estimator
from two small pilot runs, then solve for the error split kappa and the
sample counts (N, M) that hit a target tolerance at near-minimal work.
The exhaustive-search oracle confirms the solver's plan.
"""

import numpy as np

from nestiq import (
    NestedProblem,
    PilotConstants,
    RandomizationKey,
    brute_force_allocation,
    fit_pilot_inner,
    fit_pilot_outer,
    solve_allocation,
)


def g(y, x):
    return np.exp(x[:, :, 0] * y[:, 0][:, None])


problem = NestedProblem(d1=1, d2=1, inner=g, outer_map="log")
key = RandomizationKey(3, tag="allocation-demo")

outer = fit_pilot_outer(problem, [32, 128, 512], m_fixed=64, s=16, key=key.child("o"))
inner = fit_pilot_inner(problem, [8, 32, 128], n_fixed=8, r=16, key=key.child("i"))
print(f"outer pilot: C_Q1 = {outer.c_q1:.3g}, beta = {outer.beta:.2f}")
print(f"inner pilot: C_Q2 = {inner.c_q2:.3g}, delta = {inner.delta:.2f}, "
      f"C_Q3 = C_Q2 / 2 = {inner.c_q3:.3g}")

consts = PilotConstants(
    c_q1=outer.c_q1, beta=outer.beta,
    c_q2=inner.c_q2, c_q3=inner.c_q3, delta=inner.delta,
)

print("\n   tol      kappa*     N*      M*   predicted work   oracle work")
for tol in (1e-3, 3e-4, 1e-4, 3e-5):
    plan = solve_allocation(consts, tol, alpha=0.05)
    oracle = brute_force_allocation(consts, tol, alpha=0.05)
    print(f"  {tol:7.0e}  {plan.kappa_star:.3f}  {plan.n_star:7d} {plan.m_star:6d}"
          f"   {plan.predicted_work:12.0f}   {oracle.predicted_work:12.0f}")
