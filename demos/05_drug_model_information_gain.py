"""
Expected information gain for a drug-concentration experiment
=============================================================

A dose is administered at time zero and the concentration is sampled at 15
time points; the design question is where to place those samples.  The
expected information gain (EIG) of the experiment is a nested integral:
its inner part marginalizes the likelihood over the parameter prior, which
plain sampling cannot handle here (the likelihood is far too concentrated),
so the inner integral is importance-sampled from each datum's linearized
Gaussian posterior in log-parameters, where the lognormal prior is Gaussian.

The full pipeline: fit pilot constants, plan the sample counts for a
tolerance, and run the production estimator with a single randomization.
"""

import time

import numpy as np

from nestiq import (
    OEDProblem,
    PilotConstants,
    PKModel,
    RandomizationKey,
    eig_importance_sampled,
    eig_laplace_only,
    fit_pilot_inner,
    fit_pilot_outer,
    pk_designs,
    pk_prior,
    solve_allocation,
)
from nestiq.oed import build_nested_problem

geom, even = pk_designs()
print("geometric design times :", np.round(geom, 2))
print("evenly spaced times    :", np.round(even, 2))

for name, xi in (("geom", geom), ("even", even)):
    problem = OEDProblem(
        model=PKModel(),
        xi=xi,
        prior=pk_prior(),
        noise_variances=np.full(15, 0.01),
    )
    key = RandomizationKey(2024, tag=f"pk-{name}")

    t0 = time.time()
    nested = build_nested_problem(problem, family="is")
    outer = fit_pilot_outer(nested, [32, 128, 512, 2048], 4, 32, key.child("o"))
    inner = fit_pilot_inner(nested, [32, 128, 512, 2048], 4, 32, key.child("i"))
    consts = PilotConstants(
        c_q1=outer.c_q1, beta=outer.beta,
        c_q2=inner.c_q2, c_q3=inner.c_q3, delta=inner.delta,
    )
    plan = solve_allocation(consts, tol=5e-3, alpha=0.05)
    res = eig_importance_sampled(
        problem, plan.n_star, plan.m_star, S=1, R=1, key=key.child("estimate")
    )

    # the single-loop Laplace shortcut is nearly free and lands close by
    la = eig_laplace_only(problem, 2**12, sampler="rqmc-sobol-owen",
                          key=key.child("laplace"))
    print(f"\n{name}: beta = {outer.beta:.2f}, delta = {inner.delta:.2f}, "
          f"plan N* = {plan.n_star}, M* = {plan.m_star}")
    print(f"  EIG (nested, importance sampled) = {res.estimate:.4f}  "
          f"[{time.time()-t0:.0f}s total]")
    print(f"  EIG (Laplace shortcut)           = {la.estimate:.4f} "
          f"+- {la.stderr:.1e}")

print("\nThe geometric design concentrates early samples where the "
      "concentration curve is most sensitive and gains more information.")
