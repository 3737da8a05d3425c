"""
Sobol points and Owen scrambling
================================

Generate a base-2 digital sequence, randomize it with nested uniform
scrambling, and watch the star discrepancy decay almost linearly in the
number of points -- the property that makes quasi-Monte Carlo worth the
trouble.
"""

import numpy as np

from nestiq import (
    RandomizationKey,
    load_direction_numbers,
    owen_scramble,
    sobol_sequence,
    star_discrepancy_1d,
)

params = load_direction_numbers()  # built-in table, dimensions 1..64
key = RandomizationKey(seed=2024, tag="demo")

# the first 16 two-dimensional points, before and after scrambling
seq = sobol_sequence(params, dimension=2, log2_count=4)
pts = owen_scramble(seq, key)
print("unrandomized fractions:")
print((seq * 2.0**-32)[:6])
print("scrambled points (same dyadic structure, uniform marginals):")
print(pts[:6])

# scrambling preserves the net: each dyadic column of width 1/16 holds
# exactly one point
hist = np.histogram(pts[:, 0], bins=16, range=(0, 1))[0]
print("points per width-1/16 bin:", hist)

# star discrepancy of scrambled 1-D blocks decays ~ 1/M
print("\n  M      D*(scrambled)   D*(iid uniform)")
rng = np.random.default_rng(0)
for k in range(4, 13):
    block = owen_scramble(sobol_sequence(params, 1, k), key.child(k))
    d_qmc = star_discrepancy_1d(block)
    d_iid = star_discrepancy_1d(rng.uniform(size=(2**k, 1)))
    print(f"  2^{k:<3} {d_qmc:12.3e}    {d_iid:12.3e}")
