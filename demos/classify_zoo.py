"""Classify every shipped code and show where the complexity order
comes from.

The classifier builds the orthogonality graph of the weight matrices,
with an edge wherever the Hurwitz-Radon form does not vanish, and then
splits it into components or finds a small separator.  The result is
the ML complexity order k': an exhaustive receiver pays |S|^k, a
structured one pays on the order of |S|^k'.
"""

import numpy as np

from stlattice import build, classify, hurwitz_radon, sample_r_matrix

ZOO = [
    "alamouti",
    "golden",
    "silver",
    "srinath_rajan",
    "mido_a4",
    "simo_relay",
    {"family": "mimo_relay", "params": {"M": 3}},
    "iterated",
]

print(f"{'code':<14} {'family':<24} {'k':>3} {'k_prime':>7} {'reduction':>9}")
for desc in ZOO:
    basis = build(desc)
    prof = classify(basis)
    name = desc if isinstance(desc, str) else desc["family"]
    print(
        f"{name:<14} {prof.family:<24} {basis.k:>3} {prof.k_prime:>7}"
        f" {prof.reduction_pct:>8.1f}%"
    )
print()

# The graph itself, for the smallest code: no edges at all, so every
# coefficient decodes on its own.
basis = build("alamouti")
hr = hurwitz_radon(basis)
print("alamouti orthogonality graph edges:", int(hr.adjacency.sum()) // 2)
print()

# For a conditional code the structure shows up in the R factor of the
# equivalent channel.  Order the symbols as the profile does (groups
# first, conditioned last) and average |R| over channels; a dot marks an
# entry that vanished on every draw.
basis = build("srinath_rajan")
prof = classify(basis)
mask = sample_r_matrix(basis, ordering=prof.ordering, trials=20, seed=3).zero_mask
print("srinath_rajan averaged R pattern (x nonzero, . zero):")
for row in range(basis.k):
    print(" ".join("." if mask[row, col] else "x" for col in range(basis.k)))
print()
print(f"groups: {prof.groups}")
print(f"conditioned symbols: {prof.conditioned}")
print(f"complexity order k' = {prof.k_prime} of k = {basis.k}")
