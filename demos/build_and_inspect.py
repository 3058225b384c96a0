"""Build codes from the registry and look at their weight matrices.

A code is a list of complex n_t x T matrices B_1 .. B_k.  Transmitting
the integer coefficients z means sending the matrix sum z_i B_i over
n_t antennas for T channel uses.  Bases round-trip through JSON so a
construction can be stored next to the simulation results it produced.
"""

import numpy as np

from stlattice import REGISTRY, WeightBasis, build

print("registered families:", ", ".join(sorted(REGISTRY)))
print()

alamouti = build("alamouti")
print(f"alamouti: k={alamouti.k} matrices of shape {alamouti.n_t}x{alamouti.T}")
for i, mat in enumerate(alamouti.mats):
    print(f"B_{i} =")
    print(np.round(mat, 6))
print()

# A codeword is a plain linear combination of the weights.
z = np.array([1.0, 2.0, 3.0, 4.0])
codeword = alamouti.combination(z)
print("codeword for z = (1, 2, 3, 4):")
print(np.round(codeword, 6))
print()

# The golden code packs eight coefficients into the same 2x2 frame.
golden = build("golden")
print(f"golden: k={golden.k}, first weight:")
print(np.round(golden.mats[0], 6))
print()

# Constructions with parameters take a dict descriptor.
relay = build({"family": "mimo_relay", "params": {"M": 3}})
print(f"mimo_relay M=3: k={relay.k} matrices of shape {relay.n_t}x{relay.T}")
print()

# JSON round trip.
text = alamouti.to_json()
again = WeightBasis.from_json(text)
same = all(np.allclose(a, b) for a, b in zip(alamouti.mats, again.mats))
print(f"JSON round trip preserves all weights: {same}")
print(f"serialized size: {len(text)} bytes")
