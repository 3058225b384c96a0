"""Double a code with the balanced iteration map and watch mutual
orthogonality survive.

The map takes a pair of n x n matrices (X, Y) to a 2n x 2n block
matrix whose off-diagonal blocks carry Y and its conjugate.  When two
weights anticommute in the Hurwitz-Radon sense before doubling, their
images anticommute after.  The last part classifies the registry's
32-coefficient `iterated` code.  It is not an output of `iterate`: it is
written out by hand in `codebook.iterated` with the block layout
[[X1, tau(X1)], [X2, tau(X2)]], and its 32 weights span only 16 real
dimensions.
"""

import numpy as np

from stlattice import IteratedMapSpec, build, classify, hurwitz_radon, iterate

spec = IteratedMapSpec(tau=np.conj, theta=-2.0, zeta=-1.0, theta_prime=2.0)

X = np.array([[1.0, 2.0], [3.0, 4.0]])
Y = np.array([[0.0, 1.0], [-1.0, 0.0]])
doubled = iterate(X, Y, spec)
print("iterate(X, Y) for a real pair:")
print(doubled)
print()

# With Y = 0 the image is block diagonal: X in one corner, tau(X) in
# the other.
print("iterate(X, 0):")
print(iterate(X, np.zeros((2, 2)), spec))
print()

# Orthogonality inheritance on the Alamouti weights: delta measures the
# Hurwitz-Radon form, zero means the pair decodes separately.
basis = build("alamouti")
A, B = basis.mats[0], basis.mats[1]
before = np.linalg.norm(A @ B.conj().T + B @ A.conj().T) ** 2
dA = iterate(A, np.zeros((2, 2)), spec)
dB = iterate(B, np.zeros((2, 2)), spec)
after = np.linalg.norm(dA @ dB.conj().T + dB @ dA.conj().T) ** 2
print(f"delta before doubling: {before:.3e}")
print(f"delta after doubling:  {after:.3e}")
print()

# The registry's hand-built 32-coefficient code (not made by iterate; its
# generator has rank 16): its graph falls apart into two components of
# sixteen coefficients each.
code = build("iterated")
prof = classify(code)
hr = hurwitz_radon(code)
print(f"iterated code: k={code.k}, family={prof.family}")
print(f"group sizes: {tuple(len(g) for g in prof.groups)}")
print(f"complexity order k' = {prof.k_prime} (a 50% cut in the exponent)")
