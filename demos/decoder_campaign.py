"""Run a small error-rate campaign and check the sphere decoder
against brute force.

The sphere decoder is exact: on every trial it returns the same
coefficients as exhaustive enumeration, while visiting far fewer
candidates on codes whose layers separate.  A campaign sweeps an SNR
grid with noise calibrated to the measured signal power and emits a
CSV that reproduces byte for byte under the same seed.
"""

import numpy as np

from stlattice import (
    build,
    classify,
    default_config,
    draw_channel,
    ml_exhaustive,
    pam,
    run_campaign,
    sphere_decode,
)

basis = build("alamouti")
alphabet = pam(4)
# The campaign's config (n_r = 1) also draws the agreement trials' channels.
cfg = default_config(basis, snr_db_grid=(0.0, 8.0, 16.0), trials=300, seed=42)

# Decoder agreement on a handful of noisy trials.
order = classify(basis).ordering
values = np.array(alphabet.values, dtype=float)
agree = 0
nodes_sphere = 0
nodes_ml = 0
trials = 200
for t in range(trials):
    rng = np.random.default_rng([5, t])
    H = draw_channel(cfg, rng)
    s = rng.choice(values, size=basis.k)
    X = basis.combination(s)
    noise = rng.normal(size=(1, basis.T)) + 1j * rng.normal(size=(1, basis.T))
    Y = H @ X + 0.7 * noise / np.sqrt(2.0)
    ml = ml_exhaustive(Y, H, basis, alphabet)
    sp = sphere_decode(Y, H, basis, alphabet, ordering=order)
    agree += sp.coeffs == ml.coeffs
    nodes_sphere += sp.nodes_visited
    nodes_ml += ml.nodes_visited
print(f"agreement over {trials} trials: {agree}/{trials}")
print(f"candidates visited: sphere {nodes_sphere}, exhaustive {nodes_ml}")
print(f"sphere work fraction: {nodes_sphere / nodes_ml:.3f}")
print()

# A reproducible campaign over three SNR points.
campaign = run_campaign(basis, alphabet, cfg)
print(campaign.to_csv())

again = run_campaign(basis, alphabet, cfg)
print("same seed reproduces the CSV:", campaign.to_csv() == again.to_csv())
