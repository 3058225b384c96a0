"""Suite-wide settings.

Property tests run a fixed, derandomized set of examples with no deadline,
so equal checkouts run equal examples and a loaded machine cannot make a
test flaky.
"""

from hypothesis import settings

settings.register_profile("stlattice", derandomize=True, deadline=None, max_examples=200)
settings.load_profile("stlattice")
