"""Hypothesis settings shared by every property test.

``derandomize`` draws the same examples on every run, so a tier-1 failure
reproduces on the next run; ``deadline=None`` keeps timing out of the
verdict.
"""

from hypothesis import settings

settings.register_profile("convlimit", derandomize=True, deadline=None)
settings.load_profile("convlimit")
