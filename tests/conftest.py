"""Shared test settings.

Property tests run with a fixed example sequence and no per-example time
limit, so a slow or busy machine cannot turn a passing run into a failure
and every run checks the same examples.
"""

from hypothesis import settings

settings.register_profile("hcmlink", deadline=None, derandomize=True)
settings.load_profile("hcmlink")
