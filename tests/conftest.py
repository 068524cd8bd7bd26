"""Shared pytest setup.

Hypothesis runs derandomized, without a deadline and without its example
database, so every run of the suite draws the same examples and a slow
moment on a shared machine cannot fail a property test.
"""

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves without hypothesis
    pass
else:
    settings.register_profile("tier1", derandomize=True, deadline=None, database=None)
    settings.load_profile("tier1")
