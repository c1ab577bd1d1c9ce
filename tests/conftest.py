"""Test-suite settings.

Hypothesis runs without its example database: a counterexample that an
earlier run saved in a working copy's ``.hypothesis/`` would otherwise be
replayed first and could make the suite's result depend on that copy.
Counterexamples worth keeping go into the tests as ``@example``.
"""

from hypothesis import settings

settings.register_profile("udwpair", database=None)
settings.load_profile("udwpair")
