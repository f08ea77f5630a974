"""Hypothesis profiles for the test suite.

``mutants`` draws examples as the default profile does but never shrinks
a failing one: ``tests/mutants.py`` only asks whether a test fails, so a
smaller counterexample is time spent for nothing.  The suite itself runs
under the default profile; ``--hypothesis-profile=mutants`` selects this
one.
"""
from __future__ import annotations

from hypothesis import Phase, settings

MUTANTS_PROFILE = "mutants"

settings.register_profile(
    MUTANTS_PROFILE, phases=(Phase.explicit, Phase.reuse, Phase.generate))
