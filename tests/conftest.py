"""Hypothesis draws the same examples on every run: the profile seeds each
test's generator from the test itself, so two runs of the suite test the
same inputs. Each test's own max_examples and deadline still apply."""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")
