"""Hypothesis profiles: `ci` replays the same examples on every run, so a
property-test failure in CI can be reproduced; select it with
HYPOTHESIS_PROFILE=ci. Local runs keep the random default."""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
