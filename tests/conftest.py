"""Settings for every test run: each failing Hypothesis example prints the @reproduce_failure line that replays it."""

from hypothesis import settings

settings.register_profile("ffqd", print_blob=True)
settings.load_profile("ffqd")
