"""Settings every test module shares."""

from hypothesis import settings

# Every run draws the same examples and keeps no example database, so a local
# run and CI test the same inputs and no run writes a file; no example has a
# deadline, since one march takes milliseconds to a second.
settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")
