"""Suite-wide settings.

Property tests run derandomized, like the rest of the suite's seeded
tests, and keep no example database on disk.
"""

from hypothesis import settings

settings.register_profile("psml", derandomize=True, database=None, deadline=None)
settings.load_profile("psml")
