"""Hypothesis profiles for the property tests.

``default`` keeps the suite quick; a deeper run takes
``pytest --hypothesis-profile=deep tests/test_properties.py``.
"""

from hypothesis import settings

settings.register_profile("default", max_examples=200, deadline=None)
settings.register_profile("deep", max_examples=20_000, deadline=None)
settings.load_profile("default")
