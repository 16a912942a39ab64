"""Hypothesis profiles for the property tests.

``default`` keeps the suite quick; a deeper run takes
``pytest --hypothesis-profile=deep tests/test_properties.py``.  That
includes the public-API fuzz,
``test_every_number_the_api_takes_gets_an_answer_or_a_named_error``: every
profile tries each hostile edge value in each numeric parameter, and
``deep`` adds 20,000 random ``(parameter, value)`` draws to the default's
200, about 45 s on a 2-core machine.
"""

from hypothesis import settings

settings.register_profile("default", max_examples=200, deadline=None)
settings.register_profile("deep", max_examples=20_000, deadline=None)
settings.load_profile("default")
