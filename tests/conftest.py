"""Hypothesis profiles and collector checks for the test suite.

Local runs use Hypothesis's default profile. CI also runs the lexer
properties, the arbitrary-text property, the parsed-text round trip and the
print/parse inverse of test_vdm_frontend.py, which take three times the
profile's max_examples and are marked lexer_deep, under
`--hypothesis-profile lexer-deep -m lexer_deep`: 1,500 examples each, five
times their local budget.

Every test must leave the cyclic collector on and no object frozen, as a
command of vdmuml.cli must leave them for its caller.
"""

import gc

import pytest
from hypothesis import settings

settings.register_profile("lexer-deep", max_examples=500)


@pytest.fixture(autouse=True)
def collector_left_as_found():
    yield
    left = (gc.isenabled(), gc.get_freeze_count())
    gc.enable()
    gc.unfreeze()
    assert left == (True, 0), "the test left the collector off or objects frozen"
