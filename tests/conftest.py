"""Hypothesis profiles for the test suite.

Local runs use Hypothesis's default profile. CI also runs the lexer
properties, the arbitrary-text property and the parsed-text round trip of
test_vdm_frontend.py, which take three times the profile's max_examples, under
`--hypothesis-profile lexer-deep`: 1,500 examples each, five times their
local budget.
"""

from hypothesis import settings

settings.register_profile("lexer-deep", max_examples=500)
