"""VDM parser and printer behaviour, including the print/parse inverse."""

import functools
import gc
import random
import re
import string
import tempfile
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from generators import gen_vdm_model, type_trees
from vdmuml import vdm_frontend
from vdmuml.cli import EXIT_OK, EXIT_TRANSLATION, cmd_check, cmd_uml2vdm
from vdmuml.errors import Diagnostic, ParseError, ParseFailure
from vdmuml.model import (
    MAX_TYPE_DEPTH,
    Access,
    BasicType,
    CallableDef,
    Config,
    InstanceVariable,
    MapType,
    NamedType,
    OptionalType,
    ProductType,
    Seq1Type,
    SeqType,
    Set1Type,
    SetType,
    TypeDef,
    UnionType,
    ValueDef,
    VdmClass,
    VdmModel,
    type_children,
    validate_model,
)
from vdmuml.puml_frontend import parse_puml, print_puml
from vdmuml.transform import canonicalize_model, lossy_members, uml_to_vdm, vdm_to_uml
from vdmuml.vdm_frontend import (
    _BLOCK_COMMENT,
    _BLOCK_KEYWORDS,
    _BLOCKS,
    _LINE_COMMENT,
    _RUN_CHUNK,
    _STRING,
    _TOKEN_RE,
    _Scanner,
    _terminate,
    parse_vdm,
    parse_vdm_type,
    print_vdm,
    render_param_types,
    render_type,
)

NAT = BasicType("nat")
# The budget of the lexer properties, of the arbitrary-text property, which
# drives error recovery, and of the two round trips through the printer:
# 300 examples under the default profile, and more under a profile that
# raises max_examples (see conftest.py).
_LEXER_EXAMPLES = 3 * settings.default.max_examples
TEXT_DEPTH = 2 * MAX_TYPE_DEPTH  # the most constructors and brackets the parser reads


# ---------------------------------------------------------------------------
# parse_vdm


def test_parse_instance_variable():
    model = parse_vdm("class A\ninstance variables\nvar1 : seq of char;\nend A")
    cls = model.classes[0]
    iv = cls.instance_variables[0]
    assert iv == InstanceVariable(Access.PRIVATE, False, "var1", SeqType(BasicType("char")))


def test_parse_empty_class():
    model = parse_vdm("class A end A")
    assert model.classes[0] == VdmClass("A")


def test_parse_subclass_header():
    model = parse_vdm("class B is subclass of A\nend B")
    assert model.classes[0].superclasses == ("A",)
    multi = parse_vdm("class C is subclass of A, B\nend C")
    assert multi.classes[0].superclasses == ("A", "B")


def test_parse_operation_with_body():
    model = parse_vdm(
        "class A\noperations\npublic op1 : nat ==> bool\nop1(x) == ( return true );\nend A"
    )
    op = model.classes[0].operations[0]
    assert op == CallableDef(Access.PUBLIC, False, "op1", (NAT,), BasicType("bool"), "( return true )", ("x",))
    assert "\nop1(x) == ( return true );\n" in print_vdm(model)[0][1]


def test_parse_function_uses_total_arrow():
    cls = parse_vdm("class A\nfunctions\nf : nat -> nat\nf(x) == x;\nend A").classes[0]
    assert cls.operations == () and [fn.name for fn in cls.functions] == ["f"]
    assert cls.functions[0].body_text == "x"
    # the defining block decides the member kind, so '==>' is tolerated
    tolerated = parse_vdm("class A\nfunctions\nf : nat ==> nat\nf(x) == x;\nend A").classes[0]
    assert tolerated.operations == () and [fn.name for fn in tolerated.functions] == ["f"]


def test_parse_values_and_types():
    model = parse_vdm(
        "class A\nvalues\npublic v : real = 1.5;\ntypes\npublic T = nat * nat;\nend A"
    )
    cls = model.classes[0]
    assert cls.values[0] == ValueDef(Access.PUBLIC, "v", BasicType("real"), "1.5")
    assert cls.type_defs[0] == TypeDef(Access.PUBLIC, "T", ProductType((NAT, NAT)))


def test_parse_static_and_access_in_both_orders():
    model = parse_vdm(
        "class A\ninstance variables\nstatic public x : nat := 0;\nprivate static y : nat;\nend A"
    )
    x, y = model.classes[0].instance_variables
    assert (x.access, x.is_static, x.init_text) == (Access.PUBLIC, True, "0")
    assert (y.access, y.is_static) == (Access.PRIVATE, True)


def test_parse_static_value_is_rejected():
    with pytest.raises(ParseFailure) as exc:
        parse_vdm("class A\nvalues\nstatic v : nat = 1;\nend A")
    assert "static" in str(exc.value)


def test_parse_pre_post_kept_in_body():
    model = parse_vdm(
        "class A\noperations\nop : nat ==> nat\nop(x) == x + 1\npre x > 0\npost true;\nend A"
    )
    body = model.classes[0].operations[0].body_text
    assert body.startswith("x + 1") and "pre x > 0" in body and "post true" in body


def test_parse_body_with_nested_semicolons():
    model = parse_vdm(
        'class A\noperations\nop : () ==> nat\nop() == ( x := 1; return "a;b" );\nend A'
    )
    op = model.classes[0].operations[0]
    assert op.param_types == ()
    assert op.body_text == '( x := 1; return "a;b" )'


def test_parse_skeleton_body_means_absent():
    model = parse_vdm("class A\nvalues\nv : nat = undefined;\noperations\nop : nat * nat ==> nat\n"
                      "op(p1, p2) == is not yet specified;\nend A")
    (v,), (op,) = model.classes[0].values, model.classes[0].operations
    assert (v.expr_text, op.body_text, op.param_names) == (None, None, None)
    assert print_vdm(model)[0][1] == ("class A\nvalues\nprivate v : nat = undefined;\noperations\n"
                                      "private op : nat * nat ==> nat\nop(p1, p2) == is not yet specified;\nend A\n")


def test_parse_comments_are_skipped():
    model = parse_vdm(
        "-- heading\nclass A /* inline */\ninstance variables\nx : nat; -- trailing\nend A"
    )
    assert model.classes[0].instance_variables[0].name == "x"


def test_parse_reports_multiple_errors_with_spans():
    source = "class A\ninstance variables\nx : ;\ny := nat;\noperations\nop : nat\nend A"
    with pytest.raises(ParseFailure) as exc:
        parse_vdm(source, origin="bad.vdmpp")
    errors = exc.value.errors
    assert len(errors) >= 2
    assert all(e.span.file == "bad.vdmpp" for e in errors)
    assert all(e.span.line >= 1 and e.span.column >= 1 for e in errors)
    assert errors[0].span.line == 3


def test_expected_token_is_printed_once():
    with pytest.raises(ParseFailure) as exc:
        parse_vdm("class A\ninstance variables\nx nat;\nend A\nA\n"
                  "class B\nfunctions\nf : nat +> nat\nf(n) == n;\nend B\n", origin="dbl.vdmpp")
    assert str(exc.value) == ("dbl.vdmpp:3:3: error: expected ':'\n"
                              "dbl.vdmpp:5:1: error: expected 'class'\n"
                              "dbl.vdmpp:8:9: error: expected '->'")


def test_parse_unsupported_blocks_are_named():
    with pytest.raises(ParseFailure) as exc:
        parse_vdm("class A\nthread\nperiodic(10, 0, 0, 0)(step);\nend A")
    assert "unsupported construct 'thread'" in str(exc.value)
    with pytest.raises(ParseFailure) as exc:
        parse_vdm("class A\ninstance variables\nx : nat;\ninv x > 0;\nend A")
    assert "unsupported construct 'inv'" in str(exc.value)


def test_parse_end_name_must_match():
    with pytest.raises(ParseFailure) as exc:
        parse_vdm("class A\nend B")
    assert "does not match" in str(exc.value)


def test_parse_unterminated_comment_is_reported_once():
    with pytest.raises(ParseFailure) as exc:
        parse_vdm("class A\nvalues\nv : nat = /* never closed")
    messages = [e.message for e in exc.value.errors]
    assert messages.count("unterminated comment") == 1
    with pytest.raises(ParseError):
        parse_vdm_type("nat /* dangling")


def test_block_keywords_are_the_block_table_keys():
    # raw capture stops at the block keywords, which it needs before the
    # table of block parsers and printers exists
    assert _BLOCK_KEYWORDS == tuple(_BLOCKS)


def test_parse_void_return_rejected():
    with pytest.raises(ParseFailure) as exc:
        parse_vdm("class A\noperations\nop : nat ==> ()\nop(x) == skip;\nend A")
    assert "void return" in str(exc.value)


def test_parse_parameter_count_must_match_signature():
    with pytest.raises(ParseFailure) as exc:
        parse_vdm("class A\noperations\nop : nat * nat ==> nat\nop(x, y, z) == x;\nend A")
    assert "parameter" in str(exc.value)


def test_single_product_parameter_keeps_whole_domain():
    model = parse_vdm("class A\noperations\nop : nat * nat ==> nat\nop(p) == p;\nend A")
    assert model.classes[0].operations[0].param_types == (ProductType((NAT, NAT)),)


def test_non_ascii_letters_in_raw_text_are_kept_verbatim():
    model = parse_vdm("class A\nfunctions\nf : () -> nat\nf() == return é + 1;\nend A")
    assert model.classes[0].functions[0].body_text == "return é + 1"


@pytest.mark.parametrize(
    "source,errors",
    [
        # an unterminated comment is trivia in a signature, raw text in a body
        ("class A\noperations\nop : nat /* open ==> nat\nop(x) == x;\nend A\n",
         [(6, 1, "expected '==>'"), (6, 1, "missing 'end A'"), (3, 10, "unterminated comment")]),
        ("class A\noperations\nop : nat ==> nat\nop(x) == x /* open;\nend A\n",
         [(6, 1, "missing 'end A'"), (4, 12, "unterminated comment")]),
        ("class A\nvalues\nv : nat = 1 );\nend A\n",
         [(3, 13, "expected a value name")]),
        # no literal or word starts right after a quote, so this 'end' is raw text
        ("class A\nvalues\nv : char = 'x'end A\n", [(4, 1, "missing 'end A'")]),
        ("class A\nfunctions\nf : nat --> nat\nf(x) == x;\nend A\n", [(4, 1, "expected '->'")]),
        ("class A\nend A\nstray text;\nclass B\nend B\n", [(3, 1, "expected 'class'")]),
        ("class A\nend A x\nclass B\nend B\n", [(2, 7, "expected 'class'")]),
        # an unterminated string runs to the end of the text, not past it
        ('class A\noperations\nop : nat ==> nat\nop(x) == "open\nend A\n',
         [(6, 1, "missing 'end A'")]),
        ('class A\nvalues\nv : seq of char = "a\\\nend A\n', [(5, 1, "missing 'end A'")]),
        # error recovery skips non-ASCII letters as opaque text
        ("class A\nvalues\nv : é = 1;\nw : nat = 2;\nend A\n", [(3, 5, "expected a type")]),
        ("class é\nend A\nclass B\nend B\n", [(1, 7, "expected a class name")]),
        # errors placed after the cursor has moved past the tokens they name
        ("class A\nend B\nclass C\nend C\n", [(2, 6, "'end B' does not match class 'A'")]),
        ("class A\noperations\nop : nat ==> ( )\nop(x) == skip;\nend A\n",
         [(3, 14, "void return types are not supported")]),
        ("class A\noperations\nop : nat ==> nat\nopp end A\n",
         [(4, 1, "definition name 'opp' does not match 'op'")]),
        ("class A\noperations\nop : nat * nat ==> nat\nop(x, y, z) == x;\nend A\n",
         [(4, 1, "signature lists 2 parameter type(s) but the definition has 3")]),
        # a type cut off by a boundary keyword leaves it to end the block
        ("class A\ntypes\nT = set of end A\n", [(3, 12, "unexpected keyword 'end' in type")]),
        ("class A\ntypes\nT = set of values\nv : nat = ;\nend A\n",
         [(3, 12, "unexpected keyword 'values' in type"), (4, 12, "missing value expression after '='")]),
        # a definition whose raw text was captured ends where the capture
        # stopped, so the next definition or keyword is read as written
        ("class A\nvalues\nv : nat = \nend A\n", [(4, 1, "missing value expression after '='")]),
        ("class A\ninstance variables\nx : nat := ;\ny : set nat;\nend A\n",
         [(3, 13, "missing initialiser expression after ':='"), (4, 9, "expected 'of'")]),
        ("class A\noperations\nop : nat ==> nat\nop(x) == \nend A\n", [(5, 1, "missing body for 'op'")]),
        ("class A\nfunctions\nf : nat * nat -> nat\nf(a, b, c) == 1;\ng : set nat -> nat\ng(x) == 1;\nend A\n",
         [(4, 1, "signature lists 2 parameter type(s) but the definition has 3"), (5, 9, "expected 'of'")]),
        # but a stray closer that stopped the capture is skipped with the definition
        ("class A\nvalues\nv : nat = );\nw : nat = 2;\nend A\n",
         [(3, 11, "missing value expression after '='")]),
        # refusals no other row reaches
        ("class A\ninstance variables\nstatic static x : nat;\nend A\n", [(3, 8, "duplicate 'static'")]),
        ("class A\ntypes\nT = nat inv t == t > 0;\nend A\n", [(3, 9, "unsupported construct 'inv'")]),
        ("class A\noperations\nop : () ==> nat\nop(x) == 1;\nend A\n",
         [(4, 1, "signature has no parameter types but the definition lists parameters")]),
        # pure is refused where it qualifies an operation, and read as a name before ':'
        ("class A\noperations\npublic pure get : () ==> nat\nget() == 1;\nend A\n",
         [(3, 8, "unsupported construct 'pure'")]),
        ("class A\noperations\npublic pure : () ==> nat\npurer() == 1;\nend A\n",
         [(4, 1, "definition name 'purer' does not match 'pure'")]),
    ],
    ids=["comment-in-signature", "comment-in-body", "stray-closer", "quote-then-end", "arrow-comment",
         "text-after-end", "word-after-end", "string-to-eof", "escape-at-eof", "non-ascii-type",
         "non-ascii-name", "end-name", "void-return", "definition-name", "parameter-count",
         "keyword-in-type", "block-keyword-in-type", "missing-value", "missing-initialiser", "missing-body",
         "mismatch-then-bad-definition", "closer-after-missing-value", "static-twice", "inv-after-type",
         "parameters-without-types", "pure-operation", "member-named-pure"],
)
def test_parse_error_spans(source, errors):
    with pytest.raises(ParseFailure) as exc:
        parse_vdm(source)
    assert [(e.span.line, e.span.column, e.message) for e in exc.value.errors] == errors


# ---------------------------------------------------------------------------
# parse_vdm_type


@pytest.mark.parametrize(
    "text,expected",
    [
        ("nat", NAT),
        ("[B]", OptionalType(NamedType("B"))),
        ("inmap Type to seq of B", MapType(NamedType("Type"), SeqType(NamedType("B")), True)),
        ("A * B * nat", ProductType((NamedType("A"), NamedType("B"), NAT))),
        ("set1 of C", Set1Type(NamedType("C"))),
        ("seq1 of C", Seq1Type(NamedType("C"))),
        ("nat | bool", UnionType((NAT, BasicType("bool")))),
        ("set of A * B", ProductType((SetType(NamedType("A")), NamedType("B")))),
        ("map A to B * C", MapType(NamedType("A"), ProductType((NamedType("B"), NamedType("C"))))),
        ("(A * B) * C", ProductType((ProductType((NamedType("A"), NamedType("B"))), NamedType("C")))),
        ("map map A to B to C", MapType(MapType(NamedType("A"), NamedType("B")), NamedType("C"))),
        ("nat --> nat", NAT),
    ],
)
def test_parse_type_table(text, expected):
    assert parse_vdm_type(text) == expected


@pytest.mark.parametrize("bad", ["", "set of", "A |", "[A", "(A", "A * ", "map A to", "of A", "A B"])
def test_parse_type_errors(bad):
    with pytest.raises(ParseError):
        parse_vdm_type(bad)


@pytest.mark.parametrize(
    "text,span,message",
    [
        ("nat /* open", (1, 5), "unterminated comment"),
        ("nat é", (1, 5), "unexpected text after type"),
    ],
)
def test_parse_type_error_spans(text, span, message):
    with pytest.raises(ParseError) as exc:
        parse_vdm_type(text)
    assert ((exc.value.span.line, exc.value.span.column), exc.value.message) == (span, message)


def test_parse_type_depth_limit():
    assert parse_vdm_type("(" * TEXT_DEPTH + "nat" + ")" * TEXT_DEPTH) == NAT
    assert render_type(parse_vdm_type("set of " * TEXT_DEPTH + "nat")).count("set of") == TEXT_DEPTH
    for text, column in [
        ("(" * 3000 + "nat" + ")" * 3000, TEXT_DEPTH + 2),
        ("(" * (TEXT_DEPTH + 1) + "nat" + ")" * (TEXT_DEPTH + 1), TEXT_DEPTH + 2),
        ("set of " * 3000 + "nat", 7 * (TEXT_DEPTH + 1) + 1),
        ("map " * 3000 + "nat to nat" * 3000, 4 * (TEXT_DEPTH + 1) + 1),
    ]:
        with pytest.raises(ParseError) as exc:
            parse_vdm_type(text)
        assert (exc.value.span.line, exc.value.span.column) == (1, column)
        assert exc.value.message == "type nested too deeply"


@pytest.mark.parametrize("parse,text", [
    (parse_vdm_type, "set of " * (TEXT_DEPTH + 1) + "nat"),
    (parse_vdm_type, "nat /* x"),
    # an error kept in the list with its traceback keeps the frame that holds the list
    (parse_vdm, "class A\ninstance variables\nx : ;\nend A"),
], ids=["too-deep", "unclosed-comment", "recovered-error"])
def test_type_refusal_leaves_no_reference_cycle(parse, text):
    # An error that reaches itself through its traceback is freed only by
    # a full collection; a diagram with thousands of refusals pays for each.
    gc.collect()
    gc.disable()
    try:
        try:
            parse(text)
        except (ParseError, ParseFailure):
            pass
        else:
            pytest.fail("the text was accepted")
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("deep,column", [
    ("set of " * 3000 + "nat", 5 + 7 * (TEXT_DEPTH + 1)),
    # recovery skips the whole type, so its closing brackets are not stray
    ("(" * 3000 + "nat" + ")" * 3000, 5 + TEXT_DEPTH + 1),
    # the limit is met where a token run ends, at a character no token starts
    ("set of " * (TEXT_DEPTH + 1) + "é", 5 + 7 * (TEXT_DEPTH + 1)),
])
def test_deep_type_in_class_is_one_positioned_error(deep, column):
    source = f"class A\ninstance variables\nx : {deep};\ny : nat;\nend A\n"
    with pytest.raises(ParseFailure) as exc:
        parse_vdm(source)
    assert [(e.span.line, e.span.column, e.message) for e in exc.value.errors] == [
        (3, column, "type nested too deeply"),
    ]


# ---------------------------------------------------------------------------
# print_vdm


def test_print_association_variable():
    model = VdmModel((VdmClass("A", instance_variables=(
        InstanceVariable(Access.PRIVATE, False, "assoc1", NamedType("B")),)),))
    # B unresolved is a printing concern only for validate; print directly
    name, text = print_vdm(model)[0]
    assert name == "A"
    assert text == "class A\ninstance variables\nprivate assoc1 : B;\nend A\n"


def test_print_empty_class():
    assert print_vdm(VdmModel((VdmClass("A"),)))[0][1] == "class A\nend A\n"


def test_print_function_skeleton():
    model = VdmModel((VdmClass("A", functions=(
        CallableDef(Access.PRIVATE, False, "func1", (NAT,), NAT),)),))
    text = print_vdm(model)[0][1]
    assert "private func1 : nat -> nat" in text
    assert "func1(p1) == is not yet specified;" in text
    reparsed = parse_vdm(text)
    assert reparsed.classes[0] == model.classes[0]


def test_print_block_order_is_canonical():
    model = VdmModel((VdmClass(
        "A",
        instance_variables=(InstanceVariable(Access.PRIVATE, False, "x", NAT),),
        values=(ValueDef(Access.PUBLIC, "v", NAT, "1"),),
        type_defs=(TypeDef(Access.PRIVATE, "T", NAT),),
        operations=(CallableDef(Access.PRIVATE, True, "op", (), NAT),),
        functions=(CallableDef(Access.PROTECTED, False, "f", (NAT,), NAT),),
    ),))
    text = print_vdm(model)[0][1]
    blocks = [line for line in text.splitlines()
              if line in ("values", "types", "instance variables", "operations", "functions")]
    assert blocks == ["values", "types", "instance variables", "operations", "functions"]
    assert "private static op : () ==> nat" in text
    assert "op() == is not yet specified;" in text


def test_print_is_deterministic():
    model = parse_vdm("class A\nvalues\nv : nat = 1;\nend A")
    assert print_vdm(model) == print_vdm(model)


def test_body_ending_in_comment_roundtrips():
    model = VdmModel((VdmClass("A", operations=(
        CallableDef(Access.PRIVATE, False, "op", (NAT,), NAT, "p1 -- unit note"),)),))
    text = print_vdm(model)[0][1]
    assert parse_vdm(text) == model


@pytest.mark.parametrize("raw,terminated", [
    ("x := 1", "x := 1;"),
    ("is not yet specified", "is not yet specified;"),
    ('return "a--b"', 'return "a--b";'),
    ("p1 -- c", "p1 -- c\n;"),
    ("p1 /* -- */", "p1 /* -- */;"),
    ("a - -b", "a - -b;"),
    ("-- c\nx", "-- c\nx;"),
])
def test_terminate_puts_semicolon_outside_comments(raw, terminated):
    assert _terminate(raw) == terminated


@pytest.mark.parametrize("body", ["return '\"' -- note", "'-' ^ \"'\" -- note", "p1 /* -- */"])
def test_body_with_quotes_and_comments_roundtrips(body):
    # the printer must read literals and comments as the parser does, or the
    # terminator lands inside a comment and the next member is swallowed
    model = VdmModel((VdmClass("A", operations=(
        CallableDef(Access.PRIVATE, False, "op", (NAT,), NAT, body),
        CallableDef(Access.PRIVATE, False, "next", (NAT,), NAT, "p1"),
    )),))
    text = print_vdm(model)[0][1]
    assert parse_vdm(text) == model


# ---------------------------------------------------------------------------
# print/parse inverse on generated models



@given(type_trees)
@settings(max_examples=300)
def test_type_render_parse_inverse(t):
    assert parse_vdm_type(render_type(t)) == t


@pytest.mark.parametrize("value", ["nat", None, VdmClass("A"), SetType("nat")],
                         ids=["text", "none", "class", "text-in-a-set"])
def test_render_type_refuses_what_is_not_a_type(value):
    with pytest.raises(TypeError, match="not a VDM type"):
        render_type(value)


def _depth(t) -> int:
    """Most compound types on a path down t (a reference for validate_model)."""
    return 1 + max(map(_depth, type_children(t))) if type_children(t) else 0


_B = NamedType("B")
# Each wraps a type in one constructor, with B beside it where the constructor takes more.
_WRAPS = [SetType, Set1Type, SeqType, Seq1Type, OptionalType,
          lambda t: MapType(t, _B), lambda t: MapType(_B, t, injective=True),
          lambda t: ProductType((_B, t)), lambda t: UnionType((t, _B))]
# Where a member holds a type: a variable, a value, a type definition, a
# parameter, a return type, and the map uml_to_vdm builds around a qualifier.
_PLACES = {
    "variable": lambda t: {"instance_variables": (InstanceVariable(Access.PRIVATE, False, "x", t),)},
    "value": lambda t: {"values": (ValueDef(Access.PUBLIC, "x", t),)},
    "type": lambda t: {"type_defs": (TypeDef(Access.PUBLIC, "x", t),)},
    "parameter": lambda t: {"operations": (CallableDef(Access.PUBLIC, False, "x", (NAT, t), NAT),)},
    "return": lambda t: {"functions": (CallableDef(Access.PRIVATE, True, "x", (), t),)},
    "qualifier": lambda t: {"instance_variables": (
        InstanceVariable(Access.PRIVATE, False, "x", MapType(t, _B)),)},
}
deep_type_trees = st.builds(
    lambda core, wraps: functools.reduce(lambda t, wrap: wrap(t), wraps, core),
    type_trees,
    st.lists(st.sampled_from(_WRAPS), min_size=MAX_TYPE_DEPTH - 4, max_size=MAX_TYPE_DEPTH + 1),
)


def _with_frames_below(n: int, f):
    """f(), called with n more frames on the stack."""
    return f() if n == 0 else _with_frames_below(n - 1, f)


def test_deepest_valid_model_prints_and_parses_back_deep_in_the_stack():
    # a map in a map's domain prints in parentheses: two text levels and six
    # parser frames for each type, the most any constructor takes
    maps = NamedType("A")
    for _ in range(MAX_TYPE_DEPTH):
        maps = MapType(maps, NamedType("A"))
    mixed = NAT
    for wrap in (_WRAPS * MAX_TYPE_DEPTH)[:MAX_TYPE_DEPTH]:
        mixed = wrap(mixed)
    model = VdmModel((VdmClass("A", type_defs=(TypeDef(Access.PUBLIC, "T", maps),), functions=(
        CallableDef(Access.PUBLIC, False, "f", (maps, mixed), maps),)), VdmClass("B")))
    assert validate_model(model) == []
    text = "".join(text for _, text in print_vdm(model))
    with pytest.raises(ParseError, match="type nested too deeply"):  # the parameter is at the limit
        parse_vdm_type("[" + render_param_types((maps,)) + "]")
    assert _with_frames_below(200, lambda: parse_vdm(text)) == model
    assert _with_frames_below(200, lambda: print_vdm(model)) == print_vdm(model)


@given(deep_type_trees, st.sampled_from(sorted(_PLACES)))
@settings(max_examples=300)
def test_validate_model_accepts_exactly_what_prints_and_parses_back(t, place):
    model = VdmModel((VdmClass("A", **_PLACES[place](t)), VdmClass("B")))
    depth = _depth(t) + (place == "qualifier")
    if depth > MAX_TYPE_DEPTH:
        assert validate_model(model) == [Diagnostic("A.x", "type nested too deeply")]
    else:
        assert validate_model(model) == []
        assert parse_vdm("".join(text for _, text in print_vdm(model))) == model


@given(st.lists(type_trees, max_size=3).map(tuple))
def test_param_rendering_splits_back(params):
    text = render_param_types(params)
    placeholder = ", ".join(f"p{i+1}" for i in range(len(params)))
    src = f"class A\noperations\nop : {text} ==> nat\nop({placeholder}) == skip;\nend A"
    model = parse_vdm(src)
    assert model.classes[0].operations[0].param_types == params


_idents = st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=6).filter(
    lambda s: s not in {"set", "seq", "map", "to", "of", "is", "end", "nat", "int",
                        "bool", "rat", "real", "char", "token", "inv", "pre", "post",
                        "nat1", "set1", "seq1", "inmap", "class", "types", "values",
                        "static", "public", "private", "protected", "thread", "sync",
                        "traces", "operations", "functions", "instance", "variables",
                        "subclass"}
)


# Raw text as parse_vdm captures it, none of it a skeleton: a bracketed ';',
# a string, keywords that end no capture and a trailing comment.
_raw_texts = st.none() | st.sampled_from(
    ["1 + 2", "{}", '"a;b"', "( x := 1; return x )", "is subclass responsibility", "x -- note"])


@st.composite
def _members(draw, name: str):
    """(VdmClass field, member) for one member of any kind but a type
    definition, with or without its source text and parameter names."""
    kind = draw(st.sampled_from(["instance_variables", "values", "operations", "functions"]))
    if kind == "instance_variables":
        return kind, InstanceVariable(Access.PRIVATE, draw(st.booleans()), name, draw(type_trees), draw(_raw_texts))
    if kind == "values":
        return kind, ValueDef(Access.PUBLIC, name, draw(type_trees), draw(_raw_texts))
    params = tuple(draw(st.lists(type_trees, max_size=3)))
    names = None  # p1 ... pn, and the one form of no parameters' names
    if params and draw(st.booleans()):
        names = tuple(draw(st.lists(_idents, min_size=len(params), max_size=len(params))))
    return kind, CallableDef(Access.PROTECTED, draw(st.booleans()), name, params, draw(type_trees),
                             draw(_raw_texts), names)


@pytest.mark.lexer_deep
@given(st.lists(_idents, max_size=4, unique=True).flatmap(lambda names: st.tuples(*map(_members, names))))
@settings(max_examples=_LEXER_EXAMPLES, deadline=None)
def test_class_print_parse_inverse(members):
    fields = {}
    for field, member in members:
        fields.setdefault(field, []).append(member)
    model = VdmModel((VdmClass("A", **{field: tuple(m) for field, m in fields.items()}),))
    text = print_vdm(model)[0][1]
    assert parse_vdm(text) == model


# ---------------------------------------------------------------------------
# arbitrary text

_PIECES = [
    "class", "end", "A", "x", "x'", "2end", "'c'", "'x'end", "'", '"', "--", "/*", "*/", "-->",
    "(", ")", "[", "]", "{", "}", ";", ":", ",", "*", "|", "=", "==", "==>", "->", ":=",
    "nat", "set of", "map", "to", "is subclass of", "values", "types", "instance variables",
    "operations", "functions", "thread", "inv", "public", "static", "f()", "return", "é", "\\",
    " ", "\t", "\n", "\r\n",
]
# few enough pieces that no nesting nears the interpreter's recursion limit
_texts = st.lists(st.sampled_from(_PIECES), max_size=40).map("".join)


def _inside(text: str, span) -> bool:
    lines = text.split("\n")
    return 1 <= span.line <= len(lines) and 1 <= span.column <= len(lines[span.line - 1]) + 1


@pytest.mark.lexer_deep
@given(st.sampled_from(["", "class A\n"]), _texts)
@settings(max_examples=_LEXER_EXAMPLES)
def test_arbitrary_text_parses_or_fails_with_positions(prefix, text):
    source = prefix + text
    try:
        parse_vdm(source)
    except ParseFailure as failure:
        assert all(_inside(source, e.span) for e in failure.errors)
    try:
        parse_vdm_type(source)
    except ParseError as error:
        assert _inside(source, error.span)


# Printed generator models with pieces put in at word boundaries and lines
# dropped or repeated: far more of these parse and validate than of _texts.
_MUTATION_PIECES = _PIECES + [
    "C1", "C2", "c1", "set1 of", "seq of", "seq1 of", "inmap", "map nat to", "[C2]", "nat *",
    "| bool", "-- c\n", "/* c */", "static", "private", "ex'", "( skip )", "1 + 2;",
]
_mutations = st.lists(st.tuples(st.integers(0, 10 ** 6), st.integers(0, 10 ** 6),
                                st.sampled_from(["drop", "repeat", "insert", "replace"]),
                                st.sampled_from(_MUTATION_PIECES)), max_size=4)


def _mutated_model_text(seed: int, mutations) -> str:
    lines = "".join(text for _, text in print_vdm(gen_vdm_model(random.Random(seed)))).splitlines()
    for line_at, word_at, action, piece in mutations:
        k = line_at % len(lines)
        words = lines[k].split(" ")
        w = word_at % len(words)
        if action == "drop":
            del lines[k]
        elif action == "repeat":
            lines.insert(k, lines[k])
        else:
            words[w:w + (action == "replace")] = [piece]
            lines[k] = " ".join(words)
        if not lines:
            return ""
    return "\n".join(lines) + "\n"


@pytest.mark.lexer_deep
@given(st.one_of(st.tuples(st.sampled_from(["", "class A\n"]), _texts).map("".join),
                 st.builds(_mutated_model_text, st.integers(0, 2 ** 32 - 1), _mutations)),
       st.integers(0, 3), st.integers(0, 3))
@example("class C1\nend C1\nclass c1\nend c1\n", 2, 1)
@example("-- no classes\n", 2, 1)
@example(_mutated_model_text(180135124, []), 0, 0)  # a key that starts with '('
@settings(max_examples=_LEXER_EXAMPLES, deadline=None)
def test_parsed_text_round_trips(source, gamma0, gamma1):
    # Every text that parses and validates: its diagram prints and parses
    # back to itself, a lossless one translates back to the canonical
    # model, and whatever uml2vdm writes for it passes check. uml2vdm
    # refuses a lossy diagram, one without classes and class names equal
    # but for case.
    try:
        model = parse_vdm(source)
    except ParseFailure:
        model = None
    assume(model is not None and not validate_model(model))
    config = Config(gamma0=gamma0, gamma1=gamma1)
    uml = vdm_to_uml(model, config)
    diagram = print_puml(uml, config)
    assert parse_puml(diagram) == uml
    lossless = not lossy_members(uml)
    if lossless:
        assert uml_to_vdm(uml) == canonicalize_model(model)
    with tempfile.TemporaryDirectory() as tmp:
        puml = Path(tmp, "d.puml")
        puml.write_text(diagram, encoding="utf-8")
        written = cmd_uml2vdm(str(puml), str(Path(tmp, "out")))
        writes = lossless and 0 < len({c.name.casefold() for c in model.classes}) == len(model.classes)
        assert written.exit_code == (EXIT_OK if writes else EXIT_TRANSLATION), written.diagnostics
        if writes:
            checked = cmd_check(str(Path(tmp, "out")))
            assert checked.exit_code == EXIT_OK, checked.diagnostics
            assert checked.summary == (f"ok: {len(model.classes)} classes",)


# Reference raw capture: one pattern at every depth, so ';' and boundary
# words inside brackets are matched and ignored rather than skipped.
_REFERENCE_RAW_RE = re.compile(
    rf"{_LINE_COMMENT}|{_BLOCK_COMMENT}|{_STRING}|(?<![\w'])'(?:\\.|[^'\\])'"
    r"|(?P<open>[(\[{])|(?P<close>[)\]}])|(?P<semi>;)"
    r"|(?<![\w'])(?P<boundary>class|end|functions|instance|operations|sync|thread|traces|types|values)"
    r"(?![A-Za-z0-9_'])"
)


def _reference_scan_raw(text: str, start: int):
    """(capture, resume position, first unterminated comment or None) from start."""
    depth, unclosed = 0, None
    stop = resume = len(text)
    for m in _REFERENCE_RAW_RE.finditer(text, start):
        kind = m.lastgroup
        if kind == "open":
            depth += 1
        elif kind == "close" and depth:
            depth -= 1
        elif kind in ("close", "semi", "boundary") and not depth:
            stop = m.start()
            resume = m.end() if kind == "semi" else stop
            break
        elif kind == "unclosed" and unclosed is None:
            unclosed = m.start()
    return text[start:stop].strip(), resume, unclosed


def _check_scan_raw(text: str, start: int):
    """scan_raw from start, both as a definition calls it, at the end of the
    run holding '=', ':=' or '==', and as recovery does, at a lexed token."""
    _, _, after_trivia, _, trivia_unclosed = _reference_lex(text, start)
    capture, resume, unclosed = _reference_scan_raw(text, after_trivia)
    first_unclosed = trivia_unclosed if trivia_unclosed is not None else unclosed
    for lexed in (False, True):
        sc = _Scanner(text, "<t>")
        sc._move_to(start)
        if lexed:
            sc.peek()
        assert sc.scan_raw() == capture
        assert sc.pos == resume
        if first_unclosed is None:
            assert sc.comment_error is None
        else:
            assert sc.comment_error.span == sc.span(first_unclosed)


@pytest.mark.lexer_deep
@given(st.lists(st.sampled_from(_PIECES + [
    "xend", "x'values", "éend", "_end", "(end)", "[values;]", "{;}", '("', "[/*", "{ \"x", "( /*",
]), max_size=40).map("".join))
@settings(max_examples=_LEXER_EXAMPLES)
def test_scan_raw_matches_reference(text):
    for start in range(len(text) + 1):
        _check_scan_raw(text, start)


@pytest.mark.parametrize("text,capture,resume", [
    ("f(x) ) g;", "f(x)", 5),      # a stray closer at depth 0 ends the capture, unconsumed
    ("x'end", "x'end", 5),         # 'end' after a quote is part of a name
    ("x' end", "x'", 3),
    ("'x'end", "'x'end", 6),
    ("(a; end) b; c", "(a; end) b", 11),
])
def test_scan_raw_rows(text, capture, resume):
    assert _reference_scan_raw(text, 0) == (capture, resume, None)
    _check_scan_raw(text, 0)


def _reference_lex(text: str, pos: int):
    """(word, symbol, cursor, token end, unclosed comment start or None),
    read from all three groups of the token pattern."""
    m = _TOKEN_RE.match(text, pos)
    word, symbol = m["word"], m["symbol"]
    token = word or symbol
    unclosed = m.start("unclosed") - 2 if m["unclosed"] is not None else None
    return word, symbol, m.end() - len(token) if token else m.end(), m.end(), unclosed


_TAILS = st.sampled_from(["", "/*", "/* x\n", "--", "-- x", "x'", "é", "\r\n"])


@pytest.mark.lexer_deep
@given(_texts, _TAILS)
@settings(max_examples=_LEXER_EXAMPLES)
def test_lex_matches_reference(text, tail):
    text += tail
    sc = _Scanner(text, "<t>")
    first_unclosed = None
    for start in range(len(text) + 1):
        sc._move_to(start)
        token = sc.peek()
        word, symbol, cursor, token_end, unclosed = _reference_lex(text, start)
        end = token_end if token is None else sc._token(0).end()
        assert (token, sc.pos, end) == (word or symbol, cursor, token_end)
        if first_unclosed is None:
            first_unclosed = unclosed
        if first_unclosed is None:
            assert sc.comment_error is None
        else:
            assert sc.comment_error.span == sc.span(first_unclosed)


@pytest.mark.lexer_deep
@given(_texts.map(lambda text: text * 3), _TAILS)
@settings(max_examples=_LEXER_EXAMPLES)
def test_run_matches_reference(text, tail):
    # A run holds the tokens successive reference steps give, up to the
    # first that ends in '=' or the first step that gives none, lexed at
    # most _RUN_CHUNK tokens at a time.
    text += tail
    for start in range(len(text) + 1):
        sc = _Scanner(text, "<t>")
        sc._move_to(start)
        sc.peek()
        assert len(sc.toks) <= _RUN_CHUNK + 1
        while len(sc.toks) > 1 and not sc.toks[-2].endswith("="):  # a chunk ended: lex on
            sc.i = len(sc.toks) - 1
            if sc.peek() is None:
                break
        steps, pos = [], start
        while True:
            word, symbol, cursor, token_end, unclosed = _reference_lex(text, pos)
            if not (word or symbol):
                break
            steps.append((word or symbol, cursor, token_end))
            pos = token_end
            if steps[-1][0].endswith("="):
                break
        assert sc.toks[-1] is None
        assert [(token, *sc._token(k).span(1)) for k, token in enumerate(sc.toks[:-1])] == steps
        after_raw_symbol = bool(steps) and steps[-1][0].endswith("=")
        assert sc.end == (steps[-1][2] if after_raw_symbol else cursor)  # else after the trivia
        if after_raw_symbol or unclosed is None:
            assert sc.comment_error is None
        else:
            assert sc.comment_error.span == sc.span(unclosed)


def test_run_goes_on_where_a_chunk_ends():
    text = "x " * (_RUN_CHUNK - 1) + "( ) y = z"
    sc = _Scanner(text, "<t>")
    assert sc.peek() == "x" and len(sc.toks) == _RUN_CHUNK + 1
    sc.i = _RUN_CHUNK - 1
    assert (sc.peek(), sc.ahead()) == ("(", ")")  # the look ahead lexes on, indices kept
    assert sc.toks == ["x"] * (_RUN_CHUNK - 1) + ["(", ")", "y", "=", None]
    assert sc._token(_RUN_CHUNK).span(1) == (text.index(")"), text.index(")") + 1)


class _CountingPattern:
    """A compiled pattern that counts the matches its findall and finditer give."""

    def __init__(self, pattern):
        self.pattern, self.matches = pattern, 0

    def findall(self, *args):
        found = self.pattern.findall(*args)
        self.matches += len(found)
        return found

    def finditer(self, *args):
        for m in self.pattern.finditer(*args):
            self.matches += 1
            yield m


@pytest.mark.parametrize("source", [
    "class A " * 2000,  # 'missing end A' at every class, all in one run
    "class A end B " * 1000,  # a wrong end name at every class
    "class A\nvalues\n" + ") " * 2000,  # recovery at every stray closer
], ids=["missing-end", "wrong-end-name", "stray-closers"])
def test_error_dense_text_is_lexed_in_linear_time(source, monkeypatch):
    # Positions are lexed on from the last one found, and recovery drops at
    # most one chunk of lexed tokens, so no token is lexed more than a
    # chunk's worth of times.
    counter = _CountingPattern(vdm_frontend._RUN_TOKENS_RE)
    monkeypatch.setattr(vdm_frontend, "_RUN_TOKENS_RE", counter)
    with pytest.raises(ParseFailure):
        parse_vdm(source)
    assert counter.matches <= (_RUN_CHUNK + 2) * len(source.split())


_bodies = st.lists(
    st.sampled_from(["'\"'", "'c'", "'", '"', "--", "/*", "*/", "(", ")", ";", " ", "\n",
                     "x", "x'", "é", "\\", "note", "end"]),
    min_size=1,
    max_size=10,
).map("".join)


@given(_bodies)
@settings(max_examples=300)
def test_raw_text_print_parse_inverse(body):
    try:
        model = parse_vdm(f"class A\nfunctions\nf : nat -> nat\nf(x) == {body};\nend A\n")
    except ParseFailure:
        return  # only text that parses has to survive printing
    assert parse_vdm(print_vdm(model)[0][1]) == model
