"""Diagram-text parser and printer behaviour."""

import gc
import io
import itertools
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from generators import enumerate_types
from golden_pairs import GOLDEN_PAIRS
from vdmuml.errors import ParseError, ParseFailure, SourceSpan
from vdmuml.model import (
    Access,
    AttributeStereotype,
    Config,
    Multiplicity,
    OperationStereotype,
    Ordering,
    Qualifier,
    UmlAssociation,
    UmlAttribute,
    UmlClass,
    UmlGeneralization,
    UmlModel,
    UmlOperation,
)
from vdmuml.puml_frontend import parse_multiplicity, parse_puml, print_puml
from vdmuml.transform import uml_to_vdm
from vdmuml.vdm_frontend import render_type

SPAN = SourceSpan("<test>", 1, 1)


# ---------------------------------------------------------------------------
# parse_puml


def test_parse_generalization_arrow():
    model = parse_puml("@startuml\nclass A\nclass B\nA <|-- B\n@enduml")
    assert model.generalizations == (UmlGeneralization(child="B", parent="A"),)


def test_parse_generalization_mirrored():
    model = parse_puml("class A\nclass B\nB --|> A")
    assert model.generalizations == (UmlGeneralization(child="B", parent="A"),)


def test_parse_subclass_clause_on_header():
    model = parse_puml("class A\nclass B is subclass of A")
    assert model.generalizations == (UmlGeneralization(child="B", parent="A"),)


def test_parse_association_with_multiplicity():
    model = parse_puml('class A\nclass B\nA --> "0..*" B : assoc1')
    assoc = model.associations[0]
    assert assoc == UmlAssociation("A", "B", "assoc1", Access.PRIVATE, Multiplicity.SET0)


def test_parse_visibility_sigils_default_private():
    model = parse_puml(
        "class A {\n- member1 : nat\n# member2 : nat\n+ member3 : nat\nmember4 : nat\n}"
    )
    vis = [a.visibility for a in model.classes[0].attributes]
    assert vis == [Access.PRIVATE, Access.PROTECTED, Access.PUBLIC, Access.PRIVATE]


def test_parse_member_without_type_is_error():
    # the attribute grammar demands 'identifier : type'; a bare name
    # cannot be translated into any class member
    with pytest.raises(ParseFailure):
        parse_puml("class A {\n- member1\n}")


def test_parse_unique_qualifier_single_dash_arrow():
    model = parse_puml("class A\nclass B\nA [(Type)] -> B : quali1")
    assoc = model.associations[0]
    assert assoc.qualifier == Qualifier("Type", unique=True)
    assert assoc.multiplicity is Multiplicity.ONE


def test_parse_plain_and_quoted_qualifiers():
    model = parse_puml('class A\nclass B\nA [Type] --> B : q1\nA "[seq of char]" --> B : q2')
    q1, q2 = model.associations
    assert q1.qualifier == Qualifier("Type", unique=False)
    assert q2.qualifier == Qualifier("seq of char", unique=False)


def test_parse_qualifier_with_nested_brackets():
    model = parse_puml("class A\nclass B\nA [[nat]] --> B : r")
    assert model.associations[0].qualifier == Qualifier("[nat]", unique=False)
    # unique exactly when one pair of parentheses holds the whole key
    for line, expected in [
        ("A [( nat )] --> B : r", Qualifier("nat", unique=True)),
        ("A [((nat))] --> B : r", Qualifier("(nat)", unique=True)),
        ("A [(nat) * bool] --> B : r", Qualifier("(nat) * bool", unique=False)),
        ("A [(nat)(bool)] --> B : r", Qualifier("(nat)(bool)", unique=False)),
        ("A [(T)x] --> B : r", Qualifier("(T)x", unique=False)),  # uml2vdm refuses it as a type
    ]:
        assert parse_puml(line).associations[0].qualifier == expected


def test_parse_association_without_role_is_error():
    with pytest.raises(ParseFailure) as exc:
        parse_puml("class A\nclass B\nA --> B")
    assert "association requires a role name" in str(exc.value)
    assert exc.value.errors[0].span.line == 3


def test_parse_role_visibility():
    model = parse_puml("class A\nclass B\nA --> B : + shared")
    assert model.associations[0].role_visibility is Access.PUBLIC


def test_parse_member_kinds():
    model = parse_puml(
        "class A {\n"
        "  - v : real <<value>>\n"
        "  + T : nat <<type>>\n"
        "  {static} c : nat\n"
        "  static d : nat\n"
        "  + run(nat, seq of char) : bool\n"
        "  - f() : nat <<function>>\n"
        "}\n"
    )
    cls = model.classes[0]
    assert cls.attributes[0].stereotype is AttributeStereotype.VALUE
    assert cls.attributes[1] == UmlAttribute(Access.PUBLIC, False, "T", "nat", AttributeStereotype.TYPE)
    assert cls.attributes[2].is_static and cls.attributes[3].is_static
    run, f = cls.operations
    assert run == UmlOperation(Access.PUBLIC, False, "run", ("nat", "seq of char"), "bool")
    assert f.stereotype is OperationStereotype.FUNCTION and f.param_type_texts == ()


def test_parse_puml_shares_each_repeated_name_and_type_text():
    text = (
        "class Account {\n"
        "  - owner : seq of char\n"
        "  + balance(seq of char, nat) : nat\n"
        "}\n"
        "class Ledger {\n"
        "  - owner : seq of char\n"
        "  + balance(seq of char, nat) : nat\n"
        "}\n"
        "Account <|-- Ledger\n"
        'Account [seq of char] --> "0..*" Ledger : entries\n'
        "Ledger [nat] --> Account : entries\n"
    )
    uml = parse_puml(text)
    account, ledger = uml.classes
    (gen,) = uml.generalizations
    there, back = uml.associations
    (a_owner,), (a_balance,) = account.attributes, account.operations
    (l_owner,), (l_balance,) = ledger.attributes, ledger.operations
    for first, *repeats in [
        (account.name, gen.parent, there.source, back.target),
        (ledger.name, gen.child, there.target, back.source),
        (a_owner.name, l_owner.name),
        (a_balance.name, l_balance.name),
        (there.role_name, back.role_name),
        (a_owner.type_text, l_owner.type_text, a_balance.param_type_texts[0],
         l_balance.param_type_texts[0], there.qualifier.type_text),
        (a_balance.param_type_texts[1], l_balance.param_type_texts[1], a_balance.return_type_text,
         l_balance.return_type_text, back.qualifier.type_text),
    ]:
        assert all(repeat is first for repeat in repeats), (first, repeats)

    # uml_to_vdm passes the diagram's strings on into the classes
    v_account, v_ledger = uml_to_vdm(uml).classes
    assert v_account.name is account.name and v_ledger.name is ledger.name
    assert v_ledger.superclasses == (account.name,) and v_ledger.superclasses[0] is account.name
    for cls in (v_account, v_ledger):
        (owner, entries), (balance,) = cls.instance_variables, cls.operations
        assert owner.name is a_owner.name and entries.name is there.role_name
        assert balance.name is a_balance.name

    # the type-text table belongs to one call: a second parse is equal, with
    # its own type texts; names are the leaves' strings, shared across parses
    again = parse_puml(text)
    assert again == uml
    assert again.classes[0].attributes[0].type_text == a_owner.type_text
    assert again.classes[0].attributes[0].type_text is not a_owner.type_text
    assert again.classes[0].name is account.name and again.associations[0].role_name is there.role_name


def test_parse_unknown_stereotype_is_error():
    with pytest.raises(ParseFailure) as exc:
        parse_puml("class A {\n- x : nat <<const>>\n}")
    assert "unknown stereotype" in str(exc.value)
    assert exc.value.errors[0].span.line == 2


def test_parse_static_value_is_error():
    with pytest.raises(ParseFailure) as exc:
        parse_puml("class A {\n- {static} v : nat <<value>>\n}")
    assert "cannot be static" in str(exc.value)


def test_parse_directives_ignored_and_inert():
    plain = parse_puml("class A\nclass B\nA --> B : r")
    dressed = parse_puml(
        "@startuml\nhide empty members\nclass A\nskinparam classAttributeIconSize 0\n"
        "class B\nA --> B : r\n@enduml"
    )
    assert plain == dressed


def test_parse_unrecognised_line_has_line_number():
    with pytest.raises(ParseFailure) as exc:
        parse_puml("class A\nnote left of A\n")
    err = exc.value.errors[0]
    assert "unrecognised line" in err.message
    assert err.span.line == 2


def test_parse_unclosed_class_is_error():
    with pytest.raises(ParseFailure) as exc:
        parse_puml("class A {\n- x : nat\n")
    assert "never closed" in str(exc.value)


def test_parse_source_end_multiplicity_rejected():
    with pytest.raises(ParseFailure) as exc:
        parse_puml('class A\nclass B\nA "0..*" --> B : r')
    assert "source-end" in str(exc.value)


def test_parse_collects_several_errors():
    with pytest.raises(ParseFailure) as exc:
        parse_puml("class A {\n- x :\n- y : nat <<huh>>\n}\nA --> B\n")
    lines = [e.span.line for e in exc.value.errors]
    assert lines == [2, 3, 5]


def test_recovered_errors_leave_no_reference_cycle():
    # an error kept in the list with its traceback keeps the frame that holds the list
    gc.collect()
    gc.disable()
    try:
        with pytest.raises(ParseFailure):
            parse_puml("class A {\n+ + x : nat\n}\n")
        assert gc.collect() == 0
    finally:
        gc.enable()


# The head of a member line: sigil, static marker, name and the '(' or ':'
# after it. Each row is (line, (visibility, static, name)) for a line that
# parses, or (line, (column, message)) for one that does not.
_PUB, _PRIV = Access.PUBLIC, Access.PRIVATE


@pytest.mark.parametrize("line,expected", [
    ("+ x : nat", (_PUB, False, "x")),
    ("x : nat", (_PRIV, False, "x")),
    ("+x:nat", (_PUB, False, "x")),
    ("{static} + x : nat", (_PUB, True, "x")),
    ("+ {static} x : nat", (_PUB, True, "x")),
    ("+\tstatic\tx\t:\tnat", (_PUB, True, "x")),
    ("+ x\u00a0: nat", (_PUB, False, "x")),
    ("static x : nat", (_PRIV, True, "x")),
    ("{static} static : nat", (_PRIV, True, "static")),
    ("staticx : nat", (_PRIV, False, "staticx")),
    ("static' : nat", (_PRIV, False, "static'")),
    ("+ {static}x() : nat <<function>>", (_PUB, True, "x")),
    ("- static - x : nat", (10, "expected a member name")),
    ("+ + x : nat", (3, "expected a member name")),
    ("static static x : nat", (15, "expected ':' or a parameter list")),
    ("static : nat", (8, "expected a member name")),
    ("staticé : nat", (7, "expected a member name")),
    ("{static}{static} x : nat", (9, "expected a member name")),
    ("{static x : nat", (1, "expected a member name")),
    ("static(): nat", (7, "expected a member name")),
    ("+ static", (9, "expected a member name")),
    ("# x nat", (5, "expected ':' or a parameter list")),
    ("- x ( : nat", (5, "unterminated parameter list")),
    ("x :", (4, "missing member type")),
])
def test_parse_member_head(line, expected):
    try:
        cls = parse_puml(f"class A {{\n{line}\n}}\n").classes[0]
    except ParseFailure as failure:
        assert [(e.span.line, e.span.column, e.message) for e in failure.errors] == [(2, *expected)]
        return
    (member,) = cls.attributes + cls.operations
    assert (member.visibility, member.is_static, member.name) == expected


# One row per error site outside the member head, each unindented:
# text -> [(line, column, message, expected)].
_LABELS = '"*", "0..*", "1..*", "(*)", "(0..*)", "(1..*)", "0..1" or "(0..1)"'
_NEVER_CLOSED = "class 'A' is never closed with '}'"
_BREAKS_INSIDE_A_LINE = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


@pytest.mark.parametrize("text,expected", [
    ('class {', [(1, 7, 'expected a class name', None)]),
    ('class A is subclass B', [(1, 21, "expected 'is subclass of'", None)]),
    ('class A is subclass of {', [(1, 24, 'expected a superclass name', None)]),
    ('class A {} x', [(1, 12, "unexpected text 'x'", None)]),
    ('class A is {', [(1, 12, "expected 'is subclass of'", None)]),
    ('class A { x', [(1, 11, "unexpected text 'x'", None)]),
    ('class A issubclass of B', [(1, 9, "unexpected text 'issubclass of B'", None)]),
    ('class A is subclassof B', [(1, 12, "expected 'is subclass of'", None)]),
    ('class A }', [(1, 9, "unexpected text '}'", None)]),
    ('A <|-- ', [(1, 7, 'expected a class name', None)]),
    ('<|-- A', [(1, 1, 'expected a class name', None)]),
    ('A B <|-- C', [(1, 3, 'expected an inheritance arrow', None)]),
    ('A <|-- B C', [(1, 10, "unexpected text 'C'", None)]),
    ('A --|> B --|> C', [(1, 10, "unexpected text '--|> C'", None)]),
    ('A -|> ', [(1, 6, 'expected a class name', None)]),
    ('A B --> C : r', [(1, 3, "expected '-->'", None)]),
    ('--> B : r', [(1, 1, 'expected a class name', None)]),
    ('A --> "0..* B : r', [(1, 7, 'unterminated multiplicity label', None)]),
    ('A --> "2" B : r', [(1, 7, "unrecognised multiplicity '2'", _LABELS)]),
    ('A --> : r', [(1, 7, 'expected a class name', None)]),
    ('A --> B r', [(1, 9, 'association requires a role name', "': role'")]),
    ('A --> B :', [(1, 10, 'association requires a role name', None)]),
    ('A --> B : +', [(1, 12, 'association requires a role name', None)]),
    ('A --> B : 1', [(1, 11, 'expected a role name', None)]),
    ('A --> B : r s', [(1, 13, "unexpected text 's'", None)]),
    ('A "0..*" --> B : r',
      [(1, 3, "expected a qualifier '[Type]' after '\"' (source-end multiplicities are not supported)",
        None)]),
    ('A [T --> B : r', [(1, 3, 'unterminated qualifier', "']'")]),
    ('A [(T] --> B : r', [(1, 3, 'unterminated qualifier', "']'")]),
    ('A "[T] --> B : r', [(1, 3, 'unterminated qualifier quote', None)]),
    ('A [ ] --> B : r', [(1, 3, 'qualifier type must not be empty', None)]),
    ('A [T]" --> B : r', [(1, 6, "expected '-->'", None)]),
    ('A [(T)x --> B : r', [(1, 3, 'unterminated qualifier', "']'")]),
    ('A [T)] --> B : r', [(1, 3, 'unterminated qualifier', "']'")]),
    ('class A {\n- f(nat : nat\n}', [(2, 4, 'unterminated parameter list', None)]),
    ('class A {\n- f(nat,) : nat\n}', [(2, 4, 'empty parameter type', None)]),
    ('class A {\n- f(nat) nat\n}', [(2, 10, "expected ':' and a return type", None)]),
    ('class A {\n- f(nat) :\n}', [(2, 11, 'missing return type', None)]),
    ('class A {\n- f() : nat <<value>>\n}',
      [(2, 22, "'<<value>>' is only allowed on attributes", None)]),
    ('class A {\n- f() : nat <<const>>\n}', [(2, 22, "unknown stereotype '<<const>>'", None)]),
    ('class A {\n- x : nat <<value\n}', [(2, 11, 'malformed stereotype marker', None)]),
    ('class A {\n- x : nat <<value>> y\n}', [(2, 11, 'malformed stereotype marker', None)]),
    ('class A {\n- x : nat <<function>>\n}',
      [(2, 23, "'<<function>>' is only allowed on operations", None)]),
    ('class A {\n- x : nat <<const>>\n}', [(2, 20, "unknown stereotype '<<const>>'", None)]),
    ('class A {\n- {static} x : nat <<value>>\n}',
      [(2, 29, 'a value attribute cannot be static', None)]),
    ('class A {\n- x : <<value>>\n}', [(2, 16, 'missing member type', None)]),
    ('foo bar', [(1, 1, 'unrecognised line', None)]),
    ('note left of A', [(1, 1, 'unrecognised line', None)]),
    ('package P {', [(1, 1, 'unrecognised line', None)]),
    ('together {', [(1, 1, 'unrecognised line', None)]),
    ('}', [(1, 1, 'unrecognised line', None)]),
    ('class A {\n- x : nat', [(2, 1, _NEVER_CLOSED, None)]),
    ('class A {\n- x : nat\n\n', [(3, 1, _NEVER_CLOSED, None)]),
    ('class A {\n- x :\nB --> C\n}\nA --> B\nclass C {',
      [(2, 6, 'missing member type', None), (3, 3, "expected ':' or a parameter list", None),
       (5, 8, 'association requires a role name', "': role'"),
       (6, 1, "class 'C' is never closed with '}'", None)]),
    # lines are numbered by '\n' alone; a trailing '\r' is part of the break
    *[(f"class A{c}\nfoo bar", [(2, 1, "unrecognised line", None)]) for c in _BREAKS_INSIDE_A_LINE],
    ("class A\r\nfoo bar\r\n", [(2, 1, "unrecognised line", None)]),
    ("class A\rfoo bar", [(1, 9, "unexpected text 'foo bar'", None)]),
    # a refused block's line that holds an arrow is not read as a link
    ('note "a --> b" as N1', [(1, 1, 'unrecognised line', None)]),
    ('  note right of A : x --> y', [(1, 3, 'unrecognised line', None)]),
    ('note --> B : r\nfoo bar', [(2, 1, 'unrecognised line', None)]),
    ('package P --> Q {\n\ttogether { A --> B : r }', [(1, 1, 'unrecognised line', None),
                                                       (2, 2, 'unrecognised line', None)]),
    ('note "A <|-- B" as N2\nnote <|-- B', [(1, 1, 'unrecognised line', None)]),
    # a static <<type>> line is refused as a static <<value>> line is
    ('class A {\n+ {static} T : nat <<type>>\n}',
      [(2, 28, 'a type attribute cannot be static', None)]),
    # a hide or skinparam line is skipped only without an arrow; an arrowed
    # one that reads as no link is refused as a link from that class
    ('class hide\nclass B\nhide --> B\n', [(3, 11, 'association requires a role name', "': role'")]),
    ('hide <|-- ', [(1, 10, 'expected a class name', None)]),
    ('  skinparam A -|> B', [(1, 13, 'expected an inheritance arrow', None)]),
    ('skinparam --> B : r s', [(1, 21, "unexpected text 's'", None)]),
    ('hide empty members\nskinparam classAttributeIconSize 0\nfoo bar', [(3, 1, 'unrecognised line', None)]),
])
def test_parse_line_errors(text, expected):
    with pytest.raises(ParseFailure) as exc:
        parse_puml(text)
    assert [(e.span.line, e.span.column, e.message, e.expected) for e in exc.value.errors] == expected


_LINKS = "class B\nA <|-- B\nA --> B : r\n"
_PLAIN = "class A {\n- x : nat\n}\n" + _LINKS


@pytest.mark.parametrize("text", [
    "' a line comment\n" + _PLAIN,
    "class A {\n' inside a body\n- x : nat\n  'indented, with text: x : nat\n}\n" + _LINKS,
    "/' one line '/\n" + _PLAIN,
    "  /' indented '/  \n" + _PLAIN,
    "/' a block\nclass C\nover lines '/\n" + _PLAIN,
    "class A {\n/'\n- y : nat\n'/\n- x : nat\n}\n" + _LINKS,
    _PLAIN + "/' ' and /' inside do not close it\n '/",
    _PLAIN + "''/\n'",
])
def test_comments_are_ignored(text):
    assert parse_puml(text) == parse_puml(_PLAIN)


@pytest.mark.parametrize("text,expected", [
    ("class A\n/' never\nclosed\n", [(2, 1, "unterminated comment", None)]),
    ("class A {\n  /' x '\n}\n", [(2, 3, "unterminated comment", None), (3, 1, _NEVER_CLOSED, None)]),
    ("/'/\nclass A\n", [(1, 1, "unterminated comment", None)]),
    ("/' a '/ x\n", [(1, 9, "unexpected text 'x'", None)]),
    ("class A\n/' a\n b '/  class B\n", [(3, 8, "unexpected text 'class B'", None)]),
    ("class A\nA ' not a comment --> B : r\n", [(2, 3, "expected '-->'", None)]),
    ("  note left of A\n\tpackage P {\n together {\n", [(1, 3, "unrecognised line", None),
                                                        (2, 2, "unrecognised line", None),
                                                        (3, 2, "unrecognised line", None)]),
])
def test_comment_and_refused_block_errors(text, expected):
    with pytest.raises(ParseFailure) as exc:
        parse_puml(text)
    assert [(e.span.line, e.span.column, e.message, e.expected) for e in exc.value.errors] == expected


def test_comment_lines_anywhere_in_printed_diagrams():
    model = parse_puml(
        "class A {\n- x : nat\n+ f(nat) : bool <<function>>\n}\nclass B\n"
        "A <|-- B\nA [K] --> \"1..*\" B : links\n"
    )
    lines = print_puml(model).splitlines()
    for i in range(len(lines) + 1):
        for comment in ("' note", "  /' a\n  b '/", "/''/"):
            assert parse_puml("\n".join(lines[:i] + [comment] + lines[i:])) == model


_PIECES = [
    "@startuml", "@enduml", "class", "A", "B", "x", "x'", "{", "}", "+", "-", "#", "{static}",
    "static", ":", "nat", "set of", "(", ")", "[", "]", "[(", ")]", ",", "<<", ">>", "<<value>>",
    "<<type>>", "<<function>>", "<|--", "--|>", "-->", "->", '"', '"0..*"', "(1..*)",
    "is subclass of", "hide", "skinparam", "...", "*", "|", "é", " ", "\t", "\n", "\r\n", "\x0c",
]


def _inside_lines(text: str, span) -> bool:
    lines = text.split("\n")  # parse_puml numbers lines by '\n' alone
    return 1 <= span.line <= len(lines) and 1 <= span.column <= len(lines[span.line - 1]) + 1


@given(st.one_of(st.text(max_size=80), st.lists(st.sampled_from(_PIECES), max_size=40).map("".join)))
@settings(max_examples=300)
def test_arbitrary_text_parses_or_fails_with_positions(text):
    try:
        model = parse_puml(text, origin="d.puml")
    except ParseFailure as failure:
        assert failure.errors
        assert all(e.span.file == "d.puml" and _inside_lines(text, e.span) for e in failure.errors)
        return
    assert isinstance(model, UmlModel)


def _outcome(text: str):
    try:
        return parse_puml(text)
    except ParseFailure as failure:
        return [(e.span.line, e.span.column, e.message, e.expected) for e in failure.errors]


@given(st.one_of(st.text(max_size=80),
                 st.lists(st.sampled_from(_PIECES + ["'", "/'", "'/"]), max_size=40).map("".join)))
@settings(max_examples=300)
def test_columns_count_leading_whitespace(text):
    plain = _outcome(text)
    for pad in (" ", "  ", "    ", "\t"):
        if isinstance(plain, UmlModel):
            expected = plain
        else:  # 'never closed' is reported at column 1 of the last line
            expected = [(line, col if "never closed" in message else col + len(pad), message, exp)
                        for line, col, message, exp in plain]
        assert _outcome(re.sub(r"(?m)^(?=.)", pad, text)) == expected


# ---------------------------------------------------------------------------
# parse_multiplicity


@pytest.mark.parametrize(
    "label,expected",
    [
        (None, Multiplicity.ONE),
        ("*", Multiplicity.SET0),
        ("0..*", Multiplicity.SET0),
        ("1..*", Multiplicity.SET1),
        ("(*)", Multiplicity.SEQ0),
        ("(0..*)", Multiplicity.SEQ0),
        ("(1..*)", Multiplicity.SEQ1),
        ("0..1", Multiplicity.OPT),
        ("(0..1)", Multiplicity.OPT),
    ],
)
def test_multiplicity_accepted_spellings(label, expected):
    assert parse_multiplicity(label, SPAN) is expected


def test_multiplicity_accepts_exactly_eight_spellings():
    accepted = {}
    candidates = ["*", "0..*", "1..*", "(*)", "(0..*)", "(1..*)", "0..1", "(0..1)",
                  "2..5", "1", "0", "many", "(2..*)", "1..1", "*..*", ""]
    for label in candidates:
        try:
            accepted[label] = parse_multiplicity(label, SPAN)
        except ParseError as e:
            assert "unrecognised multiplicity" in e.message
            assert e.expected is not None
    assert len(accepted) == 8
    assert set(accepted.values()) == set(Multiplicity) - {Multiplicity.ONE}


# ---------------------------------------------------------------------------
# print_puml


def test_print_stereotyped_attributes():
    model = UmlModel((UmlClass("A", attributes=(
        UmlAttribute(Access.PRIVATE, False, "val1", "real", AttributeStereotype.VALUE),
        UmlAttribute(Access.PRIVATE, False, "type1", "nat", AttributeStereotype.TYPE),
    )),))
    text = print_puml(model)
    assert "  - val1 : real <<value>>" in text.splitlines()
    assert "  - type1 : nat <<type>>" in text.splitlines()


def test_print_static_marker():
    model = UmlModel((UmlClass("A", attributes=(
        UmlAttribute(Access.PRIVATE, True, "member1", "nat"),)),))
    assert "- {static} member1 : nat" in print_puml(model)


def test_print_empty_model():
    assert print_puml(UmlModel()) == "@startuml\n@enduml\n"


def _unordered_model() -> UmlModel:
    cls = UmlClass(
        "B",
        attributes=(
            UmlAttribute(Access.PRIVATE, False, "iv", "nat"),
            UmlAttribute(Access.PRIVATE, False, "v", "nat", AttributeStereotype.VALUE),
            UmlAttribute(Access.PRIVATE, False, "t", "nat", AttributeStereotype.TYPE),
        ),
        operations=(
            UmlOperation(Access.PRIVATE, False, "f", (), "nat", OperationStereotype.FUNCTION),
            UmlOperation(Access.PRIVATE, False, "o", (), "nat"),
        ),
    )
    return UmlModel((cls, UmlClass("A")))


def test_print_groups_members_and_orders_classes():
    text = print_puml(_unordered_model(), Config(ordering=Ordering.ALPHABETICAL))
    lines = [line.strip() for line in text.splitlines()]
    assert lines.index("class A {") < lines.index("class B {")
    member_lines = [l for l in lines if l.startswith(("-", "+", "#"))]
    assert [l.split()[1] for l in member_lines] == ["v", "t", "iv", "o()", "f()"]


@pytest.mark.parametrize("ordering", list(Ordering), ids=[o.name.lower() for o in Ordering])
@pytest.mark.parametrize("model", [UmlModel(), _unordered_model(),
                                   *(parse_puml(puml, origin=name) for name, _, puml in GOLDEN_PAIRS)],
                         ids=["empty", "unordered", *(name for name, _, _ in GOLDEN_PAIRS)])
def test_print_to_a_stream_writes_the_returned_text(model, ordering):
    config = Config(ordering=ordering)
    out = io.StringIO()
    assert print_puml(model, config, file=out) is None
    assert out.getvalue() == print_puml(model, config)


def test_print_association_decorations():
    model = UmlModel(
        classes=(UmlClass("A"), UmlClass("B")),
        associations=(
            UmlAssociation("A", "B", "r1"),
            UmlAssociation("A", "B", "r2", Access.PUBLIC, Multiplicity.SEQ1),
            UmlAssociation("A", "B", "r3", Access.PRIVATE, Multiplicity.SET0,
                           Qualifier("Type", unique=True)),
        ),
    )
    text = print_puml(model)
    assert "A --> B : r1" in text
    assert 'A --> "(1..*)" B : + r2' in text
    assert 'A [(Type)] --> "0..*" B : r3' in text


def test_every_printed_line_reparses():
    models = [parse_puml(
        "class A {\n- x : nat\n+ f(nat) : bool <<function>>\n}\nclass B\n"
        "A <|-- B\nA [K] --> \"1..*\" B : links\n"
    )]
    # every key type of depth <= 3, plain and unique, under each decoration
    decorations = list(itertools.product(Multiplicity, Access))
    for i, t in enumerate(enumerate_types()):
        mult, visibility = decorations[i % len(decorations)]
        for unique in (False, True):
            assoc = UmlAssociation("A", "B", "r", visibility, mult, Qualifier(render_type(t), unique))
            models.append(UmlModel((UmlClass("A"), UmlClass("B")), associations=(assoc,)))
    # classes named as the first words of skipped or refused PlantUML lines
    names = ("hide", "skinparam", "note", "package", "together", "A")
    for source, target in itertools.product(names, names):
        models.append(UmlModel(tuple(UmlClass(n) for n in dict.fromkeys((source, target))),
                               (UmlGeneralization(child=target, parent=source),),
                               (UmlAssociation(source, target, "r"),)))
    failed = []
    for model in models:
        text = print_puml(model)
        try:
            if parse_puml(text) != model:
                failed.append(text)
        except ParseFailure:
            failed.append(text)
    assert not failed, f"{len(failed)} of {len(models)} diagrams read back otherwise, first:\n{failed[0]}"
