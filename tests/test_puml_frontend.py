"""Diagram-text parser and printer behaviour."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


_PIECES = [
    "@startuml", "@enduml", "class", "A", "B", "x", "x'", "{", "}", "+", "-", "#", "{static}",
    "static", ":", "nat", "set of", "(", ")", "[", "]", "[(", ")]", ",", "<<", ">>", "<<value>>",
    "<<type>>", "<<function>>", "<|--", "--|>", "-->", "->", '"', '"0..*"', "(1..*)",
    "is subclass of", "hide", "skinparam", "...", "*", "|", "é", " ", "\t", "\n", "\r\n", "\x0c",
]


def _inside_lines(text: str, span) -> bool:
    lines = text.splitlines() or [""]  # parse_puml numbers the lines of splitlines()
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


def test_print_groups_members_and_orders_classes():
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
    model = UmlModel((cls, UmlClass("A")))
    text = print_puml(model, Config(ordering=Ordering.ALPHABETICAL))
    lines = [line.strip() for line in text.splitlines()]
    assert lines.index("class A {") < lines.index("class B {")
    member_lines = [l for l in lines if l.startswith(("-", "+", "#"))]
    assert [l.split()[1] for l in member_lines] == ["v", "t", "iv", "o()", "f()"]


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
    model = parse_puml(
        "class A {\n- x : nat\n+ f(nat) : bool <<function>>\n}\nclass B\n"
        "A <|-- B\nA [K] --> \"1..*\" B : links\n"
    )
    text = print_puml(model)
    assert parse_puml(text) == model
