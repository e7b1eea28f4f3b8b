"""Model invariants and validation diagnostics."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vdmuml import errors, model, transform
from vdmuml.errors import ParseFailure, SourceSpan
from vdmuml.model import (
    MAX_TYPE_DEPTH,
    Access,
    AttributeStereotype,
    BasicType,
    CallableDef,
    Config,
    Diagnostic,
    InstanceVariable,
    MapType,
    Multiplicity,
    NamedType,
    OptionalType,
    ProductType,
    Qualifier,
    Seq1Type,
    SeqType,
    Set1Type,
    SetType,
    TypeDef,
    UmlAssociation,
    UmlAttribute,
    UmlClass,
    UmlGeneralization,
    UmlModel,
    UmlOperation,
    UnionType,
    ValueDef,
    VdmClass,
    VdmModel,
    validate_model,
    validate_uml,
)
from vdmuml.puml_frontend import parse_puml, print_puml
from vdmuml.transform import AssociationPlan
from vdmuml.vdm_frontend import parse_vdm, print_vdm


def test_well_formed_model_passes():
    model = VdmModel((VdmClass("A"), VdmClass("B", superclasses=("A",))))
    assert validate_model(model) == []


def test_duplicate_class_names_flagged():
    model = VdmModel((VdmClass("A"), VdmClass("A")))
    diags = validate_model(model)
    assert len(diags) == 1
    assert "duplicate class name" in diags[0].message


def test_unresolved_superclass_flagged():
    # resolution is name lookup over the class list: every listed class
    # resolves, only the missing one is reported
    model = VdmModel((VdmClass("A"), VdmClass("B", superclasses=("C",))))
    diags = validate_model(model)
    assert [d.message for d in diags] == ["superclass 'C' does not name a class in the model"]
    model_ok = VdmModel((VdmClass("A"), VdmClass("C"), VdmClass("B", superclasses=("C", "A"))))
    assert validate_model(model_ok) == []


def test_duplicate_member_names_flagged_across_lists():
    cls = VdmClass(
        "A",
        instance_variables=(InstanceVariable(Access.PRIVATE, False, "x", BasicType("nat")),),
        values=(ValueDef(Access.PRIVATE, "x", BasicType("nat"), "1"),),
    )
    diags = validate_model(VdmModel((cls,)))
    assert any("duplicate member name 'x'" in d.message for d in diags)
    assert diags[0].subject == "A.x"


def test_keywords_are_not_names():
    model = VdmModel((VdmClass("values", values=(ValueDef(Access.PRIVATE, "end", BasicType("nat"), "1"),)),))
    assert [str(d) for d in validate_model(model)] == [
        "error: values: class name 'values' is a reserved keyword",
        "error: values.end: member name 'end' is a reserved keyword",
    ]
    uml = UmlModel(
        (UmlClass("values", attributes=(UmlAttribute(Access.PRIVATE, False, "end", "nat"),),
                  operations=(UmlOperation(Access.PRIVATE, False, "seq", (), "nat"),)),
         UmlClass("B")),
        associations=(UmlAssociation("values", "B", "nat"),),
    )
    assert [str(d) for d in validate_uml(uml)] == [
        "error: values: class name 'values' is a reserved keyword",
        "error: values.end: attribute name 'end' is a reserved keyword",
        "error: values.seq: operation name 'seq' is a reserved keyword",
        "error: values.nat: role name 'nat' is a reserved keyword",
    ]


def test_role_names_are_checked_as_names():
    uml = UmlModel((UmlClass("A"), UmlClass("B")),
                   associations=(UmlAssociation("A", "B", "1x"), UmlAssociation("A", "B", "seq"),
                                 UmlAssociation("A", "B", "r"), UmlAssociation("A", "B", "r")))
    assert [str(d) for d in validate_uml(uml)] == [
        "error: A.r: role name 'r' collides with another member",
        "error: A.1x: role name '1x' is not a valid identifier",
        "error: A.seq: role name 'seq' is a reserved keyword",
    ]


def test_inheritance_cycle_flagged():
    model = VdmModel((VdmClass("A", superclasses=("B",)), VdmClass("B", superclasses=("A",))))
    diags = validate_model(model)
    assert sum("inheritance cycle" in d.message for d in diags) == 2


def _vdm_graph(*pairs):
    return VdmModel(tuple(VdmClass(child, superclasses=parents) for child, parents in pairs))


def _uml_graph(*pairs):
    return UmlModel(
        tuple(UmlClass(child) for child, _ in pairs),
        tuple(UmlGeneralization(child, p) for child, parents in pairs for p in parents),
    )


def test_only_classes_on_a_cycle_are_reported():
    # X lies between the cycles A-B and D-E; Y lies below D-E, above a
    # chain of 2,000 classes
    pairs = (("A", ("B",)), ("B", ("A",)), ("X", ("A",)), ("D", ("X", "E")), ("E", ("D",)),
             ("Y", ("D",)), ("Z0", ("Y",))) + tuple((f"Z{i}", (f"Z{i - 1}",)) for i in range(1, 2000))
    assert [d.subject for d in validate_model(_vdm_graph(*pairs))] == ["A", "B", "D", "E"]
    assert [d.subject for d in validate_uml(_uml_graph(*pairs))] == ["A", "B", "D", "E"]


def test_deep_inheritance_chain_is_valid():
    pairs = [("C0", ())] + [(f"C{i}", (f"C{i - 1}",)) for i in range(1, 3000)]
    assert validate_model(_vdm_graph(*pairs)) == []
    assert validate_uml(_uml_graph(*pairs)) == []


@pytest.mark.parametrize("depth", [MAX_TYPE_DEPTH + 1, 101, 5000])
def test_type_built_past_the_depth_bound_is_one_diagnostic(depth):
    # a model built in code gets no parser's check, and printing one this
    # deep gives text the parser refuses, or exhausts the recursion limit
    t = BasicType("nat")
    for _ in range(depth):
        t = SetType(t)
    model = VdmModel((VdmClass("A", instance_variables=(InstanceVariable(Access.PRIVATE, False, "x", t),)),))
    assert validate_model(model) == [Diagnostic("A.x", "type nested too deeply")]


def test_validation_is_pure_and_ordered():
    model = VdmModel((VdmClass("A"), VdmClass("A"), VdmClass("B", superclasses=("C",))))
    first = validate_model(model)
    second = validate_model(model)
    assert first == second
    assert [d.subject for d in first] == ["A", "B"]


def test_uml_association_model_passes():
    model = UmlModel(
        classes=(UmlClass("A"), UmlClass("B")),
        associations=(UmlAssociation("A", "B", "assoc1"),),
    )
    assert validate_uml(model) == []


def test_uml_missing_role_flagged():
    model = UmlModel(
        classes=(UmlClass("A"), UmlClass("B")),
        associations=(UmlAssociation("A", "B", ""),),
    )
    diags = validate_uml(model)
    assert any("association requires a role name" in d.message for d in diags)


def test_uml_self_generalization_flagged():
    model = UmlModel(classes=(UmlClass("A"),), generalizations=(UmlGeneralization("A", "A"),))
    diags = validate_uml(model)
    # reported once: a self-loop is not also reported as a generalization cycle
    assert [d.message for d in diags] == ["class 'A' cannot inherit from itself"]


def test_uml_unknown_endpoints_flagged():
    model = UmlModel(classes=(UmlClass("A"),), associations=(UmlAssociation("A", "Z", "r"),))
    assert any("unknown class 'Z'" in d.message for d in validate_uml(model))


def test_uml_static_value_flagged():
    attr = UmlAttribute(Access.PRIVATE, True, "v", "nat", AttributeStereotype.VALUE)
    diags = validate_uml(UmlModel((UmlClass("A", attributes=(attr,)),)))
    assert any("cannot be static" in d.message for d in diags)


@pytest.mark.parametrize("build,expected", [
    (lambda: validate_model(parse_vdm("class B\nend B\nclass A is subclass of B, B\nend A\n")),
     ["error: A: superclass 'B' listed twice"]),
    (lambda: validate_uml(parse_puml("class A\nclass B\nA <|-- B\nA <|-- B\n")),
     ["error: B -> A: duplicate generalization"]),
    (lambda: validate_uml(parse_puml("class A\nZ <|-- A\n")),
     ["error: A -> Z: generalization names unknown class 'Z'"]),
    # the diagram parser refuses these two itself, so only a model built in code reaches them
    (lambda: validate_uml(UmlModel((UmlClass("A"), UmlClass("B")),
                                   associations=(UmlAssociation("A", "B", "r", qualifier=Qualifier(" ")),))),
     ["error: A.r: qualifier type must not be empty"]),
    (lambda: validate_uml(UmlModel((UmlClass("A", attributes=(
        UmlAttribute(Access.PUBLIC, True, "T", "nat", AttributeStereotype.TYPE),)),))),
     ["error: A.T: a type attribute cannot be static"]),
    # parse_vdm reads parameter names exactly where they are identifiers
    (lambda: validate_model(VdmModel((VdmClass("A", functions=(
        CallableDef(Access.PUBLIC, False, "f", (_NAT,), _NAT, None, ("x", "y")),
        CallableDef(Access.PUBLIC, False, "g", (_NAT, _NAT), _NAT, None, ("1x", "end")))),))),
     ["error: A.f: 2 parameter name(s) for 1 type(s)",
      "error: A.g: parameter name '1x' is not a valid identifier",
      "error: A.g: parameter name 'end' is a reserved keyword"]),
], ids=["superclass-twice", "generalization-twice", "generalization-unknown-class", "empty-qualifier",
        "static-type", "parameter-names"])
def test_validation_messages(build, expected):
    assert [str(d) for d in build()] == expected


def test_uml_role_collision_flagged():
    model = UmlModel(
        classes=(
            UmlClass("A", attributes=(UmlAttribute(Access.PRIVATE, False, "r", "nat"),)),
            UmlClass("B"),
        ),
        associations=(UmlAssociation("A", "B", "r"),),
    )
    assert any("collides" in d.message for d in validate_uml(model))


def test_uml_generalization_cycle_flagged():
    model = UmlModel(
        classes=(UmlClass("A"), UmlClass("B")),
        generalizations=(UmlGeneralization("A", "B"), UmlGeneralization("B", "A")),
    )
    assert any("generalization cycle" in d.message for d in validate_uml(model))


def test_product_and_union_need_two_members():
    with pytest.raises(ValueError):
        ProductType((BasicType("nat"),))
    with pytest.raises(ValueError):
        UnionType((BasicType("nat"),))
    assert len(ProductType((BasicType("nat"), NamedType("A"))).members) == 2


def test_basic_type_name_is_checked():
    with pytest.raises(ValueError):
        BasicType("float")


def test_config_rejects_negative_capacities():
    with pytest.raises(ValueError):
        Config(gamma0=-1)
    with pytest.raises(ValueError):
        Config(gamma1=-2)
    assert Config().gamma0 == 2 and Config().gamma1 == 1


def test_models_are_hashable_and_structurally_equal():
    a = VdmModel((VdmClass("A", instance_variables=(
        InstanceVariable(Access.PRIVATE, False, "x", SetType(BasicType("nat"))),)),))
    b = VdmModel((VdmClass("A", instance_variables=(
        InstanceVariable(Access.PRIVATE, False, "x", SetType(BasicType("nat"))),)),))
    assert a == b and hash(a) == hash(b)
    assert Multiplicity.SEQ1 is not Multiplicity.SET1


_NAT = BasicType("nat")
_ONE_OF_EACH = [
    _NAT, NamedType("A"), SetType(_NAT), Set1Type(_NAT), SeqType(_NAT), Seq1Type(_NAT),
    OptionalType(_NAT), MapType(_NAT, _NAT), ProductType((_NAT, _NAT)), UnionType((_NAT, _NAT)),
    InstanceVariable(Access.PRIVATE, False, "x", _NAT), ValueDef(Access.PRIVATE, "v", _NAT, "1"),
    TypeDef(Access.PRIVATE, "T", _NAT), CallableDef(Access.PRIVATE, False, "f", (), _NAT),
    VdmClass("A"), VdmModel(), Qualifier("nat"), UmlAttribute(Access.PRIVATE, False, "x", "nat"),
    UmlOperation(Access.PRIVATE, False, "f", (), "nat"), UmlClass("A"), UmlGeneralization("B", "A"),
    UmlAssociation("A", "B", "r"), UmlModel(), Config(), Diagnostic("A", "m"),
    SourceSpan("a.vdmpp", 1, 1), AssociationPlan("A", Multiplicity.ONE),
]


def test_values_are_slotted_and_parsed_leaves_shared():
    defined = {
        cls for module in (model, errors, transform) for cls in vars(module).values()
        if dataclasses.is_dataclass(cls) and cls.__module__ == module.__name__
    }
    assert {type(value) for value in _ONE_OF_EACH} == defined
    for value in _ONE_OF_EACH:
        assert not hasattr(value, "__dict__"), type(value).__name__
        with pytest.raises(AttributeError):
            object.__setattr__(value, "extra", 1)

    parsed = parse_vdm(
        "class A\ninstance variables\nx : nat;\ny : set of nat;\nz : A;\nw : seq of A;\nend A\n"
    )
    x, y, z, w = parsed.classes[0].instance_variables
    assert x.var_type is y.var_type.inner
    assert z.var_type is w.var_type.inner
    assert (x.var_type, y.var_type) == (BasicType("nat"), SetType(BasicType("nat")))
    assert (z.var_type, w.var_type) == (NamedType("A"), SeqType(NamedType("A")))


def test_parsed_names_and_drawn_type_texts_are_shared():
    # names parsed apart are one string across the process, their leaves'
    # strings from named_type; equal type texts in one diagram are one string
    source = (
        "class Ledger\nend Ledger\n"
        "class Account is subclass of Ledger\ninstance variables\nbalance : set of nat;\n"
        "operations\npublic deposit : set of nat * nat ==> set of nat\n"
        "deposit(balance, amount) == is not yet specified;\nend Account\n"
    )

    def names(parsed):
        return [name for c in parsed.classes for name in (
            c.name, *c.superclasses, *(iv.name for iv in c.instance_variables),
            *(op.name for op in c.operations), *(n for op in c.operations for n in op.param_names or ()))]

    first, second = parse_vdm(source), parse_vdm(source)
    assert names(first) == ["Ledger", "Account", "Ledger", "balance", "deposit", "balance", "amount"]
    assert all(a is b for a, b in zip(names(first), names(second), strict=True))
    assert names(first)[0] is names(first)[2] and names(first)[3] is names(first)[5]

    account = transform.vdm_to_uml(first).classes[1]
    (balance,), (deposit,) = account.attributes, account.operations
    assert balance.type_text == "set of nat"
    assert deposit.param_type_texts[0] is deposit.return_type_text is balance.type_text

    assert all(name is model.named_type(name).name for name in names(first))


def test_a_class_name_is_the_name_in_each_type_that_refers_to_it():
    # one cache keeps every name both parsers read, so a class's name and
    # the name of each NamedType leaf that refers to it are one string
    source = (
        "class Knot\ninstance variables\nnext : [Knot];\n"
        "operations\ntie : Knot ==> set of Knot\ntie(k) == is not yet specified;\nend Knot\n"
        "class Loop is subclass of Knot\nend Loop\n"
    )
    diagram = (
        "class Knot {\n  - next : [Knot]\n  + tie(Knot) : set of Knot\n}\n"
        "class Loop {\n}\nKnot <|-- Loop\n"
    )
    for parsed in (parse_vdm(source), transform.uml_to_vdm(parse_puml(diagram))):
        knot, loop = parsed.classes
        (nxt,), (tie,) = knot.instance_variables, knot.operations
        refs = (nxt.var_type.inner, tie.param_types[0], tie.return_type.inner)
        assert refs == (NamedType("Knot"),) * 3
        assert all(ref.name is knot.name for ref in refs)
        assert loop.superclasses[0] is knot.name


def _reaches_itself(edges, node) -> bool:
    """Whether node reaches itself through one or more parent edges, by
    walking every path from its parents."""
    reached, frontier = set(), list(edges[node])
    while frontier:
        parent = frontier.pop()
        if parent == node:
            return True
        if parent in edges and parent not in reached:
            reached.add(parent)
            frontier.extend(edges[parent])
    return False


# Up to 8 nodes, each with up to 4 parents: self-loops, repeated parents and
# parents that are no node (X, Y and any letter not drawn as a key).
_graphs = st.dictionaries(st.sampled_from("ABCDEFGH"),
                          st.lists(st.sampled_from("ABCDEFGHXY"), max_size=4), max_size=8)


@given(_graphs)
@settings(max_examples=500)
def test_inheritance_cycles_are_the_nodes_that_reach_themselves(edges):
    expected = [node for node in edges if _reaches_itself(edges, node)]
    assert model._inheritance_cycles(edges) == expected


_FIELDS = {InstanceVariable: "instance_variables", ValueDef: "values", CallableDef: "operations"}


@pytest.mark.parametrize("member,expected", [
    (InstanceVariable(Access.PRIVATE, False, "x", _NAT, "  "), "A.x: initialiser must not be empty"),
    (InstanceVariable(Access.PRIVATE, False, "x", _NAT, "1 "), "A.x: initialiser '1 ' does not read back as itself"),
    (ValueDef(Access.PRIVATE, "v", _NAT, ""), "A.v: value expression must not be empty"),
    (ValueDef(Access.PRIVATE, "v", _NAT, "undefined"),
     "A.v: value expression 'undefined' does not read back as itself"),
    (ValueDef(Access.PRIVATE, "v", _NAT, "\n1"), "A.v: value expression '\\n1' does not read back as itself"),
    (CallableDef(Access.PRIVATE, False, "op", (_NAT,), _NAT, ""), "A.op: body must not be empty"),
    (CallableDef(Access.PRIVATE, False, "op", (_NAT,), _NAT, "is not yet specified"),
     "A.op: body 'is not yet specified' does not read back as itself"),
    (CallableDef(Access.PRIVATE, False, "op", (_NAT,), _NAT, " p1"), "A.op: body ' p1' does not read back as itself"),
    (CallableDef(Access.PRIVATE, False, "op", (_NAT, _NAT), _NAT, None, ("p1", "p2")),
     "A.op: parameter names (p1, p2) read back as None"),
    (CallableDef(Access.PRIVATE, False, "op", (), _NAT, None, ()),
     "A.op: parameter names () read back as None"),
], ids=["blank-initialiser", "padded-initialiser", "empty-value", "skeleton-value", "padded-value",
        "empty-body", "skeleton-body", "padded-body", "placeholder-names", "no-names"])
def test_validate_model_refuses_text_with_a_second_spelling(member, expected):
    # each text prints as another text's spelling, or as source that does not parse
    built = VdmModel((VdmClass("A", **{_FIELDS[type(member)]: (member,)}),))
    assert [str(d) for d in validate_model(built)] == [f"error: {expected}"]
    try:
        back = parse_vdm(print_vdm(built)[0][1])
    except ParseFailure:
        back = None
    assert back != built


def _diagram_with(text, where):
    """A two-class diagram holding text as one type text, at where."""
    attributes = (UmlAttribute(Access.PRIVATE, False, "x", text if where == "attribute" else "nat"),)
    params = (text if where == "parameter" else "nat",)
    operations = (UmlOperation(Access.PUBLIC, False, "op", params, text if where == "return" else "nat"),)
    qualifier = Qualifier(text if where == "qualifier" else "nat")
    return UmlModel((UmlClass("A", attributes, operations), UmlClass("B")),
                    associations=(UmlAssociation("A", "B", "r", qualifier=qualifier),))


@pytest.mark.parametrize("where,text,expected", [
    ("attribute", "", "A.x: attribute type must not be empty"),
    ("attribute", "nat\nbool", "A.x: attribute type 'nat\\nbool' does not read back as itself"),
    ("attribute", "nat <<value>>", "A.x: attribute type 'nat <<value>>' does not read back as itself"),
    ("attribute", "  nat", "A.x: attribute type '  nat' does not read back as itself"),
    ("parameter", "nat, bool", "A.op: parameter type 'nat, bool' does not read back as itself"),
    ("parameter", "nat ", "A.op: parameter type 'nat ' does not read back as itself"),
    ("return", "nat\n", "A.op: return type 'nat\\n' does not read back as itself"),
    ("return", "set of <<A>>", "A.op: return type 'set of <<A>>' does not read back as itself"),
    ("qualifier", "nat\nbool", "A.r: qualifier type 'nat\\nbool' does not read back as itself"),
    ("qualifier", " nat", "A.r: qualifier type ' nat' does not read back as itself"),
], ids=["empty-attribute", "attribute-line-break", "attribute-marker", "padded-attribute", "parameter-comma",
        "padded-parameter", "padded-return", "return-marker", "qualifier-line-break", "padded-qualifier"])
def test_validate_uml_refuses_type_text_that_prints_as_other_text(where, text, expected):
    built = _diagram_with(text, where)
    assert [str(d) for d in validate_uml(built)] == [f"error: {expected}"]
    try:
        back = parse_puml(print_puml(built))
    except ParseFailure:
        back = None
    assert back != built
    assert validate_uml(_diagram_with("nat", where)) == []
