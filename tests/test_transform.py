"""Translation passes, classification, and type elision arithmetic."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from generators import enumerate_types, type_trees
import vdmuml.transform
from vdmuml.errors import TranslationError
from vdmuml.model import (
    Access,
    AttributeStereotype,
    BasicType,
    CallableDef,
    Config,
    InstanceVariable,
    MapType,
    Multiplicity,
    NamedType,
    OperationStereotype,
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
    type_children,
)
from vdmuml.transform import (
    AssociationPlan,
    abstract_type,
    canonicalize_model,
    capacity,
    classify_instance_variable,
    complexity,
    is_elided_type_text,
    lossy_members,
    multiplicity_to_type,
    type_abstracts,
    uml_to_vdm,
    vdm_to_uml,
)
from vdmuml.vdm_frontend import parse_vdm, parse_vdm_type, render_type

NAT = BasicType("nat")
A, B, C, TY = NamedType("A"), NamedType("B"), NamedType("C"), NamedType("Type")
CLASSES = frozenset({"A", "B", "C"})


# ---------------------------------------------------------------------------
# complexity / capacity, checked against an independent node walk


def _oracle_children(t):
    if isinstance(t, (SetType, Set1Type, SeqType, Seq1Type, OptionalType)):
        return [t.inner]
    if isinstance(t, MapType):
        return [t.domain, t.range]
    if isinstance(t, (ProductType, UnionType)):
        return list(t.members)
    return []


def _oracle_count(t):
    """Non-basic nodes strictly below the root, by iterative walk."""
    count = 0
    stack = _oracle_children(t)
    while stack:
        node = stack.pop()
        if not isinstance(node, BasicType):
            count += 1
        stack.extend(_oracle_children(node))
    return count


@pytest.mark.parametrize(
    "t,expected",
    [
        (SetType(B), 1),
        (MapType(TY, SeqType(B)), 3),
        (SetType(NAT), 0),
        (MapType(NAT, SetType(SeqType(SeqType(B)))), 4),
        (ProductType((A, B, NAT)), 2),
        (OptionalType(UnionType((A, SetType(NAT)))), 3),
    ],
)
def test_complexity_matches_node_walk(t, expected):
    assert _oracle_count(t) == expected
    assert complexity(t) == expected


def test_complexity_rejects_leaves():
    with pytest.raises(ValueError):
        complexity(NAT)
    with pytest.raises(ValueError):
        complexity(A)


def test_capacity_table():
    cfg = Config(gamma0=2, gamma1=1)
    assert capacity(MapType(NAT, NAT), cfg) == 4
    assert capacity(SetType(NAT), cfg) == 2
    assert capacity(Set1Type(NAT), cfg) == 2
    assert capacity(SeqType(NAT), cfg) == 2
    assert capacity(OptionalType(NAT), cfg) == 2
    assert capacity(ProductType((NAT, NAT)), cfg) == 1
    assert capacity(UnionType((NAT, NAT)), cfg) == 1


def test_capacity_rejects_leaves():
    with pytest.raises(ValueError, match="only defined for compound types"):
        capacity(NAT, Config())
    with pytest.raises(ValueError, match="only defined for compound types"):
        capacity(A, Config())


# ---------------------------------------------------------------------------
# abstract_type


def test_abstract_product_uses_symbol_per_gap():
    cfg = Config(gamma1=1)
    assert abstract_type(ProductType((A, B, C)), cfg) == "**"
    assert abstract_type(UnionType((A, B, C)), cfg) == "||"


def test_abstract_map_keeps_basic_domain():
    # complexity 4 exceeds 2*gamma0 = 2, so the set collapses to a marker
    cfg = Config(gamma0=1)
    t = MapType(NAT, SetType(SeqType(SeqType(B))))
    assert abstract_type(t, cfg) == "map nat to set..."
    # at gamma0 = 2 the capacity is 4, which complexity 4 does not exceed
    assert abstract_type(t, Config(gamma0=2)) == render_type(t)


def test_abstract_set_below_capacity_renders_verbatim():
    assert abstract_type(SetType(B), Config(gamma0=2)) == "set of B"


def test_default_capacities_keep_qualified_collection_example():
    t = MapType(TY, SeqType(B), injective=True)
    assert abstract_type(t, Config()) == "inmap Type to seq of B"


def test_abstract_markers_per_subtype_kind():
    cfg = Config(gamma0=0)
    assert abstract_type(SetType(SetType(NAT)), cfg) == "set of set..."
    assert abstract_type(Seq1Type(SeqType(NAT)), cfg) == "seq1 of seq..."
    assert abstract_type(OptionalType(OptionalType(NAT)), cfg) == "[[...]]"
    assert abstract_type(SetType(MapType(NAT, NAT)), cfg) == "set of map..."
    assert abstract_type(SeqType(ProductType((A, B, C))), cfg) == "seq of **"
    assert abstract_type(MapType(UnionType((A, B)), SetType(NAT), True), cfg) == "inmap | to set..."


def test_abstraction_monotone_in_capacities():
    t = MapType(TY, SeqType(SetType(B)))
    for g0 in range(5):
        for smaller in range(g0 + 1):
            if type_abstracts(t, Config(gamma0=g0)):
                assert type_abstracts(t, Config(gamma0=smaller))


@given(type_trees.filter(type_children), st.integers(0, 6), st.integers(0, 6))
@settings(max_examples=300)
def test_type_abstracts_is_complexity_over_capacity(t, g0, g1):
    cfg = Config(gamma0=g0, gamma1=g1)
    assert type_abstracts(t, cfg) == (complexity(t) > capacity(t, cfg))


def test_leaves_never_abstract():
    for t in (NAT, BasicType("char"), A, TY):
        for g0 in range(3):
            for g1 in range(3):
                assert not type_abstracts(t, Config(gamma0=g0, gamma1=g1))


# ---------------------------------------------------------------------------
# classification


def test_classify_rule_shapes():
    assert classify_instance_variable(B, CLASSES) == AssociationPlan("B", Multiplicity.ONE)
    assert classify_instance_variable(OptionalType(B), CLASSES) == AssociationPlan("B", Multiplicity.OPT)
    assert classify_instance_variable(SetType(B), CLASSES) == AssociationPlan("B", Multiplicity.SET0)
    assert classify_instance_variable(Set1Type(C), CLASSES) == AssociationPlan("C", Multiplicity.SET1)
    assert classify_instance_variable(SeqType(B), CLASSES) == AssociationPlan("B", Multiplicity.SEQ0)
    assert classify_instance_variable(Seq1Type(C), CLASSES) == AssociationPlan("C", Multiplicity.SEQ1)


def test_classify_qualified_shapes():
    plan = classify_instance_variable(MapType(TY, SeqType(B), injective=True), CLASSES)
    assert plan == AssociationPlan("B", Multiplicity.SEQ0, Qualifier("Type", unique=True))
    plan = classify_instance_variable(MapType(TY, B), CLASSES)
    assert plan == AssociationPlan("B", Multiplicity.ONE, Qualifier("Type", unique=False))


def test_classify_qualifier_may_contain_class_reference():
    # a class name is an admissible qualifier, so the link is kept
    plan = classify_instance_variable(MapType(A, B), CLASSES)
    assert plan == AssociationPlan("B", Multiplicity.ONE, Qualifier("A", unique=False))


def test_classify_non_shapes_become_attributes():
    # enumerate near-miss shapes: everything that is not exactly a rule
    # shape must stay an attribute
    for t in (
        SetType(SetType(B)),          # nested collection
        NamedType("Missing"),         # not a class
        SetType(NamedType("Missing")),
        SetType(NAT),
        OptionalType(SetType(B)),     # optional of collection
        MapType(TY, SetType(SetType(B))),  # range not a rule shape
        MapType(TY, NAT),
        ProductType((B, C)),          # products never link
        UnionType((B, C)),
        SeqType(OptionalType(B)),
    ):
        assert classify_instance_variable(t, CLASSES) is None


def test_classification_ignores_names_and_access():
    # only the type tree and the class-name set matter
    t = Set1Type(B)
    plans = {
        classify_instance_variable(t, CLASSES)
        for _ in range(3)
    }
    assert plans == {AssociationPlan("B", Multiplicity.SET1)}
    assert classify_instance_variable(t, frozenset()) is None


@pytest.mark.parametrize(
    "mult,expected",
    [
        (Multiplicity.ONE, B),
        (Multiplicity.OPT, OptionalType(B)),
        (Multiplicity.SET0, SetType(B)),
        (Multiplicity.SET1, Set1Type(B)),
        (Multiplicity.SEQ0, SeqType(B)),
        (Multiplicity.SEQ1, Seq1Type(B)),
    ],
)
def test_multiplicity_to_type_table(mult, expected):
    assert multiplicity_to_type(mult, "B") == expected


def test_multiplicity_and_shape_are_inverse():
    for mult in Multiplicity:
        t = multiplicity_to_type(mult, "B")
        plan = classify_instance_variable(t, CLASSES)
        assert plan == AssociationPlan("B", mult)


# ---------------------------------------------------------------------------
# vdm_to_uml


def _model_ab(*ivars):
    return VdmModel((VdmClass("A", instance_variables=tuple(ivars)), VdmClass("B")))


def test_forward_reference_becomes_association():
    model = _model_ab(InstanceVariable(Access.PRIVATE, False, "assoc1", B))
    uml = vdm_to_uml(model, Config())
    assert uml.associations == (UmlAssociation("A", "B", "assoc1"),)
    assert uml.classes[0].attributes == ()


def test_forward_map_becomes_qualified_association():
    model = _model_ab(InstanceVariable(Access.PRIVATE, False, "quali1", MapType(TY, B)))
    uml = vdm_to_uml(model, Config())
    assert uml.associations[0].qualifier == Qualifier("Type", unique=False)


def test_forward_non_reference_stays_attribute():
    model = _model_ab(InstanceVariable(Access.PRIVATE, False, "v", SetType(NAT)))
    uml = vdm_to_uml(model, Config())
    assert uml.associations == ()
    assert uml.classes[0].attributes[0].type_text == "set of nat"


def test_forward_ordered_collection_multiplicity():
    model = VdmModel((
        VdmClass("A", instance_variables=(InstanceVariable(Access.PRIVATE, False, "v", Seq1Type(C)),)),
        VdmClass("C"),
    ))
    uml = vdm_to_uml(model, Config())
    assert uml.associations[0].multiplicity is Multiplicity.SEQ1


def test_forward_static_reference_stays_attribute():
    model = _model_ab(InstanceVariable(Access.PRIVATE, True, "shared", B))
    uml = vdm_to_uml(model, Config())
    assert uml.associations == ()
    attr = uml.classes[0].attributes[0]
    assert attr.is_static and attr.type_text == "B"


def test_forward_access_and_static_carry_over():
    model = VdmModel((VdmClass(
        "A",
        values=(ValueDef(Access.PUBLIC, "v", NAT, "1"),),
        type_defs=(TypeDef(Access.PROTECTED, "T", NAT),),
        operations=(CallableDef(Access.PUBLIC, True, "op", (NAT,), NAT),),
        functions=(CallableDef(Access.PRIVATE, False, "f", (), NAT),),
    ),))
    uml = vdm_to_uml(model, Config())
    cls = uml.classes[0]
    assert cls.attributes[0].visibility is Access.PUBLIC
    assert cls.attributes[1].visibility is Access.PROTECTED
    assert cls.operations[0].is_static and cls.operations[0].visibility is Access.PUBLIC
    assert cls.operations[1].stereotype is OperationStereotype.FUNCTION


def test_forward_generalizations_follow_superclasses():
    model = VdmModel((VdmClass("A"), VdmClass("B", superclasses=("A",))))
    uml = vdm_to_uml(model, Config())
    assert uml.generalizations == (UmlGeneralization(child="B", parent="A"),)


def test_forward_counts_preserved():
    model = VdmModel((
        VdmClass(
            "A",
            instance_variables=(
                InstanceVariable(Access.PRIVATE, False, "x", NAT),
                InstanceVariable(Access.PRIVATE, False, "link", B),
            ),
            values=(ValueDef(Access.PRIVATE, "v", NAT, "1"),),
            type_defs=(TypeDef(Access.PRIVATE, "T", NAT),),
            operations=(CallableDef(Access.PRIVATE, False, "op", (), NAT),),
            functions=(CallableDef(Access.PRIVATE, False, "f", (), NAT),),
        ),
        VdmClass("B"),
    ))
    uml = vdm_to_uml(model, Config())
    cls = uml.classes[0]
    vdm_members = 2 + 1 + 1  # ivars + values + type defs
    assert len(cls.attributes) + len([a for a in uml.associations if a.source == "A"]) == vdm_members
    assert len(cls.operations) == 2


# ---------------------------------------------------------------------------
# uml_to_vdm


def test_backward_association_becomes_instance_variable():
    uml = UmlModel(
        classes=(UmlClass("A"), UmlClass("B")),
        associations=(UmlAssociation("A", "B", "assoc1"),),
    )
    model = uml_to_vdm(uml)
    assert model.classes[0].instance_variables == (
        InstanceVariable(Access.PRIVATE, False, "assoc1", B),
    )


def test_backward_qualified_association_composes_map():
    uml = UmlModel(
        classes=(UmlClass("A"), UmlClass("B")),
        associations=(
            UmlAssociation("A", "B", "quali1", Access.PRIVATE, Multiplicity.SEQ0,
                           Qualifier("Type", unique=True)),
        ),
    )
    iv = uml_to_vdm(uml).classes[0].instance_variables[0]
    assert iv.var_type == MapType(TY, SeqType(B), injective=True)
    assert render_type(iv.var_type) == "inmap Type to seq of B"


def test_backward_stereotypes_pick_member_kind():
    uml = UmlModel((UmlClass("A", attributes=(
        UmlAttribute(Access.PUBLIC, False, "type1", "nat", AttributeStereotype.TYPE),
        UmlAttribute(Access.PRIVATE, False, "val1", "real", AttributeStereotype.VALUE),
        UmlAttribute(Access.PRIVATE, False, "x", "seq of char"),
    )),))
    cls = uml_to_vdm(uml).classes[0]
    assert cls.type_defs == (TypeDef(Access.PUBLIC, "type1", NAT),)
    assert cls.values == (ValueDef(Access.PRIVATE, "val1", BasicType("real")),)
    assert cls.instance_variables[0].var_type == SeqType(BasicType("char"))


def test_backward_operations_are_skeletons():
    uml = UmlModel((UmlClass("A", operations=(
        UmlOperation(Access.PUBLIC, False, "op", ("nat", "B"), "bool"),
        UmlOperation(Access.PRIVATE, True, "f", (), "nat", OperationStereotype.FUNCTION),
    )),))
    cls = uml_to_vdm(uml).classes[0]
    assert cls.operations[0] == CallableDef(Access.PUBLIC, False, "op", (NAT, B), BasicType("bool"))
    assert cls.functions[0].body_text is None and cls.functions[0].is_static


def test_backward_elided_text_is_refused():
    for text in ("**", "|", "set of set...", "map nat to **", "[...]",
                 "[*]", "[|]", "map * to K", "inmap K to |"):
        assert is_elided_type_text(text)
        uml = UmlModel((UmlClass("A", attributes=(
            UmlAttribute(Access.PRIVATE, False, "x", text),)),))
        with pytest.raises(TranslationError) as exc:
            uml_to_vdm(uml)
        problem = exc.value.problems[0]
        assert problem.subject == "A.x"
        assert "not back-translatable" in problem.message


def test_backward_bad_type_text_names_member():
    uml = UmlModel((UmlClass("K", operations=(
        UmlOperation(Access.PRIVATE, False, "op", ("seq of",), "nat"),)),))
    with pytest.raises(TranslationError) as exc:
        uml_to_vdm(uml)
    assert exc.value.problems[0].subject == "K.op"


def test_translation_error_text_is_its_problem_lines():
    uml = UmlModel((UmlClass("A", attributes=(
        UmlAttribute(Access.PRIVATE, False, "x", "**"), UmlAttribute(Access.PRIVATE, False, "y", "[*]"))),))
    with pytest.raises(TranslationError) as exc:
        uml_to_vdm(uml)
    assert len(exc.value.problems) == 2
    assert str(exc.value) == "\n".join(str(problem) for problem in exc.value.problems)
    assert str(exc.value).splitlines()[0].startswith("error: A.x: ")


def test_backward_parses_each_distinct_text_once(monkeypatch):
    calls: list[str] = []

    def counting(text):
        calls.append(text)
        return parse_vdm_type(text)

    monkeypatch.setattr(vdmuml.transform, "parse_vdm_type", counting)
    uml = UmlModel(
        classes=(
            UmlClass("A", attributes=(
                UmlAttribute(Access.PRIVATE, False, "x", "seq of nat"),
                UmlAttribute(Access.PRIVATE, False, "y", "nat"),
            ), operations=(UmlOperation(Access.PUBLIC, False, "op", ("seq of nat", "nat"), "nat"),)),
            UmlClass("B", attributes=(UmlAttribute(Access.PRIVATE, False, "z", "seq of nat"),)),
        ),
        associations=(UmlAssociation("B", "A", "r", Access.PRIVATE, Multiplicity.ONE, Qualifier("nat")),),
    )
    model = uml_to_vdm(uml)
    assert sorted(calls) == ["nat", "seq of nat"]
    a, b = model.classes
    assert a.instance_variables[0].var_type is b.instance_variables[0].var_type
    assert a.operations[0].param_types == (SeqType(NAT), NAT)


def test_leaves_are_shared_across_parses_and_translations():
    # one NamedType per name, from any parse, type text or association end
    first = parse_vdm("class A\ninstance variables\nx : Shared;\nend A\n")
    second = parse_vdm("class B\nvalues\nv : set of Shared = {};\nend B\n")
    back = uml_to_vdm(UmlModel(
        classes=(UmlClass("C", attributes=(UmlAttribute(Access.PRIVATE, False, "y", "seq of Shared"),)),
                 UmlClass("Shared")),
        associations=(UmlAssociation("C", "Shared", "r", multiplicity=Multiplicity.SET0),
                      UmlAssociation("C", "Shared", "q", qualifier=Qualifier("Shared"))),
    ))
    types = [first.classes[0].instance_variables[0].var_type, second.classes[0].values[0].val_type,
             *(iv.var_type for iv in back.classes[0].instance_variables)]
    named = []
    while types:
        t = types.pop()
        types += type_children(t)
        if isinstance(t, NamedType):
            named.append(t)
    assert len(named) == 6  # x, v, y and r name Shared once each, q twice
    assert len({id(t) for t in named}) == 1


def test_backward_shared_refused_texts_give_one_problem_per_member():
    uml = UmlModel((
        UmlClass("A", attributes=(
            UmlAttribute(Access.PRIVATE, False, "x", "seq of"),
            UmlAttribute(Access.PRIVATE, False, "y", "**"),
            UmlAttribute(Access.PRIVATE, False, "z", "nat"),
            UmlAttribute(Access.PRIVATE, False, "c", "set of /* gone */ bool"),
        ), operations=(UmlOperation(Access.PUBLIC, False, "op", ("seq of",), "nat"),)),
        UmlClass("B", attributes=(UmlAttribute(Access.PRIVATE, False, "w", "**"),)),
    ))
    with pytest.raises(TranslationError) as exc:
        uml_to_vdm(uml)
    assert [(p.subject, p.message) for p in exc.value.problems] == [
        ("A.x", "invalid type 'seq of': expected a type"),
        ("A.y", "abstracted type '**' is not back-translatable"),
        ("A.c", "invalid type 'set of /* gone */ bool': comments are not allowed in diagram type text"),
        ("A.op", "invalid type 'seq of': expected a type"),
        ("B.w", "abstracted type '**' is not back-translatable"),
    ]


def test_valid_type_texts_are_not_elided():
    for text in ("A * B", "nat | bool", "set of nat", "map nat to seq of char",
                 "(A * B) * C", "map A * B to C", "Prof * B", "map A * token to B",
                 "set of A..B"):  # '..' is no marker: only '...', '*' or '|' can be one
        assert not is_elided_type_text(text)


def test_elided_text_is_exactly_what_elision_changes():
    # over every type tree of depth <= 3 and capacities 0..3, a diagram
    # text is elided exactly when it differs from the verbatim rendering
    configs = [Config(gamma0=g0, gamma1=g1) for g0 in range(4) for g1 in range(4)]
    checked = 0
    for t in enumerate_types():
        verbatim = render_type(t)
        assert not is_elided_type_text(verbatim), verbatim
        for cfg in configs:
            text = abstract_type(t, cfg)
            assert is_elided_type_text(text) == (text != verbatim), (verbatim, text, cfg)
            checked += 1
    assert checked == 16 * 15_916


def test_backward_collects_all_problems():
    uml = UmlModel((UmlClass("A", attributes=(
        UmlAttribute(Access.PRIVATE, False, "x", "**"),
        UmlAttribute(Access.PRIVATE, False, "y", "||"),
    )),))
    with pytest.raises(TranslationError) as exc:
        uml_to_vdm(uml)
    assert [p.subject for p in exc.value.problems] == ["A.x", "A.y"]


# ---------------------------------------------------------------------------
# canonicalization and loss reporting


def test_canonicalize_orders_and_strips():
    model = VdmModel((
        VdmClass(
            "A",
            instance_variables=(
                InstanceVariable(Access.PRIVATE, False, "link", B, "new B()"),
                InstanceVariable(Access.PRIVATE, False, "x", NAT, "0"),
            ),
            values=(ValueDef(Access.PRIVATE, "v", NAT, "41 + 1"),),
            operations=(CallableDef(Access.PRIVATE, False, "op", (), NAT, "( skip )"),),
        ),
        VdmClass("B"),
    ))
    canon = canonicalize_model(model)
    names = [iv.name for iv in canon.classes[0].instance_variables]
    assert names == ["x", "link"]  # attributes before links
    assert all(iv.init_text is None for iv in canon.classes[0].instance_variables)
    assert canon.classes[0].values[0].expr_text is None
    assert canon.classes[0].operations[0].body_text is None
    assert canonicalize_model(canon) == canon


def test_lossy_members_lists_kinds():
    deep = ProductType((A, B, C))
    model = VdmModel((
        VdmClass(
            "A",
            instance_variables=(InstanceVariable(Access.PRIVATE, False, "x", deep),),
            values=(ValueDef(Access.PRIVATE, "v", deep, "undefined"),),
            operations=(CallableDef(Access.PRIVATE, False, "op", (deep,), NAT),),
        ),
    ))
    out = lossy_members(vdm_to_uml(model, Config(gamma1=1)))
    assert ("A", "x", "attribute") in out
    assert ("A", "v", "attribute") in out
    assert ("A", "op", "operation") in out
    assert lossy_members(vdm_to_uml(model, Config(gamma1=5))) == []


# ---------------------------------------------------------------------------
# invariants over generated models


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_roundtrip_fixed_point_on_lossless_models(seed):
    import random

    from generators import gen_vdm_model

    model = gen_vdm_model(random.Random(seed))
    back = uml_to_vdm(vdm_to_uml(model, Config()))
    assert back == canonicalize_model(model)


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_uml_idempotence_on_generated_models(seed):
    import random

    from generators import gen_uml_model

    uml, config = gen_uml_model(random.Random(seed))
    assert vdm_to_uml(uml_to_vdm(uml), config) == uml


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_counts_and_flags_preserved_by_forward_translation(seed):
    import random

    from generators import gen_vdm_model

    model = gen_vdm_model(random.Random(seed))
    uml = vdm_to_uml(model, Config())
    assert len(uml.classes) == len(model.classes)
    assoc_count = {c.name: 0 for c in model.classes}
    for assoc in uml.associations:
        assoc_count[assoc.source] += 1
    for cls, ucls in zip(model.classes, uml.classes):
        members = len(cls.instance_variables) + len(cls.values) + len(cls.type_defs)
        assert len(ucls.attributes) + assoc_count[cls.name] == members
        assert len(ucls.operations) == len(cls.operations) + len(cls.functions)
        vdm_flags = {m.name: (m.access, getattr(m, "is_static", False)) for m in cls.members()}
        for attr in ucls.attributes:
            assert vdm_flags[attr.name] == (attr.visibility, attr.is_static)
        for op in ucls.operations:
            assert vdm_flags[op.name] == (op.visibility, op.is_static)
    for assoc in uml.associations:
        source = next(c for c in model.classes if c.name == assoc.source)
        iv = next(v for v in source.instance_variables if v.name == assoc.role_name)
        assert iv.access == assoc.role_visibility and not iv.is_static
