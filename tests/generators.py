"""Seeded random model generators for the round-trip suites.

gen_vdm_model builds models from the lossless subset: skeleton-friendly
bodies and member types that stay within the default capacities, so one
trip through the diagram and back must reproduce the canonical form.
gen_uml_model builds already-canonical diagram models (grouped member
order, grouped links) plus a Config whose capacities clear every type
they contain. type_trees is the Hypothesis strategy over type trees
that the frontend and transform properties share.
"""

import random

from hypothesis import strategies as st

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
    classify_instance_variable,
    complexity,
    type_abstracts,
)
from vdmuml.vdm_frontend import render_type

_BASICS = ("bool", "nat", "nat1", "int", "rat", "real", "char", "token")
_FREE_NAMES = ("Type", "Key", "Word2")  # never class names
_ACCESSES = (Access.PUBLIC, Access.PRIVATE, Access.PROTECTED)
_MULTS = tuple(Multiplicity)


def _leaf(rng, class_names, allow_class_ref=True):
    roll = rng.random()
    if roll < 0.5:
        return BasicType(rng.choice(_BASICS))
    if roll < 0.8 or not (allow_class_ref and class_names):
        return NamedType(rng.choice(_FREE_NAMES))
    return NamedType(rng.choice(sorted(class_names)))


type_trees = st.recursive(
    st.sampled_from(sorted(_BASICS)).map(BasicType)
    | st.sampled_from(["A", "B", "Type", "T1", "x'"]).map(NamedType),
    lambda child: st.one_of(
        child.map(SetType),
        child.map(Set1Type),
        child.map(SeqType),
        child.map(Seq1Type),
        child.map(OptionalType),
        st.builds(MapType, child, child, st.booleans()),
        st.lists(child, min_size=2, max_size=4).map(tuple).map(ProductType),
        st.lists(child, min_size=2, max_size=4).map(tuple).map(UnionType),
    ),
    max_leaves=12,
)


def gen_type(rng, class_names, depth=2, allow_class_ref=True):
    """Random type tree of bounded depth."""
    if depth <= 0 or rng.random() < 0.4:
        return _leaf(rng, class_names, allow_class_ref)
    kind = rng.randrange(8)
    sub = lambda: gen_type(rng, class_names, depth - 1, allow_class_ref)
    if kind == 0:
        return SetType(sub())
    if kind == 1:
        return Set1Type(sub())
    if kind == 2:
        return SeqType(sub())
    if kind == 3:
        return Seq1Type(sub())
    if kind == 4:
        return OptionalType(sub())
    if kind == 5:
        return MapType(sub(), sub(), injective=rng.random() < 0.5)
    members = tuple(sub() for _ in range(rng.randint(2, 3)))
    return ProductType(members) if kind == 6 else UnionType(members)


def enumerate_types():
    """Every type tree of depth <= 3 over two basics and two names, each once."""
    leaves = [BasicType("nat"), BasicType("bool"), NamedType("A"), NamedType("B")]
    pool = list(leaves)
    for _ in range(2):  # two growth rounds give every tree of depth <= 3
        grown = []
        for t in pool:
            grown.extend([SetType(t), Set1Type(t), SeqType(t), Seq1Type(t), OptionalType(t)])
        for left in pool:
            for right in pool:
                grown.append(MapType(left, right))
                grown.append(ProductType((left, right)))
                grown.append(UnionType((left, right)))
        seen = set(pool)
        for t in grown:
            if t not in seen:
                seen.add(t)
                pool.append(t)
    return pool


def gen_type_within_capacity(rng, class_names, config, allow_class_ref=True):
    """Random type whose diagram rendering never elides information."""
    for _ in range(30):
        t = gen_type(rng, class_names, depth=2, allow_class_ref=allow_class_ref)
        if not type_abstracts(t, config):
            return t
    return BasicType(rng.choice(_BASICS))


def gen_attribute_type(rng, class_names, config):
    """Within-capacity type that classifies as an attribute, not a link."""
    for _ in range(30):
        t = gen_type_within_capacity(rng, class_names, config)
        if not isinstance(classify_instance_variable(t, class_names), AssociationPlan):
            return t
    return BasicType(rng.choice(_BASICS))


def gen_association_type(rng, class_names, config):
    """A type shaped like one of the association forms (never lossy)."""
    target = NamedType(rng.choice(sorted(class_names)))
    shape = rng.randrange(7)
    wrapped = (
        target,
        OptionalType(target),
        SetType(target),
        Set1Type(target),
        SeqType(target),
        Seq1Type(target),
    )[min(shape, 5)]
    if shape == 6:
        domain = gen_type_within_capacity(rng, class_names, config)
        return MapType(domain, wrapped if rng.random() < 0.7 else target,
                       injective=rng.random() < 0.5)
    return wrapped


def gen_vdm_model(rng: random.Random, config: Config | None = None) -> VdmModel:
    """Random model from the subset on which the round trip is lossless."""
    config = config or Config()
    n = rng.randint(1, 8)
    names = [f"C{i + 1}" for i in range(n)]
    name_set = frozenset(names)
    classes = []
    for i, name in enumerate(names):
        supers = tuple(
            parent for parent in names[:i] if rng.random() < 0.15
        )
        ivars, values, type_defs, operations, functions = [], [], [], [], []
        counter = 0
        for _ in range(rng.randint(0, 10)):
            counter += 1
            member = f"m{counter}"
            access = rng.choice(_ACCESSES)
            kind = rng.randrange(6)
            if kind == 0:
                values.append(ValueDef(
                    access, member,
                    gen_type_within_capacity(rng, name_set, config),
                    rng.choice((None, "1 + 2", "{}", '"text"')),
                ))
            elif kind == 1:
                type_defs.append(TypeDef(
                    access, member, gen_type_within_capacity(rng, name_set, config),
                ))
            elif kind == 2:
                ivars.append(InstanceVariable(
                    access, rng.random() < 0.3, member,
                    gen_attribute_type(rng, name_set, config),
                    rng.choice((None, "0", "[1, 2]")),
                ))
            elif kind == 3:
                ivars.append(InstanceVariable(
                    access, False, member,
                    gen_association_type(rng, name_set, config),
                ))
            else:
                params = tuple(
                    gen_type_within_capacity(rng, name_set, config)
                    for _ in range(rng.randint(0, 3))
                )
                ret = gen_type_within_capacity(rng, name_set, config)
                body = rng.choice((None, "( skip )", "p1"))
                if kind == 4:
                    operations.append(CallableDef(
                        access, rng.random() < 0.3, member, params, ret, body,
                    ))
                else:
                    functions.append(CallableDef(
                        access, rng.random() < 0.3, member, params, ret, body,
                    ))
        classes.append(VdmClass(
            name, supers, tuple(ivars), tuple(values), tuple(type_defs),
            tuple(operations), tuple(functions),
        ))
    return VdmModel(tuple(classes))


def _max_complexity(t) -> int:
    """Largest complexity of any compound node in the tree."""
    worst = complexity(t) if type_children(t) else 0  # only compound types have children
    for child in type_children(t):
        worst = max(worst, _max_complexity(child))
    return worst


def gen_uml_model(rng: random.Random) -> tuple[UmlModel, Config]:
    """Random canonical diagram model plus capacities that clear it."""
    wide = Config(gamma0=50, gamma1=50)
    n = rng.randint(1, 8)
    names = [f"C{i + 1}" for i in range(n)]
    name_set = frozenset(names)
    classes = []
    generalizations = []
    associations = []
    worst = 1
    for i, name in enumerate(names):
        for parent in names[:i]:
            if rng.random() < 0.15:
                generalizations.append(UmlGeneralization(child=name, parent=parent))
        attrs_value, attrs_type, attrs_ivar, ops, fns = [], [], [], [], []
        class_assocs = []
        counter = 0
        for _ in range(rng.randint(0, 10)):
            counter += 1
            member = f"m{counter}"
            access = rng.choice(_ACCESSES)
            kind = rng.randrange(7)
            if kind in (0, 1, 2):
                t = gen_type(rng, name_set, depth=2)
                worst = max(worst, _max_complexity(t))
                if kind == 0:
                    attrs_value.append(UmlAttribute(
                        access, False, member, render_type(t), AttributeStereotype.VALUE))
                elif kind == 1:
                    attrs_type.append(UmlAttribute(
                        access, False, member, render_type(t), AttributeStereotype.TYPE))
                else:
                    static = rng.random() < 0.3
                    if not static:
                        t = gen_attribute_type(rng, name_set, wide)
                        worst = max(worst, _max_complexity(t))
                    attrs_ivar.append(UmlAttribute(
                        access, static, member, render_type(t),
                        AttributeStereotype.INSTANCE_VARIABLE))
            elif kind == 3:
                mult = rng.choice(_MULTS)
                qualifier = None
                if rng.random() < 0.4:
                    qt = gen_type(rng, name_set, depth=1)
                    worst = max(worst, _max_complexity(qt))
                    qualifier = Qualifier(render_type(qt), unique=rng.random() < 0.5)
                class_assocs.append(UmlAssociation(
                    name, rng.choice(names), member, access, mult, qualifier))
            else:
                params = []
                for _ in range(rng.randint(0, 3)):
                    pt = gen_type(rng, name_set, depth=2)
                    worst = max(worst, _max_complexity(pt))
                    params.append(render_type(pt))
                rt = gen_type(rng, name_set, depth=2)
                worst = max(worst, _max_complexity(rt))
                stereo = (OperationStereotype.OPERATION if kind in (4, 5)
                          else OperationStereotype.FUNCTION)
                op = UmlOperation(access, rng.random() < 0.3, member,
                                  tuple(params), render_type(rt), stereo)
                (ops if stereo is OperationStereotype.OPERATION else fns).append(op)
        classes.append(UmlClass(
            name, tuple(attrs_value + attrs_type + attrs_ivar), tuple(ops + fns)))
        associations.extend(class_assocs)
    config = Config(gamma0=max(1, worst), gamma1=max(1, worst))
    return UmlModel(tuple(classes), tuple(generalizations), tuple(associations)), config
