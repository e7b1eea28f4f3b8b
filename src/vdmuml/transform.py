"""The two translation passes between the VDM class model and the UML model.

vdm_to_uml maps classes, members and inheritance one-to-one and turns
instance variables whose types are shaped like object references into
associations; every other type is rendered as attribute text, elided
once its complexity exceeds the configured capacity. uml_to_vdm inverts
the mapping and refuses elided type text; source text a diagram drops is
None in its result, and only print_vdm spells the skeletons for it.
Loss is read off the diagram alone: a member is lossy exactly when its
diagram text is elided, and lossy_members and uml_to_vdm use one test.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import Diagnostic, ParseError, TranslationError
from .model import (
    ALGEBRAIC_TYPES,
    COLLECTION_TYPES,
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
    VdmType,
    named_type,
    type_children,
)
from .vdm_frontend import draw_type, parse_vdm_type, render_type


def complexity(t: VdmType) -> int:
    """Number of non-basic type nodes strictly below a compound root."""
    children = type_children(t)
    if not children:
        raise ValueError(f"complexity is only defined for compound types, not {t!r}")
    return sum(map(_weight, children))


def _weight(t: VdmType) -> int:
    own = 0 if isinstance(t, BasicType) else 1
    return own + sum(_weight(child) for child in type_children(t))


def capacity(t: VdmType, config: Config) -> int:
    """How much complexity a compound type may carry before elision."""
    if isinstance(t, MapType):
        return 2 * config.gamma0  # a map always has two sub-types
    if type(t) in COLLECTION_TYPES:
        return config.gamma0
    if type(t) in ALGEBRAIC_TYPES:
        return config.gamma1
    raise ValueError(f"capacity is only defined for compound types, not {t!r}")


def type_abstracts(t: VdmType, config: Config) -> bool:
    """True when t exceeds its capacity and draws in its elided form.

    The elided form may still spell out the whole type (set of T at
    gamma0 0), so loss itself is read off the text: is_elided_type_text.
    The test is complexity(t) > capacity(t, config), but the count stops
    as soon as it passes the capacity.
    """
    stack = list(type_children(t))
    if not stack:
        return False
    room = capacity(t, config)
    while stack and room >= 0:
        node = stack.pop()
        if not isinstance(node, BasicType):
            room -= 1
            stack += type_children(node)
    return room < 0


def abstract_type(t: VdmType, config: Config) -> str:
    """Diagram rendering of a type: verbatim while within capacity.

    Over-capacity products and unions collapse to n-1 '*' or '|'
    symbols. Over-capacity containers keep their outer constructor and
    replace each compound immediate sub-type with an elided marker;
    basic and plain named sub-types render verbatim.
    """
    if not type_abstracts(t, config):
        return render_type(t)
    if type(t) in ALGEBRAIC_TYPES:
        return _marker(t)
    return draw_type(t, lambda sub, _: _marker(sub))  # no marker needs grouping


# How a compound type draws where elision leaves only a marker, by
# constructor. A product or union repeats its symbol once per pair of
# neighbouring members, as an over-capacity one does on its own.
_MARKERS = {SetType: "set...", Set1Type: "set...", SeqType: "seq...", Seq1Type: "seq...",
            OptionalType: "[...]", MapType: "map...", ProductType: "*", UnionType: "|"}


def _marker(t: VdmType) -> str:
    marker = _MARKERS.get(type(t))
    if marker is None:
        return t.name  # a basic or named type draws verbatim
    return marker * (len(t.members) - 1) if type(t) in ALGEBRAIC_TYPES else marker


# ---------------------------------------------------------------------------
# Instance-variable classification


@dataclass(frozen=True, slots=True)
class AssociationPlan:
    """How an instance variable draws as an association."""

    target: str
    multiplicity: Multiplicity
    qualifier: Qualifier | None = None


def classify_instance_variable(var_type: VdmType,
                               class_names: frozenset[str] | set[str]) -> AssociationPlan | None:
    """Decide whether a variable of this type draws as an association.

    Object-reference shapes (a class reference, alone or under one
    optional/set/set1/seq/seq1 layer) become plain associations; a map
    whose range has such a shape becomes a qualified association keyed
    by the domain type. Everything else stays a class attribute (None).
    Only the type tree and the class-name set matter here.
    """
    shape = _reference_shape(var_type, class_names)
    if shape is not None:
        target, mult = shape
        return AssociationPlan(target, mult)
    if isinstance(var_type, MapType):
        shape = _reference_shape(var_type.range, class_names)
        if shape is not None:
            target, mult = shape
            qualifier = Qualifier(render_type(var_type.domain), unique=var_type.injective)
            return AssociationPlan(target, mult, qualifier)
    return None


# The one-layer wrapper around a class reference that each multiplicity
# stands for; ONE is the bare reference.
_WRAPPERS = {
    Multiplicity.OPT: OptionalType,
    Multiplicity.SET0: SetType,
    Multiplicity.SET1: Set1Type,
    Multiplicity.SEQ0: SeqType,
    Multiplicity.SEQ1: Seq1Type,
}
_WRAPPER_MULTIPLICITY = {wrapper: m for m, wrapper in _WRAPPERS.items()}


def _reference_shape(t: VdmType, class_names) -> tuple[str, Multiplicity] | None:
    if isinstance(t, NamedType) and t.name in class_names:
        return t.name, Multiplicity.ONE
    mult = _WRAPPER_MULTIPLICITY.get(type(t))
    if mult is not None and isinstance(t.inner, NamedType) and t.inner.name in class_names:
        return t.inner.name, mult
    return None


def multiplicity_to_type(m: Multiplicity, target: str) -> VdmType:
    """Type of the instance variable an association end maps back to."""
    ref = named_type(target)
    wrapper = _WRAPPERS.get(m)
    return ref if wrapper is None else wrapper(ref)


def _plan(iv: InstanceVariable, class_names) -> AssociationPlan | None:
    # Static variables belong to the class, not to instances, and an
    # association carries no static flag: keep them as attributes.
    if iv.is_static:
        return None
    return classify_instance_variable(iv.var_type, class_names)


# ---------------------------------------------------------------------------
# VDM -> UML


def vdm_to_uml(model: VdmModel, config: Config | None = None) -> UmlModel:
    """Translate a well-formed VdmModel into its diagram model."""
    config = config or Config()
    names = model.class_names()
    kept: dict[str, str] = {}

    def text(t: VdmType) -> str:
        """t drawn for the diagram, as the first equal text this call kept."""
        drawn = abstract_type(t, config)
        return kept.setdefault(drawn, drawn)

    classes: list[UmlClass] = []
    generalizations: list[UmlGeneralization] = []
    associations: list[UmlAssociation] = []
    for cls in model.classes:
        attributes: list[UmlAttribute] = []
        for v in cls.values:
            attributes.append(UmlAttribute(
                v.access, False, v.name, text(v.val_type),
                AttributeStereotype.VALUE,
            ))
        for td in cls.type_defs:
            attributes.append(UmlAttribute(
                td.access, False, td.name, text(td.definition),
                AttributeStereotype.TYPE,
            ))
        for iv in cls.instance_variables:
            plan = _plan(iv, names)
            if plan is not None:
                associations.append(UmlAssociation(
                    cls.name, plan.target, iv.name, iv.access,
                    plan.multiplicity, plan.qualifier,
                ))
            else:
                attributes.append(UmlAttribute(
                    iv.access, iv.is_static, iv.name, text(iv.var_type),
                    AttributeStereotype.INSTANCE_VARIABLE,
                ))
        operations: list[UmlOperation] = []
        for callables, stereotype in ((cls.operations, OperationStereotype.OPERATION),
                                      (cls.functions, OperationStereotype.FUNCTION)):
            for c in callables:
                operations.append(UmlOperation(
                    c.access, c.is_static, c.name,
                    tuple(map(text, c.param_types)),
                    text(c.return_type), stereotype,
                ))
        classes.append(UmlClass(cls.name, tuple(attributes), tuple(operations)))
        generalizations.extend(UmlGeneralization(cls.name, sup) for sup in cls.superclasses)
    return UmlModel(tuple(classes), tuple(generalizations), tuple(associations))


# ---------------------------------------------------------------------------
# UML -> VDM

# Elision leaves '...' in a marker, or a run of '*'/'|' standing where a
# type belongs: at either end of the text, after an opening bracket, a
# symbol or a type keyword, or before a closing bracket or 'to'. A
# product or union written out in full has a type on both sides of every
# symbol, so it never matches.
_ELIDED_RE = re.compile(
    r"\.\.\."
    r"|(?:\A|[\[(*|]|(?<![\w'])(?:of|map|inmap|to))\s*[*|]"
    r"|[*|]\s*(?:\Z|[\])]|to(?![\w']))"
)


def is_elided_type_text(text: str) -> bool:
    """True for renderings produced by over-capacity type elision."""
    if "*" not in text and "|" not in text and "..." not in text:
        return False  # _ELIDED_RE matches nothing else
    return _ELIDED_RE.search(text) is not None


def lossy_members(model: UmlModel) -> list[tuple[str, str, str]]:
    """(class, member, kind) triples whose diagram text is elided.

    kind is 'attribute' for attributes (values, type definitions and
    instance variables drawn in the class box) and 'operation' for
    operations and functions with an elided parameter or return type.
    uml_to_vdm refuses the elided text of each one.
    """
    out: list[tuple[str, str, str]] = []
    for cls in model.classes:
        for attr in cls.attributes:
            if is_elided_type_text(attr.type_text):
                out.append((cls.name, attr.name, "attribute"))
        for op in cls.operations:
            if any(map(is_elided_type_text, op.param_type_texts + (op.return_type_text,))):
                out.append((cls.name, op.name, "operation"))
    return out


def uml_to_vdm(model: UmlModel) -> VdmModel:
    """Translate a well-formed UmlModel back into a skeleton VdmModel.

    Attributes regain their member kind from their stereotype, and each
    association becomes an instance variable on its source class.
    Bodies, value expressions and parameter names are None; printing
    fills in parseable skeletons. Raises TranslationError naming every
    class member whose type text cannot be parsed back; validate_model
    decides whether the result is well-formed, a type's depth included.
    Each distinct type text is parsed once; members with equal text
    share its type.
    """
    problems: list[Diagnostic] = []
    parsed: dict[str, VdmType | str] = {}  # type text -> its type, or its refusal
    assoc_by_source: dict[str, list[UmlAssociation]] = {}
    for assoc in model.associations:
        assoc_by_source.setdefault(assoc.source, []).append(assoc)
    supers_by_child: dict[str, list[str]] = {}
    for gen in model.generalizations:
        supers_by_child.setdefault(gen.child, []).append(gen.parent)

    classes: list[VdmClass] = []
    for ucls in model.classes:
        supers = tuple(supers_by_child.get(ucls.name, ()))
        ivars: list[InstanceVariable] = []
        values: list[ValueDef] = []
        type_defs: list[TypeDef] = []
        callables: dict[OperationStereotype, list[CallableDef]] = {s: [] for s in OperationStereotype}
        for attr in ucls.attributes:
            ty = _back_type(attr.type_text, ucls.name, attr.name, problems, parsed)
            if ty is None:
                continue
            if attr.stereotype is AttributeStereotype.VALUE:
                values.append(ValueDef(attr.visibility, attr.name, ty))
            elif attr.stereotype is AttributeStereotype.TYPE:
                type_defs.append(TypeDef(attr.visibility, attr.name, ty))
            else:
                ivars.append(InstanceVariable(attr.visibility, attr.is_static, attr.name, ty))
        for op in ucls.operations:
            params = [_back_type(p, ucls.name, op.name, problems, parsed) for p in op.param_type_texts]
            ret = _back_type(op.return_type_text, ucls.name, op.name, problems, parsed)
            if ret is None or any(p is None for p in params):
                continue
            callable_def = CallableDef(op.visibility, op.is_static, op.name, tuple(params), ret)
            callables[op.stereotype].append(callable_def)
        for assoc in assoc_by_source.get(ucls.name, ()):
            base = multiplicity_to_type(assoc.multiplicity, assoc.target)
            if assoc.qualifier is not None:
                domain = _back_type(assoc.qualifier.type_text, ucls.name, assoc.role_name, problems, parsed)
                if domain is None:
                    continue
                var_type: VdmType = MapType(domain, base, assoc.qualifier.unique)
            else:
                var_type = base
            ivars.append(InstanceVariable(assoc.role_visibility, False, assoc.role_name, var_type))
        classes.append(VdmClass(
            ucls.name, supers, tuple(ivars), tuple(values), tuple(type_defs),
            tuple(callables[OperationStereotype.OPERATION]),
            tuple(callables[OperationStereotype.FUNCTION]),
        ))
    if problems:
        raise TranslationError(problems)
    return VdmModel(tuple(classes))


def _back_type(text: str, class_name: str, member_name: str, problems, parsed) -> VdmType | None:
    result = parsed.get(text)
    if result is None:
        result = parsed[text] = _parse_back(text)
    if isinstance(result, str):
        problems.append(Diagnostic(f"{class_name}.{member_name}", result))
        return None
    return result


def _parse_back(text: str) -> VdmType | str:
    """The type a diagram text stands for, or why the text is refused."""
    if is_elided_type_text(text):
        return f"abstracted type {text!r} is not back-translatable"
    if "--" in text or "/*" in text:  # never drawn, and the type parser would skip it
        return f"invalid type {text!r}: comments are not allowed in diagram type text"
    try:
        return parse_vdm_type(text)
    except ParseError as e:
        return f"invalid type {text!r}: {e.message}"


# ---------------------------------------------------------------------------
# Canonical form under the round trip


def canonicalize_model(model: VdmModel) -> VdmModel:
    """The form a model settles into after one trip through the diagram.

    Instance variables that stay attributes come before those that
    become associations, and initialisers, value expressions, bodies and
    parameter names become None. On models whose members all survive
    translation this equals uml_to_vdm(vdm_to_uml(m)) exactly. Members
    already in that form are kept as they are.
    """
    names = model.class_names()
    classes = []
    for cls in model.classes:
        plain: list[InstanceVariable] = []
        linked: list[InstanceVariable] = []
        for iv in cls.instance_variables:
            if iv.init_text is not None:
                iv = InstanceVariable(iv.access, iv.is_static, iv.name, iv.var_type)
            (plain if _plan(iv, names) is None else linked).append(iv)
        classes.append(VdmClass(
            cls.name,
            cls.superclasses,
            tuple(plain + linked),
            tuple(v if v.expr_text is None else ValueDef(v.access, v.name, v.val_type) for v in cls.values),
            cls.type_defs,
            tuple(map(_without_body, cls.operations)),
            tuple(map(_without_body, cls.functions)),
        ))
    return VdmModel(tuple(classes))


def _without_body(c: CallableDef) -> CallableDef:
    if c.body_text is None and c.param_names is None:
        return c
    return CallableDef(c.access, c.is_static, c.name, c.param_types, c.return_type)
