"""Core data models: a VDM++ class subset and a UML class-diagram model.

Both models are plain immutable trees built from slotted frozen
dataclasses, so equality is structural and instances are safe to share
between threads. Having no __dict__, they take no attribute beyond their
fields. Parses and translations share leaves across a process: one
BasicType per name (BASIC_TYPES) and one NamedType per name (named_type,
a bounded cache). Both parsers take every name they keep through
named_type too, so a name is one string, its leaf's, wherever it occurs.
Code may build its own, so compare values with ==, never with is.
Validation never raises; it returns a list of Diagnostic values so a
caller can report every problem in one pass.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

from .errors import Diagnostic

BASIC_TYPE_NAMES = frozenset(
    {"bool", "nat", "nat1", "int", "rat", "real", "char", "token"}
)

# Reserved words of the VDM++ subset. A class, member or role named after
# one would print as source that does not parse.
KEYWORDS = BASIC_TYPE_NAMES | frozenset({
    "class", "end", "is", "subclass", "of", "values", "types", "instance",
    "variables", "operations", "functions", "thread", "sync", "traces",
    "public", "private", "protected", "static", "set", "set1", "seq", "seq1",
    "map", "inmap", "to", "inv", "pre", "post",
})

# Identifier syntax of both notations; WORD_END makes a keyword match whole.
_WORD_CHARS = "A-Za-z0-9_'"
WORD = f"[A-Za-z_][{_WORD_CHARS}]*"
WORD_END = f"(?![{_WORD_CHARS}])"
_IDENTIFIER_RE = re.compile(WORD + r"\Z")


class Access(Enum):
    """Member visibility. Unspecified access always means PRIVATE."""

    PUBLIC = "public"
    PRIVATE = "private"
    PROTECTED = "protected"


# ---------------------------------------------------------------------------
# VDM types


@dataclass(frozen=True, slots=True)
class BasicType:
    """One of the built-in basic types, such as nat or bool, by name."""

    name: str

    def __post_init__(self):
        if self.name not in BASIC_TYPE_NAMES:
            raise ValueError(f"not a basic type: {self.name!r}")


@dataclass(frozen=True, slots=True)
class NamedType:
    """Reference to a class or a user-defined type, by name.

    Whether the name denotes a class is only decidable against a whole
    model, so the distinction is resolved by the translator, not here.
    """

    name: str


@dataclass(frozen=True, slots=True)
class SetType:
    """set of inner: finite sets, the empty set included."""

    inner: VdmType


@dataclass(frozen=True, slots=True)
class Set1Type:
    """set1 of inner: non-empty finite sets."""

    inner: VdmType


@dataclass(frozen=True, slots=True)
class SeqType:
    """seq of inner: finite sequences, the empty one included."""

    inner: VdmType


@dataclass(frozen=True, slots=True)
class Seq1Type:
    """seq1 of inner: non-empty finite sequences."""

    inner: VdmType


@dataclass(frozen=True, slots=True)
class OptionalType:
    """[inner]: a value of inner, or nil."""

    inner: VdmType


@dataclass(frozen=True, slots=True)
class MapType:
    """map domain to range; inmap, one-to-one, when injective."""

    domain: VdmType
    range: VdmType
    injective: bool = False


@dataclass(frozen=True, slots=True)
class ProductType:
    """Tuples with one component per member type, written with '*'."""

    members: tuple[VdmType, ...]

    def __post_init__(self):
        if len(self.members) < 2:
            raise ValueError("product type needs at least two members")


@dataclass(frozen=True, slots=True)
class UnionType:
    """A value of any one of the member types, written with '|'."""

    members: tuple[VdmType, ...]

    def __post_init__(self):
        if len(self.members) < 2:
            raise ValueError("union type needs at least two members")


VdmType = (
    BasicType
    | NamedType
    | SetType
    | Set1Type
    | SeqType
    | Seq1Type
    | OptionalType
    | MapType
    | ProductType
    | UnionType
)


# The type classes by shape, each group named once: a leaf has no sub-types,
# a collection one (inner), a map two and a product or union two or more.
# The classes are never subclassed, so type(t) in a group tests t.
LEAF_TYPES = frozenset({BasicType, NamedType})
COLLECTION_TYPES = frozenset({SetType, Set1Type, SeqType, Seq1Type, OptionalType})
ALGEBRAIC_TYPES = frozenset({ProductType, UnionType})


def type_children(t: VdmType) -> tuple[VdmType, ...]:
    """Immediate sub-types of a type node (empty for leaves)."""
    kind = type(t)
    if kind in COLLECTION_TYPES:
        return (t.inner,)
    if kind is MapType:
        return (t.domain, t.range)
    if kind in ALGEBRAIC_TYPES:
        return t.members
    return ()


BASIC_TYPES = {name: BasicType(name) for name in BASIC_TYPE_NAMES}
named_type = lru_cache(maxsize=1 << 14)(NamedType)

# Most compound types (those with type_children) on a path down a member's
# type: validate_model refuses more, so every pass may recurse per level.
MAX_TYPE_DEPTH = 50


def _nests_too_deeply(types: tuple[VdmType, ...]) -> bool:
    """True when a path down one of types meets over MAX_TYPE_DEPTH compound
    types; the walk skips leaves and stops after MAX_TYPE_DEPTH levels."""
    level = [t for t in types if type(t) not in LEAF_TYPES]
    for _ in range(MAX_TYPE_DEPTH):
        if not level:
            return False
        level = [c for t in level for c in type_children(t) if type(c) not in LEAF_TYPES]
    return bool(level)


# ---------------------------------------------------------------------------
# VDM members and classes


@dataclass(frozen=True, slots=True)
class InstanceVariable:
    """A state component; init_text is its raw initialiser, if any."""

    access: Access
    is_static: bool
    name: str
    var_type: VdmType
    init_text: str | None = None


@dataclass(frozen=True, slots=True)
class ValueDef:
    """A named constant, never static; expr_text is its raw expression, if any."""

    access: Access
    name: str
    val_type: VdmType
    expr_text: str | None = None


@dataclass(frozen=True, slots=True)
class TypeDef:
    """A named type: name = definition."""

    access: Access
    name: str
    definition: VdmType


@dataclass(frozen=True, slots=True)
class CallableDef:
    """An operation or a function: the class list holding it is its kind.
    body_text is its raw body and param_names its parameters' names, if any."""

    access: Access
    is_static: bool
    name: str
    param_types: tuple[VdmType, ...]
    return_type: VdmType
    body_text: str | None = None
    param_names: tuple[str, ...] | None = None


VdmMember = InstanceVariable | ValueDef | TypeDef | CallableDef


_MEMBER_TYPES = {
    InstanceVariable: lambda m: (m.var_type,),
    ValueDef: lambda m: (m.val_type,),
    TypeDef: lambda m: (m.definition,),
    CallableDef: lambda m: (*m.param_types, m.return_type),
}


@dataclass(frozen=True, slots=True)
class VdmClass:
    """One VDM++ class: its name, superclasses and members, block by block."""

    name: str
    superclasses: tuple[str, ...] = ()
    instance_variables: tuple[InstanceVariable, ...] = ()
    values: tuple[ValueDef, ...] = ()
    type_defs: tuple[TypeDef, ...] = ()
    operations: tuple[CallableDef, ...] = ()
    functions: tuple[CallableDef, ...] = ()

    def members(self) -> tuple[VdmMember, ...]:
        """Every member, in declaration-list order."""
        return (
            self.values
            + self.type_defs
            + self.instance_variables
            + self.operations
            + self.functions
        )


@dataclass(frozen=True, slots=True)
class VdmModel:
    """The classes of a workspace, in reading order."""

    classes: tuple[VdmClass, ...] = ()

    def class_names(self) -> frozenset[str]:
        return frozenset(c.name for c in self.classes)


# ---------------------------------------------------------------------------
# UML model


class AttributeStereotype(Enum):
    """Marks what kind of class member an attribute stands for.

    INSTANCE_VARIABLE is the unmarked default in concrete syntax.
    """

    INSTANCE_VARIABLE = "instance variable"
    VALUE = "value"
    TYPE = "type"


class OperationStereotype(Enum):
    OPERATION = "operation"
    FUNCTION = "function"


class Multiplicity(Enum):
    """Association-end multiplicity; SEQ0/SEQ1 are the ordered variants."""

    ONE = "one"
    OPT = "optional"
    SET0 = "zero-to-many"
    SET1 = "one-to-many"
    SEQ0 = "zero-to-many ordered"
    SEQ1 = "one-to-many ordered"


@dataclass(frozen=True, slots=True)
class Qualifier:
    """Key type of a qualified association; unique means an injective map."""

    type_text: str
    unique: bool = False


@dataclass(frozen=True, slots=True)
class UmlAttribute:
    """An attribute line of a class box, its type drawn as text."""

    visibility: Access
    is_static: bool
    name: str
    type_text: str
    stereotype: AttributeStereotype = AttributeStereotype.INSTANCE_VARIABLE


@dataclass(frozen=True, slots=True)
class UmlOperation:
    """An operation line of a class box, its types drawn as text."""

    visibility: Access
    is_static: bool
    name: str
    param_type_texts: tuple[str, ...]
    return_type_text: str
    stereotype: OperationStereotype = OperationStereotype.OPERATION


@dataclass(frozen=True, slots=True)
class UmlClass:
    """A class box: its name, attributes and operations."""

    name: str
    attributes: tuple[UmlAttribute, ...] = ()
    operations: tuple[UmlOperation, ...] = ()


@dataclass(frozen=True, slots=True)
class UmlGeneralization:
    """An inheritance arrow from child to parent."""

    child: str
    parent: str


@dataclass(frozen=True, slots=True)
class UmlAssociation:
    """Directed link between classes. The role name is mandatory."""

    source: str
    target: str
    role_name: str
    role_visibility: Access = Access.PRIVATE
    multiplicity: Multiplicity = Multiplicity.ONE
    qualifier: Qualifier | None = None


@dataclass(frozen=True, slots=True)
class UmlModel:
    """A class diagram: its classes, generalizations and associations."""

    classes: tuple[UmlClass, ...] = ()
    generalizations: tuple[UmlGeneralization, ...] = ()
    associations: tuple[UmlAssociation, ...] = ()

    def class_names(self) -> frozenset[str]:
        return frozenset(c.name for c in self.classes)


# ---------------------------------------------------------------------------
# Configuration


class Ordering(Enum):
    INPUT = "input"
    ALPHABETICAL = "alpha"


@dataclass(frozen=True, slots=True)
class Config:
    """Translation parameters.

    gamma0 caps the complexity of collection-like compound types (set,
    seq, optional; maps get twice the allowance), gamma1 caps products
    and unions. Type rendering falls back to an elided form once a
    type's complexity exceeds its cap.
    """

    gamma0: int = 2
    gamma1: int = 1
    ordering: Ordering = Ordering.INPUT

    def __post_init__(self):
        if self.gamma0 < 0 or self.gamma1 < 0:
            raise ValueError("capacities must be non-negative")


# ---------------------------------------------------------------------------
# Validation


def _check_name(diags: list[Diagnostic], name: str, subject: str, what: str,
                seen: set[str], duplicate: str = "member"):
    """Report a name that is not an identifier, is a keyword or repeats one in seen."""
    if not _IDENTIFIER_RE.match(name):
        diags.append(Diagnostic(subject, f"{what} name {name!r} is not a valid identifier"))
    elif name in KEYWORDS:
        diags.append(Diagnostic(subject, f"{what} name '{name}' is a reserved keyword"))
    if name in seen:
        diags.append(Diagnostic(subject, f"duplicate {duplicate} name '{name}'"))
    seen.add(name)


def _check_class_names(classes) -> list[Diagnostic]:
    diags: list[Diagnostic] = []
    seen: set[str] = set()
    for cls in classes:
        _check_name(diags, cls.name, cls.name, "class", seen, duplicate="class")
    return diags


def _inheritance_cycles(edges: dict[str, list[str] | tuple[str, ...]]) -> list[str]:
    """Names of nodes that can reach themselves via parent edges, in edges order."""
    # One iterative strongly-connected-components pass (Tarjan): a node is
    # on a cycle when its component has two nodes or more, or a self-loop.
    parents = {node: [p for p in ps if p in edges] for node, ps in edges.items()}
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    stack: list[str] = []
    on_stack: set[str] = set()
    cyclic: set[str] = set()
    for root in parents:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(parents[root]))]
        while work:
            node, pending = work[-1]
            for p in pending:
                if p not in index:
                    index[p] = low[p] = len(index)
                    stack.append(p)
                    on_stack.add(p)
                    work.append((p, iter(parents[p])))
                    break
                if p in on_stack:
                    low[node] = min(low[node], index[p])
            else:
                work.pop()
                if work:
                    above = work[-1][0]
                    low[above] = min(low[above], low[node])
                if low[node] == index[node]:
                    component = [stack.pop()]
                    while component[-1] != node:
                        component.append(stack.pop())
                    on_stack.difference_update(component)
                    if len(component) > 1 or node in parents[node]:
                        cyclic.update(component)
    return [node for node in edges if node in cyclic]


def validate_model(model: VdmModel) -> list[Diagnostic]:
    """Check every VDM model invariant; empty result means well-formed.

    Among the invariants, no member's type nests more than
    MAX_TYPE_DEPTH compound types, whether the model was parsed,
    translated back from a diagram or built in code, so print_vdm
    renders every type of a well-formed model as text parse_vdm reads.
    """
    diags = _check_class_names(model.classes)
    names = model.class_names()
    # one walk over all types costs half as much as one per member, which only names the deep ones
    any_deep = _nests_too_deeply([t for cls in model.classes for member in cls.members()
                                  for t in _MEMBER_TYPES[type(member)](member)])
    for cls in model.classes:
        member_names: set[str] = set()
        for member in cls.members():
            subject = f"{cls.name}.{member.name}"
            _check_name(diags, member.name, subject, "member", member_names)
            if type(member) is CallableDef and (params := member.param_names) is not None:
                if len(params) != len(types := member.param_types):
                    diags.append(Diagnostic(subject, f"{len(params)} parameter name(s) for {len(types)} type(s)"))
                for param in params:  # as parse_vdm reads them: a repeat is not refused
                    _check_name(diags, param, subject, "parameter", set())
            if any_deep and _nests_too_deeply(_MEMBER_TYPES[type(member)](member)):
                diags.append(Diagnostic(subject, "type nested too deeply"))
        listed: set[str] = set()
        for sup in cls.superclasses:
            if sup in listed:
                diags.append(Diagnostic(cls.name, f"superclass '{sup}' listed twice"))
            listed.add(sup)
            if sup not in names:
                diags.append(Diagnostic(cls.name, f"superclass '{sup}' does not name a class in the model"))

    edges = {c.name: c.superclasses for c in model.classes}
    for name in _inheritance_cycles(edges):
        diags.append(Diagnostic(name, f"class '{name}' inherits from itself (inheritance cycle)"))
    return diags


def validate_uml(model: UmlModel) -> list[Diagnostic]:
    """Check every UML model invariant; empty result means well-formed."""
    diags = _check_class_names(model.classes)
    names = model.class_names()
    roles_by_source: dict[str, list[str]] = {}
    for assoc in model.associations:
        roles_by_source.setdefault(assoc.source, []).append(assoc.role_name)

    for cls in model.classes:
        member_names: set[str] = set()
        for attr in cls.attributes:
            subject = f"{cls.name}.{attr.name}"
            _check_name(diags, attr.name, subject, "attribute", member_names)
            if attr.is_static and attr.stereotype is not AttributeStereotype.INSTANCE_VARIABLE:
                diags.append(Diagnostic(subject, f"a {attr.stereotype.value} attribute cannot be static"))
        for op in cls.operations:
            _check_name(diags, op.name, f"{cls.name}.{op.name}", "operation", member_names)
        for role in roles_by_source.get(cls.name, ()):
            subject = f"{cls.name}.{role}"
            if role in member_names:
                diags.append(Diagnostic(subject, f"role name '{role}' collides with another member"))
            member_names.add(role)

    listed_gens: set[tuple[str, str]] = set()
    for gen in model.generalizations:
        subject = f"{gen.child} -> {gen.parent}"
        for end in (gen.child, gen.parent):
            if end not in names:
                diags.append(Diagnostic(subject, f"generalization names unknown class '{end}'"))
        if gen.child == gen.parent:
            diags.append(Diagnostic(subject, f"class '{gen.child}' cannot inherit from itself"))
        if (gen.child, gen.parent) in listed_gens:
            diags.append(Diagnostic(subject, "duplicate generalization"))
        listed_gens.add((gen.child, gen.parent))

    edges: dict[str, list[str]] = {c.name: [] for c in model.classes}
    for gen in model.generalizations:
        if gen.child in edges and gen.parent in edges:
            edges[gen.child].append(gen.parent)
    self_parents = {g.child for g in model.generalizations if g.child == g.parent}
    for name in _inheritance_cycles(edges):
        if name not in self_parents:
            diags.append(Diagnostic(name, f"class '{name}' is part of a generalization cycle"))

    for assoc in model.associations:
        subject = f"{assoc.source}.{assoc.role_name or '<missing role>'}"
        for end in (assoc.source, assoc.target):
            if end not in names:
                diags.append(Diagnostic(subject, f"association names unknown class '{end}'"))
        if not assoc.role_name:
            diags.append(Diagnostic(subject, "association requires a role name"))
        else:  # a role repeating a member name is reported with the class, above
            _check_name(diags, assoc.role_name, subject, "role", set())
        if assoc.qualifier is not None and not assoc.qualifier.type_text.strip():
            diags.append(Diagnostic(subject, "qualifier type must not be empty"))
    return diags
