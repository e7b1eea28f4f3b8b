"""Bidirectional translator between VDM++ classes and PlantUML diagrams."""

from .errors import (
    Diagnostic,
    ParseError,
    ParseFailure,
    SourceSpan,
    TranslationError,
)
from .model import (
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
    Ordering,
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
from .puml_frontend import parse_multiplicity, parse_puml, print_puml
from .transform import (
    abstract_type,
    canonicalize_model,
    capacity,
    classify_instance_variable,
    complexity,
    multiplicity_to_type,
    uml_to_vdm,
    vdm_to_uml,
)
from .vdm_frontend import parse_vdm, parse_vdm_type, print_vdm, render_type

__version__ = "0.1.0"
