"""Parser and printer for the PlantUML class-diagram subset for VDM models.

The accepted text is line-oriented: class blocks with attribute and
operation lines, inheritance arrows, and association lines decorated
with qualifiers, multiplicities and mandatory role names. Comments (a
line whose first non-blank character is ', and /' ... '/ blocks opening
at the start of a line), @startuml/@enduml and hide and skinparam lines
without an arrow are ignored; note, package and together blocks are refused.
A line that holds an arrow is read as a link whatever its first word, as
'hide --> B : b' from a class named hide is, and one that reads as no link
is an error. Any other line that matches no production is a ParseError
carrying its position. Lines are numbered by '\\n' alone, and columns
count a line's leading whitespace.
"""

from __future__ import annotations

import io
import re
from collections.abc import Iterator

from .errors import ParseError, ParseFailure, SourceSpan
from .model import (
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
    WORD,
    WORD_END,
    named_type,
)

_WORD_RE = re.compile(WORD)
_ARROW_RE = re.compile(r"-+>")

_SIGIL_FOR = {Access.PUBLIC: "+", Access.PRIVATE: "-", Access.PROTECTED: "#"}
_SIGILS = {sigil: access for access, sigil in _SIGIL_FOR.items()}
_SIGIL = f"[{re.escape(''.join(_SIGILS))}]"

# Each line kind is read by one pattern matched against the raw line, so a
# match position is the column to report. Every part after the keyword is
# optional: the first attempt matches and never backtracks into a shorter
# reading, and where a part is missing the match ends at the column to
# report. Lines reach the patterns with trailing whitespace stripped.

# 'class Name', then 'is subclass of Parent', then '{' or '{}'.
_CLASS_RE = re.compile(
    rf"\s*class\s*(?:(?P<name>{WORD})\s*"
    rf"(?:(?P<is>is){WORD_END}\s*(?:subclass{WORD_END}\s*"
    rf"(?:(?P<of>of){WORD_END}\s*(?:(?P<parent>{WORD})\s*)?)?)?)?"
    r"(?:(?P<open>\{)\s*(?P<empty>\})?\s*)?)?"
)

_GENERALIZATION_RE = re.compile(
    rf"\s*(?:(?P<first>{WORD})\s*(?:(?P<arrow><\|-+|-+\|>)\s*(?:(?P<second>{WORD})\s*)?)?)?"
)

# What follows the source end of an association (and its qualifier): the
# arrow, a quoted multiplicity label, the target, ':', a sigil and the role.
_ARROW_TAIL_RE = re.compile(
    r'\s*(?:(?P<arrow>-+>)\s*(?:(?P<label>"[^"]*)(?P<label_end>")?\s*)?'
    rf"(?:(?P<target>{WORD})\s*(?:(?P<colon>:)\s*(?:(?P<sigil>{_SIGIL})\s*)?"
    rf"(?:(?P<role>{WORD})\s*)?)?)?)?"
)
# The source and an optional qualifier opening, '"[' or '['. A qualifier's
# bracketed type is not regular, so _ARROW_TAIL_RE reads the rest.
_ASSOCIATION_RE = re.compile(rf'\s*(?:(?P<source>{WORD})\s*(?P<quote>"\s*)?(?P<bracket>\[)?)?')
# What follows a qualifier's type: ']', and the quote that closes a quoted
# qualifier.
_QUALIFIER_END_RE = re.compile(r'(?P<square>\])?(?P<quote>\s*")?')
_QUALIFIER_BRACKETS = re.compile(r"[()\[\]]")
_PARAMETER_BRACKETS = re.compile(r"[()]")

# The rest of the line: a type text, then an optional '<<marker>>'. The
# type may hold '<' anywhere but where the marker that ends the line opens.
_TYPE_TAIL = r"(?P<type>[^<]*(?:<(?!<[^<>]*>>\Z)[^<]*)*)(?:<<(?P<marker>[^<>]*)>>)?\Z"

# A member line: at most one sigil and one '{static}' or 'static', in
# either order, then the name and either ':' with the type, or the '(' that
# opens a parameter list.
_MEMBER_RE = re.compile(
    rf"\s*(?:(?P<sigil>{_SIGIL})\s*)?"
    rf"(?:(?P<static>\{{static\}}|static{WORD_END})\s*)?"
    rf"(?(sigil)|(?:(?P<late_sigil>{_SIGIL})\s*)?)"
    rf"(?:(?P<name>{WORD})\s*(?:(?P<colon>:){_TYPE_TAIL}|(?P<paren>\())?)?"
)
# What follows an operation's parameter list: ':', the type and a marker.
_RETURN_RE = re.compile(rf"\s*(?::{_TYPE_TAIL})?")

# Printing writes each multiplicity's label in its range spelling,
# parenthesised for the ordered variants, and ONE as no label. Parsing also
# accepts the compact spellings.
_LABEL_FOR = {
    Multiplicity.OPT: "0..1",
    Multiplicity.SET0: "0..*",
    Multiplicity.SET1: "1..*",
    Multiplicity.SEQ0: "(0..*)",
    Multiplicity.SEQ1: "(1..*)",
}
_MULTIPLICITY_LABELS = {label: m for m, label in _LABEL_FOR.items()} | {
    "*": Multiplicity.SET0, "(*)": Multiplicity.SEQ0, "(0..1)": Multiplicity.OPT,
}

# A member's '<<marker>>' is its stereotype's value. Each kind of member
# has one stereotype drawn without a marker.
_UNMARKED = {AttributeStereotype: AttributeStereotype.INSTANCE_VARIABLE,
             OperationStereotype: OperationStereotype.OPERATION}
_MARKED = {s.value: s for kind in _UNMARKED for s in kind if s not in _UNMARKED.values()}
_MARKER_TEXT = {s: f" <<{marker}>>" for marker, s in _MARKED.items()}  # as printed after a member

# PlantUML blocks this subset refuses, by the first word of their lines.
_REFUSED_BLOCKS = ("note", "package", "together")

_UNKNOWN_SPAN = SourceSpan("<input>", 1, 1)


def parse_multiplicity(label: str | None, span: SourceSpan = _UNKNOWN_SPAN) -> Multiplicity:
    """Map a quoted multiplicity label (or its absence) to a Multiplicity."""
    if label is None:
        return Multiplicity.ONE
    mult = _MULTIPLICITY_LABELS.get(label.strip())
    if mult is None:
        raise ParseError(
            span,
            f"unrecognised multiplicity {label!r}",
            expected='"*", "0..*", "1..*", "(*)", "(0..*)", "(1..*)", "0..1" or "(0..1)"',
        )
    return mult


def parse_puml(text: str, origin: str = "<input>") -> UmlModel:
    """Parse class-diagram text into a UmlModel.

    Raises ParseFailure listing every offending line. The result is not
    validated; run validate_uml to check name resolution and uniqueness.
    Each name is its NamedType leaf's string (model.named_type), as in
    parse_vdm, and equal type texts in one result are one string object.
    """
    classes: list[UmlClass] = []
    generalizations: list[UmlGeneralization] = []
    associations: list[UmlAssociation] = []
    errors: list[ParseError] = []
    name: str | None = None  # of the class whose body is open
    attributes: list[UmlAttribute] = []
    operations: list[UmlOperation] = []
    comment: SourceSpan | None = None  # where an open /' ... '/ block began
    kept: dict[str, str] = {}

    def at(pos: int) -> SourceSpan:
        """The span of 0-based position pos on the line being read."""
        return SourceSpan(origin, lineno, pos + 1)

    def share(text: str) -> str:
        """The first type text equal to text that this call kept, text if none."""
        return kept.setdefault(text, text)

    lines = text.split("\n")
    if len(lines) > 1 and not lines[-1]:
        lines.pop()  # the final '\n' ends the last line and opens none
    for lineno, raw in enumerate(lines, 1):
        line = raw.rstrip()
        body = line.lstrip()
        try:
            if comment is None and body.startswith("/'"):
                start = len(line) - len(body)
                comment, close = at(start), line.find("'/", start + 2)
            elif comment is not None:
                close = line.find("'/")
            if comment is not None:
                if close >= 0:
                    comment = None
                    _expect_end(line, close + 2, at)
                continue
            if not body or body[0] == "'":
                continue
            if name is not None:
                if body == "}":
                    classes.append(UmlClass(name, tuple(attributes), tuple(operations)))
                    name = None
                else:
                    member = _parse_member(line, at, share)
                    (attributes if isinstance(member, UmlAttribute) else operations).append(member)
                continue
            if body in ("@startuml", "@enduml"):
                continue
            first = _WORD_RE.match(body)
            word = first and first.group()
            if word == "class":
                header, parent, opened = _parse_class_header(line, at)
                if parent is not None:
                    generalizations.append(UmlGeneralization(child=header, parent=parent))
                if opened:
                    name, attributes, operations = header, [], []
                else:
                    classes.append(UmlClass(header))
                continue
            try:
                if "<|-" in body or "-|>" in body:
                    generalizations.append(_parse_generalization(line, at))
                elif _ARROW_RE.search(body):
                    associations.append(_parse_association(line, at, share))
                elif word not in ("hide", "skinparam"):  # only an arrowless directive is skipped
                    raise ParseError(at(len(line) - len(body)), "unrecognised line")
            except ParseError:
                if word not in _REFUSED_BLOCKS:
                    raise
                # an arrowed line that reads as no link is refused by its first word
                raise ParseError(at(len(line) - len(body)), "unrecognised line") from None
        except ParseError as e:
            errors.append(e.with_traceback(None))
    if comment is not None:
        errors.append(ParseError(comment, "unterminated comment"))
    if name is not None:
        errors.append(
            ParseError(SourceSpan(origin, len(lines), 1), f"class '{name}' is never closed with '}}'")
        )
    if errors:
        raise ParseFailure(errors)
    return UmlModel(tuple(classes), tuple(generalizations), tuple(associations))


def _expect_end(line: str, pos: int, at) -> None:
    rest = line[pos:].lstrip()
    if rest:
        raise ParseError(at(len(line) - len(rest)), f"unexpected text {rest!r}")


def _closer(brackets: re.Pattern, line: str, pos: int) -> int:
    """Index of the first closing bracket at depth 0 from pos on, or len(line).

    Only the characters brackets matches are visited and counted.
    """
    depth = 0
    for m in brackets.finditer(line, pos):
        if m.group() in "([":
            depth += 1
        elif depth:
            depth -= 1
        else:
            return m.start()
    return len(line)


def _parse_class_header(line: str, at) -> tuple[str, str | None, bool]:
    """The class name, its superclass, and whether the line opens a body."""
    m = _CLASS_RE.match(line)
    if m["name"] is None:
        raise ParseError(at(m.end()), "expected a class name")
    if m["is"] and m["parent"] is None:
        # a '{' after a broken 'is subclass of' is read by the pattern
        pos = m.start("open") if m["open"] else m.end()
        raise ParseError(at(pos), "expected a superclass name" if m["of"] else "expected 'is subclass of'")
    _expect_end(line, m.end(), at)
    parent = m["parent"] and named_type(m["parent"]).name
    return named_type(m["name"]).name, parent, m["open"] is not None and m["empty"] is None


def _parse_generalization(line: str, at) -> UmlGeneralization:
    m = _GENERALIZATION_RE.match(line)
    if m["first"] is None or (m["arrow"] and m["second"] is None):
        raise ParseError(at(m.end()), "expected a class name")
    if m["arrow"] is None:
        raise ParseError(at(m.end()), "expected an inheritance arrow")
    _expect_end(line, m.end(), at)
    first, second = named_type(m["first"]).name, named_type(m["second"]).name
    if m["arrow"][0] == "<":
        return UmlGeneralization(child=second, parent=first)
    return UmlGeneralization(child=first, parent=second)


def _parse_association(line: str, at, share) -> UmlAssociation:
    m = _ASSOCIATION_RE.match(line)
    source = m["source"]
    if source is None:
        raise ParseError(at(m.end()), "expected a class name")
    qualifier, pos = None, m.end()
    if m["bracket"]:
        qualifier, pos = _parse_qualifier(line, m, at, share)
    elif m["quote"]:
        raise ParseError(
            at(m.start("quote")),
            "expected a qualifier '[Type]' after '\"' (source-end multiplicities are not supported)",
        )
    m = _ARROW_TAIL_RE.match(line, pos)
    if m["arrow"] is None:
        raise ParseError(at(m.end()), "expected '-->'")
    mult = Multiplicity.ONE
    if m["label"] is not None:
        if m["label_end"] is None:
            raise ParseError(at(m.start("label")), "unterminated multiplicity label")
        mult = parse_multiplicity(m["label"][1:], at(m.start("label")))
    if m["target"] is None:
        raise ParseError(at(m.end()), "expected a class name")
    if m["colon"] is None:
        raise ParseError(at(m.end()), "association requires a role name", expected="': role'")
    if m["role"] is None:
        at_end = m.end() == len(line)
        raise ParseError(at(m.end()), "association requires a role name" if at_end else "expected a role name")
    _expect_end(line, m.end(), at)
    visibility = _SIGILS[m["sigil"]] if m["sigil"] else Access.PRIVATE
    target, role = named_type(m["target"]).name, named_type(m["role"]).name
    return UmlAssociation(named_type(source).name, target, role, visibility, mult, qualifier)


def _parse_qualifier(line: str, m: re.Match, at, share) -> tuple[Qualifier, int]:
    """The qualifier, optionally quoted, that m opens and the position after
    it: '[(Type)]', unique, when one pair of parentheses holds its whole text."""
    start = m.end()
    end = _closer(_QUALIFIER_BRACKETS, line, start)
    close = _QUALIFIER_END_RE.match(line, end)
    if close["square"] is None:
        raise ParseError(at(m.start("bracket")), "unterminated qualifier", expected="']'")
    if m["quote"] and close["quote"] is None:
        raise ParseError(at(m.start("quote")), "unterminated qualifier quote")
    text = line[start:end].strip()
    unique = text[:1] == "(" and text[-1:] == ")" and _closer(_QUALIFIER_BRACKETS, text, 1) == len(text) - 1
    if unique:
        text = text[1:-1].strip()
    if not text:
        raise ParseError(at(m.start("bracket")), "qualifier type must not be empty")
    return Qualifier(share(text), unique), close.end() if m["quote"] else close.end("square")


def _parse_member(line: str, at, share) -> UmlAttribute | UmlOperation:
    m = _MEMBER_RE.match(line)
    if m["name"] is None:
        raise ParseError(at(m.end()), "expected a member name")
    sigil = m["sigil"] or m["late_sigil"]
    visibility = _SIGILS[sigil] if sigil else Access.PRIVATE
    static = m["static"] is not None
    if m["paren"]:
        return _parse_operation(line, m, at, share, visibility, static)
    if m["colon"] is None:
        raise ParseError(at(m.end()), "expected ':' or a parameter list")
    type_text, marker = _split_marker(line, m, at)
    if not type_text:
        raise ParseError(at(len(line)), "missing member type")
    stereotype = _stereotype(AttributeStereotype, marker, line, at)
    if static and stereotype is not AttributeStereotype.INSTANCE_VARIABLE:
        raise ParseError(at(len(line)), f"a {stereotype.value} attribute cannot be static")
    return UmlAttribute(visibility, static, named_type(m["name"]).name, share(type_text), stereotype)


def _parse_operation(line: str, m: re.Match, at, share, visibility: Access, static: bool) -> UmlOperation:
    opener = m.start("paren")
    close = _closer(_PARAMETER_BRACKETS, line, opener + 1)
    if close == len(line):
        raise ParseError(at(opener), "unterminated parameter list")
    inside = line[opener + 1:close]
    params: list[str] = []
    if inside.strip():
        for piece in inside.split(","):
            if not piece.strip():
                raise ParseError(at(opener), "empty parameter type")
            params.append(share(piece.strip()))
    r = _RETURN_RE.match(line, close + 1)
    if r["type"] is None:
        raise ParseError(at(r.end()), "expected ':' and a return type")
    ret, marker = _split_marker(line, r, at)
    if not ret:
        raise ParseError(at(len(line)), "missing return type")
    stereotype = _stereotype(OperationStereotype, marker, line, at)
    return UmlOperation(visibility, static, named_type(m["name"]).name, tuple(params), share(ret), stereotype)


def _stereotype(kind: type, marker: str | None, line: str, at):
    """The stereotype of the enum kind that the marker ending line names, or
    that kind's unmarked one when there is no marker."""
    if marker is None:
        return _UNMARKED[kind]
    stereotype = _MARKED.get(marker)
    if stereotype is None:
        raise ParseError(at(len(line)), f"unknown stereotype '<<{marker}>>'")
    if not isinstance(stereotype, kind):
        allowed = "operations" if isinstance(stereotype, OperationStereotype) else "attributes"
        raise ParseError(at(len(line)), f"'<<{marker}>>' is only allowed on {allowed}")
    return stereotype


def _split_marker(line: str, m: re.Match, at) -> tuple[str, str | None]:
    """The type text and '<<marker>>' that m read up to the end of the line."""
    if m["marker"] is not None:
        return m["type"].strip(), m["marker"].strip()
    if "<<" in m["type"]:
        raise ParseError(at(line.find("<<", m.start("type"))), "malformed stereotype marker")
    return m["type"].strip(), None


# ---------------------------------------------------------------------------
# Printing


def print_puml(model: UmlModel, config: Config | None = None, *, file: io.TextIOBase | None = None) -> str | None:
    """Render a UmlModel to class-diagram text.

    Classes come first (model order, or sorted by name under the
    alphabetical ordering policy), then inheritance lines, then
    association lines. Within a class, attributes print grouped as
    values, types, instance variables, followed by operations and then
    functions. Output is deterministic. Given a text stream as file,
    the lines are written to it as they are produced and None is
    returned; otherwise the text is returned.
    """
    lines = _puml_lines(model, config or Config())
    if file is None:
        return "".join(lines)
    file.writelines(lines)
    return None


def _puml_lines(model: UmlModel, config: Config) -> Iterator[str]:
    """The lines of print_puml's text, each ending in a newline."""
    classes = list(model.classes)
    if config.ordering is Ordering.ALPHABETICAL:
        classes.sort(key=lambda c: c.name)
    yield "@startuml\n"
    for cls in classes:
        yield f"class {cls.name} {{\n"
        for group in (AttributeStereotype.VALUE, AttributeStereotype.TYPE,
                      AttributeStereotype.INSTANCE_VARIABLE):
            for attr in cls.attributes:
                if attr.stereotype is group:
                    yield f"  {_attribute_line(attr)}\n"
        for group in (OperationStereotype.OPERATION, OperationStereotype.FUNCTION):
            for op in cls.operations:
                if op.stereotype is group:
                    yield f"  {_operation_line(op)}\n"
        yield "}\n"
    for gen in model.generalizations:
        yield f"{gen.parent} <|-- {gen.child}\n"
    for assoc in model.associations:
        yield f"{_association_line(assoc)}\n"
    yield "@enduml\n"


def _attribute_line(attr: UmlAttribute) -> str:
    static = "{static} " if attr.is_static else ""
    marker = _MARKER_TEXT.get(attr.stereotype, "")
    return f"{_SIGIL_FOR[attr.visibility]} {static}{attr.name} : {attr.type_text}{marker}"


def _operation_line(op: UmlOperation) -> str:
    static = "{static} " if op.is_static else ""
    head = f"{_SIGIL_FOR[op.visibility]} {static}{op.name}({', '.join(op.param_type_texts)})"
    return f"{head} : {op.return_type_text}{_MARKER_TEXT.get(op.stereotype, '')}"


def _association_line(assoc: UmlAssociation) -> str:
    parts = [assoc.source]
    if assoc.qualifier is not None:
        inner = assoc.qualifier.type_text
        parts.append(f"[({inner})]" if assoc.qualifier.unique else f"[{inner}]")
    parts.append("-->")
    label = _LABEL_FOR.get(assoc.multiplicity)
    if label is not None:
        parts.append(f'"{label}"')
    parts.append(assoc.target)
    parts.append(":")
    if assoc.role_visibility is not Access.PRIVATE:
        parts.append(_SIGIL_FOR[assoc.role_visibility])
    parts.append(assoc.role_name)
    return " ".join(parts)
