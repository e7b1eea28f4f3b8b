"""Parser and printer for the PlantUML class-diagram subset for VDM models.

The accepted text is line-oriented: class blocks with attribute and
operation lines, inheritance arrows, and association lines decorated
with qualifiers, multiplicities and mandatory role names. Directive
lines (@startuml/@enduml, hide, skinparam) are ignored and never change
the parsed model. Anything else that matches no production is a
ParseError carrying its line number.
"""

from __future__ import annotations

import re

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
)

_WORD = r"[A-Za-z_][A-Za-z0-9_']*"
_WORD_RE = re.compile(_WORD)
_ARROW_RE = re.compile(r"-+>")

_SIGILS = {"+": Access.PUBLIC, "-": Access.PRIVATE, "#": Access.PROTECTED}
_SIGIL_FOR = {Access.PUBLIC: "+", Access.PRIVATE: "-", Access.PROTECTED: "#"}

# The head of a member line, in one match: at most one sigil and one
# '{static}' or 'static', in either order, then the name and the '(' or
# ':' after it. Every part is optional, so the first attempt matches and
# never backtracks into a shorter head: where the name or the opener is
# missing, the match ends at the column to report.
_MEMBER_HEAD_RE = re.compile(
    r"\s*(?:(?P<sigil>[-+#])\s*)?"
    r"(?:(?P<static>\{static\}|static(?![A-Za-z0-9_']))\s*)?"
    r"(?(sigil)|(?:(?P<late_sigil>[-+#])\s*)?)"
    rf"(?:(?P<name>{_WORD})\s*(?P<opener>[(:])?)?"
)

# Both the compact and the range spellings of each multiplicity label are
# accepted; printing always uses the range spellings (parenthesised for
# the ordered variants).
_MULTIPLICITY_LABELS = {
    "*": Multiplicity.SET0,
    "0..*": Multiplicity.SET0,
    "1..*": Multiplicity.SET1,
    "(*)": Multiplicity.SEQ0,
    "(0..*)": Multiplicity.SEQ0,
    "(1..*)": Multiplicity.SEQ1,
    "0..1": Multiplicity.OPT,
    "(0..1)": Multiplicity.OPT,
}
_LABEL_FOR = {
    Multiplicity.ONE: None,
    Multiplicity.OPT: "0..1",
    Multiplicity.SET0: "0..*",
    Multiplicity.SET1: "1..*",
    Multiplicity.SEQ0: "(0..*)",
    Multiplicity.SEQ1: "(1..*)",
}

_ATTRIBUTE_MARKERS = {
    None: AttributeStereotype.INSTANCE_VARIABLE,
    "value": AttributeStereotype.VALUE,
    "type": AttributeStereotype.TYPE,
}

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


class _LineCursor:
    """Cursor over a single line with 1-based column reporting."""

    def __init__(self, line: str, origin: str, lineno: int):
        self.line = line
        self.origin = origin
        self.lineno = lineno
        self.pos = 0

    def error(self, message: str, pos: int | None = None, expected: str | None = None) -> ParseError:
        col = (self.pos if pos is None else pos) + 1
        return ParseError(SourceSpan(self.origin, self.lineno, col), message, expected)

    def span(self) -> SourceSpan:
        return SourceSpan(self.origin, self.lineno, self.pos + 1)

    def skip_ws(self):
        while self.pos < len(self.line) and self.line[self.pos].isspace():
            self.pos += 1

    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.line)

    def peek(self) -> str:
        self.skip_ws()
        return self.line[self.pos] if self.pos < len(self.line) else ""

    def try_text(self, text: str) -> bool:
        self.skip_ws()
        if self.line.startswith(text, self.pos):
            self.pos += len(text)
            return True
        return False

    def try_word(self, word: str) -> bool:
        self.skip_ws()
        m = _WORD_RE.match(self.line, self.pos)
        if m and m.group() == word:
            self.pos = m.end()
            return True
        return False

    def expect_identifier(self, what: str) -> str:
        self.skip_ws()
        m = _WORD_RE.match(self.line, self.pos)
        if not m:
            raise self.error(f"expected {what}")
        self.pos = m.end()
        return m.group()

    def rest(self) -> str:
        return self.line[self.pos:]

    def expect_end(self):
        if not self.at_end():
            raise self.error(f"unexpected text {self.rest().strip()!r}")


def parse_puml(text: str, origin: str = "<input>") -> UmlModel:
    """Parse class-diagram text into a UmlModel.

    Raises ParseFailure listing every offending line. The result is not
    validated; run validate_uml to check name resolution and uniqueness.
    """
    classes: list[UmlClass] = []
    generalizations: list[UmlGeneralization] = []
    associations: list[UmlAssociation] = []
    errors: list[ParseError] = []

    current: _ClassBuilder | None = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        cur = _LineCursor(line, origin, lineno)
        try:
            if current is not None:
                if line == "}":
                    classes.append(current.build())
                    current = None
                else:
                    current.add(_parse_member(cur))
                continue
            if line in ("@startuml", "@enduml"):
                continue
            first = _WORD_RE.match(line)
            if first and first.group() in ("hide", "skinparam"):
                continue
            if first and first.group() == "class":
                built, open_body = _parse_class_header(cur, generalizations)
                if open_body:
                    current = built
                else:
                    classes.append(built.build())
            elif "<|-" in line or "-|>" in line:
                generalizations.append(_parse_generalization(cur))
            elif _ARROW_RE.search(line):
                associations.append(_parse_association(cur))
            else:
                raise cur.error("unrecognised line")
        except ParseError as e:
            errors.append(e)
    if current is not None:
        errors.append(
            ParseError(
                SourceSpan(origin, len(text.splitlines()) or 1, 1),
                f"class '{current.name}' is never closed with '}}'",
            )
        )
    if errors:
        raise ParseFailure(errors)
    return UmlModel(tuple(classes), tuple(generalizations), tuple(associations))


class _ClassBuilder:
    def __init__(self, name: str):
        self.name = name
        self.attributes: list[UmlAttribute] = []
        self.operations: list[UmlOperation] = []

    def add(self, member: UmlAttribute | UmlOperation):
        if isinstance(member, UmlAttribute):
            self.attributes.append(member)
        else:
            self.operations.append(member)

    def build(self) -> UmlClass:
        return UmlClass(self.name, tuple(self.attributes), tuple(self.operations))


def _parse_class_header(cur: _LineCursor, generalizations: list[UmlGeneralization]):
    cur.try_word("class")
    name = cur.expect_identifier("a class name")
    if cur.try_word("is"):
        if not (cur.try_word("subclass") and cur.try_word("of")):
            raise cur.error("expected 'is subclass of'")
        parent = cur.expect_identifier("a superclass name")
        generalizations.append(UmlGeneralization(child=name, parent=parent))
    builder = _ClassBuilder(name)
    if cur.try_text("{"):
        if cur.try_text("}"):
            cur.expect_end()
            return builder, False
        cur.expect_end()
        return builder, True
    cur.expect_end()
    return builder, False


def _parse_generalization(cur: _LineCursor) -> UmlGeneralization:
    first = cur.expect_identifier("a class name")
    cur.skip_ws()
    if m := re.match(r"<\|-+", cur.line[cur.pos:]):
        cur.pos += m.end()
        second = cur.expect_identifier("a class name")
        cur.expect_end()
        return UmlGeneralization(child=second, parent=first)
    if m := re.match(r"-+\|>", cur.line[cur.pos:]):
        cur.pos += m.end()
        second = cur.expect_identifier("a class name")
        cur.expect_end()
        return UmlGeneralization(child=first, parent=second)
    raise cur.error("expected an inheritance arrow")


def _parse_association(cur: _LineCursor) -> UmlAssociation:
    source = cur.expect_identifier("a class name")
    qualifier = _parse_qualifier(cur)
    cur.skip_ws()
    m = _ARROW_RE.match(cur.line, cur.pos)
    if not m:
        raise cur.error("expected '-->'")
    cur.pos = m.end()

    mult = Multiplicity.ONE
    cur.skip_ws()
    if cur.peek() == '"':
        start = cur.pos
        cur.pos += 1
        close = cur.line.find('"', cur.pos)
        if close < 0:
            raise cur.error("unterminated multiplicity label", pos=start)
        label = cur.line[cur.pos:close]
        cur.pos = close + 1
        mult = parse_multiplicity(label, SourceSpan(cur.origin, cur.lineno, start + 1))

    target = cur.expect_identifier("a class name")
    if not cur.try_text(":"):
        raise cur.error("association requires a role name", expected="': role'")
    visibility = Access.PRIVATE
    cur.skip_ws()
    if cur.peek() in _SIGILS:
        visibility = _SIGILS[cur.line[cur.pos]]
        cur.pos += 1
    if cur.at_end():
        raise cur.error("association requires a role name")
    role = cur.expect_identifier("a role name")
    cur.expect_end()
    return UmlAssociation(source, target, role, visibility, mult, qualifier)


def _parse_qualifier(cur: _LineCursor) -> Qualifier | None:
    """Qualifier in '[Type]' or '[(Type)]' form, optionally quoted."""
    cur.skip_ws()
    quoted = False
    save = cur.pos
    if cur.peek() == '"':
        quoted = True
        cur.pos += 1
        cur.skip_ws()
    if cur.peek() != "[":
        if quoted:
            raise cur.error(
                "expected a qualifier '[Type]' after '\"' "
                "(source-end multiplicities are not supported)",
                pos=save,
            )
        return None
    open_pos = cur.pos
    cur.pos += 1
    cur.skip_ws()
    unique = cur.peek() == "("
    closer = ")]" if unique else "]"
    if unique:
        cur.pos += 1
    start = cur.pos
    depth = 0
    while cur.pos < len(cur.line):
        ch = cur.line[cur.pos]
        if ch in "([":
            depth += 1
        elif ch in ")]":
            if depth == 0:
                break
            depth -= 1
        cur.pos += 1
    text = cur.line[start:cur.pos].strip()
    for ch in closer:
        if not cur.try_text(ch):
            raise cur.error("unterminated qualifier", pos=open_pos, expected=f"'{closer}'")
    if quoted and not cur.try_text('"'):
        raise cur.error("unterminated qualifier quote", pos=save)
    if not text:
        raise cur.error("qualifier type must not be empty", pos=open_pos)
    return Qualifier(text, unique)


def _parse_member(cur: _LineCursor) -> UmlAttribute | UmlOperation:
    m = _MEMBER_HEAD_RE.match(cur.line, cur.pos)
    cur.pos = m.end()
    if m["name"] is None:
        raise cur.error("expected a member name")
    sigil = m["sigil"] or m["late_sigil"]
    visibility = _SIGILS[sigil] if sigil else Access.PRIVATE
    static = m["static"] is not None
    name = m["name"]
    if m["opener"] == "(":
        cur.pos = m.start("opener")
        return _parse_operation_tail(cur, visibility, static, name)
    if m["opener"] is None:
        raise cur.error("expected ':' or a parameter list")
    type_text, marker = _split_marker(cur)
    if not type_text:
        raise cur.error("missing member type")
    if marker == "function":
        raise cur.error("'<<function>>' is only allowed on operations")
    if marker not in _ATTRIBUTE_MARKERS:
        raise cur.error(f"unknown stereotype '<<{marker}>>'")
    stereotype = _ATTRIBUTE_MARKERS[marker]
    if static and stereotype is AttributeStereotype.VALUE:
        raise cur.error("a value attribute cannot be static")
    return UmlAttribute(visibility, static, name, type_text, stereotype)


def _parse_operation_tail(cur, visibility, static, name) -> UmlOperation:
    open_pos = cur.pos
    cur.pos += 1
    depth = 0
    start = cur.pos
    while cur.pos < len(cur.line):
        ch = cur.line[cur.pos]
        if ch == "(":
            depth += 1
        elif ch == ")":
            if depth == 0:
                break
            depth -= 1
        cur.pos += 1
    if cur.pos >= len(cur.line):
        raise cur.error("unterminated parameter list", pos=open_pos)
    inside = cur.line[start:cur.pos]
    cur.pos += 1
    params: list[str] = []
    if inside.strip():
        for piece in inside.split(","):
            if not piece.strip():
                raise cur.error("empty parameter type", pos=open_pos)
            params.append(piece.strip())
    if not cur.try_text(":"):
        raise cur.error("expected ':' and a return type")
    ret, marker = _split_marker(cur)
    if not ret:
        raise cur.error("missing return type")
    if marker is None:
        stereotype = OperationStereotype.OPERATION
    elif marker == "function":
        stereotype = OperationStereotype.FUNCTION
    elif marker in ("value", "type"):
        raise cur.error(f"'<<{marker}>>' is only allowed on attributes")
    else:
        raise cur.error(f"unknown stereotype '<<{marker}>>'")
    return UmlOperation(visibility, static, name, tuple(params), ret, stereotype)


def _split_marker(cur: _LineCursor) -> tuple[str, str | None]:
    """Split the rest of the line into a type text and a '<<marker>>'."""
    rest = cur.rest()
    base = len(cur.line) - len(rest)
    cur.pos = len(cur.line)
    if "<<" not in rest:
        return rest.strip(), None
    m = re.fullmatch(r"(.*?)<<([^<>]*)>>\s*", rest, re.S)
    if not m:
        raise cur.error("malformed stereotype marker", pos=base + rest.find("<<"))
    return m.group(1).strip(), m.group(2).strip()


# ---------------------------------------------------------------------------
# Printing


def print_puml(model: UmlModel, config: Config | None = None) -> str:
    """Render a UmlModel to class-diagram text.

    Classes come first (model order, or sorted by name under the
    alphabetical ordering policy), then inheritance lines, then
    association lines. Within a class, attributes print grouped as
    values, types, instance variables, followed by operations and then
    functions. Output is deterministic.
    """
    config = config or Config()
    classes = list(model.classes)
    if config.ordering is Ordering.ALPHABETICAL:
        classes.sort(key=lambda c: c.name)
    lines = ["@startuml"]
    for cls in classes:
        lines.append(f"class {cls.name} {{")
        for group in (AttributeStereotype.VALUE, AttributeStereotype.TYPE,
                      AttributeStereotype.INSTANCE_VARIABLE):
            for attr in cls.attributes:
                if attr.stereotype is group:
                    lines.append("  " + _attribute_line(attr))
        for group in (OperationStereotype.OPERATION, OperationStereotype.FUNCTION):
            for op in cls.operations:
                if op.stereotype is group:
                    lines.append("  " + _operation_line(op))
        lines.append("}")
    for gen in model.generalizations:
        lines.append(f"{gen.parent} <|-- {gen.child}")
    for assoc in model.associations:
        lines.append(_association_line(assoc))
    lines.append("@enduml")
    return "\n".join(lines) + "\n"


def _attribute_line(attr: UmlAttribute) -> str:
    static = "{static} " if attr.is_static else ""
    line = f"{_SIGIL_FOR[attr.visibility]} {static}{attr.name} : {attr.type_text}"
    if attr.stereotype is AttributeStereotype.VALUE:
        line += " <<value>>"
    elif attr.stereotype is AttributeStereotype.TYPE:
        line += " <<type>>"
    return line


def _operation_line(op: UmlOperation) -> str:
    static = "{static} " if op.is_static else ""
    params = ", ".join(op.param_type_texts)
    line = f"{_SIGIL_FOR[op.visibility]} {static}{op.name}({params}) : {op.return_type_text}"
    if op.stereotype is OperationStereotype.FUNCTION:
        line += " <<function>>"
    return line


def _association_line(assoc: UmlAssociation) -> str:
    parts = [assoc.source]
    if assoc.qualifier is not None:
        inner = assoc.qualifier.type_text
        parts.append(f"[({inner})]" if assoc.qualifier.unique else f"[{inner}]")
    parts.append("-->")
    label = _LABEL_FOR[assoc.multiplicity]
    if label is not None:
        parts.append(f'"{label}"')
    parts.append(assoc.target)
    parts.append(":")
    if assoc.role_visibility is not Access.PRIVATE:
        parts.append(_SIGIL_FOR[assoc.role_visibility])
    parts.append(assoc.role_name)
    return " ".join(parts)
