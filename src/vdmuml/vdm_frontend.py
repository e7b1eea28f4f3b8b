"""Parser and printer for the VDM++ class subset.

parse_vdm turns source text into a VdmModel and collects every syntax
error it can recover from; print_vdm renders a model back to canonical
source, one text unit per class. Operation and function bodies, value
expressions and instance-variable initialisers are kept as raw text,
captured by bracket-balanced scanning: none of the translation rules
ever look inside them. Each, like a definition's parameter names, is as
parsed or None, for none or a skeleton: this module alone spells the
skeletons, which print_vdm writes for None and parse_vdm reads as None.
Names and keywords are ASCII, but raw text may hold any Unicode. The
structure lexer lists the tokens up to the next one that raw text may
follow with one match and one findall, and the parser indexes that list.
Comment, string and character-literal syntax is defined once, in
compiled patterns shared by the structure lexer, raw capture and the
printer.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from functools import lru_cache, partial

from .errors import ParseError, ParseFailure, SourceSpan
from .model import (
    ALGEBRAIC_TYPES,
    Access,
    BASIC_TYPES,
    KEYWORDS,
    LEAF_TYPES,
    MAX_TYPE_DEPTH,
    CallableDef,
    InstanceVariable,
    MapType,
    OptionalType,
    ProductType,
    Seq1Type,
    SeqType,
    Set1Type,
    SetType,
    TypeDef,
    UnionType,
    ValueDef,
    VdmClass,
    VdmModel,
    VdmType,
    WORD,
    WORD_END,
    named_type,
)

# Longest first so '==' never shadows '==>' and '=' never shadows '=='.
_SYMBOLS = ("==>", ":=", "==", "->", "=", ":", ";", ",", "(", ")", "[", "]", "*", "|")

_BLOCK_KEYWORDS = ("values", "types", "instance", "operations", "functions")  # _BLOCKS's keys, for _RAW_RE
_UNSUPPORTED_BLOCKS = ("thread", "sync", "traces")
_BOUNDARY_WORDS = frozenset(_BLOCK_KEYWORDS) | frozenset(_UNSUPPORTED_BLOCKS) | {"end", "class"}
_NOT_NAMES = KEYWORDS | frozenset(_SYMBOLS)  # tokens that cannot name anything

_ACCESS_WORDS = {access.value: access for access in Access}

# Lexical syntax, each piece written once: the structure lexer, raw capture
# and the printer's open-comment check are all built from these.
_LINE_COMMENT = r"--[^\n]*"
_CLOSED_COMMENT = r"/\*(?s:.*?)\*/"
_OPEN_COMMENT = r"/\*(?P<unclosed>(?s:.*))"  # unterminated: runs to the end
_BLOCK_COMMENT = f"{_CLOSED_COMMENT}|{_OPEN_COMMENT}"
_STRING = r'"[^"\\]*(?:\\(?s:.)[^"\\]*)*"?'  # unterminated: runs to the end
_CHAR_LITERAL = r"'(?<![\w']')(?:\\.|[^'\\])'"  # a quote after a word character starts none
# Longer symbols first, then one class of the single characters.
_SYMBOL = "|".join([*(re.escape(s) for s in _SYMBOLS if len(s) > 1),
                    "[" + re.escape("".join(s for s in _SYMBOLS if len(s) == 1)) + "]"])
_TOKEN = f"{WORD}|{_SYMBOL}"
# Whitespace and closed comments. An open comment runs to the end of the
# text, so no token ever follows one.
_TRIVIA = rf"\s*(?:(?:{_LINE_COMMENT}|{_CLOSED_COMMENT})\s*)*"

# Trivia, then the next word or symbol, or an open comment, if any.
_TOKEN_RE = re.compile(rf"{_TRIVIA}(?:{_OPEN_COMMENT}|(?P<word>{WORD})|(?P<symbol>{_SYMBOL}))?")
# A run: the tokens successive _TOKEN_RE matches give, up to where one gives
# none or through the first that ends in '=' (':=', '==' and '=', the only
# ones raw text follows), which sets group 2 and stops the loop. Trivia read
# through the lookahead and back reference is atomic, so no token is sought
# inside a comment. A match lexes at most _RUN_CHUNK tokens, all that
# recovery can drop when it moves the cursor.
_RUN_CHUNK = 64
_RUN_RE = re.compile(rf"(?:(?(2)(?!))(?=({_TRIVIA}))\1(?:{_TOKEN})(?:(?<==)())?){{0,{_RUN_CHUNK}}}")
# The tokens of a run already found; only their trivia lies between them.
_RUN_TOKENS_RE = re.compile(rf"{_TRIVIA}({_TOKEN})")

# What raw capture must look at; everything between matches is opaque text.
# Inside brackets only comments, literals and brackets can move where a
# capture ends, so there _RAW_NESTED_RE matches those alone. _RAW_RE adds
# ';' and the boundary words, which end a capture at depth 0. Every
# alternative of both begins with a literal character, so `re` skips the
# text between candidate characters without trying a match there; that is
# why each "no word character before" look-behind follows the character or
# word it guards (the quote in x' or the 'end' in x'end starts nothing).
_RAW_NESTED_RE = re.compile(
    "|".join([_LINE_COMMENT, _BLOCK_COMMENT, _STRING, _CHAR_LITERAL, *map(re.escape, "()[]{}")])
)
_RAW_RE = re.compile(
    _RAW_NESTED_RE.pattern
    + "|;|"
    + "|".join(rf"{w}(?<![\w']{w}){WORD_END}" for w in sorted(_BOUNDARY_WORDS))
)


class _Scanner:
    """Cursor over source text, lexed one token run at a time, with raw capture.

    toks lists the words and symbols lexed from start (see _RUN_RE), then
    None; i indexes the token at the cursor. end is just past the last
    token or, where none follows, the cursor: after raw capture, or after
    the trivia before a place where no token starts. Looking at the None
    lexes on from end, growing toks if its run was cut at _RUN_CHUNK
    tokens; hot paths read `toks[i] or peek()`. Indices hold until raw
    capture or recovery moves the cursor. Text positions are lexed again
    only for a span or recovery.
    """

    def __init__(self, text: str, origin: str):
        self.text = text
        self.origin = origin
        self.comment_error: ParseError | None = None
        self.type_depth = 0  # type constructors and brackets open at the cursor
        self.type_start = 0  # index of the token the outermost type being parsed begins at
        self.captured = -1  # where the last raw capture resumed; -1 if a stray closer stopped it
        self._line_starts: list[int] | None = None  # built when a span is needed
        self._move_to(0)

    # -- positions ---------------------------------------------------------

    @property
    def pos(self) -> int:
        """Where the token at the cursor starts, or where the run ends."""
        return self.end if self.toks[self.i] is None else self._token(self.i).start(1)

    def _token(self, k: int) -> re.Match:
        """Token k of the run, lexed again from the last one asked for."""
        seen, at = self._seen  # token seen is the first match from at
        if k < seen:
            seen, at = 0, self.start
        matches = _RUN_TOKENS_RE.finditer(self.text, at, self.end)
        for _ in range(k - seen):
            at = next(matches).end()
        self._seen = (k, at)
        return next(matches)

    def span(self, pos: int | None = None) -> SourceSpan:
        if self._line_starts is None:
            self._line_starts = [0] + [m.end() for m in re.finditer("\n", self.text)]
        p = self.pos if pos is None else pos
        line = bisect_right(self._line_starts, p)
        col = p - self._line_starts[line - 1] + 1
        return SourceSpan(self.origin, line, col)

    def error(self, message: str, pos: int | None = None) -> ParseError:
        return ParseError(self.span(pos), message)

    # -- tokens --------------------------------------------------------------

    def _skip_trivia(self, pos: int) -> int:
        """Where the token after the trivia at pos starts, or the trivia ends."""
        m = _TOKEN_RE.match(self.text, pos)
        kind = m.lastgroup  # an unclosed comment runs to the end, so it is then the last group
        if kind == "unclosed" and self.comment_error is None:
            # remember the first unterminated comment; it runs to the end of
            # the text, so recovery loops always terminate
            self.comment_error = self.error("unterminated comment", m.start("unclosed") - 2)
        return m.end() if kind is None or kind == "unclosed" else m.start(kind)

    def _move_to(self, pos: int):
        """Put the cursor at pos, before any trivia there."""
        self.toks, self.i, self.start, self.end, self._seen = [None], 0, pos, pos, (0, pos)

    def peek(self) -> str | None:
        """The token at the cursor, lexing on if need be."""
        tok = self.toks[self.i]
        if tok is None:
            text, start = self.text, self.end
            if start == len(text):
                return None
            end = _RUN_RE.match(text, start).end()
            if end == start:
                self.end = self._skip_trivia(start)
                return None
            tokens = _RUN_TOKENS_RE.findall(text, start, end)
            tokens.append(None)
            if self.i and not self.toks[self.i - 1].endswith("="):
                self.toks[self.i:] = tokens  # the run was cut at _RUN_CHUNK tokens
            else:
                self.toks, self.i, self.start, self._seen = tokens, 0, start, (0, start)
            self.end = end
            tok = self.toks[self.i]
        return tok

    def ahead(self) -> str | None:
        """The token after the one at the cursor."""
        self.i += 1
        tok = self.toks[self.i] or self.peek()
        self.i -= 1
        return tok

    def at_end(self) -> bool:
        return self.peek() is None and self.end >= len(self.text)

    def accept(self, tok: str) -> bool:
        if (self.toks[self.i] or self.peek()) == tok:
            self.i += 1
            return True
        return False

    def expect(self, tok: str):
        if not self.accept(tok):
            raise self.error(f"expected '{tok}'")

    def expect_identifier(self, what: str) -> str:
        tok = self.toks[self.i] or self.peek()
        if tok is None or tok in _NOT_NAMES:
            found = f", found keyword '{tok}'" if tok in KEYWORDS else ""
            raise self.error(f"expected {what}{found}")
        self.i += 1
        return named_type(tok).name

    def refuse(self, message: str, n: int = 1) -> ParseError:
        """An error at the token at the cursor, taking it and the n - 1 after
        it; the cursor then stands just past them, where recovery starts."""
        pos = self.pos
        self.i += n
        self.end = self._token(self.i - 1).end()
        self.toks = self.toks[:self.i] + [None]
        return self.error(message, pos)

    # -- raw capture ---------------------------------------------------------

    def scan_raw(self) -> str:
        """Capture text until a top-level ';' (consumed) or block boundary.

        Capture starts after the trivia at the cursor, which in a definition
        is the end of its run. Bracket depth, comments, string and character
        literals are tracked so that separators inside them never terminate
        the capture. A stray closer also ends it, left for the caller to
        report. An unterminated comment is recorded as in trivia.
        """
        text, depth = self.text, 0
        start = pos = self._skip_trivia(self.end) if self.toks[self.i] is None else self.pos
        stop = resume = len(text)
        while m := (_RAW_NESTED_RE if depth else _RAW_RE).search(text, pos):
            pos, first = m.end(), text[m.start()]
            if first in "([{":
                depth += 1
            elif first in ")]}" and depth:
                depth -= 1
            elif first in ")]};" or first.isalpha():  # met only at depth 0
                stop = m.start()
                resume = pos if first == ";" else stop
                break
            elif m.lastgroup == "unclosed" and self.comment_error is None:
                self.comment_error = self.error("unterminated comment", m.start())
        self._move_to(resume)
        self.captured = -1 if text.startswith((")", "]", "}"), stop) else resume
        return text[start:stop].strip()

    def recover(self):
        """Skip past the current definition after an error.

        Always advances unless the cursor is at the end of the text. Where
        raw capture stops at once, at a stray closer or a block keyword,
        one character is stepped over and the rest of the definition
        skipped with it.
        """
        before = self.pos
        self.scan_raw()
        if self.end == before and before < len(self.text):
            self._move_to(before + 1)
            self.scan_raw()


# ---------------------------------------------------------------------------
# Type expressions

def parse_vdm_type(text: str, origin: str = "<type>") -> VdmType:
    """Parse one type expression; raises ParseError on malformed input."""
    sc = _Scanner(text, origin)
    t = _parse_type(sc)
    if not sc.at_end():
        raise sc.error("unexpected text after type")
    if sc.comment_error is not None:
        # a copy, as the scanner would tie the raised error to its own traceback
        raise ParseError(sc.comment_error.span, sc.comment_error.message)
    return t


def _parse_type(sc: _Scanner) -> VdmType:
    first = _parse_product(sc)
    if (sc.toks[sc.i] or sc.peek()) != "|":
        return first
    members = [first]
    while sc.accept("|"):
        members.append(_parse_product(sc))
    return UnionType(tuple(members))


def _parse_product(sc: _Scanner) -> VdmType:
    first = _parse_prefix(sc)
    if (sc.toks[sc.i] or sc.peek()) != "*":
        return first
    members = [first]
    while sc.accept("*"):
        members.append(_parse_prefix(sc))
    return ProductType(tuple(members))


_PREFIX_KEYWORDS = {SetType: "set", Set1Type: "set1", SeqType: "seq", Seq1Type: "seq1"}
_PREFIX_CONSTRUCTORS = {keyword: t for t, keyword in _PREFIX_KEYWORDS.items()}


def _parse_prefix(sc: _Scanner) -> VdmType:
    # Every level of nesting, whether a constructor or a bracket, passes
    # through here once, so this is where the text's depth is bounded: at
    # 2 * MAX_TYPE_DEPTH, the most that render_type writes for a type
    # validate_model accepts, and well below the recursion limit, so every
    # input is either read or refused with a position.
    word = sc.toks[sc.i] or sc.peek()
    if not sc.type_depth:
        sc.type_start = sc.i
    elif sc.type_depth > 2 * MAX_TYPE_DEPTH:
        pos, sc.i = sc.pos, sc.type_start  # recovery then skips the whole type, brackets balanced
        raise sc.error("type nested too deeply", pos)
    basic = BASIC_TYPES.get(word)
    if basic is not None:
        sc.i += 1
        return basic
    if word is not None and word not in _NOT_NAMES:
        sc.i += 1
        return named_type(word)
    sc.type_depth += 1
    try:
        if word in _PREFIX_CONSTRUCTORS:
            sc.i += 1
            sc.expect("of")
            return _PREFIX_CONSTRUCTORS[word](_parse_prefix(sc))
        if word in ("map", "inmap"):
            sc.i += 1
            domain = _parse_type(sc)
            sc.expect("to")
            rng = _parse_type(sc)
            return MapType(domain, rng, injective=word == "inmap")
        if word == "(" or word == "[":
            sc.i += 1
            inner = _parse_type(sc)
            sc.expect(")" if word == "(" else "]")
            return inner if word == "(" else OptionalType(inner)
        if word in _BOUNDARY_WORDS:  # not taken: the block ends at it
            raise sc.error(f"unexpected keyword '{word}' in type")
        if word in KEYWORDS:
            raise sc.refuse(f"unexpected keyword '{word}' in type")
        raise sc.error("expected a type")
    finally:
        sc.type_depth -= 1


# ---------------------------------------------------------------------------
# Type rendering

# The children render_type wraps in grouping parentheses, by position.
_GROUPED_IN_PREFIX = (*ALGEBRAIC_TYPES, MapType)  # set/seq body, product member, parameter
_GROUPED_IN_UNION = (UnionType, MapType)
_GROUPED_IN_DOMAIN = (MapType,)


def draw_type(t: VdmType, draw) -> str:
    """The one writing of each constructor's syntax: a leaf is its name, and a
    sub-type draws as draw(sub, classes grouped by parentheses in its place)."""
    kind = type(t)
    if kind in LEAF_TYPES:
        return t.name
    if kind in _PREFIX_KEYWORDS:
        return f"{_PREFIX_KEYWORDS[kind]} of {draw(t.inner, _GROUPED_IN_PREFIX)}"
    if kind is OptionalType:
        return f"[{draw(t.inner, ())}]"
    if kind is MapType:
        keyword = "inmap" if t.injective else "map"
        return f"{keyword} {draw(t.domain, _GROUPED_IN_DOMAIN)} to {draw(t.range, ())}"
    if kind is ProductType:
        return " * ".join(draw(m, _GROUPED_IN_PREFIX) for m in t.members)
    if kind is UnionType:
        return " | ".join(draw(m, _GROUPED_IN_UNION) for m in t.members)
    raise TypeError(f"not a VDM type: {t!r}")


def render_type(t: VdmType) -> str:
    """Concrete VDM syntax for a type, with minimal grouping parentheses."""
    return draw_type(t, _render_child)


def _render_child(t: VdmType, parenthesize: tuple[type, ...]) -> str:
    text = render_type(t)
    return f"({text})" if isinstance(t, parenthesize) else text


def render_param_types(params: tuple[VdmType, ...]) -> str:
    """Signature domain: '()' when empty, '*'-separated types otherwise."""
    return " * ".join(_render_child(p, _GROUPED_IN_PREFIX) for p in params) or "()"


# ---------------------------------------------------------------------------
# Class parsing


def parse_vdm(source: str, origin: str = "<input>") -> VdmModel:
    """Parse every 'class ... end' block in source into a VdmModel.

    Raises ParseFailure carrying all ParseErrors when anything is
    malformed; parsing resumes at the next definition block so several
    errors are reported in one pass.
    """
    sc = _Scanner(source, origin)
    errors: list[ParseError] = []
    classes: list[VdmClass] = []
    while not sc.at_end():
        word = sc.peek()
        if word != "class":
            errors.append(sc.error("expected 'class'"))
            _skip_to_next_class(sc)
            continue
        cls = _parse_class(sc, errors)
        if cls is not None:
            classes.append(cls)
    if sc.comment_error is not None:
        errors.append(sc.comment_error)
    if errors:
        raise ParseFailure(errors)
    return VdmModel(tuple(classes))


def _skip_to_next_class(sc: _Scanner):
    while not sc.at_end():
        if sc.peek() == "class":
            return
        sc.recover()


def _parse_class(sc: _Scanner, errors: list[ParseError]) -> VdmClass | None:
    sc.i += 1  # 'class', seen by the caller
    try:
        name = sc.expect_identifier("a class name")
    except ParseError as e:
        errors.append(e.with_traceback(None))
        _skip_to_next_class(sc)
        return None
    superclasses: list[str] = []
    try:
        if sc.accept("is"):
            sc.expect("subclass")
            sc.expect("of")
            superclasses.append(sc.expect_identifier("a superclass name"))
            while sc.accept(","):
                superclasses.append(sc.expect_identifier("a superclass name"))
    except ParseError as e:
        errors.append(e.with_traceback(None))
        sc.recover()

    members: dict[str, list] = {field: [] for _, field, *_ in _BLOCKS.values()}
    while True:
        word = sc.peek()
        if word == "end":
            sc.i += 1
            end_name = sc.peek()
            if end_name is None or end_name in _NOT_NAMES:
                errors.append(sc.error(f"expected 'end {name}'"))
            else:
                sc.i += 1
                if end_name != name:  # reported just after the name
                    end = sc._token(sc.i - 1).end()
                    errors.append(sc.error(f"'end {end_name}' does not match class '{name}'", end))
            break
        if word in _BLOCKS:
            heading, field, parse_member, _ = _BLOCKS[word]
            sc.i += 1
            if heading != word:  # 'variables' after 'instance'
                try:
                    sc.expect(heading.removeprefix(word + " "))
                except ParseError as e:
                    errors.append(e.with_traceback(None))
            _parse_block(sc, errors, members[field], parse_member)
        elif word in _UNSUPPORTED_BLOCKS:
            errors.append(sc.error(f"unsupported construct '{word}'"))
            sc.i += 1
            _skip_unsupported_block(sc)
        elif word == "class" or sc.at_end():
            errors.append(sc.error(f"missing 'end {name}'"))
            break
        else:
            errors.append(sc.error("expected a definition block keyword or 'end'"))
            sc.recover()
    return VdmClass(name, tuple(superclasses), **{field: tuple(m) for field, m in members.items()})


def _skip_unsupported_block(sc: _Scanner):
    while not sc.at_end() and sc.peek() not in _BOUNDARY_WORDS:
        sc.recover()


def _parse_block(sc, errors, out: list, parse_member):
    while True:
        word = sc.toks[sc.i] or sc.peek()
        if word in _BOUNDARY_WORDS or word is None and sc.at_end():
            return
        sc.captured = -1
        try:
            out.append(parse_member(sc))
        except ParseError as e:
            errors.append(e.with_traceback(None))
            # a definition whose raw text was captured already ends where
            # the capture resumed, unless a stray closer stopped it, and a
            # boundary word at the cursor ends the block as it stands
            if sc.toks[sc.i] is not None or sc.end != sc.captured:
                if (sc.toks[sc.i] or sc.peek()) in _BOUNDARY_WORDS:
                    return
                sc.recover()


def _parse_access_prefix(sc: _Scanner, allow_static: bool) -> tuple[Access, bool]:
    access: Access | None = None
    static = False
    while True:
        word = sc.toks[sc.i] or sc.peek()
        if word in _ACCESS_WORDS:
            if access is not None:
                raise sc.error("duplicate access modifier")
            access = _ACCESS_WORDS[word]
            sc.i += 1
        elif word == "static":
            if not allow_static:
                raise sc.error("'static' is not allowed here")
            if static:
                raise sc.error("duplicate 'static'")
            sc.i += 1
            static = True
        else:
            return access if access is not None else Access.PRIVATE, static


def _parse_instance_variable(sc: _Scanner) -> InstanceVariable:
    if sc.peek() == "inv":
        raise sc.error("unsupported construct 'inv'")
    access, static = _parse_access_prefix(sc, allow_static=True)
    name = sc.expect_identifier("an instance variable name")
    sc.expect(":")
    var_type = _parse_type(sc)
    init_text: str | None = None
    if sc.accept(":="):
        init_text = sc.scan_raw()
        if not init_text:
            raise sc.error("missing initialiser expression after ':='")
    else:
        sc.accept(";")
    return InstanceVariable(access, static, name, var_type, init_text)


def _parse_value(sc: _Scanner) -> ValueDef:
    access, _ = _parse_access_prefix(sc, allow_static=False)
    name = sc.expect_identifier("a value name")
    sc.expect(":")
    val_type = _parse_type(sc)
    sc.expect("=")
    expr = sc.scan_raw()
    if not expr:
        raise sc.error("missing value expression after '='")
    return ValueDef(access, name, val_type, None if expr == _SKELETON_EXPR else expr)


def _parse_type_def(sc: _Scanner) -> TypeDef:
    access, _ = _parse_access_prefix(sc, allow_static=False)
    name = sc.expect_identifier("a type name")
    sc.expect("=")
    definition = _parse_type(sc)
    if sc.peek() == "inv":
        raise sc.error("unsupported construct 'inv'")
    sc.accept(";")
    return TypeDef(access, name, definition)


def _parse_callable(arrow: str, sc: _Scanner) -> CallableDef:
    access, static = _parse_access_prefix(sc, allow_static=True)
    if sc.peek() == "pure" and sc.ahead() != ":":  # a member named pure still parses
        raise sc.error("unsupported construct 'pure'")
    name = sc.expect_identifier("a definition name")
    sc.expect(":")
    domain = _parse_signature_domain(sc)
    if sc.peek() not in (arrow, "==>"):
        raise sc.error(f"expected '{arrow}'")
    sc.i += 1
    if sc.peek() == "(" and sc.ahead() == ")":
        raise sc.refuse("void return types are not supported", 2)
    ret = _parse_type(sc)

    def_name = sc.peek()
    if def_name is None or def_name in _NOT_NAMES:
        raise sc.error(f"expected the definition of '{name}'")
    if def_name != name:
        raise sc.refuse(f"definition name '{def_name}' does not match '{name}'")
    def_i = sc.i
    sc.i += 1
    sc.expect("(")
    patterns: list[str] = []
    if not sc.accept(")"):
        patterns.append(sc.expect_identifier("a parameter name"))
        while sc.accept(","):
            patterns.append(sc.expect_identifier("a parameter name"))
        sc.expect(")")
    sc.expect("==")
    params = _match_params(domain, len(patterns))
    # a mismatch is reported at the definition name, after a missing body
    def_pos = sc._token(def_i).start(1) if isinstance(params, str) else 0
    body = sc.scan_raw()
    if not body:
        raise sc.error(f"missing body for '{name}'")
    if isinstance(params, str):
        raise sc.error(params, def_pos)
    names = tuple(patterns)
    return CallableDef(access, static, name, params, ret, None if body == _SKELETON_BODY else body,
                       None if names == _placeholders(len(names)) else names)


def _parse_signature_domain(sc: _Scanner) -> VdmType | None:
    """Domain of a signature; None stands for the empty '()' domain."""
    if sc.peek() == "(" and sc.ahead() == ")":
        sc.i += 2
        return None
    return _parse_type(sc)


def _match_params(domain: VdmType | None, n_patterns: int) -> tuple[VdmType, ...] | str:
    """Split the signature domain into one type per definition pattern,
    or say why it cannot be.

    A top-level product lists one type per parameter; when the pattern
    list has a single name the whole domain is that parameter's type.
    """
    if domain is None:
        if n_patterns != 0:
            return "signature has no parameter types but the definition lists parameters"
        return ()
    flat = domain.members if isinstance(domain, ProductType) else (domain,)
    if n_patterns == len(flat):
        return tuple(flat)
    if n_patterns == 1:
        return (domain,)
    return f"signature lists {len(flat)} parameter type(s) but the definition has {n_patterns}"


# ---------------------------------------------------------------------------
# Printing

# What print_vdm writes for a body, a value expression or parameter names that are None.
_SKELETON_BODY = "is not yet specified"
_SKELETON_EXPR = "undefined"


@lru_cache(maxsize=64)
def _placeholders(n: int) -> tuple[str, ...]:
    return tuple(f"p{i}" for i in range(1, n + 1))


def _terminate(raw: str) -> str:
    """Append ';' to a raw text, on its own line when a comment is open.

    A raw body may legitimately end inside a '--' comment; putting the
    terminator on the same line would bury it in that comment.
    """
    if "--" not in raw:  # skeletons and most bodies: no comment can be open
        return raw + ";"
    last = None
    for last in _RAW_RE.finditer(raw):
        pass
    if last is not None and last.end() == len(raw) and raw.startswith("--", last.start()):
        return raw + "\n;"
    return raw + ";"


def print_vdm(model: VdmModel) -> list[tuple[str, str]]:
    """Render each class to canonical source; returns (name, text) pairs.

    Blocks are emitted in the fixed order values, types, instance
    variables, operations, functions, empty blocks omitted. Members with
    no recorded body or expression get parseable skeletons. The output
    is deterministic down to the byte. The model must be one that
    validate_model accepts: a type nested deeper than MAX_TYPE_DEPTH may
    print as text parse_vdm refuses, or exhaust the recursion limit.
    """
    return [(cls.name, _print_class(cls)) for cls in model.classes]


def _print_class(cls: VdmClass) -> str:
    header = f"class {cls.name}"
    if cls.superclasses:
        header += " is subclass of " + ", ".join(cls.superclasses)
    lines = [header]
    for heading, field, _, print_member in _BLOCKS.values():
        members = getattr(cls, field)
        if members:
            lines.append(heading)
            lines += map(print_member, members)
    lines.append(f"end {cls.name}")
    return "\n".join(lines) + "\n"


def _print_value(v: ValueDef) -> str:
    expr = (v.expr_text or "").strip() or _SKELETON_EXPR
    return _terminate(f"{v.access.value} {v.name} : {render_type(v.val_type)} = {expr}")


def _print_type_def(td: TypeDef) -> str:
    return f"{td.access.value} {td.name} = {render_type(td.definition)};"


def _print_instance_variable(iv: InstanceVariable) -> str:
    static = "static " if iv.is_static else ""
    init = f" := {iv.init_text.strip()}" if iv.init_text else ""
    return _terminate(f"{iv.access.value} {static}{iv.name} : {render_type(iv.var_type)}{init}")


def _print_callable(arrow: str, member: CallableDef) -> str:
    """The signature line and the definition line of an operation or function."""
    static = "static " if member.is_static else ""
    signature = (
        f"{member.access.value} {static}{member.name} : "
        f"{render_param_types(member.param_types)} {arrow} {render_type(member.return_type)}"
    )
    names = ", ".join(member.param_names or _placeholders(len(member.param_types)))
    body = (member.body_text or "").strip() or _SKELETON_BODY
    return signature + "\n" + _terminate(f"{member.name}({names}) == {body}")


# ---------------------------------------------------------------------------
# Definition blocks

# Each definition block, in print order, by the keyword that opens it: its
# heading, the VdmClass field its members fill, and their parser and
# printer. A callable block's parser and printer share its arrow; the block
# already decides the member kind, so '==>' is also accepted on functions.
_BLOCKS = {
    "values": ("values", "values", _parse_value, _print_value),
    "types": ("types", "type_defs", _parse_type_def, _print_type_def),
    "instance": ("instance variables", "instance_variables", _parse_instance_variable, _print_instance_variable),
    **{heading: (heading, heading, partial(_parse_callable, arrow), partial(_print_callable, arrow))
       for heading, arrow in (("operations", "==>"), ("functions", "->"))},
}
