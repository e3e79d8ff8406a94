"""Parsers and serializers for the four line-oriented analysis file formats.

All formats share one lexical shape: one statement per line, tokens
separated by spaces or tabs, ``"``-quoted strings (with ``\\"`` and ``\\\\``
escapes), ``key=value`` attributes, blank lines and lines starting with
``#`` ignored.  Input may use LF, CRLF or CR line endings; output is LF.

Each statement keyword is declared once, as a tuple of ``_Field``s in
``_MODEL`` (``.hat``), ``_LENS`` (``.lens``), ``_SFM`` (``.sfm``) and
``_MITIGATION`` (``.mit``): its positional words, quoted strings and
attributes in canonical order, which are optional, which are ids or
references to ids, and the converters that parse and write each one.
``_read`` parses any statement from its declaration and ``_write`` writes
any statement from it, so parse and serialize are mutually inverse on valid
values by construction.  ``_read`` has one path for every line: it lexes
the line with one pattern, sorts the tokens into words, strings and
attributes by name, and takes each field from them by steps worked out
once per keyword.  The ``parse_*`` functions add only the rules no
declaration states: one model statement per file, no edge self-loops, and
ascending sfm ids.  ``docs/dsl-reference.md`` describes the formats for
authors.

Parsing is all-or-nothing: a parse either returns the value or raises
``DslParseError`` carrying every diagnostic, sorted by (line, column).
References must point at already-declared elements.  Serializers emit the
canonical form (fixed statement and attribute order, explicit gain
coefficients, blank line between statement groups).
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, NamedTuple

from .lenses import Applicability, GenericFailureMode, Lens, LensCatalog
from .mapping import SpecialisedFailureMode, sfm_id_problem
from .mitigations import Mitigation, Placement
from .model import (
    ActionNode,
    ActivityEdge,
    GainBehaviour,
    GainKind,
    Lane,
    LaneKind,
    Ooda2Model,
    Side,
    Stage,
)

_IDENT = re.compile("[a-z][a-z0-9_]*")


@dataclass(frozen=True)
class ParseDiagnostic:
    line: int
    column: int
    message: str


class DslParseError(ValueError):
    """Parsing failed; ``diagnostics`` holds every problem found."""

    def __init__(self, diagnostics: list[ParseDiagnostic]):
        self.diagnostics = sorted(diagnostics, key=lambda d: (d.line, d.column))
        first = self.diagnostics[0]
        summary = f"{first.line}:{first.column}: {first.message}"
        if len(self.diagnostics) > 1:
            summary += f" (and {len(self.diagnostics) - 1} more)"
        super().__init__(summary)


# ---------------------------------------------------------------------------
# Lexer.

_WORD, _STRING, _ATTR = "word", "string", "attr"

_BODY = r'[^"\\]*(?:\\["\\][^"\\]*)*'  # a string's contents: only \" and \\ escapes
# One token and the blanks before it, as the groups (blanks, name, value,
# string, broken): a word (its name), a name=value attribute (its value
# after the "=", quoted with its quotes or bare) or a quoted string's
# contents.  Where no token starts, ``broken`` takes the rest of the line,
# so it is the last token.  Words and names share a group; a word must end
# where a name would, so a name whose value is broken is not read as a
# shorter word.
_TOKEN = re.compile(
    rf'([ \t]*)(?:([^ \t"=]+)(?:(=(?:"{_BODY}"|(?!")[^ \t"]*))|(?=[ \t"]|\Z))'
    rf'|"({_BODY})"'
    r'|([^ \t].*))'
)
# The longest well-formed start of a string; where it stops, the string is broken.
_STRING_START = re.compile(f'"{_BODY}')
_ESCAPE = re.compile(r'\\(["\\])')


def _unescape(text: str) -> str:
    return _ESCAPE.sub(r"\1", text) if "\\" in text else text


# ---------------------------------------------------------------------------
# Field converters.  A parser raises ValueError with the diagnostic's message.

def _matching(pattern: str | re.Pattern, message: str,
              convert: Callable[[str], object] | None = None):
    """A parser for text that matches ``pattern`` whole, converted by
    ``convert`` if given; other text fails with ``message`` formatted with
    the text."""
    regex = re.compile(pattern)

    def parse(text: str):
        if regex.fullmatch(text) is None:
            raise ValueError(message.format(text))
        return text if convert is None else convert(text)
    return parse


def _ident(what: str):
    return _matching(_IDENT, f"invalid {what} '{{}}'")


def _idents(what: str, collection=list):
    ident = _ident(what)
    return lambda text: collection(map(ident, text.split(",")))


def _enum(cls, what: str):
    members = {member.value: member for member in cls}

    def parse(text: str):
        try:
            return members[text]
        except KeyError:
            raise ValueError(f"unknown {what} '{text}'") from None
    return parse


def _nonempty(what: str):
    return _matching("(?s).+", f"{what} must be non-empty")


def _positive(what: str):
    def convert(text: str) -> int:
        digits = text.lstrip("0")
        try:
            return int(digits)
        except ValueError:  # more digits than sys.get_int_max_str_digits()
            raise ValueError(f"{what} must be a positive integer of at most "
                             f"{sys.get_int_max_str_digits()} digits, got {len(digits)}") from None
    # ASCII digits only: str.isdigit() and int() also accept other scripts' digits.
    return _matching("0*[1-9][0-9]*", f"{what} must be a positive integer, not '{{}}'", convert)


def _damping(text: str) -> float:
    try:
        damping = float(text)
    except ValueError:
        raise ValueError(f"bad damping '{text}'") from None
    if not 0 < damping < 1:
        raise ValueError(f"damping must be in (0, 1), got {text}")
    return damping


def _parse_gain(raw: str) -> GainBehaviour:
    kind_text, sep, coeff_text = raw.partition(":")
    if kind_text not in ("amplify", "dampen", "neutral"):
        raise ValueError(f"unknown gain kind '{kind_text}'")
    if not sep:
        return getattr(GainBehaviour, kind_text)()  # the kind's default coefficient
    if kind_text == "neutral":
        raise ValueError("neutral takes no coefficient")
    try:
        coefficient = float(coeff_text)
    except ValueError:
        raise ValueError(f"bad gain coefficient '{coeff_text}'") from None
    return GainBehaviour(GainKind(kind_text), coefficient)


def _format_gain(gain: GainBehaviour) -> str:
    if gain.kind is GainKind.NEUTRAL:
        return "neutral"
    return f"{gain.kind.value}:{gain.coefficient!r}"


def _quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


_value = attrgetter("value")
_join = ",".join


# ---------------------------------------------------------------------------
# Statement declarations.

_REQUIRED = object()


class _Field(NamedTuple):
    """One part of a statement.  A statement lists its fields in canonical
    order, and its required fields in the order their absence is reported.

    ``kind`` says what the field takes: the next positional word, the next
    quoted string, or the attribute named ``key``.  A ``key`` ending in "."
    takes every attribute with that prefix, as a dict keyed by the rest of
    the name.  For a word or a string, ``key`` is how a "missing" diagnostic
    names it.  ``attr`` names the value on the parsed object; a fixed word
    has none.  ``parse`` converts token text and ``write`` turns a value
    back into text.  A field with an ``omit`` value is optional: left out,
    the object keeps its default, and it is written unless its value equals
    ``omit``.

    A ``unique`` field is the statement's id, which no earlier statement of
    the same keyword may have declared; a statement declares it once every
    field that ``blocks`` (by default, every required one) is well-formed.
    A field that ``refers`` to a keyword must name an id declared earlier by
    a statement of that keyword.
    """

    kind: str
    key: str
    attr: str | None
    parse: Callable[[str], object] = str
    write: Callable[[object], str] = str
    omit: object = _REQUIRED
    unique: bool = False
    refers: str = ""
    blocks: bool | None = None

    @property
    def blocking(self) -> bool:
        return self.omit is _REQUIRED if self.blocks is None else self.blocks


_MODEL = {
    "model": (_Field(_STRING, "its quoted name", "name"),),
    "lane": (
        _Field(_WORD, "its id", "id", _ident("lane id"), unique=True),
        _Field(_ATTR, "side", "side", _enum(Side, "side"), _value),
        _Field(_ATTR, "kind", "kind", _enum(LaneKind, "lane kind"), _value),
        _Field(_STRING, "its quoted display name", "display_name",
               _nonempty("lane display name")),
    ),
    "node": (
        _Field(_WORD, "its id", "id", _ident("node id"), unique=True),
        _Field(_ATTR, "lane", "lane_id", _ident("lane reference"), refers="lane"),
        _Field(_ATTR, "stage", "stage", _enum(Stage, "stage"), _value),
        _Field(_STRING, "its quoted label", "label", _nonempty("node label")),
        _Field(_ATTR, "cause", "causes", _idents("cause category"), _join, []),
        _Field(_ATTR, "response.", "response", _parse_gain, _format_gain, {}),
        _Field(_ATTR, "mitigation", "mitigation_ids", _idents("mitigation id"), _join, []),
    ),
    "edge": (
        _Field(_WORD, "its source node id", "from_id", _ident("node reference"),
               refers="node"),
        _Field(_WORD, "'->'", None, _matching("->", "expected '->', found '{}'"),
               lambda _: "->"),
        _Field(_WORD, "its target node id", "to_id", _ident("node reference"),
               refers="node"),
        _Field(_STRING, "its guard", "guard", omit=None),
        _Field(_ATTR, "name", "name", write=_quote, omit=None),
        _Field(_ATTR, "mitigation", "mitigation_ids", _idents("mitigation id"), _join, []),
    ),
}

_LENS = {
    "lens": (
        _Field(_WORD, "its id", "id", _ident("lens id"), unique=True),
        _Field(_STRING, "its quoted name", "name", _nonempty("lens name")),
    ),
    "mode": (
        _Field(_WORD, "its id", "id", _ident("mode id"), unique=True),
        _Field(_ATTR, "lens", "lens_id", _ident("lens reference"), refers="lens"),
        _Field(_ATTR, "direction", "applicability",
               _enum(Applicability, "direction"), _value),
        _Field(_ATTR, "category", "category", _ident("category")),
        _Field(_ATTR, "benign", "benign",
               _matching("true|false", "benign must be true or false, not '{}'",
                         lambda text: text == "true"),
               lambda flag: str(flag).lower(), False),
        _Field(_STRING, "its quoted title", "title", _nonempty("mode title")),
        _Field(_ATTR, "question", "question", _nonempty("mode question"), _quote),
    ),
}

_SFM = {
    "sfm": (
        _Field(_WORD, "its numeric id", "sfm_id", _positive("sfm id")),
        _Field(_ATTR, "interaction", "interaction_id", _positive("interaction")),
        _Field(_ATTR, "mode", "generic_mode_id", _ident("mode reference")),
        _Field(_STRING, "its quoted text", "text", _nonempty("sfm text")),
    ),
}

_MITIGATION = {
    "mitigation": (
        _Field(_WORD, "its id", "id", _ident("mitigation id"), unique=True),
        _Field(_ATTR, "category", "categories", _idents("category", tuple), _join),
        _Field(_ATTR, "placement", "placement", _enum(Placement, "placement"), _value),
        # Optional, yet always written (a damping is never None).  Whether
        # the id counts as declared depends on damping= but not on detail=.
        _Field(_ATTR, "damping", "damping", _damping, repr, None, blocks=True),
        _Field(_STRING, "its quoted name", "name", _nonempty("mitigation name")),
        _Field(_ATTR, "detail", "detail", write=_quote, blocks=False),
    ),
}


# ---------------------------------------------------------------------------
# The generic statement reader and writer.

_BAD = object()  # the value of a required field that is missing, or of any malformed field


def _steps(keyword: str, fields: tuple[_Field, ...]) -> tuple:
    """What ``_read`` needs of a ``keyword`` statement declared by ``fields``.

    For each field in declared order, (kind, key, attr, parse, missing,
    unique, refers), where kind is "prefix" for a field that takes every
    attribute with its prefix, and ``missing`` is the diagnostic for a
    required field left out (None for an optional one).  Then the attrs of
    the statement's ids, and of the fields that block declaring them.
    """
    steps = []
    for field in fields:
        kind = "prefix" if field.key.endswith(".") else field.kind
        what = f"the {field.key}= attribute" if field.kind == _ATTR else field.key
        missing = f"{keyword} statement is missing {what}" if field.omit is _REQUIRED else None
        steps.append((kind, field.key, field.attr, field.parse, missing, field.unique,
                      field.refers))
    return (tuple(steps), tuple(field.attr for field in fields if field.unique),
            tuple(field.attr for field in fields if field.blocking and field.attr))


# The steps of each format's statements, worked out once: by file
# extension, then by keyword.
_STEPS = {extension: {keyword: _steps(keyword, fields) for keyword, fields in statements.items()}
          for extension, statements in (("hat", _MODEL), ("lens", _LENS), ("sfm", _SFM),
                                        ("mit", _MITIGATION))}


class _Statement:
    """One statement read by its declaration: each field's value and column."""

    __slots__ = ("line", "column", "values", "columns", "diags")

    def __init__(self, line: int, column: int, values: dict[str, object],
                 columns: dict[str, int], diags: list[ParseDiagnostic]):
        self.line = line
        self.column = column  # the keyword's
        self.values = values
        self.columns = columns
        self.diags = diags

    def error(self, column: int, message: str) -> None:
        self.diags.append(ParseDiagnostic(self.line, column, message))

    def reject(self, attr: str, message: str) -> None:
        self.error(self.columns[attr], message)
        self.values[attr] = _BAD

    def good(self, *attrs: str) -> bool:
        return all(self.values.get(attr) is not _BAD for attr in attrs)

    def build(self, cls, **extra):
        """``cls`` from the values given; the others keep their defaults."""
        return cls(**self.values, **extra, line=self.line)


def _read(text: str, steps: dict[str, tuple], unknown_repeats: bool,
          diags: list[ParseDiagnostic]) -> dict[str, list[_Statement]]:
    """Every statement of ``text`` read by its keyword's steps in
    ``steps`` (one format's table in ``_STEPS``), by keyword in file order,
    recording every lexical, keyword, attribute, field and id problem in
    ``diags``.  A line must lex and start with a word; with
    ``unknown_repeats`` (``.hat`` and ``.lens``), a line whose word is not
    a keyword still has its attributes checked for repeats."""
    read: dict[str, list[_Statement]] = {keyword: [] for keyword in steps}
    ids: dict[str, set] = {keyword: set() for keyword in steps}
    if "\r" in text:  # a line ends at LF, CRLF or CR, as in universal-newline reading
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    for line_no, line in enumerate(text.split("\n"), start=1):
        stripped = line.strip()
        if not stripped or stripped[0] == "#":
            continue
        tokens = _TOKEN.findall(line)
        broken = tokens[-1][4]
        if broken:
            start = len(line) - len(broken)
            if broken[0] == "=":
                diags.append(ParseDiagnostic(line_no, start + 1,
                                             "attribute name missing before '='"))
                continue
            # Nothing else stops the lexer but a broken string: a token or an attribute value.
            quote = line.index('"', start)
            stop = _STRING_START.match(line, quote).end()
            if stop < len(line):
                diags.append(ParseDiagnostic(line_no, stop + 1, "unsupported escape sequence"))
            else:
                diags.append(ParseDiagnostic(line_no, quote + 1, "unterminated string"))
            continue
        blanks, keyword, value = tokens[0][:3]
        at = len(blanks) + 1  # the keyword's column
        if not keyword or value:
            diags.append(ParseDiagnostic(line_no, at, "expected a statement keyword"))
            continue
        known = keyword in steps
        if not known:
            diags.append(ParseDiagnostic(line_no, at, f"unknown keyword '{keyword}'"))
            if not unknown_repeats:
                continue
        # The tokens after the keyword, each with its column: words and
        # strings in order, attributes by name.
        words, strings, attrs = [], [], {}
        column = at + len(keyword)
        for blanks, name, value, string, _ in tokens[1:]:
            column += len(blanks)
            if not name:
                strings.append((column, _unescape(string)))
                column += len(string) + 2
            elif not value:
                words.append((column, name))
                column += len(name)
            else:  # an attribute; its value starts with the "="
                if name in attrs:
                    diags.append(ParseDiagnostic(line_no, column, f"duplicate attribute '{name}'"))
                else:
                    attrs[name] = (column, _unescape(value[2:-1]) if value[1:2] == '"'
                                   else value[1:])
                column += len(name) + len(value)
        if not known:
            continue
        # Each field in declared order, its ids checked against those declared so far.
        fields, unique_attrs, blocking = steps[keyword]
        values: dict[str, object] = {}
        columns: dict[str, int] = {}
        for kind, key, attr, parse, missing, unique, refers in fields:
            if kind == _ATTR:
                token = attrs.pop(key, None)
            elif kind == _WORD:
                token = words.pop(0) if words else None
            elif kind == _STRING:
                token = strings.pop(0) if strings else None
            else:  # a prefix field: every attribute whose name starts with ``key``
                found = {}
                for name in [name for name in attrs if name.startswith(key)]:
                    column, text = attrs.pop(name)
                    name = name[len(key):]
                    try:
                        if _IDENT.fullmatch(name) is None:
                            raise ValueError(f"invalid {key[:-1]} category '{name}'")
                        found[name] = parse(text)
                    except ValueError as exc:
                        diags.append(ParseDiagnostic(line_no, column, str(exc)))
                values[attr] = found
                continue
            if token is None:
                if missing:
                    diags.append(ParseDiagnostic(line_no, at, missing))
                    if attr:
                        values[attr] = _BAD
                continue
            column, text = token
            try:
                value = parse(text)
                if unique and value in ids[keyword]:
                    raise ValueError(f"duplicate {keyword} id '{value}'")
                if refers and value not in ids[refers]:
                    raise ValueError(f"{keyword} references undeclared {refers} '{value}'")
            except ValueError as exc:
                diags.append(ParseDiagnostic(line_no, column, str(exc)))
                value = _BAD
            if attr:
                values[attr] = value
                columns[attr] = column
        for column, text in words:
            diags.append(ParseDiagnostic(line_no, column, f"unexpected token '{text}'"))
        for column, _ in strings:
            diags.append(ParseDiagnostic(line_no, column, "unexpected quoted string"))
        for key, (column, _) in attrs.items():
            diags.append(ParseDiagnostic(line_no, column, f"unknown attribute '{key}'"))
        # The ids count as declared once every field that blocks them is well-formed.
        if unique_attrs and _BAD not in map(values.get, blocking):
            ids[keyword].update(values[attr] for attr in unique_attrs)
        read[keyword].append(_Statement(line_no, at, values, columns, diags))
    return read


def _write(statements: dict[str, tuple[_Field, ...]], keyword: str, obj) -> str:
    """The canonical line for ``obj`` as a ``keyword`` statement."""
    parts = [keyword]
    for field in statements[keyword]:
        value = getattr(obj, field.attr) if field.attr else None
        if field.omit is not _REQUIRED and value == field.omit:
            continue
        if field.kind == _WORD:
            parts.append(field.write(value))
        elif field.kind == _STRING:
            parts.append(_quote(field.write(value)))
        elif field.key.endswith("."):
            parts.extend(f"{field.key}{name}={field.write(value[name])}"
                         for name in sorted(value))
        else:
            parts.append(f"{field.key}={field.write(value)}")
    return " ".join(parts)


def _finish(diags: list[ParseDiagnostic]) -> None:
    if diags:
        raise DslParseError(diags)


def _join_groups(groups: list[list[str]]) -> str:
    blocks = ["\n".join(group) for group in groups if group]
    return "\n\n".join(blocks) + "\n" if blocks else ""


# ---------------------------------------------------------------------------
# The four formats: the rules no declaration states, and statement grouping.

def parse_model(text: str) -> Ooda2Model:
    """Parse a ``.hat`` document; raises DslParseError on any problem."""
    diags: list[ParseDiagnostic] = []
    read = _read(text, _STEPS["hat"], True, diags)
    model: _Statement | None = None
    for statement in read["model"]:
        # The name is checked here, not by its field: a repeated model
        # statement reports only that it repeats.
        if not statement.good("name"):
            continue
        if model is not None:
            statement.error(statement.column, "duplicate model statement")
        elif not statement.values["name"]:
            statement.reject("name", "model name must be non-empty")
        else:
            model = statement
    for edge in read["edge"]:
        if edge.good("from_id") and edge.values["from_id"] == edge.values["to_id"]:
            edge.reject("from_id", f"edge loops node '{edge.values['from_id']}' onto itself")
    if model is None and not diags:
        diags.append(ParseDiagnostic(1, 1, "missing model statement"))
    _finish(diags)
    return model.build(
        Ooda2Model,
        lanes=[lane.build(Lane) for lane in read["lane"]],
        nodes=[node.build(ActionNode) for node in read["node"]],
        edges=[edge.build(ActivityEdge, id=f"e{index}")
               for index, edge in enumerate(read["edge"], start=1)],
    )


def parse_lens_catalog(text: str) -> LensCatalog:
    """Parse a ``.lens`` document; raises DslParseError on any problem."""
    diags: list[ParseDiagnostic] = []
    read = _read(text, _STEPS["lens"], True, diags)
    _finish(diags)
    modes = [mode.build(GenericFailureMode) for mode in read["mode"]]
    return LensCatalog(lenses=[
        lens.build(Lens, modes=tuple(mode for mode in modes if mode.lens_id == lens.values["id"]))
        for lens in read["lens"]
    ])


def parse_sfm_bindings(text: str) -> list[SpecialisedFailureMode]:
    """Parse a ``.sfm`` document; raises DslParseError on any problem."""
    diags: list[ParseDiagnostic] = []
    read = _read(text, _STEPS["sfm"], False, diags)
    previous: int | None = None
    for sfm in read["sfm"]:
        if sfm.good("sfm_id"):
            problem = sfm_id_problem(sfm.values["sfm_id"], previous)
            if problem:
                sfm.reject("sfm_id", problem)
            else:
                previous = sfm.values["sfm_id"]
    _finish(diags)
    return [sfm.build(SpecialisedFailureMode) for sfm in read["sfm"]]


def parse_mitigation_catalog(text: str) -> list[Mitigation]:
    """Parse a ``.mit`` document; raises DslParseError on any problem."""
    diags: list[ParseDiagnostic] = []
    read = _read(text, _STEPS["mit"], False, diags)
    _finish(diags)
    return [mit.build(Mitigation) for mit in read["mitigation"]]


def serialize_model(model: Ooda2Model) -> str:
    """Canonical ``.hat`` text for a valid model."""
    return _join_groups([
        [_write(_MODEL, "model", model)],
        [_write(_MODEL, "lane", lane) for lane in model.lanes],
        [_write(_MODEL, "node", node) for node in model.nodes],
        [_write(_MODEL, "edge", edge) for edge in model.edges],
    ])


def serialize_lens_catalog(catalog: LensCatalog) -> str:
    """Canonical ``.lens`` text; one statement group per lens."""
    return _join_groups([
        [_write(_LENS, "lens", lens)] + [_write(_LENS, "mode", mode) for mode in lens.modes]
        for lens in catalog.lenses
    ])


def serialize_sfm_bindings(sfms: list[SpecialisedFailureMode]) -> str:
    """Canonical ``.sfm`` text."""
    return _join_groups([[_write(_SFM, "sfm", sfm) for sfm in sfms]])


def serialize_mitigation_catalog(mitigations: list[Mitigation]) -> str:
    """Canonical ``.mit`` text; damping always written explicitly."""
    return _join_groups([[_write(_MITIGATION, "mitigation", mit) for mit in mitigations]])
