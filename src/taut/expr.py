"""Element expression language and canonical JSON serialization.

Grammar:

    program := (let NAME '=' expr ';')* expr
    expr    := term (('*' | '@') term)*
    term    := atom ('^' INT)?
    atom    := 'rot' '(' ztau ')' | 'trans' '(' ztau ')'
             | 'comm' '(' expr ',' expr ')' | 'conj' '(' expr ',' expr ')'
             | 'lift' '(' expr ',' INT ')'
             | 'map' JSON | 'treepair' JSON
             | NAME | '(' expr ')'
    ztau    := ['+'|'-'] zterm (('+'|'-') zterm)*
    zterm   := INT ['*'] 't' | INT | 't'

'*' composes in action order (left map acts first, matching actions on
the right), so evaluate_str("a * b") applied to x gives b(a(x)).  Interval
maps promote to circle maps when mixed with them; circle maps must be
lifted explicitly with lift(e, n).  Applying lift to something that is
already a lift offsets its integer part by n.
"""

from __future__ import annotations

import json
import re
import sys
from itertools import accumulate

from . import construct
from .circle import CircleMap, leaf_exponents
from .errors import (
    ExprSyntaxError,
    ExprTypeError,
    PowerBudgetExceeded,
    SchemaError,
)
from .lift import RESULT_KINDS, LiftMap, check_result, result_from_json
from .plmap import MAX_POWER, PLMap, commutator, conjugate, is_ftau, power
from .ring import SCHEMA_VERSION, RingLiteralError, ZTau, json_int, read_ztau

_KEYWORDS = {"let", "rot", "trans", "comm", "conj", "lift", "map",
             "treepair", "t"}

# Deepest nesting of parentheses in an expression, and of brackets and
# braces in each JSON value (an inline payload, or a file), that is read;
# deeper input is rejected before the recursive parsers could exhaust the
# interpreter's stack.
MAX_NESTING = 100

# Largest |k| * size(e) read in a power e^k, where size(e) is the total
# bit length of e's breakpoint coefficients, checked before any product.
# Nested powers multiply their exponents past MAX_POWER: with E the
# three-leaf tree pair (size 12), E^10000 reads 120,000 and (E^100)^100
# 738,000, each about a second, while (E^1000)^1000 reads 7 * 10**8 and
# would run for minutes.  A product chain a * b * c ... is bounded by the
# same figure, on the sum over its products of both operands' sizes, and
# so is each comm(a, b) and conj(a, b), on size(a) + size(b).
MAX_POWER_WORK = 1_000_000

_INT = re.compile(r"([+-]?)(\d*)")
_NAME = re.compile(r"\w+")
_BLANKS = re.compile(r"\s+")
_DECODER = json.JSONDecoder()
_BRACKET = re.compile(r"[][{}]")
_LONG_INT = f"integer too long (more than {sys.get_int_max_str_digits()} digits)"


def _check_json_nesting(text: str) -> None:
    """Raise SchemaError if brackets and braces in text, outside strings,
    nest deeper than MAX_NESTING."""
    if text.count("[") + text.count("{") <= MAX_NESTING:
        return
    # with escaped backslashes and quotes dropped, every other piece
    # between quotes is the inside of a string
    pieces = text.replace("\\\\", "").replace('\\"', "").split('"')
    brackets = _BRACKET.findall("".join(pieces[::2]))
    steps = (1 if ch in "[{" else -1 for ch in brackets)
    if max(accumulate(steps), default=0) > MAX_NESTING:
        raise SchemaError(f"JSON nests deeper than {MAX_NESTING} levels")


# -- reading and evaluating ---------------------------------------------------
#
# The recursive-descent reader returns the element that each rule
# denotes, so the first error in reading order is the one reported.  It
# reads each word once: an atom reads the word at the cursor and
# dispatches on it, and an inline JSON value is decoded once and its
# nesting checked on its own text.

Element = PLMap | CircleMap | LiftMap


class _Scanner:
    def __init__(self, text: str, env: dict[str, Element] | None) -> None:
        self.text = text
        self.pos = 0
        self.depth = 0
        self.env = dict(env or {})

    def error(self, message: str) -> ExprSyntaxError:
        line = self.text.count("\n", 0, self.pos) + 1
        col = self.pos - (self.text.rfind("\n", 0, self.pos) + 1) + 1
        return ExprSyntaxError(message, line, col)

    def skip_ws(self) -> None:
        if self.text[self.pos:self.pos + 1].isspace():
            self.pos = _BLANKS.match(self.text, self.pos).end()

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch: str) -> None:
        if self.peek() != ch:
            raise self.error(f"expected {ch!r}")
        self.pos += 1

    def take_word(self, word: str) -> bool:
        """Pass the word at the cursor if it is word."""
        self.skip_ws()
        m = _NAME.match(self.text, self.pos)
        if m is None or m.group() != word:
            return False
        self.pos = m.end()
        return True

    def read_int(self) -> int:
        self.skip_ws()
        m = _INT.match(self.text, self.pos)
        if not m.group(2):
            self.pos = m.end()
            raise self.error("expected an integer")
        try:
            n = int(m.group())
        except ValueError:  # past the interpreter's digit limit
            raise self.error(f"integer of {len(m.group(2))} digits is too "
                             "long") from None
        self.pos = m.end()
        return n

    def read_name(self) -> str:
        self.skip_ws()
        m = _NAME.match(self.text, self.pos)
        if not m:
            raise self.error("expected a name")
        self.pos = m.end()
        return m.group()

    def read_json(self) -> object:
        """The JSON value at the cursor.  Its nesting is checked on its own
        text, so a chain of values is scanned once in all; a value that
        does not decode ends the reading, and is reported as too deep if
        the rest of the text nests too deep."""
        self.skip_ws()
        try:
            obj, end = _DECODER.raw_decode(self.text, self.pos)
        except ValueError as exc:  # a JSONDecodeError, or an integer too long
            self.check_nesting(len(self.text))
            raise self.error(f"bad inline JSON: {getattr(exc, 'msg', _LONG_INT)}") from exc
        except RecursionError:  # the decoder's own bound, far past ours
            raise self.error(f"JSON nests deeper than {MAX_NESTING} "
                             "levels") from None
        self.check_nesting(end)
        self.pos = end
        return obj

    def read_payload(self, read):
        """read(value) of the JSON value at the cursor; a SchemaError in it is
        reported at the column where the value starts."""
        self.skip_ws()
        start = self.pos
        obj = self.read_json()
        try:
            return read(obj)
        except SchemaError as exc:
            self.pos = start
            raise self.error(str(exc)) from exc

    def check_nesting(self, end: int) -> None:
        try:
            _check_json_nesting(self.text[self.pos:end])
        except SchemaError as exc:
            raise self.error(str(exc)) from exc

    def read_ztau(self) -> ZTau:
        if self.peek():
            try:
                z, self.pos = read_ztau(self.text, self.pos)
            except RingLiteralError as exc:
                self.pos = exc.pos
                raise self.error(str(exc)) from None
            if self.pos < len(self.text):
                return z
        # a literal cut off by the end of the text is reported one column
        # past the end: --json error output carries that position
        self.pos = len(self.text) + 1
        raise self.error("expected a ring literal")


def evaluate_str(text: str, env: dict[str, Element] | None = None) -> Element:
    """The element that an expression denotes; names are looked up in env,
    which the expression's let bindings do not change.  Each product,
    power (e^-1 included, one inverse), commutator and conjugate is made
    where it is read, and none is kept: a word written twice is made
    twice.  A certificate's claims are not read through here: its
    construction hands its check the products it made, and taut check
    makes them from the stored parts."""
    sc = _Scanner(text, env)
    while sc.take_word("let"):
        name = sc.read_name()
        if name in _KEYWORDS:
            raise sc.error(f"{name!r:.40} is reserved")
        sc.take("=")
        value = _read_expr(sc)
        sc.take(";")
        sc.env[name] = value
    out = _read_expr(sc)
    sc.skip_ws()
    if sc.pos != len(sc.text):
        raise sc.error("trailing input after expression")
    return out


def _read_expr(sc: _Scanner) -> Element:
    sc.depth += 1
    if sc.depth > MAX_NESTING:
        raise sc.error(f"expression nests deeper than {MAX_NESTING} levels")
    # fold a * b * c in this loop, so that a long product does not recurse
    # once per factor; the chain's work is the sum of its products'
    # operand sizes, bounded as a power's is
    out = _read_term(sc)
    work = 0
    while sc.peek() in ("*", "@"):
        sc.pos += 1
        term = _read_term(sc)
        work += _size(out) + _size(term)
        if work > MAX_POWER_WORK:
            raise PowerBudgetExceeded(
                f"product chain of work {work} exceeds the bound "
                f"{MAX_POWER_WORK} on the summed sizes of its factors in an "
                "expression")
        a, b = _promote_pair(out, term)
        out = a * b
    sc.depth -= 1
    return out


def _read_term(sc: _Scanner) -> Element:
    out = _read_atom(sc)
    if sc.peek() == "^":
        sc.pos += 1
        k = sc.read_int()
        if abs(k) > MAX_POWER:
            raise PowerBudgetExceeded(f"exponent {k} exceeds the bound "
                                      f"{MAX_POWER} on |k| in an expression")
        size = _size(out)
        if abs(k) * size > MAX_POWER_WORK:
            raise PowerBudgetExceeded(
                f"power ^{k} of an element of size {size} exceeds the bound "
                f"{MAX_POWER_WORK} on |k| * size in an expression")
        out = power(out, k)
    return out


def _size(element: Element) -> int:
    """The total bit length of an element's breakpoint coefficients."""
    t = element if isinstance(element, PLMap) else element.table
    return sum([z.a.bit_length() + z.b.bit_length() for z in t.xs + t.ys])


def _read_atom(sc: _Scanner) -> Element:
    sc.skip_ws()
    m = _NAME.match(sc.text, sc.pos)
    if m is None:
        if sc.peek() != "(":
            raise sc.error("expected a name")
        sc.pos += 1
        out = _read_expr(sc)
        sc.take(")")
        return out
    sc.pos = m.end()
    word = m.group()
    if word == "rot" or word == "trans":
        sc.take("(")
        angle = sc.read_ztau()
        sc.take(")")
        if word == "rot":
            return CircleMap.rotation(angle)
        return LiftMap.translation(angle)
    if word == "comm" or word == "conj":
        sc.take("(")
        a = _read_expr(sc)
        sc.take(",")
        b = _read_expr(sc)
        sc.take(")")
        work = _size(a) + _size(b)
        if work > MAX_POWER_WORK:
            raise PowerBudgetExceeded(
                f"{word} of work {work} exceeds the bound {MAX_POWER_WORK} "
                "on the summed sizes of its operands in an expression")
        make = commutator if word == "comm" else conjugate
        return make(*_promote_pair(a, b))
    if word == "lift":
        sc.take("(")
        inner = _read_expr(sc)
        sc.take(",")
        n = sc.read_int()
        sc.take(")")
        if isinstance(inner, PLMap):
            inner = _to_circle(inner)
        return LiftMap(inner.table).translate(n)
    if word == "map":
        return sc.read_payload(_map_payload)
    if word == "treepair":
        return sc.read_payload(_tree_pair_payload)
    if word in _KEYWORDS:
        raise sc.error(f"{word!r:.40} cannot be used as a name here")
    if word not in sc.env:
        raise ExprTypeError(f"unbound name {word!r:.40}")
    return sc.env[word]


def _map_payload(obj: object) -> PLMap | CircleMap:
    if isinstance(obj, dict) and ("base" in obj or obj.get("kind") == "circle"):
        return CircleMap.from_json(obj)
    return PLMap.from_json(obj)


def _tree_pair_payload(obj: object) -> CircleMap:
    if not isinstance(obj, dict) or not {"p", "q"} <= set(obj):
        raise SchemaError("treepair payload needs 'p' and 'q'")
    pe = leaf_exponents(obj["p"])
    qe = leaf_exponents(obj["q"])
    shift = json_int(obj.get("shift", 0), "treepair shift")
    return CircleMap.from_tree_pair(pe, qe, shift)


def _promote_pair(a: Element, b: Element) -> tuple[Element, Element]:
    if type(a) is type(b):
        return a, b
    if isinstance(a, PLMap) and isinstance(b, CircleMap):
        return _to_circle(a), b
    if isinstance(a, CircleMap) and isinstance(b, PLMap):
        return a, _to_circle(b)
    raise ExprTypeError(
        f"cannot mix {type(a).__name__} with {type(b).__name__}; "
        "wrap circle elements with lift(expr, n) first")


def _to_circle(g: PLMap) -> CircleMap:
    if not is_ftau(g):
        raise ExprTypeError(
            "only interval elements of [0, 1] promote to circle maps")
    return CircleMap.from_interval_map(g)


def to_expression(element: Element) -> str:
    """Expression text that evaluates back to the given element."""
    if isinstance(element, (PLMap, CircleMap)):
        return f"map {canonical_json(element.to_json())}"
    if isinstance(element, LiftMap):
        out = element.to_json()
        return f"lift(map {canonical_json(out['base'])}, {out['n']})"
    raise TypeError(f"not an element: {element!r}")


# -- canonical serialization --------------------------------------------------------

# to_json builds each payload afresh as a tree, so no cycle can occur:
# a per-call encoder and its cycle check would be pure cost.
canonical_json = json.JSONEncoder(sort_keys=True, separators=(",", ":"),
                                  check_circular=False).encode


def serialize(obj) -> str:
    """Canonical JSON for elements, results and certificates."""
    payload = obj.to_json()
    payload["kind"] = obj.kind
    payload["schema"] = SCHEMA_VERSION
    return canonical_json(payload)


# -- the payload kinds: loading and re-checking ----------------------------------
#
# A checker re-validates a loaded payload, given the payload and the work
# budgets, and returns the label that `taut check` prints.

def _check_element(element, obj: dict, budgets: dict) -> str:
    return type(element).__name__.lower()


def _check_certificate(cert, obj: dict, budgets: dict) -> str:
    cert.verify()
    return cert.kind


def _check_witness(wit, obj: dict, budgets: dict) -> str:
    wit.verify(max_den=budgets["max_den"])
    return wit.kind


# payload kind -> (loader, checker)
_KINDS = {
    **{cls.kind: (cls.from_json, _check_element) for cls in (PLMap, CircleMap, LiftMap)},
    **dict.fromkeys(RESULT_KINDS, (result_from_json, check_result)),
    **{cls.kind: (cls.from_json, _check_certificate)
       for cls in (construct.TransitivityCertificate, construct.FactorCertificate,
                   construct.CommutatorCertificate)},
    construct.DefectWitness.kind: (construct.DefectWitness.from_json, _check_witness),
}


def _load(text: str):
    """Parse a payload; returns it, its loaded value and its checker."""
    _check_json_nesting(text)
    try:
        obj = json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an integer too long
        raise SchemaError(f"not valid JSON: {getattr(exc, 'msg', _LONG_INT)}") from exc
    if not isinstance(obj, dict) or "kind" not in obj:
        raise SchemaError("payload must be an object with a 'kind'")
    kind = obj["kind"]
    if not isinstance(kind, str) or kind not in _KINDS:
        raise SchemaError(f"unknown payload kind {kind!r:.40}")
    load, check = _KINDS[kind]
    try:
        value = load(obj)
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise SchemaError(f"bad {kind} payload: {exc}") from exc
    return obj, value, check


def deserialize(text: str):
    """Inverse of serialize; every group element is re-validated."""
    return _load(text)[1]


def check_payload(text: str, budgets: dict) -> str:
    """Load and re-check a serialized payload within the work budgets
    (max_den, max_iter); returns the label that `taut check` prints."""
    obj, value, check = _load(text)
    return check(value, obj, budgets)


def check_expression(text: str) -> str:
    """Evaluate an element expression; returns the label that `taut check`
    prints."""
    return _check_element(evaluate_str(text), {}, {})
