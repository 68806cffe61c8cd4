"""Formula AST, concrete syntax, binary size measure, subformula utilities.

The propositional base is: constant 0, fuzzy negation, truncated subtraction
of a rational constant, and minimum.  Modal operators are pluggable; atoms
are treated as nullary modal operators and therefore appear as leaves.
Formulas and modal operators are hash-consed in one table, so equal syntax
is one object.  The table's keys hold a rational constant as its reduced
numerator and denominator, so interning hashes and compares `int`s; the
node's field keeps the `Fraction`.
"""

from __future__ import annotations

import re
import weakref
from _weakref import _remove_dead_weakref
from fractions import Fraction

from .numerics import NumericError, bit_length, parse_rational, to_fraction


class ParseError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


# ---------------------------------------------------------------------------
# Interned nodes
# ---------------------------------------------------------------------------


class _KeyedRef(weakref.ref):
    """A weak reference to a node that knows the node's intern key."""

    __slots__ = ("key",)


# Hash-consing (Filliatre & Conchon, "Type-safe modular hash-consing", 2006):
# every live syntax node, formula or modal operator, is registered here under
# its class index and fields, a rational constant entering as its reduced
# numerator and denominator `int`s, so constructing a node equal to a live one
# returns that very object.  Equality and hashing of nodes are therefore
# those of object identity, and a node's size and modal depth are computed
# once, from its fields', when it is first built.  The table holds nodes
# weakly, by a reference whose callback drops the entry when the node dies:
# it never keeps a node alive.
_NODES: dict[tuple, _KeyedRef] = {}


def _forget(ref: _KeyedRef) -> None:
    # Only while the entry is still a dead reference: the key may have been
    # built again since the node died.
    _remove_dead_weakref(_NODES, ref.key)


class _Node:
    """An immutable, hash-consed syntax node; `size` is its syntactic size
    with rational constants measured in binary digits."""

    __slots__ = ("size", "__weakref__")

    def __setattr__(self, name, value):
        raise AttributeError(f"syntax nodes are immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"syntax nodes are immutable: cannot delete {name!r}")

    # Unpickling calls the constructor, which returns the live equal node.
    def __reduce__(self):
        return (type(self), tuple(getattr(self, slot) for slot in type(self).__slots__))

    def __repr__(self) -> str:
        return f"{type(self).__name__}<{self}>"


def _node(key: tuple, fields: tuple, size: int, depth: int | None):
    """The live node for intern key `key`, whose first item is the class
    index into `_CLASSES`; built with slot values `fields`, `size` and modal
    depth `depth` (None for an operator), and registered, if there is none."""
    ref = _NODES.get(key)
    node = ref and ref()
    if node is not None:
        return node
    cls = _CLASSES[key[0]]
    node = object.__new__(cls)
    for slot, value in zip(cls.__slots__, fields):
        object.__setattr__(node, slot, value)
    object.__setattr__(node, "size", size)
    if depth is not None:
        object.__setattr__(node, "modal_depth", depth)
    ref = _KeyedRef(node, _forget)
    ref.key = key
    _NODES[key] = ref
    return node


def _unit(c, what: str) -> tuple[Fraction, int, int]:
    """`c` as an exact constant in [0, 1], with its reduced numerator and
    denominator; a float is refused."""
    c = to_fraction(c)
    n, d = c.as_integer_ratio()
    if not 0 <= n <= d:
        raise NumericError(f"{what} {c} outside [0, 1]")
    return c, n, d


def _name(name: str, what: str) -> str:
    """`name` if the tokenizer reads it as one identifier, so that `to_text`
    output parses back."""
    if isinstance(name, str) and name.isascii() and name.isidentifier():
        return name
    raise ValueError(f"{what} {name!r} is not an ASCII identifier")


# ---------------------------------------------------------------------------
# Modal operators
# ---------------------------------------------------------------------------


class ModalOp(_Node):
    """Base class for modal operators."""

    __slots__ = ()


class Diamond(ModalOp):
    """Fuzzy-relational diamond: degree of having a successor satisfying the argument."""

    __slots__ = ()

    def __new__(cls):
        return _node((6,), (), 1, None)

    def __str__(self) -> str:
        return "dia"


class Generally(ModalOp):
    """Probabilistic operator: degree to which the argument holds with high probability."""

    __slots__ = ()

    def __new__(cls):
        return _node((7,), (), 1, None)

    def __str__(self) -> str:
        return "G"


class MoreThan(ModalOp):
    """Largest degree guaranteed with probability strictly above the parameter."""

    __slots__ = ("p",)

    def __new__(cls, p: Fraction):
        p, n, d = _unit(p, "probability parameter")
        return _node((8, n, d), (p,), bit_length(n) + bit_length(d), None)

    def __str__(self) -> str:
        return f"M{{{self.p}}}"


class MetricDiamond(ModalOp):
    """Labelled diamond over a metric label space, with reach bound `c`."""

    __slots__ = ("label", "c")

    def __new__(cls, label: str, c: Fraction):
        label = _name(label, "label")
        c, n, d = _unit(c, "reach bound")
        return _node((9, label, n, d), (label, c), 1, None)

    def __str__(self) -> str:
        return f"dia{{{self.label},{self.c}}}"


# ---------------------------------------------------------------------------
# Formulas
# ---------------------------------------------------------------------------


class Formula(_Node):
    """A formula node; `modal_depth` is the nesting depth of modal operators."""

    __slots__ = ("modal_depth",)

    def __str__(self) -> str:
        return to_text(self)


class Zero(Formula):
    __slots__ = ()

    def __new__(cls):
        return _node((0,), (), 1, 0)


class Atom(Formula):
    __slots__ = ("name",)

    def __new__(cls, name: str):
        if _name(name, "atom name") in _PREFIX_WORDS:
            raise ValueError(f"atom name {name!r} is a prefix word")
        return _node((1, name), (name,), 1, 0)


class Neg(Formula):
    __slots__ = ("arg",)

    def __new__(cls, arg: Formula):
        return _node((2, arg), (arg,), arg.size + 1, arg.modal_depth)


class Minus(Formula):
    """Truncated subtraction of a constant: value max(0, arg - c)."""

    __slots__ = ("arg", "c")

    def __new__(cls, arg: Formula, c: Fraction):
        c, n, d = _unit(c, "shift constant")
        size = arg.size + bit_length(n) + bit_length(d) + 1
        return _node((3, arg, n, d), (arg, c), size, arg.modal_depth)


class And(Formula):
    __slots__ = ("left", "right")

    def __new__(cls, left: Formula, right: Formula):
        return _node((4, left, right), (left, right), left.size + right.size + 1,
                     max(left.modal_depth, right.modal_depth))


class Modal(Formula):
    __slots__ = ("op", "arg")

    def __new__(cls, op: ModalOp, arg: Formula):
        return _node((5, op, arg), (op, arg), arg.size + op.size, arg.modal_depth + 1)


_CLASSES = (Zero, Atom, Neg, Minus, And, Modal, Diamond, Generally, MoreThan, MetricDiamond)
def Or(left: Formula, right: Formula) -> Formula:
    """Disjunction is sugar: max(x, y) = 1 - min(1-x, 1-y)."""
    return Neg(And(Neg(left), Neg(right)))


# ---------------------------------------------------------------------------
# Size, subformulas, depth
# ---------------------------------------------------------------------------


def size(f: Formula) -> int:
    """Syntactic size with rational constants measured in binary digits."""
    return f.size


def subformulas(f: Formula) -> set[Formula]:
    """All subformulas of f, including f itself."""
    out: set[Formula] = set()
    stack = [f]
    while stack:
        g = stack.pop()
        if g in out:
            continue
        out.add(g)
        if isinstance(g, (Neg, Minus, Modal)):
            stack.append(g.arg)
        elif isinstance(g, And):
            stack.append(g.left)
            stack.append(g.right)
    return out


def modal_depth(f: Formula) -> int:
    return f.modal_depth


# ---------------------------------------------------------------------------
# Concrete syntax
# ---------------------------------------------------------------------------

_PREFIX_WORDS = {"~", "not", "dia", "G", "M"}  # never atoms

# The tokens, tried in this order: an exact decimal, an integer, an
# identifier, a symbol, or any other non-space character, which is an error.
# Digits are ASCII, as in file rationals.
_TOKEN_RE = re.compile(r"[0-9]+\.[0-9]+|[0-9]+|[A-Za-z_][A-Za-z0-9_]*|[()&|~\-/{},]|\S")
# The characters no token of one character is made of.  A text without them
# has no bad token; a `.` is good inside a decimal, so a text with one is
# checked token by token.
_ODD_CHAR_RE = re.compile(r"[^\sA-Za-z0-9_()&|~\-/{},]")


class _TokenError(Exception):
    """A parse error at a token index; `parse` turns it into a `ParseError`
    at the token's position in the text."""


def _tokenize(text: str) -> list[str]:
    """The token texts, then `""` for the end of the input."""
    tokens = _TOKEN_RE.findall(text)
    if _ODD_CHAR_RE.search(text):
        for i, tok in enumerate(tokens):
            if len(tok) == 1 and _ODD_CHAR_RE.match(tok):
                raise _TokenError(f"unexpected character {tok!r}", i)
    tokens.append("")
    return tokens


def _constant(tokens: list[str], i: int) -> tuple[Fraction, int]:
    """The rational constant at token `i`, and the index after it."""
    tok = tokens[i]
    if tok.isdigit():  # the tokens hold ASCII digits only
        num = int(tok)
        den = 1
        end = i + 1
        if tokens[end] == "/":
            den_tok = tokens[end + 1]
            if not den_tok.isdigit():
                raise _TokenError(f"expected denominator, found {den_tok!r}", end + 1)
            den = int(den_tok)
            if den == 0:
                raise _TokenError("zero denominator", end + 1)
            end += 2
    elif "." in tok:
        q = parse_rational(tok)
        num, den, end = q.numerator, q.denominator, i + 1
    else:
        raise _TokenError(f"expected a rational constant, found {tok!r}", i)
    if num > den:
        raise _TokenError(f"constant {Fraction(num, den)} outside [0, 1]", i)
    return Fraction(num, den), end


def _expect(tokens: list[str], i: int, sym: str) -> int:
    if tokens[i] != sym:
        raise _TokenError(f"expected {sym!r}, found {tokens[i]!r}", i)
    return i + 1


def _prefix(tokens: list[str], i: int) -> tuple[ModalOp | None, int]:
    """The operator of the prefix word at token `i` (None for negation), and
    the index after it."""
    word = tokens[i]
    i += 1
    if word == "~" or word == "not":
        return None, i
    if word == "G":
        return Generally(), i
    if word == "M":
        p, i = _constant(tokens, _expect(tokens, i, "{"))
        return MoreThan(p), _expect(tokens, i, "}")
    if tokens[i] != "{":
        return Diamond(), i
    label = tokens[i + 1]
    if not label.isidentifier():
        raise _TokenError(f"expected a label identifier, found {label!r}", i + 1)
    c, i = _constant(tokens, _expect(tokens, i + 2, ","))
    return MetricDiamond(label, c), _expect(tokens, i, "}")


def _parse_tokens(tokens: list[str]) -> Formula:
    """One loop over the tokens.  An operand is a prefix chain, then an atom,
    `0` or a parenthesized group; its operators follow.  An open group waits
    on `stack` with its state (its disjunction and conjunction so far, and
    the prefix chain before its `(`), so the nesting depth is not bounded by
    the interpreter's recursion limit.
    """
    stack: list[tuple] = []
    disj = conj = None
    ops: list[ModalOp | None] = []  # the prefix chain; None is negation
    i = 0
    while True:
        tok = tokens[i]
        if tok == "(":
            stack.append((disj, conj, ops))
            disj, conj, ops = None, None, []
            i += 1
            continue
        if tok in _PREFIX_WORDS:
            op, i = _prefix(tokens, i)
            ops.append(op)
            continue
        if tok == "0":
            f = Zero()
        elif tok.isidentifier():
            f = Atom(tok)
        else:
            raise _TokenError(f"unexpected token {tok!r}", i)
        i += 1
        while True:  # after a complete primary `f` of the current group
            for op in reversed(ops):  # innermost first
                f = Neg(f) if op is None else Modal(op, f)
            ops = []
            while tokens[i] == "-":
                c, i = _constant(tokens, i + 1)
                f = Minus(f, c)
            tok = tokens[i]
            i += 1
            if tok == "&":
                conj = f if conj is None else And(conj, f)
                break
            f = f if conj is None else And(conj, f)
            f = f if disj is None else Or(disj, f)
            if tok == "|":
                disj, conj = f, None
                break
            if not stack:
                if tok:
                    raise _TokenError(f"unexpected trailing input {tok!r}", i - 1)
                return f
            if tok != ")":
                raise _TokenError(f"expected ')', found {tok!r}", i - 1)
            disj, conj, ops = stack.pop()


def parse(text: str) -> Formula:
    """Parse the concrete syntax.

    Grammar, loosest to tightest: `|` (disjunction, desugared), `&`, postfix
    `- c` (truncated subtraction), then prefix `~`/`not`/`dia`/`G`/`M{p}`/
    `dia{label,c}`, then atoms, `0`, and parentheses.
    """
    try:
        return _parse_tokens(_tokenize(text))
    except _TokenError as exc:
        message, index = exc.args
        starts = [m.start() for m in _TOKEN_RE.finditer(text)]
        pos = starts[index] if index < len(starts) else len(text)
        raise ParseError(message, pos) from None


_PREC_AND = 2
_PREC_SHIFT = 3
_PREC_UNARY = 4


def _prec(f: Formula) -> int:
    if isinstance(f, And):
        return _PREC_AND
    if isinstance(f, Minus):
        return _PREC_SHIFT
    if isinstance(f, (Neg, Modal)):
        return _PREC_UNARY
    return 5


def to_text(f: Formula) -> str:
    """Canonical concrete syntax; `parse(to_text(f)) is f`."""
    pieces: list[str] = []
    # Work list of pending output, last item first: a string is emitted as
    # is, a (formula, min_prec) pair is expanded into its parts.
    todo: list = [(f, 0)]
    while todo:
        item = todo.pop()
        if isinstance(item, str):
            pieces.append(item)
            continue
        g, min_prec = item
        if isinstance(g, Zero):
            parts = ["0"]
        elif isinstance(g, Atom):
            parts = [g.name]
        elif isinstance(g, Neg):
            parts = ["~", (g.arg, _PREC_UNARY)]
        elif isinstance(g, Modal):
            parts = [f"{g.op} ", (g.arg, _PREC_UNARY)]
        elif isinstance(g, Minus):
            parts = [(g.arg, _PREC_SHIFT), f" - {g.c}"]
        elif isinstance(g, And):
            parts = [(g.left, _PREC_AND), " & ", (g.right, _PREC_AND + 1)]
        else:
            raise TypeError(f"not a formula: {g!r}")
        if _prec(g) < min_prec:
            parts = ["(", *parts, ")"]
        todo.extend(reversed(parts))
    return "".join(pieces)
