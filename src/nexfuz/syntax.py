"""Formula AST, concrete syntax, binary size measure, subformula utilities.

The propositional base is: constant 0, fuzzy negation, truncated subtraction
of a rational constant, and minimum.  Modal operators are pluggable; atoms
are treated as nullary modal operators and therefore appear as leaves.
"""

from __future__ import annotations

import re
import weakref
from dataclasses import dataclass
from fractions import Fraction

from .numerics import (
    NumericError,
    ONE,
    ZERO,
    bit_length,
    parse_rational,
    to_fraction,
)


class ParseError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


# ---------------------------------------------------------------------------
# Modal operators
# ---------------------------------------------------------------------------


class ModalOp:
    """Base class for modal operator tags."""

    __slots__ = ()

    def size(self) -> int:
        return 1


@dataclass(frozen=True)
class Diamond(ModalOp):
    """Fuzzy-relational diamond: degree of having a successor satisfying the argument."""

    def __str__(self) -> str:
        return "dia"


@dataclass(frozen=True)
class Generally(ModalOp):
    """Probabilistic operator: degree to which the argument holds with high probability."""

    def __str__(self) -> str:
        return "G"


@dataclass(frozen=True)
class MoreThan(ModalOp):
    """Largest degree guaranteed with probability strictly above the parameter."""

    p: Fraction

    def __post_init__(self):
        object.__setattr__(self, "p", to_fraction(self.p))
        if not ZERO <= self.p <= ONE:
            raise NumericError(f"probability parameter {self.p} outside [0, 1]")

    def size(self) -> int:
        return bit_length(self.p.numerator) + bit_length(self.p.denominator)

    def __str__(self) -> str:
        return f"M{{{self.p}}}"


@dataclass(frozen=True)
class MetricDiamond(ModalOp):
    """Labelled diamond over a metric label space, with reach bound `c`."""

    label: str
    c: Fraction

    def __post_init__(self):
        object.__setattr__(self, "c", to_fraction(self.c))
        if not ZERO <= self.c <= ONE:
            raise NumericError(f"reach bound {self.c} outside [0, 1]")

    def __str__(self) -> str:
        return f"dia{{{self.label},{self.c}}}"


# ---------------------------------------------------------------------------
# Formulas
# ---------------------------------------------------------------------------

# Hash-consing (Filliatre & Conchon, "Type-safe modular hash-consing", 2006):
# every live formula node is registered here under its class index and
# children, so constructing a node equal to a live one returns that very
# object.  Equality of formulas is therefore identity, and a node's hash,
# size and modal depth are computed once, from its children's, when it is
# first built.  The table holds nodes weakly: it never keeps a formula alive.
_NODES: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


class Formula:
    """An immutable, hash-consed formula node.

    `size` is the syntactic size with rational constants measured in binary
    digits; `modal_depth` is the nesting depth of modal operators.
    """

    __slots__ = ("_hash", "size", "modal_depth", "__weakref__")

    def __hash__(self) -> int:
        return self._hash

    def __setattr__(self, name, value):
        raise AttributeError(f"formulas are immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"formulas are immutable: cannot delete {name!r}")

    def __reduce__(self):
        return (type(self), tuple(getattr(self, slot) for slot in type(self).__slots__))

    def __repr__(self) -> str:
        return f"{type(self).__name__}<{to_text(self)}>"

    def __str__(self) -> str:
        return to_text(self)


def _node(key: tuple, size: int, depth: int):
    """Build and register the node for intern key `(class index, *fields)`,
    the class index pointing into `_CLASSES`."""
    cls = _CLASSES[key[0]]
    node = object.__new__(cls)
    for slot, value in zip(cls.__slots__, key[1:]):
        object.__setattr__(node, slot, value)
    object.__setattr__(node, "_hash", hash(key))
    object.__setattr__(node, "size", size)
    object.__setattr__(node, "modal_depth", depth)
    _NODES[key] = node
    return node


class Zero(Formula):
    __slots__ = ()

    def __new__(cls):
        key = (0,)
        return _NODES.get(key) or _node(key, 1, 0)


class Atom(Formula):
    __slots__ = ("name",)

    def __new__(cls, name: str):
        key = (1, name)
        return _NODES.get(key) or _node(key, 1, 0)


class Neg(Formula):
    __slots__ = ("arg",)

    def __new__(cls, arg: Formula):
        key = (2, arg)
        return _NODES.get(key) or _node(key, arg.size + 1, arg.modal_depth)


class Minus(Formula):
    """Truncated subtraction of a constant: value max(0, arg - c)."""

    __slots__ = ("arg", "c")

    def __new__(cls, arg: Formula, c: Fraction):
        # Before the lookup, which a float equal to a live constant passes.
        c = to_fraction(c)
        key = (3, arg, c)
        node = _NODES.get(key)
        if node is not None:
            return node
        if not ZERO <= c <= ONE:
            raise NumericError(f"shift constant {c} outside [0, 1]")
        size = arg.size + bit_length(c.numerator) + bit_length(c.denominator) + 1
        return _node(key, size, arg.modal_depth)


class And(Formula):
    __slots__ = ("left", "right")

    def __new__(cls, left: Formula, right: Formula):
        key = (4, left, right)
        return _NODES.get(key) or _node(
            key, left.size + right.size + 1, max(left.modal_depth, right.modal_depth)
        )


class Modal(Formula):
    __slots__ = ("op", "arg")

    def __new__(cls, op: ModalOp, arg: Formula):
        key = (5, op, arg)
        return _NODES.get(key) or _node(key, arg.size + op.size(), arg.modal_depth + 1)


_CLASSES = (Zero, Atom, Neg, Minus, And, Modal)


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

_PREFIX_WORDS = {"not", "dia", "G", "M"}  # never atoms

# A token is (kind, text, position); a symbol's kind is the symbol itself.
# Every character but whitespace starts a token, and `bad` ones are errors.
_TOKEN_RE = re.compile(
    r"\s*(?:(?P<dec>\d+\.\d+)|(?P<int>\d+)|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<sym>[()&|~\-/{},])|(?P<bad>\S))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        value = m.group(kind)
        if kind == "bad":
            raise ParseError(f"unexpected character {value!r}", m.start(kind))
        tokens.append((value if kind == "sym" else kind, value, m.start(kind)))
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_sym(self, sym: str):
        kind, value, pos = self.next()
        if kind != sym:
            raise ParseError(f"expected {sym!r}, found {value!r}", pos)

    def parse_formula(self) -> Formula:
        """One loop over the tokens.  An operand is a prefix chain, then an
        atom, `0` or a parenthesized group; its operators follow.  An open
        group waits on `stack` with its state (its disjunction and
        conjunction so far, and the prefix chain before its `(`), so the
        nesting depth is not bounded by the interpreter's recursion limit.
        """
        stack: list[tuple] = []
        disj = conj = None
        ops: list[ModalOp | None] = []  # the prefix chain; None is negation
        while True:
            kind, value, pos = self.next()
            if kind == "(":
                stack.append((disj, conj, ops))
                disj, conj, ops = None, None, []
                continue
            if kind == "~" or (kind == "ident" and value in _PREFIX_WORDS):
                ops.append(self.parse_prefix(value))
                continue
            if kind == "int" and value == "0":
                f = Zero()
            elif kind == "ident":
                f = Atom(value)
            else:
                raise ParseError(f"unexpected token {value!r}", pos)
            while True:  # after a complete primary `f` of the current group
                for op in reversed(ops):  # innermost first
                    f = Neg(f) if op is None else Modal(op, f)
                ops = []
                while self.tokens[self.i][0] == "-":
                    self.i += 1
                    f = Minus(f, self.parse_constant())
                kind, value, pos = self.next()
                if kind == "&":
                    conj = f if conj is None else And(conj, f)
                    break
                f = f if conj is None else And(conj, f)
                f = f if disj is None else Or(disj, f)
                if kind == "|":
                    disj, conj = f, None
                    break
                if not stack:
                    if kind != "end":
                        raise ParseError(f"unexpected trailing input {value!r}", pos)
                    return f
                if kind != ")":
                    raise ParseError(f"expected ')', found {value!r}", pos)
                disj, conj, ops = stack.pop()

    def parse_prefix(self, word: str) -> ModalOp | None:
        """The operator a prefix word starts; None for negation."""
        if word in ("~", "not"):
            return None
        if word == "G":
            return Generally()
        if word == "M":
            self.expect_sym("{")
            p = self.parse_constant()
            self.expect_sym("}")
            return MoreThan(p)
        if self.tokens[self.i][0] != "{":
            return Diamond()
        self.i += 1
        kind, label, pos = self.next()
        if kind != "ident":
            raise ParseError(f"expected a label identifier, found {label!r}", pos)
        self.expect_sym(",")
        c = self.parse_constant()
        self.expect_sym("}")
        return MetricDiamond(label, c)

    def parse_constant(self) -> Fraction:
        kind, value, pos = self.next()
        if kind == "dec":
            q = parse_rational(value)
        elif kind == "int":
            q = Fraction(int(value))
            if self.tokens[self.i][0] == "/":
                self.i += 1
                kind2, value2, pos2 = self.next()
                if kind2 != "int":
                    raise ParseError(f"expected denominator, found {value2!r}", pos2)
                den = int(value2)
                if den == 0:
                    raise ParseError("zero denominator", pos2)
                q = Fraction(int(value), den)
        else:
            raise ParseError(f"expected a rational constant, found {value!r}", pos)
        if not ZERO <= q <= ONE:
            raise ParseError(f"constant {q} outside [0, 1]", pos)
        return q


def parse(text: str) -> Formula:
    """Parse the concrete syntax.

    Grammar, loosest to tightest: `|` (disjunction, desugared), `&`, postfix
    `- c` (truncated subtraction), then prefix `~`/`not`/`dia`/`G`/`M{p}`/
    `dia{label,c}`, then atoms, `0`, and parentheses.
    """
    return _Parser(text).parse_formula()


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
