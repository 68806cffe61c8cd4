import gc
import os
import pickle
import subprocess
import sys
import weakref
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from helpers import prop_subformulas

from nexfuz import syntax
from nexfuz.numerics import UNIT, NumericError
from nexfuz.sequents import Sequent
from nexfuz.syntax import (
    And,
    Atom,
    Diamond,
    Generally,
    MetricDiamond,
    Minus,
    Modal,
    MoreThan,
    Neg,
    Or,
    ParseError,
    Zero,
    modal_depth,
    parse,
    size,
    subformulas,
    to_text,
)

DIA_A = Modal(Diamond(), Atom("a"))


class TestParse:
    def test_conjunction_of_modal_and_negation(self):
        assert parse("dia a & ~(dia a)") == And(DIA_A, Neg(DIA_A))

    def test_shift_and_generally(self):
        got = parse("(prof - 1/5) & fb & G (unfair | injury)")
        expected = And(
            And(Minus(Atom("prof"), F(1, 5)), Atom("fb")),
            Modal(Generally(), Or(Atom("unfair"), Atom("injury"))),
        )
        assert got == expected

    def test_probability_modality(self):
        assert parse("M{9/10} recovery") == Modal(MoreThan(F(9, 10)), Atom("recovery"))

    def test_metric_modality(self):
        assert parse("dia{west, 0.25} hub") == Modal(
            MetricDiamond("west", F(1, 4)), Atom("hub")
        )

    def test_disjunction_desugars(self):
        assert parse("a | b") == Neg(And(Neg(Atom("a")), Neg(Atom("b"))))

    def test_precedence(self):
        # postfix shift binds the whole prefix chain; & binds looser.
        assert parse("~a - 1/2 & b") == And(Minus(Neg(Atom("a")), F(1, 2)), Atom("b"))
        assert parse("dia a & b") == And(DIA_A, Atom("b"))

    def test_errors_carry_position(self):
        with pytest.raises(ParseError):
            parse("a &")
        with pytest.raises(ParseError):
            parse("M{3/2} a")  # constant outside [0,1]
        with pytest.raises(ParseError):
            parse("dia")  # missing operand
        with pytest.raises(ParseError):
            parse("not")  # reserved word alone
        with pytest.raises(ParseError):
            parse("a ) b")

    def test_bad_character_position(self):
        with pytest.raises(ParseError, match=r"unexpected character '\$' \(at position 2\)"):
            parse("a $ b")

    # Every raise site of the reader: the input, the message and the position.
    @pytest.mark.parametrize(
        "text, message, pos",
        [
            ("a $ b", "unexpected character '$'", 2),
            ("a ) $", "unexpected character '$'", 4),  # before any parse error
            ("a - 1.", "unexpected character '.'", 5),
            ("a - 0.5.", "unexpected character '.'", 7),
            ("a & ", "unexpected token ''", 4),
            ("dia", "unexpected token ''", 3),
            ("a & )", "unexpected token ')'", 4),
            ("a)", "unexpected trailing input ')'", 1),
            ("a - 1/2 b", "unexpected trailing input 'b'", 8),
            ("(a", "expected ')', found ''", 2),
            ("((a) b", "expected ')', found 'b'", 5),
            ("M{1/2 a", "expected '}', found 'a'", 6),
            ("M a", "expected '{', found 'a'", 2),
            ("dia{l 1} a", "expected ',', found '1'", 6),
            ("dia{1,1} a", "expected a label identifier, found '1'", 4),
            ("dia{, 1/2} a", "expected a label identifier, found ','", 4),
            ("a - 1/", "expected denominator, found ''", 6),
            ("a - 1/0.5", "expected denominator, found '0.5'", 6),
            ("a - 1/0", "zero denominator", 6),
            ("x - 1/00", "zero denominator", 6),
            ("a - 2", "constant 2 outside [0, 1]", 4),
            ("a - 1.5", "constant 3/2 outside [0, 1]", 4),
            ("a - 4/2", "constant 2 outside [0, 1]", 4),
            ("M{3/2} a", "constant 3/2 outside [0, 1]", 2),
            ("dia{l,2} a", "constant 2 outside [0, 1]", 6),
            ("a - ", "expected a rational constant, found ''", 4),
            ("a - -1", "expected a rational constant, found '-'", 4),
            # Digits are ASCII, as in file rationals.
            ("a - \u0661/\u0662", "unexpected character '\u0661'", 4),
            ("dia{l,\u0661} a", "unexpected character '\u0661'", 6),
        ],
    )
    def test_error_message_and_position(self, text, message, pos):
        with pytest.raises(ParseError) as info:
            parse(text)
        assert str(info.value) == f"{message} (at position {pos})"
        assert info.value.pos == pos


class TestSize:
    def test_zero(self):
        assert size(Zero()) == 1

    def test_negated_zero(self):
        assert size(Neg(Zero())) == 2

    def test_shift_counts_constant_bits(self):
        # 1 for the operand, 1 bit for 1, 2 bits for 2, plus 1.
        assert size(Minus(Zero(), F(1, 2))) == 5

    def test_probability_operator_binary(self):
        # |M{1/2} 0| = |0| + bits(1) + bits(2) = 1 + 1 + 2
        assert size(Modal(MoreThan(F(1, 2)), Zero())) == 4
        assert size(Modal(Diamond(), Zero())) == 2

    def test_strictly_monotone_on_subformulas(self):
        f = parse("dia (a & ~b) - 1/3")
        for g in subformulas(f):
            if g != f:
                assert size(g) < size(f)


class TestSubformulas:
    def test_prop_stops_at_modalities(self):
        f = parse("dia a & ~(dia a)")
        assert prop_subformulas(f) == {f, DIA_A, Neg(DIA_A)}

    def test_full_descends(self):
        assert subformulas(DIA_A) == {DIA_A, Atom("a")}

    def test_zero(self):
        assert prop_subformulas(Zero()) == {Zero()}

    def test_quadratic_bound(self):
        f = parse("dia (a - 1/2) & ~dia (a | b)")
        assert len(subformulas(f)) <= size(f) ** 2


class TestModalDepth:
    def test_atom(self):
        assert modal_depth(Atom("a")) == 0

    def test_single(self):
        assert modal_depth(DIA_A) == 1

    def test_nested(self):
        assert modal_depth(parse("dia (~dia a - 1/4)")) == 2


@st.composite
def formulas(draw, depth=3):
    if depth == 0:
        return draw(st.sampled_from([Zero(), Atom("a"), Atom("b"), Atom("p2")]))
    kind = draw(st.integers(0, 6))
    if kind <= 1:
        return draw(formulas(depth=0))
    if kind == 2:
        return Neg(draw(formulas(depth=depth - 1)))
    if kind == 3:
        c = draw(st.fractions(min_value=0, max_value=1, max_denominator=16))
        return Minus(draw(formulas(depth=depth - 1)), c)
    if kind == 4:
        return And(draw(formulas(depth=depth - 1)), draw(formulas(depth=depth - 1)))
    op = draw(
        st.sampled_from(
            [
                Diamond(),
                Generally(),
                MoreThan(F(3, 7)),
                MetricDiamond("west", F(1, 3)),
            ]
        )
    )
    return Modal(op, draw(formulas(depth=depth - 1)))


_UNARY, _SHIFT, _AND = 4, 3, 2


def _prec(f) -> int:
    if isinstance(f, And):
        return _AND
    if isinstance(f, Minus):
        return _SHIFT
    return _UNARY if isinstance(f, (Neg, Modal)) else 5


def _constant_tokens(c) -> list[str]:
    if c.denominator == 1:
        return [str(c.numerator)]
    return [str(c.numerator), "/", str(c.denominator)]


def _tokens(draw, f, min_prec: int = 0) -> list[str]:
    """Tokens of `f`, with the parentheses precedence needs and redundant
    ones drawn at random."""
    if isinstance(f, Zero):
        toks = ["0"]
    elif isinstance(f, Atom):
        toks = [f.name]
    elif isinstance(f, Neg):
        toks = [draw(st.sampled_from(["~", "not"])), *_tokens(draw, f.arg, _UNARY)]
    elif isinstance(f, Modal):
        op = f.op
        if isinstance(op, MoreThan):
            head = ["M", "{", *_constant_tokens(op.p), "}"]
        elif isinstance(op, MetricDiamond):
            head = ["dia", "{", op.label, ",", *_constant_tokens(op.c), "}"]
        else:
            head = [str(op)]
        toks = [*head, *_tokens(draw, f.arg, _UNARY)]
    elif isinstance(f, Minus):
        toks = [*_tokens(draw, f.arg, _SHIFT), "-", *_constant_tokens(f.c)]
    else:
        toks = [*_tokens(draw, f.left, _AND), "&", *_tokens(draw, f.right, _AND + 1)]
    parens = (_prec(f) < min_prec) + draw(st.integers(0, 1))
    return ["("] * parens + toks + [")"] * parens


def _is_word(ch: str) -> bool:
    return ch.isalnum() or ch == "_"


@st.composite
def spaced_texts(draw):
    """A formula, and its text with random spacing (possibly none, except
    between two tokens that would run together) and redundant parentheses."""
    f = draw(formulas())
    toks = _tokens(draw, f)
    pieces = [toks[0]]
    for prev, tok in zip(toks, toks[1:]):
        spaces = ["", " ", "  ", "\t", "\n "]
        if _is_word(prev[-1]) and _is_word(tok[0]):
            spaces = spaces[1:]
        pieces += [draw(st.sampled_from(spaces)), tok]
    return f, "".join(pieces)


class TestPrinter:
    @given(formulas())
    def test_parse_print_round_trip(self, f):
        assert parse(to_text(f)) == f

    @given(spaced_texts())
    def test_parsing_ignores_spacing_and_redundant_parentheses(self, case):
        f, text = case
        assert parse(text) is f

    def test_unspaced_text(self):
        shifted = Minus(Modal(MetricDiamond("l", F(1, 2)), Atom("b")), F(1, 3))
        assert parse("a&dia{l,1/2}b-1/3") is And(Atom("a"), shifted)

    def test_needs_parens(self):
        assert to_text(Neg(Minus(Atom("a"), F(1, 2)))) == "~(a - 1/2)"
        assert to_text(Minus(Neg(Atom("a")), F(1, 2))) == "~a - 1/2"
        assert to_text(Modal(Diamond(), And(Atom("a"), Atom("b")))) == "dia (a & b)"


def reference_size(f) -> int:
    """The syntactic size by direct recursion over the tree."""
    if isinstance(f, (Zero, Atom)):
        return 1
    if isinstance(f, Neg):
        return reference_size(f.arg) + 1
    if isinstance(f, Minus):
        bits = max(1, f.c.numerator.bit_length()) + max(1, f.c.denominator.bit_length())
        return reference_size(f.arg) + bits + 1
    if isinstance(f, And):
        return reference_size(f.left) + reference_size(f.right) + 1
    op_size = 1
    if isinstance(f.op, MoreThan):
        op_size = max(1, f.op.p.numerator.bit_length()) + max(1, f.op.p.denominator.bit_length())
    return reference_size(f.arg) + op_size


def reference_depth(f) -> int:
    """The modal depth by direct recursion over the tree."""
    if isinstance(f, (Zero, Atom)):
        return 0
    if isinstance(f, (Neg, Minus)):
        return reference_depth(f.arg)
    if isinstance(f, And):
        return max(reference_depth(f.left), reference_depth(f.right))
    return reference_depth(f.arg) + 1


class TestInterning:
    @given(formulas())
    def test_equal_formulas_are_one_object(self, f):
        assert parse(to_text(f)) is f

    @given(formulas())
    def test_cached_measures_match_recursive_definitions(self, f):
        assert f.size == size(f) == reference_size(f)
        assert f.modal_depth == modal_depth(f) == reference_depth(f)

    def test_table_holds_formulas_weakly(self):
        # A constant enters a key as its reduced numerator and denominator.
        text = "dia{fresh_label_q,1/7919} (fresh_atom_q - 1/2) & ~M{1/9973} fresh_atom_q"
        keys = [(1, "fresh_atom_q"), (8, 1, 9973), (9, "fresh_label_q", 1, 7919)]
        f = parse(text)
        assert all(key in syntax._NODES for key in keys)
        measures = (f.size, f.modal_depth, to_text(f))
        alive = weakref.ref(f)
        del f
        gc.collect()
        assert alive() is None
        assert not any(key in syntax._NODES for key in keys)
        assert all(ref() is not None for ref in syntax._NODES.values())
        g = parse(text)
        assert (g.size, g.modal_depth, to_text(g)) == measures

    def test_interning_hashes_no_fraction(self, monkeypatch):
        calls = []

        def counted(q, hash_=F.__hash__):
            calls.append(q)
            return hash_(q)

        monkeypatch.setattr(F, "__hash__", counted)
        hash(F(1, 3))
        assert len(calls) == 1  # the count sees a Fraction's hash
        calls.clear()
        f = parse("dia{l,2/4} a - 2/6 & M{3/6} b")
        assert calls == []
        assert (f.left.c, f.left.arg.op.c, f.right.op.p) == (F(1, 3), F(1, 2), F(1, 2))

    def test_equal_constants_are_one_node(self):
        f = parse("a - 2/4")
        assert f is parse("a - 1/2") is Minus(Atom("a"), F(1, 2))
        assert type(f.c) is F and f.c == F(1, 2)
        assert MoreThan("2/4") is MoreThan(F(1, 2)) is MoreThan("0.5")
        assert MetricDiamond("l", "2/4") is MetricDiamond("l", F(1, 2))
        assert parse("M{2/4} a & dia{l,2/4} a") is parse("M{1/2} a & dia{l,1/2} a")
        assert MetricDiamond("l", F(1, 2)) is not MetricDiamond("m", F(1, 2))

    def test_pickling_rebuilds_the_same_node(self):
        f = parse("dia{l,1/3} a & M{2/5} b & G dia c")
        assert pickle.loads(pickle.dumps(f)) is f
        assert hash(MetricDiamond("l", F(1, 3))) == hash(MetricDiamond("l", "1/3"))

    def test_pickle_from_another_hash_seed_unpickles_to_the_live_node(self):
        # The writing process has other string hashes and other node
        # identities, so unpickling must rebuild each node through the
        # intern table.
        text = "dia{west,1/3} a & M{2/5} dia b"
        seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
        env = {**os.environ, "PYTHONHASHSEED": seed}
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.dirname(os.path.dirname(syntax.__file__)), env.get("PYTHONPATH")) if p
        )
        code = (
            "import pickle, sys\n"
            "from nexfuz.syntax import parse\n"
            f"sys.stdout.buffer.write(pickle.dumps((hash('west'), parse({text!r}))))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, check=True
        ).stdout
        f = parse(text)
        their_hash, g = pickle.loads(out)
        assert their_hash != hash("west")
        assert g is f
        assert g.left.op is MetricDiamond("west", F(1, 3))

    def test_operators_are_one_object(self):
        assert Diamond() is Diamond()
        assert Generally() is Generally()
        assert Diamond() is not Generally()
        assert MoreThan("1/2") is MoreThan(F(1, 2))
        assert MetricDiamond("l", "1/3") is MetricDiamond("l", F(1, 3))
        assert parse("dia{l,1/3} a").op is MetricDiamond("l", F(1, 3))

    def test_formulas_are_immutable(self):
        with pytest.raises(AttributeError):
            Atom("a").name = "b"
        with pytest.raises(AttributeError):
            MoreThan(F(1, 2)).p = F(1, 3)


class TestNames:
    """An atom name or a metric label is accepted only if `to_text` writes it
    as one identifier token, so every formula built parses back."""

    @pytest.mark.parametrize("name", ["not", "G", "dia", "a b", "\u00e9", "0", ""])
    def test_atom_names_that_would_not_parse_back_are_refused(self, name):
        with pytest.raises(ValueError):
            Atom(name)

    @pytest.mark.parametrize("label", ["x y", "\u00e9", "1"])
    def test_labels_that_would_not_parse_back_are_refused(self, label):
        with pytest.raises(ValueError):
            MetricDiamond(label, F(1, 2))

    @given(st.text(alphabet="aGMz_09 -\u00e9", max_size=4) | st.sampled_from(["not", "dia", "G"]))
    def test_accepted_names_round_trip(self, name):
        try:
            atom = Atom(name)
        except ValueError:
            pass
        else:
            sequent = Sequent([(atom, UNIT)])
            assert Sequent.loads(sequent.dumps()) == sequent
        try:
            f = Modal(MetricDiamond(name, F(1, 2)), Atom("a"))
        except ValueError:
            pass
        else:
            assert parse(to_text(f)) is f


class TestExactConstants:
    """Formula constants are exact: a float is refused with `NumericError`,
    whatever node it would build and whichever nodes are alive."""

    def test_modal_parameters_refuse_floats(self):
        with pytest.raises(NumericError):
            Modal(MoreThan(0.5), Atom("a"))
        with pytest.raises(NumericError):
            Modal(MetricDiamond("l", 0.5), Atom("a"))

    def test_minus_refuses_a_float_equal_to_a_live_constant(self):
        live = Minus(Atom("a"), F(1, 4))
        with pytest.raises(NumericError):
            Minus(Atom("a"), 0.25)
        assert Minus(Atom("a"), "1/4") is live

    def test_exact_forms_are_coerced(self):
        assert MoreThan(1).p == F(1) and type(MoreThan(1).p) is F
        assert MetricDiamond("l", "1/2").c == F(1, 2)
        assert Minus(Atom("a"), 0).c == F(0) and type(Minus(Atom("a"), 0).c) is F
