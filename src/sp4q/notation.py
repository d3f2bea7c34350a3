"""The anchor notation: a displayed formula parsed into the operator it names.

Every catalogued relation and every casimir is written once, as the formula
a report prints, and parsed here into calls on a scalar context of
:mod:`sp4q.algebras`, so the formula printed is the one checked.  The
grammar (blanks separate tokens; README.md has the full reference)::

    relation := side ("=" side)+          the first and last side are compared
    side     := ["+" | "-"] term (("+" | "-") term)*
    term     := factor factor* ("/" factor)*
    factor   := atom ["^" INT]
    atom     := INT | LABEL | "(" side ")" | "{" side "}" | "sqrt" "(" side ")"
              | "q" ["^" (INT | "(" side ")")]
              | "[" side "]" ["_" INT] | "[" side "," side "]" ["_" "{" atom "}"]

:data:`OPERATORS` maps each family's operator labels to generators and
:data:`STATE` gives each state label's value on a basis state, as a
:class:`StateFormula`.  Operators compose; scalar factors apply right to
left, ``/d`` divides the product and a leading sign applies last.  A
q-power of state labels, a bracket of state labels or of a non-integer,
and a side made only of numbers and state labels are diagonal operators.
Each such expression is compiled once, at parse time, into a polynomial
in (n1, n-1) with ``int`` coefficients over one ``int`` divisor, from
which a context builds the diagonal in integer arithmetic.  A bracket
argument or q-power exponent must be affine in (n1, n-1); one of higher
degree is rejected here, naming the relation.
``[a, b]_{q^r} = 0`` flips the commutator's second product; any other
relation ``lhs = rhs`` has the residual ``lhs - rhs``, and ``lhs + rhs``
when flipped.  A comma after the last side, or the word ``on``, starts a
qualifier (``on |j, m>``), which is not parsed.
"""

from __future__ import annotations

import functools
import math
import operator
import re
from typing import Callable

from .qnum import Q

class StateFormula:
    """A state expression compiled once: a polynomial in (n1, n-1) with
    ``int`` coefficients over one positive ``int`` divisor.  Its value on
    the state |n1, n-1> is ``numerator / div``, computed in ``int``
    arithmetic.  ``terms`` maps exponent pairs (i, j) of n1^i n-1^j to
    nonzero coefficients, reduced so that they and ``div`` share no
    factor.  Instances are never mutated."""

    __slots__ = ("terms", "div")

    def __init__(self, terms: dict[tuple[int, int], int], div: int = 1):
        if div < 0:
            terms, div = {e: -v for e, v in terms.items()}, -div
        terms = {e: v for e, v in terms.items() if v}
        g = math.gcd(div, *terms.values())
        if g > 1:
            terms, div = {e: v // g for e, v in terms.items()}, div // g
        self.terms, self.div = terms, div

    @property
    def degree(self) -> int:
        return max((i + j for i, j in self.terms), default=0)

    @property
    def constant(self):
        """The value (``int`` when div is 1, else ``Fraction``) of a
        formula with no state label in it; None for any other."""
        if any(self.terms.keys() - {(0, 0)}):
            return None
        v = self.terms.get((0, 0), 0)
        return v if self.div == 1 else Q(v, self.div)

    def __neg__(self) -> "StateFormula":
        return StateFormula({e: -v for e, v in self.terms.items()}, self.div)

    def __add__(self, other: "StateFormula") -> "StateFormula":
        terms = {e: v * other.div for e, v in self.terms.items()}
        for e, v in other.terms.items():
            terms[e] = terms.get(e, 0) + v * self.div
        return StateFormula(terms, self.div * other.div)

    def __sub__(self, other: "StateFormula") -> "StateFormula":
        return self + -other

    def __mul__(self, other: "StateFormula") -> "StateFormula":
        terms: dict[tuple[int, int], int] = {}
        for (i, j), v in self.terms.items():
            for (k, m), w in other.terms.items():
                terms[(i + k, j + m)] = terms.get((i + k, j + m), 0) + v * w
        return StateFormula(terms, self.div * other.div)

    def over(self, n: int) -> "StateFormula":
        """This formula divided by a nonzero int."""
        return StateFormula(self.terms, self.div * n)

    def numerators(self, space) -> list[int]:
        """``numerator(n1, n-1)`` on every state of ``space``, in
        enumeration order; the values are these over ``div``."""
        c, states = self.terms, space.states
        if self.degree <= 1:
            c0, a, b = c.get((0, 0), 0), c.get((1, 0), 0), c.get((0, 1), 0)
            return [c0 + a * st.n1 + b * st.nm1 for st in states]
        return [sum(v * st.n1 ** i * st.nm1 ** j for (i, j), v in c.items())
                for st in states]

    def __repr__(self) -> str:
        return f"StateFormula({self.terms!r}, {self.div})"


_N1, _NM1 = StateFormula({(1, 0): 1}), StateFormula({(0, 1): 1})

#: state label -> its value on a basis state, compiled
STATE: dict[str, StateFormula] = {
    "N": _N1 + _NM1,
    "N_1": _N1,
    "N_+1": _N1,
    "N_-1": _NM1,
    **dict.fromkeys(("J_0", "I_0", "i_0", "m"), (_N1 - _NM1).over(2)),
    **dict.fromkeys(("i", "j"), (_N1 + _NM1).over(2)),
    "K0_0": StateFormula({(1, 0): 1, (0, 1): 1, (0, 0): 1}, 2),
    "K0^+": StateFormula({(1, 0): 2, (0, 0): 1}, 4),
    "K0^-": StateFormula({(0, 1): 2, (0, 0): 1}, 4),
}

_NUMBERS = {"N": "N", "N_1": "N1", "N_-1": "Nm1"}

#: family -> operator label -> generator name
OPERATORS: dict[str, dict[str, str]] = {
    "classical": {
        **_NUMBERS,
        "b_1+": "bd1", "b_1": "b1", "b_-1+": "bdm1", "b_-1": "bm1",
        "I_0": "I0", "I_+": "Ip", "I_-": "Im",
        "A_0": "A0", "F_0": "F0", "G_0": "G0", "F": "Fsum", "G": "Gsum",
        "A_+": "Ap", "F_+": "Fp", "G_+": "Gp", "A+": "Ap", "F+": "Fp", "G+": "Gp",
        "A_-": "Am", "F_-": "Fm", "G_-": "Gm", "A-": "Am", "F-": "Fm", "G-": "Gm",
        "F_11": "F11", "F_1-1": "F1m1", "F_-1-1": "Fm1m1",
        "G_11": "G11", "G_1-1": "G1m1", "G_-1-1": "Gm1m1",
    },
    "qboson": {
        **_NUMBERS,
        "a_1+": "ad1", "a_1": "a1", "a_-1+": "adm1", "a_-1": "am1",
        "J_0": "J0", "J_+": "Jp", "J_-": "Jm",
        "F^q_11": "Fq11", "F^q_1-1": "Fq1m1", "F^q_-1-1": "Fqm1m1",
        "G^q_11": "Gq11", "G^q_1-1": "Gq1m1", "G^q_-1-1": "Gqm1m1",
        "K0_0": "K00", "K0_+": "K0p", "K0_-": "K0m",
        "K0^+": "Kp0", "K_+^+": "Kpp", "K_-^+": "Kpm",
        "K0^-": "Km0", "K_+^-": "Kmp", "K_-^-": "Kmm",
    },
    "tensor": {
        **_NUMBERS,
        "t_1+": "td1", "t_-1+": "tdm1", "t_1": "t1", "t_-1": "tm1",
        "J_0": "J0", "J_+": "Jp", "J_-": "Jm", "q^(-2J_0)": "qm2J0",
        "T_1": "T1", "T_+1": "T1", "T_0": "T0", "T_-1": "Tm1",
        "~T_1": "Tt1", "~T_+1": "Tt1", "~T_0": "Tt0", "~T_-1": "Ttm1",
        "L_1": "L1", "L_+1": "L1", "L_0": "L01", "L_-1": "Lm1", "L_0^0": "L00",
        "script-N_1": "calN1", "script-N_-1": "calNm1",
    },
}


@functools.cache
def _token_re(family: str) -> re.Pattern:
    # Longest label first, so "L_0^0" is one token and "A_+^2" is "A_+" "^" "2".
    labels = sorted(set(OPERATORS[family]) | set(STATE), key=len, reverse=True)
    return re.compile(
        r"(?P<label>(?:%s)(?![A-Za-z_]))|(?P<num>\d+)|(?P<word>(?:sqrt|q|on)(?![A-Za-z_]))"
        r"|(?P<punct>[][(){},=+\-/^_])|(?P<bad>[\w^~+-]+|\S)" % "|".join(map(re.escape, labels))
    )


def _state(node) -> StateFormula | None:
    """A tree of numbers and state labels compiled into one formula; None
    for a tree with any other part, or divided by anything but a nonzero
    number."""
    tag = node[0]
    if tag == "num":
        return StateFormula({(0, 0): node[1]})
    if tag == "label":
        return STATE.get(node[1])
    if tag == "sum":
        acc = StateFormula({})
        for sign, t in node[1]:
            f = _state(t)
            if f is None:
                return None
            acc = acc + f if sign == "+" else acc - f
        return acc
    if tag != "prod":
        return None
    acc = StateFormula({(0, 0): 1})
    for t in node[1]:
        f = _state(t)
        if f is None:
            return None
        acc = acc * f
    for t in node[2]:
        f = _state(t)
        r = None if f is None else f.constant
        if not r:
            return None
        r = Q(r)
        acc = acc * StateFormula({(0, 0): r.denominator}, r.numerator)
    return acc


def _constant(node):
    """The value of a tree of numbers alone; None for any other tree."""
    f = _state(node)
    return None if f is None else f.constant


class _Parser:
    """Recursive descent from the tokens of one formula to a tree of tuples
    ("num", v), ("label", text), ("q", exponent), ("sqrt", x), ("brk", x, m),
    ("comm", a, b, rho), ("prod", factors, divisors) and
    ("sum", [(sign, term), ...]), and from a tree to ``fn(ctx)``.  A power
    ``x^n`` is the product of n factors x."""

    def __init__(self, what: str, family: str, text: str):
        self.what = what
        self.ops = OPERATORS[family]
        self.toks: list[tuple[str, str]] = []
        self.i = 0
        for hit in _token_re(family).finditer(text):
            if hit["word"] == "on":
                break
            if hit.lastgroup == "bad":
                self.fail("unknown label", hit["bad"])
            self.toks.append((hit.lastgroup, hit[hit.lastgroup]))

    def fail(self, what: str, token=None):
        at = "end of formula" if token is None else repr(token)
        raise ValueError(f"{self.what}: {what} at {at}")

    def peek(self):
        return self.toks[self.i][1] if self.i < len(self.toks) else None

    def take(self):
        if self.i == len(self.toks):
            self.fail("unexpected end")
        self.i += 1
        return self.toks[self.i - 1]

    def accept(self, text: str) -> bool:
        if self.peek() != text:
            return False
        self.i += 1
        return True

    def expect(self, text: str):
        if not self.accept(text):
            self.fail(f"expected {text!r}", self.peek())

    def integer(self) -> int:
        kind, text = self.take()
        if kind != "num":
            self.fail("expected an integer", text)
        return int(text)

    # -- parsing --------------------------------------------------------

    def side(self):
        sign = self.take()[1] if self.peek() in ("+", "-") else "+"
        terms = [(sign, self.term())]
        while self.peek() in ("+", "-"):
            terms.append((self.take()[1], self.term()))
        if len(terms) == 1 and sign == "+":
            return terms[0][1]
        return ("sum", terms)

    def term(self):
        factors, divisors = [self.factor()], []
        while self.i < len(self.toks) and (
                self.toks[self.i][0] != "punct" or self.peek() in ("(", "{", "[")):
            factors.append(self.factor())
        while self.accept("/"):
            divisors.append(self.factor())
        return ("prod", factors, divisors) if len(factors) > 1 or divisors else factors[0]

    def factor(self):
        x = self.atom()
        return ("prod", [x] * self.integer(), []) if self.accept("^") else x

    def atom(self):
        kind, text = self.take()
        if kind in ("num", "label"):
            return ("num", int(text)) if kind == "num" else ("label", text)
        if text == "q":
            if not self.accept("^"):
                return ("q", ("num", 1))
            if not self.accept("("):
                return ("q", ("num", self.integer()))
            return ("q", self.closed(")"))
        if text == "sqrt":
            self.expect("(")
            return ("sqrt", self.closed(")"))
        if text in ("(", "{"):
            return self.closed(")" if text == "(" else "}")
        if text != "[":
            self.fail("unexpected token", text)
        a = self.side()
        if not self.accept(","):
            self.expect("]")
            return ("brk", a, self.integer() if self.accept("_") else 1)
        b = self.side()
        self.expect("]")
        rho = 0
        if self.accept("_"):
            self.expect("{")
            r = self.closed("}")
            rho = _constant(r[1]) if r[0] == "q" else None
            if rho is None:
                self.fail("expected a constant q-power subscript", self.peek())
        return ("comm", a, b, rho)

    def closed(self, closing: str):
        """The side up to ``closing``, its opening already taken."""
        x = self.side()
        self.expect(closing)
        return x

    # -- compiling ------------------------------------------------------

    def compile_side(self, node):
        f = _state(node)
        if f is None:
            return self.compile_op(node)
        return lambda ctx: ctx.diag_frac(f)

    def compile_op(self, node):
        if node[0] != "sum":
            return self.product(node)
        (first_plus, first), *rest = [(s == "+", self.product(t)) for s, t in node[1]]

        def total(ctx):
            out = first(ctx) if first_plus else -first(ctx)
            for plus, f in rest:
                out = out + f(ctx) if plus else out - f(ctx)
            return out

        return total

    def scalars(self, node):
        """The scalar calls ``[(method, args), ...]`` a factor stands for,
        or None when it is an operator."""
        tag, value = node[0], _constant(node)
        if value is not None:
            return [("frac", (value,))]
        if tag in ("q", "brk"):
            value = _constant(node[1])
            if tag == "q" and value is not None:
                return [("qpow", (value,))]
            return [("brk", (value, node[2]))] if type(value) is int else None
        if tag == "sqrt":
            if node[1] != ("brk", ("num", 2), 1):
                self.fail("only sqrt([2]) is supported")
            return [("sqrt2", ())]
        if tag == "prod" and not node[2]:
            calls = [self.scalars(f) for f in node[1]]
            return None if None in calls else sum(calls, [])
        return None

    def factor_op(self, node):
        tag = node[0]
        if tag == "label":
            name = self.ops.get(node[1])
            if name is None:
                self.fail("unknown operator label", node[1])
            return lambda ctx: ctx[name]
        if tag == "comm":
            a, b, rho = self.compile_op(node[1]), self.compile_op(node[2]), node[3]
            return lambda ctx: ctx.comm(a(ctx), b(ctx), rho)
        if tag in ("brk", "q"):
            f = _state(node[1]) or self.fail("bracket or q-power of an operator")
            if f.degree > 1:
                what = "q-power exponent" if tag == "q" else "bracket argument"
                raise ValueError(f"{self.what}: {what} of degree {f.degree} in (n1, n-1);"
                                 " it must be affine")
            if tag == "q":
                return lambda ctx: ctx.diag_pow(f)
            return lambda ctx: ctx.diag_brk(f, node[2])
        return self.compile_op(node)

    def product(self, node):
        factors, divisors = node[1:] if node[0] == "prod" else ([node], [])
        ops, calls = [], []
        for f in factors:
            s = self.scalars(f)
            if s is None:
                ops.append(self.factor_op(f))
            else:
                calls += s
        calls.reverse()
        for d in divisors:
            s = self.scalars(d) or []
            if s and all(m == "frac" for m, _ in s):
                calls += [("frac", (1 / Q(args[0]),)) for _, args in s]
            elif s and all(m == "brk" for m, _ in s):
                calls += [("over_brk", args) for _, args in s]
            else:
                self.fail("a divisor must be a number or integer brackets")

        def term(ctx):
            out = functools.reduce(operator.matmul, [f(ctx) for f in ops] or [ctx.ident()])
            for method, args in calls:
                out = getattr(ctx, method)(out, *args)
            return out

        return term


def relation_builder(name: str, family: str, anchor: str) -> Callable:
    """Parse a relation's anchor into its residual builder
    ``build(ctx, flip=False)``; raise ValueError naming the relation and
    the offending token when the anchor does not parse."""
    p = _Parser(f"relation {name!r}", family, anchor)
    sides = [p.side()]
    while p.accept("="):
        sides.append(p.side())
    if p.peek() not in (None, ",") or len(sides) < 2:
        p.fail("trailing token" if p.peek() else "expected '='", p.peek())
    lhs, rhs = sides[0], sides[-1]
    if rhs == ("num", 0):
        if lhs[0] != "comm":
            p.fail("'= 0' needs a commutator on the left")
        a, b, rho = p.compile_op(lhs[1]), p.compile_op(lhs[2]), lhs[3]
        return lambda ctx, flip=False: ctx.comm(a(ctx), b(ctx), rho, flip=flip)
    left, right = p.compile_side(lhs), p.compile_side(rhs)

    def build(ctx, flip: bool = False):
        x, y = left(ctx), right(ctx)
        return x + y if flip else x - y

    return build


def formula_builder(name: str, family: str, text: str) -> Callable:
    """Parse one expression (no ``=``) into ``fn(ctx)``; ``name`` labels
    the error when it does not parse."""
    p = _Parser(name, family, text)
    node = p.side()
    if p.peek() is not None:
        p.fail("trailing token", p.peek())
    return p.compile_side(node)


def state_formula(text: str) -> StateFormula:
    """Compile one expression of numbers and state labels (``N + 1``)."""
    p = _Parser(f"state formula {text!r}", "classical", text)
    node = p.side()
    if p.peek() is not None:
        p.fail("trailing token", p.peek())
    return _state(node) or p.fail("not a state formula")
