"""Exact q-number arithmetic in the quarter-power variable s = q^(1/4).

Every scalar that appears in the two-mode boson realization of sp(4,R)
and its q-deformations is built from q-powers and q-brackets with
quarter-integer arguments.  Substituting s = q^(1/4) turns all of them
into Laurent polynomials (or quotients of Laurent polynomials) in s with
rational coefficients, so identities can be checked exactly instead of
numerically.  Almost every coefficient is a small integer, so an integral
coefficient is stored as a Python ``int`` and only a non-integral one as a
``Fraction``; the ring operations keep that form.

Conventions used throughout the package::

    [x]   = (q^x - q^-x) / (q - q^-1)
    [x]_m = (q^(m*x) - q^(-m*x)) / (q^m - q^-m)  =  [m*x] / [m]
    [n]!  = [1][2]...[n],  [0]! = 1

For integer x the bracket [x]_m is a Laurent polynomial in s; for half-
or quarter-integer x it is a quotient of Laurent polynomials and is
represented by :class:`QRationalFn`.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Callable, Mapping, Union

Q = Fraction

Scalar = Union[int, Fraction]


def _integral(v: Fraction) -> Scalar:
    """A Fraction with denominator 1 as an int; any other unchanged."""
    return v.numerator if v.denominator == 1 else v


def add_terms(c: dict[int, Scalar], terms: Mapping[int, Scalar], sign: int = 1) -> None:
    """Add ``sign * terms`` into the coefficient dict ``c`` in place.

    Term by term in the order of ``terms``: a new exponent is appended, a
    coefficient that reaches 0 is deleted at once (if it reappears later
    it is appended again), and an integral ``Fraction`` is stored as an
    ``int``.  So ``c`` ends up as the dict, key order included, of
    ``LaurentPoly(c) + sign * LaurentPoly(terms)``.
    """
    get = c.get
    for k, v in terms.items():
        w = get(k, 0) + v if sign > 0 else get(k, 0) - v
        if w:
            c[k] = _integral(w) if type(w) is Fraction else w
        elif k in c:
            del c[k]


def require_q(q: float) -> None:
    """Raise ValueError unless q is a finite positive number.

    Every numeric entry point checks its q here.  A NaN q would compare
    false with every tolerance, so every numeric check would pass.
    """
    if not (math.isfinite(q) and q > 0):
        raise ValueError(f"q must be finite and positive; got {q!r}")


class LaurentPoly:
    """Laurent polynomial in s = q^(1/4) with rational coefficients.

    Coefficients are stored as ``{exponent: coefficient}`` with zero
    coefficients trimmed and every integral coefficient an ``int`` (a
    non-integral one is a ``Fraction``), so two polynomials are equal iff
    their dicts are equal.  Instances are never mutated.
    """

    __slots__ = ("c",)

    def __init__(self, coeffs: Mapping[int, Scalar] | None = None):
        c: dict[int, Scalar] = {}
        if coeffs:
            for k, v in coeffs.items():
                if type(v) is not int:
                    v = _integral(Q(v))
                if v:
                    c[int(k)] = v
        self.c = c

    @staticmethod
    def _of(c: dict[int, Scalar]) -> "LaurentPoly":
        """Wrap an already trimmed and normalised coefficient dict."""
        out = LaurentPoly.__new__(LaurentPoly)
        out.c = c
        return out

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({0: 1})

    @classmethod
    def const(cls, v: Scalar) -> "LaurentPoly":
        return cls({0: v})

    @classmethod
    def monomial(cls, exp: int, coeff: Scalar = 1) -> "LaurentPoly":
        return cls({exp: coeff})

    # -- predicates ----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.c

    @property
    def is_one(self) -> bool:
        return self.c == {0: 1}

    def __bool__(self) -> bool:
        return bool(self.c)

    # -- ring operations -----------------------------------------------

    @staticmethod
    def _coerce(other) -> "LaurentPoly | None":
        if isinstance(other, LaurentPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return LaurentPoly({0: other})
        return None

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.c == other.c

    def __hash__(self) -> int:
        return hash(frozenset(self.c.items()))

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._of({k: -v for k, v in self.c.items()})

    def __add__(self, other) -> "LaurentPoly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        c = dict(self.c)
        add_terms(c, other.c)
        return LaurentPoly._of(c)

    __radd__ = __add__

    def __sub__(self, other) -> "LaurentPoly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        c = dict(self.c)
        add_terms(c, other.c, -1)
        return LaurentPoly._of(c)

    def __rsub__(self, other) -> "LaurentPoly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "LaurentPoly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.c, other.c
        c: dict[int, Scalar] = {}
        if len(b) == 1 or len(a) == 1:
            # One-term operand (q-powers, diagonals, constants): the keys of
            # the general loop below never collide, so it reduces to one
            # pass over the other operand, in that operand's order.
            if len(a) == 1:
                a, b = b, a
            ((e, v2),) = b.items()
            for k, v1 in a.items():
                w = v1 * v2
                c[k + e] = _integral(w) if type(w) is Fraction else w
            return LaurentPoly._of(c)
        get = c.get
        b = b.items()
        for k1, v1 in a.items():
            for k2, v2 in b:
                k = k1 + k2
                w = get(k, 0) + v1 * v2
                if w:
                    c[k] = w
                elif k in c:
                    del c[k]
        for k, w in c.items():
            if type(w) is Fraction:
                c[k] = _integral(w)
        return LaurentPoly._of(c)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            raise ValueError("negative powers are not defined for LaurentPoly")
        out = LaurentPoly.one()
        for _ in range(n):
            out = out * self
        return out

    def bar(self) -> "LaurentPoly":
        """The image under q -> q^-1 (i.e. s -> s^-1)."""
        return LaurentPoly._of({-k: v for k, v in self.c.items()})

    def shifted(self, exp: int) -> "LaurentPoly":
        """Multiply by the monomial s^exp."""
        return LaurentPoly._of({k + exp: v for k, v in self.c.items()})

    # -- evaluation ----------------------------------------------------

    def __call__(self, q: float) -> float:
        s = float(q) ** 0.25
        try:
            return float(sum(float(v) * s**k for k, v in self.c.items()))
        except OverflowError:
            raise ValueError(
                f"q = {q!r} is out of range: a power of q^(1/4) overflows a float"
            ) from None

    def eval_mp(self, q):
        """Evaluate at q > 0 with mpmath precision (q is an mpf)."""
        import mpmath as mp

        s = mp.power(q, mp.mpf(1) / 4)
        total = mp.mpf(0)
        for k, v in self.c.items():
            total += mp.mpf(v.numerator) / mp.mpf(v.denominator) * s**k
        return total

    def at_one(self) -> Q:
        """Exact value at q = 1 (sum of coefficients)."""
        return Q(sum(self.c.values()))

    def over_s_minus_one(self) -> "LaurentPoly":
        """The exact quotient by (s - 1), by synthetic division from the
        top exponent; the remainder p(1) is dropped, so p(1) must be 0."""
        out, acc = {}, 0
        for k in range(max(self.c), min(self.c), -1):
            acc += self.c.get(k, 0)
            out[k - 1] = acc
        return LaurentPoly(out)

    def derivative(self) -> "LaurentPoly":
        """Formal derivative with respect to s."""
        return LaurentPoly({k - 1: k * v for k, v in self.c.items() if k})

    # -- display --------------------------------------------------------

    def __str__(self) -> str:
        if not self.c:
            return "0"
        parts = []
        for k in sorted(self.c, reverse=True):
            v = self.c[k]
            if k == 0:
                term = str(v)
            else:
                e = Q(k, 4)
                p = "q" if e == 1 else f"q^({e})"
                term = p if v == 1 else (f"-{p}" if v == -1 else f"{v}*{p}")
            parts.append(term)
        out = parts[0]
        for term in parts[1:]:
            out += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
        return out

    def __repr__(self) -> str:
        return f"LaurentPoly({self.c!r})"


ZERO = LaurentPoly.zero()
ONE = LaurentPoly.one()


def q_power(x: Scalar) -> LaurentPoly:
    """The monomial q^x as a Laurent polynomial in s; x must be a
    multiple of 1/4."""
    e = Q(x) * 4
    if e.denominator != 1:
        raise ValueError(f"q^({x}) is not a Laurent monomial in s = q^(1/4)")
    return LaurentPoly({int(e): 1})


def q_int(n: int, m: int = 1) -> LaurentPoly:
    """The symmetric q-bracket [n]_m of an integer n.

    [n]_m = q^(m(n-1)) + q^(m(n-3)) + ... + q^(-m(n-1)),  [-n]_m = -[n]_m.
    """
    if m < 1:
        raise ValueError("bracket base m must be a positive integer")
    if n == 0:
        return LaurentPoly.zero()
    a = abs(n)
    sign = 1 if n > 0 else -1
    return LaurentPoly({4 * m * (a - 1 - 2 * i): sign for i in range(a)})


@functools.cache
def q_factorial(n: int) -> LaurentPoly:
    """[n]! = [1][2]...[n] with [0]! = 1.

    Memoised: n never exceeds the cutoff and the result does not depend
    on q, so the cache stays a handful of entries.
    """
    if n < 0:
        raise ValueError("q-factorial needs n >= 0")
    out = LaurentPoly.one()
    for i in range(2, n + 1):
        out = out * q_int(i)
    return out


# Below this |q - 1| a quotient is evaluated after its common factors (s - 1)
# are divided out: bracket denominators carry (q - q^-1)^k, so near q = 1 both
# sums cancel and lose up to 9 digits; farther out the division costs more.
NEAR_ONE = 0.05


class QRationalFn:
    """Quotient num/den of two Laurent polynomials in s.

    No gcd reduction is attempted; equality is decided by
    cross-multiplication, which is exact.  Used for brackets of half- and
    quarter-integer arguments such as [1/2] = 1/(q^(1/2) + q^(-1/2)).
    """

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPoly, den: LaurentPoly = ONE):
        if den.is_zero:
            raise ZeroDivisionError("QRationalFn with zero denominator")
        if num.is_zero:
            den = ONE
        self.num = num
        self.den = den

    @classmethod
    def from_scalar(cls, v: Scalar) -> "QRationalFn":
        return cls(LaurentPoly.const(v))

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    @staticmethod
    def _coerce(other) -> "QRationalFn | None":
        if isinstance(other, QRationalFn):
            return other
        if isinstance(other, LaurentPoly):
            return QRationalFn(other)
        if isinstance(other, (int, Fraction)):
            return QRationalFn(LaurentPoly.const(other))
        return None

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.num * other.den == other.num * self.den

    def __hash__(self) -> int:  # pragma: no cover - not used as dict key
        raise TypeError("QRationalFn is unhashable (no canonical form)")

    def __neg__(self) -> "QRationalFn":
        return QRationalFn(-self.num, self.den)

    def __add__(self, other) -> "QRationalFn":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.den == other.den:
            return QRationalFn(self.num + other.num, self.den)
        return QRationalFn(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    __radd__ = __add__

    def __sub__(self, other) -> "QRationalFn":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "QRationalFn":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "QRationalFn":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return QRationalFn(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "QRationalFn":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if other.num.is_zero:
            raise ZeroDivisionError("division by zero QRationalFn")
        return QRationalFn(self.num * other.den, self.den * other.num)

    def __call__(self, q: float) -> float:
        num, den = self.num, self.den
        if abs(q - 1.0) < NEAR_ONE:
            while not num.is_zero and num.at_one() == 0 and den.at_one() == 0:
                num, den = num.over_s_minus_one(), den.over_s_minus_one()
        return num(q) / den(q)

    def eval_mp(self, q):
        return self.num.eval_mp(q) / self.den.eval_mp(q)

    def __str__(self) -> str:
        if self.den.is_one:
            return str(self.num)
        return f"({self.num}) / ({self.den})"

    def __repr__(self) -> str:
        return f"QRationalFn({self.num!r}, {self.den!r})"


def q_bracket(x: Scalar, m: int = 1) -> QRationalFn:
    """The bracket [x]_m for any x that is a multiple of 1/4.

    For integer x this agrees with q_int(x, m); for fractional x the
    result is a genuine quotient, e.g. [1/2] = 1/(q^(1/2) + q^(-1/2)).
    """
    x = Q(x)
    e = 4 * m * x
    if e.denominator != 1:
        raise ValueError(f"[{x}]_{m} has non-integral s-exponent")
    e = int(e)
    num = LaurentPoly({e: 1, -e: -1}) if e else LaurentPoly.zero()
    den = LaurentPoly({4 * m: 1, -4 * m: -1})
    return QRationalFn(num, den)


def eval_at(p, q: float) -> float:
    """Evaluate a LaurentPoly or QRationalFn at a numeric q > 0."""
    require_q(q)
    return p(q)


def limit_q1(p) -> Q:
    """Exact limit as q -> 1 of a LaurentPoly or QRationalFn.

    For quotients whose denominator vanishes at s = 1 the limit is taken
    by repeated differentiation (L'Hopital in the variable s); this
    covers every bracket quotient, e.g. limit_q1([x]) = x.
    """
    if isinstance(p, LaurentPoly):
        return p.at_one()
    num, den = p.num, p.den
    for _ in range(64):
        d1 = den.at_one()
        if d1 != 0:
            return num.at_one() / d1
        if num.at_one() != 0:
            raise ZeroDivisionError("limit_q1: pole at q = 1")
        num, den = num.derivative(), den.derivative()
    raise ZeroDivisionError("limit_q1: denominator vanishes identically")


def taylor_coefficients(p, order: int) -> list[Q]:
    """Exact Taylor coefficients in tau of p(q = e^tau) up to tau^order.

    For p = sum_k c_k s^k with s = q^(1/4) = e^(tau/4), the tau^j
    coefficient is sum_k c_k (k/4)^j / j!, an exact rational.
    """
    if isinstance(p, QRationalFn):
        # Divide the two tau-series, cancelling the common vanishing
        # order at tau = 0 first (removable singularity of brackets).
        probe = 64
        den = taylor_coefficients(p.den, order + probe)
        j0 = next((j for j, v in enumerate(den) if v != 0), None)
        if j0 is None or j0 > probe:
            raise ZeroDivisionError("taylor_coefficients: denominator too singular")
        num = taylor_coefficients(p.num, order + j0)
        if any(num[i] != 0 for i in range(j0)):
            raise ZeroDivisionError("taylor_coefficients: pole at q = 1")
        num, den = num[j0:], den[j0 : order + j0 + 1]
        out: list[Q] = []
        for j in range(order + 1):
            acc = num[j] - sum(den[j - i] * out[i] for i in range(j))
            out.append(acc / den[0])
        return out
    # sum_k c_k k^j / (4^j j!), normalised once by Q
    return [
        Q(sum(v * k**j for k, v in p.c.items()), 4**j * math.factorial(j))
        for j in range(order + 1)
    ]
