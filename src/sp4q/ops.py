"""Sparse operators on the truncated Fock space.

Operators are stored in the *monomial* basis e(x, y) = (b_1+)^x (b_-1+)^y |0>
(or its q-analogue), in which every generator of the algebras at hand maps
a basis state to a single basis state.  Entries are Laurent polynomials in
s = q^(1/4) over a single shared denominator, with an optional square-root
flag: an operator with ``sqrt_sq = X`` represents sqrt(X) times its entry
matrix.  Since sqrt([2]) is irrational over the Laurent ring, sums with
mixed flags never need to collapse, and products absorb (sqrt X)^2 = X
exactly, so all algebra can stay exact.

Integer store: the entries keep ``int`` coefficients only.  The rational
constants of the algebras (the 1/2 of F_+, the diagonal (nu + 1)/2, ...)
go into one positive integer divisor ``k`` per operator, so an operator
is  sqrt(sqrt_sq) * store / (k * den).  ``den`` is the Laurent-polynomial
denominator that reports print, as before.  A product multiplies the two
divisors; a sum brings both sides over the least common multiple of
theirs.  Scaling every term by one nonzero integer keeps which sums
cancel, so the store has the coefficient order of the rational entries,
and ``entries`` (store / k, made on first read) equals them, key order and
int-or-Fraction types included.  Ring products and sums thus never touch
``Fraction``.

Truncation bookkeeping: each operator carries declared signed bounds

    nu_raise  -- max shift of the shell number nu (signed: an operator
                 whose every entry strictly lowers nu by one has
                 nu_raise = -1)
    nu_lower  -- max decrease of nu (signed likewise: a pure creator has
                 nu_lower = -1)
    climb     -- max intermediate shell excursion above the source state
                 accumulated while the operator (a composition) acts

Signed bounds keep climbs tight: a creator-after-annihilator product
dips below the source shell first, so its climb is 0, and checking it
needs no headroom below the cutoff.

An identity that involves intermediate climbs of height c is trustworthy
on the safe subspace nu <= cutoff - c; entries sourced above that may be
corrupted by the cutoff.

Columns: the bases, ladders, ``expand`` and ``eval`` read one column
A^a B^b |st> each.  :func:`act` multiplies the factors, rightmost first,
onto the one-entry ``ket(st)`` = |st><st|; no operator power is built.

Entry rings: an operator of every kind -- exact (:class:`QOperator`,
Laurent entries), packed (:class:`PointOp`), float (:class:`NumOp`) and
magnitude (:class:`NumMagnitude`) -- is one :class:`SparseOp`, which
keeps the bookkeeping once: store, bounds, climb composition, divisor,
den, flag, the sum, negation, ``scale`` and the product.  A kind only
binds the arithmetic of its entries: a product, a sum that says when it
is provably zero, a negation, and a store times a scalar.

Accumulation: a product (``@``) keeps, per output entry, its first ring
product as it is, and merges each later one into it with the ring sum; a
sum that cancels deletes the entry, and a later product starts it again.
Sums (``+``, ``-``) merge the same way into a copy of the left store;
``a - b`` merges b's negated entries, entry for entry ``a + (-b)``.  For
Laurent entries the second product of an entry copies the first one's
coefficients into an owned dict, and every later one is merged into that
dict in place, term by term in its own order, by :func:`qnum.add_terms`;
a coefficient that reaches 0 is deleted at once.  Owned dicts are
wrapped once, when the result is made.  These are the dict steps that
adding each product to the running LaurentPoly would take, without the
copies, so the coefficient insertion order is the same.  That order
matters: ``LaurentPoly.__call__`` sums floats in it, so the numeric
residuals and ``eval`` output depend on it.  Keeping cancelled zeros and
trimming once at the end would move a coefficient that cancels and then
reappears, and change those floats.  The float product is ``0.0 + a*b``,
and a float sum adds an entry the left side lacks to ``0.0``: the first
sums of an accumulating loop, so that signed zeros agree with it.

Diagonals: an operator whose store keys are all (i, i) is diagonal,
whatever its declared bounds (J_+ has nu_raise = nu_lower = 0 and is
not).  A product with a diagonal factor scales rows or columns instead
of running the general loop: ``diag @ X`` makes one ring product per
entry of X, in X's key order, and ``X @ diag`` walks X's columns in the
diagonal's key order.  No output entry gets two products there, so
these are the general loop's entries, key order and coefficient order
included, in every ring.  A one-entry ``ket`` is diagonal, so the first
product of :func:`act` is a column scaling.  The diagonals themselves
are built from compiled state formulas
(:class:`sp4q.notation.StateFormula`) in integer arithmetic and are not
kept: rebuilding one costs less than holding it.

Point decision: :class:`PointOp` maps an operator's integer store to
s = 2^B (B = 24), Kronecker substitution (von zur Gathen and Gerhard,
*Modern Computer Algebra*, 8.4).  An entry sum_k c_k s^k becomes
(e0, V, L): V = sum_k c_k 2^(B(k - e0)) is one Python int, e0 the lowest
exponent and L a bound on sum_k |c_k|; a product multiplies V and L and
adds e0, a sum shifts the higher V onto the lower e0 and adds L.  The map
is a ring homomorphism, so a zero entry has V = 0.  Conversely, if V = 0
and L < 2^(B-1), every |c_k| < 2^(B-1), and the lowest nonzero c_j would
leave V = 2^(B(j - e0)) (c_j + 2^B R) != 0: the entry is zero, and the
packed sum drops it.  The largest L of a catalogue residual at cutoff
24, flipped or not, is 58,752 (16 bits).  So a relation whose residual
image keeps no entry on its window holds exactly.  A nonzero V proves an
entry nonzero, but a Fails prints it as a Laurent polynomial, and V = 0
with a larger L proves nothing (a product of eight entries with L = 8
already has L = 2^24): either way the check rebuilds its residual
exactly, which gives the verdict, the witness and the residual text.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .fock import FockSpace, FockState
from .qnum import (
    LaurentPoly,
    ONE,
    Q,
    QRationalFn,
    add_terms,
    q_factorial,
    q_power,
    require_q,
)

Rule = Callable[[FockState], "tuple[FockState, LaurentPoly] | None"]


def _times(entries: dict, factor: LaurentPoly) -> dict:
    """Every entry times an integral factor; the same dict when factor is
    1.  A constant multiplies the coefficients in place of a ring product,
    with the same result and key order."""
    if factor.is_one:
        return entries
    c = factor.c
    if len(c) == 1 and 0 in c:
        return {key: _scaled(poly, c[0]) for key, poly in entries.items()}
    return {key: poly * factor for key, poly in entries.items()}


@dataclass(frozen=True)
class SafeSubspace:
    """Source states on which a truncated computation is exact."""

    space: FockSpace
    max_nu: int

    def covers(self, state: FockState) -> bool:
        return state.nu <= self.max_nu


def _compose(a: dict, b: dict, mul: Callable, add: Callable) -> dict:
    """The store a @ b in the ring of mul and add (see "Accumulation" and
    "Diagonals" above): rows scaled when a is diagonal, columns scaled
    when b is, else the general loop over a's columns."""
    entries: dict = {}
    if _is_diagonal(a):
        for key, y in b.items():
            x = a.get((key[0], key[0]))
            if x is not None:
                entries[key] = mul(x, y)
    elif _is_diagonal(b):
        cols = _columns(a, b)
        for (s, _), y in b.items():
            for d, x in cols[s]:
                entries[(d, s)] = mul(x, y)
    else:
        cols = _columns(a, b)
        for (mid, src), y in b.items():
            for dst, x in cols[mid]:
                key = (dst, src)
                acc = entries.get(key)
                if acc is None:
                    entries[key] = mul(x, y)
                elif (acc := add(acc, mul(x, y))) is None:
                    del entries[key]
                else:
                    entries[key] = acc
    return entries


def _columns(a: dict, b: dict) -> dict[int, list]:
    """The entries (dst, value) of the store a by source, for the sources
    that are rows of the store b only, each list in a's key order."""
    cols: dict[int, list] = {mid: [] for mid, _ in b}
    for (d, s), v in a.items():
        col = cols.get(s)
        if col is not None:
            col.append((d, v))
    return cols


def _is_diagonal(store: dict) -> bool:
    """Whether every key of the store is (i, i)."""
    for d, s in store:
        if d != s:
            return False
    return True


class SparseOp:
    """A sparse operator in the monomial basis, over the entry ring its
    kind binds.

    The represented operator is  sqrt(sqrt_sq) / (k * den) * (store);
    ``store`` maps (dst, src) to an entry, ``k`` is a positive ``int`` and
    ``sqrt_sq is None`` means no square-root factor.  Instances are
    treated as immutable.  A kind binds, as class attributes:

        _mul(x, y)        the product of two entries
        _add(acc, y)      their sum, or None where it is provably zero
        _neg(x)           the negated entry
        _times(store, f)  every entry times a scalar f
        _zero             what an entry absent from the left side of a
                          sum adds to (None: the right entry is kept)
    """

    __slots__ = ("space", "store", "k", "den", "sqrt_sq", "nu_raise", "nu_lower", "climb")

    _zero = None

    @classmethod
    def _of(cls, space, store, k, den, sqrt_sq, nu_raise, nu_lower, climb):
        """An operator from a store and its divisor, as is."""
        op = object.__new__(cls)
        op._set(space, store, k, den, sqrt_sq, nu_raise, nu_lower, climb)
        return op

    def _set(self, space, store, k, den, sqrt_sq, nu_raise, nu_lower, climb) -> None:
        self.space, self.store, self.k, self.den = space, store, k, den
        self.sqrt_sq, self.nu_raise, self.nu_lower, self.climb = (
            sqrt_sq, nu_raise, nu_lower, climb)

    def _new(self, store, k, den, sqrt_sq, nu_raise, nu_lower, climb):
        """An operator of this one's kind on its space."""
        return self._of(self.space, store, k, den, sqrt_sq, nu_raise, nu_lower, climb)

    def _like(self, store, k, den, sqrt_sq):
        """An operator of this one's kind, space and bounds."""
        return self._new(store, k, den, sqrt_sq, self.nu_raise, self.nu_lower, self.climb)

    entries = property(lambda self: self.store)

    @property
    def is_zero(self) -> bool:
        return not self.store

    # -- linear structure --------------------------------------------------

    def _flag_compatible(self, other: "SparseOp") -> LaurentPoly | None:
        if self.is_zero:
            return other.sqrt_sq
        if other.is_zero:
            return self.sqrt_sq
        if (self.sqrt_sq is None) != (other.sqrt_sq is None) or (
            self.sqrt_sq is not None and self.sqrt_sq != other.sqrt_sq
        ):
            raise ValueError("cannot add operators with different sqrt flags")
        return self.sqrt_sq

    def _plus(self, other, minus: bool):
        """self + other, or self - other, other's entries (negated for
        minus) merged into a copy of self's store.  Both sides are first
        brought over one divisor, the least common multiple of theirs; a
        side already over it keeps its entries, so entries other does not
        touch stay shared."""
        if self.space is not other.space and self.space != other.space:
            raise ValueError("operators live on different spaces")
        flag = self._flag_compatible(other)
        mine, theirs, k, den = self.store, other.store, self.k, self.den
        if k != other.k or (den is not other.den and den != other.den):
            # each store times an integral factor, over the divisor k_mine
            # or k_theirs, before both are brought over k
            times_mine = times_theirs = ONE
            k_mine, k_theirs = k, other.k
            if den != other.den:
                den = self.den * other.den
                times_mine, d_mine = _split(other.den)
                times_theirs, d_theirs = _split(self.den)
                k_mine, k_theirs = k_mine * d_mine, k_theirs * d_theirs
            k = math.lcm(k_mine, k_theirs)
            mine = self._times(mine, _scaled(times_mine, k // k_mine))
            theirs = self._times(theirs, _scaled(times_theirs, k // k_theirs))
        entries, add, neg, zero = dict(mine), self._add, self._neg, self._zero
        for key, y in theirs.items():
            if minus:
                y = neg(y)
            acc = entries.get(key, zero)
            if acc is None:
                entries[key] = y
            elif (y := add(acc, y)) is None:
                del entries[key]
            else:
                entries[key] = y
        return self._new(entries, k, den, flag, max(self.nu_raise, other.nu_raise),
                         max(self.nu_lower, other.nu_lower), max(self.climb, other.climb))

    def __add__(self, other):
        return self._plus(other, False)

    def __sub__(self, other):
        return self._plus(other, True)

    def __neg__(self):
        neg = self._neg
        return self._like({key: neg(x) for key, x in self.store.items()}, self.k, self.den,
                          self.sqrt_sq)

    def scale(self, factor):
        """Multiply by an exact scalar (int, Fraction or LaurentPoly).
        A factor of 1 returns this operator itself; a factor a/b
        multiplies the store by a and the divisor by b."""
        if isinstance(factor, (int, Fraction)):
            factor = LaurentPoly.const(factor)
        if factor.is_zero:
            return self._new({}, 1, ONE, None, 0, 0, 0)
        if factor.is_one:
            return self
        poly, d = _split(factor)
        return self._like(self._times(self.store, poly), self.k * d, self.den, self.sqrt_sq)

    def over(self, den: LaurentPoly):
        """Divide by an exact Laurent-polynomial scalar."""
        return self._like(dict(self.store), self.k, self.den * den, self.sqrt_sq)

    def times_sqrt(self, base: LaurentPoly):
        """Multiply by sqrt(base), collapsing (sqrt base)^2 = base."""
        if self.sqrt_sq is None:
            return self._like(dict(self.store), self.k, self.den, base)
        if self.sqrt_sq != base:
            raise ValueError("mixed sqrt bases are not supported")
        poly, d = _split(base)
        return self._like(self._times(self.store, poly), self.k * d, self.den, None)

    def transpose(self):
        """The transpose: keys swapped, and with them nu_raise and
        nu_lower."""
        return self._new({(s, d): x for (d, s), x in self.store.items()}, self.k, self.den,
                         self.sqrt_sq, self.nu_lower, self.nu_raise, max(self.nu_lower, 0))

    # -- composition --------------------------------------------------------

    def __matmul__(self, other):
        """self after other (matrix product): the divisors and dens
        multiply, two square-root flags collapse into the entries and the
        bounds compose."""
        if self.space is not other.space and self.space != other.space:
            raise ValueError("operators live on different spaces")
        # a den of ONE, as every float operator has, takes no ring product
        den = (other.den if self.den is ONE else self.den if other.den is ONE
               else self.den * other.den)
        op = self._new(_compose(self.store, other.store, self._mul, self._add),
                       self.k * other.k, den,
                       other.sqrt_sq if self.sqrt_sq is None else self.sqrt_sq,
                       self.nu_raise + other.nu_raise, self.nu_lower + other.nu_lower,
                       max(other.climb, other.nu_raise + self.climb))
        if self.sqrt_sq is None or other.sqrt_sq is None:
            return op
        return op.times_sqrt(other.sqrt_sq)


def _ladd(acc, y: LaurentPoly) -> dict | None:
    """acc + y for Laurent entries, as an owned coefficient dict: a first
    product acc is copied into one, an owned dict is merged into in place;
    None when every coefficient cancels."""
    c = acc if type(acc) is dict else dict(acc.c)
    add_terms(c, y.c)
    return c or None


class QOperator(SparseOp):
    """Exact sparse operator: ``store`` maps (dst, src) to a Laurent
    polynomial with ``int`` coefficients only, and never to a zero one.
    ``entries`` is the entry matrix as a reader sees it, ``store / k``,
    and ``den`` is the denominator printed with it.
    """

    __slots__ = ("_entries",)

    _mul = staticmethod(operator.mul)
    _add = staticmethod(_ladd)
    _neg = staticmethod(operator.neg)
    _times = staticmethod(_times)

    def __init__(
        self,
        space: FockSpace,
        entries: dict[tuple[int, int], LaurentPoly],
        den: LaurentPoly = ONE,
        sqrt_sq: LaurentPoly | None = None,
        nu_raise: int = 0,
        nu_lower: int = 0,
        climb: int = 0,
    ):
        """An operator with the given entries, whose coefficients may be
        rational: they are stored over their least common denominator."""
        store, k = _fold(entries)
        self._set(space, store, k, den, sqrt_sq, nu_raise, nu_lower, climb)

    def _set(self, space, store, k, den, sqrt_sq, nu_raise, nu_lower, climb) -> None:
        """Also wraps the owned coefficient dicts a product or sum left in
        the store, and checks every entry against the declared bounds."""
        SparseOp._set(self, space, store, k, den, sqrt_sq, nu_raise, nu_lower, climb)
        self._entries = None
        nus = space.nus
        for key, poly in store.items():
            if type(poly) is dict:
                store[key] = poly = LaurentPoly._of(poly)
            if poly.is_zero:
                raise ValueError("zero entry stored in QOperator")
            dn = nus[key[0]] - nus[key[1]]
            if dn > nu_raise or -dn > nu_lower:
                raise ValueError(
                    f"entry {key} violates declared bounds "
                    f"raise={nu_raise} lower={nu_lower}"
                )

    @property
    def entries(self) -> dict[tuple[int, int], LaurentPoly]:
        """The entry matrix ``store / k``: the store itself when k is 1,
        else its rational polynomials, made on first read."""
        if self.k == 1:
            return self.store
        if self._entries is None:
            self._entries = {key: _over(poly, self.k) for key, poly in self.store.items()}
        return self._entries

    def _rational(self, poly: LaurentPoly) -> LaurentPoly:
        """A polynomial of the store as an entry, that is, over k."""
        return poly if self.k == 1 else _over(poly, self.k)

    def __eq__(self, other) -> bool:
        if other.__class__ is not QOperator:
            return NotImplemented
        return (self.space, self.entries, self.den, self.sqrt_sq, self.nu_raise,
                self.nu_lower, self.climb) == (
                other.space, other.entries, other.den, other.sqrt_sq,
                other.nu_raise, other.nu_lower, other.climb)

    __hash__ = None

    def __repr__(self) -> str:
        return (f"QOperator({self.space!r}, {self.entries!r}, den={self.den!r}, "
                f"sqrt_sq={self.sqrt_sq!r}, nu_raise={self.nu_raise}, "
                f"nu_lower={self.nu_lower}, climb={self.climb})")

    def __matmul__(self, other: "QOperator") -> "QOperator":
        # SparseOp's product, as a function of this class's own, so that
        # perfbench/tracing.py times exact products apart from NumOp's
        return SparseOp.__matmul__(self, other)

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, space: FockSpace) -> "QOperator":
        return cls(space, {})

    @classmethod
    def identity(cls, space: FockSpace) -> "QOperator":
        return cls(space, {(i, i): ONE for i in range(space.dimension)})

    @classmethod
    def ket(cls, space: FockSpace, state: FockState) -> "QOperator":
        """|state><state|: ``op @ ket`` is op's column of state, den and flag."""
        i = space.index(state)
        return cls(space, {(i, i): ONE})

    @classmethod
    def from_rule(
        cls,
        space: FockSpace,
        rule: Rule,
        nu_raise: int = 0,
        nu_lower: int = 0,
        den: LaurentPoly = ONE,
        sqrt_sq: LaurentPoly | None = None,
    ) -> "QOperator":
        """Build from a one-state-to-one-state action; targets beyond the
        cutoff are dropped (that is what truncation means)."""
        entries: dict[tuple[int, int], LaurentPoly] = {}
        for i, st in enumerate(space.states):
            hit = rule(st)
            if hit is None:
                continue
            dst, poly = hit
            if poly.is_zero or dst not in space:
                continue
            entries[(space.index(dst), i)] = poly
        return cls(
            space,
            entries,
            den=den,
            sqrt_sq=sqrt_sq,
            nu_raise=nu_raise,
            nu_lower=nu_lower,
            climb=max(nu_raise, 0),
        )

    # -- inspection ----------------------------------------------------------

    def column(self, src: FockState) -> dict[FockState, LaurentPoly]:
        """Entry column of a source state (denominator and sqrt flag not
        included)."""
        j = self.space.index(src)
        return {
            self.space.states[d]: self._rational(poly)
            for (d, s), poly in self.store.items()
            if s == j
        }

    def entry(self, dst: FockState, src: FockState) -> LaurentPoly:
        poly = self.store.get((self.space.index(dst), self.space.index(src)))
        return LaurentPoly.zero() if poly is None else self._rational(poly)


def _fold(entries: dict) -> tuple[dict, int]:
    """(store, k) with entries = store / k and k the least common
    denominator of every coefficient; the same dict when k is 1."""
    k = _lcd(entries.values())
    return (entries if k == 1 else {key: _scaled(poly, k) for key, poly in entries.items()}), k


def _split(poly: LaurentPoly) -> tuple[LaurentPoly, int]:
    """(p, k) with poly = p / k, p integral and k the least common
    denominator of poly's coefficients."""
    k = _lcd((poly,))
    return _scaled(poly, k), k


def _lcd(polys) -> int:
    """The least common denominator of the polynomials' coefficients."""
    k = 1
    for poly in polys:
        for v in poly.c.values():
            if type(v) is not int:
                k = math.lcm(k, v.denominator)
    return k


def _scaled(poly: LaurentPoly, m: int) -> LaurentPoly:
    """poly times a nonzero int m that clears its denominators; poly
    itself when m is 1."""
    if m == 1:
        return poly
    return LaurentPoly._of({e: v * m if type(v) is int else v.numerator * (m // v.denominator)
                            for e, v in poly.c.items()})


def _over(poly: LaurentPoly, k: int) -> LaurentPoly:
    """poly / k for an integral poly, every integral coefficient an int."""
    c = {}
    for e, v in poly.c.items():
        quo, rem = divmod(v, k)
        c[e] = Fraction(v, k) if rem else quo
    return LaurentPoly._of(c)


def act(word, ket):
    """A^a B^b ket for the word ``[(A, a), (B, b)]``, rightmost factor
    first; for every kind of operator alike."""
    for op, k in reversed(word):
        for _ in range(k):
            ket = op @ ket
    return ket


def q_commutator(a: QOperator, b: QOperator, rho: Fraction | int = 0) -> QOperator:
    """The deformed commutator [a, b]_{q^rho} = a b - q^rho b a."""
    return (a @ b) - (b @ a).scale(q_power(rho))


def first_witness(
    op: QOperator, sub: SafeSubspace
) -> tuple[FockState, FockState, LaurentPoly] | None:
    """First (in enumeration order) nonzero entry sourced inside the safe
    subspace, as (src, dst, entry)."""
    best = None
    nus = op.space.nus
    for (d, s), poly in op.store.items():
        if nus[s] > sub.max_nu:
            continue
        if best is None or (s, d) < best[:2]:
            best = (s, d, poly)
    if best is None:
        return None
    s, d, poly = best
    return op.space.states[s], op.space.states[d], op._rational(poly)


def diagonal_spectrum(
    op: QOperator, sub: SafeSubspace
) -> list[tuple[FockState, QRationalFn]]:
    """Eigenvalues of a diagonal operator over the safe subspace.

    Raises if any safe column carries an off-diagonal entry.
    """
    if op.sqrt_sq is not None:
        raise ValueError("diagonal_spectrum on a sqrt-flagged operator")
    values: dict[int, LaurentPoly] = {}
    nus = op.space.nus
    for (d, s), poly in op.store.items():
        if nus[s] > sub.max_nu:
            continue
        if d != s:
            raise ValueError(
                f"off-diagonal entry {op.space.states[s]} -> {op.space.states[d]}"
            )
        values[s] = poly
    out = []
    for i, st in enumerate(op.space.states):
        if st.nu <= sub.max_nu:
            poly = values.get(i)
            value = LaurentPoly.zero() if poly is None else op._rational(poly)
            out.append((st, QRationalFn(value, op.den)))
    return out


# -- inner products and the numeric layer -------------------------------------


def gram(state: FockState) -> LaurentPoly:
    """Squared norm [nu_1]! [nu_-1]! of a monomial basis state (deformed)."""
    return q_factorial(state.n1) * q_factorial(state.nm1)


def classical_gram(state: FockState) -> LaurentPoly:
    """Squared norm nu_1! nu_-1! of a monomial basis state (q = 1)."""
    return LaurentPoly.const(math.factorial(state.n1) * math.factorial(state.nm1))


def gram_squared_element(
    op: QOperator,
    dst: FockState,
    src: FockState,
    gram_fn: Callable[[FockState], LaurentPoly] = gram,
) -> QRationalFn:
    """Exact squared matrix element between *normalized* states.

    For A|src>/|src| = c |dst>/|dst| + ..., returns c^2 as a quotient of
    Laurent polynomials; the sqrt flag contributes its square exactly.
    """
    poly = op.entry(dst, src)
    num = poly * poly * gram_fn(dst)
    if op.sqrt_sq is not None:
        num = num * op.sqrt_sq
    return QRationalFn(num, gram_fn(src) * op.den * op.den)


def _fmul(x: float, y: float) -> float:
    # the first sum of an accumulating loop, so that signed zeros agree
    return 0.0 + x * y


def _ftimes(store: dict, factor: float) -> dict:
    """Every float entry times factor."""
    return {key: v * factor for key, v in store.items()}


class NumOp(SparseOp):
    """Floating-point operator in the orthonormal basis at ``q``: float
    entries, divisor 1, den 1 and no flag."""

    __slots__ = ("q",)

    _mul = staticmethod(_fmul)
    _add = staticmethod(operator.add)
    _neg = staticmethod(operator.neg)
    _times = staticmethod(_ftimes)
    _zero = 0.0

    def __init__(self, space: FockSpace, q: float, entries: dict[tuple[int, int], float],
                 nu_raise: int = 0, nu_lower: int = 0, climb: int = 0):
        self._set(space, entries, 1, ONE, None, nu_raise, nu_lower, climb)
        self.q = q

    def _new(self, store, k, den, sqrt_sq, nu_raise, nu_lower, climb):
        return self.__class__(self.space, self.q, store, nu_raise, nu_lower, climb)

    @classmethod
    def identity(cls, space: FockSpace, q: float) -> "NumOp":
        return cls(space, q, {(i, i): 1.0 for i in range(space.dimension)})

    @classmethod
    def ket(cls, space: FockSpace, q: float, state: FockState) -> "NumOp":
        """The one-entry operator |state><state| (see QOperator.ket)."""
        i = space.index(state)
        return cls(space, q, {(i, i): 1.0})

    def scale(self, factor: float) -> "NumOp":
        """Multiply by a float."""
        return self._like(self._times(self.store, factor), 1, ONE, None)

    def __matmul__(self, other: "NumOp") -> "NumOp":
        # SparseOp's product, as a function of this class's own, so that
        # perfbench/tracing.py times float products apart from exact ones
        return SparseOp.__matmul__(self, other)

    def max_abs_on(self, sub: SafeSubspace) -> float:
        out = 0.0
        nus = self.space.nus
        for (d, s), v in self.store.items():
            if nus[s] <= sub.max_nu:
                out = max(out, abs(v))
        return out

    def max_abs(self) -> float:
        return max((abs(v) for v in self.store.values()), default=0.0)


class NumMagnitude(NumOp):
    """A NumOp that holds magnitudes: negation is the identity, so
    subtraction adds, and ``scale`` uses |factor|.  An expression built
    from the |entries| of its operands thus gives, entry by entry, the
    sum of the magnitudes of the terms that the signed expression adds,
    which bounds that expression's rounding error (a running error
    bound; Higham, *Accuracy and Stability of Numerical Algorithms*,
    ch. 3)."""

    __slots__ = ()

    _neg = staticmethod(operator.pos)
    _times = staticmethod(lambda store, factor: _ftimes(store, abs(factor)))


def magnitude(op: NumOp) -> NumMagnitude:
    """|op|, entry by entry."""
    return NumMagnitude(op.space, op.q, {k: abs(v) for k, v in op.store.items()},
                        op.nu_raise, op.nu_lower, op.climb)


# -- the point decision ------------------------------------------------------

B = 24  # bits per coefficient: the image is taken at s = 2^B
_MASK, _HALF = (1 << B) - 1, 1 << (B - 1)


def pack(poly: LaurentPoly) -> tuple[int, int, int]:
    """(e0, V, L) of an integral polynomial: its lowest exponent, its
    value at s = 2^B over s^e0, and its l1 norm."""
    c = poly.c
    e0 = min(c)
    return e0, sum(v << B * (e - e0) for e, v in c.items()), sum(map(abs, c.values()))


def _pmul(x: tuple, y: tuple) -> tuple[int, int, int]:
    """The packed product of two packed entries."""
    (e, v, l), (f, w, m) = x, y
    return e + f, v * w, l * m


def _padd(x: tuple, y: tuple) -> tuple[int, int, int] | None:
    """The packed sum of two packed entries: the higher one shifted onto
    the lower's exponent, then zero low digits stripped; None when it is
    provably zero, V = 0 with L < 2^(B-1)."""
    (e, v, l), (f, w, m) = x, y
    if e > f:
        e, v, f, w = f, w, e, v
    v += w << B * (f - e)
    if not v and l + m < _HALF:
        return None
    while v and not v & _MASK:
        v >>= B
        e += 1
    return e, v, l + m


def _ptimes(store: dict, factor: LaurentPoly) -> dict:
    """Every packed entry times an integral factor; the same dict when
    factor is 1."""
    if factor.is_one:
        return store
    f, w, m = pack(factor)
    return {key: (e + f, v * w, l * m) for key, (e, v, l) in store.items()}


class PointOp(SparseOp):
    """A QOperator's image at s = 2^B (see "Point decision" above):
    ``store`` maps (dst, src) to a packed entry (e0, V, L), and an entry
    with V = 0 and L < 2^(B-1) is provably zero and dropped, as a
    QOperator deletes a cancelled one.  ``k``, ``den``, the flag and the
    bounds are the QOperator's."""

    __slots__ = ()

    _mul = staticmethod(_pmul)
    _add = staticmethod(_padd)
    _neg = staticmethod(lambda x: (x[0], -x[1], x[2]))
    _times = staticmethod(_ptimes)

    @classmethod
    def of(cls, op: QOperator) -> "PointOp":
        """The image of op: a one-term entry is packed in place, and a
        longer one once per distinct value."""
        store, seen = {}, {}
        for key, poly in op.store.items():
            c = poly.c
            if len(c) == 1:
                for e, v in c.items():
                    store[key] = (e, v, abs(v))
                continue
            terms = tuple(c.items())
            x = seen.get(terms)
            store[key] = x if x is not None else seen.setdefault(terms, pack(poly))
        return cls._of(op.space, store, op.k, op.den, op.sqrt_sq, op.nu_raise, op.nu_lower,
                       op.climb)

    def zero_on(self, sub: SafeSubspace) -> bool:
        """Whether every entry sourced inside the safe subspace is
        provably zero, that is, was dropped."""
        nus = self.space.nus
        return all(nus[s] > sub.max_nu for _, s in self.store)


def basis_norms(
    space: FockSpace,
    q: float,
    gram_fn: Callable[[FockState], LaurentPoly] = gram,
) -> list[float]:
    """The norms sqrt(G_st(q)) of the monomial basis states, in
    enumeration order."""
    require_q(q)
    return [math.sqrt(gram_fn(st)(q)) for st in space.states]


def to_numeric(
    op: QOperator,
    q: float,
    gram_fn: Callable[[FockState], LaurentPoly] = gram,
    norms: list[float] | None = None,
) -> NumOp:
    """Evaluate at numeric q > 0 in the orthonormal basis.

    N[d, s] = entry(q) / den(q) * sqrt(G_d(q) / G_s(q)) (times sqrt of the
    flag base when present).  ``norms`` are the basis norms of
    :func:`basis_norms` at this q, if already computed.
    """
    require_q(q)
    if norms is None:
        norms = basis_norms(op.space, q, gram_fn)
    den = op.den(q)
    flag = math.sqrt(op.sqrt_sq(q)) if op.sqrt_sq is not None else 1.0
    entries = {}
    for (d, s), poly in op.entries.items():
        entries[(d, s)] = poly(q) / den * flag * norms[d] / norms[s]
    return NumOp(
        op.space,
        q,
        entries,
        nu_raise=op.nu_raise,
        nu_lower=op.nu_lower,
        climb=op.climb,
    )
