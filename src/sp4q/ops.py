"""Sparse operators on the truncated Fock space with exact entries.

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

Accumulation: a product (``@``) keeps one owned coefficient dict per
output entry.  The first product for an entry is copied into it; each
later product is merged in place, term by term in its own order, by
:func:`qnum.add_terms`; a coefficient that reaches 0 is deleted at once,
and so is an entry whose dict empties.  Sums (``+``, ``-``) merge the
same way into copies of the touched entries.  These are the dict steps
that adding each product to the running LaurentPoly would take, without
the copies, so the coefficient insertion order is the same.  That order
matters: ``LaurentPoly.__call__`` sums floats in it, so the numeric
residuals and ``eval`` output depend on it.  Keeping cancelled zeros and
trimming once at the end would move a coefficient that cancels and then
reappears, and change those floats.

Diagonals: an operator whose store keys are all (i, i) is diagonal,
whatever its declared bounds (J_+ has nu_raise = nu_lower = 0 and is
not).  A product with a diagonal factor scales rows or columns instead
of running the general loop: ``diag @ X`` makes one ring product per
entry of X, in X's key order, and ``X @ diag`` walks X's columns in the
diagonal's key order.  No output entry gets two products there, so
these are the general loop's entries, key order and coefficient order
included; ``NumOp`` takes the same paths, with the loop's first sum
``0.0 + a*b`` kept so that signed zeros agree.  A one-entry ``ket`` is
diagonal, so the first product of :func:`act` is a column scaling.  The
diagonals themselves are built from compiled state formulas
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
leave V = 2^(B(j - e0)) (c_j + 2^B R) != 0: the entry is zero.  The
largest L of a catalogue residual at cutoff 24, flipped or not, is
58,752 (16 bits).  So a relation whose residual image keeps no entry on its window holds
exactly.  A nonzero V proves an entry nonzero, but a Fails prints it as
a Laurent polynomial, and V = 0 with a larger L proves nothing: either
way the check rebuilds its residual exactly, which gives the verdict,
the witness and the residual text.
"""

from __future__ import annotations

import math
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


class QOperator:
    """Exact sparse operator in the monomial basis.

    The represented operator is  sqrt(sqrt_sq) / (k * den) * (store);
    ``store`` maps (dst, src) to a Laurent polynomial with ``int``
    coefficients only, ``k`` is a positive ``int`` and ``sqrt_sq is None``
    means no square-root factor.  ``entries`` is the entry matrix as a
    reader sees it, ``store / k``, and ``den`` is the denominator printed
    with it.  Instances are treated as immutable; the store never holds a
    zero polynomial.
    """

    __slots__ = ("space", "store", "k", "den", "sqrt_sq", "nu_raise", "nu_lower",
                 "climb", "_entries")

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

    @classmethod
    def _of(cls, space, store, k, den, sqrt_sq, nu_raise, nu_lower, climb) -> "QOperator":
        """An operator from an integer store and its divisor, as is."""
        op = object.__new__(cls)
        op._set(space, store, k, den, sqrt_sq, nu_raise, nu_lower, climb)
        return op

    def _set(self, space, store, k, den, sqrt_sq, nu_raise, nu_lower, climb) -> None:
        self.space, self.store, self.k, self.den = space, store, k, den
        self.sqrt_sq, self.nu_raise, self.nu_lower, self.climb = (
            sqrt_sq, nu_raise, nu_lower, climb)
        self._entries = None
        nus = space.nus
        for (d, s), poly in store.items():
            if poly.is_zero:
                raise ValueError("zero entry stored in QOperator")
            dn = nus[d] - nus[s]
            if dn > nu_raise or -dn > nu_lower:
                raise ValueError(
                    f"entry {(d, s)} violates declared bounds "
                    f"raise={nu_raise} lower={nu_lower}"
                )

    def _like(self, store, k, den, sqrt_sq) -> "QOperator":
        """An operator of this one's class, space and bounds."""
        return self._of(self.space, store, k, den, sqrt_sq,
                        self.nu_raise, self.nu_lower, self.climb)

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

    # -- linear structure --------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.store

    def _flag_compatible(self, other: "QOperator") -> LaurentPoly | None:
        if self.is_zero:
            return other.sqrt_sq
        if other.is_zero:
            return self.sqrt_sq
        if (self.sqrt_sq is None) != (other.sqrt_sq is None) or (
            self.sqrt_sq is not None and self.sqrt_sq != other.sqrt_sq
        ):
            raise ValueError("cannot add operators with different sqrt flags")
        return self.sqrt_sq

    def _plus(self, other: "QOperator", sign: int) -> "QOperator":
        """self + sign * other, merging other's entries into a copy of
        self's store.  Both sides are first brought over one divisor, the
        least common multiple of theirs; a side already over it keeps its
        polynomials, so entries other does not touch stay shared."""
        if self.space != other.space:
            raise ValueError("operators live on different spaces")
        flag = self._flag_compatible(other)
        # each store times an integral factor, over the divisor k_mine or
        # k_theirs, before both are brought over k
        if self.den == other.den:
            den, times_mine, times_theirs = self.den, ONE, ONE
            k_mine, k_theirs = self.k, other.k
        else:
            den = self.den * other.den
            times_mine, d_mine = _split(other.den)
            times_theirs, d_theirs = _split(self.den)
            k_mine, k_theirs = self.k * d_mine, other.k * d_theirs
        k = math.lcm(k_mine, k_theirs)
        entries = self._merge(self._times(self.store, _scaled(times_mine, k // k_mine)),
                              self._times(other.store, _scaled(times_theirs, k // k_theirs)),
                              sign)
        return self._of(self.space, entries, k, den, flag, max(self.nu_raise, other.nu_raise),
                        max(self.nu_lower, other.nu_lower), max(self.climb, other.climb))

    @staticmethod
    def _merge(mine: dict, theirs: dict, sign: int) -> dict:
        """A copy of mine plus sign * theirs, entry by entry; an entry
        that cancels is deleted."""
        entries = dict(mine)
        for key, poly in theirs.items():
            acc = entries.get(key)
            if acc is None:
                entries[key] = poly if sign > 0 else -poly
                continue
            c = dict(acc.c)
            add_terms(c, poly.c, sign)
            if c:
                entries[key] = LaurentPoly._of(c)
            else:
                del entries[key]
        return entries

    def __add__(self, other: "QOperator") -> "QOperator":
        return self._plus(other, 1)

    def __neg__(self) -> "QOperator":
        return self._like({key: -p for key, p in self.store.items()}, self.k, self.den,
                          self.sqrt_sq)

    def __sub__(self, other: "QOperator") -> "QOperator":
        return self._plus(other, -1)

    def scale(self, factor) -> "QOperator":
        """Multiply by an exact scalar (int, Fraction or LaurentPoly).
        A factor of 1 returns this operator itself; a factor a/b
        multiplies the store by a and the divisor by b."""
        if isinstance(factor, (int, Fraction)):
            factor = LaurentPoly.const(factor)
        if factor.is_zero:
            return self.zero(self.space)
        if factor.is_one:
            return self
        poly, d = _split(factor)
        return self._like(self._times(self.store, poly), self.k * d, self.den, self.sqrt_sq)

    def over(self, den: LaurentPoly) -> "QOperator":
        """Divide by an exact Laurent-polynomial scalar."""
        return self._like(dict(self.store), self.k, self.den * den, self.sqrt_sq)

    def times_sqrt(self, base: LaurentPoly) -> "QOperator":
        """Multiply by sqrt(base), collapsing (sqrt base)^2 = base."""
        if self.sqrt_sq is None:
            return self._like(dict(self.store), self.k, self.den, base)
        if self.sqrt_sq != base:
            raise ValueError("mixed sqrt bases are not supported")
        poly, d = _split(base)
        return self._like(self._times(self.store, poly), self.k * d, self.den, None)

    # -- composition --------------------------------------------------------

    def __matmul__(self, other: "QOperator") -> "QOperator":
        """self after other (matrix product); the divisors multiply."""
        if self.space != other.space:
            raise ValueError("operators live on different spaces")
        a, b = self.store, other.store
        entries: dict = {}
        if _is_diagonal(a):
            # rows scaled: one product per entry of other, in its key order
            for key, bpoly in b.items():
                apoly = a.get((key[0], key[0]))
                if apoly is not None:
                    entries[key] = apoly * bpoly
        elif _is_diagonal(b):
            # columns scaled: self's columns in other's key order
            cols = _columns(a, b)
            for (s, _), bpoly in b.items():
                for d, apoly in cols[s]:
                    entries[(d, s)] = apoly * bpoly
        else:
            # One owned coefficient dict per output entry, wrapped in place
            # at the end; see the module docstring for why products are
            # merged in place, in order.
            cols = _columns(a, b)
            for (mid, src), bpoly in b.items():
                for dst, apoly in cols[mid]:
                    key = (dst, src)
                    prod = (apoly * bpoly).c
                    c = entries.get(key)
                    if c is None:
                        entries[key] = dict(prod)
                        continue
                    add_terms(c, prod)
                    if not c:
                        del entries[key]
            for key, c in entries.items():
                entries[key] = LaurentPoly._of(c)
        return self._product(other, entries)

    def _product(self, other: "QOperator", entries: dict) -> "QOperator":
        """self @ other from its composed entries: the divisors and dens
        multiply, two equal square-root flags collapse into the entries
        and the bounds compose."""
        k = self.k * other.k
        flag: LaurentPoly | None
        if self.sqrt_sq is None:
            flag = other.sqrt_sq
        elif other.sqrt_sq is None:
            flag = self.sqrt_sq
        else:
            if self.sqrt_sq != other.sqrt_sq:
                raise ValueError("mixed sqrt bases are not supported")
            base, d = _split(self.sqrt_sq)
            entries = self._times(entries, base)
            k *= d
            flag = None
        return self._of(self.space, entries, k, self.den * other.den, flag,
                        self.nu_raise + other.nu_raise, self.nu_lower + other.nu_lower,
                        max(other.climb, other.nu_raise + self.climb))

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
    first; for QOperator and NumOp alike."""
    for op, k in reversed(word):
        for _ in range(k):
            ket = op @ ket
    return ket


def q_commutator(a: QOperator, b: QOperator, rho: Fraction | int = 0) -> QOperator:
    """The deformed commutator [a, b]_{q^rho} = a b - q^rho b a."""
    return (a @ b) - (b @ a).scale(q_power(rho))


def is_zero_on(op: QOperator, sub: SafeSubspace) -> bool:
    """Exact vanishing of every column sourced inside the safe subspace."""
    return first_witness(op, sub) is None


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


@dataclass(frozen=True)
class NumOp:
    """Floating-point operator in the orthonormal basis."""

    space: FockSpace
    q: float
    entries: dict[tuple[int, int], float]
    nu_raise: int = 0
    nu_lower: int = 0
    climb: int = 0

    @classmethod
    def identity(cls, space: FockSpace, q: float) -> "NumOp":
        return cls(space, q, {(i, i): 1.0 for i in range(space.dimension)})

    @classmethod
    def ket(cls, space: FockSpace, q: float, state: FockState) -> "NumOp":
        """The one-entry operator |state><state| (see QOperator.ket)."""
        i = space.index(state)
        return cls(space, q, {(i, i): 1.0})

    def __add__(self, other: "NumOp") -> "NumOp":
        entries = dict(self.entries)
        for k, v in other.entries.items():
            entries[k] = entries.get(k, 0.0) + v
        return self._sum_with(other, entries)

    def __neg__(self) -> "NumOp":
        return self.scale(-1.0)

    def __sub__(self, other: "NumOp") -> "NumOp":
        # IEEE 754 defines x - y as x + (-y), signed zeros included, so
        # one merging pass gives the floats and key order of self + (-other).
        entries = dict(self.entries)
        for k, v in other.entries.items():
            entries[k] = entries.get(k, 0.0) - v
        return self._sum_with(other, entries)

    def _sum_with(self, other: "NumOp", entries) -> "NumOp":
        """The sum or difference of self and other with these entries."""
        return type(self)(
            self.space,
            self.q,
            entries,
            nu_raise=max(self.nu_raise, other.nu_raise),
            nu_lower=max(self.nu_lower, other.nu_lower),
            climb=max(self.climb, other.climb),
        )

    def scale(self, factor: float) -> "NumOp":
        return type(self)(
            self.space,
            self.q,
            {k: v * factor for k, v in self.entries.items()},
            nu_raise=self.nu_raise,
            nu_lower=self.nu_lower,
            climb=self.climb,
        )

    def __matmul__(self, other: "NumOp") -> "NumOp":
        # The paths of QOperator.__matmul__; 0.0 + a*b is the general
        # loop's first sum, signed zeros included.
        a, b = self.entries, other.entries
        entries: dict[tuple[int, int], float] = {}
        if _is_diagonal(a):
            for key, bv in b.items():
                av = a.get((key[0], key[0]))
                if av is not None:
                    entries[key] = 0.0 + av * bv
        elif _is_diagonal(b):
            cols = _columns(a, b)
            for (s, _), bv in b.items():
                for d, av in cols[s]:
                    entries[(d, s)] = 0.0 + av * bv
        else:
            cols = _columns(a, b)
            for (mid, src), bv in b.items():
                for dst, av in cols[mid]:
                    key = (dst, src)
                    entries[key] = entries.get(key, 0.0) + av * bv
        return type(self)(
            self.space,
            self.q,
            entries,
            nu_raise=self.nu_raise + other.nu_raise,
            nu_lower=self.nu_lower + other.nu_lower,
            climb=max(other.climb, other.nu_raise + self.climb),
        )

    def transpose(self) -> "NumOp":
        return NumOp(
            self.space,
            self.q,
            {(s, d): v for (d, s), v in self.entries.items()},
            nu_raise=self.nu_lower,
            nu_lower=self.nu_raise,
            climb=max(self.nu_lower, 0),
        )

    def max_abs_on(self, sub: SafeSubspace) -> float:
        out = 0.0
        nus = self.space.nus
        for (d, s), v in self.entries.items():
            if nus[s] <= sub.max_nu:
                out = max(out, abs(v))
        return out

    def max_abs(self) -> float:
        return max((abs(v) for v in self.entries.values()), default=0.0)


class NumMagnitude(NumOp):
    """A NumOp that holds magnitudes: negation is the identity,
    subtraction adds and ``scale`` uses |factor|.  An expression built
    from the |entries| of its operands thus gives, entry by entry, the
    sum of the magnitudes of the terms that the signed expression adds,
    which bounds that expression's rounding error (a running error
    bound; Higham, *Accuracy and Stability of Numerical Algorithms*,
    ch. 3)."""

    def __neg__(self) -> "NumMagnitude":
        return self

    def __sub__(self, other: "NumOp") -> "NumMagnitude":
        return self + other

    def scale(self, factor: float) -> "NumMagnitude":
        return NumOp.scale(self, abs(factor))


def magnitude(op: NumOp) -> NumMagnitude:
    """|op|, entry by entry."""
    return NumMagnitude(op.space, op.q, {k: abs(v) for k, v in op.entries.items()},
                        nu_raise=op.nu_raise, nu_lower=op.nu_lower, climb=op.climb)


# -- the point decision ------------------------------------------------------

B = 24  # bits per coefficient: the image is taken at s = 2^B
_MASK, _HALF = (1 << B) - 1, 1 << (B - 1)


def pack(poly: LaurentPoly) -> tuple[int, int, int]:
    """(e0, V, L) of an integral polynomial: its lowest exponent, its
    value at s = 2^B over s^e0, and its l1 norm."""
    c = poly.c
    e0 = min(c)
    return e0, sum(v << B * (e - e0) for e, v in c.items()), sum(map(abs, c.values()))


def _padd(x: tuple, y: tuple) -> tuple[int, int, int]:
    """The packed sum of two packed entries: the higher one shifted onto
    the lower's exponent, then zero low digits stripped."""
    (e, v, l), (f, w, m) = x, y
    if e > f:
        e, v, f, w = f, w, e, v
    v += w << B * (f - e)
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


class PointOp(QOperator):
    """A QOperator's image at s = 2^B (see "Point decision" above):
    ``store`` maps (dst, src) to a packed entry (e0, V, L), and an entry
    with V = 0 and L < 2^(B-1) is provably zero and dropped, as QOperator
    deletes a cancelled one.  ``k``, ``den``, the flag, the bounds, the
    sums, ``scale``, ``over`` and ``times_sqrt`` are QOperator's own."""

    __slots__ = ()

    _times = staticmethod(_ptimes)

    entries = property(lambda self: self.store)  # a packed entry keeps k apart

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

    def _set(self, space, store, k, den, sqrt_sq, nu_raise, nu_lower, climb) -> None:
        self.space, self.store, self.k, self.den = space, store, k, den
        self.sqrt_sq, self.nu_raise, self.nu_lower, self.climb = (
            sqrt_sq, nu_raise, nu_lower, climb)

    @staticmethod
    def _merge(mine: dict, theirs: dict, sign: int) -> dict:
        entries = dict(mine)
        for key, y in theirs.items():
            if sign < 0:
                y = (y[0], -y[1], y[2])
            acc = entries.get(key)
            if acc is None:
                entries[key] = y
            elif (y := _padd(acc, y))[1] or y[2] >= _HALF:
                entries[key] = y
            else:
                del entries[key]
        return entries

    def __neg__(self) -> "PointOp":
        return self._like({key: (e, -v, l) for key, (e, v, l) in self.store.items()},
                          self.k, self.den, self.sqrt_sq)

    def __matmul__(self, other: "PointOp") -> "PointOp":
        if self.space != other.space:
            raise ValueError("operators live on different spaces")
        entries: dict = {}
        cols = _columns(self.store, other.store)
        for (mid, src), (f, w, m) in other.store.items():
            for dst, (e, v, l) in cols[mid]:
                key, x = (dst, src), (e + f, v * w, l * m)
                acc = entries.get(key)
                if acc is None:
                    entries[key] = x
                elif (x := _padd(acc, x))[1] or x[2] >= _HALF:
                    entries[key] = x
                else:
                    del entries[key]
        return self._product(other, entries)

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
