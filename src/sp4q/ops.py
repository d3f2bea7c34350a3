"""Sparse operators on the truncated Fock space with exact entries.

Operators are stored in the *monomial* basis e(x, y) = (b_1+)^x (b_-1+)^y |0>
(or its q-analogue), in which every generator of the algebras at hand maps
a basis state to a single basis state.  Entries are Laurent polynomials in
s = q^(1/4) over a single shared denominator, with an optional square-root
flag: an operator with ``sqrt_sq = X`` represents sqrt(X) times its entry
matrix.  Since sqrt([2]) is irrational over the Laurent ring, sums with
mixed flags never need to collapse, and products absorb (sqrt X)^2 = X
exactly, so all algebra can stay exact.

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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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


@dataclass(frozen=True)
class SafeSubspace:
    """Source states on which a truncated computation is exact."""

    space: FockSpace
    max_nu: int

    def covers(self, state: FockState) -> bool:
        return state.nu <= self.max_nu


@dataclass(frozen=True)
class QOperator:
    """Exact sparse operator in the monomial basis.

    The represented operator is  sqrt(sqrt_sq) / den * (entry matrix);
    ``sqrt_sq is None`` means no square-root factor.  Instances are
    treated as immutable; entries never store zero polynomials.
    """

    space: FockSpace
    entries: dict[tuple[int, int], LaurentPoly]
    den: LaurentPoly = field(default_factory=lambda: ONE)
    sqrt_sq: LaurentPoly | None = None
    nu_raise: int = 0
    nu_lower: int = 0
    climb: int = 0

    def __post_init__(self):
        nus = self.space.nus
        for (d, s), poly in self.entries.items():
            if poly.is_zero:
                raise ValueError("zero entry stored in QOperator")
            dn = nus[d] - nus[s]
            if dn > self.nu_raise or -dn > self.nu_lower:
                raise ValueError(
                    f"entry {(d, s)} violates declared bounds "
                    f"raise={self.nu_raise} lower={self.nu_lower}"
                )

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, space: FockSpace) -> "QOperator":
        return cls(space, {})

    @classmethod
    def identity(cls, space: FockSpace) -> "QOperator":
        return cls(space, {(i, i): ONE for i in range(space.dimension)})

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

    @classmethod
    def diagonal(
        cls,
        space: FockSpace,
        value: Callable[[FockState], LaurentPoly],
        den: LaurentPoly = ONE,
    ) -> "QOperator":
        entries = {}
        for i, st in enumerate(space.states):
            poly = value(st)
            if not poly.is_zero:
                entries[(i, i)] = poly
        return cls(space, entries, den=den)

    # -- linear structure --------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.entries

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
        self's entry dict; entries other does not touch stay shared."""
        if self.space != other.space:
            raise ValueError("operators live on different spaces")
        flag = self._flag_compatible(other)
        if self.den == other.den:
            den, mine, theirs = self.den, self.entries, other.entries
        else:
            den = self.den * other.den
            mine = _times(self.entries, other.den)
            theirs = _times(other.entries, self.den)
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
        return QOperator(
            self.space,
            entries,
            den=den,
            sqrt_sq=flag,
            nu_raise=max(self.nu_raise, other.nu_raise),
            nu_lower=max(self.nu_lower, other.nu_lower),
            climb=max(self.climb, other.climb),
        )

    def __add__(self, other: "QOperator") -> "QOperator":
        return self._plus(other, 1)

    def __neg__(self) -> "QOperator":
        return QOperator(
            self.space,
            {k: -p for k, p in self.entries.items()},
            den=self.den,
            sqrt_sq=self.sqrt_sq,
            nu_raise=self.nu_raise,
            nu_lower=self.nu_lower,
            climb=self.climb,
        )

    def __sub__(self, other: "QOperator") -> "QOperator":
        return self._plus(other, -1)

    def scale(self, factor) -> "QOperator":
        """Multiply by an exact scalar (int, Fraction or LaurentPoly).
        A factor of 1 returns this operator itself."""
        if isinstance(factor, (int, Fraction)):
            factor = LaurentPoly.const(factor)
        if factor.is_zero:
            return QOperator.zero(self.space)
        if factor.is_one:
            return self
        return QOperator(
            self.space,
            {k: p * factor for k, p in self.entries.items()},
            den=self.den,
            sqrt_sq=self.sqrt_sq,
            nu_raise=self.nu_raise,
            nu_lower=self.nu_lower,
            climb=self.climb,
        )

    def over(self, den: LaurentPoly) -> "QOperator":
        """Divide by an exact Laurent-polynomial scalar."""
        return QOperator(
            self.space,
            dict(self.entries),
            den=self.den * den,
            sqrt_sq=self.sqrt_sq,
            nu_raise=self.nu_raise,
            nu_lower=self.nu_lower,
            climb=self.climb,
        )

    def times_sqrt(self, base: LaurentPoly) -> "QOperator":
        """Multiply by sqrt(base), collapsing (sqrt base)^2 = base."""
        if self.sqrt_sq is None:
            return QOperator(
                self.space,
                dict(self.entries),
                den=self.den,
                sqrt_sq=base,
                nu_raise=self.nu_raise,
                nu_lower=self.nu_lower,
                climb=self.climb,
            )
        if self.sqrt_sq != base:
            raise ValueError("mixed sqrt bases are not supported")
        return QOperator(
            self.space,
            {k: p * base for k, p in self.entries.items()},
            den=self.den,
            sqrt_sq=None,
            nu_raise=self.nu_raise,
            nu_lower=self.nu_lower,
            climb=self.climb,
        )

    # -- composition --------------------------------------------------------

    def __matmul__(self, other: "QOperator") -> "QOperator":
        """self after other (matrix product)."""
        if self.space != other.space:
            raise ValueError("operators live on different spaces")
        by_src: dict[int, list[tuple[int, LaurentPoly]]] = {}
        for (d, s), poly in self.entries.items():
            by_src.setdefault(s, []).append((d, poly))
        # One owned coefficient dict per output entry, wrapped in place at
        # the end; see the module docstring for why products are merged
        # in place, in order.
        entries: dict = {}
        for (mid, src), bpoly in other.entries.items():
            for dst, apoly in by_src.get(mid, ()):
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
        flag: LaurentPoly | None
        if self.sqrt_sq is None:
            flag = other.sqrt_sq
        elif other.sqrt_sq is None:
            flag = self.sqrt_sq
        else:
            if self.sqrt_sq != other.sqrt_sq:
                raise ValueError("mixed sqrt bases are not supported")
            base = self.sqrt_sq
            entries = {k: p * base for k, p in entries.items()}
            flag = None
        return QOperator(
            self.space,
            entries,
            den=self.den * other.den,
            sqrt_sq=flag,
            nu_raise=self.nu_raise + other.nu_raise,
            nu_lower=self.nu_lower + other.nu_lower,
            climb=max(other.climb, other.nu_raise + self.climb),
        )

    def power(self, n: int) -> "QOperator":
        if n < 0:
            raise ValueError("operator powers need n >= 0")
        out = QOperator.identity(self.space)
        for _ in range(n):
            out = self @ out
        return out

    # -- inspection ----------------------------------------------------------

    def column(self, src: FockState) -> dict[FockState, LaurentPoly]:
        """Raw entry column of a source state (denominator and sqrt flag
        not included)."""
        j = self.space.index(src)
        return {
            self.space.states[d]: poly
            for (d, s), poly in self.entries.items()
            if s == j
        }

    def entry(self, dst: FockState, src: FockState) -> LaurentPoly:
        return self.entries.get(
            (self.space.index(dst), self.space.index(src)), LaurentPoly.zero()
        )


def _times(entries: dict, factor: LaurentPoly) -> dict:
    """Every entry times factor; the same dict when factor is 1."""
    if factor.is_one:
        return entries
    return {key: poly * factor for key, poly in entries.items()}


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
    for (d, s), poly in op.entries.items():
        if nus[s] > sub.max_nu:
            continue
        if best is None or (s, d) < best[:2]:
            best = (s, d, poly)
    if best is None:
        return None
    s, d, poly = best
    return op.space.states[s], op.space.states[d], poly


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
    for (d, s), poly in op.entries.items():
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
            out.append((st, QRationalFn(values.get(i, LaurentPoly.zero()), op.den)))
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
    def zero(cls, space: FockSpace, q: float) -> "NumOp":
        return cls(space, q, {})

    @classmethod
    def identity(cls, space: FockSpace, q: float) -> "NumOp":
        return cls(space, q, {(i, i): 1.0 for i in range(space.dimension)})

    def __add__(self, other: "NumOp") -> "NumOp":
        entries = dict(self.entries)
        for k, v in other.entries.items():
            entries[k] = entries.get(k, 0.0) + v
        return NumOp(
            self.space,
            self.q,
            entries,
            nu_raise=max(self.nu_raise, other.nu_raise),
            nu_lower=max(self.nu_lower, other.nu_lower),
            climb=max(self.climb, other.climb),
        )

    def __neg__(self) -> "NumOp":
        return self.scale(-1.0)

    def __sub__(self, other: "NumOp") -> "NumOp":
        return self + (-other)

    def scale(self, factor: float) -> "NumOp":
        return NumOp(
            self.space,
            self.q,
            {k: v * factor for k, v in self.entries.items()},
            nu_raise=self.nu_raise,
            nu_lower=self.nu_lower,
            climb=self.climb,
        )

    def __matmul__(self, other: "NumOp") -> "NumOp":
        by_src: dict[int, list[tuple[int, float]]] = {}
        for (d, s), v in self.entries.items():
            by_src.setdefault(s, []).append((d, v))
        entries: dict[tuple[int, int], float] = {}
        for (mid, src), bv in other.entries.items():
            for dst, av in by_src.get(mid, ()):
                key = (dst, src)
                entries[key] = entries.get(key, 0.0) + av * bv
        return NumOp(
            self.space,
            self.q,
            entries,
            nu_raise=self.nu_raise + other.nu_raise,
            nu_lower=self.nu_lower + other.nu_lower,
            climb=max(other.climb, other.nu_raise + self.climb),
        )

    def power(self, n: int) -> "NumOp":
        out = NumOp.identity(self.space, self.q)
        for _ in range(n):
            out = self @ out
        return out

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
