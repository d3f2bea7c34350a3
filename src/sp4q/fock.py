"""Two-mode Fock space truncated at a total excitation cutoff.

States are labeled by occupation pairs (nu_1, nu_-1) of the two boson
modes.  Derived quantum numbers:

    nu = nu_1 + nu_-1          total excitation / shell number
    j  = nu / 2                su(2)-type spin label
    m  = i0 = (nu_1 - nu_-1)/2 weight (magnetic) label

The space splits into an even sector H+ (nu even, integer m) and an odd
sector H- (nu odd, half-integer m).  Even-sector states also carry
symplecton triple labels (n_1, n_0, n_-1) with

    nu_1 = 2 n_1 + n_0,   nu_-1 = 2 n_-1 + n_0,

which are not unique; the two conventions used here fix n_0 as either
the minimal (n_0 = nu_1 mod 2) or the maximal (n_0 = min(nu_1, nu_-1))
allowed value.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True, order=True)
class FockState:
    """Occupation pair |nu_1, nu_-1>."""

    n1: int
    nm1: int

    def __post_init__(self):
        if self.n1 < 0 or self.nm1 < 0:
            raise ValueError(f"negative occupation in {self!r}")

    @property
    def nu(self) -> int:
        return self.n1 + self.nm1

    @property
    def j(self) -> Fraction:
        return Fraction(self.nu, 2)

    @property
    def m(self) -> Fraction:
        """The weight i0 = (nu_1 - nu_-1)/2."""
        return Fraction(self.n1 - self.nm1, 2)

    @property
    def parity(self) -> int:
        """0 for the even sector H+, 1 for the odd sector H-."""
        return self.nu % 2

    def __str__(self) -> str:
        return f"|{self.n1},{self.nm1}>"


class TripleConvention(enum.Enum):
    """Rule that resolves the non-uniqueness of triple labels."""

    MIN_N0 = "min-n0"
    MAX_N0 = "max-n0"


@dataclass(frozen=True, order=True)
class TripleLabel:
    """Symplecton label |n_1, n_0, n_-1> for an even-sector state."""

    n1: int
    n0: int
    nm1: int

    def __post_init__(self):
        if self.n1 < 0 or self.n0 < 0 or self.nm1 < 0:
            raise ValueError(f"negative entry in {self!r}")

    def __str__(self) -> str:
        return f"|{self.n1},{self.n0},{self.nm1}>"


def pair_from_triple(t: TripleLabel) -> FockState:
    return FockState(2 * t.n1 + t.n0, 2 * t.nm1 + t.n0)


def triple_from_pair(state: FockState, convention: TripleConvention) -> TripleLabel:
    if state.parity != 0:
        raise ValueError(f"{state} is odd; triple labels live in the even sector")
    if convention is TripleConvention.MIN_N0:
        n0 = state.n1 % 2
    elif convention is TripleConvention.MAX_N0:
        n0 = min(state.n1, state.nm1)
    else:  # pragma: no cover
        raise ValueError(convention)
    return TripleLabel((state.n1 - n0) // 2, n0, (state.nm1 - n0) // 2)


class FockSpace:
    """All states with nu <= cutoff, enumerated lexicographically in
    (nu, nu_1)."""

    def __init__(self, cutoff: int):
        if cutoff < 0:
            raise ValueError("cutoff must be >= 0")
        self.cutoff = cutoff
        self.states: tuple[FockState, ...] = tuple(
            FockState(n1, nu - n1) for nu in range(cutoff + 1) for n1 in range(nu + 1)
        )
        # Shell numbers in enumeration order, for per-entry bounds checks.
        self.nus: tuple[int, ...] = tuple(st.nu for st in self.states)
        self._index = {st: i for i, st in enumerate(self.states)}

    @property
    def dimension(self) -> int:
        return len(self.states)

    def index(self, state: FockState) -> int:
        return self._index[state]

    def __contains__(self, state: FockState) -> bool:
        return state in self._index

    def __eq__(self, other) -> bool:
        return isinstance(other, FockSpace) and other.cutoff == self.cutoff

    def __hash__(self) -> int:
        return hash(("FockSpace", self.cutoff))

    def __repr__(self) -> str:
        return f"FockSpace(cutoff={self.cutoff})"

    # -- sector enumeration ---------------------------------------------

    def sector(
        self,
        parity: int | None = None,
        nu: int | None = None,
        m: Fraction | None = None,
    ) -> list[FockState]:
        """States filtered by parity, shell and/or weight, in
        enumeration order."""
        out = []
        for st in self.states:
            if parity is not None and st.parity != parity:
                continue
            if nu is not None and st.nu != nu:
                continue
            if m is not None and st.m != m:
                continue
            out.append(st)
        return out

    def even_states(self) -> list[FockState]:
        return self.sector(parity=0)

    def odd_states(self) -> list[FockState]:
        return self.sector(parity=1)

    def shell(self, nu: int) -> list[FockState]:
        """The nu-shell ordered by descending weight m (figure layout
        order)."""
        return sorted(self.sector(nu=nu), key=lambda st: -st.m)
