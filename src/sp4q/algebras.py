"""Generator sets, scalar contexts, Casimir combinations and the
relation catalog for the three algebra families.

Families
--------
``classical``
    The two-boson realization of sp(4,R): Weyl pair generators
    F_{i,j} = b_i+ b_j+, G_{i,j} = b_i b_j, number operators, the su(2)
    triple I_+, I_-, I_0 and several su(1,1) triples.

``qboson``
    The q-boson deformation built from a_i, a_i+ with
    a_i a_i+ - q a_i+ a_i = q^{-N_i}; contains su_q(2) (J_+, J_-, J_0)
    and three u_q(1,1) blocks (K^0, K^+, K^-).

``tensor``
    The deformation generated by the irreducible tensor operators
    t_k+ = q^{k/4} a_k+ q^{k N_{-k}/2}, t_k = q^{-k/4} a_{-k} q^{-k N_k / 2}
    and their rank-one couplings T_m, ~T_m, L_m, script-N_k.

Every relation of each family is packaged as a named :class:`Relation`
whose builder produces the residual operator (zero iff the identity
holds) in any context.  A context is a generator table, a scalar
semantics and an entry ring.  There are three semantics: exact deformed
(:class:`ExactContext`), exact classical limit q = 1
(:class:`ClassicalContext`) and floating point at fixed q
(:class:`NumericContext`).  The notation's scalar operations are written
once, in :class:`ExactContext`; a semantics binds only its scalars
(q-powers, brackets, rationals), its diagonals and its identity.  The
other rings are images of a context (:class:`ImageContext`): every
operator it returns is mapped through one function.  The point context
packs an exact or classical result at s = 2^24, where a provably zero
image proves the relation; the magnitude context takes the |entries| of
a numeric one, the scale of its rounding error; the shape context keeps
the bounds alone.  Builders take a ``flip`` switch that negates one
term, used by the mutation self-test.  Each builder is parsed from the
relation's anchor, the formula its reports print, by
:mod:`sp4q.notation` on the family's first :func:`relation_catalog`
call; the casimirs are parsed from their defining combinations in the
same notation, and each casimir's residual against its closed-form
diagonal from ``formula = closed form``.

Generator sets are immutable and shared while alive.  A set depends only
on its family and cutoff (the three families act in one Fock space, and
no entry depends on q), so :func:`build` hands out the set already alive
for that pair and constructs one only when none is.  It holds no strong
reference: a set nobody keeps is freed as before.  A set's ``ops``
mapping is read-only; a modified set is made with ``dataclasses.replace``.
Each operator is built by its family's recipe the first time it is read,
so a check builds only the generators its formula names and those they
are composed of.  A numeric context converts every generator when it is
made, so a numeric check reads the whole set; like a set, a context is
shared while alive: :func:`numeric_context` hands out the one some caller
holds for that set and q.
"""

from __future__ import annotations

import functools
import math
import types
import weakref
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Mapping

from .fock import FockSpace, FockState
from .notation import STATE, StateFormula, formula_builder, relation_builder
from .ops import (
    NumOp, PointOp, QOperator, basis_norms, classical_gram, gram, magnitude,
    pack_bracket, to_numeric)
from .qnum import NEAR_ONE, LaurentPoly, ONE, Q, q_int, q_power

FAMILIES = ("classical", "qboson", "tensor")

MIN_CUTOFF = 4


@dataclass(frozen=True)
class GeneratorSet:
    """All named operators of one family on one truncated space.

    ``elements`` are the algebra generators proper (quadratic in the
    mode operators, hence parity preserving); the remaining entries are
    building blocks such as single mode operators.  ``ops`` is
    read-only, since :func:`build` shares one set among all its callers.
    A family's builder gives a mapping that builds each operator the
    first time it is read; any other mapping given, as by
    ``dataclasses.replace``, is stored as a read-only copy.
    """

    family: str
    space: FockSpace
    ops: Mapping[str, QOperator]
    elements: tuple[str, ...]
    adjoint_pairs: tuple[tuple[str, str], ...]

    def __post_init__(self):
        if not isinstance(self.ops, _LazyOps):
            object.__setattr__(self, "ops", types.MappingProxyType(dict(self.ops)))

    def __getitem__(self, name: str) -> QOperator:
        return self.ops[name]

    def gram_fn(self):
        return classical_gram if self.family == "classical" else gram


class _Built(dict):
    """The operators of one set built so far; reading a missing name runs
    its recipe, which reads the operators it composes from this dict."""

    __slots__ = ("space", "recipes")

    def __init__(self, space: FockSpace, recipes: dict[str, Callable]):
        super().__init__()
        self.space, self.recipes = space, recipes

    def __missing__(self, name: str) -> QOperator:
        op = self[name] = self.recipes[name](self.space, self)
        return op


class _LazyOps(Mapping):
    """A family's operators by name, in the family's order, each built by
    its recipe ``(space, ops) -> QOperator`` the first time it is read.
    ``private`` recipes build operators that the named ones are composed
    of but that are not names of the set."""

    def __init__(self, space: FockSpace, recipes: dict[str, Callable],
                 private: dict[str, Callable] | None = None):
        self._names = recipes
        self._built = _Built(space, {**recipes, **(private or {})})

    def __getitem__(self, name: str) -> QOperator:
        if name not in self._names:
            raise KeyError(name)
        return self._built[name]

    def __contains__(self, name) -> bool:
        return name in self._names

    def __iter__(self):
        return iter(self._names)

    def __len__(self) -> int:
        return len(self._names)


def _diag(space, f: StateFormula) -> QOperator:
    """Diagonal operator with the exact rational eigenvalues of the
    formula f: the store holds each nonzero value times k, the least
    common denominator of the values, as ``QOperator`` would fold them."""
    d, nums = f.div, f.numerators(space)
    k = 1
    if d > 1:
        for p in nums:
            if p:
                k = math.lcm(k, d // math.gcd(p, d))
    store = {(i, i): LaurentPoly._of({0: p * k // d}) for i, p in enumerate(nums) if p}
    return QOperator._of(space, store, k, ONE, None, 0, 0, 0)


def _diag_poly(space, fn, den: LaurentPoly = ONE) -> QOperator:
    """Diagonal operator with the Laurent-polynomial entries fn(state)."""
    entries = {(i, i): p for i, st in enumerate(space.states) if not (p := fn(st)).is_zero}
    return QOperator(space, entries, den=den)


def _mode_creator(space, mode, coeff) -> QOperator:
    def rule(st):
        dst = FockState(st.n1 + 1, st.nm1) if mode == 1 else FockState(st.n1, st.nm1 + 1)
        return dst, coeff(st)

    return QOperator.from_rule(space, rule, nu_raise=1, nu_lower=-1)


def _mode_annihilator(space, mode, coeff) -> QOperator:
    def rule(st):
        n = st.n1 if mode == 1 else st.nm1
        if n == 0:
            return None
        dst = FockState(st.n1 - 1, st.nm1) if mode == 1 else FockState(st.n1, st.nm1 - 1)
        return dst, coeff(st)

    return QOperator.from_rule(space, rule, nu_raise=-1, nu_lower=1)


def _exponents(space, f: StateFormula, k: int, error: str) -> list[int]:
    """k times the formula f on every state, as integer exponents of s;
    ``error`` when one is not an integer."""
    es = [divmod(k * p, f.div) for p in f.numerators(space)]
    if any(rem for _, rem in es):
        raise ValueError(error)
    return [e for e, _ in es]


def _spow(space, f: StateFormula) -> QOperator:
    """Diagonal q-power operator q^f (f in multiples of 1/4)."""
    es = _exponents(space, f, 4, "q-power with non-quarter-integer exponent")
    return QOperator._of(space, {(i, i): LaurentPoly._of({e: 1}) for i, e in enumerate(es)},
                         1, ONE, None, 0, 0, 0)


# -- recipes: name -> (space, ops) -> QOperator, in each family's order --------


def _diagonal(label: str) -> Callable:
    return lambda sp, g: _diag(sp, STATE[label])


def _parity(sp, g) -> QOperator:
    return _diag_poly(sp, lambda st: LaurentPoly._of({0: (-1) ** st.parity}))


def _product(a: str, b: str) -> Callable:
    return lambda sp, g: g[a] @ g[b]


_CLASSICAL = {
    "bd1": lambda sp, g: _mode_creator(sp, 1, lambda st: ONE),
    "b1": lambda sp, g: _mode_annihilator(sp, 1, lambda st: LaurentPoly.const(st.n1)),
    "bdm1": lambda sp, g: _mode_creator(sp, -1, lambda st: ONE),
    "bm1": lambda sp, g: _mode_annihilator(sp, -1, lambda st: LaurentPoly.const(st.nm1)),
    "N1": _diagonal("N_1"),
    "Nm1": _diagonal("N_-1"),
    "N": _diagonal("N"),
    "I0": _diagonal("I_0"),
    "A0": _diagonal("K0_0"),
    "P": _parity,
    "F11": _product("bd1", "bd1"),
    "F1m1": _product("bd1", "bdm1"),
    "Fm1m1": _product("bdm1", "bdm1"),
    "G11": _product("b1", "b1"),
    "G1m1": _product("b1", "bm1"),
    "Gm1m1": _product("bm1", "bm1"),
    "Ip": _product("bd1", "bm1"),
    "Im": _product("bdm1", "b1"),
    "F0": lambda sp, g: g["F1m1"],
    "G0": lambda sp, g: g["G1m1"],
    "Fp": lambda sp, g: g["F11"].scale(Q(1, 2)),
    "Gp": lambda sp, g: g["G11"].scale(Q(1, 2)),
    "Ap": _diagonal("K0^+"),
    "Fm": lambda sp, g: g["Fm1m1"].scale(Q(1, 2)),
    "Gm": lambda sp, g: g["Gm1m1"].scale(Q(1, 2)),
    "Am": _diagonal("K0^-"),
    "Fsum": lambda sp, g: (g["F11"] + g["Fm1m1"]).scale(Q(1, 2)),
    "Gsum": lambda sp, g: (g["G11"] + g["Gm1m1"]).scale(Q(1, 2)),
    "C10": lambda sp, g: (g["bd1"] @ g["b1"]) - (g["bm1"] @ g["bdm1"]),
}

_QBOSON = {
    "ad1": lambda sp, g: _mode_creator(sp, 1, lambda st: ONE),
    "a1": lambda sp, g: _mode_annihilator(sp, 1, lambda st: q_int(st.n1)),
    "adm1": lambda sp, g: _mode_creator(sp, -1, lambda st: ONE),
    "am1": lambda sp, g: _mode_annihilator(sp, -1, lambda st: q_int(st.nm1)),
    "N1": _diagonal("N_1"),
    "Nm1": _diagonal("N_-1"),
    "N": _diagonal("N"),
    "J0": _diagonal("J_0"),
    "P": _parity,
    "Fq11": _product("ad1", "ad1"),
    "Fq1m1": _product("ad1", "adm1"),
    "Fqm1m1": _product("adm1", "adm1"),
    "Gq11": _product("a1", "a1"),
    "Gq1m1": _product("a1", "am1"),
    "Gqm1m1": _product("am1", "am1"),
    "Jp": _product("ad1", "am1"),
    "Jm": _product("adm1", "a1"),
    "K0p": lambda sp, g: g["Fq1m1"],
    "K0m": lambda sp, g: g["Gq1m1"],
    "K00": _diagonal("K0_0"),
    "Kpp": lambda sp, g: g["Fq11"].over(q_int(2)),
    "Kpm": lambda sp, g: g["Gq11"].over(q_int(2)),
    "Kp0": _diagonal("K0^+"),
    "Kmp": lambda sp, g: g["Fqm1m1"].over(q_int(2)),
    "Kmm": lambda sp, g: g["Gqm1m1"].over(q_int(2)),
    "Km0": _diagonal("K0^-"),
}


def _tensor_mode(mode: str, f: StateFormula, k: int) -> Callable:
    """q^(k/4) mode q^f, with ``mode`` a q-boson mode operator."""
    return lambda sp, g: (g[mode] @ _spow(sp, f)).scale(q_power(Q(k, 4)))


# t_k+ = q^(k/4) a_k+ q^(k N_-k / 2);  t_k = q^(-k/4) a_-k q^(-k N_k / 2).
# The q-boson modes are private to a tensor set, and its diagonals and
# J_+, J_- are the q-boson ones.
_TENSOR = {
    "td1": _tensor_mode("ad1", STATE["N_-1"].over(2), 1),
    "tdm1": _tensor_mode("adm1", STATE["N_1"].over(-2), -1),
    "t1": _tensor_mode("am1", STATE["N_1"].over(-2), -1),
    "tm1": _tensor_mode("a1", STATE["N_-1"].over(2), 1),
    **{k: _QBOSON[k] for k in ("N1", "Nm1", "N", "J0", "Jp", "Jm", "P")},
    "qm2J0": lambda sp, g: _spow(sp, STATE["N_-1"] - STATE["N_1"]),
    "T1": _product("td1", "td1"),
    "Tm1": _product("tdm1", "tdm1"),
    "T0": lambda sp, g: (g["td1"] @ g["tdm1"]).scale(q_power(Q(-1, 2))).times_sqrt(q_int(2)),
    "Tt1": _product("t1", "t1"),
    "Ttm1": _product("tm1", "tm1"),
    "Tt0": lambda sp, g: (g["t1"] @ g["tm1"]).scale(q_power(Q(-1, 2))).times_sqrt(q_int(2)),
    "L1": _product("td1", "t1"),
    "Lm1": _product("tdm1", "tm1"),
    # L_0^1 = (1/[2]) (q [N_1] q^{N_-1} - q^-1 [N_-1] q^{-N_1})
    "L01": lambda sp, g: _diag_poly(sp, lambda st: q_int(st.n1).shifted(4 + 4 * st.nm1)
                                    - q_int(st.nm1).shifted(-4 - 4 * st.n1), den=q_int(2)),
    # L_0^0 = [N_1] q^{N_-1} + [N_-1] q^{-N_1}
    "L00": lambda sp, g: _diag_poly(
        sp, lambda st: q_int(st.n1).shifted(4 * st.nm1) + q_int(st.nm1).shifted(-4 * st.n1)),
    "calN1": _product("td1", "tm1"),
    "calNm1": _product("tdm1", "t1"),
}
_QBOSON_MODES = {k: _QBOSON[k] for k in ("ad1", "a1", "adm1", "am1")}


def _build_classical(space: FockSpace) -> GeneratorSet:
    elements = (
        "F11", "F1m1", "Fm1m1", "G11", "G1m1", "Gm1m1",
        "Ip", "Im", "I0", "N", "N1", "Nm1", "A0",
        "Fp", "Gp", "Ap", "Fm", "Gm", "Am", "Fsum", "Gsum", "C10",
    )
    pairs = (
        ("bd1", "b1"), ("bdm1", "bm1"),
        ("F11", "G11"), ("F1m1", "G1m1"), ("Fm1m1", "Gm1m1"),
        ("Ip", "Im"), ("Fp", "Gp"), ("Fm", "Gm"), ("Fsum", "Gsum"),
        ("N1", "N1"), ("Nm1", "Nm1"), ("N", "N"), ("I0", "I0"),
        ("A0", "A0"), ("Ap", "Ap"), ("Am", "Am"), ("C10", "C10"), ("P", "P"),
    )
    return GeneratorSet("classical", space, _LazyOps(space, _CLASSICAL), elements, pairs)


def _build_qboson(space: FockSpace) -> GeneratorSet:
    elements = (
        "Fq11", "Fq1m1", "Fqm1m1", "Gq11", "Gq1m1", "Gqm1m1",
        "Jp", "Jm", "J0", "N", "N1", "Nm1",
        "K0p", "K0m", "K00", "Kpp", "Kpm", "Kp0", "Kmp", "Kmm", "Km0",
    )
    pairs = (
        ("ad1", "a1"), ("adm1", "am1"),
        ("Fq11", "Gq11"), ("Fq1m1", "Gq1m1"), ("Fqm1m1", "Gqm1m1"),
        ("Jp", "Jm"), ("K0p", "K0m"), ("Kpp", "Kpm"), ("Kmp", "Kmm"),
        ("N1", "N1"), ("Nm1", "Nm1"), ("N", "N"), ("J0", "J0"),
        ("K00", "K00"), ("Kp0", "Kp0"), ("Km0", "Km0"), ("P", "P"),
    )
    return GeneratorSet("qboson", space, _LazyOps(space, _QBOSON), elements, pairs)


def _build_tensor(space: FockSpace) -> GeneratorSet:
    elements = (
        "T1", "T0", "Tm1", "Tt1", "Tt0", "Ttm1",
        "L1", "Lm1", "L01", "L00", "calN1", "calNm1",
        "N", "N1", "Nm1", "J0", "qm2J0",
    )
    pairs = (
        ("td1", "tm1"), ("tdm1", "t1"),
        ("T1", "Ttm1"), ("T0", "Tt0"), ("Tm1", "Tt1"),
        ("L1", "Lm1"), ("L01", "L01"), ("L00", "L00"),
        ("calN1", "calN1"), ("calNm1", "calNm1"),
        ("N", "N"), ("N1", "N1"), ("Nm1", "Nm1"), ("J0", "J0"),
        ("qm2J0", "qm2J0"), ("P", "P"),
    )
    ops = _LazyOps(space, _TENSOR, private=_QBOSON_MODES)
    return GeneratorSet("tensor", space, ops, elements, pairs)


_BUILDERS = {
    "classical": _build_classical,
    "qboson": _build_qboson,
    "tensor": _build_tensor,
}


# (family, cutoff) -> the generator set alive for it; weak, so a set lives
# exactly as long as some caller keeps it.
_LIVE: "weakref.WeakValueDictionary[tuple[str, int], GeneratorSet]" = (
    weakref.WeakValueDictionary()
)


def build(family: str, space: FockSpace) -> GeneratorSet:
    """The named generator family on a truncated space.

    Returns the set already alive for ``(family, space.cutoff)`` if some
    caller still holds one, and constructs it otherwise.
    """
    if family not in _BUILDERS:
        raise ValueError(f"unknown family {family!r}; choose from {FAMILIES}")
    if space.cutoff < MIN_CUTOFF:
        raise ValueError(f"family {family!r} needs cutoff >= {MIN_CUTOFF}")
    key = (family, space.cutoff)
    gens = _LIVE.get(key)
    if gens is None:
        gens = _LIVE[key] = _BUILDERS[family](space)
    return gens


# deformed name -> the name of the classical operator it degenerates onto
# at q = 1, or a function of the classical set that composes it
_COUNTERPARTS = {
    "qboson": {
        "ad1": "bd1", "a1": "b1", "adm1": "bdm1", "am1": "bm1",
        "N1": "N1", "Nm1": "Nm1", "N": "N", "J0": "I0", "P": "P",
        "Fq11": "F11", "Fq1m1": "F1m1", "Fqm1m1": "Fm1m1",
        "Gq11": "G11", "Gq1m1": "G1m1", "Gqm1m1": "Gm1m1",
        "Jp": "Ip", "Jm": "Im",
        "K0p": "F0", "K0m": "G0", "K00": "A0",
        "Kpp": "Fp", "Kpm": "Gp", "Kp0": "Ap",
        "Kmp": "Fm", "Kmm": "Gm", "Km0": "Am",
    },
    "tensor": {
        "td1": "bd1", "tdm1": "bdm1", "t1": "bm1", "tm1": "b1",
        "N1": "N1", "Nm1": "Nm1", "N": "N", "J0": "I0", "P": "P",
        "Jp": "Ip", "Jm": "Im",
        "qm2J0": lambda c: QOperator.identity(c.space),
        "T1": "F11", "Tm1": "Fm1m1",
        "T0": lambda c: c["F1m1"].times_sqrt(LaurentPoly.const(2)),
        "Tt1": "Gm1m1", "Ttm1": "G11",
        "Tt0": lambda c: c["G1m1"].times_sqrt(LaurentPoly.const(2)),
        "L1": "Ip", "Lm1": "Im", "L01": "I0", "L00": "N",
        "calN1": "N1", "calNm1": "Nm1",
    },
}


class _Counterparts(Mapping):
    """A read-only view of a _COUNTERPARTS table: a name is looked up in
    the classical set when it is read, and a composed counterpart is
    built on its first read and kept."""

    def __init__(self, table: dict, classical: GeneratorSet):
        self._table, self._classical, self._composed = table, classical, {}

    def __getitem__(self, name: str) -> QOperator:
        entry = self._table[name]
        if isinstance(entry, str):
            return self._classical[entry]
        if name not in self._composed:
            self._composed[name] = entry(self._classical)
        return self._composed[name]

    def __iter__(self):
        return iter(self._table)

    def __len__(self) -> int:
        return len(self._table)


def classical_counterparts(gens: GeneratorSet, classical: GeneratorSet) -> Mapping[str, QOperator]:
    """The q -> 1 counterpart of each deformed generator, expressed in the
    classical generator set on the same space: a read-only mapping that
    resolves a name the first time it is read."""
    if classical.family != "classical" or classical.space != gens.space:
        raise ValueError("counterparts need the classical family on the same space")
    if gens.family == "classical":
        return classical.ops
    return _Counterparts(_COUNTERPARTS[gens.family], classical)


# -- scalar contexts -----------------------------------------------------------


def _bracket(space, f: StateFormula, m: int) -> tuple[list[int], LaurentPoly]:
    """The s-exponent e = 4mf of the bracket [f]_m on every state, and its
    den: [f]_m = (s^e - s^(-e)) / (s^(4m) - s^(-4m))."""
    es = _exponents(space, f, 4 * m, "bracket argument with non-integral s-exponent")
    return es, LaurentPoly({4 * m: 1, -4 * m: -1})


class ExactContext:
    """Exact deformed semantics: operators are QOperator, scalars are
    Laurent polynomials in s.  The scalar operations below serve every
    semantics: they take q^x, [n]_m and r from ``power_scalar``,
    ``bracket`` and ``rational``, and apply them with ``scale``,
    ``over`` and ``times_sqrt``, which every operator kind has."""

    kind = "exact"
    power_scalar = staticmethod(q_power)
    bracket = staticmethod(q_int)
    rational = staticmethod(Q)

    def __init__(self, gens: GeneratorSet):
        self.gens = gens
        self.space = gens.space
        self._table = gens.ops

    def __getitem__(self, name: str) -> QOperator:
        return self._table[name]

    def comm(self, a, b, rho=0, flip: bool = False):
        second = (b @ a).scale(self.power_scalar(rho))
        return (a @ b) + second if flip else (a @ b) - second

    def qpow(self, a, x):
        return a.scale(self.power_scalar(x))

    def brk(self, a, n: int, m: int = 1):
        return a.scale(self.bracket(n, m))

    def over_brk(self, a, n: int, m: int = 1):
        return a.over(self.bracket(n, m))

    def frac(self, a, r):
        return a.scale(self.rational(r))

    def sqrt2(self, a):
        return a.times_sqrt(self.bracket(2))

    def diag_brk(self, f: StateFormula, m: int = 1):
        es, den = _bracket(self.space, f, m)
        store = {(i, i): LaurentPoly._of({e: 1, -e: -1}) for i, e in enumerate(es) if e}
        return QOperator._of(self.space, store, 1, den, None, 0, 0, 0)

    def diag_pow(self, f: StateFormula):
        return _spow(self.space, f)

    def diag_frac(self, f: StateFormula):
        return _diag(self.space, f)

    def ident(self):
        return QOperator.identity(self.space)


class ClassicalContext(ExactContext):
    """Classical-limit semantics: q-powers collapse to 1, brackets to
    their arguments.  Generator names resolve to their classical
    counterparts, so any deformed relation can be replayed at q = 1."""

    kind = "classical"

    def __init__(self, gens: GeneratorSet, classical: GeneratorSet):
        self.gens = classical
        self.space = classical.space
        self._table = classical_counterparts(gens, classical)

    def power_scalar(self, x):
        return ONE

    def bracket(self, n: int, m: int = 1):
        return LaurentPoly.const(n)

    def diag_brk(self, f: StateFormula, m: int = 1):
        return _diag(self.space, f)

    def diag_pow(self, f: StateFormula):
        return QOperator.identity(self.space)


class NumericContext(ExactContext):
    """Floating-point semantics at fixed q: operators are NumOp in the
    orthonormal basis, scalars are floats."""

    kind = "numeric"

    def __init__(self, gens: GeneratorSet, q: float):
        super().__init__(gens)
        self.q = float(q)
        self._classical = gens.family == "classical"
        # One set of basis norms serves every generator at this q.
        norms = basis_norms(self.space, self.q, gens.gram_fn())
        self._table = {
            k: to_numeric(op, self.q, norms=norms) for k, op in gens.ops.items()
        }

    def bracket(self, x, m: int = 1) -> float:
        if self._classical:
            return float(x)
        qm = self.q ** float(m)
        if qm == 1.0:
            raise ValueError(
                f"the q-bracket [{x:g}]_{m} is 0/0 at q = 1; numeric checks"
                f" of the {self.gens.family} family need q != 1"
            )
        if abs(self.q - 1.0) < NEAR_ONE:
            # both differences cancel near q = 1; sinh keeps every digit
            mlog = m * math.log(self.q)
            return math.sinh(float(x) * mlog) / math.sinh(mlog)
        return (qm ** float(x) - qm ** float(-x)) / (qm - 1.0 / qm)

    def power_scalar(self, x) -> float:
        return 1.0 if self._classical else self.q ** float(x)

    def rational(self, r) -> float:
        return float(Q(r))

    def _diag_of(self, f: StateFormula, value) -> NumOp:
        """The diagonal of ``value(x)`` for x the formula f on each state;
        x = numerator / div by int true division, the float of the
        rational value, and ``value`` called once per distinct x."""
        d, seen, entries = f.div, {}, {}
        for i, p in enumerate(f.numerators(self.space)):
            v = seen.get(p)
            if v is None:
                v = seen[p] = value(p / d)
            if v:
                entries[(i, i)] = v
        return NumOp(self.space, self.q, entries)

    def diag_brk(self, f: StateFormula, m: int = 1):
        return self._diag_of(f, lambda x: self.bracket(x, m))

    def diag_pow(self, f: StateFormula):
        return self._diag_of(f, self.power_scalar)

    def diag_frac(self, f: StateFormula):
        return self._diag_of(f, float)

    def ident(self):
        return NumOp.identity(self.space, self.q)


class ImageContext:
    """Another context's operators mapped through ``image``: each
    generator on its first read, kept and dropped with this context, and
    every diagonal and identity as it is made.  The scalar operations are
    the wrapped context's, run on the images, which have the operator
    methods they call (``scale``, ``over``, ``times_sqrt``, ``@``, ``+``
    and ``-``)."""

    def __init__(self, ctx, image: Callable, kind: str):
        self._ctx, self._image, self.kind = ctx, image, kind
        self.gens, self.space = ctx.gens, ctx.space
        self._images = {}

    def __getitem__(self, name: str):
        op = self._images.get(name)
        if op is None:
            op = self._images[name] = self._image(self._ctx[name])
        return op

    def __getattr__(self, name: str):
        return getattr(self._ctx, name)

    def diag_brk(self, f: StateFormula, m: int = 1):
        return self._image(self._ctx.diag_brk(f, m))

    def diag_pow(self, f: StateFormula):
        return self._image(self._ctx.diag_pow(f))

    def diag_frac(self, f: StateFormula):
        return self._image(self._ctx.diag_frac(f))

    def ident(self):
        return self._image(self._ctx.ident())


class PointContext(ImageContext):
    """An exact or classical context at s = 2^B: operators are the
    PointOp images of the wrapped context's."""

    def __init__(self, ctx: ExactContext):
        super().__init__(ctx, PointOp.of, "point")

    def diag_brk(self, f: StateFormula, m: int = 1):
        """An exact context's ``[f]_m`` packed from its s-exponents
        (:func:`sp4q.ops.pack_bracket`), each distinct one once."""
        if self._ctx.kind != "exact":
            return super().diag_brk(f, m)
        es, den = _bracket(self.space, f, m)
        packed = {e: pack_bracket(e) for e in set(es) if e}
        store = {(i, i): packed[e] for i, e in enumerate(es) if e}
        return PointOp._of(self.space, store, 1, den, None, 0, 0, 0)


def MagnitudeContext(nctx: NumericContext) -> ImageContext:
    """The magnitudes of a numeric context's terms.  Operators are the
    |entries| of the numeric ones (NumMagnitude), so ``-`` adds, unary
    minus is the identity and every scalar counts by its absolute value;
    ``comm`` gives ab + |q^rho| ba.  A relation built here gives |terms|:
    entry by entry, the sum of the magnitudes that its numeric residual
    adds up."""
    return ImageContext(nctx, magnitude, "magnitude")


def _shape(op: QOperator) -> QOperator:
    """An empty store with op's bounds."""
    return QOperator._of(op.space, {}, 1, ONE, None, op.nu_raise, op.nu_lower, op.climb)


def ShapeContext(gens: GeneratorSet) -> ImageContext:
    """Exact semantics on the bounds alone: every operator has an empty
    store, so a relation built here composes no entry, and its residual
    carries the bounds QOperator's own rules give the exact one."""
    return ImageContext(ExactContext(gens), _shape, "shape")


def exact_context(gens: GeneratorSet) -> ExactContext:
    return ExactContext(gens)


def classical_limit_context(gens: GeneratorSet) -> ClassicalContext:
    return ClassicalContext(gens, build("classical", gens.space))


# (id of the generator set, q) -> the numeric context alive for it; weak,
# like _LIVE.  A context holds its set, so the id names that set while the
# entry lives.
_LIVE_NUMERIC: "weakref.WeakValueDictionary[tuple[int, float], NumericContext]" = (
    weakref.WeakValueDictionary()
)


def numeric_context(gens: GeneratorSet, q: float) -> NumericContext:
    """The numeric context of ``gens`` at q: the one already alive for
    this set and q if some caller still holds it, else a new one."""
    key = (id(gens), float(q))
    ctx = _LIVE_NUMERIC.get(key)
    if ctx is None:
        ctx = _LIVE_NUMERIC[key] = NumericContext(gens, q)
    return ctx


# -- Casimir operators -----------------------------------------------------------

CASIMIR_NAMES = (
    "I2", "C2SU0", "C2SUp", "C2SUm",
    "J2", "K02", "C2SUqp", "C2SUqm",
    "L2", "S2",
)

_CASIMIR_FAMILY = {
    "I2": "classical", "C2SU0": "classical", "C2SUp": "classical",
    "C2SUm": "classical",
    "J2": "qboson", "K02": "qboson", "C2SUqp": "qboson", "C2SUqm": "qboson",
    "L2": "tensor", "S2": "tensor",
}

# accepted spellings; a collective alias expands to several canonical names
_CASIMIR_ALIASES = {
    "K0_2": ("K02",),
    "C2_SUq0": ("K02",),
    "C2_SU0_classical": ("C2SU0",),
    "C2_SUp_classical": ("C2SUp",),
    "C2_SUm_classical": ("C2SUm",),
    "C2_SUpm_classical": ("C2SUp", "C2SUm"),
    "C2_SUqp": ("C2SUqp",),
    "C2_SUqm": ("C2SUqm",),
    "C2_SUqpm": ("C2SUqp", "C2SUqm"),
}


def resolve_casimirs(name: str) -> tuple[str, ...]:
    """Map a casimir name or alias to the canonical names it denotes."""
    if name in CASIMIR_NAMES:
        return (name,)
    if name in _CASIMIR_ALIASES:
        return _CASIMIR_ALIASES[name]
    raise ValueError(
        f"unknown casimir {name!r}; choose from {CASIMIR_NAMES} "
        f"or aliases {tuple(_CASIMIR_ALIASES)}"
    )


def casimir_family(name: str) -> str:
    return _CASIMIR_FAMILY[name]


_L2 = "q L_-1 L_+1 + q^(-1) L_+1 L_-1 + [2] L_0 L_0"

# Each casimir's defining combination, in the notation of the catalog; the
# four S2 weights fill the placeholders.
_CASIMIR_FORMULAS = {
    "I2": "(I_+ I_- + I_- I_+)/2 + I_0 I_0",
    "C2SU0": "A_0^2 - (F_0 G_0 + G_0 F_0)/2",
    "C2SUp": "A_+^2 - (F_+ G_+ + G_+ F_+)/2",
    "C2SUm": "A_-^2 - (F_- G_- + G_- F_-)/2",
    "J2": "(J_+ J_- + J_- J_+)/2 + ([J_0][J_0+1] + [J_0][J_0-1])/2",
    "K02": "([K0_0][K0_0+1] + [K0_0][K0_0-1])/2 - (K0_+ K0_- + K0_- K0_+)/2",
    "C2SUqp": "([K0^+]_2 [K0^+ + 1]_2 + [K0^+]_2 [K0^+ - 1]_2)/2"
              " - (K_+^+ K_-^+ + K_-^+ K_+^+)/2",
    "C2SUqm": "([K0^-]_2 [K0^- + 1]_2 + [K0^-]_2 [K0^- - 1]_2)/2"
              " - (K_+^- K_-^- + K_-^- K_+^-)/2",
    "L2": _L2,
    "S2": "({0}) (q T_-1 ~T_1 + q^(-1) T_1 ~T_-1 + T_0 ~T_0)"
          " + ({1}) (q ~T_-1 T_1 + q^(-1) ~T_1 T_-1 + ~T_0 T_0)"
          " + ({2}) [2] (" + _L2 + ") + ({3}) [N]^2",
}

# Each casimir's closed-form eigenvalue, a diagonal in the same notation;
# verify.casimir_closed_form spells the same values as functions of the
# state.  The four S2 weights fill the placeholders.
_CASIMIR_CLOSED = {
    "I2": "(N/2)(N/2 + 1)",
    "C2SU0": "(I_0 + 1/2)(I_0 - 1/2)",
    "C2SUp": "-3/16",
    "C2SUm": "-3/16",
    "J2": "[N/2][N/2+1]",
    "K02": "[J_0]^2 - [1/2]^2",
    "C2SUqp": "([1/2]^2 - 1)/[2]^2",
    "C2SUqm": "([1/2]^2 - 1)/[2]^2",
    "L2": "[N][N+2]/[2]",
    "S2": "({0}) [N][N-1] + ({1}) [N+2][N+3] + ({2}) [N][N+2] + ({3}) [N][N]",
}


def _casimir_parse(name: str, weights, closed: bool) -> Callable:
    """The parsed formula of a casimir, or with ``closed`` its residual
    against its closed form (``formula = closed form``); S2's weights, four
    rationals, fill its placeholders."""
    text = _CASIMIR_FORMULAS[name]
    if closed:
        text = f"{text} = {_CASIMIR_CLOSED[name]}"
    if name == "S2":
        s1, s2, s3, s4 = (Q(w) for w in weights)
        text = text.format(s1, s2, s3, s4)
    parse = relation_builder if closed else formula_builder
    return parse(f"casimir {name}", _CASIMIR_FAMILY[name], text)


@functools.cache
def _casimir_builder(name: str, closed: bool) -> Callable:
    """The parse of an unweighted casimir, made on first use."""
    return _casimir_parse(name, (1, 1, 1, 1), closed)


def _casimir_fn(name: str, family: str, weights, closed: bool) -> Callable:
    """The parse of a casimir, for a set of ``family``; weights only for S2."""
    if name not in CASIMIR_NAMES:
        raise ValueError(f"unknown casimir {name!r}; choose from {CASIMIR_NAMES}")
    want = _CASIMIR_FAMILY[name]
    if family != want:
        raise ValueError(f"casimir {name} belongs to family {want!r}, got {family!r}")
    if weights is None:
        return _casimir_builder(name, closed)
    if name != "S2":
        raise ValueError(f"weights apply only to the casimir S2, not to {name}")
    return _casimir_parse(name, weights, closed)


def casimir(name: str, gens: GeneratorSet, weights=None) -> QOperator:
    """Casimir operator built from its defining generator combination
    (closed-form eigenvalues are verified separately, never assumed).
    Only S2 takes ``weights``, four rationals, one per term."""
    return _casimir_fn(name, gens.family, weights, False)(exact_context(gens))


def casimir_residual(name: str, ctx, weights=None):
    """The casimir minus its closed-form diagonal, built in the scalar
    context ``ctx`` of its family's set: it has no entry sourced on a
    window iff the casimir is diagonal there with exactly the closed-form
    eigenvalues."""
    return _casimir_fn(name, ctx.gens.family, weights, True)(ctx)


# -- relation catalog ----------------------------------------------------------


@dataclass(frozen=True)
class Relation:
    """A named operator identity.

    ``builder(ctx, flip)``, parsed from ``anchor``, returns the residual
    operator of the identity in the given scalar context; the identity
    holds iff the residual vanishes on a safe subspace.  ``flip`` negates
    exactly one term (used by the mutation self-test).  Entries with
    ``expect_holds=False`` are recorded variant readings whose
    coefficients do not verify; each points at its canonical form via
    ``variant_of``.
    """

    name: str
    family: str
    anchor: str
    builder: Callable
    expect_holds: bool = True
    variant_of: str | None = None
    note: str | None = None


# A catalog row is (name, anchor) or (name, anchor, note), in report order.
_COEFFICIENT = "recorded coefficient reading; the canonical entry verifies"
_Q_POWER = "recorded q-power reading; the canonical entry verifies"


def _catalog_classical() -> list[tuple]:
    rows = [
        ("trivial-self", "[I_0, I_0] = 0"),
        ("Bose-cc", "[b_1, b_1+] = 1"),
        ("Bose-cc -1", "[b_-1, b_-1+] = 1"),
        ("Bose-cc mixed 1,-1", "[b_1, b_-1+] = 0"),
        ("Bose-cc mixed -1,1", "[b_-1, b_1+] = 0"),
        ("Bose-cc creators", "[b_1+, b_-1+] = 0"),
        ("Bose-cc annihilators", "[b_1, b_-1] = 0"),
        ("number-op grading create 1", "[N_1, b_1+] = b_1+"),
        ("number-op grading annihilate 1", "[N_1, b_1] = -b_1"),
        ("number-op grading create -1", "[N_-1, b_-1+] = b_-1+"),
        ("number-op grading annihilate -1", "[N_-1, b_-1] = -b_-1"),
        ("number-op cross create", "[N_1, b_-1+] = 0"),
        ("number-op cross annihilate", "[N_1, b_-1] = 0"),
        ("su2-weight raise", "[I_0, I_+] = I_+"),
        ("su2-weight lower", "[I_0, I_-] = -I_-"),
        ("su2-commutator", "[I_+, I_-] = 2 I_0"),
        ("u2-center vs raise", "[N, I_+] = 0"),
        ("u2-center vs lower", "[N, I_-] = 0"),
        ("u2-center vs weight", "[N, I_0] = 0"),
        ("su2-casimir closed", "(I_+ I_- + I_- I_+)/2 + I_0 I_0 = (N/2)(N/2 + 1)"),
        ("su2-raising action squared", "I_- I_+ = (i - i_0)(i + i_0 + 1) on |i, i_0>",
         "corrected display: target ket label is i_0 + 1"),
        ("su2-lowering action squared", "I_+ I_- = (i + i_0)(i - i_0 + 1) on |i, i_0>",
         "corrected display: target ket label is i_0 - 1"),
        ("u0-first-invariant", "b_1+ b_1 - b_-1 b_-1+ = 2 I_0 - 1"),
        ("su0-weight raise", "[A_0, F_0] = F_0"),
        ("su0-weight lower", "[A_0, G_0] = -G_0"),
        ("su0-commutator", "[F_0, G_0] = -2 A_0"),
        ("su0-casimir closed", "A_0^2 - (F_0 G_0 + G_0 F_0)/2 = (I_0 + 1/2)(I_0 - 1/2)"),
        ("summed-su11 weight raise", "[A_0, F] = F, F = (F_11 + F_-1-1)/2"),
        ("summed-su11 weight lower", "[A_0, G] = -G"),
        ("summed-su11 commutator", "[F, G] = -2 A_0"),
    ]
    for s in ("+", "-"):
        rows += [
            (f"su{s} weight raise", f"[A_{s}, F_{s}] = F_{s}"),
            (f"su{s} weight lower", f"[A_{s}, G_{s}] = -G_{s}"),
            (f"su{s} commutator", f"[F_{s}, G_{s}] = -2 A_{s}"),
            (f"su{s} casimir constant", f"A_{s}^2 - (F_{s} G_{s} + G_{s} F_{s})/2 = -3/16"),
        ]
    for x in ("F+", "G+", "A+"):
        for y in ("F-", "G-", "A-"):
            rows.append((f"su+- cross {x} {y}", f"[{x}, {y}] = 0"))
    for nm, sign in (("F11", -2), ("F1m1", -2), ("Fm1m1", -2),
                     ("G11", 2), ("G1m1", 2), ("Gm1m1", 2)):
        label = nm.replace("m1", "-1").replace("F", "F_").replace("G", "G_")
        rows.append((f"N-grading {nm}", f"[{label}, N] = {sign} {label}"))
    return rows


def _catalog_qboson() -> list[tuple]:
    rows = [
        ("trivial-self", "[J_0, J_0] = 0"),
        ("q-boson ac1 mode 1", "a_1 a_1+ - q a_1+ a_1 = q^(-N_1)"),
        ("q-boson ac1 mode -1", "a_-1 a_-1+ - q a_-1+ a_-1 = q^(-N_-1)"),
        ("q-boson ac2 mode 1", "a_1 a_1+ - q^(-1) a_1+ a_1 = q^(N_1)"),
        ("q-boson ac2 mode -1", "a_-1 a_-1+ - q^(-1) a_-1+ a_-1 = q^(N_-1)"),
        ("q-boson cross annihilate-create", "[a_1, a_-1+] = 0"),
        ("q-boson cross create-annihilate", "[a_-1, a_1+] = 0"),
        ("q-boson cross creators", "[a_1+, a_-1+] = 0"),
        ("q-boson cross annihilators", "[a_1, a_-1] = 0"),
        ("q-number grading create 1", "[N_1, a_1+] = a_1+"),
        ("q-number grading annihilate 1", "[N_1, a_1] = -a_1"),
        ("q-number grading create -1", "[N_-1, a_-1+] = a_-1+"),
        ("q-number grading annihilate -1", "[N_-1, a_-1] = -a_-1"),
        ("suq2-weight raise", "[J_0, J_+] = J_+"),
        ("suq2-weight lower", "[J_0, J_-] = -J_-"),
        ("J-commutator", "[J_+, J_-] = [2 J_0]"),
        ("uq2-center vs raise", "[J_+, N] = 0"),
        ("uq2-center vs lower", "[J_-, N] = 0"),
        ("uq2-center vs weight", "[J_0, N] = 0"),
    ]
    for nm, sign in (("Fq11", -2), ("Fq1m1", -2), ("Fqm1m1", -2),
                     ("Gq11", 2), ("Gq1m1", 2), ("Gqm1m1", 2)):
        label = nm.replace("m1", "-1").replace("Fq", "F^q_").replace("Gq", "G^q_")
        rows.append((f"N-grading {nm}", f"[{label}, N] = {sign} {label}"))
    rows += [
        ("suq2-casimir symmetric closed",
         "(J_+ J_- + J_- J_+)/2 + ([J_0][J_0+1] + [J_0][J_0-1])/2 = [N/2][N/2+1]"),
        ("suq2-casimir chain raise-lower", "J_+ J_- + [J_0][J_0-1] = [N/2][N/2+1]"),
        ("suq2-casimir chain lower-raise", "J_- J_+ + [J_0][J_0+1] = [N/2][N/2+1]"),
        ("suq2-raising action squared", "J_- J_+ = [j - m][j + m + 1] on |j, m>",
         "corrected display: target ket label is m + 1"),
        ("suq2-lowering action squared", "J_+ J_- = [j + m][j - m + 1] on |j, m>",
         "corrected display: target ket label is m - 1"),
        ("uq0-weight raise", "[K0_0, K0_+] = K0_+"),
        ("uq0-weight lower", "[K0_0, K0_-] = -K0_-"),
        ("uq0-commutator", "[K0_+, K0_-] = -[2 K0_0]"),
        ("uq0-weight vs J0", "[K0_0, J_0] = 0"),
        ("uq0-raise vs J0", "[K0_+, J_0] = 0"),
        ("uq0-lower vs J0", "[K0_-, J_0] = 0"),
        ("suq0-casimir symmetric closed",
         "([K0_0][K0_0+1] + [K0_0][K0_0-1])/2 - (K0_+ K0_- + K0_- K0_+)/2"
         " = [J_0]^2 - [1/2]^2"),
        ("suq0-casimir chain lower-raise", "[K0_0][K0_0+1] - K0_- K0_+ = [J_0]^2 - [1/2]^2"),
        ("suq0-casimir chain raise-lower", "[K0_0][K0_0-1] - K0_+ K0_- = [J_0]^2 - [1/2]^2"),
        ("suq0-product helper", "K0_+ K0_- = [N/2]^2 - [J_0]^2"),
        ("suq0-bracket helper", "[K0_0][K0_0-1] = [N/2]^2 - [1/2]^2"),
    ]
    for s, other in (("+", "N_-1"), ("-", "N_1")):
        k0, kp, km, n = f"K0^{s}", f"K_+^{s}", f"K_-^{s}", f"N_{s}1"
        rows += [
            (f"uq{s} weight raise", f"[{k0}, {kp}] = {kp}"),
            (f"uq{s} weight lower", f"[{k0}, {km}] = -{km}"),
            (f"uq{s} commutator", f"[{kp}, {km}] = -[2 {k0}]_2"),
            (f"uq{s} center vs K0", f"[{k0}, {other}] = 0"),
            (f"uq{s} center vs raise", f"[{kp}, {other}] = 0"),
            (f"uq{s} center vs lower", f"[{km}, {other}] = 0"),
            (f"suq{s} casimir chain lower-raise",
             f"[{k0}]_2 [{k0} + 1]_2 - {km} {kp} = ([1/2]^2 - 1)/[2]^2"),
            (f"suq{s} casimir chain raise-lower",
             f"[{k0}]_2 [{k0} - 1]_2 - {kp} {km} = ([1/2]^2 - 1)/[2]^2"),
            (f"suq{s} product helper raise", f"{km} {kp} = [{n} + 1][{n} + 2]/[2]^2"),
            (f"suq{s} product helper lower", f"{kp} {km} = [{n}][{n} - 1]/[2]^2"),
            (f"suq{s} product half-shift form",
             f"{kp} {km} = {{[(2 {n} - 1)/2]^2 - [1/2]^2}}/[2]^2"),
            (f"suq{s} bracket helper",
             f"[{k0}]_2 [{k0} - 1]_2 = {{[(2 {n} - 1)/2]^2 - 1}}/[2]^2"),
        ]
    rows.append(("suq-pm casimir factored constant",
                 "([1/2]^2 - 1)/[2]^2 = ([1/4]_2 - [1/2]_2)([1/4]_2 + [1/2]_2)"))
    return rows


def _catalog_tensor() -> list[tuple]:
    rows = [
        ("trivial-self", "[T_0, T_0] = 0"),
        # tensor-boson exchange rules
        ("t-t-dagger", "[t_1, t_-1+]_{q^(-1)} = q^(-1/2) q^(-2J_0)"),
        ("t-t-dagger mirror", "[t_-1, t_1+]_{q} = q^(1/2) q^(-2J_0)"),
        ("t-t-dagger same mode 1", "[t_1, t_1+] = 0"),
        ("t-t-dagger same mode -1", "[t_-1, t_-1+] = 0"),
        ("t-dagger-pair", "[t_1+, t_-1+]_{q} = 0"),
        ("t-dagger-pair mirror", "[t_-1+, t_1+]_{q^(-1)} = 0"),
        ("t-pair", "[t_1, t_-1]_{q} = 0"),
        ("t-pair mirror", "[t_-1, t_1]_{q^(-1)} = 0"),
        # number-operator content of the quadratic pairings
        ("script-N1 closed form", "t_1+ t_-1 = q^(1/2) [N_1] q^(N_-1)"),
        ("script-N-1 closed form", "t_-1+ t_1 = q^(-1/2) [N_-1] q^(-N_1)"),
        ("t-exchange raise", "t_-1 t_1+ = q^(1/2) [N_1 + 1] q^(N_-1)"),
        ("t-exchange lower", "t_1 t_-1+ = q^(-1/2) [N_-1 + 1] q^(-N_1)"),
        # L_m in terms of the su_q(2) generators
        ("L-raise via J", "L_1 = q^(-1/2) J_+ q^(-J_0)"),
        ("L-lower via J", "L_-1 = q^(1/2) J_- q^(-J_0)"),
        ("L0 closed form q-power", "L_0 = (q [N_1] q^(N_-1) - q^(-1) [N_-1] q^(-N_1))/[2]"),
        ("L0 closed form bracket", "L_0 = (q [N_1][N_-1 + 1] - q^(-1) [N_-1][N_1 + 1])/[2]"),
        ("L0-scalar equals [N]", "L_0^0 = [N_1] q^(N_-1) + [N_-1] q^(-N_1) = [N]"),
    ]
    # mode-number gradings of the elementary tensor operators
    for k in (1, -1):
        n = f"N_{k}"
        rows += [
            (f"t-grading {n} create", f"[{n}, t_{k}+] = t_{k}+"),
            (f"t-grading {n} annihilate", f"[{n}, t_{-k}] = -t_{-k}"),
            (f"t-grading {n} zero create", f"[{n}, t_{-k}+] = 0"),
            (f"t-grading {n} zero annihilate", f"[{n}, t_{k}] = 0"),
            (f"t-weight J0 create {k}", f"[J_0, t_{k}+] = ({k}/2) t_{k}+"),
            (f"t-weight J0 annihilate {k}", f"[J_0, t_{k}] = ({k}/2) t_{k}"),
        ]
    rows += [
        # so_q(3)-type triple of the L_m
        ("sut2-commutator", "[L_+1, L_-1] = [2] L_0 q^(-2J_0)"),
        ("sut2-weight raise", "[L_0, L_+1] = q^(-1) L_+1 q^(-2J_0)"),
        ("sut2-weight lower", "[L_0, L_-1] = -q L_-1 q^(-2J_0)"),
        ("ut2-center vs raise", "[L_0^0, L_+1] = 0"),
        ("ut2-center vs weight", "[L_0^0, L_0] = 0"),
        ("ut2-center vs lower", "[L_0^0, L_-1] = 0"),
        ("N vs L raise", "[L_+1, N] = 0"),
        ("N vs L weight", "[L_0, N] = 0"),
        ("N vs L lower", "[L_-1, N] = 0"),
    ]
    for t, sign in (("T", -2), ("~T", 2)):
        for m in ("+1", "0", "-1"):
            rows.append((f"N-grading {t}{m}", f"[{t}_{m}, N] = {sign} {t}_{m}"))
    rows += [
        ("sut2-casimir closed", f"{_L2} = [N][N+2]/[2]"),
        ("sut2-casimir closed (variant)",
         "q L_-1 L_+1 + q^(-1) L_+1 L_-1 - L_0 L_0 = [N][N+2]/[2]",
         "recorded -L_0 L_0 reading; the bracket-weighted form verifies"),
        # adjoint so_q(3)-vector behaviour of T and ~T under L_+1, L_-1
        ("so3-vector T raise onto 0", "[L_+1, T_-1] = sqrt([2]) T_0 q^(-2J_0)"),
        ("so3-vector T raise onto +1", "[L_+1, T_0] = q^(-1) sqrt([2]) T_1 q^(-2J_0)"),
        ("so3-vector T lower onto 0", "[L_-1, T_1] = sqrt([2]) T_0 q^(-2J_0)"),
        ("so3-vector T lower onto -1", "[L_-1, T_0] = q sqrt([2]) T_-1 q^(-2J_0)"),
        ("so3-vector T-tilde raise onto 0", "[L_+1, ~T_-1] = -sqrt([2]) ~T_0 q^(-2J_0)"),
        ("so3-vector T-tilde raise onto +1",
         "[L_+1, ~T_0] = -q^(-1) sqrt([2]) ~T_1 q^(-2J_0)"),
        ("so3-vector T-tilde lower onto 0", "[L_-1, ~T_1] = -sqrt([2]) ~T_0 q^(-2J_0)"),
        ("so3-vector T-tilde lower onto -1",
         "[L_-1, ~T_0] = -q sqrt([2]) ~T_-1 q^(-2J_0)"),
        ("so3-vector T raise top", "[L_+1, T_1] = 0"),
        ("so3-vector T lower bottom", "[L_-1, T_-1] = 0"),
        ("so3-vector T-tilde raise top", "[L_+1, ~T_1] = 0"),
        ("so3-vector T-tilde lower bottom", "[L_-1, ~T_-1] = 0"),
        ("so3-vector T raise onto 0 (variant)",
         "[L_+1, T_-1] = q^(-1) sqrt([2]) T_0 q^(-2J_0)"),
        ("so3-vector T raise onto +1 (variant)",
         "[L_+1, T_0] = q^(-2) sqrt([2]) T_1 q^(-2J_0)"),
        ("so3-vector T lower onto 0 (variant)", "[L_-1, T_1] = -q sqrt([2]) T_0 q^(-2J_0)"),
        ("so3-vector T lower onto -1 (variant)", "[L_-1, T_0] = -q^2 sqrt([2]) T_-1 q^(-2J_0)"),
        ("so3-vector T-tilde raise onto 0 (variant)",
         "[L_+1, ~T_-1] = sqrt([2]) ~T_0 q^(-2J_0)"),
        ("so3-vector T-tilde raise onto +1 (variant)",
         "[L_+1, ~T_0] = q^(-1) sqrt([2]) ~T_1 q^(-2J_0)"),
    ]
    # pairing of T, ~T with the script number operators
    for name, pair, rhs, pw, pw_var in (
        ("pair-scriptN T-tilde k=1", "[~T_-1, script-N_1]_{q^2}", "[2] ~T_-1", "5/2", "3/2"),
        ("pair-scriptN T-tilde k=-1", "[~T_1, script-N_-1]_{q^(-2)}", "[2] ~T_1",
         "-5/2", "-3/2"),
        ("scriptN-pair T k=1", "[script-N_1, T_1]_{q^2}", "[2] T_1", "1/2", "-1/2"),
        ("scriptN-pair T k=-1", "[script-N_-1, T_-1]_{q^(-2)}", "[2] T_-1", "-1/2", "1/2"),
        ("pair-scriptN T-tilde-0 k=1", "[~T_0, script-N_1]_{q^2}", "~T_0", "3/2", "1/2"),
        ("pair-scriptN T-tilde-0 k=-1", "[~T_0, script-N_-1]_{q^(-2)}", "~T_0",
         "-3/2", "-1/2"),
        ("scriptN-pair T0 k=1", "[script-N_1, T_0]_{q^2}", "T_0", "3/2", "1/2"),
        ("scriptN-pair T0 k=-1", "[script-N_-1, T_0]_{q^(-2)}", "T_0", "-3/2", "-1/2"),
    ):
        rows += [
            (name, f"{pair} = q^({pw}) {rhs} q^(-2J_0)"),
            (f"{name} (variant)", f"{pair} = q^({pw_var}) {rhs} q^(-2J_0)", _Q_POWER),
        ]
    rows += [
        ("pair-scriptN T-tilde k=1 zero", "[~T_1, script-N_1]_{q^2} = 0"),
        ("pair-scriptN T-tilde k=-1 zero", "[~T_-1, script-N_-1]_{q^(-2)} = 0"),
        ("scriptN-pair T k=1 zero", "[script-N_1, T_-1]_{q^2} = 0"),
        ("scriptN-pair T k=-1 zero", "[script-N_-1, T_1]_{q^(-2)} = 0"),
    ]
    # q-commutativity within each rank-one multiplet
    for t in ("T", "~T"):
        for m1, m2 in ((1, 0), (1, -1), (0, 1), (0, -1), (-1, 1), (-1, 0)):
            lbl = {1: "+1", 0: "0", -1: "-1"}
            rows.append((f"q-nilpotent {t} {lbl[m1]},{lbl[m2]}",
                         f"[{t}_{m1}, {t}_{m2}]_{{q^({2 * (m1 - m2)})}} = 0"))
    rows += [
        # cross pairings T with ~T at m_1 + m_2 = +-1 (transition part)
        ("T-tilde-T cross (+1,0)",
         "[T_1, ~T_0]_{q^(-2)} = -q^(-2) sqrt([2]) [2] L_1 q^(-2J_0)"),
        ("T-tilde-T cross (+1,0) (variant)",
         "[T_1, ~T_0]_{q^(-2)} = -q^(-1) sqrt([2]) [2] L_1 q^(-2J_0)"),
        ("T-tilde-T cross (0,+1)", "[T_0, ~T_1]_{q^2} = -sqrt([2]) [2] L_1 q^(-2J_0)"),
        ("T-tilde-T cross (-1,0)",
         "[T_-1, ~T_0]_{q^2} = -q^2 sqrt([2]) [2] L_-1 q^(-2J_0)"),
        ("T-tilde-T cross (-1,0) (variant)",
         "[T_-1, ~T_0]_{q^2} = -q^1 sqrt([2]) [2] L_-1 q^(-2J_0)"),
        ("T-tilde-T cross (0,-1)", "[T_0, ~T_-1]_{q^(-2)} = -sqrt([2]) [2] L_-1 q^(-2J_0)"),
        ("T-tilde-T cross (0,-1) (variant)",
         "[T_0, ~T_-1]_{q^(-2)} = +sqrt([2]) [2] L_-1 q^(-2J_0)"),
        ("T-tilde-T cross (+1,+1)", "[T_1, ~T_1] = 0"),
        ("T-tilde-T cross (-1,-1)", "[T_-1, ~T_-1] = 0"),
        # cross pairings at m_1 + m_2 = 0 (diagonal part)
        ("T-tilde-T m1+m2=0, top",
         "[T_1, ~T_-1]_{q^(-4)} = -[2] {q^(-3) q^(-2J_0)"
         " + q^(-3/2) [2] script-N_1} q^(-2J_0)"),
        ("T-tilde-T m1+m2=0, top (variant)",
         "[T_1, ~T_-1]_{q^(-4)} = -[2] {q^(-2) q^(-2J_0)"
         " + q^(1/2) [2] script-N_1} q^(-2J_0)"),
        ("T-tilde-T m1+m2=0, middle", "[T_0, ~T_0] = -[2][N + 1] q^(-2J_0)"),
        ("T-tilde-T m1+m2=0, middle (variant)", "[T_0, ~T_0] = [2][N + 1] q^(-2J_0)",
         "recorded sign reading; the canonical entry verifies"),
        ("T-tilde-T m1+m2=0, bottom",
         "[T_-1, ~T_1]_{q^4} = -[2] {q^3 q^(-2J_0)"
         " + q^(3/2) [2] script-N_-1} q^(-2J_0)"),
        ("T-tilde-T m1+m2=0, bottom (variant)",
         "[T_-1, ~T_1]_{q^4} = -[2] {q^2 q^(-2J_0)"
         " + q^(-1/2) [2] script-N_-1} q^(-2J_0)"),
        # the square of T_0 as a T_+1 T_-1 transition
        ("T0-squared transition", "(T_0)^2 = q^(-2) [2] T_1 T_-1"),
        ("T0-squared transition reversed", "(T_0)^2 = q^2 [2] T_-1 T_1"),
        ("T0-squared transition (variant)", "(T_0)^2 = q^(-1) [2] T_1 T_-1", _Q_POWER),
        # scalar squares of the rank-one multiplets
        ("scalar-square T.T-tilde", "q T_-1 ~T_1 + q^(-1) T_1 ~T_-1 + T_0 ~T_0 = [N][N - 1]"),
        ("scalar-square T-tilde.T",
         "q ~T_-1 T_1 + q^(-1) ~T_1 T_-1 + ~T_0 T_0 = [N + 2][N + 3]"),
    ]
    return rows


_CATALOG_ROWS = {
    "classical": _catalog_classical,
    "qboson": _catalog_qboson,
    "tensor": _catalog_tensor,
}
_CATALOG_CACHE: dict[str, tuple[Relation, ...]] = {}


def _relation(family: str, name: str, anchor: str, note: str | None = None) -> Relation:
    """A catalog row as a relation; a name ending in " (variant)" marks a
    recorded variant reading of the entry named without it."""
    canonical = name.removesuffix(" (variant)")
    variant = canonical != name
    return Relation(name, family, anchor, relation_builder(name, family, anchor),
                    expect_holds=not variant, variant_of=canonical if variant else None,
                    note=note or (_COEFFICIENT if variant else None))


def relation_catalog(family: str) -> tuple[Relation, ...]:
    """All named relations of a family, canonical entries and recorded
    variants alike.  The anchors are parsed on the family's first call."""
    if family not in _CATALOG_ROWS:
        raise ValueError(f"unknown family {family!r}; choose from {FAMILIES}")
    if family not in _CATALOG_CACHE:
        rels = tuple(_relation(family, *row) for row in _CATALOG_ROWS[family]())
        names = [r.name for r in rels]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise AssertionError(f"duplicate relation names: {dupes}")
        for rel in rels:
            if rel.variant_of is not None and rel.variant_of not in names:
                raise AssertionError(f"dangling variant_of: {rel.name}")
        _CATALOG_CACHE[family] = rels
    return _CATALOG_CACHE[family]


def canonical_relations(family: str) -> tuple[Relation, ...]:
    return tuple(r for r in relation_catalog(family) if r.expect_holds)


def find_relation(family: str, name: str) -> Relation:
    for rel in relation_catalog(family):
        if rel.name == name:
            return rel
    raise KeyError(f"no relation named {name!r} in family {family!r}")


_REACH_CACHE: dict[tuple[str, str], int] = {}


def relation_reach(rel: Relation) -> int:
    """Maximal total nu-raise of any term of the relation's residual;
    checks on a cutoff-Lambda space are conclusive for nu <= Lambda - reach.
    Read from the residual's bounds in a ShapeContext, which only reads
    the generators' declared bounds.  The first call for a family does
    every relation of its catalog, on one set at the smallest cutoff."""
    key = (rel.family, rel.name)
    if key not in _REACH_CACHE:
        ctx = ShapeContext(build(rel.family, FockSpace(MIN_CUTOFF)))
        for r in (*relation_catalog(rel.family), rel):
            _REACH_CACHE[(r.family, r.name)] = max(r.builder(ctx).climb, 0)
    return _REACH_CACHE[key]


def catalog_manifest(family: str) -> list[dict]:
    """JSON-ready description of the family's catalog."""
    out = []
    for rel in relation_catalog(family):
        row = {
            "name": rel.name,
            "family": rel.family,
            "anchor": rel.anchor,
            "reach": relation_reach(rel),
            "mode_hint": "ExactMonomial",
            "expect_holds": rel.expect_holds,
        }
        if rel.variant_of is not None:
            row["variant_of"] = rel.variant_of
        if rel.note is not None:
            row["note"] = rel.note
        out.append(row)
    return out
