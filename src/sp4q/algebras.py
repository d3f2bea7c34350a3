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
holds) in any of three scalar contexts: exact deformed, exact classical
limit (q = 1), or floating point at fixed q.  Builders take a ``flip``
switch that negates one term, used by the mutation self-test.

Generator sets are immutable and shared while alive.  A set depends only
on its family and cutoff (the three families act in one Fock space, and
no entry depends on q), so :func:`build` hands out the set already alive
for that pair and constructs one only when none is.  It holds no strong
reference: a set nobody keeps is freed as before.  A set's ``ops``
mapping is read-only; a modified set is made with ``dataclasses.replace``.
"""

from __future__ import annotations

import math
import types
import weakref
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Mapping

from .fock import FockSpace, FockState
from .ops import NumOp, QOperator, basis_norms, classical_gram, gram, to_numeric
from .qnum import LaurentPoly, ONE, Q, q_int, q_power

FAMILIES = ("classical", "qboson", "tensor")

MIN_CUTOFF = 4


@dataclass(frozen=True)
class GeneratorSet:
    """All named operators of one family on one truncated space.

    ``elements`` are the algebra generators proper (quadratic in the
    mode operators, hence parity preserving); the remaining entries are
    building blocks such as single mode operators.  ``ops`` is stored as
    a read-only copy of the mapping given, since :func:`build` shares
    one set among all its callers.
    """

    family: str
    space: FockSpace
    ops: Mapping[str, QOperator]
    elements: tuple[str, ...]
    adjoint_pairs: tuple[tuple[str, str], ...]

    def __post_init__(self):
        object.__setattr__(self, "ops", types.MappingProxyType(dict(self.ops)))

    def __getitem__(self, name: str) -> QOperator:
        return self.ops[name]

    def gram_fn(self):
        return classical_gram if self.family == "classical" else gram


def _diag(space, fn) -> QOperator:
    """Diagonal operator with exact rational eigenvalues fn(state)."""

    def value(st):
        v = fn(st)
        if type(v) is int:
            return LaurentPoly._of({0: v} if v else {})
        return LaurentPoly.const(v)

    return QOperator.diagonal(space, value)


def _diag_poly(space, fn, den: LaurentPoly = ONE) -> QOperator:
    return QOperator.diagonal(space, fn, den=den)


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


def _s_exponent(x, k: int, error: str) -> int:
    """k * x as an integer exponent of s; ``error`` when it is not one.
    An ``int`` x stays in ``int`` arithmetic."""
    if type(x) is int:
        return k * x
    e = k * Q(x)
    if e.denominator != 1:
        raise ValueError(error)
    return int(e)


def _spow(space, fn) -> QOperator:
    """Diagonal q-power operator q^{fn(state)} (fn in multiples of 1/4)."""

    def value(st):
        e = _s_exponent(fn(st), 4, "q-power with non-quarter-integer exponent")
        return LaurentPoly._of({e: 1})

    return QOperator.diagonal(space, value)


def _build_classical(space: FockSpace) -> GeneratorSet:
    one = lambda st: ONE
    bd1 = _mode_creator(space, 1, one)
    bdm1 = _mode_creator(space, -1, one)
    b1 = _mode_annihilator(space, 1, lambda st: LaurentPoly.const(st.n1))
    bm1 = _mode_annihilator(space, -1, lambda st: LaurentPoly.const(st.nm1))

    g: dict[str, QOperator] = {
        "bd1": bd1,
        "b1": b1,
        "bdm1": bdm1,
        "bm1": bm1,
        "N1": _diag(space, lambda st: st.n1),
        "Nm1": _diag(space, lambda st: st.nm1),
        "N": _diag(space, lambda st: st.nu),
        "I0": _diag(space, lambda st: st.m),
        "A0": _diag(space, lambda st: Q(st.nu + 1, 2)),
        "P": _diag(space, lambda st: (-1) ** st.parity),
    }
    g["F11"] = bd1 @ bd1
    g["F1m1"] = bd1 @ bdm1
    g["Fm1m1"] = bdm1 @ bdm1
    g["G11"] = b1 @ b1
    g["G1m1"] = b1 @ bm1
    g["Gm1m1"] = bm1 @ bm1
    g["Ip"] = bd1 @ bm1
    g["Im"] = bdm1 @ b1
    g["F0"] = g["F1m1"]
    g["G0"] = g["G1m1"]
    g["Fp"] = g["F11"].scale(Q(1, 2))
    g["Gp"] = g["G11"].scale(Q(1, 2))
    g["Ap"] = _diag(space, lambda st: Q(2 * st.n1 + 1, 4))
    g["Fm"] = g["Fm1m1"].scale(Q(1, 2))
    g["Gm"] = g["Gm1m1"].scale(Q(1, 2))
    g["Am"] = _diag(space, lambda st: Q(2 * st.nm1 + 1, 4))
    g["Fsum"] = (g["F11"] + g["Fm1m1"]).scale(Q(1, 2))
    g["Gsum"] = (g["G11"] + g["Gm1m1"]).scale(Q(1, 2))
    g["C10"] = (bd1 @ b1) - (bm1 @ bdm1)

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
    return GeneratorSet("classical", space, g, elements, pairs)


def _build_qboson(space: FockSpace) -> GeneratorSet:
    one = lambda st: ONE
    ad1 = _mode_creator(space, 1, one)
    adm1 = _mode_creator(space, -1, one)
    a1 = _mode_annihilator(space, 1, lambda st: q_int(st.n1))
    am1 = _mode_annihilator(space, -1, lambda st: q_int(st.nm1))
    two = q_int(2)

    g: dict[str, QOperator] = {
        "ad1": ad1,
        "a1": a1,
        "adm1": adm1,
        "am1": am1,
        "N1": _diag(space, lambda st: st.n1),
        "Nm1": _diag(space, lambda st: st.nm1),
        "N": _diag(space, lambda st: st.nu),
        "J0": _diag(space, lambda st: st.m),
        "P": _diag(space, lambda st: (-1) ** st.parity),
    }
    g["Fq11"] = ad1 @ ad1
    g["Fq1m1"] = ad1 @ adm1
    g["Fqm1m1"] = adm1 @ adm1
    g["Gq11"] = a1 @ a1
    g["Gq1m1"] = a1 @ am1
    g["Gqm1m1"] = am1 @ am1
    g["Jp"] = ad1 @ am1
    g["Jm"] = adm1 @ a1
    g["K0p"] = g["Fq1m1"]
    g["K0m"] = g["Gq1m1"]
    g["K00"] = _diag(space, lambda st: Q(st.nu + 1, 2))
    g["Kpp"] = g["Fq11"].over(two)
    g["Kpm"] = g["Gq11"].over(two)
    g["Kp0"] = _diag(space, lambda st: Q(2 * st.n1 + 1, 4))
    g["Kmp"] = g["Fqm1m1"].over(two)
    g["Kmm"] = g["Gqm1m1"].over(two)
    g["Km0"] = _diag(space, lambda st: Q(2 * st.nm1 + 1, 4))

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
    return GeneratorSet("qboson", space, g, elements, pairs)


def _build_tensor(space: FockSpace) -> GeneratorSet:
    qb = _build_qboson(space)
    ad1, a1, adm1, am1 = qb["ad1"], qb["a1"], qb["adm1"], qb["am1"]
    two = q_int(2)
    quarter = Q(1, 4)

    # t_k+ = q^(k/4) a_k+ q^(k N_-k / 2);  t_k = q^(-k/4) a_-k q^(-k N_k / 2)
    td1 = (ad1 @ _spow(space, lambda st: Q(st.nm1, 2))).scale(q_power(quarter))
    tdm1 = (adm1 @ _spow(space, lambda st: Q(-st.n1, 2))).scale(q_power(-quarter))
    t1 = (am1 @ _spow(space, lambda st: Q(-st.n1, 2))).scale(q_power(-quarter))
    tm1 = (a1 @ _spow(space, lambda st: Q(st.nm1, 2))).scale(q_power(quarter))

    g: dict[str, QOperator] = {
        "td1": td1,
        "tdm1": tdm1,
        "t1": t1,
        "tm1": tm1,
        "N1": qb["N1"],
        "Nm1": qb["Nm1"],
        "N": qb["N"],
        "J0": qb["J0"],
        "Jp": qb["Jp"],
        "Jm": qb["Jm"],
        "P": qb["P"],
        "qm2J0": _spow(space, lambda st: 2 * (st.nm1 - st.n1) * Q(1, 2)),
    }
    g["T1"] = td1 @ td1
    g["Tm1"] = tdm1 @ tdm1
    g["T0"] = (td1 @ tdm1).scale(q_power(Q(-1, 2))).times_sqrt(two)
    g["Tt1"] = t1 @ t1
    g["Ttm1"] = tm1 @ tm1
    g["Tt0"] = (t1 @ tm1).scale(q_power(Q(-1, 2))).times_sqrt(two)
    g["L1"] = td1 @ t1
    g["Lm1"] = tdm1 @ tm1
    # L_0^1 = (1/[2]) (q [N_1] q^{N_-1} - q^-1 [N_-1] q^{-N_1})
    g["L01"] = _diag_poly(
        space,
        lambda st: q_int(st.n1).shifted(4 + 4 * st.nm1)
        - q_int(st.nm1).shifted(-4 - 4 * st.n1),
        den=two,
    )
    # L_0^0 = [N_1] q^{N_-1} + [N_-1] q^{-N_1}
    g["L00"] = _diag_poly(
        space,
        lambda st: q_int(st.n1).shifted(4 * st.nm1) + q_int(st.nm1).shifted(-4 * st.n1),
    )
    g["calN1"] = td1 @ tm1
    g["calNm1"] = tdm1 @ t1

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
    return GeneratorSet("tensor", space, g, elements, pairs)


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


def classical_counterparts(gens: GeneratorSet, classical: GeneratorSet) -> dict[str, QOperator]:
    """The q -> 1 counterpart of each deformed generator, expressed in the
    classical generator set on the same space."""
    if classical.family != "classical" or classical.space != gens.space:
        raise ValueError("counterparts need the classical family on the same space")
    c = classical.ops
    two = LaurentPoly.const(2)
    if gens.family == "classical":
        return dict(c)
    if gens.family == "qboson":
        return {
            "ad1": c["bd1"], "a1": c["b1"], "adm1": c["bdm1"], "am1": c["bm1"],
            "N1": c["N1"], "Nm1": c["Nm1"], "N": c["N"], "J0": c["I0"], "P": c["P"],
            "Fq11": c["F11"], "Fq1m1": c["F1m1"], "Fqm1m1": c["Fm1m1"],
            "Gq11": c["G11"], "Gq1m1": c["G1m1"], "Gqm1m1": c["Gm1m1"],
            "Jp": c["Ip"], "Jm": c["Im"],
            "K0p": c["F0"], "K0m": c["G0"], "K00": c["A0"],
            "Kpp": c["Fp"], "Kpm": c["Gp"], "Kp0": c["Ap"],
            "Kmp": c["Fm"], "Kmm": c["Gm"], "Km0": c["Am"],
        }
    ident = QOperator.identity(gens.space)
    return {
        "td1": c["bd1"], "tdm1": c["bdm1"], "t1": c["bm1"], "tm1": c["b1"],
        "N1": c["N1"], "Nm1": c["Nm1"], "N": c["N"], "J0": c["I0"], "P": c["P"],
        "Jp": c["Ip"], "Jm": c["Im"], "qm2J0": ident,
        "T1": c["F11"], "Tm1": c["Fm1m1"], "T0": c["F1m1"].times_sqrt(two),
        "Tt1": c["Gm1m1"], "Ttm1": c["G11"], "Tt0": c["G1m1"].times_sqrt(two),
        "L1": c["Ip"], "Lm1": c["Im"], "L01": c["I0"], "L00": c["N"],
        "calN1": c["N1"], "calNm1": c["Nm1"],
    }


# -- scalar contexts -----------------------------------------------------------


class ExactContext:
    """Exact deformed semantics: operators are QOperator, scalars are
    Laurent polynomials in s."""

    kind = "exact"

    def __init__(self, gens: GeneratorSet):
        self.gens = gens
        self.space = gens.space
        self._table = gens.ops

    def __getitem__(self, name: str) -> QOperator:
        return self._table[name]

    def comm(self, a, b, rho=0, flip: bool = False):
        second = (b @ a).scale(self.power_scalar(rho))
        return (a @ b) + second if flip else (a @ b) - second

    def power_scalar(self, x):
        return q_power(x)

    def qpow(self, a, x):
        return a.scale(q_power(x))

    def brk(self, a, n: int, m: int = 1):
        return a.scale(q_int(n, m))

    def over_brk(self, a, n: int, m: int = 1):
        return a.over(q_int(n, m))

    def frac(self, a, r):
        return a.scale(Q(r))

    def sqrt2(self, a):
        return a.times_sqrt(q_int(2))

    def diag_brk(self, fn, m: int = 1):
        den = LaurentPoly({4 * m: 1, -4 * m: -1})

        def value(st):
            e = _s_exponent(
                fn(st), 4 * m, "bracket argument with non-integral s-exponent")
            return LaurentPoly._of({e: 1, -e: -1} if e else {})

        return QOperator.diagonal(self.space, value, den=den)

    def diag_pow(self, fn):
        return _spow(self.space, fn)

    def diag_frac(self, fn):
        return _diag(self.space, fn)

    def ident(self):
        return QOperator.identity(self.space)

    def zero(self):
        return QOperator.zero(self.space)


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

    def qpow(self, a, x):
        return a

    def brk(self, a, n: int, m: int = 1):
        return a.scale(n)

    def over_brk(self, a, n: int, m: int = 1):
        return a.over(LaurentPoly.const(n))

    def sqrt2(self, a):
        return a.times_sqrt(LaurentPoly.const(2))

    def diag_brk(self, fn, m: int = 1):
        return _diag(self.space, fn)

    def diag_pow(self, fn):
        return QOperator.identity(self.space)


class NumericContext:
    """Floating-point semantics at fixed q: operators are NumOp in the
    orthonormal basis, scalars are floats."""

    kind = "numeric"

    def __init__(self, gens: GeneratorSet, q: float):
        self.gens = gens
        self.space = gens.space
        self.q = float(q)
        self._classical = gens.family == "classical"
        # One set of basis norms serves every generator at this q.
        norms = basis_norms(self.space, self.q, gens.gram_fn())
        self._table = {
            k: to_numeric(op, self.q, norms=norms) for k, op in gens.ops.items()
        }

    # scalar helpers ----------------------------------------------------

    def _num_brk(self, x, m: int = 1) -> float:
        if self._classical:
            return float(x)
        qm = self.q ** float(m)
        if qm == 1.0:
            raise ValueError(
                f"the q-bracket [{x}]_{m} is 0/0 at q = 1; numeric checks"
                f" of the {self.gens.family} family need q != 1"
            )
        return (qm ** float(x) - qm ** float(-x)) / (qm - 1.0 / qm)

    def _num_pow(self, x) -> float:
        return 1.0 if self._classical else self.q ** float(x)

    # same interface as ExactContext ------------------------------------

    def __getitem__(self, name: str) -> NumOp:
        return self._table[name]

    def comm(self, a, b, rho=0, flip: bool = False):
        second = (b @ a).scale(self._num_pow(rho))
        return (a @ b) + second if flip else (a @ b) - second

    def qpow(self, a, x):
        return a.scale(self._num_pow(x))

    def brk(self, a, n: int, m: int = 1):
        return a.scale(self._num_brk(n, m))

    def over_brk(self, a, n: int, m: int = 1):
        return a.scale(1.0 / self._num_brk(n, m))

    def frac(self, a, r):
        return a.scale(float(Q(r)))

    def sqrt2(self, a):
        return a.scale(math.sqrt(self._num_brk(2)))

    def _diag_of(self, value) -> NumOp:
        entries = {}
        for i, st in enumerate(self.space.states):
            v = value(st)
            if v:
                entries[(i, i)] = v
        return NumOp(self.space, self.q, entries)

    def diag_brk(self, fn, m: int = 1):
        return self._diag_of(lambda st: self._num_brk(fn(st), m))

    def diag_pow(self, fn):
        return self._diag_of(lambda st: self._num_pow(fn(st)))

    def diag_frac(self, fn):
        return self._diag_of(lambda st: float(fn(st)))

    def ident(self):
        return NumOp.identity(self.space, self.q)

    def zero(self):
        return NumOp.zero(self.space, self.q)


def exact_context(gens: GeneratorSet) -> ExactContext:
    return ExactContext(gens)


def classical_limit_context(gens: GeneratorSet) -> ClassicalContext:
    return ClassicalContext(gens, build("classical", gens.space))


def numeric_context(gens: GeneratorSet, q: float) -> NumericContext:
    return NumericContext(gens, q)


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


def casimir(name: str, gens: GeneratorSet, weights=None) -> QOperator:
    """Casimir operator built from its defining generator combination
    (closed-form eigenvalues are verified separately, never assumed)."""
    if name not in CASIMIR_NAMES:
        raise ValueError(f"unknown casimir {name!r}; choose from {CASIMIR_NAMES}")
    want = _CASIMIR_FAMILY[name]
    if gens.family != want:
        raise ValueError(f"casimir {name} belongs to family {want!r}, got {gens.family!r}")
    c = exact_context(gens)
    half = Q(1, 2)

    if name == "I2":
        sym = (c["Ip"] @ c["Im"] + c["Im"] @ c["Ip"]).scale(half)
        return sym + c["I0"] @ c["I0"]

    if name == "C2SU0":
        return c["A0"] @ c["A0"] - (c["F0"] @ c["G0"] + c["G0"] @ c["F0"]).scale(half)

    if name == "J2":
        sym = (c["Jp"] @ c["Jm"] + c["Jm"] @ c["Jp"]).scale(half)
        j0 = lambda st: st.m
        diag = (
            c.diag_brk(j0) @ c.diag_brk(lambda st: st.m + 1)
            + c.diag_brk(j0) @ c.diag_brk(lambda st: st.m - 1)
        ).scale(half)
        return sym + diag

    if name == "K02":
        k0 = lambda st: Q(st.nu + 1, 2)
        diag = (
            c.diag_brk(k0) @ c.diag_brk(lambda st: Q(st.nu + 3, 2))
            + c.diag_brk(k0) @ c.diag_brk(lambda st: Q(st.nu - 1, 2))
        ).scale(half)
        sym = (c["K0p"] @ c["K0m"] + c["K0m"] @ c["K0p"]).scale(half)
        return diag - sym

    if name in ("C2SUp", "C2SUm"):
        a, f, gg = ("Ap", "Fp", "Gp") if name == "C2SUp" else ("Am", "Fm", "Gm")
        return c[a] @ c[a] - (c[f] @ c[gg] + c[gg] @ c[f]).scale(half)

    if name in ("C2SUqp", "C2SUqm"):
        sign = 1 if name == "C2SUqp" else -1
        n = (lambda st: st.n1) if sign == 1 else (lambda st: st.nm1)
        k0 = lambda st: Q(2 * n(st) + 1, 4)
        kp, km = ("Kpp", "Kpm") if sign == 1 else ("Kmp", "Kmm")
        diag = (
            c.diag_brk(k0, 2) @ c.diag_brk(lambda st: k0(st) + 1, 2)
            + c.diag_brk(k0, 2) @ c.diag_brk(lambda st: k0(st) - 1, 2)
        ).scale(half)
        sym = (c[kp] @ c[km] + c[km] @ c[kp]).scale(half)
        return diag - sym

    if name == "L2":
        return (
            c.qpow(c["Lm1"] @ c["L1"], 1)
            + c.qpow(c["L1"] @ c["Lm1"], -1)
            + c.brk(c["L01"] @ c["L01"], 2)
        )

    if name == "S2":
        if weights is None:
            weights = (1, 1, 1, 1)
        s1, s2, s3, s4 = (Q(w) for w in weights)
        t_tt = (
            c.qpow(c["Tm1"] @ c["Tt1"], 1)
            + c.qpow(c["T1"] @ c["Ttm1"], -1)
            + c["T0"] @ c["Tt0"]
        )
        tt_t = (
            c.qpow(c["Ttm1"] @ c["T1"], 1)
            + c.qpow(c["Tt1"] @ c["Tm1"], -1)
            + c["Tt0"] @ c["T0"]
        )
        ll = casimir("L2", gens)
        nn = c.diag_brk(lambda st: st.nu) @ c.diag_brk(lambda st: st.nu)
        return (
            t_tt.scale(s1) + tt_t.scale(s2) + c.brk(ll, 2).scale(s3) + nn.scale(s4)
        )

    raise AssertionError(name)


# -- relation catalog ----------------------------------------------------------


@dataclass(frozen=True)
class Relation:
    """A named operator identity.

    ``builder(ctx, flip)`` returns the residual operator of the identity
    in the given scalar context; the identity holds iff the residual
    vanishes on a safe subspace.  ``flip`` negates exactly one term (used
    by the mutation self-test).  Entries with ``expect_holds=False`` are
    recorded variant readings whose coefficients do not verify; each
    points at its canonical form via ``variant_of``.
    """

    name: str
    family: str
    anchor: str
    builder: Callable
    expect_holds: bool = True
    variant_of: str | None = None
    note: str | None = None


def _zc(a: str, b: str, rho=0):
    """Builder for [a, b]_{q^rho} = 0."""

    def build(ctx, flip: bool = False):
        return ctx.comm(ctx[a], ctx[b], rho, flip=flip)

    return build


def _eqr(lhs_fn, rhs_fn):
    """Builder for lhs = rhs; flip negates the right-hand side."""

    def build(ctx, flip: bool = False):
        lhs = lhs_fn(ctx)
        rhs = rhs_fn(ctx)
        return lhs + rhs if flip else lhs - rhs

    return build


def _comm_eq(a: str, b: str, rhs_fn, rho=0):
    return _eqr(lambda c: c.comm(c[a], c[b], rho), rhs_fn)


def _catalog_classical() -> list[Relation]:
    def r(name, anchor, builder, **kw):
        return Relation(name, "classical", anchor, builder, **kw)

    nu = lambda st: st.nu
    rels = [
        r("trivial-self", "[I_0, I_0] = 0", _zc("I0", "I0")),
        r("Bose-cc", "[b_1, b_1+] = 1",
          _comm_eq("b1", "bd1", lambda c: c.ident())),
        r("Bose-cc -1", "[b_-1, b_-1+] = 1",
          _comm_eq("bm1", "bdm1", lambda c: c.ident())),
        r("Bose-cc mixed 1,-1", "[b_1, b_-1+] = 0", _zc("b1", "bdm1")),
        r("Bose-cc mixed -1,1", "[b_-1, b_1+] = 0", _zc("bm1", "bd1")),
        r("Bose-cc creators", "[b_1+, b_-1+] = 0", _zc("bd1", "bdm1")),
        r("Bose-cc annihilators", "[b_1, b_-1] = 0", _zc("b1", "bm1")),
        r("number-op grading create 1", "[N_1, b_1+] = b_1+",
          _comm_eq("N1", "bd1", lambda c: c["bd1"])),
        r("number-op grading annihilate 1", "[N_1, b_1] = -b_1",
          _comm_eq("N1", "b1", lambda c: -c["b1"])),
        r("number-op grading create -1", "[N_-1, b_-1+] = b_-1+",
          _comm_eq("Nm1", "bdm1", lambda c: c["bdm1"])),
        r("number-op grading annihilate -1", "[N_-1, b_-1] = -b_-1",
          _comm_eq("Nm1", "bm1", lambda c: -c["bm1"])),
        r("number-op cross create", "[N_1, b_-1+] = 0", _zc("N1", "bdm1")),
        r("number-op cross annihilate", "[N_1, b_-1] = 0", _zc("N1", "bm1")),
        r("su2-weight raise", "[I_0, I_+] = I_+",
          _comm_eq("I0", "Ip", lambda c: c["Ip"])),
        r("su2-weight lower", "[I_0, I_-] = -I_-",
          _comm_eq("I0", "Im", lambda c: -c["Im"])),
        r("su2-commutator", "[I_+, I_-] = 2 I_0",
          _comm_eq("Ip", "Im", lambda c: c.frac(c["I0"], 2))),
        r("u2-center vs raise", "[N, I_+] = 0", _zc("N", "Ip")),
        r("u2-center vs lower", "[N, I_-] = 0", _zc("N", "Im")),
        r("u2-center vs weight", "[N, I_0] = 0", _zc("N", "I0")),
        r("su2-casimir closed",
          "(I_+ I_- + I_- I_+)/2 + I_0 I_0 = (N/2)(N/2 + 1)",
          _eqr(lambda c: c.frac(c["Ip"] @ c["Im"] + c["Im"] @ c["Ip"], Q(1, 2))
               + c["I0"] @ c["I0"],
               lambda c: c.diag_frac(lambda st: Q(st.nu, 2) * (Q(st.nu, 2) + 1)))),
        r("su2-raising action squared",
          "I_- I_+ = (i - i_0)(i + i_0 + 1) on |i, i_0>",
          _eqr(lambda c: c["Im"] @ c["Ip"],
               lambda c: c.diag_frac(lambda st: st.nm1 * (st.n1 + 1))),
          note="corrected display: target ket label is i_0 + 1"),
        r("su2-lowering action squared",
          "I_+ I_- = (i + i_0)(i - i_0 + 1) on |i, i_0>",
          _eqr(lambda c: c["Ip"] @ c["Im"],
               lambda c: c.diag_frac(lambda st: st.n1 * (st.nm1 + 1))),
          note="corrected display: target ket label is i_0 - 1"),
        r("u0-first-invariant", "b_1+ b_1 - b_-1 b_-1+ = 2 I_0 - 1",
          _eqr(lambda c: c["C10"],
               lambda c: c.diag_frac(lambda st: 2 * st.m - 1))),
        r("su0-weight raise", "[A_0, F_0] = F_0",
          _comm_eq("A0", "F0", lambda c: c["F0"])),
        r("su0-weight lower", "[A_0, G_0] = -G_0",
          _comm_eq("A0", "G0", lambda c: -c["G0"])),
        r("su0-commutator", "[F_0, G_0] = -2 A_0",
          _comm_eq("F0", "G0", lambda c: c.frac(c["A0"], -2))),
        r("su0-casimir closed",
          "A_0^2 - (F_0 G_0 + G_0 F_0)/2 = (I_0 + 1/2)(I_0 - 1/2)",
          _eqr(lambda c: c["A0"] @ c["A0"]
               - c.frac(c["F0"] @ c["G0"] + c["G0"] @ c["F0"], Q(1, 2)),
               lambda c: c.diag_frac(lambda st: st.m * st.m - Q(1, 4)))),
        r("summed-su11 weight raise", "[A_0, F] = F, F = (F_11 + F_-1-1)/2",
          _comm_eq("A0", "Fsum", lambda c: c["Fsum"])),
        r("summed-su11 weight lower", "[A_0, G] = -G",
          _comm_eq("A0", "Gsum", lambda c: -c["Gsum"])),
        r("summed-su11 commutator", "[F, G] = -2 A_0",
          _comm_eq("Fsum", "Gsum", lambda c: c.frac(c["A0"], -2))),
    ]
    for s, fop, gop, aop in (("+", "Fp", "Gp", "Ap"), ("-", "Fm", "Gm", "Am")):
        rels += [
            r(f"su{s} weight raise", f"[A_{s}, F_{s}] = F_{s}",
              _comm_eq(aop, fop, lambda c, f=fop: c[f])),
            r(f"su{s} weight lower", f"[A_{s}, G_{s}] = -G_{s}",
              _comm_eq(aop, gop, lambda c, g=gop: -c[g])),
            r(f"su{s} commutator", f"[F_{s}, G_{s}] = -2 A_{s}",
              _comm_eq(fop, gop, lambda c, a=aop: c.frac(c[a], -2))),
            r(f"su{s} casimir constant",
              f"A_{s}^2 - (F_{s} G_{s} + G_{s} F_{s})/2 = -3/16",
              _eqr(lambda c, a=aop, f=fop, g=gop: c[a] @ c[a]
                   - c.frac(c[f] @ c[g] + c[g] @ c[f], Q(1, 2)),
                   lambda c: c.frac(c.ident(), Q(-3, 16)))),
        ]
    for x, xop in (("F+", "Fp"), ("G+", "Gp"), ("A+", "Ap")):
        for y, yop in (("F-", "Fm"), ("G-", "Gm"), ("A-", "Am")):
            rels.append(r(f"su+- cross {x} {y}", f"[{x}, {y}] = 0", _zc(xop, yop)))
    for nm, sign in (("F11", -2), ("F1m1", -2), ("Fm1m1", -2),
                     ("G11", 2), ("G1m1", 2), ("Gm1m1", 2)):
        label = nm.replace("m1", "-1").replace("F", "F_").replace("G", "G_")
        rels.append(r(f"N-grading {nm}", f"[{label}, N] = {sign} {label}",
                      _comm_eq(nm, "N", lambda c, o=nm, s=sign: c.frac(c[o], s))))
    return rels


def _catalog_qboson() -> list[Relation]:
    def r(name, anchor, builder, **kw):
        return Relation(name, "qboson", anchor, builder, **kw)

    half = Q(1, 2)
    rels = [
        r("trivial-self", "[J_0, J_0] = 0", _zc("J0", "J0")),
        r("q-boson ac1 mode 1", "a_1 a_1+ - q a_1+ a_1 = q^(-N_1)",
          _comm_eq("a1", "ad1", lambda c: c.diag_pow(lambda st: -st.n1), rho=1)),
        r("q-boson ac1 mode -1", "a_-1 a_-1+ - q a_-1+ a_-1 = q^(-N_-1)",
          _comm_eq("am1", "adm1", lambda c: c.diag_pow(lambda st: -st.nm1), rho=1)),
        r("q-boson ac2 mode 1", "a_1 a_1+ - q^(-1) a_1+ a_1 = q^(N_1)",
          _comm_eq("a1", "ad1", lambda c: c.diag_pow(lambda st: st.n1), rho=-1)),
        r("q-boson ac2 mode -1", "a_-1 a_-1+ - q^(-1) a_-1+ a_-1 = q^(N_-1)",
          _comm_eq("am1", "adm1", lambda c: c.diag_pow(lambda st: st.nm1), rho=-1)),
        r("q-boson cross annihilate-create", "[a_1, a_-1+] = 0", _zc("a1", "adm1")),
        r("q-boson cross create-annihilate", "[a_-1, a_1+] = 0", _zc("am1", "ad1")),
        r("q-boson cross creators", "[a_1+, a_-1+] = 0", _zc("ad1", "adm1")),
        r("q-boson cross annihilators", "[a_1, a_-1] = 0", _zc("a1", "am1")),
        r("q-number grading create 1", "[N_1, a_1+] = a_1+",
          _comm_eq("N1", "ad1", lambda c: c["ad1"])),
        r("q-number grading annihilate 1", "[N_1, a_1] = -a_1",
          _comm_eq("N1", "a1", lambda c: -c["a1"])),
        r("q-number grading create -1", "[N_-1, a_-1+] = a_-1+",
          _comm_eq("Nm1", "adm1", lambda c: c["adm1"])),
        r("q-number grading annihilate -1", "[N_-1, a_-1] = -a_-1",
          _comm_eq("Nm1", "am1", lambda c: -c["am1"])),
        r("suq2-weight raise", "[J_0, J_+] = J_+",
          _comm_eq("J0", "Jp", lambda c: c["Jp"])),
        r("suq2-weight lower", "[J_0, J_-] = -J_-",
          _comm_eq("J0", "Jm", lambda c: -c["Jm"])),
        r("J-commutator", "[J_+, J_-] = [2 J_0]",
          _comm_eq("Jp", "Jm", lambda c: c.diag_brk(lambda st: 2 * st.m))),
        r("uq2-center vs raise", "[J_+, N] = 0", _zc("Jp", "N")),
        r("uq2-center vs lower", "[J_-, N] = 0", _zc("Jm", "N")),
        r("uq2-center vs weight", "[J_0, N] = 0", _zc("J0", "N")),
    ]
    for nm, sign in (("Fq11", -2), ("Fq1m1", -2), ("Fqm1m1", -2),
                     ("Gq11", 2), ("Gq1m1", 2), ("Gqm1m1", 2)):
        label = nm.replace("m1", "-1").replace("Fq", "F^q_").replace("Gq", "G^q_")
        rels.append(r(f"N-grading {nm}", f"[{label}, N] = {sign} {label}",
                      _comm_eq(nm, "N", lambda c, o=nm, s=sign: c.frac(c[o], s))))
    rels += [
        r("suq2-casimir symmetric closed",
          "(J_+ J_- + J_- J_+)/2 + ([J_0][J_0+1] + [J_0][J_0-1])/2 = [N/2][N/2+1]",
          _eqr(lambda c: c.frac(c["Jp"] @ c["Jm"] + c["Jm"] @ c["Jp"], half)
               + c.frac(c.diag_brk(lambda st: st.m) @ c.diag_brk(lambda st: st.m + 1)
                        + c.diag_brk(lambda st: st.m) @ c.diag_brk(lambda st: st.m - 1),
                        half),
               lambda c: c.diag_brk(lambda st: Q(st.nu, 2))
               @ c.diag_brk(lambda st: Q(st.nu, 2) + 1))),
        r("suq2-casimir chain raise-lower",
          "J_+ J_- + [J_0][J_0-1] = [N/2][N/2+1]",
          _eqr(lambda c: c["Jp"] @ c["Jm"]
               + c.diag_brk(lambda st: st.m) @ c.diag_brk(lambda st: st.m - 1),
               lambda c: c.diag_brk(lambda st: Q(st.nu, 2))
               @ c.diag_brk(lambda st: Q(st.nu, 2) + 1))),
        r("suq2-casimir chain lower-raise",
          "J_- J_+ + [J_0][J_0+1] = [N/2][N/2+1]",
          _eqr(lambda c: c["Jm"] @ c["Jp"]
               + c.diag_brk(lambda st: st.m) @ c.diag_brk(lambda st: st.m + 1),
               lambda c: c.diag_brk(lambda st: Q(st.nu, 2))
               @ c.diag_brk(lambda st: Q(st.nu, 2) + 1))),
        r("suq2-raising action squared",
          "J_- J_+ = [j - m][j + m + 1] on |j, m>",
          _eqr(lambda c: c["Jm"] @ c["Jp"],
               lambda c: c.diag_brk(lambda st: st.nm1)
               @ c.diag_brk(lambda st: st.n1 + 1)),
          note="corrected display: target ket label is m + 1"),
        r("suq2-lowering action squared",
          "J_+ J_- = [j + m][j - m + 1] on |j, m>",
          _eqr(lambda c: c["Jp"] @ c["Jm"],
               lambda c: c.diag_brk(lambda st: st.n1)
               @ c.diag_brk(lambda st: st.nm1 + 1)),
          note="corrected display: target ket label is m - 1"),
        r("uq0-weight raise", "[K0_0, K0_+] = K0_+",
          _comm_eq("K00", "K0p", lambda c: c["K0p"])),
        r("uq0-weight lower", "[K0_0, K0_-] = -K0_-",
          _comm_eq("K00", "K0m", lambda c: -c["K0m"])),
        r("uq0-commutator", "[K0_+, K0_-] = -[2 K0_0]",
          _comm_eq("K0p", "K0m", lambda c: -c.diag_brk(lambda st: st.nu + 1))),
        r("uq0-weight vs J0", "[K0_0, J_0] = 0", _zc("K00", "J0")),
        r("uq0-raise vs J0", "[K0_+, J_0] = 0", _zc("K0p", "J0")),
        r("uq0-lower vs J0", "[K0_-, J_0] = 0", _zc("K0m", "J0")),
        r("suq0-casimir symmetric closed",
          "([K0_0][K0_0+1] + [K0_0][K0_0-1])/2 - (K0_+ K0_- + K0_- K0_+)/2"
          " = [J_0]^2 - [1/2]^2",
          _eqr(lambda c: c.frac(
                   c.diag_brk(lambda st: Q(st.nu + 1, 2))
                   @ c.diag_brk(lambda st: Q(st.nu + 3, 2))
                   + c.diag_brk(lambda st: Q(st.nu + 1, 2))
                   @ c.diag_brk(lambda st: Q(st.nu - 1, 2)), half)
               - c.frac(c["K0p"] @ c["K0m"] + c["K0m"] @ c["K0p"], half),
               lambda c: c.diag_brk(lambda st: st.m) @ c.diag_brk(lambda st: st.m)
               - c.diag_brk(lambda st: half) @ c.diag_brk(lambda st: half))),
        r("suq0-casimir chain lower-raise",
          "[K0_0][K0_0+1] - K0_- K0_+ = [J_0]^2 - [1/2]^2",
          _eqr(lambda c: c.diag_brk(lambda st: Q(st.nu + 1, 2))
               @ c.diag_brk(lambda st: Q(st.nu + 3, 2)) - c["K0m"] @ c["K0p"],
               lambda c: c.diag_brk(lambda st: st.m) @ c.diag_brk(lambda st: st.m)
               - c.diag_brk(lambda st: half) @ c.diag_brk(lambda st: half))),
        r("suq0-casimir chain raise-lower",
          "[K0_0][K0_0-1] - K0_+ K0_- = [J_0]^2 - [1/2]^2",
          _eqr(lambda c: c.diag_brk(lambda st: Q(st.nu + 1, 2))
               @ c.diag_brk(lambda st: Q(st.nu - 1, 2)) - c["K0p"] @ c["K0m"],
               lambda c: c.diag_brk(lambda st: st.m) @ c.diag_brk(lambda st: st.m)
               - c.diag_brk(lambda st: half) @ c.diag_brk(lambda st: half))),
        r("suq0-product helper", "K0_+ K0_- = [N/2]^2 - [J_0]^2",
          _eqr(lambda c: c["K0p"] @ c["K0m"],
               lambda c: c.diag_brk(lambda st: Q(st.nu, 2))
               @ c.diag_brk(lambda st: Q(st.nu, 2))
               - c.diag_brk(lambda st: st.m) @ c.diag_brk(lambda st: st.m))),
        r("suq0-bracket helper", "[K0_0][K0_0-1] = [N/2]^2 - [1/2]^2",
          _eqr(lambda c: c.diag_brk(lambda st: Q(st.nu + 1, 2))
               @ c.diag_brk(lambda st: Q(st.nu - 1, 2)),
               lambda c: c.diag_brk(lambda st: Q(st.nu, 2))
               @ c.diag_brk(lambda st: Q(st.nu, 2))
               - c.diag_brk(lambda st: half) @ c.diag_brk(lambda st: half))),
    ]

    def const_rhs(c):
        return c.over_brk(c.over_brk(
            c.diag_brk(lambda st: half) @ c.diag_brk(lambda st: half) - c.ident(),
            2), 2)

    for s, kp, km, n_of, other in (
        ("+", "Kpp", "Kpm", lambda st: st.n1, "Nm1"),
        ("-", "Kmp", "Kmm", lambda st: st.nm1, "N1"),
    ):
        k0 = lambda st, n=n_of: Q(2 * n(st) + 1, 4)
        o_lbl = "N_-1" if s == "+" else "N_1"
        rels += [
            r(f"uq{s} weight raise", f"[K0^{s}, K_+^{s}] = K_+^{s}",
              _eqr(lambda c, kp=kp, k0=k0: c.comm(
                       c.diag_frac(lambda st, k0=k0: k0(st)), c[kp]),
                   lambda c, kp=kp: c[kp])),
            r(f"uq{s} weight lower", f"[K0^{s}, K_-^{s}] = -K_-^{s}",
              _eqr(lambda c, km=km, k0=k0: c.comm(
                       c.diag_frac(lambda st, k0=k0: k0(st)), c[km]),
                   lambda c, km=km: -c[km])),
            r(f"uq{s} commutator", f"[K_+^{s}, K_-^{s}] = -[2 K0^{s}]_2",
              _comm_eq(kp, km, lambda c, n=n_of: -c.diag_brk(
                  lambda st, n=n: Q(2 * n(st) + 1, 2), 2))),
            r(f"uq{s} center vs K0", f"[K0^{s}, {o_lbl}] = 0",
              _zc("Kp0" if s == "+" else "Km0", other)),
            r(f"uq{s} center vs raise", f"[K_+^{s}, {o_lbl}] = 0", _zc(kp, other)),
            r(f"uq{s} center vs lower", f"[K_-^{s}, {o_lbl}] = 0", _zc(km, other)),
            r(f"suq{s} casimir chain lower-raise",
              f"[K0^{s}]_2 [K0^{s} + 1]_2 - K_-^{s} K_+^{s} = ([1/2]^2 - 1)/[2]^2",
              _eqr(lambda c, kp=kp, km=km, k0=k0: c.diag_brk(k0, 2)
                   @ c.diag_brk(lambda st, k0=k0: k0(st) + 1, 2) - c[km] @ c[kp],
                   const_rhs)),
            r(f"suq{s} casimir chain raise-lower",
              f"[K0^{s}]_2 [K0^{s} - 1]_2 - K_+^{s} K_-^{s} = ([1/2]^2 - 1)/[2]^2",
              _eqr(lambda c, kp=kp, km=km, k0=k0: c.diag_brk(k0, 2)
                   @ c.diag_brk(lambda st, k0=k0: k0(st) - 1, 2) - c[kp] @ c[km],
                   const_rhs)),
            r(f"suq{s} product helper raise",
              f"K_-^{s} K_+^{s} = [N_{s}1 + 1][N_{s}1 + 2]/[2]^2",
              _eqr(lambda c, kp=kp, km=km: c[km] @ c[kp],
                   lambda c, n=n_of: c.over_brk(c.over_brk(
                       c.diag_brk(lambda st, n=n: n(st) + 1)
                       @ c.diag_brk(lambda st, n=n: n(st) + 2), 2), 2))),
            r(f"suq{s} product helper lower",
              f"K_+^{s} K_-^{s} = [N_{s}1][N_{s}1 - 1]/[2]^2",
              _eqr(lambda c, kp=kp, km=km: c[kp] @ c[km],
                   lambda c, n=n_of: c.over_brk(c.over_brk(
                       c.diag_brk(lambda st, n=n: n(st))
                       @ c.diag_brk(lambda st, n=n: n(st) - 1), 2), 2))),
            r(f"suq{s} product half-shift form",
              f"K_+^{s} K_-^{s} = {{[(2 N_{s}1 - 1)/2]^2 - [1/2]^2}}/[2]^2",
              _eqr(lambda c, kp=kp, km=km: c[kp] @ c[km],
                   lambda c, n=n_of: c.over_brk(c.over_brk(
                       c.diag_brk(lambda st, n=n: Q(2 * n(st) - 1, 2))
                       @ c.diag_brk(lambda st, n=n: Q(2 * n(st) - 1, 2))
                       - c.diag_brk(lambda st: half) @ c.diag_brk(lambda st: half),
                       2), 2))),
            r(f"suq{s} bracket helper",
              f"[K0^{s}]_2 [K0^{s} - 1]_2 = {{[(2 N_{s}1 - 1)/2]^2 - 1}}/[2]^2",
              _eqr(lambda c, k0=k0: c.diag_brk(k0, 2)
                   @ c.diag_brk(lambda st, k0=k0: k0(st) - 1, 2),
                   lambda c, n=n_of: c.over_brk(c.over_brk(
                       c.diag_brk(lambda st, n=n: Q(2 * n(st) - 1, 2))
                       @ c.diag_brk(lambda st, n=n: Q(2 * n(st) - 1, 2))
                       - c.ident(), 2), 2))),
        ]
    rels.append(
        r("suq-pm casimir factored constant",
          "([1/2]^2 - 1)/[2]^2 = ([1/4]_2 - [1/2]_2)([1/4]_2 + [1/2]_2)",
          _eqr(const_rhs,
               lambda c: (c.diag_brk(lambda st: Q(1, 4), 2)
                          - c.diag_brk(lambda st: half, 2))
               @ (c.diag_brk(lambda st: Q(1, 4), 2)
                  + c.diag_brk(lambda st: half, 2)))))
    return rels


def _catalog_tensor() -> list[Relation]:
    def r(name, anchor, builder, **kw):
        return Relation(name, "tensor", anchor, builder, **kw)

    nu = lambda st: st.nu
    Qc = "qm2J0"  # q^(-2 J_0), the recurring right multiplier

    def tq(c, name):
        return c[name] @ c[Qc]

    rels = [
        r("trivial-self", "[T_0, T_0] = 0", _zc("T0", "T0")),
        # tensor-boson exchange rules
        r("t-t-dagger", "[t_1, t_-1+]_{q^(-1)} = q^(-1/2) q^(-2J_0)",
          _comm_eq("t1", "tdm1", lambda c: c.qpow(c[Qc], Q(-1, 2)), rho=-1)),
        r("t-t-dagger mirror", "[t_-1, t_1+]_{q} = q^(1/2) q^(-2J_0)",
          _comm_eq("tm1", "td1", lambda c: c.qpow(c[Qc], Q(1, 2)), rho=1)),
        r("t-t-dagger same mode 1", "[t_1, t_1+] = 0", _zc("t1", "td1")),
        r("t-t-dagger same mode -1", "[t_-1, t_-1+] = 0", _zc("tm1", "tdm1")),
        r("t-dagger-pair", "[t_1+, t_-1+]_{q} = 0", _zc("td1", "tdm1", 1)),
        r("t-dagger-pair mirror", "[t_-1+, t_1+]_{q^(-1)} = 0", _zc("tdm1", "td1", -1)),
        r("t-pair", "[t_1, t_-1]_{q} = 0", _zc("t1", "tm1", 1)),
        r("t-pair mirror", "[t_-1, t_1]_{q^(-1)} = 0", _zc("tm1", "t1", -1)),
        # number-operator content of the quadratic pairings
        r("script-N1 closed form", "t_1+ t_-1 = q^(1/2) [N_1] q^(N_-1)",
          _eqr(lambda c: c["calN1"],
               lambda c: c.qpow(c.diag_brk(lambda st: st.n1)
                                @ c.diag_pow(lambda st: st.nm1), Q(1, 2)))),
        r("script-N-1 closed form", "t_-1+ t_1 = q^(-1/2) [N_-1] q^(-N_1)",
          _eqr(lambda c: c["calNm1"],
               lambda c: c.qpow(c.diag_brk(lambda st: st.nm1)
                                @ c.diag_pow(lambda st: -st.n1), Q(-1, 2)))),
        r("t-exchange raise", "t_-1 t_1+ = q^(1/2) [N_1 + 1] q^(N_-1)",
          _eqr(lambda c: c["tm1"] @ c["td1"],
               lambda c: c.qpow(c.diag_brk(lambda st: st.n1 + 1)
                                @ c.diag_pow(lambda st: st.nm1), Q(1, 2)))),
        r("t-exchange lower", "t_1 t_-1+ = q^(-1/2) [N_-1 + 1] q^(-N_1)",
          _eqr(lambda c: c["t1"] @ c["tdm1"],
               lambda c: c.qpow(c.diag_brk(lambda st: st.nm1 + 1)
                                @ c.diag_pow(lambda st: -st.n1), Q(-1, 2)))),
        # L_m in terms of the su_q(2) generators
        r("L-raise via J", "L_1 = q^(-1/2) J_+ q^(-J_0)",
          _eqr(lambda c: c["L1"],
               lambda c: c.qpow(c["Jp"] @ c.diag_pow(lambda st: -st.m), Q(-1, 2)))),
        r("L-lower via J", "L_-1 = q^(1/2) J_- q^(-J_0)",
          _eqr(lambda c: c["Lm1"],
               lambda c: c.qpow(c["Jm"] @ c.diag_pow(lambda st: -st.m), Q(1, 2)))),
        r("L0 closed form q-power",
          "L_0 = (q [N_1] q^(N_-1) - q^(-1) [N_-1] q^(-N_1))/[2]",
          _eqr(lambda c: c["L01"],
               lambda c: c.over_brk(
                   c.qpow(c.diag_brk(lambda st: st.n1)
                          @ c.diag_pow(lambda st: st.nm1), 1)
                   - c.qpow(c.diag_brk(lambda st: st.nm1)
                            @ c.diag_pow(lambda st: -st.n1), -1), 2))),
        r("L0 closed form bracket",
          "L_0 = (q [N_1][N_-1 + 1] - q^(-1) [N_-1][N_1 + 1])/[2]",
          _eqr(lambda c: c["L01"],
               lambda c: c.over_brk(
                   c.qpow(c.diag_brk(lambda st: st.n1)
                          @ c.diag_brk(lambda st: st.nm1 + 1), 1)
                   - c.qpow(c.diag_brk(lambda st: st.nm1)
                            @ c.diag_brk(lambda st: st.n1 + 1), -1), 2))),
        r("L0-scalar equals [N]", "L_0^0 = [N_1] q^(N_-1) + [N_-1] q^(-N_1) = [N]",
          _eqr(lambda c: c["L00"], lambda c: c.diag_brk(nu))),
    ]
    # mode-number gradings of the elementary tensor operators
    for k, nk, tk_d, tmk, tmk_d, tk in (
        (1, "N1", "td1", "tm1", "tdm1", "t1"),
        (-1, "Nm1", "tdm1", "t1", "td1", "tm1"),
    ):
        lbl = f"N_{k}"
        rels += [
            r(f"t-grading {lbl} create", f"[{lbl}, t_{k}+] = t_{k}+",
              _comm_eq(nk, tk_d, lambda c, o=tk_d: c[o])),
            r(f"t-grading {lbl} annihilate", f"[{lbl}, t_{-k}] = -t_{-k}",
              _comm_eq(nk, tmk, lambda c, o=tmk: -c[o])),
            r(f"t-grading {lbl} zero create", f"[{lbl}, t_{-k}+] = 0", _zc(nk, tmk_d)),
            r(f"t-grading {lbl} zero annihilate", f"[{lbl}, t_{k}] = 0", _zc(nk, tk)),
            r(f"t-weight J0 create {k}", f"[J_0, t_{k}+] = ({k}/2) t_{k}+",
              _comm_eq("J0", tk_d, lambda c, o=tk_d, k=k: c.frac(c[o], Q(k, 2)))),
            r(f"t-weight J0 annihilate {k}", f"[J_0, t_{k}] = ({k}/2) t_{k}",
              _comm_eq("J0", tk, lambda c, o=tk, k=k: c.frac(c[o], Q(k, 2)))),
        ]
    rels += [
        # so_q(3)-type triple of the L_m
        r("sut2-commutator", "[L_+1, L_-1] = [2] L_0 q^(-2J_0)",
          _comm_eq("L1", "Lm1", lambda c: c.brk(tq(c, "L01"), 2))),
        r("sut2-weight raise", "[L_0, L_+1] = q^(-1) L_+1 q^(-2J_0)",
          _comm_eq("L01", "L1", lambda c: c.qpow(tq(c, "L1"), -1))),
        r("sut2-weight lower", "[L_0, L_-1] = -q L_-1 q^(-2J_0)",
          _comm_eq("L01", "Lm1", lambda c: -c.qpow(tq(c, "Lm1"), 1))),
        r("ut2-center vs raise", "[L_0^0, L_+1] = 0", _zc("L00", "L1")),
        r("ut2-center vs weight", "[L_0^0, L_0] = 0", _zc("L00", "L01")),
        r("ut2-center vs lower", "[L_0^0, L_-1] = 0", _zc("L00", "Lm1")),
        r("N vs L raise", "[L_+1, N] = 0", _zc("L1", "N")),
        r("N vs L weight", "[L_0, N] = 0", _zc("L01", "N")),
        r("N vs L lower", "[L_-1, N] = 0", _zc("Lm1", "N")),
    ]
    for m_lbl, op, sign in (("+1", "T1", -2), ("0", "T0", -2), ("-1", "Tm1", -2),
                            ("+1", "Tt1", 2), ("0", "Tt0", 2), ("-1", "Ttm1", 2)):
        tilde = "~" if op.startswith("Tt") else ""
        rels.append(r(f"N-grading {tilde}T{m_lbl}",
                      f"[{tilde}T_{m_lbl}, N] = {sign} {tilde}T_{m_lbl}",
                      _comm_eq(op, "N", lambda c, o=op, s=sign: c.frac(c[o], s))))
    lhs_l2 = lambda c: (c.qpow(c["Lm1"] @ c["L1"], 1) + c.qpow(c["L1"] @ c["Lm1"], -1))
    rhs_l2 = lambda c: c.over_brk(c.diag_brk(nu) @ c.diag_brk(lambda st: st.nu + 2), 2)
    rels += [
        r("sut2-casimir closed",
          "q L_-1 L_+1 + q^(-1) L_+1 L_-1 + [2] L_0 L_0 = [N][N+2]/[2]",
          _eqr(lambda c: lhs_l2(c) + c.brk(c["L01"] @ c["L01"], 2), rhs_l2)),
        r("sut2-casimir closed (variant)",
          "q L_-1 L_+1 + q^(-1) L_+1 L_-1 - L_0 L_0 = [N][N+2]/[2]",
          _eqr(lambda c: lhs_l2(c) - c["L01"] @ c["L01"], rhs_l2),
          expect_holds=False, variant_of="sut2-casimir closed",
          note="recorded -L_0 L_0 reading; the bracket-weighted form verifies"),
    ]
    # adjoint so_q(3)-vector behaviour of T and ~T under L_+1, L_-1
    ntp = [
        ("so3-vector T raise onto 0", "[L_+1, T_-1] = sqrt([2]) T_0 q^(-2J_0)",
         ("L1", "Tm1"), "T0", Q(0), 1, None),
        ("so3-vector T raise onto +1", "[L_+1, T_0] = q^(-1) sqrt([2]) T_1 q^(-2J_0)",
         ("L1", "T0"), "T1", Q(-1), 1, None),
        ("so3-vector T lower onto 0", "[L_-1, T_1] = sqrt([2]) T_0 q^(-2J_0)",
         ("Lm1", "T1"), "T0", Q(0), 1, None),
        ("so3-vector T lower onto -1", "[L_-1, T_0] = q sqrt([2]) T_-1 q^(-2J_0)",
         ("Lm1", "T0"), "Tm1", Q(1), 1, None),
        ("so3-vector T-tilde raise onto 0", "[L_+1, ~T_-1] = -sqrt([2]) ~T_0 q^(-2J_0)",
         ("L1", "Ttm1"), "Tt0", Q(0), -1, None),
        ("so3-vector T-tilde raise onto +1",
         "[L_+1, ~T_0] = -q^(-1) sqrt([2]) ~T_1 q^(-2J_0)",
         ("L1", "Tt0"), "Tt1", Q(-1), -1, None),
        ("so3-vector T-tilde lower onto 0", "[L_-1, ~T_1] = -sqrt([2]) ~T_0 q^(-2J_0)",
         ("Lm1", "Tt1"), "Tt0", Q(0), -1, None),
        ("so3-vector T-tilde lower onto -1",
         "[L_-1, ~T_0] = -q sqrt([2]) ~T_-1 q^(-2J_0)",
         ("Lm1", "Tt0"), "Ttm1", Q(1), -1, None),
    ]
    for name, anchor, (la, tb), target, pw, sgn, _ in ntp:
        rels.append(r(name, anchor, _eqr(
            lambda c, la=la, tb=tb: c.comm(c[la], c[tb]),
            lambda c, t=target, pw=pw, sgn=sgn:
                c.frac(c.qpow(c.sqrt2(tq(c, t)), pw), sgn))))
    rels += [
        r("so3-vector T raise top", "[L_+1, T_1] = 0", _zc("L1", "T1")),
        r("so3-vector T lower bottom", "[L_-1, T_-1] = 0", _zc("Lm1", "Tm1")),
        r("so3-vector T-tilde raise top", "[L_+1, ~T_1] = 0", _zc("L1", "Tt1")),
        r("so3-vector T-tilde lower bottom", "[L_-1, ~T_-1] = 0", _zc("Lm1", "Ttm1")),
    ]
    for name, anchor, pair, target, pw, sgn in (
        ("so3-vector T raise onto 0 (variant)",
         "[L_+1, T_-1] = q^(-1) sqrt([2]) T_0 q^(-2J_0)", ("L1", "Tm1"), "T0", Q(-1), 1),
        ("so3-vector T raise onto +1 (variant)",
         "[L_+1, T_0] = q^(-2) sqrt([2]) T_1 q^(-2J_0)", ("L1", "T0"), "T1", Q(-2), 1),
        ("so3-vector T lower onto 0 (variant)",
         "[L_-1, T_1] = -q sqrt([2]) T_0 q^(-2J_0)", ("Lm1", "T1"), "T0", Q(1), -1),
        ("so3-vector T lower onto -1 (variant)",
         "[L_-1, T_0] = -q^2 sqrt([2]) T_-1 q^(-2J_0)", ("Lm1", "T0"), "Tm1", Q(2), -1),
        ("so3-vector T-tilde raise onto 0 (variant)",
         "[L_+1, ~T_-1] = sqrt([2]) ~T_0 q^(-2J_0)", ("L1", "Ttm1"), "Tt0", Q(0), 1),
        ("so3-vector T-tilde raise onto +1 (variant)",
         "[L_+1, ~T_0] = q^(-1) sqrt([2]) ~T_1 q^(-2J_0)", ("L1", "Tt0"), "Tt1", Q(-1), 1),
    ):
        rels.append(r(name, anchor, _eqr(
            lambda c, la=pair[0], tb=pair[1]: c.comm(c[la], c[tb]),
            lambda c, t=target, pw=pw, sgn=sgn:
                c.frac(c.qpow(c.sqrt2(tq(c, t)), pw), sgn)),
            expect_holds=False, variant_of=name.replace(" (variant)", ""),
            note="recorded coefficient reading; the canonical entry verifies"))
    # pairing of T, ~T with the script number operators
    nt_cases = [
        ("pair-scriptN T-tilde k=1",
         "[~T_-1, script-N_1]_{q^2} = q^(5/2) [2] ~T_-1 q^(-2J_0)",
         ("Ttm1", "calN1", 2), ("Ttm1", Q(5, 2), True), Q(3, 2)),
        ("pair-scriptN T-tilde k=-1",
         "[~T_1, script-N_-1]_{q^(-2)} = q^(-5/2) [2] ~T_1 q^(-2J_0)",
         ("Tt1", "calNm1", -2), ("Tt1", Q(-5, 2), True), Q(-3, 2)),
        ("scriptN-pair T k=1",
         "[script-N_1, T_1]_{q^2} = q^(1/2) [2] T_1 q^(-2J_0)",
         ("calN1", "T1", 2), ("T1", Q(1, 2), True), Q(-1, 2)),
        ("scriptN-pair T k=-1",
         "[script-N_-1, T_-1]_{q^(-2)} = q^(-1/2) [2] T_-1 q^(-2J_0)",
         ("calNm1", "Tm1", -2), ("Tm1", Q(-1, 2), True), Q(1, 2)),
        ("pair-scriptN T-tilde-0 k=1",
         "[~T_0, script-N_1]_{q^2} = q^(3/2) ~T_0 q^(-2J_0)",
         ("Tt0", "calN1", 2), ("Tt0", Q(3, 2), False), Q(1, 2)),
        ("pair-scriptN T-tilde-0 k=-1",
         "[~T_0, script-N_-1]_{q^(-2)} = q^(-3/2) ~T_0 q^(-2J_0)",
         ("Tt0", "calNm1", -2), ("Tt0", Q(-3, 2), False), Q(-1, 2)),
        ("scriptN-pair T0 k=1",
         "[script-N_1, T_0]_{q^2} = q^(3/2) T_0 q^(-2J_0)",
         ("calN1", "T0", 2), ("T0", Q(3, 2), False), Q(1, 2)),
        ("scriptN-pair T0 k=-1",
         "[script-N_-1, T_0]_{q^(-2)} = q^(-3/2) T_0 q^(-2J_0)",
         ("calNm1", "T0", -2), ("T0", Q(-3, 2), False), Q(-1, 2)),
    ]
    for name, anchor, (a, b, rho), (target, pw, with_two), pw_var in nt_cases:
        def rhs(c, t=target, pw=pw, w2=with_two):
            out = c.qpow(tq(c, t), pw)
            return c.brk(out, 2) if w2 else out
        rels.append(r(name, anchor, _eqr(
            lambda c, a=a, b=b, rho=rho: c.comm(c[a], c[b], rho), rhs)))
        var_anchor = anchor.replace(f"q^({pw})", f"q^({pw_var})").replace(
            f"q^{pw}", f"q^{pw_var}")
        def rhs_var(c, t=target, pw=pw_var, w2=with_two):
            out = c.qpow(tq(c, t), pw)
            return c.brk(out, 2) if w2 else out
        rels.append(r(f"{name} (variant)", var_anchor, _eqr(
            lambda c, a=a, b=b, rho=rho: c.comm(c[a], c[b], rho), rhs_var),
            expect_holds=False, variant_of=name,
            note="recorded q-power reading; the canonical entry verifies"))
    rels += [
        r("pair-scriptN T-tilde k=1 zero", "[~T_1, script-N_1]_{q^2} = 0",
          _zc("Tt1", "calN1", 2)),
        r("pair-scriptN T-tilde k=-1 zero", "[~T_-1, script-N_-1]_{q^(-2)} = 0",
          _zc("Ttm1", "calNm1", -2)),
        r("scriptN-pair T k=1 zero", "[script-N_1, T_-1]_{q^2} = 0",
          _zc("calN1", "Tm1", 2)),
        r("scriptN-pair T k=-1 zero", "[script-N_-1, T_1]_{q^(-2)} = 0",
          _zc("calNm1", "T1", -2)),
    ]
    # q-commutativity within each rank-one multiplet
    for fam, pfx in (("T", ""), ("Tt", "~")):
        for m1, m2 in ((1, 0), (1, -1), (0, 1), (0, -1), (-1, 1), (-1, 0)):
            nm = lambda m: {1: "1", 0: "0", -1: "m1"}[m]
            lbl = lambda m: {1: "+1", 0: "0", -1: "-1"}[m]
            a, b = f"{fam}{nm(m1)}", f"{fam}{nm(m2)}"
            rels.append(r(
                f"q-nilpotent {pfx}T {lbl(m1)},{lbl(m2)}",
                f"[{pfx}T_{m1}, {pfx}T_{m2}]_{{q^({2 * (m1 - m2)})}} = 0",
                _zc(a, b, 2 * (m1 - m2))))
    # cross pairings T with ~T at m_1 + m_2 = +-1 (transition part)
    c19l = [
        ("T-tilde-T cross (+1,0)",
         "[T_1, ~T_0]_{q^(-2)} = -q^(-2) sqrt([2]) [2] L_1 q^(-2J_0)",
         ("T1", "Tt0", -2), ("L1", Q(-2)), Q(-1)),
        ("T-tilde-T cross (0,+1)",
         "[T_0, ~T_1]_{q^2} = -sqrt([2]) [2] L_1 q^(-2J_0)",
         ("T0", "Tt1", 2), ("L1", Q(0)), None),
        ("T-tilde-T cross (-1,0)",
         "[T_-1, ~T_0]_{q^2} = -q^2 sqrt([2]) [2] L_-1 q^(-2J_0)",
         ("Tm1", "Tt0", 2), ("Lm1", Q(2)), Q(1)),
        ("T-tilde-T cross (0,-1)",
         "[T_0, ~T_-1]_{q^(-2)} = -sqrt([2]) [2] L_-1 q^(-2J_0)",
         ("T0", "Ttm1", -2), ("Lm1", Q(0)), "flip"),
    ]
    for name, anchor, (a, b, rho), (target, pw), pw_var in c19l:
        def rhs(c, t=target, pw=pw):
            return -c.qpow(c.sqrt2(c.brk(tq(c, t), 2)), pw)
        rels.append(r(name, anchor, _eqr(
            lambda c, a=a, b=b, rho=rho: c.comm(c[a], c[b], rho), rhs)))
        if pw_var is None:
            continue
        if pw_var == "flip":
            var_anchor = anchor.replace("= -", "= +")
            def rhs_var(c, t=target, pw=pw):
                return c.qpow(c.sqrt2(c.brk(tq(c, t), 2)), pw)
        else:
            var_anchor = anchor.replace(f"-q^({pw})", f"-q^({pw_var})").replace(
                "-q^2", f"-q^{pw_var}")
            def rhs_var(c, t=target, pw=pw_var):
                return -c.qpow(c.sqrt2(c.brk(tq(c, t), 2)), pw)
        rels.append(r(f"{name} (variant)", var_anchor, _eqr(
            lambda c, a=a, b=b, rho=rho: c.comm(c[a], c[b], rho), rhs_var),
            expect_holds=False, variant_of=name,
            note="recorded coefficient reading; the canonical entry verifies"))
    rels += [
        r("T-tilde-T cross (+1,+1)", "[T_1, ~T_1] = 0", _zc("T1", "Tt1")),
        r("T-tilde-T cross (-1,-1)", "[T_-1, ~T_-1] = 0", _zc("Tm1", "Ttm1")),
    ]

    # cross pairings at m_1 + m_2 = 0 (diagonal part)
    def c19s_rhs(sign, pw_q, pw_n):
        def rhs(c):
            inner = (c.qpow(c[Qc], pw_q)
                     + c.qpow(c.brk(c["calN1" if sign > 0 else "calNm1"], 2), pw_n))
            return -c.brk(inner @ c[Qc], 2)
        return rhs

    rels += [
        r("T-tilde-T m1+m2=0, top",
          "[T_1, ~T_-1]_{q^(-4)} = -[2] {q^(-3) q^(-2J_0)"
          " + q^(-3/2) [2] script-N_1} q^(-2J_0)",
          _eqr(lambda c: c.comm(c["T1"], c["Ttm1"], -4), c19s_rhs(1, -3, Q(-3, 2)))),
        r("T-tilde-T m1+m2=0, top (variant)",
          "[T_1, ~T_-1]_{q^(-4)} = -[2] {q^(-2) q^(-2J_0)"
          " + q^(1/2) [2] script-N_1} q^(-2J_0)",
          _eqr(lambda c: c.comm(c["T1"], c["Ttm1"], -4), c19s_rhs(1, -2, Q(1, 2))),
          expect_holds=False, variant_of="T-tilde-T m1+m2=0, top",
          note="recorded coefficient reading; the canonical entry verifies"),
        r("T-tilde-T m1+m2=0, middle", "[T_0, ~T_0] = -[2][N + 1] q^(-2J_0)",
          _eqr(lambda c: c.comm(c["T0"], c["Tt0"]),
               lambda c: -c.brk(c.diag_brk(lambda st: st.nu + 1) @ c[Qc], 2))),
        r("T-tilde-T m1+m2=0, middle (variant)", "[T_0, ~T_0] = [2][N + 1] q^(-2J_0)",
          _eqr(lambda c: c.comm(c["T0"], c["Tt0"]),
               lambda c: c.brk(c.diag_brk(lambda st: st.nu + 1) @ c[Qc], 2)),
          expect_holds=False, variant_of="T-tilde-T m1+m2=0, middle",
          note="recorded sign reading; the canonical entry verifies"),
        r("T-tilde-T m1+m2=0, bottom",
          "[T_-1, ~T_1]_{q^4} = -[2] {q^3 q^(-2J_0)"
          " + q^(3/2) [2] script-N_-1} q^(-2J_0)",
          _eqr(lambda c: c.comm(c["Tm1"], c["Tt1"], 4), c19s_rhs(-1, 3, Q(3, 2)))),
        r("T-tilde-T m1+m2=0, bottom (variant)",
          "[T_-1, ~T_1]_{q^4} = -[2] {q^2 q^(-2J_0)"
          " + q^(-1/2) [2] script-N_-1} q^(-2J_0)",
          _eqr(lambda c: c.comm(c["Tm1"], c["Tt1"], 4), c19s_rhs(-1, 2, Q(-1, 2))),
          expect_holds=False, variant_of="T-tilde-T m1+m2=0, bottom",
          note="recorded coefficient reading; the canonical entry verifies"),
        # the square of T_0 as a T_+1 T_-1 transition
        r("T0-squared transition", "(T_0)^2 = q^(-2) [2] T_1 T_-1",
          _eqr(lambda c: c["T0"] @ c["T0"],
               lambda c: c.qpow(c.brk(c["T1"] @ c["Tm1"], 2), -2))),
        r("T0-squared transition reversed", "(T_0)^2 = q^2 [2] T_-1 T_1",
          _eqr(lambda c: c["T0"] @ c["T0"],
               lambda c: c.qpow(c.brk(c["Tm1"] @ c["T1"], 2), 2))),
        r("T0-squared transition (variant)", "(T_0)^2 = q^(-1) [2] T_1 T_-1",
          _eqr(lambda c: c["T0"] @ c["T0"],
               lambda c: c.qpow(c.brk(c["T1"] @ c["Tm1"], 2), -1)),
          expect_holds=False, variant_of="T0-squared transition",
          note="recorded q-power reading; the canonical entry verifies"),
        # scalar squares of the rank-one multiplets
        r("scalar-square T.T-tilde",
          "q T_-1 ~T_1 + q^(-1) T_1 ~T_-1 + T_0 ~T_0 = [N][N - 1]",
          _eqr(lambda c: c.qpow(c["Tm1"] @ c["Tt1"], 1)
               + c.qpow(c["T1"] @ c["Ttm1"], -1) + c["T0"] @ c["Tt0"],
               lambda c: c.diag_brk(nu) @ c.diag_brk(lambda st: st.nu - 1))),
        r("scalar-square T-tilde.T",
          "q ~T_-1 T_1 + q^(-1) ~T_1 T_-1 + ~T_0 T_0 = [N + 2][N + 3]",
          _eqr(lambda c: c.qpow(c["Ttm1"] @ c["T1"], 1)
               + c.qpow(c["Tt1"] @ c["Tm1"], -1) + c["Tt0"] @ c["T0"],
               lambda c: c.diag_brk(lambda st: st.nu + 2)
               @ c.diag_brk(lambda st: st.nu + 3))),
    ]
    return rels


_CATALOG_BUILDERS = {
    "classical": _catalog_classical,
    "qboson": _catalog_qboson,
    "tensor": _catalog_tensor,
}
_CATALOG_CACHE: dict[str, tuple[Relation, ...]] = {}


def relation_catalog(family: str) -> tuple[Relation, ...]:
    """All named relations of a family, canonical entries and recorded
    variants alike."""
    if family not in _CATALOG_BUILDERS:
        raise ValueError(f"unknown family {family!r}; choose from {FAMILIES}")
    if family not in _CATALOG_CACHE:
        rels = tuple(_CATALOG_BUILDERS[family]())
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


_REACH_CTX: dict[str, ExactContext] = {}
_REACH_CACHE: dict[tuple[str, str], int] = {}


def relation_reach(rel: Relation) -> int:
    """Maximal total nu-raise of any term of the relation's residual;
    checks on a cutoff-Lambda space are conclusive for nu <= Lambda - reach."""
    key = (rel.family, rel.name)
    if key not in _REACH_CACHE:
        if rel.family not in _REACH_CTX:
            _REACH_CTX[rel.family] = ExactContext(build(rel.family, FockSpace(6)))
        res = rel.builder(_REACH_CTX[rel.family])
        _REACH_CACHE[key] = max(res.climb, 0)
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
