"""Verification engine for the three generator families.

Runs the relation catalog exactly on safe subspaces and numerically at
sampled q, compares Casimir spectra against their closed forms, renders
the discrete-series spectrum tables and pyramid diagrams, and checks the
vacuum-built bases, the ladder-operator actions, the scalar series
expansions, structural invariants, and the q -> 1 degeneration.

Every check returns a :class:`Report`, and one helper builds them all
from the check's start time and its first failure; a ``Fails`` verdict
always names a witness state and the offending residual.  Entries of the
catalog marked as recorded variant readings are *expected* to fail;
``Report.ok`` folds that expectation in.

Each check takes an optional ``gens=`` generator set and builds its own
when none is given.  :func:`full_suite` builds one truncated space and,
on first use, one generator set per family, and passes them to every
check, since all three families act in the same Fock space.
"""

from __future__ import annotations

import functools
import json
import math
import time
from dataclasses import dataclass
from typing import Mapping

from .algebras import (
    CASIMIR_NAMES,
    FAMILIES,
    ClassicalContext,
    GeneratorSet,
    MagnitudeContext,
    PointContext,
    Relation,
    build,
    canonical_relations,
    casimir,
    casimir_family,
    classical_counterparts,
    exact_context,
    find_relation,
    numeric_context,
    relation_catalog,
)
from .fock import (
    FockSpace,
    FockState,
    TripleConvention,
    triple_from_pair,
)
from .ops import (
    NumOp,
    QOperator,
    SafeSubspace,
    act,
    diagonal_spectrum,
    first_witness,
    gram_squared_element,
)
from .qnum import (
    LaurentPoly,
    Q,
    QRationalFn,
    limit_q1,
    q_bracket,
    q_factorial,
    q_int,
    q_power,
    require_q,
    taylor_coefficients,
)

MODE_EXACT = "ExactMonomial"
MODE_SQUARED = "SquaredExact"
MODE_TAYLOR = "ExactTaylor"
MODE_SCALING = "RemainderScaling"

DEFAULT_CUTOFF = 12
DEFAULT_QS = (0.7, 1.3)
DEFAULT_TOL = 1e-10
SCALAR_TOL = 1e-12

BASIS_CHECKS = ("ts", "spb_minN0", "spb_maxN0", "eta", "rtt")
CASIMIR_SECTORS = ("all", "even", "odd")
SPECTRUM_TABLE_KEYS = ("phi-ladder", "alpha-discrete", "phi-q", "qphi-alpha")
PYRAMID_LABELS = ("pairs", "triple-min", "triple-max")


def q_text(q: float) -> str:
    """q as ``:g`` prints it when that reads back as q, else in full."""
    short = f"{q:g}"
    return short if float(short) == q else repr(q)


def numeric_mode(q: float) -> str:
    return f"NumericAt({q_text(q)})"


def require_tol(tol: float) -> None:
    """Raise ValueError unless tol is a finite positive number.

    No residual is ever within a NaN bound, so without this check a NaN
    tol would leave a numeric check with no witness to report.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive; got {tol!r}")


class NotDiagonalError(ValueError):
    """A spectrum was requested of an operator that is not diagonal."""


# -- reports -------------------------------------------------------------------


@dataclass(frozen=True)
class Report:
    """Outcome of one verification check.

    ``expected`` is False for recorded variant readings whose Fails
    verdict is the documented outcome; ``ok`` is True when the verdict
    matches the expectation.
    """

    relation: str
    family: str
    anchor: str
    mode: str
    cutoff: int
    safe_nu: int
    verdict: str
    wall_ms: float
    witness: str | None = None
    residual: str | None = None
    expected: bool = True
    note: str | None = None

    @property
    def holds(self) -> bool:
        return self.verdict == "Holds"

    @property
    def ok(self) -> bool:
        return self.holds == self.expected

    def to_dict(self) -> dict:
        out = {
            "relation": self.relation,
            "family": self.family,
            "anchor": self.anchor,
            "mode": self.mode,
            "cutoff": self.cutoff,
            "safe_nu": self.safe_nu,
            "verdict": self.verdict,
            "wall_ms": round(self.wall_ms, 3),
        }
        if self.witness is not None:
            out["witness"] = self.witness
        if self.residual is not None:
            out["residual"] = self.residual
        if not self.expected:
            out["expected"] = False
        if self.note is not None:
            out["note"] = self.note
        return out


def reports_to_json(reports) -> str:
    return json.dumps([r.to_dict() for r in reports], sort_keys=True, indent=2) + "\n"


def summarize(reports) -> dict:
    holds = sum(1 for r in reports if r.holds)
    return {
        "checks": len(reports),
        "holds": holds,
        "fails": len(reports) - holds,
        "unexpected": sum(1 for r in reports if not r.ok),
    }


def _sort_reports(reports) -> list[Report]:
    return sorted(reports, key=lambda r: (r.relation, r.mode, r.family))


def _report(t0: float, bad, relation: str, family: str, anchor: str, mode: str,
            cutoff: int, safe_nu: int, *, expected: bool = True,
            note: str | None = None, share: int = 1) -> Report:
    """The report of a check started at ``t0 = time.perf_counter()``: Holds
    when ``bad`` is None, else Fails with ``bad = (witness, residual)``.
    ``share`` splits one timed pass evenly over the reports it yields.  In
    ``_report(time.perf_counter(), check(), ...)`` the clock starts before
    the check runs, since arguments are evaluated left to right."""
    witness, residual = bad or (None, None)
    return Report(
        relation, family, anchor, mode, cutoff, safe_nu,
        "Holds" if bad is None else "Fails",
        (time.perf_counter() - t0) * 1e3 / share,
        witness=witness, residual=residual, expected=expected, note=note,
    )


def _gens(family: str, cutoff: int, gens: GeneratorSet | None) -> GeneratorSet:
    """The generator set a check runs on: ``gens`` when given, which must
    be of ``family``, else a new build on FockSpace(cutoff)."""
    if gens is None:
        return build(family, FockSpace(cutoff))
    if gens.family != family:
        raise ValueError(
            f"gens= holds the {gens.family!r} family; this check needs {family!r}")
    return gens


def _shared_sets(cutoff: int):
    """family -> its generator set, each built once, on first use, on one
    FockSpace(cutoff)."""
    space = FockSpace(cutoff)
    return functools.cache(lambda family: build(family, space))


# -- relation checks -----------------------------------------------------------


def _window(name: str, space: FockSpace, res) -> SafeSubspace:
    """The states on which a residual is conclusive: those whose images
    stay inside the cutoff, given how far the residual climbs in nu."""
    reach = max(res.climb, 0)
    if space.cutoff < reach + 2:
        raise ValueError(
            f"{name!r} needs cutoff >= {reach + 2} (reach {reach}); got {space.cutoff}"
        )
    return SafeSubspace(space, space.cutoff - reach)


def coefficient_text(op, poly) -> str:
    """An entry ``poly`` of ``op`` as text, with op's den and sqrt flag."""
    txt = str(poly)
    if not op.den.is_one:
        txt = f"({txt}) / ({op.den})"
    if op.sqrt_sq is not None:
        txt = f"({txt}) * sqrt({op.sqrt_sq})"
    return txt


def _exact_residual(rel: Relation, ctx, flip: bool = False):
    """(res, window, hit) of a relation in an exact or classical context.
    A check expected to hold builds its residual at s = 2^B first
    (PointContext): when every window entry is provably zero there, it
    holds, hit is None and res is that image.  Otherwise res is the exact
    residual and hit its first witness, so every witness and residual
    text comes from the exact residual.  A check expected to fail (a
    variant or a flip) builds the exact residual at once."""
    if rel.expect_holds and not flip:
        point = rel.builder(PointContext(ctx))
        window = _window(rel.name, ctx.space, point)
        if point.zero_on(window):
            return point, window, None
    res = rel.builder(ctx, flip)
    window = _window(rel.name, ctx.space, res)
    return res, window, first_witness(res, window)


def _check_exact(rel: Relation, ctx, flip: bool = False) -> Report:
    t0 = time.perf_counter()
    res, window, hit = _exact_residual(rel, ctx, flip)
    bad = None if hit is None else (f"{hit[0]} -> {hit[1]}", coefficient_text(res, hit[2]))
    mode = MODE_SQUARED if res.sqrt_sq is not None else MODE_EXACT
    return _report(t0, bad, rel.name, rel.family, rel.anchor, mode, ctx.space.cutoff,
                   window.max_nu, expected=rel.expect_holds, note=rel.note)


def _past_terms(rel: Relation, nctx, res, window, tol: float, flip: bool) -> bool:
    """Whether some window entry of the residual exceeds tol*|terms|,
    with |terms| the relation rebuilt in the magnitude context.  The
    rounding error of an entry is a small multiple of u*|terms| (u the
    unit roundoff), however large the terms that cancel in it."""
    terms = rel.builder(MagnitudeContext(nctx), flip).entries
    nus = nctx.space.nus
    return any(nus[s] <= window.max_nu and not abs(v) <= tol * terms.get((d, s), 0.0)
               for (d, s), v in res.entries.items())


def _check_numeric(rel: Relation, nctx, tol: float, flip: bool = False) -> Report:
    t0 = time.perf_counter()
    res = rel.builder(nctx, flip)
    window = _window(rel.name, nctx.space, res)
    worst, pair = 0.0, None
    for (d, s), v in res.entries.items():
        if nctx.space.nus[s] <= window.max_nu and abs(v) > worst:
            worst, pair = abs(v), (s, d)
    bad = None
    if not worst <= tol:
        # The flip partner restores the cancelled term, so half its peak
        # magnitude estimates the size of either side of the identity.
        # The bound is never below tol, so the partner is built only
        # for a residual past tol, the only one whose verdict it decides.
        partner = rel.builder(nctx, not flip)
        bound = tol * (1.0 + 0.5 * partner.max_abs_on(window))
        if not worst <= bound and _past_terms(rel, nctx, res, window, tol, flip):
            src, dst = nctx.space.states[pair[0]], nctx.space.states[pair[1]]
            bad = (f"{src} -> {dst}", f"{worst:.6e} > tol {bound:.6e}")
    return _report(t0, bad, rel.name, rel.family, rel.anchor, numeric_mode(nctx.q),
                   nctx.space.cutoff, window.max_nu, expected=rel.expect_holds,
                   note=rel.note)


def _resolve_relation(rel, family: str | None = None) -> Relation:
    if isinstance(rel, Relation):
        return rel
    if isinstance(rel, tuple):
        return find_relation(*rel)
    if family is None:
        raise ValueError("family is required when naming a relation by string")
    return find_relation(family, rel)


def check_relation(
    rel,
    cutoff: int = DEFAULT_CUTOFF,
    mode: str = "exact",
    *,
    family: str | None = None,
    q: float = 0.7,
    tol: float = DEFAULT_TOL,
    mutate: bool = False,
    gens: GeneratorSet | None = None,
) -> Report:
    """Check one catalog relation.

    ``rel`` is a Relation, a (family, name) pair, or a name string with
    ``family`` given.  ``mode`` is "exact" (reported as ExactMonomial, or
    SquaredExact when the residual carries a square-root flag) or
    "numeric" (reported as NumericAt(q)).  ``mutate`` flips one term of
    the relation, which must turn the verdict to Fails for any relation
    that genuinely constrains its coefficients.
    """
    require_tol(tol)
    rel = _resolve_relation(rel, family)
    gens = _gens(rel.family, cutoff, gens)
    if mode == "exact":
        return _check_exact(rel, exact_context(gens), flip=mutate)
    if mode == "numeric":
        return _check_numeric(rel, numeric_context(gens, q), tol, flip=mutate)
    raise ValueError(f"unknown mode {mode!r}; choose 'exact' or 'numeric'")


def check_all(
    family: str,
    cutoff: int = DEFAULT_CUTOFF,
    qs=DEFAULT_QS,
    *,
    tol: float = DEFAULT_TOL,
    mutate: str | None = None,
    include_variants: bool = True,
    gens: GeneratorSet | None = None,
) -> list[Report]:
    """Exact plus numeric sweep of one family's full relation catalog."""
    require_tol(tol)
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; choose from {FAMILIES}")
    if cutoff < 8:
        raise ValueError(f"check_all needs cutoff >= 8; got {cutoff}")
    rels = relation_catalog(family) if include_variants else canonical_relations(family)
    if mutate is not None:
        find_relation(family, mutate)  # raises KeyError for unknown names
    gens = _gens(family, cutoff, gens)
    ctx = exact_context(gens)
    nctxs = [numeric_context(gens, q) for q in qs]
    reports = []
    for rel in rels:
        flip = rel.name == mutate
        reports.append(_check_exact(rel, ctx, flip=flip))
        for nctx in nctxs:
            reports.append(_check_numeric(rel, nctx, tol, flip=flip))
    return _sort_reports(reports)


# -- casimir spectra -----------------------------------------------------------


@dataclass(frozen=True)
class SpectrumRow:
    label: str
    state: FockState
    exact: QRationalFn
    series: str | None = None
    numeric: float | None = None


@dataclass(frozen=True)
class SpectrumTable:
    label: str
    rows: tuple[SpectrumRow, ...]
    safe_nu: int

    def text(self) -> str:
        lines = [self.label]
        width = max((len(r.label) for r in self.rows), default=0)
        for r in self.rows:
            line = f"  {r.label:<{width}}"
            if r.numeric is not None:
                line += f"  {r.numeric:.12g}"
            else:
                line += f"  {r.exact}"
            if r.series is not None:
                line += f"   {r.series}"
            lines.append(line.rstrip())
        return "\n".join(lines) + "\n"


def _frac_str(x) -> str:
    x = Q(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def _phi_q_str(m) -> str:
    m = abs(Q(m))
    if m == 0:
        return "-[1/2]"
    if m == Q(1, 2):
        return "-2[1/2]"
    return f"-[{_frac_str(m)}]-[1/2]"


def _series_label(name: str, st: FockState, value: QRationalFn) -> str | None:
    """Negative-root series label derived from the quadratic the casimir
    eigenvalue satisfies; appends a loud marker if the root check fails."""
    if name == "C2SU0":
        phi = -abs(st.m) - Q(1, 2)
        ok = value == QRationalFn.from_scalar(phi * (phi + 1))
        return f"phi={_frac_str(phi)}" + ("" if ok else " (quadratic mismatch)")
    if name in ("C2SUp", "C2SUm"):
        n = st.n1 if name == "C2SUp" else st.nm1
        phi = Q(-1, 4) if n % 2 == 0 else Q(-3, 4)
        alpha = Q(2 * n + 1, 4)
        ok = value == QRationalFn.from_scalar(phi * (phi + 1))
        label = f"phi={_frac_str(phi)} alpha={_frac_str(alpha)}"
        return label + ("" if ok else " (quadratic mismatch)")
    if name == "K02":
        phi = -q_bracket(abs(st.m)) - q_bracket(Q(1, 2))
        ok = value == phi * (phi + 2 * q_bracket(Q(1, 2)))
        return f"phi_q={_phi_q_str(st.m)}" + ("" if ok else " (quadratic mismatch)")
    if name in ("C2SUqp", "C2SUqm"):
        n = st.n1 if name == "C2SUqp" else st.nm1
        quarter, half2 = q_bracket(Q(1, 4), 2), q_bracket(Q(1, 2), 2)
        phi = (quarter - half2) if n % 2 == 0 else (-quarter - half2)
        txt = "[1/4]_2-[1/2]_2" if n % 2 == 0 else "-[1/4]_2-[1/2]_2"
        ok = value == phi * (phi + 2 * half2)
        return f"qphi={txt}" + ("" if ok else " (quadratic mismatch)")
    return None


def casimir_table(
    name: str,
    cutoff: int = DEFAULT_CUTOFF,
    sector: str = "all",
    *,
    q: float | None = None,
    weights=None,
    gens: GeneratorSet | None = None,
) -> SpectrumTable:
    """Diagonal spectrum of a casimir over its safe subspace.

    Rows carry the exact eigenvalue, the derived discrete-series label
    (negative-root convention) where one exists, and the numeric value
    when ``q`` is given (q = 1 is evaluated as the exact limit).
    """
    if sector not in CASIMIR_SECTORS:
        raise ValueError(f"unknown sector {sector!r}; choose from {CASIMIR_SECTORS}")
    if q is not None:
        require_q(q)
    fam = casimir_family(name)
    gens = _gens(fam, cutoff, gens)
    op = casimir(name, gens, weights=weights)
    safe_nu = gens.space.cutoff - max(op.climb, 0)
    if safe_nu < 0:
        raise ValueError(f"cutoff {gens.space.cutoff} too small for casimir {name}")
    window = SafeSubspace(gens.space, safe_nu)
    try:
        spec = diagonal_spectrum(op, window)
    except ValueError as exc:
        raise NotDiagonalError(f"casimir {name}: {exc}") from None
    rows = []
    for st, val in spec:
        if sector != "all" and st.parity != (1 if sector == "odd" else 0):
            continue
        numeric = None
        if q is not None:
            numeric = float(limit_q1(val)) if q == 1.0 else val(q)
        rows.append(SpectrumRow(f"nu={st.nu} m={_frac_str(st.m)} {st}", st, val,
                                _series_label(name, st, val), numeric))
    title = f"{name} spectrum (family {fam}, cutoff {gens.space.cutoff}, nu <= {safe_nu})"
    return SpectrumTable(title, tuple(rows), safe_nu)


def casimir_closed_form(name: str, weights=None):
    """Expected exact eigenvalue of each casimir as a function of the state."""
    if name == "I2":
        return lambda st: QRationalFn.from_scalar(Q(st.nu, 2) * (Q(st.nu, 2) + 1))
    if name == "C2SU0":
        return lambda st: QRationalFn.from_scalar(st.m * st.m - Q(1, 4))
    if name in ("C2SUp", "C2SUm"):
        return lambda st: QRationalFn.from_scalar(Q(-3, 16))
    if name == "J2":
        return lambda st: q_bracket(st.j) * q_bracket(st.j + 1)
    if name == "K02":
        half = q_bracket(Q(1, 2))
        return lambda st: q_bracket(st.m) * q_bracket(st.m) - half * half
    if name in ("C2SUqp", "C2SUqm"):
        half = q_bracket(Q(1, 2))
        num = half * half - 1
        const = QRationalFn(num.num, num.den * q_int(2) * q_int(2))
        return lambda st: const
    if name == "L2":
        return lambda st: QRationalFn(q_int(st.nu) * q_int(st.nu + 2), q_int(2))
    if name == "S2":
        if weights is None:
            weights = (1, 1, 1, 1)
        s1, s2, s3, s4 = (Q(w) for w in weights)

        def fn(st: FockState) -> QRationalFn:
            n = st.nu
            poly = (
                q_int(n) * q_int(n - 1) * s1
                + q_int(n + 2) * q_int(n + 3) * s2
                + q_int(n) * q_int(n + 2) * s3
                + q_int(n) * q_int(n) * s4
            )
            return QRationalFn(poly)

        return fn
    raise ValueError(f"unknown casimir {name!r}; choose from {CASIMIR_NAMES}")


def check_casimir_spectrum(
    name: str,
    cutoff: int = DEFAULT_CUTOFF,
    *,
    weights=None,
    qs=DEFAULT_QS,
    tol: float = SCALAR_TOL,
    gens: GeneratorSet | None = None,
) -> Report:
    """Exact match of a casimir's spectrum against its closed form, plus
    numeric agreement of the two evaluations at sampled q."""
    require_tol(tol)
    for qv in qs:
        require_q(qv)
    t0 = time.perf_counter()
    fam = casimir_family(name)
    gens = _gens(fam, cutoff, gens)
    table = casimir_table(name, gens.space.cutoff, gens=gens, weights=weights)
    expect = casimir_closed_form(name, weights=weights)

    def first_failure():
        for row in table.rows:
            want = expect(row.state)
            if not (row.exact == want):
                return str(row.state), f"got {row.exact}; expected {want}"
            if row.series is not None and "mismatch" in row.series:
                return str(row.state), f"series label root check failed: {row.series}"
            for qv in qs:
                got, ref = row.exact(qv), want(qv)
                if abs(got - ref) > tol * (1.0 + abs(ref)):
                    return (str(row.state),
                            f"numeric {got!r} vs {ref!r} at q={q_text(qv)}")
        return None

    wtxt = "" if weights is None else f" weights={tuple(map(str, weights))}"
    return _report(
        t0, first_failure(), f"casimir {name} closed form{wtxt}", fam,
        f"casimir:{name}", MODE_EXACT, gens.space.cutoff, table.safe_nu,
    )


# -- spectrum tables (discrete series) ------------------------------------------


def _two_row_block(top_label: str, bottom_label: str, tops, bottoms) -> list[str]:
    """Fixed-width paired rows, value row above quantum-label row."""
    width = max(len(top_label), len(bottom_label))
    cells = [(str(t), str(b)) for t, b in zip(tops, bottoms)]
    widths = [max(len(t), len(b)) for t, b in cells]
    top = f"  {top_label:<{width}} |"
    bot = f"  {bottom_label:<{width}} |"
    for (t, b), w in zip(cells, widths):
        top += f" {t:>{w}}"
        bot += f" {b:>{w}}"
    return [top, bot]


def _ladder_values(table: SpectrumTable, key) -> dict:
    """Map key(state) -> exact eigenvalue, asserting ladder constancy."""
    out = {}
    for row in table.rows:
        k = key(row.state)
        if k in out:
            if not (out[k] == row.exact):
                raise AssertionError(f"eigenvalue not constant on ladder {k}")
        else:
            out[k] = row.exact
    return out


def spectrum_table_text(key: str, cutoff: int = DEFAULT_CUTOFF) -> str:
    """Render one of the discrete-series spectrum tables.

    Every displayed value is computed from the corresponding operator's
    spectrum and checked against the quadratic-solution rule before
    rendering; a failed check raises instead of printing a wrong table.
    """
    tables = {"phi-ladder": _table_phi_ladder, "alpha-discrete": _table_alpha_discrete,
              "phi-q": _table_phi_q, "qphi-alpha": _table_qphi_alpha}
    if key not in tables:
        raise ValueError(f"unknown table {key!r}; choose from {SPECTRUM_TABLE_KEYS}")
    return tables[key](cutoff)


def _table_phi_ladder(cutoff: int) -> str:
    gens = build("classical", FockSpace(cutoff))
    table = casimir_table("C2SU0", gens=gens)
    by_m = _ladder_values(table, lambda st: st.m)
    a0 = {st: val for st, val in diagonal_spectrum(
        gens["A0"], SafeSubspace(gens.space, table.safe_nu))}
    lines = [
        f"phi-ladder: su0(1,1) discrete series (cutoff {cutoff}, nu <= {table.safe_nu})",
        "C2(SU0(1,1)) = (I0 + 1/2)(I0 - 1/2);"
        " phi is the negative root of phi(phi + 1) = C2.",
        "A0 spectrum on each ladder: alpha0 = (nu + 1)/2 = -phi, -phi + 1, ...",
    ]
    for sign, head in ((-1, "phi_1 (i0 <= 0)"), (1, "phi_2 (i0 >= 0)")):
        i0s = sorted((m for m in by_m if sign * m >= 0), key=abs)
        phis = []
        for m in i0s:
            phi = -abs(m) - Q(1, 2)
            if by_m[m] != QRationalFn.from_scalar(phi * (phi + 1)):
                raise AssertionError(f"phi root check failed at i0={m}")
            # ladder start: lowest shell on the ladder has nu = |2 i0|
            start = FockState(int(max(2 * m, 0)), int(max(-2 * m, 0)))
            if a0[start] != QRationalFn.from_scalar(-phi):
                raise AssertionError(f"alpha0 series start mismatch at i0={m}")
            phis.append(phi)
        lines.append("")
        lines.append(f"{head}:")
        lines += _two_row_block(
            "phi", "i_0", [_frac_str(p) for p in phis], [_frac_str(m) for m in i0s]
        )
    return "\n".join(lines) + "\n"


def _table_alpha_discrete(cutoff: int) -> str:
    gens = build("classical", FockSpace(cutoff))
    for name in ("C2SUp", "C2SUm"):
        table = casimir_table(name, gens=gens)
        for row in table.rows:
            if row.exact != QRationalFn.from_scalar(Q(-3, 16)):
                raise AssertionError(f"{name} not constant -3/16 at {row.state}")
    full = SafeSubspace(gens.space, gens.space.cutoff)
    ap = {st: val for st, val in diagonal_spectrum(gens["Ap"], full)}
    am = {st: val for st, val in diagonal_spectrum(gens["Am"], full)}
    for st in gens.space.states:
        if ap[st] != QRationalFn.from_scalar(Q(2 * st.n1 + 1, 4)):
            raise AssertionError(f"A+ eigenvalue mismatch at {st}")
        if am[st] != QRationalFn.from_scalar(Q(2 * st.nm1 + 1, 4)):
            raise AssertionError(f"A- eigenvalue mismatch at {st}")
    lines = [
        f"alpha-discrete: su+(1,1) and su-(1,1) discrete series (cutoff {cutoff})",
        "C2(SU+-(1,1)) = -3/16 on every state (verified);"
        " roots of phi(phi + 1) = -3/16 are -1/4 and -3/4.",
        "A+- spectrum alpha+- = (nu+-1 + 1/2)/2 (verified on every state).",
    ]
    for phi, parity, head in (
        (Q(-1, 4), 0, "phi = -1/4 (nu+-1 even)"),
        (Q(-3, 4), 1, "phi = -3/4 (nu+-1 odd)"),
    ):
        if phi * (phi + 1) != Q(-3, 16):
            raise AssertionError("phi root check failed")
        nus = [n for n in range(cutoff + 1) if n % 2 == parity]
        alphas = [Q(2 * n + 1, 4) for n in nus]
        if alphas[0] != -phi:
            raise AssertionError("alpha series start mismatch")
        lines.append("")
        lines.append(f"{head}:")
        lines += _two_row_block(
            "alpha", "nu+-1", [_frac_str(a) for a in alphas], [str(n) for n in nus]
        )
    return "\n".join(lines) + "\n"


def _table_phi_q(cutoff: int) -> str:
    gens = build("qboson", FockSpace(cutoff))
    table = casimir_table("K02", gens=gens)
    by_m = _ladder_values(table, lambda st: st.m)
    half = q_bracket(Q(1, 2))
    lines = [
        f"phi-q: su_q0(1,1) deformed discrete series (cutoff {cutoff}, nu <= {table.safe_nu})",
        "(K0)^2 = ([m] + [1/2])([m] - [1/2]);"
        " phi_q is the negative root of phi(phi + 2[1/2]) = (K0)^2.",
        "J0 stays undeformed and removes the m <-> -m degeneracy.",
    ]
    for sign, head in ((-1, "phi_1^q (m <= 0)"), (1, "phi_2^q (m >= 0)")):
        ms = sorted((m for m in by_m if sign * m >= 0), key=abs)
        labels = []
        for m in ms:
            phi = -q_bracket(abs(m)) - half
            if not (by_m[m] == phi * (phi + 2 * half)):
                raise AssertionError(f"phi_q root check failed at m={m}")
            labels.append(_phi_q_str(m))
        lines.append("")
        lines.append(f"{head}:")
        lines += _two_row_block("phi_q", "m", labels, [_frac_str(m) for m in ms])
    lines.append("")
    lines.append(
        "note: for m >= 0 the negative root is the phi_2^q = -[m]-[1/2] branch;"
    )
    lines.append(
        "its displayed values coincide with the phi_1^q column at -m,"
        " since both depend only on |m|."
    )
    return "\n".join(lines) + "\n"


def _table_qphi_alpha(cutoff: int) -> str:
    gens = build("qboson", FockSpace(cutoff))
    half = q_bracket(Q(1, 2))
    num = half * half - 1
    const = QRationalFn(num.num, num.den * q_int(2) * q_int(2))
    quarter2, half2 = q_bracket(Q(1, 4), 2), q_bracket(Q(1, 2), 2)
    if not (const == (quarter2 - half2) * (quarter2 + half2)):
        raise AssertionError("factorized casimir constant mismatch")
    for name in ("C2SUqp", "C2SUqm"):
        table = casimir_table(name, gens=gens)
        for row in table.rows:
            if not (row.exact == const):
                raise AssertionError(f"{name} not constant at {row.state}")
    roots = (quarter2 - half2, -quarter2 - half2)
    for phi in roots:
        if not (const == phi * (phi + 2 * half2)):
            raise AssertionError("qphi root check failed")
    if limit_q1(roots[0]) != Q(-1, 4) or limit_q1(roots[1]) != Q(-3, 4):
        raise AssertionError("qphi classical limit mismatch")
    full = SafeSubspace(gens.space, gens.space.cutoff)
    for opname, pick in (("Kp0", lambda st: st.n1), ("Km0", lambda st: st.nm1)):
        for st, val in diagonal_spectrum(gens[opname], full):
            if val != QRationalFn.from_scalar(Q(2 * pick(st) + 1, 4)):
                raise AssertionError(f"K0 weight spectrum mismatch at {st}")
    lines = [
        f"qphi-alpha: su_q+-(1,1) deformed discrete series identification (cutoff {cutoff})",
        "C2(SU_q+-(1,1)) = ([1/2]^2 - 1)/[2]^2"
        " = ([1/4]_2 - [1/2]_2)([1/4]_2 + [1/2]_2) on every state (verified).",
        "Roots of qphi(qphi + 2[1/2]_2) = C2 (verified), with q -> 1 limit:",
        "  qphi_1 =  [1/4]_2 - [1/2]_2  ->  -1/4"
        "   (nu+-1 even: alpha = 1/4, 5/4, 9/4, ...)",
        "  qphi_2 = -[1/4]_2 - [1/2]_2  ->  -3/4"
        "   (nu+-1 odd:  alpha = 3/4, 7/4, 11/4, ...)",
        "K0+- spectrum stays undeformed: alpha = (nu+-1 + 1/2)/2"
        " (verified on every state).",
    ]
    return "\n".join(lines) + "\n"


# -- pyramids -------------------------------------------------------------------


def pyramid_text(labels: str = "pairs", sector: str = "even", rows: int = 4) -> str:
    """Fixed-width pyramid of basis states, rows keyed by nu and columns
    by i0 descending.  ``labels`` selects pair labels |nu1,nu-1> or one
    of the two triple-label conventions."""
    if labels not in PYRAMID_LABELS:
        raise ValueError(f"unknown labels {labels!r}; choose from {PYRAMID_LABELS}")
    if sector not in ("even", "odd"):
        raise ValueError(f"unknown sector {sector!r}; choose 'even' or 'odd'")
    if labels != "pairs" and sector == "odd":
        raise ValueError("triple labels live in the even sector")
    if rows < 1:
        raise ValueError("need at least one row")
    if sector == "even":
        nus = [2 * r for r in range(rows)]
        cols = [Q(k) for k in range(rows - 1, -rows, -1)]
    else:
        nus = [2 * r + 1 for r in range(rows)]
        top = Q(2 * rows + 1, 2)
        cols = [top - k for k in range(2 * rows + 2)]
    conv = {
        "triple-min": TripleConvention.MIN_N0,
        "triple-max": TripleConvention.MAX_N0,
    }.get(labels)
    grid = []
    for nu in nus:
        row = []
        for i0 in cols:
            x, y = Q(nu, 2) + i0, Q(nu, 2) - i0
            if x < 0 or y < 0 or x.denominator != 1:
                row.append("")
                continue
            st = FockState(int(x), int(y))
            row.append(str(st if conv is None else triple_from_pair(st, conv)))
        grid.append(row)
    headers = ["nu/i0"] + [_frac_str(c) for c in cols]
    widths = [len(headers[0])] + [
        max(len(headers[j + 1]), max(len(row[j]) for row in grid))
        for j in range(len(cols))
    ]
    lines = [" | ".join(f"{h:>{w}}" for h, w in zip(headers, widths)).rstrip()]
    lines.append("-+-".join("-" * w for w in widths))
    for nu, row in zip(nus, grid):
        cells = [str(nu)] + row
        lines.append(" | ".join(f"{c:>{w}}" for c, w in zip(cells, widths)).rstrip())
    return "\n".join(lines) + "\n"


# -- basis constructions --------------------------------------------------------


def _column_is(op, src: FockState, dst: FockState, want: LaurentPoly,
               want_flag: LaurentPoly | None = None) -> str | None:
    """None when op|src> = want|dst> exactly (single-entry column), else why not."""
    col = op.column(src)
    if set(col) != {dst}:
        return f"image support {sorted(map(str, col))} != {{{dst}}}"
    if op.sqrt_sq != want_flag:
        return f"sqrt flag {op.sqrt_sq} != {want_flag}"
    if QRationalFn(col[dst], op.den) != QRationalFn(want):
        return f"coefficient ({col[dst]}) / ({op.den}) != {want}"
    return None


def _eta_exponent(n1: int, n0: int, nm1: int) -> Q:
    return Q(n1 - nm1, 2) + n1 * n0 + nm1 * n0 + 2 * n1 * nm1


def _basis_ts(gens: GeneratorSet):
    """(t1+)^x (t-1+)^y |0> = q^((x-y)/4 + xy/2) |x,y>."""
    vac = FockState(0, 0)
    count = 0
    kets = [QOperator.ket(gens.space, vac)]  # kets[y] = (t1+)^x (t-1+)^y |0>
    for _ in range(gens.space.cutoff):
        kets.append(gens["tdm1"] @ kets[-1])
    for x in range(gens.space.cutoff + 1):
        for y, ket in enumerate(kets):
            want = q_power(Q(x - y, 4) + Q(x * y, 2))
            bad = _column_is(ket, vac, FockState(x, y), want)
            if bad is not None:
                return (f"|{x},{y}>", bad), count
            count += 1
        kets = [gens["td1"] @ ket for ket in kets[:-1]]
    return None, count


def _triple_monomial(gens: GeneratorSet, n1: int, n0: int, nm1: int, dst: FockState):
    """(T1)^n1 (T0)^n0 (T-1)^n-1 |0><0|, and None when it is
    q^E [2]^(n0//2) sqrt([2])^(n0%2) |dst><0|, else the reason it is not."""
    op = act([(gens["T1"], n1), (gens["T0"], n0), (gens["Tm1"], nm1)],
             QOperator.ket(gens.space, FockState(0, 0)))
    want = q_power(_eta_exponent(n1, n0, nm1)) * q_int(2) ** (n0 // 2)
    return op, _column_is(op, FockState(0, 0), dst, want, q_int(2) if n0 % 2 else None)


def _basis_eta(gens: GeneratorSet):
    """(T1)^n1 (T0)^n0 (T-1)^n-1 |0> = q^E [2]^(n0//2) sqrt([2])^(n0%2)
    |2 n1 + n0, 2 n-1 + n0> with E = (n1 - n-1)/2 + n1 n0 + n-1 n0 + 2 n1 n-1."""
    half_cut = gens.space.cutoff // 2
    count = 0
    for n1 in range(half_cut + 1):
        for n0 in range(half_cut + 1 - n1):
            for nm1 in range(half_cut + 1 - n1 - n0):
                dst = FockState(2 * n1 + n0, 2 * nm1 + n0)
                _, bad = _triple_monomial(gens, n1, n0, nm1, dst)
                if bad is not None:
                    return (f"|{n1},{n0},{nm1}>", bad), count
                count += 1
    return None, count


def _basis_spb(gens: GeneratorSet, convention: TripleConvention):
    """Triple labels resolve every even state, and the labelled monomial
    lands on exactly that state with the stated coefficient and squared
    normalization q^(2E) [2]^n0 [nu1]! [nu-1]!."""
    count = 0
    for st in gens.space.even_states():
        t = triple_from_pair(st, convention)
        op, bad = _triple_monomial(gens, t.n1, t.n0, t.nm1, st)
        if bad is None:
            norm2 = gram_squared_element(op, st, FockState(0, 0))
            stated = QRationalFn(
                q_power(2 * _eta_exponent(t.n1, t.n0, t.nm1))
                * q_int(2) ** t.n0 * q_factorial(st.n1) * q_factorial(st.nm1)
            )
            if not (norm2 == stated):
                bad = f"norm^2 {norm2} != {stated}"
        if bad is not None:
            return (f"{t} -> {st}", bad), count
        count += 1
    return None, count


def _basis_rtt(gens: GeneratorSet):
    """(T0)^2 |0> = q^-2 [2] T1 T-1 |0> = q^+2 [2] T-1 T1 |0>."""
    vac = FockState(0, 0)
    ket = QOperator.ket(gens.space, vac)
    lhs = act([(gens["T0"], 2)], ket)
    count = 0
    for rho, a, b in ((-2, "T1", "Tm1"), (2, "Tm1", "T1")):
        rhs = act([(gens[a], 1), (gens[b], 1)], ket).scale(q_power(rho) * q_int(2))
        lcol, rcol = lhs.column(vac), rhs.column(vac)
        for st in set(lcol) | set(rcol):
            lv = QRationalFn(lcol.get(st, LaurentPoly.zero()), lhs.den)
            rv = QRationalFn(rcol.get(st, LaurentPoly.zero()), rhs.den)
            if not (lv == rv):
                return (str(st), f"(T0)^2 vs q^{rho:+d}[2] {a} {b}: {lv} != {rv}"), count
            count += 1
    return None, count


# which -> (mode, anchor, check, note), in BASIS_CHECKS order; each check
# returns (first failure or None, instances checked).
_BASIS_TABLE = {
    "ts": (MODE_EXACT, "basis:ts", _basis_ts, None),
    "spb_minN0": (
        MODE_SQUARED, "basis:spb-min-n0",
        lambda gens: _basis_spb(gens, TripleConvention.MIN_N0), None,
    ),
    "spb_maxN0": (
        MODE_SQUARED, "basis:spb-max-n0",
        lambda gens: _basis_spb(gens, TripleConvention.MAX_N0),
        "mirror-branch coefficient verified as q^(-n_-1/2 + n_-1 n_0)"
        " on |0,n0,n-1> states (corrected display)",
    ),
    "eta": (MODE_SQUARED, "basis:eta", _basis_eta, None),
    "rtt": (MODE_EXACT, "basis:rtt", _basis_rtt, None),
}


def check_basis_construction(
    which: str,
    cutoff: int = DEFAULT_CUTOFF,
    *,
    gens: GeneratorSet | None = None,
) -> Report:
    """Check one vacuum-built basis construction exactly.

    ``which`` is ts (deformed-spinor pairs), eta (symplecton triples with
    their normalization), spb_minN0 / spb_maxN0 (the two triple-label
    conventions resolve every even state), or rtt (the T0-squared
    transition on the vacuum).
    """
    if which not in BASIS_CHECKS:
        raise ValueError(f"unknown basis check {which!r}; choose from {BASIS_CHECKS}")
    have = cutoff if gens is None else gens.space.cutoff
    if have < 6:
        raise ValueError(f"check_basis_construction needs cutoff >= 6; got {have}")
    gens = _gens("tensor", cutoff, gens)
    mode, anchor, check, note = _BASIS_TABLE[which]
    t0 = time.perf_counter()
    bad, count = check(gens)
    if bad is None:
        note = (note + "; " if note else "") + f"{count} instances"
    cutoff = gens.space.cutoff
    return _report(t0, bad, f"basis {which}", "tensor", anchor, mode, cutoff,
                   cutoff, note=note)


def check_all_bases(cutoff: int = DEFAULT_CUTOFF, *, gens=None) -> list[Report]:
    gens = _gens("tensor", cutoff, gens)
    return [check_basis_construction(w, gens=gens) for w in BASIS_CHECKS]


# -- ladder actions -------------------------------------------------------------


def _ladder_cases(max_n: int):
    """(name, op name, source state, k-range, target, q-exponent, factorial
    ratio, squared normalized element) for the four displayed ladder
    actions.  The squared element is coeff^2 * G(dst)/G(src); the edge
    rows give q^(-+k(2n-k)) [2n]! [k]! / [2n-k]!, the center diagonals
    q^(+-k^2) [n+k]! / [n-k]!.
    """
    def edge_sq(k, n, sign):
        return QRationalFn(
            q_power(sign * k * (2 * n - k)) * q_factorial(2 * n) * q_factorial(k),
            q_factorial(2 * n - k),
        )

    def center_sq(k, n, sign):
        return QRationalFn(
            q_power(sign * k * k) * q_factorial(n + k), q_factorial(n - k)
        )

    for n in range(1, max_n + 1):
        yield (
            "top-row lowering", "Lm1", FockState(2 * n, 0), 2 * n,
            lambda k, n=n: FockState(2 * n - k, k),
            lambda k, n=n: Q(k * k - 2 * n * k, 2),
            lambda k, n=n: (2 * n, 2 * n - k),
            lambda k, n=n: edge_sq(k, n, -1),
        )
        yield (
            "center lowering", "Lm1", FockState(n, n), n,
            lambda k, n=n: FockState(n - k, n + k),
            lambda k, n=n: Q(k * k, 2),
            lambda k, n=n: (n, n - k),
            lambda k, n=n: center_sq(k, n, 1),
        )
        yield (
            "bottom-row raising", "L1", FockState(0, 2 * n), 2 * n,
            lambda k, n=n: FockState(k, 2 * n - k),
            lambda k, n=n: Q(k * (2 * n - k), 2),
            lambda k, n=n: (2 * n, 2 * n - k),
            lambda k, n=n: edge_sq(k, n, 1),
        )
        yield (
            "center raising", "L1", FockState(n, n), n,
            lambda k, n=n: FockState(n + k, n - k),
            lambda k, n=n: Q(-k * k, 2),
            lambda k, n=n: (n, n - k),
            lambda k, n=n: center_sq(k, n, -1),
        )


def check_ladder_actions(
    cutoff: int = DEFAULT_CUTOFF,
    *,
    max_n: int | None = None,
    qs=DEFAULT_QS,
    tol: float = DEFAULT_TOL,
    gens: GeneratorSet | None = None,
) -> list[Report]:
    """The four displayed ladder-operator actions, their endpoint
    identities, the squared normalized matrix elements, the L0 weight
    eigenvalue, and numeric signed values at sampled q."""
    require_tol(tol)
    if max_n is not None and max_n < 1:
        raise ValueError(f"ladder checks need max_n >= 1; got {max_n}")
    gens = _gens("tensor", cutoff, gens)
    cutoff = gens.space.cutoff
    if max_n is None:
        max_n = min(5, cutoff // 2)
    if cutoff < 2 * max_n:
        raise ValueError(f"ladder checks with n = {max_n} need cutoff >= {2 * max_n}")

    def report(t0, bad, name, mode=MODE_EXACT, note=None, share=1):
        return _report(t0, bad, f"ladder {name}", "tensor", "ladder:L-actions",
                       mode, cutoff, cutoff, note=note, share=share)

    # exact columns, per displayed formula: one pass yields five reports
    failures = {}
    sq_failure = None
    t0 = time.perf_counter()
    for name, opname, src, kmax, dst_f, exp_f, fact_f, sq_f in _ladder_cases(max_n):
        op = QOperator.ket(gens.space, src)  # (opname)^k |src><src|
        for k in range(kmax + 1):
            if k:
                op = gens[opname] @ op
            hi, lo = fact_f(k)
            dst = dst_f(k)
            col = op.column(src)
            lhs = QRationalFn(col.get(dst, LaurentPoly.zero()), op.den)
            rhs = QRationalFn(q_power(exp_f(k)) * q_factorial(hi), q_factorial(lo))
            if set(col) != {dst} or not (lhs == rhs):
                failures.setdefault(name, (f"{src}, k={k}", f"{lhs} != {rhs}"))
            sq = gram_squared_element(op, dst, src)
            if not (sq == sq_f(k)) and sq_failure is None:
                sq_failure = (f"{src}, k={k} ({name})", f"{sq} != {sq_f(k)}")
    reports = [
        report(t0, failures.get(name), name, share=5,
               note="includes the k = 2n endpoint [2n]! identities"
               if "row" in name else None)
        for name in ("top-row lowering", "center lowering",
                     "bottom-row raising", "center raising")
    ]
    reports.append(report(t0, sq_failure, "squared elements", MODE_SQUARED, share=5))

    # L0 weight eigenvalue: (1/[2]) (q [nu1][nu-1 + 1] - q^-1 [nu-1][nu1 + 1])
    def weight_eigenvalue():
        for st, val in diagonal_spectrum(gens["L01"], SafeSubspace(gens.space, cutoff)):
            want = QRationalFn(
                q_power(1) * q_int(st.n1) * q_int(st.nm1 + 1)
                - q_power(-1) * q_int(st.nm1) * q_int(st.n1 + 1),
                q_int(2),
            )
            if not (val == want):
                return str(st), f"{val} != {want}"
        return None

    reports.append(report(time.perf_counter(), weight_eigenvalue(), "weight eigenvalue"))

    # numeric signed entries at sampled q: positive square root of the
    # squared normalized element, since the coefficients are positive at q > 0
    def numeric_entries(qv):
        nctx = numeric_context(gens, qv)
        for name, opname, src, kmax, dst_f, exp_f, fact_f, sq_f in _ladder_cases(max_n):
            si = gens.space.index(src)
            nop = NumOp.ket(gens.space, qv, src)
            for k in range(kmax + 1):
                if k:
                    nop = nctx[opname] @ nop
                got = nop.entries.get((gens.space.index(dst_f(k)), si), 0.0)
                want = sq_f(k)(qv) ** 0.5
                if abs(got - want) > tol * (1.0 + abs(want)):
                    return f"{src}, k={k} ({name})", f"{got!r} != {want!r}"
        return None

    for qv in qs:
        reports.append(report(time.perf_counter(), numeric_entries(qv),
                              f"numeric entries q={q_text(qv)}", numeric_mode(qv)))
    return reports


# -- series expansions ----------------------------------------------------------


def _bracket_ratio_coeffs(n: int) -> list[Q]:
    """Taylor coefficients in tau of [n]/n up to tau^4."""
    return [
        Q(1), Q(0), Q(n * n - 1, 6), Q(0),
        Q(1, 12) * (Q(n ** 4, 10) - Q(n * n, 3) + Q(7, 30)),
    ]


def _bracket_power_coeffs(n: int, m: int, sign: int) -> list[Q]:
    """Taylor coefficients in tau of [n] q^(sign m) up to tau^3."""
    return [
        Q(n), Q(sign * n * m),
        Q(n, 6) * (3 * m * m + n * n - 1),
        Q(sign * n * m, 6) * (n * n - 1 + m * m),
    ]


def _scaling_check(poly, coeffs: list[Q], order: int) -> float:
    """Two-point remainder scaling; returns the excess factor (<= 1 passes).

    err(tau) should shrink like tau^(order + 1); with C estimated at
    tau = 1e-2, the 1e-3 error must stay below 4 C (1e-3)^(order + 1).
    """
    import mpmath as mp

    with mp.workdps(50):
        taus = (mp.mpf("1e-2"), mp.mpf("1e-3"))
        errs = []
        for tau in taus:
            val = poly.eval_mp(mp.exp(tau))
            approx = mp.mpf(0)
            for j, c in enumerate(coeffs):
                approx += mp.mpf(c.numerator) / mp.mpf(c.denominator) * tau ** j
            errs.append(abs(val - approx))
        c1 = errs[0] / taus[0] ** (order + 1)
        bound = 4 * c1 * taus[1] ** (order + 1) + mp.mpf("1e-40")
        return float(errs[1] / bound)


def check_series_expansions(max_n: int = 6) -> list[Report]:
    """Exact tau-Taylor coefficients and two-point remainder scaling for
    the bracket-ratio and bracket-power expansions."""
    if max_n < 1:
        raise ValueError(f"series checks need max_n >= 1; got {max_n}")
    pairs = [(nk, nmk, sign) for nk in range(1, max_n + 1)
             for nmk in range(1, max_n + 1) if nk + nmk <= max_n + 2
             for sign in (1, -1)]

    # [n]/n = 1 + (n^2 - 1)/6 tau^2 + ((n^4/10 - n^2/3 + 7/30)/12) tau^4 + O(tau^6)
    def ratio_coefficients():
        for n in range(1, max_n + 1):
            got = taylor_coefficients(q_bracket(n), 4)
            want = [c * n for c in _bracket_ratio_coeffs(n)]
            if got != want:
                return f"n={n}", f"{got} != {want}"
        return None

    def ratio_remainder():
        for n in range(1, max_n + 1):
            ratio = QRationalFn(q_int(n), LaurentPoly.const(n))
            excess = _scaling_check(ratio, _bracket_ratio_coeffs(n), order=5)
            if excess > 1.0:
                return f"n={n}", f"remainder excess factor {excess:.3g}"
        return None

    # [n_k] q^(+-n_-k) up to tau^3, remainder O(tau^4)
    def power_coefficients():
        for nk, nmk, sign in pairs:
            got = taylor_coefficients(q_int(nk).shifted(4 * sign * nmk), 3)
            want = _bracket_power_coeffs(nk, nmk, sign)
            if got != want:
                return f"n_k={nk}, n_-k={nmk}, sign={sign:+d}", f"{got} != {want}"
        return None

    def power_remainder():
        for nk, nmk, sign in pairs:
            poly = QRationalFn(q_int(nk).shifted(4 * sign * nmk))
            excess = _scaling_check(poly, _bracket_power_coeffs(nk, nmk, sign), order=3)
            if excess > 1.0:
                return (f"n_k={nk}, n_-k={nmk}, sign={sign:+d}",
                        f"remainder excess factor {excess:.3g}")
        return None

    return [
        _report(time.perf_counter(), check(), f"series {name}", "scalar", anchor,
                mode, 0, 0, note="scalar series; no state-space truncation involved")
        for name, anchor, mode, check in (
            ("bracket ratio coefficients", "series:bracket-ratio", MODE_TAYLOR,
             ratio_coefficients),
            ("bracket ratio remainder", "series:bracket-ratio", MODE_SCALING,
             ratio_remainder),
            ("bracket power coefficients", "series:bracket-power", MODE_TAYLOR,
             power_coefficients),
            ("bracket power remainder", "series:bracket-power", MODE_SCALING,
             power_remainder),
        )
    ]


# -- structural invariants ------------------------------------------------------


def structural_checks(
    family: str,
    cutoff: int = DEFAULT_CUTOFF,
    qs=DEFAULT_QS,
    *,
    gens: GeneratorSet | None = None,
) -> list[Report]:
    """Parity commutation, parity block-diagonality, homogeneous
    nu-grading, and numeric adjointness of the declared conjugate pairs."""
    gens = _gens(family, cutoff, gens)
    space = gens.space
    states = space.states

    def parity_commutes():
        full, parity_op = SafeSubspace(space, space.cutoff), gens["P"]
        for name in gens.elements:
            hit = first_witness(parity_op @ gens[name] - gens[name] @ parity_op, full)
            if hit is not None:
                return f"{name}: {hit[0]} -> {hit[1]}", str(hit[2])
        return None

    def parity_blocks():
        for name in gens.elements:
            for (d, s) in gens[name].store:
                if states[d].parity != states[s].parity:
                    return f"{name}: {states[s]} -> {states[d]}", "crosses the parity blocks"
        return None

    def nu_grading():
        for name in gens.elements:
            shifts = {states[d].nu - states[s].nu for (d, s) in gens[name].store}
            if len(shifts) > 1:
                return name, f"mixed nu shifts {sorted(shifts)}"
        return None

    def adjoint_pairs(qv):
        nctx = numeric_context(gens, qv)
        for a, b in gens.adjoint_pairs:
            na, nb = nctx[a], nctx[b]
            worst = (na.transpose() - nb).max_abs()
            bound = 1e-12 * (1.0 + max(na.max_abs(), nb.max_abs()))
            if worst > bound:
                return f"({a})+ vs {b}", f"{worst:.6e} > tol {bound:.6e}"
        return None

    checks = [("parity commutes", MODE_EXACT, parity_commutes, None),
              ("parity blocks", MODE_EXACT, parity_blocks, None),
              ("nu grading homogeneous", MODE_EXACT, nu_grading,
               "every element shifts nu by one fixed amount")]
    checks += [(f"adjoint pairs q={q_text(qv)}", numeric_mode(qv),
                functools.partial(adjoint_pairs, qv), None) for qv in qs]
    return [
        _report(time.perf_counter(), check(), f"structure {name}", family,
                f"structure:{name}", mode, space.cutoff, space.cutoff, note=note)
        for name, mode, check, note in checks
    ]


# -- classical degeneration -----------------------------------------------------


def _entry_limit(op, key) -> Q:
    poly = op.entries.get(key)
    return Q(0) if poly is None else limit_q1(QRationalFn(poly, op.den))


def _limit_mismatch(gens: GeneratorSet, counter: Mapping):
    """First entry where a deformed generator at s = 1 differs from its
    classical counterpart, or None."""
    states = gens.space.states
    for name in sorted(counter):
        dop, cop = gens[name], counter[name]
        dflag = Q(dop.sqrt_sq.at_one()) if dop.sqrt_sq is not None else Q(1)
        cflag = Q(cop.sqrt_sq.at_one()) if cop.sqrt_sq is not None else Q(1)
        for key in set(dop.store) | set(cop.store):
            dv, cv = _entry_limit(dop, key), _entry_limit(cop, key)
            if dv * dv * dflag != cv * cv * cflag or (dv > 0) != (cv > 0):
                d, s = key
                return (f"{name}: {states[s]} -> {states[d]}",
                        f"limit {dv}*sqrt({dflag}) != {cv}*sqrt({cflag})")
    return None


def classical_degeneration(
    cutoff: int = DEFAULT_CUTOFF, families=("qboson", "tensor"), *, sets=None
) -> list[Report]:
    """s = 1 specialization of each deformed family.

    Entrywise: every deformed generator matrix equals its classical
    counterpart at s = 1 (square-root flags compared through their
    squares, with matching signs).  Relation replay: every canonical
    relation, rebuilt with classical scalar semantics (brackets become
    their arguments, q-powers become 1), vanishes on its safe subspace.
    Recorded variants are excluded: their coefficient readings differ
    only by q-powers, which are invisible at q = 1.

    ``sets(family)`` returns a family's generator set on FockSpace(cutoff);
    by default each is built once, on one space."""
    sets = sets or _shared_sets(cutoff)
    reports = []
    for family in families:
        if family not in ("qboson", "tensor"):
            continue
        gens, classical = sets(family), sets("classical")
        reports.append(_report(
            time.perf_counter(),
            _limit_mismatch(gens, classical_counterparts(gens, classical)),
            f"classical entrywise limit ({family})", family,
            "degeneration:entrywise", MODE_EXACT, cutoff, cutoff,
            note="s = 1 specialization against the classical counterpart",
        ))

        t0 = time.perf_counter()
        ctx = ClassicalContext(gens, classical)
        safe_nu, bad = cutoff, None
        for rel in canonical_relations(family):
            _, window, hit = _exact_residual(rel, ctx)
            safe_nu = min(safe_nu, window.max_nu)
            if hit is not None:
                bad = (f"{rel.name}: {hit[0]} -> {hit[1]}", str(hit[2]))
                break
        reports.append(_report(
            t0, bad, f"classical relation replay ({family})", family,
            "degeneration:replay", MODE_EXACT, cutoff, safe_nu,
            note="canonical relations replayed at q = 1; variants excluded",
        ))
    return reports


# -- degeneracy resolution ------------------------------------------------------


def _unresolved_pair(table: SpectrumTable, weight: str):
    """First pair in one nu shell with equal casimir eigenvalue and equal m,
    or a failure when no shell holds a degenerate pair at all."""
    shells: dict[int, list[SpectrumRow]] = {}
    for row in table.rows:
        shells.setdefault(row.state.nu, []).append(row)
    degenerate_found = False
    for nu, rows in shells.items():
        for i, a in enumerate(rows):
            for b in rows[i + 1:]:
                if a.exact == b.exact:
                    if a.state.m == b.state.m:
                        return (f"{a.state} vs {b.state}",
                                f"equal casimir and equal {weight} in shell nu={nu}")
                    degenerate_found = True
    return None if degenerate_found else ("(none)", "no degenerate pair found in any shell")


def degeneracy_resolution(cutoff: int = DEFAULT_CUTOFF, *, sets=None) -> list[Report]:
    """Within each nu shell the quadratic casimir takes equal values at
    +-m, and the undeformed weight operator separates the pair: the key
    (casimir eigenvalue, m) is injective on the shell.

    ``sets(family)`` returns a family's generator set on FockSpace(cutoff);
    by default each is built once, on one space."""
    sets = sets or _shared_sets(cutoff)
    reports = []
    for name, family, weight in (("C2SU0", "classical", "I0"),
                                 ("K02", "qboson", "J0")):
        t0 = time.perf_counter()
        table = casimir_table(name, cutoff, gens=sets(family))
        reports.append(_report(
            t0, _unresolved_pair(table, weight),
            f"degeneracy resolved by {weight} ({name})", family,
            f"degeneracy:{name}", MODE_EXACT, cutoff, table.safe_nu,
            note=f"+-m pairs share the {name} eigenvalue; {weight} separates them",
        ))
    return reports


# -- orchestration --------------------------------------------------------------


def full_suite(
    cutoff: int = DEFAULT_CUTOFF,
    qs=DEFAULT_QS,
    tol: float = DEFAULT_TOL,
    *,
    families=FAMILIES,
    include_variants: bool = True,
    mutate: str | None = None,
    mutate_family: str | None = None,
) -> list[Report]:
    """Everything relevant to the requested families: catalog, structure,
    casimir spectra, bases and ladders (tensor), scalar series, classical
    degeneration, and degeneracy resolution.  Sorted by (relation, mode).
    All checks share one FockSpace(cutoff) and one generator set per
    family, built on first use, and one numeric context per family and q,
    which this call holds until it returns."""
    require_tol(tol)
    sets = _shared_sets(cutoff)
    # held to the end, so that numeric_context hands every check these
    contexts = [numeric_context(sets(family), q) for family in families for q in qs]  # noqa: F841
    reports: list[Report] = []
    mutated_somewhere = False
    for family in families:
        fam_mutate = None
        if mutate is not None and mutate_family in (None, family):
            if any(r.name == mutate for r in relation_catalog(family)):
                fam_mutate = mutate
                mutated_somewhere = True
        reports += check_all(
            family, cutoff, qs, tol=tol, include_variants=include_variants,
            mutate=fam_mutate, gens=sets(family),
        )
        reports += structural_checks(family, cutoff, qs, gens=sets(family))
    if mutate is not None and not mutated_somewhere:
        raise KeyError(f"no relation named {mutate!r} in families {tuple(families)}")
    reports += [check_casimir_spectrum(name, cutoff, qs=qs, gens=sets(casimir_family(name)))
                for name in CASIMIR_NAMES if casimir_family(name) in families]
    if "tensor" in families:
        tensor = sets("tensor")
        reports.append(check_casimir_spectrum(
            "S2", cutoff, weights=(Q(2, 3), Q(-1, 5), 1, Q(7, 2)), qs=qs, gens=tensor))
        reports += check_all_bases(cutoff, gens=tensor)
        reports += check_ladder_actions(cutoff, qs=qs, tol=tol, gens=tensor)
    reports += check_series_expansions()
    reports += classical_degeneration(cutoff, families=families, sets=sets)
    reports += [r for r in degeneracy_resolution(cutoff, sets=sets) if r.family in families]
    return _sort_reports(reports)
