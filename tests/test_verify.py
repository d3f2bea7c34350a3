"""Tests for the verification engine: relation checks, casimir spectrum
tables with series labels, vacuum-built bases, ladder actions, scalar
series, structural invariants, classical degeneration, degeneracy
resolution, pyramids and report serialization."""

import dataclasses
import hashlib
import json
import re
import weakref
from collections import Counter
from fractions import Fraction as Q

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sp4q.algebras
import sp4q.verify
from sp4q.algebras import (
    CASIMIR_NAMES, FAMILIES, _BUILDERS, PointContext, build, canonical_relations,
    casimir_family, classical_limit_context, exact_context, find_relation, relation_catalog)
from sp4q.fock import FockSpace, FockState
from sp4q.notation import formula_builder
from sp4q.ops import B, QOperator, SafeSubspace, diagonal_spectrum, first_witness
from sp4q.qnum import LaurentPoly, QRationalFn, q_factorial, q_int, q_power
from sp4q.verify import (
    BASIS_CHECKS,
    NotDiagonalError,
    Report,
    SPECTRUM_TABLE_KEYS,
    casimir_closed_form,
    casimir_table,
    check_all,
    check_all_bases,
    check_basis_construction,
    check_casimir_spectrum,
    check_ladder_actions,
    check_relation,
    check_series_expansions,
    classical_degeneration,
    degeneracy_resolution,
    full_suite,
    numeric_mode,
    pyramid_text,
    reports_to_json,
    spectrum_table_text,
    structural_checks,
    summarize,
)

CUTOFF = 10


@pytest.fixture(scope="module")
def gens():
    space = FockSpace(CUTOFF)
    return {fam: build(fam, space) for fam in FAMILIES}


# -- single relations ------------------------------------------------------------


def test_check_relation_exact_holds(gens):
    r = check_relation(("qboson", "J-commutator"), gens=gens["qboson"])
    assert r.holds and r.ok
    assert r.mode == "ExactMonomial"
    assert r.witness is None and r.residual is None
    assert r.safe_nu == CUTOFF  # zero reach


def test_check_relation_windows_by_reach(gens):
    r = check_relation(("tensor", "T-tilde-T m1+m2=0, top"), gens=gens["tensor"])
    assert r.holds
    assert r.safe_nu == CUTOFF - 2  # reach two: compositions climb above nu


def test_check_relation_numeric(gens):
    r = check_relation(
        ("tensor", "t-t-dagger"), mode="numeric", q=1.3, gens=gens["tensor"]
    )
    assert r.holds and r.mode == "NumericAt(1.3)"


def test_check_relation_mutation_fails_with_witness(gens):
    r = check_relation(("qboson", "J-commutator"), mutate=True, gens=gens["qboson"])
    assert not r.holds
    assert r.witness is not None and "->" in r.witness
    assert r.residual


# -- the point decision ------------------------------------------------------------


def _stripped(report) -> str:
    d = report.to_dict()
    d.pop("wall_ms")
    return json.dumps(d, sort_keys=True)


def _exact_path_report(rel, ctx, flip):
    """The report of an exact check decided on the exact residual alone."""
    res = rel.builder(ctx, flip)
    window = sp4q.verify._window(rel.name, ctx.space, res)
    hit = first_witness(res, window)
    bad = None if hit is None else (f"{hit[0]} -> {hit[1]}",
                                    sp4q.verify.coefficient_text(res, hit[2]))
    mode = "SquaredExact" if res.sqrt_sq is not None else "ExactMonomial"
    return sp4q.verify._report(0.0, bad, rel.name, rel.family, rel.anchor, mode,
                               ctx.space.cutoff, window.max_nu, expected=rel.expect_holds,
                               note=rel.note)


def _decisions_agree(rel, ctx, flip):
    """Whether the residual's image at s = 2^B vanishes on its window
    exactly when the exact residual does."""
    point, res = rel.builder(PointContext(ctx), flip), rel.builder(ctx, flip)
    window = sp4q.verify._window(rel.name, ctx.space, res)
    return point.zero_on(window) == (first_witness(res, window) is None)


@pytest.mark.parametrize("cutoff", (8, 12))
@pytest.mark.parametrize("family", FAMILIES)
def test_point_decision_reports_equal_the_exact_path(family, cutoff):
    gens = build(family, FockSpace(cutoff))
    ctx = exact_context(gens)
    for rel in relation_catalog(family):
        for flip in (False, True):
            got = check_relation(rel, cutoff, gens=gens, mutate=flip)
            assert _stripped(got) == _stripped(_exact_path_report(rel, ctx, flip))
            assert _decisions_agree(rel, ctx, flip), (rel.name, flip)


@pytest.mark.parametrize("family", ("qboson", "tensor"))
def test_classical_replay_point_decisions_agree(family):
    ctx = classical_limit_context(build(family, FockSpace(8)))
    for rel in canonical_relations(family):
        for flip in (False, True):
            assert _decisions_agree(rel, ctx, flip), (rel.name, flip)


def test_an_undecided_point_entry_takes_the_exact_path():
    # a window entry with V = 0 but L >= 2^(B-1) proves nothing: the
    # check rebuilds the residual exactly, which holds here
    rel = find_relation("qboson", "J-commutator")
    built = []

    def builder(ctx, flip=False):
        res = rel.builder(ctx, flip)
        built.append(ctx.kind)
        if ctx.kind == "point":
            res.store[(0, 0)] = (0, 0, 1 << (B - 1))
        return res

    r = check_relation(dataclasses.replace(rel, builder=builder), 8)
    assert r.holds and built == ["point", "exact"]


@pytest.mark.parametrize("family", FAMILIES)
def test_check_all_at_cutoff_24_has_no_unexpected_result(family):
    assert summarize(check_all(family, 24, qs=()))["unexpected"] == 0


# -- the numeric flip partner ----------------------------------------------------


def _counted(rel, kind="numeric"):
    """``rel`` with a builder that records the flip of every call in a
    context of this kind."""
    flips = []

    def builder(ctx, flip=False):
        if ctx.kind == kind:
            flips.append(flip)
        return rel.builder(ctx, flip)

    return dataclasses.replace(rel, builder=builder), flips


def test_numeric_check_builds_the_partner_only_past_tol():
    gens = build("qboson", FockSpace(8))
    rel, flips = _counted(find_relation("qboson", "J-commutator"))
    assert check_relation(rel, 8, "numeric", q=0.7, gens=gens).holds
    assert flips == [False]
    flips.clear()
    r = check_relation(rel, 8, "numeric", q=0.7, gens=gens, mutate=True)
    assert flips == [True, False]
    # the witness and bound text of a check that always built the partner
    assert (r.verdict, r.witness, r.residual) == (
        "Fails", "|8,0> -> |8,0>", "4.746001e+01 > tol 1.000000e-10")


def test_numeric_variant_fails_by_the_partner_bound():
    rel, flips = _counted(find_relation("tensor", "sut2-casimir closed (variant)"))
    r = check_relation(rel, 8, "numeric", q=1.3)
    assert flips == [False, True]
    assert (r.verdict, r.witness, r.residual) == (
        "Fails", "|8,0> -> |8,0>", "2.776056e+02 > tol 1.893702e-08")


def test_magnitude_is_built_only_past_the_partner_bound():
    gens = build("qboson", FockSpace(8))
    rel, flips = _counted(find_relation("qboson", "J-commutator"), "magnitude")
    assert check_relation(rel, 8, "numeric", q=0.7, gens=gens).holds
    assert flips == []
    assert not check_relation(rel, 8, "numeric", q=0.7, gens=gens, mutate=True).holds
    assert flips == [True]


CHAINS = ("suq+ casimir chain lower-raise", "suq+ casimir chain raise-lower",
          "suq- casimir chain lower-raise", "suq- casimir chain raise-lower")


@pytest.mark.parametrize("q", (0.5, 2.0))
def test_cancelling_chains_hold_numerically_far_from_q_one(q):
    # Their bracket terms grow like q^(-+2n) and cancel: at cutoff 12 the
    # residual exceeds the flip partner's bound but stays within tol*|terms|.
    gens = build("qboson", FockSpace(12))
    for name in CHAINS:
        assert check_relation(("qboson", name), 12, "numeric", q=q, gens=gens).holds, name
        bad = check_relation(("qboson", name), 12, "numeric", q=q, gens=gens, mutate=True)
        assert bad.verdict == "Fails" and "> tol" in bad.residual, name


@pytest.mark.parametrize("cutoff", (8, 12))
def test_no_numeric_holds_rests_on_the_partner_bound(cutoff):
    # A check that builds its relation once has worst <= tol, so its
    # Holds does not read the flip partner's bound.  Every canonical
    # relation is such a check; every variant builds its partner and Fails.
    space = FockSpace(cutoff)
    for family in FAMILIES:
        gens = build(family, space)
        ctxs = [sp4q.algebras.numeric_context(gens, q) for q in (0.7, 1.3)]
        for rel in relation_catalog(family):
            counted, flips = _counted(rel)
            for ctx in ctxs:
                flips.clear()
                r = check_relation(counted, cutoff, "numeric", q=ctx.q, gens=gens)
                if rel.expect_holds:
                    assert (r.verdict, flips) == ("Holds", [False]), (rel.name, ctx.q)
                else:
                    assert (r.verdict, flips) == ("Fails", [False, True]), (rel.name, ctx.q)


def test_full_suite_numeric_relation_builds(monkeypatch):
    # 472 numeric relation checks at cutoff 8, of which the 44 variant
    # checks (22 variants at two qs) also build their flip partner
    flips = []
    real = sp4q.verify._check_numeric

    def counting(rel, *args, **kwargs):
        counted, mine = _counted(rel)
        report = real(counted, *args, **kwargs)
        flips.extend(mine)
        return report

    monkeypatch.setattr(sp4q.verify, "_check_numeric", counting)
    full_suite(8)
    assert (len(flips), flips.count(True)) == (516, 44)


def test_check_relation_insufficient_cutoff():
    with pytest.raises(ValueError, match="needs cutoff >="):
        check_relation(("tensor", "q-nilpotent T +1,0"), cutoff=4)


def test_check_relation_bad_mode(gens):
    with pytest.raises(ValueError, match="unknown mode"):
        check_relation(("qboson", "J-commutator"), mode="sideways",
                       gens=gens["qboson"])


@pytest.mark.parametrize(
    "rel", [("qboson", "J-commutator"), ("tensor", "script-N1 closed form")]
)
def test_check_relation_numeric_at_q_one_is_a_value_error(rel):
    with pytest.raises(ValueError, match="0/0 at q = 1"):
        check_relation(rel, 8, mode="numeric", q=1.0)


@pytest.mark.parametrize("q", (1e300, 1e-300, 3e11))
def test_check_relation_numeric_at_a_float_overflowing_q_is_a_value_error(q):
    # a power of q^(1/4) beyond float range used to raise OverflowError
    with pytest.raises(ValueError, match=re.escape(f"q = {q!r} is out of range")):
        check_relation(("qboson", "J-commutator"), 8, mode="numeric", q=q)


BAD_QS = (float("nan"), float("inf"), 0.0, -1.0)


@pytest.mark.parametrize("q", BAD_QS)
def test_numeric_checks_reject_bad_q(q):
    # a NaN q compared false with every bound, so even a mutated relation
    # used to report Holds
    with pytest.raises(ValueError, match="q must be finite and positive"):
        check_relation(("qboson", "suq+ casimir chain lower-raise"), 8,
                       mode="numeric", q=q, mutate=True)
    with pytest.raises(ValueError, match="q must be finite and positive"):
        casimir_table("J2", 6, q=q)
    with pytest.raises(ValueError, match="q must be finite and positive"):
        check_casimir_spectrum("J2", 6, qs=(0.7, q))


@pytest.mark.parametrize("tol", (float("nan"), float("inf"), 0.0, -1e-10))
def test_checks_reject_bad_tol(tol):
    with pytest.raises(ValueError, match="tol must be finite and positive"):
        check_relation(("qboson", "J-commutator"), 8, mode="numeric", tol=tol)
    with pytest.raises(ValueError, match="tol must be finite and positive"):
        check_all("classical", 8, tol=tol)
    with pytest.raises(ValueError, match="tol must be finite and positive"):
        full_suite(8, tol=tol, families=("classical",))
    with pytest.raises(ValueError, match="tol must be finite and positive"):
        check_ladder_actions(8, tol=tol)
    with pytest.raises(ValueError, match="tol must be finite and positive"):
        check_casimir_spectrum("J2", 6, tol=tol)


def test_check_relation_exact_holds_at_cutoff_20():
    r = check_relation(("qboson", "suq+ casimir chain lower-raise"), 20)
    assert r.verdict == "Holds"


def test_check_relation_numeric_holds_at_cutoff_20():
    r = check_relation(
        ("qboson", "suq+ casimir chain lower-raise"), 20, mode="numeric", q=0.7
    )
    assert r.verdict == "Holds"


def test_check_relation_string_needs_family():
    with pytest.raises(ValueError, match="family is required"):
        check_relation("J-commutator")


# Each entry point given a generator set of another family: before, these
# reported Holds under the wrong family label or raised a bare KeyError.
WRONG_FAMILY_CALLS = {
    "structural_checks": lambda g: structural_checks("tensor", gens=g),
    "check_all": lambda g: check_all("classical", gens=g),
    "check_relation": lambda g: check_relation(("classical", "Bose-cc"), gens=g),
    "check_basis_construction": lambda g: check_basis_construction("eta", gens=g),
    "check_all_bases": lambda g: check_all_bases(gens=g),
    "check_ladder_actions": lambda g: check_ladder_actions(gens=g),
    "casimir_table": lambda g: casimir_table("L2", gens=g),
    "check_casimir_spectrum": lambda g: check_casimir_spectrum("I2", gens=g),
}


@pytest.mark.parametrize("call", WRONG_FAMILY_CALLS.values(), ids=list(WRONG_FAMILY_CALLS))
def test_gens_of_another_family_is_a_value_error(call, gens):
    with pytest.raises(ValueError, match="gens= holds the 'qboson' family"):
        call(gens["qboson"])


def test_sqrt_flagged_relations_report_squared_mode(gens):
    # so(3)-vector relations carry a sqrt([2]) flag: exact verdicts on
    # them certify the squared relation
    r = check_relation(("tensor", "so3-vector T raise onto +1"),
                       gens=gens["tensor"])
    assert r.holds
    assert r.mode == "SquaredExact"


# -- whole-catalog sweeps --------------------------------------------------------


def test_check_all_families_green(gens):
    for fam in FAMILIES:
        reports = check_all(fam, qs=(0.7,), gens=gens[fam])
        stats = summarize(reports)
        assert stats["unexpected"] == 0
        names = [r.relation for r in reports]
        assert names == sorted(names)


def test_check_all_variant_bookkeeping(gens):
    reports = check_all("tensor", qs=(0.7,), gens=gens["tensor"])
    fails = [r for r in reports if not r.holds]
    assert fails, "variant readings must fail"
    assert all(not r.expected for r in fails)
    assert all(r.ok for r in fails)
    assert all(r.relation.endswith(" (variant)") for r in fails)
    assert all(r.witness and r.residual for r in fails)


def test_check_all_canonical_only(gens):
    reports = check_all("tensor", qs=(0.7,), include_variants=False,
                        gens=gens["tensor"])
    assert all(r.holds for r in reports)


def test_check_all_mutation_detected(gens):
    reports = check_all("classical", qs=(0.7,), mutate="Bose-cc",
                        gens=gens["classical"])
    bad = [r for r in reports if not r.ok]
    assert len(bad) == 2  # exact and one numeric mode
    assert {r.relation for r in bad} == {"Bose-cc"}
    assert all(r.witness for r in bad)


def test_check_all_rejects_small_cutoff():
    with pytest.raises(ValueError, match="cutoff >= 8"):
        check_all("qboson", cutoff=6)


def test_check_all_rejects_unknown_mutation(gens):
    with pytest.raises(KeyError):
        check_all("qboson", mutate="no-such", gens=gens["qboson"])


# -- casimir spectra -------------------------------------------------------------


def test_casimir_closed_forms_all(gens):
    for name in CASIMIR_NAMES:
        fam = None
        from sp4q.algebras import casimir_family

        fam = casimir_family(name)
        w = (Q(1), Q(1), Q(1), Q(1)) if name == "S2" else None
        r = check_casimir_spectrum(name, weights=w, gens=gens[fam])
        assert r.holds, f"{name}: {r.witness} {r.residual}"


def test_casimir_weighted_closed_form(gens):
    r = check_casimir_spectrum(
        "S2", weights=(Q(2, 7), Q(-3, 5), Q(1, 2), Q(11, 3)),
        gens=gens["tensor"],
    )
    assert r.holds


# S2 weights beside the unweighted ones: full_suite's, and a second tuple
_S2_WEIGHTS = (None, (Q(2, 3), Q(-1, 5), 1, Q(7, 2)), (Q(2, 7), Q(-3, 5), Q(1, 2), Q(11, 3)))
_CASIMIR_CASES = [(n, None) for n in CASIMIR_NAMES if n != "S2"] + [
    ("S2", w) for w in _S2_WEIGHTS]


@pytest.fixture
def table_path(monkeypatch):
    """check_casimir_spectrum with its packed decision switched off, so
    that every call takes the casimir_table path."""
    def run(*args, **kwargs):
        with monkeypatch.context() as m:
            m.setattr(sp4q.verify, "_point_holds", lambda *a: None)
            return check_casimir_spectrum(*args, **kwargs)

    return run


@pytest.mark.parametrize("cutoff", (8, 12, 16))
def test_point_decided_casimir_reports_equal_the_table_path(cutoff, table_path):
    space = FockSpace(cutoff)
    for name, weights in _CASIMIR_CASES:
        g = build(casimir_family(name), space)
        assert sp4q.verify._point_holds(name, g, weights) is not None, (name, weights)
        got = check_casimir_spectrum(name, cutoff, weights=weights, qs=(), gens=g)
        assert got.holds
        assert _stripped(got) == _stripped(table_path(name, cutoff, weights=weights, qs=(),
                                                      gens=g)), (name, weights)


def _raised(check, *args, **kwargs) -> tuple[type, str]:
    with pytest.raises(Exception) as info:
        check(*args, **kwargs)
    return info.type, str(info.value)


def _replaced(g, name, **changes):
    """The set g with the operator ``name`` rebuilt with some fields changed."""
    op = g.ops[name]
    fields = dict(space=op.space, store=op.store, k=op.k, den=op.den, sqrt_sq=op.sqrt_sq,
                  nu_raise=op.nu_raise, nu_lower=op.nu_lower, climb=op.climb)
    fields.update(changes)
    return dataclasses.replace(g, ops={**g.ops, name: QOperator._of(**fields)})


def test_casimir_errors_are_the_table_path_errors(table_path):
    # a cutoff too small for a set, or for the casimir's climb, a sqrt flag
    # and bad weights raise the exception and message of the table path
    for cutoff in range(4):
        for name in CASIMIR_NAMES:
            assert _raised(check_casimir_spectrum, name, cutoff, qs=()) == _raised(
                table_path, name, cutoff, qs=())
    g = build("classical", FockSpace(8))
    cases = [("I2", _replaced(g, "Ip", climb=10), None),
             ("I2", _replaced(g, "Ip", sqrt_sq=q_int(2)), None),
             ("I2", g, (1, 1, 1, 1)),
             ("S2", build("tensor", FockSpace(8)), (1, 1, 1))]
    for name, broken, weights in cases:
        want = _raised(table_path, name, 8, weights=weights, qs=(), gens=broken)
        assert _raised(check_casimir_spectrum, name, 8, weights=weights, qs=(),
                       gens=broken) == want
    assert want[1] == "not enough values to unpack (expected 4, got 3)"
    assert _raised(check_casimir_spectrum, "I2", 8, qs=(), gens=cases[0][1]) == (
        ValueError, "cutoff 8 too small for casimir I2")


@pytest.mark.parametrize("family,name", [("classical", "Ip"), ("qboson", "Jp"),
                                         ("tensor", "L1")])
def test_casimir_mutation_fails_as_the_table_path(family, name, table_path):
    # one entry of I_+, J_+ or L_+1 doubled: every casimir of the family
    # gives the table path's report, and those that read it Fail with its
    # witness and its "got ...; expected ..." text
    g = build(family, FockSpace(8))
    key = next(iter(g.ops[name].store))
    store = {**g.ops[name].store, key: g.ops[name].store[key] * LaurentPoly.const(2)}
    broken = _replaced(g, name, store=store)
    fails = []
    for casimir_name, weights in _CASIMIR_CASES:
        if casimir_family(casimir_name) != family:
            continue
        got = check_casimir_spectrum(casimir_name, 8, weights=weights, qs=(), gens=broken)
        assert _stripped(got) == _stripped(
            table_path(casimir_name, 8, weights=weights, qs=(), gens=broken))
        if not got.holds:
            assert got.witness and re.fullmatch(r"got .+; expected .+", got.residual)
            fails.append(casimir_name)
    assert fails and fails[0] == {"classical": "I2", "qboson": "J2", "tensor": "L2"}[family]


def test_point_root_checks_run_once_per_input_and_fail_as_the_table_path(monkeypatch,
                                                                         table_path):
    # the packed decision runs each label's root check once per distinct
    # input it reads; one that fails gives the table path's report
    real, calls, marked = sp4q.verify._series_label, [], set()

    def label(name, st, value):
        calls.append(st)
        text = real(name, st, value)
        return text + " (quadratic mismatch)" if abs(st.m) in marked else text

    monkeypatch.setattr(sp4q.verify, "_series_label", label)
    classical, qboson = build("classical", FockSpace(8)), build("qboson", FockSpace(8))
    assert sp4q.verify._point_holds("C2SU0", classical, None) == 6
    assert [abs(st.m) for st in calls] == [Q(k, 2) for k in range(7)]
    calls.clear()
    assert sp4q.verify._point_holds("C2SUp", classical, None) == 6
    assert [st.n1 % 2 for st in calls] == [0, 1]
    calls.clear()
    assert sp4q.verify._point_holds("J2", qboson, None) == 8 and not calls
    marked.add(1)
    assert sp4q.verify._point_holds("K02", qboson, None) is None
    assert [abs(st.m) for st in calls] == [0, Q(1, 2), 1]
    got = check_casimir_spectrum("K02", 8, qs=(), gens=qboson)
    assert got.residual == "series label root check failed: phi_q=-[1]-[1/2] (quadratic mismatch)"
    assert _stripped(got) == _stripped(table_path("K02", 8, qs=(), gens=qboson))


@pytest.mark.parametrize("cutoff", (8, 12))
def test_closed_form_anchors_equal_casimir_closed_form(cutoff):
    # the second spelling of each closed form, the anchor parsed into a
    # diagonal, equals casimir_closed_form exactly on every state
    space = FockSpace(cutoff)
    for name, weights in _CASIMIR_CASES:
        family = casimir_family(name)
        text = sp4q.algebras._CASIMIR_CLOSED[name]
        if name == "S2":
            text = text.format(*(Q(w) for w in weights or (1, 1, 1, 1)))
        op = formula_builder("closed form", family, text)(exact_context(build(family, space)))
        expect = casimir_closed_form(name, weights=weights)
        spectrum = diagonal_spectrum(op, SafeSubspace(space, cutoff))
        assert len(spectrum) == space.dimension
        for state, value in spectrum:
            assert value == expect(state), (name, weights, state)


def test_casimir_table_series_labels(gens):
    table = casimir_table("K02", gens=gens["qboson"])
    by_m = {}
    for row in table.rows:
        by_m.setdefault(row.state.m, row.series)
    assert by_m[Q(0)] == "phi_q=-[1/2]"
    assert by_m[Q(-1, 2)] == "phi_q=-2[1/2]"
    assert by_m[Q(-1)] == "phi_q=-[1]-[1/2]"
    assert by_m[Q(-3, 2)] == "phi_q=-[3/2]-[1/2]"
    assert all("mismatch" not in (s or "") for s in by_m.values())


def test_casimir_table_phi_labels(gens):
    table = casimir_table("C2SU0", gens=gens["classical"])
    assert table.rows
    for row in table.rows:
        assert row.series == f"phi={-abs(row.state.m) - Q(1, 2)}"


def test_casimir_table_numeric_at_one(gens):
    table = casimir_table("L2", sector="even", q=1.0, gens=gens["tensor"])
    want = {0: 0.0, 2: 4.0, 4: 12.0}
    seen = {}
    for row in table.rows:
        seen.setdefault(row.state.nu, row.numeric)
    for nu, val in want.items():
        assert seen[nu] == pytest.approx(val, abs=1e-12)


def test_casimir_table_sectors(gens):
    even = casimir_table("J2", sector="even", gens=gens["qboson"])
    odd = casimir_table("J2", sector="odd", gens=gens["qboson"])
    assert all(r.state.parity == 0 for r in even.rows)
    assert all(r.state.parity == 1 for r in odd.rows)
    assert even.rows and odd.rows


def test_casimir_table_rejects_unknown_sector(gens):
    # an unknown sector used to return every row, as "all" does
    with pytest.raises(ValueError,
                       match=r"unknown sector 'bogus'; choose from \('all', 'even', 'odd'\)"):
        casimir_table("J2", sector="bogus", gens=gens["qboson"])


def test_casimir_table_enumeration_order(gens):
    table = casimir_table("I2", gens=gens["classical"])
    states = [r.state for r in table.rows]
    assert states == sorted(states, key=lambda s: (s.nu, s.n1))


def test_not_diagonal_error(gens):
    from sp4q.verify import _series_label  # noqa: F401  (import sanity)
    from sp4q.ops import SafeSubspace, diagonal_spectrum

    with pytest.raises(ValueError):
        diagonal_spectrum(gens["tensor"]["T1"],
                          SafeSubspace(gens["tensor"].space, 4))
    # the table path wraps the same condition in NotDiagonalError
    import sp4q.verify as V

    orig = V.casimir
    try:
        V.casimir = lambda name, gens, weights=None: gens["T1"]
        with pytest.raises(NotDiagonalError):
            casimir_table("L2", gens=gens["tensor"])
    finally:
        V.casimir = orig


def test_casimir_table_text_renders(gens):
    txt = casimir_table("L2", q=0.7, gens=gens["tensor"]).text()
    assert "L2 spectrum" in txt and "|0,0>" in txt


# -- spectrum tables and pyramids ------------------------------------------------


@pytest.mark.parametrize("key", SPECTRUM_TABLE_KEYS)
def test_spectrum_tables_match_goldens(key, golden_dir):
    name = "table_" + key.replace("-", "_") + ".txt"
    assert spectrum_table_text(key, 12) == (golden_dir / name).read_text()


def test_spectrum_table_unknown_key():
    with pytest.raises(ValueError, match="unknown table"):
        spectrum_table_text("nope", 8)


@pytest.mark.parametrize(
    "fname,labels,sector,rows",
    [
        ("pyramid_even_pairs.txt", "pairs", "even", 4),
        ("pyramid_odd_pairs.txt", "pairs", "odd", 3),
        ("pyramid_even_triple_min.txt", "triple-min", "even", 4),
        ("pyramid_even_triple_max.txt", "triple-max", "even", 4),
    ],
)
def test_pyramids_match_goldens(fname, labels, sector, rows, golden_dir):
    assert pyramid_text(labels, sector, rows) == (golden_dir / fname).read_text()


def test_pyramid_rejects_bad_combinations():
    with pytest.raises(ValueError):
        pyramid_text("triple-min", "odd", 3)
    with pytest.raises(ValueError):
        pyramid_text("nope", "even", 3)
    with pytest.raises(ValueError):
        pyramid_text("pairs", "sideways", 3)
    with pytest.raises(ValueError):
        pyramid_text("pairs", "even", 0)


@given(rows=st.integers(min_value=1, max_value=6),
       parity=st.sampled_from(["even", "odd"]))
@settings(max_examples=20, deadline=None)
def test_pyramid_cell_population(rows, parity):
    # each rendered shell nu holds exactly nu + 1 states
    txt = pyramid_text("pairs", parity, rows)
    lines = txt.splitlines()[2:]
    for line in lines:
        nu = int(line.split("|")[0].strip())
        assert line.count(">") == nu + 1


# -- bases -----------------------------------------------------------------------


def test_all_bases_hold(gens):
    for r in check_all_bases(gens=gens["tensor"]):
        assert r.holds, f"{r.relation}: {r.witness} {r.residual}"


def test_basis_modes(gens):
    assert check_basis_construction("ts", gens=gens["tensor"]).mode == "ExactMonomial"
    assert check_basis_construction("eta", gens=gens["tensor"]).mode == "SquaredExact"


def test_basis_unknown_and_small_cutoff():
    with pytest.raises(ValueError, match="unknown basis"):
        check_basis_construction("nope", 8)
    with pytest.raises(ValueError, match="cutoff >= 6"):
        check_basis_construction("ts", 4)


def _ladder_mutant(up, edge, center, row):
    """The ladder reports a generator scaled by s fails, and their witnesses."""
    return {
        f"ladder {row}": f"{edge}, k=1",
        f"ladder center {up}": f"{center}, k=1",
        "ladder squared elements": f"{edge}, k=1 ({row})",
        "ladder numeric entries q=0.7": f"{edge}, k=1 ({row})",
        "ladder numeric entries q=1.3": f"{edge}, k=1 ({row})",
    }


def _triple_mutant(triple, pair):
    """The basis reports a T generator scaled by s fails, and their witnesses."""
    return {"basis spb_minN0": f"{triple} -> {pair}", "basis spb_maxN0": f"{triple} -> {pair}",
            "basis eta": triple, "basis rtt": "|2,2>"}


# generator scaled by s -> {failing report: witness}
_MUTANT_FAILS = {
    "T1": _triple_mutant("|1,0,0>", "|2,0>"),
    "T0": _triple_mutant("|0,1,0>", "|1,1>"),
    "Tm1": _triple_mutant("|0,0,1>", "|0,2>"),
    "td1": {"basis ts": "|1,0>"},
    "tdm1": {"basis ts": "|0,1>"},
    "L1": _ladder_mutant("raising", "|0,2>", "|1,1>", "bottom-row raising"),
    "Lm1": _ladder_mutant("lowering", "|2,0>", "|1,1>", "top-row lowering"),
    "L01": {"ladder weight eigenvalue": "|0,1>"},
}


@pytest.mark.parametrize("name", _MUTANT_FAILS)
def test_bases_and_ladders_detect_a_wrong_coefficient(gens, name):
    # one generator scaled by s = q^(1/4) fails exactly the basis and
    # ladder reports that read it, each with its first witness
    g = gens["tensor"]
    broken = dataclasses.replace(g, ops={**g.ops, name: g.ops[name].scale(q_power(Q(1, 4)))})
    reports = check_all_bases(gens=broken) + check_ladder_actions(qs=(0.7, 1.3), gens=broken)
    assert {r.relation: r.witness for r in reports if not r.holds} == _MUTANT_FAILS[name]
    assert all(r.residual for r in reports if not r.holds)


# -- ladders ---------------------------------------------------------------------


def test_ladder_actions_all_hold(gens):
    reports = check_ladder_actions(qs=(0.7, 1.3), gens=gens["tensor"])
    assert len(reports) == 8
    for r in reports:
        assert r.holds, f"{r.relation}: {r.witness} {r.residual}"


def test_ladder_requires_enough_room():
    with pytest.raises(ValueError, match="need cutoff >="):
        check_ladder_actions(8, max_n=5)


@pytest.mark.parametrize("max_n", (0, -3))
def test_empty_ladder_and_series_ranges_are_rejected(max_n):
    # an empty range used to report Holds without checking anything
    with pytest.raises(ValueError, match=f"need max_n >= 1; got {max_n}"):
        check_ladder_actions(8, max_n=max_n)
    with pytest.raises(ValueError, match=f"need max_n >= 1; got {max_n}"):
        check_series_expansions(max_n)


def test_ladder_center_example():
    # lowering the nu=4 center state once: squared element q [3]!/[1]!
    space = FockSpace(8)
    g = build("tensor", space)
    from sp4q.ops import gram_squared_element

    op = g["Lm1"]
    sq = gram_squared_element(op, FockState(1, 3), FockState(2, 2))
    assert sq == QRationalFn(q_power(1) * q_factorial(3), q_factorial(1))


def test_ladder_endpoint_identity():
    # (L-1)^(2n) sends the top edge state to the bottom with [2n]!
    space = FockSpace(8)
    g = build("tensor", space)
    n = 2
    op = g["Lm1"] @ g["Lm1"] @ g["Lm1"] @ g["Lm1"]
    col = {s: p for s, p in op.column(FockState(2 * n, 0)).items() if not p.is_zero}
    assert set(col) == {FockState(0, 2 * n)}
    assert QRationalFn(col[FockState(0, 2 * n)], op.den) == QRationalFn(
        q_factorial(2 * n)
    )


# -- series ----------------------------------------------------------------------


def test_series_expansions_hold():
    for r in check_series_expansions():
        assert r.holds, f"{r.relation}: {r.witness} {r.residual}"
    modes = {r.mode for r in check_series_expansions()}
    assert modes == {"ExactTaylor", "RemainderScaling"}


def test_series_covers_requested_range():
    reports = check_series_expansions(max_n=6)
    assert all(r.holds for r in reports)


# -- structure, degeneration, degeneracy ------------------------------------------


def test_structural_checks_hold(gens):
    for fam in FAMILIES:
        for r in structural_checks(fam, qs=(0.7, 1.3), gens=gens[fam]):
            assert r.holds, f"{fam} {r.relation}: {r.witness} {r.residual}"


def test_structural_adjoint_uses_scalar_tolerance(gens):
    reports = structural_checks("tensor", qs=(0.7,), gens=gens["tensor"])
    adj = [r for r in reports if "adjoint" in r.relation]
    assert adj and all(r.mode == "NumericAt(0.7)" for r in adj)


def test_adjoint_pairs_bound_each_entry_by_its_own_terms():
    # at cutoff 24 and q = 3 the entries of tensor Tm1 span 3.4e-11 to
    # 3.5e10; doubling the smallest one breaks (Tm1)+ = Tt1 by far less
    # than a bound taken from the largest entry, 1e-12*(1 + 3.5e10)
    gens = build("tensor", FockSpace(24))
    key = min(sp4q.algebras.numeric_context(gens, 3.0)["Tm1"].store.items(),
              key=lambda item: abs(item[1]))[0]
    op = gens["Tm1"]
    store = {**op.store, key: op.store[key] + op.store[key]}
    doubled = QOperator._of(op.space, store, op.k, op.den, op.sqrt_sq, op.nu_raise,
                            op.nu_lower, op.climb)
    bad = dataclasses.replace(gens, ops={**gens.ops, "Tm1": doubled})
    (adj,) = [r for r in structural_checks("tensor", 24, qs=(3.0,), gens=bad)
              if "adjoint" in r.relation]
    assert not adj.holds and adj.witness == "(Tm1)+ vs Tt1", (adj.witness, adj.residual)
    assert re.fullmatch(r"\S+ > tol \S+", adj.residual)


def test_classical_degeneration_holds():
    for r in classical_degeneration(8):
        assert r.holds, f"{r.relation}: {r.witness} {r.residual}"


def test_degeneracy_resolution_holds():
    reports = degeneracy_resolution(8)
    assert {r.family for r in reports} == {"classical", "qboson"}
    for r in reports:
        assert r.holds, f"{r.relation}: {r.witness} {r.residual}"


# -- reports ---------------------------------------------------------------------


def test_report_json_schema(gens):
    r = check_relation(("qboson", "J-commutator"), gens=gens["qboson"])
    d = r.to_dict()
    assert set(d) == {
        "relation", "family", "anchor", "mode", "cutoff", "safe_nu",
        "verdict", "wall_ms",
    }
    r = check_relation(("qboson", "J-commutator"), mutate=True,
                       gens=gens["qboson"])
    d = r.to_dict()
    assert {"witness", "residual"} <= set(d)


def test_reports_json_roundtrip_byte_identical(gens):
    reports = check_all("classical", qs=(0.7,), gens=gens["classical"])
    txt = reports_to_json(reports)
    again = json.dumps(json.loads(txt), sort_keys=True, indent=2) + "\n"
    assert txt == again


def test_summarize_counts():
    reps = [
        Report("a", "f", "x", "ExactMonomial", 8, 8, "Holds", 1.0),
        Report("b", "f", "x", "ExactMonomial", 8, 8, "Fails", 1.0,
               witness="w", residual="r"),
        Report("c", "f", "x", "ExactMonomial", 8, 8, "Fails", 1.0,
               witness="w", residual="r", expected=False),
    ]
    assert summarize(reps) == {
        "checks": 3, "holds": 1, "fails": 2, "unexpected": 1,
    }


def test_full_suite_small():
    reports = full_suite(cutoff=8, qs=(0.7,), families=("qboson",))
    stats = summarize(reports)
    assert stats["unexpected"] == 0
    fams = {r.family for r in reports}
    assert "tensor" not in fams
    names = [(r.relation, r.mode) for r in reports]
    assert names == sorted(names)


def _digest(reports) -> str:
    """SHA-256 of the reports as JSON with wall_ms stripped."""
    dicts = [r.to_dict() for r in reports]
    for d in dicts:
        d.pop("wall_ms")
    txt = json.dumps(dicts, sort_keys=True, indent=2) + "\n"
    return hashlib.sha256(txt.encode()).hexdigest()


# SHA-256 of the seed's full_suite(8) reports (JSON, wall_ms stripped), the
# value perfbench/digests.json records: a speedup must not change a byte.
FULL_SUITE_8_SHA256 = "83ab176a2fce91c20cc2aa64f300ed370b51366c17e0166a8dc43f5f7696cefe"


def test_full_suite_8_reports_byte_identical():
    reports = full_suite(8)
    assert len(reports) == 757
    assert _digest(reports) == FULL_SUITE_8_SHA256


# The same recipe at cutoff 12, recorded before the fused multiply-accumulate
# in the operator layer: reordering a coefficient sum would change the
# float residuals of the numeric reports, and so this digest.
FULL_SUITE_12_SHA256 = "2235003e3f52c173293a23c67b1662908a0bf070e7ea93748c681c542872a9f2"


def test_full_suite_12_reports_byte_identical():
    reports = full_suite(12)
    assert len(reports) == 757
    assert _digest(reports) == FULL_SUITE_12_SHA256


# The same recipe over the subsets of full_suite(8) whose checks share
# generator sets differently, recorded while every check built its own.
FULL_SUITE_8_SUBSET_SHA256 = [
    ({"families": ("classical",)},
     "904f99e5c4b8b33773dac53f84475d171617e692c4265f6955167d2f1bfff35d"),
    ({"families": ("qboson",)},
     "cf5eab985d36d499c6963fcb65a0406026168ffaba233fce68510c6b265dac9f"),
    ({"families": ("tensor",)},
     "9864b59a92aa89f8d2845013fb8f77be3e6a2f3fe8a2f0a20e04c58ca236be0a"),
    ({"families": ("qboson", "tensor")},
     "20364a5a84c5ac444015801004a6756316291364db9b384efbd4d1c93c98bbd6"),
    ({"include_variants": False},
     "a0f2b68a1e5e0118b8c6b6eaca2e4095cd722c8c1c12416894901ebbe5f68b16"),
    ({"mutate": "J-commutator"},
     "ee2adad11af4d89cfb4b95f0968a26ff68866ebcc250c32d0be119da9b5377fa"),
]


@pytest.mark.parametrize("kwargs,sha256", FULL_SUITE_8_SUBSET_SHA256,
                         ids=[str(kw) for kw, _ in FULL_SUITE_8_SUBSET_SHA256])
def test_full_suite_8_subset_reports_byte_identical(kwargs, sha256):
    assert _digest(full_suite(8, **kwargs)) == sha256


def _terms(poly):
    return None if poly is None else [(k, type(v), v) for k, v in poly.c.items()]


def _contents(gens):
    """A generator set down to each coefficient's order and type."""
    return (gens.family, gens.space, gens.elements, gens.adjoint_pairs, [
        (name, _terms(op.den), _terms(op.sqrt_sq), op.nu_raise, op.nu_lower,
         op.climb, [(key, _terms(p)) for key, p in op.entries.items()])
        for name, op in gens.ops.items()
    ])


def test_shared_sets_stay_as_built(fresh_builds):
    # every check of the suite runs on the sets held here; none may alter them
    held = {f: build(f, FockSpace(8)) for f in FAMILIES}
    full_suite(8)
    for name in CASIMIR_NAMES:
        check_casimir_spectrum(name, 8, qs=())
    assert fresh_builds == Counter(FAMILIES)
    for f, gens in held.items():
        assert _contents(gens) == _contents(_BUILDERS[f](FockSpace(8)))


# SHA-256 of repr(_contents(gens)) for each family's set at cutoffs 8 and 12,
# recorded while every builder still composed its whole set up front: a set
# read in full must equal it down to key order, den, flag and coefficient type.
EAGER_CONTENTS_SHA256 = {
    ("classical", 8): "094089910261de6de92f33656000789a6770e026cb6c6eae7923c7016e0d1485",
    ("qboson", 8): "55718c4dee873b047d5d275ef35774870c3f0f259deff0e2feb87fa8a6b77167",
    ("tensor", 8): "3b974b2395a3f2a6fc7b09ea0693f979b9d09803250a77ecbb8ec7776d92d930",
    ("classical", 12): "f9c3dd244d34fb894c1b72b4b841ed41e93062dbcf019c243c9c6471c3dbd2d0",
    ("qboson", 12): "9ed92347d80c7bd17d42ef45c9edf920510b2fe634548d3a90f88fce63c292eb",
    ("tensor", 12): "87cf31ac05063b02cfd4fcab83563b1b00b79d056394b98677cc21318d0ca08f",
}


@pytest.mark.parametrize("family,cutoff", list(EAGER_CONTENTS_SHA256))
def test_sets_read_in_full_match_the_eager_construction(fresh_builds, family, cutoff):
    gens = build(family, FockSpace(cutoff))
    digest = hashlib.sha256(repr(_contents(gens)).encode()).hexdigest()
    assert digest == EAGER_CONTENTS_SHA256[family, cutoff]


def test_exact_scale_pattern_constructs_each_family_once(fresh_builds):
    # the casimir checks build their own sets; they get the ones held here
    gens = {f: build(f, FockSpace(8)) for f in FAMILIES}
    for f in FAMILIES:
        for rel in relation_catalog(f):
            check_relation(rel, 8, gens=gens[f])
    for name in CASIMIR_NAMES:
        check_casimir_spectrum(name, 8, qs=())
    assert sum(fresh_builds.values()) == 3


def test_full_suite_builds_each_family_once(monkeypatch):
    calls = Counter()

    def counting_build(family, space):
        calls[family] += 1
        return build(family, space)

    monkeypatch.setattr(sp4q.verify, "build", counting_build)
    monkeypatch.setattr(sp4q.algebras, "build", counting_build)
    full_suite(8)
    assert calls == Counter(FAMILIES)


# SHA-256 of casimir_table(name, 8).text() for each casimir, and for S2 with
# weights (2/3, -1/5, 1, 7/2), recorded before casimir() was built from its
# formula strings: the text prints every eigenvalue's numerator and den.
CASIMIR_TABLE_8_SHA256 = {
    "I2": "dbcf57765d447e3b16eeb098fd3cf9d153ceda2dfd6618c1039e06dcb02e5430",
    "C2SU0": "fb5e21f2227f4a67bc2db10fd0b07e477bca0792aad67cc1232eb35f89f5fb56",
    "C2SUp": "64e3290a6f92aec6d048892e58eea031d3fc5a79fe326c27a0ca64a001c6819c",
    "C2SUm": "1c813dca1821dd1f6c89f9ce07514adc3bc0182f567816a40d1b62a38ca52c03",
    "J2": "66633e7e43f6588ad2dc3765323bb9e6fada1c4d495a32b5a62409a961dc6c8a",
    "K02": "035aaf85187ea021c4ebe8659b4f12ff6c6ca6a56c476c1055938f0dc8af1e75",
    "C2SUqp": "e3a630b751f70f08e8cede6cd17529f123d5570c57c87c114dec769b445c4f5f",
    "C2SUqm": "56720c26b34778ce6216f009f679e986121298d1f38bd2f496cf2fe56024b640",
    "L2": "a4080a1e8d0a3136f8ff200c89fdb5b32ec6f4d0a0e1b2ef69f54c48294c281c",
    "S2": "e6162ad4cd407512ef92578dbf2bcaeb96c6f0d7ce4b62470470374ef6e3ecd6",
}
S2_WEIGHTS = (Q(2, 3), Q(-1, 5), 1, Q(7, 2))
WEIGHTED_S2_TABLE_8_SHA256 = "543a55383fc6c76a8dea22658f4283396160a90cb4caf120c4fb853cc54c346e"


@pytest.mark.parametrize("name,weights,sha256", [
    *((n, None, h) for n, h in CASIMIR_TABLE_8_SHA256.items()),
    ("S2", S2_WEIGHTS, WEIGHTED_S2_TABLE_8_SHA256)])
def test_casimir_table_text_byte_identical(name, weights, sha256):
    text = casimir_table(name, 8, weights=weights).text()
    assert hashlib.sha256(text.encode()).hexdigest() == sha256


NEAR_ONE_QS = (1.0, 1 + 1e-9, 1 - 1e-9, 0.999, 1.0001, 1.001)


@pytest.mark.parametrize("name,weights", [(n, None) for n in CASIMIR_NAMES]
                         + [("S2", S2_WEIGHTS)])
def test_casimir_spectra_hold_near_q_one(name, weights):
    # both the table and its closed form are quotients whose sums cancel at
    # q = 1; evaluated as they stand they lost up to 9 digits, or divided 0/0
    rep = check_casimir_spectrum(name, 8, weights=weights, qs=NEAR_ONE_QS)
    assert rep.verdict == "Holds", rep.witness
    with mpmath.workdps(60):
        for row in casimir_table(name, 8, weights=weights).rows:
            for q in NEAR_ONE_QS[1:]:
                ref = row.exact.eval_mp(mpmath.mpf(q))
                assert abs(row.exact(q) - ref) <= 1e-12 * abs(ref)


# -- numeric checks near q = 1 ---------------------------------------------------

NEAR_ONE_NUMERIC_QS = (1 + 1e-9, 1 - 1e-9, 1.000001, 0.9999999, 1.0001, 1.04, 0.97)


@pytest.mark.parametrize("family", ["qboson", "tensor"])
def test_numeric_checks_near_q_one(family):
    # the q-brackets' differences cancel near q = 1 and lost up to 8 digits,
    # which failed canonical relations such as uq+ commutator at 1 + 1e-9
    gens = build(family, FockSpace(8))
    for q in NEAR_ONE_NUMERIC_QS:
        for rel in canonical_relations(family):
            rep = check_relation(rel, 8, "numeric", q=q, gens=gens)
            assert rep.verdict == "Holds", (rel.name, q, rep.witness)
            rep = check_relation(rel, 8, "numeric", q=q, gens=gens, mutate=True)
            assert rep.verdict == "Fails", (rel.name, q)


@pytest.mark.parametrize("q,mode", [
    (0.7, "NumericAt(0.7)"), (1.3, "NumericAt(1.3)"), (2.0, "NumericAt(2)"),
    (1.000000001, "NumericAt(1.000000001)")])
def test_numeric_mode_names_the_q_checked(q, mode):
    assert numeric_mode(q) == mode


def test_full_suite_converts_each_family_and_q_once(fresh_builds, monkeypatch):
    made, converted = Counter(), Counter()

    class Counting(sp4q.algebras.NumericContext):
        def __init__(self, gens, q):
            made[(gens.family, q)] += 1
            super().__init__(gens, q)

    def to_numeric(op, q, **kwargs):
        converted[q] += 1
        return real_to_numeric(op, q, **kwargs)

    real_to_numeric = sp4q.algebras.to_numeric
    monkeypatch.setattr(sp4q.algebras, "NumericContext", Counting)
    monkeypatch.setattr(sp4q.algebras, "to_numeric", to_numeric)
    monkeypatch.setattr(sp4q.algebras, "_LIVE_NUMERIC", weakref.WeakValueDictionary())
    full_suite(8)
    qs = sp4q.verify.DEFAULT_QS
    assert made == {(f, q): 1 for f in FAMILIES for q in qs}
    space = FockSpace(8)
    per_q = sum(len(build(f, space).ops) for f in FAMILIES)
    assert converted == {q: per_q for q in qs}
