"""Tests for the anchor notation: every catalogued anchor and casimir
formula parses, malformed formulas are rejected by name and token, the
evaluation rules hold, compiled state formulas take the values of their
labels, and nothing is parsed at import."""

import os
import pathlib
import subprocess
import sys
from fractions import Fraction as Q

import pytest

from sp4q.algebras import (
    _CASIMIR_FORMULAS, _CASIMIR_FAMILY, CASIMIR_NAMES, FAMILIES, build, exact_context,
    numeric_context, relation_catalog)
from sp4q.fock import FockSpace
from sp4q import notation
from sp4q.notation import (
    OPERATORS, STATE, StateFormula, formula_builder, relation_builder, state_formula)


@pytest.fixture(scope="module")
def ctxs():
    space = FockSpace(6)
    return {f: exact_context(build(f, space)) for f in FAMILIES}


def _same(a, b):
    return ({k: p.c for k, p in a.entries.items()}, a.den.c, a.sqrt_sq, a.climb) == (
        {k: p.c for k, p in b.entries.items()}, b.den.c, b.sqrt_sq, b.climb)


@pytest.mark.parametrize("family", FAMILIES)
def test_every_anchor_parses(family, ctxs):
    nctx = numeric_context(ctxs[family].gens, 0.7)
    for rel in relation_catalog(family):
        for flip in (False, True):
            assert rel.builder(ctxs[family], flip).space == ctxs[family].space
            assert rel.builder(nctx, flip).q == 0.7


def test_every_casimir_formula_parses():
    for name in CASIMIR_NAMES:
        text = _CASIMIR_FORMULAS[name]
        if name == "S2":
            text = text.format(1, 2, 3, 4)
        assert callable(formula_builder(name, _CASIMIR_FAMILY[name], text))
    # the affine rule for bracket arguments and q-power exponents admits
    # every formula of the catalog and of the casimirs
    assert sum(len(relation_catalog(f)) for f in FAMILIES) == 236
    assert len(CASIMIR_NAMES) == 10


def test_operator_labels_name_generators():
    space = FockSpace(6)
    for family, table in OPERATORS.items():
        ops = build(family, space).ops
        assert set(table.values()) <= set(ops), family


@pytest.mark.parametrize("anchor,token", [
    ("[X_1, I_0] = 0", "'X_1'"),
    ("[I_0, I_+ = I_+", "'='"),
    ("(I_+ I_- = 0", "'='"),
    ("[I_0, I_+] = I_+ )", "')'"),
    ("[I_0, I_+] = I_+ I_0 ]", "']'"),
    ("[m, I_+] = 0", "'m'"),
])
def test_malformed_anchor_names_relation_and_token(anchor, token):
    with pytest.raises(ValueError) as exc:
        relation_builder("my-relation", "classical", anchor)
    msg = str(exc.value)
    assert "'my-relation'" in msg and token in msg


def test_zero_needs_a_commutator():
    with pytest.raises(ValueError, match="commutator"):
        relation_builder("bad zero", "classical", "I_+ I_- = 0")


def test_flip_rules(ctxs):
    c = ctxs["tensor"]
    zero = relation_builder("z", "tensor", "[T_1, T_0]_{q^(2)} = 0")
    assert _same(zero(c, True), c.comm(c["T1"], c["T0"], 2, flip=True))
    eq = relation_builder("e", "tensor", "L_1 = q^(-1/2) J_+ q^(-J_0)")
    rhs = c.qpow(c["Jp"] @ c.diag_pow(-STATE["J_0"]), Q(-1, 2))
    assert _same(eq(c, True), c["L1"] + rhs)
    assert _same(eq(c, False), c["L1"] - rhs)


def test_scalars_apply_right_to_left(ctxs):
    # exact scalars commute, so the order shows only in the float bits
    c = numeric_context(ctxs["tensor"].gens, 0.7)
    got = formula_builder("x", "tensor", "-q^(-2) sqrt([2]) [2] L_1 q^(-2J_0) / [2]")(c)
    want = -c.over_brk(c.qpow(c.sqrt2(c.brk(c["L1"] @ c["qm2J0"], 2)), -2), 2)
    assert got.entries == want.entries


def test_state_side_is_one_diagonal(ctxs):
    c = ctxs["classical"]
    got = relation_builder("s", "classical", "I_+ I_- = (i + i_0)(i - i_0 + 1) on |i, i_0>")
    want = c["Ip"] @ c["Im"] - c.diag_frac(StateFormula({(1, 1): 1, (1, 0): 1}))
    assert _same(got(c), want)
    assert set(STATE) >= {"N", "N_1", "N_-1", "J_0", "I_0", "K0_0", "K0^+", "K0^-",
                          "i", "i_0", "j", "m", "N_+1"}


def test_nothing_parsed_at_import():
    code = ("import sp4q, sp4q.algebras as a, sp4q.notation as n;"
            "print(len(a._CATALOG_CACHE), a._casimir_builder.cache_info().currsize,"
            " n._token_re.cache_info().currsize)")
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True).stdout
    assert out.split() == ["0", "0", "0"]


@pytest.mark.parametrize("anchor,what", [
    ("[J_0, J_+] = [N_1 N_-1] J_+", "bracket argument"),
    ("J_+ = q^(J_0 J_0) J_+", "q-power exponent"),
    ("J_+ = [N^2]_2 J_+", "bracket argument"),
])
def test_non_affine_bracket_or_q_power_is_rejected_at_parse_time(anchor, what):
    with pytest.raises(ValueError, match=f"'bad': {what} of degree 2 in \\(n1, n-1\\)"):
        relation_builder("bad", "qboson", anchor)
    # a polynomial multiplier of a plain diagonal stays allowed
    assert callable(relation_builder("fine", "qboson", "J_+ J_- = (N_1 N_-1 + 1) J_+ J_-"))


# The per-state values that the state labels had before they were
# compiled, in Fraction arithmetic, and a reference evaluator over them.
_LABEL_VALUES = {
    "N": lambda st: st.nu, "N_1": lambda st: st.n1, "N_+1": lambda st: st.n1,
    "N_-1": lambda st: st.nm1, "J_0": lambda st: st.m, "I_0": lambda st: st.m,
    "i_0": lambda st: st.m, "m": lambda st: st.m, "i": lambda st: st.j,
    "j": lambda st: st.j, "K0_0": lambda st: Q(st.nu + 1, 2),
    "K0^+": lambda st: Q(2 * st.n1 + 1, 4), "K0^-": lambda st: Q(2 * st.nm1 + 1, 4),
}


def _reference(node, st):
    tag = node[0]
    if tag == "num":
        return node[1]
    if tag == "label":
        return _LABEL_VALUES[node[1]](st)
    if tag == "sum":
        return sum((_reference(t, st) if s == "+" else -_reference(t, st))
                   for s, t in node[1])
    out = 1
    for f in node[1]:
        out *= _reference(f, st)
    for d in node[2]:
        out = Q(out, _reference(d, st))
    return out


def _state_subformulas():
    """Every sub-tree of the catalog anchors and casimir formulas that
    compiles to a state formula, once each."""
    texts = [(f, r.anchor) for f in FAMILIES for r in relation_catalog(f)]
    texts += [(_CASIMIR_FAMILY[n], _CASIMIR_FORMULAS[n].format(1, 2, 3, 4)) for n in CASIMIR_NAMES]
    found = {}

    def walk(node):
        if notation._state(node) is not None:
            found.setdefault(repr(node), node)
        tag = node[0]
        if tag in ("q", "sqrt", "brk"):
            walk(node[1])
        elif tag == "comm":
            walk(node[1])
            walk(node[2])
        elif tag == "prod":
            for t in node[1] + node[2]:
                walk(t)
        elif tag == "sum":
            for _, t in node[1]:
                walk(t)

    for family, text in texts:
        p = notation._Parser("t", family, text)
        walk(p.side())
        while p.accept("="):
            walk(p.side())
    return list(found.values())


def test_compiled_formulas_equal_the_labels():
    assert set(STATE) == set(_LABEL_VALUES)
    nodes = [("label", name) for name in STATE] + _state_subformulas()
    assert len(nodes) > 40
    for cutoff in range(4, 17):
        space = FockSpace(cutoff)
        for node in nodes:
            f = notation._state(node)
            got = [Q(p, f.div) for p in f.numerators(space)]
            assert got == [_reference(node, st) for st in space.states], (node, cutoff)


def test_state_formula_arithmetic():
    f = state_formula("(N/2)(N/2 + 1)")
    assert (f.terms, f.div, f.degree) == ({(2, 0): 1, (1, 1): 2, (0, 2): 1, (1, 0): 2,
                                           (0, 1): 2}, 4, 2)
    assert state_formula("(2 K0^+ - 1/2) / (1/2)").terms == {(1, 0): 2}
    assert state_formula("3/6").constant == Q(1, 2)
    assert state_formula("4/2").constant == 2 and state_formula("N - N").constant == 0
    assert STATE["J_0"].constant is None
    with pytest.raises(ValueError, match="not a state formula"):
        state_formula("I_+")
