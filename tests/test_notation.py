"""Tests for the anchor notation: every catalogued anchor and casimir
formula parses, malformed formulas are rejected by name and token, the
evaluation rules hold, and nothing is parsed at import."""

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
from sp4q.notation import OPERATORS, STATE, formula_builder, relation_builder


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
    rhs = c.qpow(c["Jp"] @ c.diag_pow(lambda st: -st.m), Q(-1, 2))
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
    want = c["Ip"] @ c["Im"] - c.diag_frac(lambda st: st.n1 * (st.nm1 + 1))
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
