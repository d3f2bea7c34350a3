"""Tests for the generator families: matrix actions, the relation
catalog, casimir constructions, classical counterparts and the
contextual (exact / classical / numeric) evaluation semantics."""

import gc
import json
import weakref
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sp4q.algebras
from sp4q.algebras import (
    CASIMIR_NAMES,
    FAMILIES,
    PointContext,
    ShapeContext,
    build,
    canonical_relations,
    casimir,
    casimir_family,
    catalog_manifest,
    classical_counterparts,
    classical_limit_context,
    exact_context,
    find_relation,
    numeric_context,
    relation_catalog,
    relation_reach,
    resolve_casimirs,
)
from sp4q.fock import FockSpace, FockState
from sp4q.notation import STATE, StateFormula
from sp4q.ops import (
    B, NumOp, QOperator, SafeSubspace, _split, _times, act, diagonal_spectrum, first_witness,
    pack, to_numeric)
from sp4q.qnum import ONE, LaurentPoly, QRationalFn, add_terms, q_int, q_power
from sp4q.verify import check_relation


@pytest.fixture(scope="module")
def spaces():
    space = FockSpace(8)
    return {fam: build(fam, space) for fam in FAMILIES}


# -- construction ----------------------------------------------------------------


def test_unknown_family_rejected():
    with pytest.raises(ValueError):
        build("nonsense", FockSpace(6))


def test_min_cutoff_enforced():
    with pytest.raises(ValueError):
        build("tensor", FockSpace(3))


def test_families_share_space(spaces):
    assert all(g.space.cutoff == 8 for g in spaces.values())
    assert spaces["tensor"].family == "tensor"


def test_build_shares_the_live_set(fresh_builds):
    g = build("tensor", FockSpace(8))
    assert build("tensor", FockSpace(8)) is g
    assert fresh_builds["tensor"] == 1


def test_build_keeps_no_set_alive(fresh_builds):
    g = build("qboson", FockSpace(8))
    ref = weakref.ref(g)
    del g
    gc.collect()
    assert ref() is None
    build("qboson", FockSpace(8))
    assert fresh_builds["qboson"] == 2


def test_generator_set_ops_are_read_only(spaces):
    g = spaces["tensor"]
    with pytest.raises(TypeError):
        g.ops["td1"] = g.ops["tm1"]
    with pytest.raises(TypeError):
        del g.ops["td1"]


# Each family's names in the order of the eager builders.
NAMES = {
    "classical": ["bd1", "b1", "bdm1", "bm1", "N1", "Nm1", "N", "I0", "A0", "P",
                  "F11", "F1m1", "Fm1m1", "G11", "G1m1", "Gm1m1", "Ip", "Im", "F0", "G0",
                  "Fp", "Gp", "Ap", "Fm", "Gm", "Am", "Fsum", "Gsum", "C10"],
    "qboson": ["ad1", "a1", "adm1", "am1", "N1", "Nm1", "N", "J0", "P",
               "Fq11", "Fq1m1", "Fqm1m1", "Gq11", "Gq1m1", "Gqm1m1", "Jp", "Jm",
               "K0p", "K0m", "K00", "Kpp", "Kpm", "Kp0", "Kmp", "Kmm", "Km0"],
    "tensor": ["td1", "tdm1", "t1", "tm1", "N1", "Nm1", "N", "J0", "Jp", "Jm", "P",
               "qm2J0", "T1", "Tm1", "T0", "Tt1", "Ttm1", "Tt0", "L1", "Lm1",
               "L01", "L00", "calN1", "calNm1"],
}


def _built(gens) -> set:
    """The operators of a set constructed so far, private ones included."""
    return set(gens.ops._built)


@pytest.mark.parametrize("family", FAMILIES)
def test_fresh_set_constructs_nothing_until_read(fresh_builds, family):
    g = build(family, FockSpace(12))
    assert fresh_builds[family] == 1
    assert list(g.ops) == NAMES[family] and len(g.ops) == len(NAMES[family])
    assert all(name in g.ops for name in NAMES[family]) and "nonsense" not in g.ops
    assert _built(g) == set()


@pytest.mark.parametrize("family,relation,named,parts", [
    ("qboson", "J-commutator", {"Jp", "Jm"}, {"ad1", "am1", "adm1", "a1"}),
    ("tensor", "T0-squared transition", {"T0", "T1", "Tm1"}, {"td1", "tdm1", "ad1", "adm1"}),
])
def test_an_exact_check_builds_only_what_its_anchor_names(
        fresh_builds, monkeypatch, family, relation, named, parts):
    g = build(family, FockSpace(12))
    check_relation((family, relation), 12, gens=g)
    assert _built(g) == named | parts
    # a numeric context converts every generator once, when it is made
    converted = []
    monkeypatch.setattr(sp4q.algebras, "to_numeric",
                        lambda op, *a, **kw: converted.append(op) or to_numeric(op, *a, **kw))
    check_relation((family, relation), 12, "numeric", gens=g)
    assert sorted(map(id, converted)) == sorted(id(g[name]) for name in NAMES[family])
    assert fresh_builds == {family: 1}


def test_tensor_set_builds_no_qboson_composite(fresh_builds):
    g = build("tensor", FockSpace(8))
    dict(g.ops)
    assert _built(g) == set(NAMES["tensor"]) | {"ad1", "a1", "adm1", "am1"}
    assert "ad1" not in g.ops
    with pytest.raises(KeyError):
        g["ad1"]
    assert fresh_builds == {"tensor": 1}


# -- generator spot values -------------------------------------------------------


def test_classical_creator_entry(spaces):
    bd1 = spaces["classical"]["bd1"]
    col = bd1.column(FockState(2, 1))
    assert col == {FockState(3, 1): ONE}


def test_qboson_creator_is_plain_shift(spaces):
    # creation acts with unit coefficient; the bracket sits in the metric
    ad1 = spaces["qboson"]["ad1"]
    col = ad1.column(FockState(1, 2))
    assert col == {FockState(2, 2): ONE}


def test_qboson_annihilator_carries_bracket(spaces):
    a1 = spaces["qboson"]["a1"]
    col = a1.column(FockState(3, 1))
    assert col == {FockState(2, 1): q_int(3)}


def test_tensor_spinor_phases(spaces):
    gens = spaces["tensor"]
    # t1+ |x,y> = s^(1+2y) |x+1,y>;  t-1+ |x,y> = s^(-1-2x) |x,y+1>
    assert gens["td1"].column(FockState(2, 3)) == {
        FockState(3, 3): q_power(Q(7, 4))
    }
    assert gens["tdm1"].column(FockState(2, 3)) == {
        FockState(2, 4): q_power(Q(-5, 4))
    }


def test_tensor_T0_carries_sqrt_flag(spaces):
    T0 = spaces["tensor"]["T0"]
    assert T0.sqrt_sq == q_int(2)
    assert T0.column(FockState(0, 0)) == {FockState(1, 1): ONE}


def test_tensor_big_raise_entries(spaces):
    gens = spaces["tensor"]
    # T1 |x,y> = s^(2+4y) |x+2,y>
    assert gens["T1"].column(FockState(1, 1)) == {FockState(3, 1): q_power(Q(3, 2))}
    # T-1 |x,y> = s^(-2-4x) |x,y+2>
    assert gens["Tm1"].column(FockState(1, 1)) == {
        FockState(1, 3): q_power(Q(-3, 2))
    }


def test_tensor_number_diagonals(spaces):
    gens = spaces["tensor"]
    window = SafeSubspace(gens.space, 8)
    for st, val in diagonal_spectrum(gens["L00"], window):
        assert val == QRationalFn(q_int(st.nu))
    # q^(-2 J0) |x,y> = s^(4y - 4x) |x,y>
    for st, val in diagonal_spectrum(gens["qm2J0"], window):
        assert val == QRationalFn(q_power(st.nm1 - st.n1))


def test_parity_operator(spaces):
    for gens in spaces.values():
        for st, val in diagonal_spectrum(gens["P"], SafeSubspace(gens.space, 8)):
            assert val == QRationalFn.from_scalar((-1) ** st.parity)


# -- catalog ---------------------------------------------------------------------


def test_catalog_sizes():
    assert len(relation_catalog("classical")) == 53
    assert len(relation_catalog("qboson")) == 66
    assert len(relation_catalog("tensor")) == 117
    total = sum(len(relation_catalog(f)) for f in FAMILIES)
    assert total == 236 and total >= 54


def test_catalog_minimum_breadth():
    assert len(relation_catalog("classical")) >= 18
    assert len(relation_catalog("qboson")) >= 16
    assert len(relation_catalog("tensor")) >= 20


def test_variants_only_in_tensor():
    for fam in ("classical", "qboson"):
        assert all(r.expect_holds for r in relation_catalog(fam))
    variants = [r for r in relation_catalog("tensor") if not r.expect_holds]
    assert len(variants) == 22
    assert all(r.variant_of is not None for r in variants)
    assert all(r.name.endswith(" (variant)") for r in variants)


def test_canonical_relations_excludes_variants():
    rels = canonical_relations("tensor")
    assert len(rels) == 95
    assert all(r.expect_holds for r in rels)


def test_find_relation():
    rel = find_relation("qboson", "J-commutator")
    assert rel.family == "qboson"
    with pytest.raises(KeyError):
        find_relation("qboson", "no-such-relation")


def test_required_names_present():
    names = {r.name for r in relation_catalog("tensor")}
    assert {"trivial-self", "t-t-dagger", "T-tilde-T m1+m2=0, top"} <= names
    assert "Bose-cc" in {r.name for r in relation_catalog("classical")}


def test_relation_reaches():
    assert relation_reach(find_relation("qboson", "J-commutator")) == 0
    assert relation_reach(find_relation("tensor", "T-tilde-T m1+m2=0, top")) == 2
    assert relation_reach(find_relation("classical", "Bose-cc")) == 1
    assert relation_reach(find_relation("tensor", "t-t-dagger")) == 1


def test_catalog_manifest_roundtrip():
    for fam in FAMILIES:
        manifest = catalog_manifest(fam)
        txt = json.dumps(manifest, sort_keys=True)
        assert json.loads(txt) == json.loads(
            json.dumps(json.loads(txt), sort_keys=True)
        )
        assert all(row["reach"] >= 0 for row in manifest)


def test_builders_produce_residuals(spaces):
    ctx = exact_context(spaces["tensor"])
    rel = find_relation("tensor", "t-t-dagger")
    res = rel.builder(ctx)
    window = SafeSubspace(spaces["tensor"].space, 8 - max(res.climb, 0))
    assert first_witness(res, window) is None
    flipped = rel.builder(ctx, True)
    assert first_witness(flipped, window) is not None


# -- contexts --------------------------------------------------------------------


def test_classical_context_brackets_degenerate(spaces):
    ctx = classical_limit_context(spaces["qboson"])
    assert ctx.kind == "classical"
    # [n] -> n and q-powers -> 1 under the classical scalar semantics
    assert ctx.power_scalar(Q(5, 2)) == 1


def test_numeric_context_matches_exact(spaces):
    gens = spaces["tensor"]
    nctx = numeric_context(gens, 0.7)
    st = FockState(1, 1)
    exact = gens["L1"].column(st)
    (dst,) = exact.keys()
    # normalized numeric entry equals coeff * sqrt(G(dst)/G(src))
    num = nctx["L1"].entries[(gens.space.index(dst), gens.space.index(st))]
    from sp4q.ops import gram

    want = exact[dst](0.7) * (gram(dst)(0.7) / gram(st)(0.7)) ** 0.5
    assert abs(num - want) < 1e-12 * (1 + abs(want))


def test_numeric_context_rejects_bad_q(spaces):
    for q in (0.0, -2.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="positive"):
            numeric_context(spaces["tensor"], q)
    # the generators need no bracket at q = 1, and classical brackets are n
    assert numeric_context(spaces["qboson"], 1.0)["Jp"].entries
    classical = numeric_context(spaces["classical"], 1.0)
    assert classical.brk(classical.ident(), 3).entries[(0, 0)] == 3.0


# -- classical counterparts ------------------------------------------------------


def test_counterparts_cover_deformed_elements(spaces):
    classical = spaces["classical"]
    for fam in ("qboson", "tensor"):
        table = classical_counterparts(spaces[fam], classical)
        assert set(table) <= set(spaces[fam].ops)
        assert set(spaces[fam].elements) <= set(table)
        assert len(table) >= 10


def test_counterpart_spot_values(spaces):
    classical = spaces["classical"]
    table = classical_counterparts(spaces["tensor"], classical)
    # the deformed pair creator T1 degenerates onto the classical F+1
    assert table["T1"] is classical["F11"] or first_witness(
        table["T1"] - classical["F11"], SafeSubspace(classical.space, 6)
    ) is None


def test_classical_replay_builds_only_what_the_relation_reads(fresh_builds):
    ctx = classical_limit_context(build("qboson", FockSpace(12)))
    classical = ctx.gens
    assert _built(classical) == set()
    res = find_relation("qboson", "J-commutator").builder(ctx)
    assert first_witness(res, SafeSubspace(ctx.space, 12)) is None
    # [J_+, J_-] = [2 J_0] reads J_+ and J_-: the classical I_+ and I_-,
    # composed of the four mode operators
    assert _built(classical) == {"Ip", "Im", "bd1", "b1", "bdm1", "bm1"}
    assert fresh_builds == {"qboson": 1, "classical": 1}


# -- casimirs --------------------------------------------------------------------


def test_resolve_casimirs_aliases():
    assert resolve_casimirs("L2") == ("L2",)
    assert resolve_casimirs("K0_2") == ("K02",)
    assert resolve_casimirs("C2_SUq0") == ("K02",)
    assert resolve_casimirs("C2_SUpm_classical") == ("C2SUp", "C2SUm")
    with pytest.raises(ValueError):
        resolve_casimirs("nope")


def test_casimir_families():
    assert casimir_family("I2") == "classical"
    assert casimir_family("K02") == "qboson"
    assert casimir_family("L2") == "tensor"
    assert casimir_family("S2") == "tensor"


def test_casimir_unknown_name(spaces):
    with pytest.raises(ValueError):
        casimir("Z9", spaces["tensor"])


def test_casimir_I2_spot_value(spaces):
    op = casimir("I2", spaces["classical"])
    window = SafeSubspace(spaces["classical"].space, 8)
    for st, val in diagonal_spectrum(op, window):
        j = Q(st.nu, 2)
        assert val == QRationalFn.from_scalar(j * (j + 1))


def test_casimir_weighted_scalar(spaces):
    # S2 with unit weights stays diagonal; climb covers its T~ T span
    op = casimir("S2", spaces["tensor"], weights=(1, 1, 1, 1))
    window = SafeSubspace(spaces["tensor"].space, 8 - max(op.climb, 0))
    spec = diagonal_spectrum(op, window)
    assert spec, "spectrum should not be empty"


@pytest.mark.parametrize("name", [n for n in CASIMIR_NAMES if n != "S2"])
def test_casimir_weights_only_for_s2(spaces, name):
    # weights used to be dropped without a word for every casimir but S2
    with pytest.raises(ValueError, match="only to the casimir S2"):
        casimir(name, spaces[casimir_family(name)], weights=(1, 1, 1, 1))


# -- integer stores ------------------------------------------------------------------


def _integral(op) -> bool:
    return type(op.k) is int and op.k > 0 and all(
        type(v) is int for poly in op.store.values() for v in poly.c.values())


@pytest.mark.parametrize("cutoff", [8, 12])
@pytest.mark.parametrize("family", FAMILIES)
def test_generators_store_int_coefficients(family, cutoff):
    gens = build(family, FockSpace(cutoff))
    assert all(_integral(op) for op in gens.ops.values())
    # the rational constants went into the divisor, not into the store
    if family != "tensor":
        assert max(op.k for op in gens.ops.values()) > 1


@pytest.mark.parametrize("family", FAMILIES)
def test_catalog_residuals_store_int_coefficients(family):
    gens = build(family, FockSpace(8))
    for ctx in (exact_context(gens), classical_limit_context(gens)):
        for rel in relation_catalog(family):
            for flip in (False, True):
                res = rel.builder(ctx, flip)
                assert _integral(res), (ctx.kind, rel.name, flip)


def test_manifest_keeps_no_reach_set_alive(fresh_builds, monkeypatch):
    monkeypatch.setattr(sp4q.algebras, "_REACH_CACHE", {})
    for fam in FAMILIES:
        catalog_manifest(fam)
    gc.collect()
    assert not [key for key in sp4q.algebras._LIVE.keys() if key[1] == 6]
    # one set per family served every relation of its manifest
    assert fresh_builds == {fam: 1 for fam in FAMILIES}


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_a_word_on_a_ket_is_the_column_of_its_product(data):
    # act(word, ket(st)) against the column of the whole product, built
    # here with @ from the identity: same entries, den and sqrt flag, and
    # the same numeric column to 1e-12 relative
    family = data.draw(st.sampled_from(FAMILIES))
    gens = build(family, FockSpace(data.draw(st.integers(6, 10))))
    word = data.draw(st.lists(st.tuples(st.sampled_from(gens.elements), st.integers(0, 3)),
                              min_size=1, max_size=3))
    state = data.draw(st.sampled_from(gens.space.states))
    q = data.draw(st.sampled_from((0.7, 1.3)))
    nctx = numeric_context(gens, q)
    product, nproduct = QOperator.identity(gens.space), NumOp.identity(gens.space, q)
    for name, k in word:
        for _ in range(k):
            product, nproduct = product @ gens[name], nproduct @ nctx[name]
    ket = act([(gens[name], k) for name, k in word], QOperator.ket(gens.space, state))
    assert ket.column(state) == product.column(state)
    assert (ket.den, ket.sqrt_sq) == (product.den, product.sqrt_sq)
    src = gens.space.index(state)
    nket = act([(nctx[name], k) for name, k in word], NumOp.ket(gens.space, q, state))
    got = {d: v for (d, s), v in nket.entries.items() if s == src}
    want = {d: v for (d, s), v in nproduct.entries.items() if s == src}
    assert set(got) == set(want)
    for d, v in want.items():
        assert abs(got[d] - v) <= 1e-12 * abs(v), (word, state, d)


# -- diagonals: the scaling paths of @ against the general loop -----------------


def _general_matmul(a, b):
    """a @ b by the general index-and-accumulate loop, kept here as the
    reference of the diagonal paths of QOperator.__matmul__."""
    by_src = {}
    for (d, s), poly in a.store.items():
        by_src.setdefault(s, []).append((d, poly))
    entries = {}
    for (mid, src), bpoly in b.store.items():
        for dst, apoly in by_src.get(mid, ()):
            prod = (apoly * bpoly).c
            c = entries.get((dst, src))
            if c is None:
                entries[(dst, src)] = dict(prod)
                continue
            add_terms(c, prod)
            if not c:
                del entries[(dst, src)]
    entries = {key: LaurentPoly._of(c) for key, c in entries.items()}
    k, flag = a.k * b.k, a.sqrt_sq if b.sqrt_sq is None else b.sqrt_sq
    if a.sqrt_sq is not None and b.sqrt_sq is not None:
        base, d = _split(a.sqrt_sq)
        entries, k, flag = _times(entries, base), k * d, None
    return QOperator._of(a.space, entries, k, a.den * b.den, flag,
                         a.nu_raise + b.nu_raise, a.nu_lower + b.nu_lower,
                         max(b.climb, b.nu_raise + a.climb))


def _general_num_matmul(a, b):
    by_src = {}
    for (d, s), v in a.entries.items():
        by_src.setdefault(s, []).append((d, v))
    entries = {}
    for (mid, src), bv in b.entries.items():
        for dst, av in by_src.get(mid, ()):
            entries[(dst, src)] = entries.get((dst, src), 0.0) + av * bv
    return NumOp(a.space, a.q, entries, a.nu_raise + b.nu_raise, a.nu_lower + b.nu_lower,
                 max(b.climb, b.nu_raise + a.climb))


def _exact_layout(op):
    return (list(op.store), [list(p.c.items()) for p in op.store.values()], op.k,
            list(op.den.c.items()), op.sqrt_sq, op.nu_raise, op.nu_lower, op.climb)


def _float_layout(op):
    # hex tells -0.0 from 0.0, so equal layouts are bitwise-equal floats
    return ([(key, v.hex()) for key, v in op.entries.items()], op.nu_raise, op.nu_lower,
            op.climb)


_affine = st.builds(lambda a, b, c, d: StateFormula({(1, 0): a, (0, 1): b, (0, 0): c}, d),
                    st.integers(-3, 3), st.integers(-3, 3), st.integers(-4, 4),
                    st.sampled_from((1, 2, 4)))
_quadratic = st.builds(lambda f, e: f * StateFormula({(1, 0): 1, (0, 0): e}),
                       _affine, st.integers(-2, 2))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_diagonal_products_match_the_general_loop(data):
    # a random bracket, q-power or rational diagonal times a generator, a
    # product of two, a ket or another diagonal, on either side: the
    # scaling paths give the general loop's store, key order, term order,
    # divisor, den, flag, bounds and climb, and bitwise its floats
    family = data.draw(st.sampled_from(FAMILIES))
    gens = build(family, FockSpace(data.draw(st.integers(4, 10))))
    ctx, nctx = exact_context(gens), numeric_context(gens, data.draw(st.sampled_from((0.7, 1.3))))

    def spec():
        kind = data.draw(st.sampled_from(("diag_brk", "diag_pow", "diag_frac")))
        f = data.draw(st.one_of(_affine, _quadratic) if kind == "diag_frac" else _affine)
        args = (data.draw(st.integers(1, 2)),) if kind == "diag_brk" else ()
        return lambda c: getattr(c, kind)(f, *args)

    diagonal = spec()
    other = data.draw(st.sampled_from(("word", "sum", "ket", "diagonal")))
    names = data.draw(st.lists(st.sampled_from(gens.elements), min_size=0, max_size=2))
    if other == "sum":
        # a sum's store is not sorted by source, nor one of diagonals by index
        names = data.draw(st.lists(st.sampled_from(gens.elements), min_size=2, max_size=2))
    state = data.draw(st.sampled_from(gens.space.states))
    second = spec()
    for c, general, layout in ((ctx, _general_matmul, _exact_layout),
                               (nctx, _general_num_matmul, _float_layout)):
        if other == "ket":
            x = (QOperator.ket(gens.space, state) if c is ctx
                 else NumOp.ket(gens.space, nctx.q, state))
        elif other == "diagonal":
            x = second(c)
        elif other == "sum":
            a, b = c[names[0]], c[names[1]]
            x = a @ b + (b @ a).scale(2)
        else:
            x = c.ident()
            for name in names:
                x = x @ c[name]
        d = diagonal(c) + second(c) if other == "sum" else diagonal(c)
        for a, b in ((d, x), (x, d)):
            assert layout(a @ b) == layout(general(a, b)), (names, other)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_products_on_a_column_match_the_full_index(data):
    # the general loop indexes only the columns of the left factor that
    # the right one's rows name: a word on a ket and a product of two
    # generators give the store, key order, term order and bitwise floats
    # of the loop that indexes the whole left factor
    family = data.draw(st.sampled_from(FAMILIES))
    gens = build(family, FockSpace(data.draw(st.integers(4, 10))))
    nctx = numeric_context(gens, 0.7)
    names = data.draw(st.lists(st.sampled_from(gens.elements), min_size=1, max_size=3))
    state = data.draw(st.sampled_from(gens.space.states))
    for c, x, general, layout in (
            (gens, QOperator.ket(gens.space, state), _general_matmul, _exact_layout),
            (nctx, NumOp.ket(gens.space, 0.7, state), _general_num_matmul, _float_layout)):
        for y in (x, c[names[-1]]):
            for name in names:
                assert layout(c[name] @ y) == layout(general(c[name], y)), names
                y = c[name] @ y


# -- the point decision: the image at s = 2^B -----------------------------------

_LABELS = ("N", "N_1", "N_-1", "J_0", "K0_0", "K0^+", "K0^-")


def _expression(data, names, depth):
    """A random operator expression ``fn(ctx)``: words, sums and
    q-commutators of generators, bracket, q-power and rational diagonals,
    and scalars."""
    if depth == 0 or data.draw(st.booleans()):
        kind = data.draw(st.sampled_from(("gen", "gen", "gen", "diag_brk", "diag_pow",
                                          "diag_frac", "ident")))
        if kind == "gen":
            name = data.draw(st.sampled_from(names))
            return lambda ctx: ctx[name]
        if kind == "ident":
            return lambda ctx: ctx.ident()
        f = STATE[data.draw(st.sampled_from(_LABELS))]
        args = (data.draw(st.integers(1, 2)),) if kind == "diag_brk" else ()
        return lambda ctx: getattr(ctx, kind)(f, *args)
    a = _expression(data, names, depth - 1)
    node = data.draw(st.sampled_from(("@", "+", "-", "comm", "brk", "over_brk", "qpow",
                                      "frac", "sqrt2", "neg")))
    if node == "neg":
        return lambda ctx: -a(ctx)
    if node in ("brk", "over_brk", "qpow", "frac"):
        x = data.draw(st.sampled_from((0, 1, 2, -3) if node == "brk" else (1, 2, 3)
                                      if node == "over_brk" else (Q(-1, 2), Q(3, 4), 1)))
        args = (x, data.draw(st.integers(1, 2))) if node.endswith("brk") else (x,)
        return lambda ctx: getattr(ctx, node)(a(ctx), *args)
    if node == "sqrt2":
        return lambda ctx: ctx.sqrt2(a(ctx))
    b = _expression(data, names, depth - 1)
    if node == "comm":
        rho = data.draw(st.sampled_from((0, 1, Q(-1, 2), -2)))
        return lambda ctx: ctx.comm(a(ctx), b(ctx), rho)
    return {"@": lambda ctx: a(ctx) @ b(ctx), "+": lambda ctx: a(ctx) + b(ctx),
            "-": lambda ctx: a(ctx) - b(ctx)}[node]


def _assert_packed_image(point, exact):
    # the image keeps the exact result's divisor, den, flag and bounds;
    # every exact entry is in it with the same V at the same e0 and an L
    # no smaller than the entry's l1 norm, and an image entry the exact
    # result lacks is undecided: V = 0 with L at least 2^(B-1)
    assert (point.k, point.den, point.sqrt_sq, point.nu_raise, point.nu_lower,
            point.climb) == (exact.k, exact.den, exact.sqrt_sq, exact.nu_raise,
                             exact.nu_lower, exact.climb)
    for key, poly in exact.store.items():
        e0, v, bound = point.store[key]
        assert (e0, v) == pack(poly)[:2]
        assert sum(map(abs, poly.c.values())) <= bound
    for key, (_, v, bound) in point.store.items():
        if key not in exact.store:
            assert v == 0 and bound >= 1 << (B - 1)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_point_image_is_the_packed_exact_result(data):
    # an expression built in a PointContext is the exact result packed
    # (see _assert_packed_image); where the exact algebra refuses a sum
    # of mixed flags, so does the image
    family = data.draw(st.sampled_from(FAMILIES))
    gens = build(family, FockSpace(data.draw(st.integers(4, 10))))
    ctx = data.draw(st.sampled_from((exact_context, classical_limit_context)))(gens)
    names = sorted(gens.ops)
    expr = _expression(data, names, data.draw(st.integers(1, 4)))
    try:
        exact = expr(ctx)
    except ValueError:
        with pytest.raises(ValueError):
            expr(PointContext(ctx))
        return
    _assert_packed_image(expr(PointContext(ctx)), exact)


def test_point_image_of_a_large_power_keeps_undecided_entries():
    # classical A0 at cutoff 7 has integer entries up to 8 over k = 2, so
    # the @ tree A0^8 has an entry with L = 8^8 = 2^24, past 2^(B-1); and
    # A0^8 - A0^8 cancels in the exact store, while its image keeps that
    # entry with V = 0, undecided
    gens = build("classical", FockSpace(7))
    ctx = classical_limit_context(gens)

    def power(c):
        a2 = c["A0"] @ c["A0"]
        a4 = a2 @ a2
        return a4 @ a4

    point, exact = power(PointContext(ctx)), power(ctx)
    _assert_packed_image(point, exact)
    assert max(bound for _, _, bound in point.store.values()) == 1 << 24
    zero, image = power(ctx) - exact, point - power(PointContext(ctx))
    assert not zero.store and image.store
    _assert_packed_image(image, zero)


@pytest.mark.parametrize("family", FAMILIES)
def test_shape_climb_is_the_exact_residual_climb(family):
    gens = build(family, FockSpace(8))
    shape, exact = ShapeContext(gens), exact_context(gens)
    for rel in relation_catalog(family):
        for flip in (False, True):
            s, e = rel.builder(shape, flip), rel.builder(exact, flip)
            assert not s.store
            assert (s.nu_raise, s.nu_lower, s.climb) == (e.nu_raise, e.nu_lower, e.climb), (
                rel.name, flip)
