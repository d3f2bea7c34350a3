"""Tests for the exact operator layer: composition, deformed commutators,
truncation bookkeeping, squared matrix elements and the numeric bridge."""

import math
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sp4q.fock import FockSpace, FockState
from sp4q.ops import (
    B,
    NumOp,
    PointOp,
    QOperator,
    SafeSubspace,
    basis_norms,
    classical_gram,
    diagonal_spectrum,
    first_witness,
    gram,
    gram_squared_element,
    is_zero_on,
    q_commutator,
    to_numeric,
)
from sp4q.qnum import LaurentPoly, ONE, QRationalFn, q_int


# Minimal q-boson mode operators, built inline so this module does not
# depend on the algebra layer.


def creator(space, mode):
    def rule(st):
        if mode == 1:
            return FockState(st.n1 + 1, st.nm1), ONE
        return FockState(st.n1, st.nm1 + 1), ONE

    return QOperator.from_rule(space, rule, nu_raise=1)


def annihilator(space, mode):
    def rule(st):
        n = st.n1 if mode == 1 else st.nm1
        if n == 0:
            return None
        if mode == 1:
            return FockState(st.n1 - 1, st.nm1), q_int(n)
        return FockState(st.n1, st.nm1 - 1), q_int(n)

    return QOperator.from_rule(space, rule, nu_lower=1)


def test_declared_bounds_are_enforced():
    space = FockSpace(3)
    with pytest.raises(ValueError):
        QOperator(space, {(space.index(FockState(1, 0)), 0): ONE}, nu_raise=0)
    with pytest.raises(ValueError):
        QOperator(space, {(0, 0): LaurentPoly.zero()})


def test_compose_number_operator():
    space = FockSpace(4)
    num1 = creator(space, 1) @ annihilator(space, 1)
    sub = SafeSubspace(space, 4)  # nu-preserving product is safe everywhere
    for state, value in diagonal_spectrum(num1, sub):
        assert value == QRationalFn(q_int(state.n1))
    assert num1.entry(FockState(1, 0), FockState(1, 0)) == q_int(1)


def test_q_commutator_of_mode_operators():
    space = FockSpace(6)
    a1, ad1 = annihilator(space, 1), creator(space, 1)
    res = q_commutator(a1, ad1, 0)
    assert res.climb == 1
    for state, value in diagonal_spectrum(res, SafeSubspace(space, 5)):
        assert value == QRationalFn(q_int(state.n1 + 1) - q_int(state.n1))
    # the same holds a fortiori on the smaller window nu <= cutoff - 2
    for state, value in diagonal_spectrum(res, SafeSubspace(space, 4)):
        assert value == QRationalFn(q_int(state.n1 + 1) - q_int(state.n1))


def test_truncation_makes_top_shell_untrustworthy():
    # [a_1, a_-1^dag] = 0 exactly, but the truncated product lies at nu = cutoff.
    space = FockSpace(5)
    res = q_commutator(annihilator(space, 1), creator(space, -1), 0)
    assert res.climb == 1
    assert is_zero_on(res, SafeSubspace(space, 4))
    assert not is_zero_on(res, SafeSubspace(space, 5))
    src, dst, poly = first_witness(res, SafeSubspace(space, 5))
    assert src.nu == 5 and dst.nu == 5
    assert not poly.is_zero


def test_climb_bookkeeping_through_composition():
    space = FockSpace(8)
    raise2 = creator(space, 1) @ creator(space, 1)
    lower2 = annihilator(space, 1) @ annihilator(space, 1)
    assert raise2.climb == 2 and raise2.nu_raise == 2
    assert lower2.climb == 0 and lower2.nu_lower == 2
    assert (raise2 @ lower2).climb == 2  # lowers first: no extra headroom used
    assert (lower2 @ raise2).climb == 2  # raises first: climbs by 2
    assert (raise2 @ raise2).climb == 4


def test_column_and_power():
    space = FockSpace(5)
    ad1 = creator(space, 1)
    cube = ad1 @ ad1 @ ad1
    col = cube.column(FockState(0, 0))
    assert col == {FockState(3, 0): ONE}
    assert cube.climb == 3


def test_gram_squared_elements():
    space = FockSpace(10)
    jplus = creator(space, 1) @ annihilator(space, -1)
    # squared element of J+ between normalized states is [j-m][j+m+1]
    val = gram_squared_element(jplus, FockState(1, 1), FockState(0, 2))
    assert val == QRationalFn(q_int(2) * q_int(1))
    for src in space.states:
        if src.nm1 == 0 or src.nu == space.cutoff:
            continue
        dst = FockState(src.n1 + 1, src.nm1 - 1)
        expect = q_int(int(src.j - src.m)) * q_int(int(src.j + src.m) + 1)
        assert gram_squared_element(jplus, dst, src) == QRationalFn(expect)


def test_gram_squared_classical():
    # classical I+ = b_1^dag b_-1: squared element (i - i0)(i + i0 + 1)
    space = FockSpace(6)

    def b_lower(mode):
        def rule(st):
            n = st.n1 if mode == 1 else st.nm1
            if n == 0:
                return None
            dst = FockState(st.n1 - 1, st.nm1) if mode == 1 else FockState(st.n1, st.nm1 - 1)
            return dst, LaurentPoly.const(n)

        return QOperator.from_rule(space, rule, nu_lower=1)

    iplus = creator(space, 1) @ b_lower(-1)
    val = gram_squared_element(iplus, FockState(2, 0), FockState(1, 1), classical_gram)
    assert val == QRationalFn(LaurentPoly.const(2))


def test_sqrt_flag_algebra():
    space = FockSpace(3)
    ident = QOperator.identity(space)
    two = q_int(2)
    flagged = ident.times_sqrt(two)
    assert flagged.sqrt_sq == two
    # multiplying two sqrt([2]) factors absorbs [2] exactly
    prod = flagged @ flagged
    assert prod.sqrt_sq is None
    assert prod.entry(FockState(0, 0), FockState(0, 0)) == two
    # a second times_sqrt collapses the flag the same way
    assert flagged.times_sqrt(two).entries == prod.entries
    with pytest.raises(ValueError):
        flagged + ident
    zero = QOperator.zero(space)
    assert (flagged + zero.scale(1)).sqrt_sq == two


def test_shared_denominators_cross_multiply():
    space = FockSpace(2)
    a = QOperator.identity(space).over(q_int(2))
    b = QOperator.identity(space)
    total = a + b
    sub = SafeSubspace(space, 2)
    for _, value in diagonal_spectrum(total, sub):
        assert value == QRationalFn(ONE + q_int(2), q_int(2))
    assert is_zero_on(a + (-b) - (a - b), sub)


def test_diagonal_spectrum_rejects_off_diagonal():
    space = FockSpace(3)
    with pytest.raises(ValueError):
        diagonal_spectrum(creator(space, 1), SafeSubspace(space, 2))


def test_to_numeric_entries_and_adjointness():
    space = FockSpace(6)
    ad1, a1 = creator(space, 1), annihilator(space, 1)
    num = to_numeric(ad1, 2.0)
    key = (space.index(FockState(2, 0)), space.index(FockState(1, 0)))
    assert num.entries[key] == pytest.approx(math.sqrt(2.5), rel=1e-14)
    for q in (0.7, 1.3):
        lhs = to_numeric(a1, q)
        rhs = to_numeric(ad1, q).transpose()
        diff = lhs - rhs
        scale = 1.0 + max(lhs.max_abs(), rhs.max_abs())
        assert diff.max_abs() <= 1e-12 * scale


def test_shared_basis_norms_give_identical_entries():
    space = FockSpace(6)
    ad1 = creator(space, 1)
    norms = basis_norms(space, 1.3)
    assert norms[space.index(FockState(2, 0))] == math.sqrt(gram(FockState(2, 0))(1.3))
    assert to_numeric(ad1, 1.3, norms=norms).entries == to_numeric(ad1, 1.3).entries
    for q in (0.0, -2.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="positive"):
            basis_norms(space, q)
        with pytest.raises(ValueError, match="positive"):
            to_numeric(ad1, q, norms=norms)


def test_numeric_composition_matches_exact():
    space = FockSpace(6)
    ad1, a1 = creator(space, 1), annihilator(space, 1)
    q = 1.3
    exact_prod = to_numeric(ad1 @ a1, q)
    num_prod = to_numeric(ad1, q) @ to_numeric(a1, q)
    assert (exact_prod - num_prod).max_abs() <= 1e-12 * (1 + exact_prod.max_abs())


def test_truncation_soundness_window_agreement():
    small, large = FockSpace(8), FockSpace(10)
    for build in (lambda sp: creator(sp, 1) @ creator(sp, -1),
                  lambda sp: q_commutator(annihilator(sp, 1), creator(sp, 1), 0)):
        op_small, op_large = build(small), build(large)
        window = 8 - op_small.climb
        by_state_small = {
            (small.states[d], small.states[s]): poly
            for (d, s), poly in op_small.entries.items()
            if small.states[s].nu <= window
        }
        by_state_large = {
            (large.states[d], large.states[s]): poly
            for (d, s), poly in op_large.entries.items()
            if large.states[s].nu <= window
        }
        assert by_state_small == by_state_large


# -- fused accumulation against the unfused reference ---------------------------
#
# The reference below is the operator arithmetic as an explicit chain of
# polynomial sums: each product or entry is added to a copy of the
# accumulated coefficient dict (``entries.get(key, zero) + a * b``).  The
# fused paths must give the same entries, the same coefficients and the
# same insertion order of both, since the float sums of LaurentPoly.__call__
# follow that order.


def _ref_add(x: dict, y: dict) -> dict:
    """Coefficient dict of LaurentPoly(x) + LaurentPoly(y), term by term."""
    c = dict(x)
    for k, v in y.items():
        w = c.get(k, 0) + v
        if w:
            c[k] = w.numerator if type(w) is Q and w.denominator == 1 else w
        elif k in c:
            del c[k]
    return c


def _ref_accumulate(entries: dict, key, c: dict) -> None:
    acc = _ref_add(entries.get(key, {}), c)
    if acc:
        entries[key] = acc
    else:
        entries.pop(key, None)


def _ref_matmul(a: QOperator, b: QOperator) -> dict:
    by_src = {}
    for (d, s), poly in a.entries.items():
        by_src.setdefault(s, []).append((d, poly))
    entries = {}
    for (mid, src), bpoly in b.entries.items():
        for dst, apoly in by_src.get(mid, ()):
            _ref_accumulate(entries, (dst, src), (apoly * bpoly).c)
    return entries


def _ref_plus(a: QOperator, b: QOperator, sign: int) -> dict:
    def signed(poly):
        return poly.c if sign > 0 else {k: -v for k, v in poly.c.items()}

    if a.den == b.den:
        entries = {key: poly.c for key, poly in a.entries.items()}
        for key, poly in b.entries.items():
            _ref_accumulate(entries, key, signed(poly))
        return entries
    entries = {key: (poly * b.den).c for key, poly in a.entries.items()}
    for key, poly in b.entries.items():
        _ref_accumulate(entries, key, (LaurentPoly._of(signed(poly)) * a.den).c)
    return entries


def _layout(entries: dict) -> list:
    """Entry keys and every coefficient with its type, in insertion order;
    entries are LaurentPoly or coefficient dicts."""
    return [
        (key, [(k, v, type(v)) for k, v in getattr(c, "c", c).items()])
        for key, c in entries.items()
    ]


# Few states, exponents and coefficient values, so that products collide
# and cancel often, and a cancelled coefficient may come back.
_SPACE = FockSpace(2)
_coeff = st.sampled_from([1, -1, 2, -2, 3, Q(1, 2), Q(-1, 2), Q(3, 2), Q(-2, 3)])
_poly = st.dictionaries(
    st.integers(min_value=-3, max_value=3), _coeff, min_size=1, max_size=4
).map(LaurentPoly)
_index = st.integers(min_value=0, max_value=_SPACE.dimension - 1)
_entries = st.dictionaries(st.tuples(_index, _index), _poly, max_size=12)
_den = st.sampled_from([ONE, q_int(2), LaurentPoly({4: 1}), LaurentPoly({0: Q(1, 2)})])


def _op(entries: dict, den=ONE) -> QOperator:
    return QOperator(_SPACE, entries, den=den, nu_raise=2, nu_lower=2)


@st.composite
def _operator_pairs(draw):
    """Two operators; the second repeats some entries of the first, negated
    or not, so that sums cancel whole entries and single coefficients."""
    a = draw(_entries)
    b = draw(_entries)
    for key in draw(st.lists(st.sampled_from(sorted(a)), max_size=4)) if a else ():
        b[key] = draw(st.sampled_from([a[key], -a[key], a[key] + b.get(key, ONE)]))
    b = {key: poly for key, poly in b.items() if poly}
    return _op(a, draw(_den)), _op(b, draw(_den))


@settings(max_examples=150, deadline=None)
@given(_operator_pairs())
def test_fused_matmul_matches_reference(pair):
    a, b = pair
    for x, y in ((a, b), (b, a), (a, a)):
        assert _layout((x @ y).entries) == _layout(_ref_matmul(x, y))


@settings(max_examples=150, deadline=None)
@given(_operator_pairs())
def test_fused_add_and_sub_match_reference(pair):
    a, b = pair
    for x, y in ((a, b), (b, a), (a, a)):
        assert _layout((x + y).entries) == _layout(_ref_plus(x, y, 1))
        assert _layout((x - y).entries) == _layout(_ref_plus(x, y, -1))


def test_sums_share_untouched_entries():
    space = FockSpace(3)
    a, b = creator(space, 1), creator(space, -1)
    for total in (a + b, a - b):
        assert all(total.entries[key] is poly for key, poly in a.entries.items())


# -- integer store over one divisor ------------------------------------------------
#
# Entries are stored with int coefficients over one positive int divisor k;
# ``entries`` is store / k.  Every result must keep the store integral and
# show the entries the Fraction reference gives, down to key order and
# coefficient types.

_factor = st.sampled_from([2, -3, Q(1, 2), Q(-1, 2), Q(3, 4), Q(-2, 3), Q(7, 2)])
_base = st.sampled_from([q_int(2), LaurentPoly.const(2), LaurentPoly({0: Q(3, 2), 4: 1})])


def _integral_store(op: QOperator) -> bool:
    return type(op.k) is int and op.k > 0 and all(
        type(v) is int for poly in op.store.values() for v in poly.c.values())


def _times_ref(a: QOperator, factor) -> dict:
    return {key: (poly * factor).c for key, poly in a.entries.items()}


@settings(max_examples=150, deadline=None)
@given(_operator_pairs(), _factor, _base)
def test_integer_store_matches_fraction_reference(pair, factor, base):
    a, b = pair
    assert _integral_store(a) and _integral_store(b)
    results = [a @ b, a + b, a - b, -a]
    assert _layout((-a).entries) == _layout({k: (-p).c for k, p in a.entries.items()})
    scaled = a.scale(factor)
    results.append(scaled)
    assert _layout(scaled.entries) == _layout(_times_ref(a, factor))
    assert scaled.den == a.den
    over = a.over(base)
    results.append(over)
    assert _layout(over.entries) == _layout(a.entries) and over.den == a.den * base
    flagged = a.times_sqrt(base)
    results.append(flagged)
    assert _layout(flagged.entries) == _layout(a.entries) and flagged.sqrt_sq == base
    collapsed = flagged.times_sqrt(base)
    results.append(collapsed)
    assert _layout(collapsed.entries) == _layout(_times_ref(a, base))
    assert collapsed.sqrt_sq is None
    both = flagged @ b.times_sqrt(base)
    results.append(both)
    assert _layout(both.entries) == _layout(
        {key: (LaurentPoly._of(c) * base).c for key, c in _ref_matmul(a, b).items()})
    assert both.sqrt_sq is None and both.den == a.den * b.den
    assert all(_integral_store(op) for op in results)


def test_rational_entries_fold_into_one_divisor():
    space = FockSpace(2)
    op = QOperator(space, {(0, 0): LaurentPoly({0: Q(1, 2), 4: 3}),
                           (1, 1): LaurentPoly.const(Q(-2, 3))})
    assert op.k == 6 and _integral_store(op)
    assert op.store[(0, 0)].c == {0: 3, 4: 18}
    assert op.entries[(0, 0)].c == {0: Q(1, 2), 4: 3}
    assert type(op.entries[(0, 0)].c[4]) is int
    assert op.entry(space.states[1], space.states[1]) == LaurentPoly.const(Q(-2, 3))
    ident = QOperator.identity(space)
    assert ident.k == 1 and ident.entries is ident.store


@pytest.mark.parametrize("q", [0.7, 1.3, 2.0])
def test_to_numeric_is_bitwise_the_rational_evaluation(q):
    space = FockSpace(6)
    base = creator(space, 1) @ annihilator(space, 1)
    half = base.scale(Q(1, 2))
    quarter = half.scale(Q(3, 2)).over(q_int(2)).times_sqrt(q_int(2))
    norms = basis_norms(space, q)
    for op, factor in ((half, Q(1, 2)), (quarter, Q(3, 4))):
        assert op.k > 1
        flag = math.sqrt(op.sqrt_sq(q)) if op.sqrt_sq is not None else 1.0
        # the Fraction polynomials the entries stand for, evaluated as floats
        want = {(d, s): (poly * factor)(q) / op.den(q) * flag * norms[d] / norms[s]
                for (d, s), poly in base.entries.items()}
        assert to_numeric(op, q).entries == want


# Few keys, so that the two operands share entries; values include both
# zeros, so that signed-zero results show.  NaN is left out: IEEE 754
# leaves the sign of a NaN result unspecified.
_float = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]),
                   st.floats(allow_nan=False, allow_infinity=False))
_num_entries = st.dictionaries(st.tuples(_index, _index), _float, max_size=8)


def _bits(op: NumOp) -> list:
    return [(key, v, math.copysign(1.0, v)) for key, v in op.entries.items()]


@given(_num_entries, _num_entries)
def test_numop_sub_is_bitwise_add_of_negation(x, y):
    a, b = NumOp(_SPACE, 0.7, x, nu_raise=1), NumOp(_SPACE, 0.7, y, climb=2)
    for u, v in ((a, b), (b, a), (a, a)):
        got, want = u - v, u + (-v)
        assert _bits(got) == _bits(want)
        assert (got.nu_raise, got.nu_lower, got.climb) == (
            want.nu_raise, want.nu_lower, want.climb)


def test_point_sums_drop_only_provably_zero_entries():
    # V = 0 proves an entry zero only while its l1 bound L is below
    # 2^(B-1); a cancelled sum with a larger bound keeps the entry
    space = FockSpace(4)
    half = 1 << (B - 1)

    def point(entry):
        return PointOp._of(space, {(0, 0): entry}, 1, ONE, None, 0, 0, 0)

    small, big = point((2, 5, 5)), point((2, 5, half))
    assert (small - small).store == {}
    assert (big - small).store == {(0, 0): (2, 0, half + 5)}
    assert not (small @ (small - small)).store
    # the higher entry is shifted onto the lower exponent, and zero low
    # digits are stripped again: s^2 (s - 1) + s^2 = s^3
    lower, higher = point((2, -1 + (1 << B), 2)), point((2, 1, 1))
    assert (lower + higher).store == {(0, 0): (3, 1, 3)}
    assert (point((3, 1, 1)) + point((2, 1, 1))).store == {(0, 0): (2, 1 + (1 << B), 2)}
