#!/usr/bin/env python3
"""Derive the scalar prefactors of the contested tensor-family identities
directly from the generator matrices.

Several transcribed identities of the tensor family circulate with
mutually inconsistent prefactors.  Rather than trusting any transcription,
this script solves for each unknown coefficient from the exact operator
matrices: for an identity of the shape

    LHS = coeff * SHAPE          (single-term right-hand side)
    LHS = c1 * S1 + c2 * S2      (two-term right-hand side)

it computes LHS, SHAPE, S1, S2 exactly, solves for the coefficients by
exact Laurent-polynomial division (or a 2x2 linear solve over the
rational-function field), verifies the solution on the whole safe
subspace, and prints the result next to the candidate readings.  The
relation catalog in sp4q.algebras freezes exactly the coefficients
printed by this script.

Run:  python3 scripts/derive_catalog_coefficients.py
"""

from fractions import Fraction as Q

from sp4q.algebras import build, exact_context
from sp4q.fock import FockSpace
from sp4q.notation import STATE, state_formula
from sp4q.ops import QOperator, SafeSubspace, act, first_witness
from sp4q.qnum import LaurentPoly, QRationalFn, q_int, q_power

CUTOFF = 10


def laurent_div(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly | None:
    """Exact quotient a/b in the Laurent ring, or None if b does not
    divide a."""
    if b.is_zero:
        return None
    if a.is_zero:
        return LaurentPoly.zero()
    shift_a = min(a.c)
    shift_b = min(b.c)
    ac = {k - shift_a: v for k, v in a.c.items()}
    bc = {k - shift_b: v for k, v in b.c.items()}
    deg_b = max(bc)
    lead_b = bc[deg_b]
    quot: dict[int, Q] = {}
    rem = dict(ac)
    while rem:
        deg_r = max(rem)
        if deg_r < deg_b:
            return None
        f = rem[deg_r] / lead_b
        quot[deg_r - deg_b] = f
        for k, v in bc.items():
            key = k + deg_r - deg_b
            w = rem.get(key, Q(0)) - f * v
            if w:
                rem[key] = w
            else:
                rem.pop(key, None)
    return LaurentPoly(quot).shifted(shift_a - shift_b)


def entry_fractions(op: QOperator, max_nu: int):
    """Safe entries of op as {(dst_idx, src_idx): QRationalFn}."""
    out = {}
    for (d, s), poly in op.entries.items():
        if op.space.states[s].nu <= max_nu:
            out[(d, s)] = QRationalFn(poly, op.den)
    return out


def solve_single(lhs: QOperator, shape: QOperator, max_nu: int) -> str:
    """Solve LHS = coeff * SHAPE; return the coefficient (or a verdict)."""
    if (lhs.sqrt_sq is None) != (shape.sqrt_sq is None):
        return "sqrt-flag mismatch (no solution)"
    le = entry_fractions(lhs, max_nu)
    se = entry_fractions(shape, max_nu)
    if not le:
        return "0" if all(k not in le for k in se) or True else "?"
    coeff = None
    for key, sval in se.items():
        lval = le.get(key)
        if lval is None:
            return "no solution (support mismatch)"
        c = laurent_div(lval.num * sval.den, sval.num * lval.den)
        if c is None:
            return "no polynomial coefficient"
        if coeff is None:
            coeff = c
        elif coeff != c:
            return "no constant coefficient (entry-dependent)"
    if set(le) != set(se):
        return "no solution (extra LHS support)"
    return str(coeff) if coeff is not None else "0"


def solve_pair(lhs, s1, s2, states, space, max_nu: int):
    """Solve LHS = c1*S1 + c2*S2 on the diagonal; verify globally."""

    def dval(op, st):
        i = space.index(st)
        return QRationalFn(op.entries.get((i, i), LaurentPoly.zero()), op.den)

    st_a, st_b = states
    la, lb = dval(lhs, st_a), dval(lhs, st_b)
    s1a, s1b = dval(s1, st_a), dval(s1, st_b)
    s2a, s2b = dval(s2, st_a), dval(s2, st_b)
    det = s1a * s2b - s1b * s2a
    c1 = (la * s2b - lb * s2a) / det
    c2 = (s1a * lb - s1b * la) / det
    # global check by cross-multiplied equality on every safe state
    for st in space.states:
        if st.nu > max_nu:
            continue
        want = c1 * dval(s1, st) + c2 * dval(s2, st)
        if not (dval(lhs, st) == want):
            return None, None
    return c1, c2


def fmt_rat(r: QRationalFn) -> str:
    num = laurent_div(r.num, r.den)
    return str(num) if num is not None else str(r)


def main():
    space = FockSpace(CUTOFF)
    gens = build("tensor", space)
    c = exact_context(gens)
    g = gens.ops
    two = q_int(2)
    qm2J0 = g["qm2J0"]
    L = {1: g["L1"], -1: g["Lm1"]}
    T = {1: g["T1"], 0: g["T0"], -1: g["Tm1"]}
    Tt = {1: g["Tt1"], 0: g["Tt0"], -1: g["Ttm1"]}
    calN = {1: g["calN1"], -1: g["calNm1"]}
    window = CUTOFF - 4

    print(f"cutoff = {CUTOFF}, solving on nu <= {window}\n")

    print("== [L_s, T_m] = coeff * sqrt([2]) T_(m+s) q^(-2J0) ==")
    for s in (1, -1):
        for m in (1, 0, -1):
            lhs = c.comm(L[s], T[m])
            t = m + s
            if abs(t) > 1:
                verdict = "0" if first_witness(lhs, SafeSubspace(space, window)) is None else "NONZERO?"
                print(f"  [L({s:+d}), T({m:+d})]            -> {verdict}")
                continue
            shape = (T[t] @ qm2J0).times_sqrt(two)
            print(f"  [L({s:+d}), T({m:+d})] / sqrt2 T({t:+d}) q^-2J0 = {solve_single(lhs, shape, window)}")

    print("== [L_s, ~T_m] = coeff * sqrt([2]) ~T_(m+s) q^(-2J0) ==")
    for s in (1, -1):
        for m in (1, 0, -1):
            lhs = c.comm(L[s], Tt[m])
            t = m + s
            if abs(t) > 1:
                verdict = "0" if first_witness(lhs, SafeSubspace(space, window)) is None else "NONZERO?"
                print(f"  [L({s:+d}), ~T({m:+d})]           -> {verdict}")
                continue
            shape = (Tt[t] @ qm2J0).times_sqrt(two)
            print(f"  [L({s:+d}), ~T({m:+d})] / sqrt2 ~T({t:+d}) q^-2J0 = {solve_single(lhs, shape, window)}")

    print("== [~T_m, N_k]_(q^2k) = coeff * [2] ~T_m q^(-2J0) (expect zero unless m = -k) ==")
    for k in (1, -1):
        for m in (1, -1):
            lhs = c.comm(Tt[m], calN[k], 2 * k)
            shape = (Tt[m] @ qm2J0).scale(two)
            print(f"  k={k:+d}, m={m:+d}: {solve_single(lhs, shape, window)}")

    print("== [N_k, T_m]_(q^2k) = coeff * [2] T_m q^(-2J0) (expect zero unless m = k) ==")
    for k in (1, -1):
        for m in (1, -1):
            lhs = c.comm(calN[k], T[m], 2 * k)
            shape = (T[m] @ qm2J0).scale(two)
            print(f"  k={k:+d}, m={m:+d}: {solve_single(lhs, shape, window)}")

    print("== [~T_0, N_k]_(q^2k) = coeff * ~T_0 q^(-2J0)  and  [N_k, T_0]_(q^2k) = coeff * T_0 q^(-2J0) ==")
    for k in (1, -1):
        lhs = c.comm(Tt[0], calN[k], 2 * k)
        print(f"  k={k:+d} (~T_0): {solve_single(lhs, Tt[0] @ qm2J0, window)}")
        lhs = c.comm(calN[k], T[0], 2 * k)
        print(f"  k={k:+d} (T_0):  {solve_single(lhs, T[0] @ qm2J0, window)}")

    print("== [T_m1, ~T_m2]_(q^(2(m2-m1))) = coeff * sqrt([2])[2] L_(m1+m2) q^(-2J0) ==")
    for m1, m2 in ((1, 0), (0, 1), (-1, 0), (0, -1), (1, 1), (-1, -1)):
        lhs = c.comm(T[m1], Tt[m2], 2 * (m2 - m1))
        tot = m1 + m2
        if tot == 0 or abs(tot) > 1:
            verdict = "0" if first_witness(lhs, SafeSubspace(space, window)) is None else "NONZERO?"
            print(f"  (m1,m2)=({m1:+d},{m2:+d}) -> {verdict}")
            continue
        shape = (L[tot] @ qm2J0).scale(two).times_sqrt(two)
        print(f"  (m1,m2)=({m1:+d},{m2:+d}): {solve_single(lhs, shape, window)}")

    print("== [T_(+1), ~T_(-1)]_(q^-4) = c1 * q^(-4J0) + c2 * [2]^2 N(+1) q^(-2J0) ==")
    q4 = qm2J0 @ qm2J0
    s2op = (calN[1] @ qm2J0).scale(two * two)
    c1, c2 = solve_pair(
        c.comm(T[1], Tt[-1], -4), q4, s2op,
        (space.states[3], space.states[4]), space, window,
    )
    print(f"  c1 = {fmt_rat(c1)}   (times [2]: {fmt_rat(c1 / QRationalFn(two))} * [2])")
    print(f"  c2 = {fmt_rat(c2)}   (times [2]^2: {fmt_rat(c2)} * [2]^2)")

    print("== [T_(-1), ~T_(+1)]_(q^+4) = c1 * q^(-4J0) + c2 * [2]^2 N(-1) q^(-2J0) ==")
    s2op = (calN[-1] @ qm2J0).scale(two * two)
    c1, c2 = solve_pair(
        c.comm(T[-1], Tt[1], 4), q4, s2op,
        (space.states[3], space.states[4]), space, window,
    )
    print(f"  c1 = {fmt_rat(c1)}   (times [2]: {fmt_rat(c1 / QRationalFn(two))} * [2])")
    print(f"  c2 = {fmt_rat(c2)}")

    print("== [T_0, ~T_0] = coeff * [2][N+1] q^(-2J0) ==")
    shape = (c.diag_brk(state_formula("N + 1")) @ qm2J0).scale(two)
    print(f"  coeff = {solve_single(c.comm(T[0], Tt[0]), shape, window)}")

    print("== (T_0)^2 = coeff * [2] T_(+1) T_(-1)  and  coeff' * [2] T_(-1) T_(+1) ==")
    t0sq = T[0] @ T[0]
    print(f"  vs T(+1)T(-1): {solve_single(t0sq, (T[1] @ T[-1]).scale(two), window)}")
    print(f"  vs T(-1)T(+1): {solve_single(t0sq, (T[-1] @ T[1]).scale(two), window)}")

    print("== q L(-1)L(+1) + q^-1 L(+1)L(-1) = c1 * [N][N+2] + c2 * L_0 L_0 ==")
    lhs = c.qpow(L[-1] @ L[1], 1) + c.qpow(L[1] @ L[-1], -1)
    nn2 = c.diag_brk(STATE["N"]) @ c.diag_brk(state_formula("N + 2"))
    l0sq = g["L01"] @ g["L01"]
    c1, c2 = solve_pair(lhs, nn2, l0sq, (space.states[3], space.states[4]), space, window)
    print(f"  c1 = {fmt_rat(c1)}  (expect 1/[2]: {(c1 == QRationalFn(LaurentPoly.one(), two))})")
    print(f"  c2 = {fmt_rat(c2)}  (expect -[2]: {(c2 == QRationalFn(-two))})")

    print("== scalar squares: q T(-1)~T(+1) + q^-1 T(+1)~T(-1) + T_0 ~T_0 = coeff * [N][N-1] ==")
    sq = (
        c.qpow(T[-1] @ Tt[1], 1) + c.qpow(T[1] @ Tt[-1], -1) + T[0] @ Tt[0]
    )
    shape = c.diag_brk(STATE["N"]) @ c.diag_brk(state_formula("N - 1"))
    print(f"  coeff = {solve_single(sq, shape, window)}")
    sq = (
        c.qpow(Tt[-1] @ T[1], 1) + c.qpow(Tt[1] @ T[-1], -1) + Tt[0] @ T[0]
    )
    shape = c.diag_brk(state_formula("N + 2")) @ c.diag_brk(state_formula("N + 3"))
    print(f"  coeff (reversed order, vs [N+2][N+3]) = {solve_single(sq, shape, window)}")

    print("== vacuum powers: (T_0)^n0 (T_-1)^nm1 |0> : q-exponent of the prefactor ==")
    for n0, nm1 in ((1, 1), (2, 1), (1, 2), (2, 2), (0, 1), (0, 2)):
        op = act([(T[0], n0), (T[-1], nm1)], QOperator.ket(space, space.states[0]))
        col = op.column(space.states[0])
        (dst, poly), = col.items()
        # strip the known factorial/bracket content to isolate the q-power
        print(f"  n0={n0}, nm1={nm1}: column -> {dst}, entry {poly}, sqrt flag {op.sqrt_sq is not None}")


if __name__ == "__main__":
    main()
