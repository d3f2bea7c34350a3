"""The `queries` workload: a seeded stream of independent user questions,
and the checks that decide whether each answer is right.

A question has a kind (``eval``, ``expand``, ``spectrum --casimir NAME
--q Q``, an exact ``check_relation`` or a numeric one), a cutoff (8, 10
or 12) and a family, each drawn uniformly.  The stream comes in decks
that hold every kind, cutoff and family alike, in seeded order: one
question of each for ``eval`` and ``numeric``, REPEAT of each for the
other kinds, and each question of those counts 1/REPEAT in the latency
percentiles (``weight``).  The rest is drawn per question from the seed: q log-uniformly from [0.5, 2.0], so it almost
never repeats; for a relation check, a relation of its family and, on a
coin flip, ``mutate=True`` on a canonical one; for ``eval`` and
``expand``, a word of one to three generator powers and a state; for
``spectrum``, a casimir, which takes the place of the family.

Why decks: the cost of a question is set by its kind, cutoff and family
(0.01 s to 6 s when this benchmark was written), and a 30-second run
asks only some 40 of them.  Drawn independently, the mix changes so much
from seed to seed that the latencies and throughput of runs spread by
30-110% (interquartile range over median).  Why REPEAT: ``eval`` and
``numeric`` pay a numeric context (up to 6 s), the others do not (10 to
600 ms).  The median falls among the cheap questions, whose costs spread
widely; with one of each, the median of a deck spread by 30% from seed
to seed.  Asking more of them costs little.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from dataclasses import dataclass, replace

KINDS = ("eval", "expand", "spectrum", "exact", "numeric")
REPEAT = {"eval": 1, "numeric": 1, "expand": 6, "spectrum": 6, "exact": 6}
CUTOFFS = (8, 10, 12)
Q_LOW, Q_HIGH = 0.5, 2.0
REL_TOL, ABS_TOL = 1e-9, 1e-12


@dataclass(frozen=True)
class Question:
    kind: str  # one of KINDS
    family: str
    cutoff: int
    q: float | None = None
    relation: str | None = None
    expect_holds: bool = True
    mutate: bool = False
    word: str | None = None
    state: tuple[int, int] | None = None
    casimir: str | None = None

    def argv(self) -> list[str]:
        """Command line of a CLI question."""
        if self.kind == "spectrum":
            return ["spectrum", "--casimir", self.casimir, "--cutoff", str(self.cutoff),
                    "--q", repr(self.q)]
        argv = [self.kind, "--family", self.family, "--op", self.word,
                "--state", f"{self.state[0]},{self.state[1]}", "--cutoff", str(self.cutoff)]
        return argv + (["--q", repr(self.q)] if self.kind == "eval" else [])

    def expand(self) -> "Question":
        """The exact ``expand`` of an ``eval`` question, which checks it."""
        return replace(self, kind="expand", q=None)


@dataclass(frozen=True)
class Catalog:
    """What the stream draws from, read once from sp4q before any timing."""

    relations: dict  # family -> ((name, expect_holds), ...)
    elements: dict  # family -> generator names
    casimirs: tuple


def catalog(sp4q) -> Catalog:
    relations = {f: tuple((r.name, r.expect_holds) for r in sp4q.relation_catalog(f))
                 for f in sp4q.FAMILIES}
    elements = {f: sp4q.build(f, sp4q.FockSpace(4)).elements for f in sp4q.FAMILIES}
    return Catalog(relations, elements, tuple(sp4q.CASIMIR_NAMES))


def _q(rng: random.Random) -> float:
    return Q_LOW * (Q_HIGH / Q_LOW) ** rng.random()


def question(rng: random.Random, cat: Catalog, kind: str, cutoff: int,
             family: str) -> Question:
    """A question of the given kind, cutoff and family; the rest from ``rng``."""
    if kind == "spectrum":
        return Question(kind, "", cutoff, q=_q(rng), casimir=rng.choice(cat.casimirs))
    if kind in ("eval", "expand"):
        factors = []
        for _ in range(rng.randint(1, 3)):
            name, k = rng.choice(cat.elements[family]), rng.randint(1, 2)
            factors.append(name if k == 1 else f"{name}^{k}")
        nu = rng.randint(0, cutoff // 2)
        n1 = rng.randint(0, nu)
        return Question(kind, family, cutoff, q=_q(rng) if kind == "eval" else None,
                        word=" ".join(factors), state=(n1, nu - n1))
    mutate = rng.random() < 0.5
    rels = cat.relations[family]
    name, holds = rng.choice([r for r in rels if r[1]] if mutate else rels)
    return Question(kind, family, cutoff, q=_q(rng) if kind == "numeric" else None,
                    relation=name, expect_holds=holds, mutate=mutate)


def deck(rng: random.Random, cat: Catalog) -> list[Question]:
    """REPEAT[kind] questions for every kind, cutoff and family, in seeded
    order."""
    out = [question(rng, cat, kind, cutoff, family)
           for kind in KINDS for cutoff in CUTOFFS for family in sorted(cat.relations)
           for _ in range(REPEAT[kind])]
    rng.shuffle(out)
    return out


def weight(qn: Question) -> int:
    """How many times a question's latency counts in the percentiles."""
    return max(REPEAT.values()) // REPEAT[qn.kind]


def stream(rng: random.Random, cat: Catalog):
    """Decks without end."""
    while True:
        yield deck(rng, cat)


# -- checking answers ------------------------------------------------------------
#
# An answer is (exit code, stdout text) for CLI questions and the report's
# dict for relation checks.  A check returns None when the answer is right,
# otherwise a one-line reason.


def check_relation_answer(qn: Question, rep: dict) -> str | None:
    holds = rep["verdict"] == "Holds"
    if qn.mutate:
        if holds or not rep.get("witness"):
            return f"mutated {qn.relation!r} was not caught with a witness"
        return None
    if holds != qn.expect_holds:
        return f"{qn.relation!r} [{qn.family}] {rep['mode']} gave {rep['verdict']}"
    return None


# The open numeric-tolerance defect (ROADMAP item 3): the numeric check of
# these canonical relations reports Fails at large cutoffs and at q far
# from 1 (at cutoff 12, q below ~0.57 or above ~1.7), though they hold
# exactly.
KNOWN_FALSE_FAILS = frozenset(
    ("qboson", f"suq{sign} casimir chain {order}")
    for sign in "+-" for order in ("lower-raise", "raise-lower"))


def is_known_defect(qn: Question, rep: dict) -> bool:
    """An unmutated numeric check of a KNOWN_FALSE_FAILS relation that
    reports Fails.  It counts as a wrong answer but is not a new defect."""
    return (qn.kind == "numeric" and not qn.mutate
            and (qn.family, qn.relation) in KNOWN_FALSE_FAILS and rep["verdict"] == "Fails")


_TOKEN = re.compile(r"\s*(?:(\d+)|(q)|(sqrt)|(.))")


def evaluate(expr: str, q):
    """Value at q of a coefficient printed by sp4q: integers, q, + - * /,
    ^ (any exponent), parentheses and sqrt(), with the usual precedence.
    Numbers become ``type(q)``, so an mpmath q evaluates in mpmath."""
    tokens = []
    for num, var, fn, op in _TOKEN.findall(expr):
        tokens.append(("n", num) if num else ("q",) if var else ("sqrt",) if fn else ("o", op))
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def take(op=None):
        nonlocal pos
        tok = peek()
        if tok is None or (op is not None and tok != ("o", op)):
            raise ValueError(f"cannot parse {expr!r} at token {pos}")
        pos += 1
        return tok

    def sum_():
        val = product()
        while peek() in (("o", "+"), ("o", "-")):
            val = val + product() if take()[1] == "+" else val - product()
        return val

    def product():
        val = unary()
        while peek() in (("o", "*"), ("o", "/")):
            val = val * unary() if take()[1] == "*" else val / unary()
        return val

    def unary():
        if peek() == ("o", "-"):
            take()
            return -unary()
        return power()

    def power():
        val = atom()
        if peek() == ("o", "^"):
            take()
            return val ** unary()
        return val

    def atom():
        tok = take()
        if tok[0] == "n":
            return type(q)(int(tok[1]))
        if tok == ("q",):
            return q
        if tok == ("sqrt",):
            take("(")
            val = sum_()
            take(")")
            return val ** (type(q)(1) / 2)
        if tok == ("o", "("):
            val = sum_()
            take(")")
            return val
        raise ValueError(f"cannot parse {expr!r} at token {pos - 1}")

    val = sum_()
    if peek() is not None:
        raise ValueError(f"trailing input in {expr!r}")
    return val


_STATE = r"\|(\d+),(\d+)>"
_EXPAND_LINE = re.compile(rf"^.* {_STATE} = \((.*)\) {_STATE}$")
_EVAL_LINE = re.compile(rf"^.* {_STATE} = (\S+) {_STATE}   \(normalized basis, q=\S+\)$")
_ZERO_LINE = re.compile(rf"^.* {_STATE} = 0( .*)?$")


def _bracket_factorial(n: int, q):
    out = q ** 0
    for k in range(2, n + 1):
        out *= (q ** k - q ** -k) / (q - q ** -1) if q != 1 else k
    return out


def check_eval_answer(ev: Question, ev_out: tuple, ex_out: tuple) -> str | None:
    """The eval column must equal the expand column evaluated at q in the
    orthonormal basis: entry * sqrt(G(dst) / G(src)), G = [n1]! [n-1]!
    (plain factorials for the classical family)."""
    import mpmath

    (ev_code, ev_text), (ex_code, ex_text) = ev_out, ex_out
    if ev_code != 0 or ex_code != 0:
        return f"eval/expand exit codes {ev_code}/{ex_code} for {ev.argv()}"
    with mpmath.workdps(40):
        q = mpmath.mpf(ev.q)

        fact = ((lambda n: mpmath.factorial(n)) if ev.family == "classical"
                else (lambda n: _bracket_factorial(n, q)))

        def gram(n1, nm1):
            return fact(n1) * fact(nm1)

        want = {}
        for line in ex_text.splitlines():
            m = _EXPAND_LINE.match(line)
            if m:
                s1, s2, coeff, d1, d2 = m.groups()
                ratio = gram(int(d1), int(d2)) / gram(int(s1), int(s2))
                want[(int(d1), int(d2))] = evaluate(coeff, q) * mpmath.sqrt(ratio)
            elif not _ZERO_LINE.match(line):
                return f"unparsed expand line {line!r}"
        got = {}
        for line in ev_text.splitlines():
            m = _EVAL_LINE.match(line)
            if m:
                got[(int(m.group(4)), int(m.group(5)))] = float(m.group(3))
            elif not _ZERO_LINE.match(line):
                return f"unparsed eval line {line!r}"
        if set(got) != set(want):
            return f"eval and expand disagree on the output states for {ev.argv()}"
        for dst, ref in want.items():
            if abs(got[dst] - ref) > REL_TOL * abs(ref) + ABS_TOL:
                return (f"eval {got[dst]!r} != expand {mpmath.nstr(ref, 17)} at {dst}"
                        f" for {ev.argv()}")
    return None


_SPECTRUM_TITLE = re.compile(r"^\S+ spectrum \(family \w+, cutoff \d+, nu <= (\d+)\)$")
_SPECTRUM_ROW = re.compile(rf"^  nu=\d+ m=\S+ {_STATE}\s+(\S+)(   .*)?$")


def check_spectrum_answer(qn: Question, out: tuple, closed_form) -> str | None:
    """Every row of the table must match the casimir's closed form at q, and
    the table must list every state of the safe window once.
    ``closed_form(name, (n1, n-1), q)`` is the expected eigenvalue."""
    code, text = out
    if code != 0:
        return f"exit code {code} for {qn.argv()}"
    lines = text.splitlines()
    m = _SPECTRUM_TITLE.match(lines[0]) if lines else None
    if m is None:
        return f"no spectrum title for {qn.argv()}"
    safe_nu = int(m.group(1))
    seen = set()
    for line in lines[1:]:
        row = _SPECTRUM_ROW.match(line)
        if row is None:
            return f"unparsed spectrum row {line!r}"
        st = (int(row.group(1)), int(row.group(2)))
        if row.group(4) and "mismatch" in row.group(4):
            return f"series label mismatch at {st} for {qn.argv()}"
        ref = closed_form(qn.casimir, st, qn.q)
        if abs(float(row.group(3)) - ref) > REL_TOL * abs(ref) + ABS_TOL:
            return f"spectrum {row.group(3)} != closed form {ref!r} at {st} for {qn.argv()}"
        seen.add(st)
    want = {(a, nu - a) for nu in range(safe_nu + 1) for a in range(nu + 1)}
    if seen != want:
        return f"spectrum rows do not cover nu <= {safe_nu} for {qn.argv()}"
    return None


def exact_digest(questions, answers) -> str:
    """sha256 of the deck's exact outputs: expand text and exact reports
    with wall_ms stripped."""
    h = hashlib.sha256()
    for qn, ans in zip(questions, answers):
        if qn.kind == "expand":
            h.update(json.dumps(ans).encode())
        elif qn.kind == "exact":
            h.update(json.dumps({k: v for k, v in ans.items() if k != "wall_ms"},
                                sort_keys=True).encode())
    return h.hexdigest()


def check_expand_answer(qn: Question, out: tuple) -> str | None:
    """An expand answer must exit 0, and each line must be a column entry
    whose coefficient parses, or a zero."""
    code, text = out
    if code != 0:
        return f"exit code {code} for {qn.argv()}"
    for line in text.splitlines():
        m = _EXPAND_LINE.match(line)
        if m:
            try:
                evaluate(m.group(3), 0.9)
            except (ValueError, ZeroDivisionError):
                return f"unparsed coefficient in {line!r}"
        elif not _ZERO_LINE.match(line):
            return f"unparsed expand line {line!r}"
    return None


def check_deck(questions, answers, references, closed_form) -> tuple[int, list[str], list[str]]:
    """(wrong answers, reasons for the new ones, reasons for the known
    numeric-tolerance defect).  ``references[i]`` is the answer to
    ``questions[i].expand()`` for an eval question, else None."""
    wrong, new, known = 0, [], []
    for qn, ans, ref in zip(questions, answers, references):
        if qn.kind == "eval":
            why = check_eval_answer(qn, ans, ref)
        elif qn.kind == "expand":
            why = check_expand_answer(qn, ans)
        elif qn.kind == "spectrum":
            why = check_spectrum_answer(qn, ans, closed_form)
        else:
            why = check_relation_answer(qn, ans)
        if why is None:
            continue
        wrong += 1
        if is_known_defect(qn, ans):
            known.append(f"{why} at q={qn.q!r} cutoff {qn.cutoff}")
        else:
            new.append(why)
    return wrong, new, known
