"""Command-line interface.

Commands
--------
verify    run the verification suite (relations, structure, casimirs,
          bases, ladders, series, degeneration); exit 0 iff every
          executed check passes
spectrum  print a casimir spectrum or one of the discrete-series tables
pyramid   print a basis pyramid (pair or triple labels)
basis     run the vacuum-built basis checks
expand    apply a word in the generators to a basis state, exactly
eval      the same, numerically at a given q

Exit codes: 0 all executed checks pass, 1 at least one check fails
(witnesses are printed), 2 usage error.  When SP4Q_REPORT_DIR is set,
``verify`` also writes its reports as JSON into that directory.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from dataclasses import dataclass, field

from .algebras import (
    CASIMIR_NAMES,
    FAMILIES,
    build,
    numeric_context,
    relation_catalog,
    resolve_casimirs,
)
from .fock import FockSpace, FockState
from .ops import NumOp, QOperator, act
from .qnum import Q, require_q
from .verify import (
    BASIS_CHECKS,
    CASIMIR_SECTORS,
    DEFAULT_CUTOFF,
    DEFAULT_QS,
    DEFAULT_TOL,
    PYRAMID_LABELS,
    SPECTRUM_TABLE_KEYS,
    Report,
    casimir_table,
    check_all_bases,
    check_basis_construction,
    coefficient_text,
    full_suite,
    pyramid_text,
    q_text,
    reports_to_json,
    require_tol,
    spectrum_table_text,
    summarize,
)


@dataclass(frozen=True)
class CliConfig:
    """Common numeric settings shared by the commands.

    Invariants: cutoff >= 4, at least one q sample, every q finite and
    positive, tol finite and positive.
    """

    cutoff: int = DEFAULT_CUTOFF
    qs: tuple[float, ...] = DEFAULT_QS
    tol: float = DEFAULT_TOL
    fmt: str = "text"

    def __post_init__(self):
        if self.cutoff < 4:
            raise ValueError(f"cutoff must be >= 4; got {self.cutoff}")
        if not self.qs:
            raise ValueError("need at least one q sample")
        for q in self.qs:
            require_q(q)
        require_tol(self.tol)


def _config(args) -> CliConfig:
    q = getattr(args, "q", None)
    if q is None:
        qs = DEFAULT_QS
    else:
        qs = tuple(q) if isinstance(q, list) else (q,)
    return CliConfig(
        cutoff=getattr(args, "cutoff", DEFAULT_CUTOFF),
        qs=qs,
        tol=getattr(args, "tol", DEFAULT_TOL),
        fmt=getattr(args, "format", "text"),
    )


def _print_reports(reports, fmt: str) -> None:
    if fmt == "json":
        sys.stdout.write(reports_to_json(reports))
        return
    for r in reports:
        status = "PASS" if r.ok else "FAIL"
        if r.ok and not r.holds:
            status = "XFAIL"  # recorded variant: fails as documented
        line = (
            f"{status} {r.relation} [{r.family}] {r.mode}"
            f" cutoff={r.cutoff} nu<={r.safe_nu} ({r.wall_ms:.1f} ms)"
        )
        if not r.holds:
            line += f"\n     witness: {r.witness}\n     residual: {r.residual}"
        print(line)
    s = summarize(reports)
    print(
        f"-- {s['checks']} checks: {s['holds']} hold, {s['fails']} fail"
        f" ({s['unexpected']} unexpected)"
    )


def _write_report_dir(reports) -> None:
    out_dir = os.environ.get("SP4Q_REPORT_DIR")
    if not out_dir:
        return
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "sp4q-report.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(reports_to_json(reports))
    print(f"report written to {path}", file=sys.stderr)


def _exit_code(reports) -> int:
    return 0 if all(r.ok for r in reports) else 1


# -- commands --------------------------------------------------------------------


def _cmd_verify(args, parser) -> int:
    cfg = _config(args)
    families = FAMILIES if args.family == "all" else (args.family,)
    if args.mutate is not None:
        known = {r.name for f in families for r in relation_catalog(f)}
        if args.mutate not in known:
            parser.error(f"--mutate: no relation named {args.mutate!r}"
                         f" in families {tuple(families)}")
    reports = full_suite(
        cfg.cutoff, cfg.qs, cfg.tol,
        families=families,
        include_variants=args.include_variants,
        mutate=args.mutate,
    )
    _print_reports(reports, cfg.fmt)
    _write_report_dir(reports)
    return _exit_code(reports)


def _parse_weights(text: str, parser):
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 4:
        raise ValueError("weights must be four comma-separated rationals")
    try:
        return tuple(Q(p) for p in parts)
    except ZeroDivisionError:
        parser.error(f"a weight has a zero denominator: {text!r}")


def _cmd_spectrum(args, parser) -> int:
    cfg = _config(args)
    if args.table is not None:
        sys.stdout.write(spectrum_table_text(args.table, cfg.cutoff))
        return 0
    names = resolve_casimirs(args.casimir)
    weights = _parse_weights(args.weights, parser) if args.weights else None
    for name in names:
        table = casimir_table(
            name, cfg.cutoff, args.sector, q=args.q, weights=weights,
        )
        sys.stdout.write(table.text())
    return 0


def _cmd_pyramid(args, parser) -> int:
    sys.stdout.write(pyramid_text(args.labels, args.sector, args.rows))
    return 0


def _cmd_basis(args, parser) -> int:
    cfg = _config(args)
    if args.which == "all":
        reports = check_all_bases(cfg.cutoff)
    else:
        reports = [check_basis_construction(args.which, cfg.cutoff)]
    _print_reports(reports, cfg.fmt)
    return _exit_code(reports)


def _parse_word(text: str, gens, parser):
    """Split an operator word like "L1^2 T0" into (name, power) factors."""
    factors = []
    for token in text.split():
        name, _, exp = token.partition("^")
        if name not in gens.ops:
            parser.error(
                f"unknown element {name!r}; choose from {', '.join(gens.ops)}"
            )
        try:
            k = int(exp) if exp else 1
        except ValueError:
            parser.error(f"bad power in token {token!r}")
        if k < 0:
            parser.error(f"negative power in token {token!r}")
        factors.append((name, k))
    if not factors:
        parser.error("empty operator word")
    return factors


def _parse_state(text: str, space, parser) -> FockState:
    try:
        x, y = (int(p) for p in text.split(","))
        st = FockState(x, y)
    except Exception:
        parser.error(f"bad state {text!r}; expected 'n1,n-1'")
    if st not in space:
        parser.error(f"state {st} outside cutoff {space.cutoff}")
    return st


def _word_on_state(args, parser):
    """(generator set, word factors, word text, state) of expand and eval."""
    gens = build(args.family, FockSpace(_config(args).cutoff))
    factors = _parse_word(args.op, gens, parser)
    st = _parse_state(args.state, gens.space, parser)
    return gens, factors, " ".join(f"{n}^{k}" if k != 1 else n for n, k in factors), st


def _cmd_expand(args, parser) -> int:
    gens, factors, word, st = _word_on_state(args, parser)
    op = act([(gens[name], k) for name, k in factors], QOperator.ket(gens.space, st))
    col = op.column(st)
    if not col:
        print(f"{word} {st} = 0")
        return 0
    for dst in sorted(col, key=gens.space.index):
        print(f"{word} {st} = ({coefficient_text(op, col[dst])}) {dst}")
    return 0


def _cmd_eval(args, parser) -> int:
    gens, factors, word, st = _word_on_state(args, parser)
    nctx = numeric_context(gens, args.q)
    nop = act([(nctx[name], k) for name, k in factors], NumOp.ket(gens.space, args.q, st))
    rows = [(d, v) for (d, _), v in nop.entries.items() if v != 0.0]
    if not rows:
        print(f"{word} {st} = 0   (normalized basis, q={q_text(args.q)})")
        return 0
    for d, v in sorted(rows):
        print(f"{word} {st} = {v!r} {gens.space.states[d]}"
              f"   (normalized basis, q={q_text(args.q)})")
    return 0


# -- parser ----------------------------------------------------------------------


def _add_common(p, cutoff=True, fmt=True, tol=False, qlist=False):
    if cutoff:
        p.add_argument("--cutoff", type=int, default=DEFAULT_CUTOFF,
                       help="total-quanta truncation (default %(default)s)")
    if fmt:
        p.add_argument("--format", choices=("text", "json"), default="text",
                       help="output format (default %(default)s)")
    if tol:
        p.add_argument("--tol", type=float, default=DEFAULT_TOL,
                       help="numeric tolerance, absolute and relative to the"
                       " magnitude of the terms (default %(default)s)")
    if qlist:
        p.add_argument("--q", type=float, action="append", metavar="Q",
                       help="numeric sample point; repeatable"
                            " (default 0.7 and 1.3)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sp4q",
        description="Exact verification engine for a two-mode boson"
                    " representation and its two q-deformations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "verify",
        help="run the verification suite",
        description="Run the relation catalog and the structural,"
                    " casimir, basis, ladder, series and degeneration"
                    " checks.  By default only canonical relations run"
                    " and the exit code is 0 iff every check Holds;"
                    " --include-variants adds the recorded variant"
                    " readings, which are expected to Fail and are"
                    " reported as XFAIL without affecting the exit code.",
    )
    p.add_argument("--family", choices=("all",) + FAMILIES, default="all")
    _add_common(p, tol=True, qlist=True)
    p.add_argument("--mutate", metavar="NAME", default=None,
                   help="flip one term of the named relation; the run"
                        " must then fail with a witness")
    p.add_argument("--include-variants", action="store_true",
                   help="also run recorded variant readings (expected"
                        " to fail; reported as XFAIL)")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser(
        "spectrum",
        help="print a casimir spectrum or a discrete-series table",
    )
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--casimir", metavar="NAME",
                   help=f"one of {', '.join(CASIMIR_NAMES)} or an alias")
    g.add_argument("--table", choices=SPECTRUM_TABLE_KEYS,
                   help="one of the discrete-series tables")
    p.add_argument("--sector", choices=CASIMIR_SECTORS, default="all")
    p.add_argument("--q", type=float, default=None,
                   help="also evaluate numerically at this q"
                        " (q = 1 via the exact limit)")
    p.add_argument("--weights", metavar="S1,S2,S3,S4", default=None,
                   help="four rational weights for the weighted scalar"
                        " combination S2")
    _add_common(p, fmt=False)
    p.set_defaults(fn=_cmd_spectrum)

    p = sub.add_parser("pyramid", help="print a basis pyramid")
    p.add_argument("--labels", choices=PYRAMID_LABELS, default="pairs")
    p.add_argument("--sector", choices=("even", "odd"), default="even")
    p.add_argument("--rows", type=int, default=4)
    p.set_defaults(fn=_cmd_pyramid)

    p = sub.add_parser("basis", help="run the vacuum-built basis checks")
    p.add_argument("--which", choices=BASIS_CHECKS + ("all",), default="all")
    _add_common(p)
    p.set_defaults(fn=_cmd_basis)

    p = sub.add_parser(
        "expand",
        help="apply an operator word to a basis state, exactly",
        description="The word is whitespace-separated factors NAME or"
                    " NAME^k, composed left to right as written (the"
                    " rightmost factor acts first).  Coefficients are"
                    " exact Laurent polynomials in s = q^(1/4).",
    )
    p.add_argument("--family", choices=FAMILIES, required=True)
    p.add_argument("--op", required=True, metavar="WORD")
    p.add_argument("--state", required=True, metavar="N1,NM1")
    _add_common(p, fmt=False)
    p.set_defaults(fn=_cmd_expand)

    p = sub.add_parser(
        "eval",
        help="apply an operator word to a basis state numerically",
        description="Same word syntax as expand, evaluated in the"
                    " orthonormal basis at the given q.",
    )
    p.add_argument("--family", choices=FAMILIES, required=True)
    p.add_argument("--op", required=True, metavar="WORD")
    p.add_argument("--state", required=True, metavar="N1,NM1")
    p.add_argument("--q", type=float, required=True)
    _add_common(p, fmt=False)
    p.set_defaults(fn=_cmd_eval)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser every ``main`` call shares, built on the first call.

    Building one leaves argparse's formatter cycles behind as garbage, so
    a process that answers many questions builds it once.
    """
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args, parser)
    except (ValueError, KeyError) as exc:
        parser.exit(2, f"{parser.prog}: error: {exc}\n")


if __name__ == "__main__":
    sys.exit(main())
