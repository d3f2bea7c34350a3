#!/usr/bin/env python3
"""Print the SHA-256 digest of the full_suite reports at large cutoffs.

The digest is that of the tests: the reports as JSON, sorted keys,
indent 2, with ``wall_ms`` stripped.  The tests pin it at cutoffs 8 and
12; this script covers the larger cutoffs, which take too long for the
test suite (20-30 s for the three pinned ones on 2 shared vCPUs).
``--exact`` digests the exact checks alone instead: every catalogue
relation through ``check_relation``, the ten casimirs and the weighted S2
of ``full_suite``, all with ``qs=()``.  With no numeric check, it reaches
cutoff 32.  Each line reads  kind<TAB>cutoff<TAB>digest<TAB>seconds,
kind being ``full`` or ``exact`` and the last field the wall time of that
digest.

    python scripts/suite_digest.py 16 20           # print the full_suite digests
    python scripts/suite_digest.py --exact 24 32   # print the exact-only digests
    python scripts/suite_digest.py --check         # compare both with the pins; exit 1 on a mismatch
"""

import argparse
import hashlib
import json
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from sp4q import CASIMIR_NAMES, FAMILIES, FockSpace, build, relation_catalog  # noqa: E402
from sp4q.algebras import casimir_family  # noqa: E402
from sp4q.qnum import Q  # noqa: E402
from sp4q.verify import check_casimir_spectrum, check_relation, full_suite  # noqa: E402

# full_suite(cutoff) digests with the default qs and tol; no report at
# these cutoffs is unexpected.
PINS = {
    16: "88b198f0fd636b003f7e4060a70273097ca4ce7d1ff176813053efa6a99944fa",
    20: "d43e38c70957e4ff89cb6391d51e18fc096d79369c76f7189a288c3e53a4f127",
    24: "21e6801b880e57c994250dc63c333b791bde4bcbea41de60bb9d92524d26c19c",
}

# exact_reports(cutoff) digests
EXACT_PINS = {
    24: "45bd40bcde7d935819523b131d5f709d133a40aaae33d1f901d9808dd52b52e2",
    32: "f3e63c3a67c740447f51532ba05dbc35b1d7b18a9e3a86e4d5937be805101bad",
}

# the weights of full_suite's weighted S2 report
S2_WEIGHTS = (Q(2, 3), Q(-1, 5), 1, Q(7, 2))


def exact_reports(cutoff: int) -> list:
    """Every catalogue relation, the ten casimirs and the weighted S2,
    checked exactly on one generator set per family."""
    space = FockSpace(cutoff)
    sets = {family: build(family, space) for family in FAMILIES}
    reports = [check_relation(rel, cutoff, gens=sets[family])
               for family in FAMILIES for rel in relation_catalog(family)]
    reports += [check_casimir_spectrum(name, cutoff, qs=(), gens=sets[casimir_family(name)])
                for name in CASIMIR_NAMES]
    reports.append(check_casimir_spectrum("S2", cutoff, weights=S2_WEIGHTS, qs=(),
                                          gens=sets["tensor"]))
    return reports


def digest(reports) -> str:
    dicts = [r.to_dict() for r in reports]
    for d in dicts:
        d.pop("wall_ms")
    txt = json.dumps(dicts, sort_keys=True, indent=2) + "\n"
    return hashlib.sha256(txt.encode()).hexdigest()


KINDS = {"full": (full_suite, PINS), "exact": (exact_reports, EXACT_PINS)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("cutoffs", nargs="*", type=int, help="cutoffs to digest")
    parser.add_argument("--exact", action="store_true",
                        help="digest the exact checks alone instead of full_suite")
    parser.add_argument("--check", action="store_true",
                        help="digest every pinned cutoff of both kinds and compare with its pin")
    args = parser.parse_args(argv)
    if args.check == bool(args.cutoffs) or (args.check and args.exact):
        parser.error("give cutoffs (with or without --exact) or --check alone")
    if args.check:
        jobs = [(kind, cutoff) for kind, (_, pins) in KINDS.items() for cutoff in sorted(pins)]
    else:
        jobs = [("exact" if args.exact else "full", cutoff) for cutoff in args.cutoffs]
    bad = 0
    for kind, cutoff in jobs:
        reports_at, pins = KINDS[kind]
        t0 = time.perf_counter()
        got = digest(reports_at(cutoff))
        line = f"{kind}\t{cutoff}\t{got}\t{time.perf_counter() - t0:.2f}"
        if args.check and got != pins[cutoff]:
            line += f"\tMISMATCH, pinned {pins[cutoff]}"
            bad += 1
        print(line, flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
