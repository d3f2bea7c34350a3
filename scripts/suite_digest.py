#!/usr/bin/env python3
"""Print the SHA-256 digest of the full_suite reports at large cutoffs.

The digest is that of the tests: the reports as JSON, sorted keys,
indent 2, with ``wall_ms`` stripped.  The tests pin it at cutoffs 8 and
12; this script covers the larger cutoffs, which take too long for the
test suite (20-30 s for the three pinned ones on 2 shared vCPUs).
Each line reads  cutoff<TAB>digest<TAB>seconds,  the last field being the
wall time of that cutoff's full_suite run.

    python scripts/suite_digest.py 16 20      # print the digests
    python scripts/suite_digest.py --check    # compare with the pins; exit 1 on a mismatch
"""

import argparse
import hashlib
import json
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from sp4q.verify import full_suite  # noqa: E402

# full_suite(cutoff) digests with the default qs and tol; no report at
# these cutoffs is unexpected.
PINS = {
    16: "88b198f0fd636b003f7e4060a70273097ca4ce7d1ff176813053efa6a99944fa",
    20: "d43e38c70957e4ff89cb6391d51e18fc096d79369c76f7189a288c3e53a4f127",
    24: "21e6801b880e57c994250dc63c333b791bde4bcbea41de60bb9d92524d26c19c",
}


def digest(cutoff: int) -> str:
    dicts = [r.to_dict() for r in full_suite(cutoff)]
    for d in dicts:
        d.pop("wall_ms")
    txt = json.dumps(dicts, sort_keys=True, indent=2) + "\n"
    return hashlib.sha256(txt.encode()).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("cutoffs", nargs="*", type=int, help="cutoffs to digest")
    parser.add_argument("--check", action="store_true",
                        help="digest every pinned cutoff and compare with its pin")
    args = parser.parse_args(argv)
    if args.check == bool(args.cutoffs):
        parser.error("give cutoffs or --check, not both or neither")
    bad = 0
    for cutoff in sorted(PINS) if args.check else args.cutoffs:
        t0 = time.perf_counter()
        got = digest(cutoff)
        line = f"{cutoff}\t{got}\t{time.perf_counter() - t0:.2f}"
        if args.check and got != PINS[cutoff]:
            line += f"\tMISMATCH, pinned {PINS[cutoff]}"
            bad += 1
        print(line, flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
