"""One child process of the sp4q benchmark.

    python3 perfbench/worker.py '<job json>'

run.py starts a fresh interpreter per job, with ``src`` first on
PYTHONPATH, and reads the job's result from the last line of stdout.
Jobs:

    {"kind": "suite", "cutoff": 8}             sp4q verify --include-variants
    {"kind": "exact", "cutoff": 16, "seed": 1} every relation and casimir, exact
    {"kind": "queries", "seed": 1, "seconds": 30, "decks": null}

Every job may add ``"trace": "<path>"`` to run under the tracer and
write its spans there.  Outputs are checked in run.py (reports against
the recorded digests) or here after the timed part (query answers).
"""

import bisect
import gc
import hashlib
import io
import itertools
import json
import random
import resource
import signal
import statistics
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import sp4q
import sp4q.cli
import sp4q.verify

import queries
from run import REF_CAL_S, more_passes
from tracing import Tracer


def report_hash(rep: dict) -> str:
    """Short sha256 of one report with wall_ms stripped."""
    body = json.dumps({k: v for k, v in rep.items() if k != "wall_ms"}, sort_keys=True)
    return hashlib.sha256(body.encode()).hexdigest()[:16]


def reports_digest(reports: list[dict]) -> str:
    """sha256 of the report JSON as sp4q prints it (sorted by relation,
    mode and family), with wall_ms stripped."""
    reports = sorted(reports, key=lambda r: (r["relation"], r["mode"], r["family"]))
    stripped = [{k: v for k, v in r.items() if k != "wall_ms"} for r in reports]
    return hashlib.sha256(
        (json.dumps(stripped, sort_keys=True, indent=2) + "\n").encode()).hexdigest()


def call_cli(argv: list[str]) -> tuple[int, str]:
    """(exit code, stdout) of one sp4q command, run in this process."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = sp4q.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue()


# Sampled while a pass runs; see SpeedProbe.
_CAL_A = {k: Fraction(k + 1, 3) for k in range(-8, 9)}
_CAL_B = {k: Fraction(2 * k - 1, 5) for k in range(-6, 7)}
CAL_PERIOD_S = 0.2


def calibration_unit() -> float:
    """Seconds taken by fixed pure-Python work in sp4q's style (sparse
    Fraction polynomial products) that uses no sp4q code: ~3.6 ms on a
    2.1 GHz core.  The garbage collector is off meanwhile, so that
    collecting sp4q's objects is not charged to the unit."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for _ in range(3):
            c = {}
            for k1, v1 in _CAL_A.items():
                for k2, v2 in _CAL_B.items():
                    c[k1 + k2] = c.get(k1 + k2, 0) + v1 * v2
        return time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()



class SpeedProbe:
    """Measures how fast the machine runs while a pass runs.

    On a shared host the speed of one core drifts by 20% or more within
    seconds, which no run short enough to repeat can average away.  Every
    CAL_PERIOD_S a SIGALRM handler times one calibration unit.  Durations
    are read from :meth:`now`, a clock that excludes the handler's own
    time, and :meth:`scaled` converts an interval of that clock into
    seconds at the reference speed (unit time REF_CAL_S): each stretch
    between two ticks is weighted by the speed measured around it.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.ticks: list[tuple[float, float]] = []  # (now(), unit time)
        self.spent = 0.0
        self._factors = None

    def __enter__(self):
        if self.enabled:
            self._tick(None, None)  # every pass starts with a sample
            self._old = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, CAL_PERIOD_S, CAL_PERIOD_S)
        return self

    def __exit__(self, *exc):
        if self.enabled:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._old)

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        unit = calibration_unit()
        self.spent += time.perf_counter() - t0
        self.ticks.append((self.now(), unit))
        self._factors = None

    def now(self) -> float:
        return time.perf_counter() - self.spent

    def cpu(self) -> float:
        return time.process_time() - self.spent

    def scaled(self, a: float, b: float) -> float:
        """Seconds at reference speed of the clock interval [a, b]; the
        speed of the stretch after tick i is REF_CAL_S over the median
        unit time of ticks i-2 .. i+2."""
        if not self.enabled:
            return b - a
        if self._factors is None:
            units = [u for _, u in self.ticks]
            self._factors = [REF_CAL_S / statistics.median(units[max(0, i - 2):i + 3])
                             for i in range(len(units))]
        times = [t for t, _ in self.ticks]
        i = max(0, bisect.bisect_right(times, a) - 1)
        total = 0.0
        while a < b:
            end = min(b, times[i + 1]) if i + 1 < len(times) else b
            total += (end - a) * self._factors[i]
            a, i = end, i + 1
        return total


def _timings(probe: SpeedProbe, t0: float, t1: float, c0: float, c1: float, ops) -> dict:
    """Pass timings from clock readings; ``ops`` are (start, end) pairs.
    Scaled figures first, then the same as measured."""
    run_s = probe.scaled(t0, t1)
    return {"run_s": run_s, "cpu_s": (c1 - c0) * run_s / (t1 - t0),
            "op_ms": [probe.scaled(a, b) * 1e3 for a, b in ops],
            "raw": {"run_s": t1 - t0, "cpu_s": c1 - c0,
                    "op_ms": [(b - a) * 1e3 for a, b in ops]}}


def _reports_result(reports: list[dict], timings: dict, **extra) -> dict:
    return {
        **timings, "ops": len(reports),
        "report_hashes": [report_hash(r) for r in reports],
        "digest": reports_digest(reports),
        "unexpected": sum(1 for r in reports
                          if (r["verdict"] == "Holds") != r.get("expected", True)),
        **extra,
    }


def run_suite(cutoff: int, probe: SpeedProbe) -> dict:
    """`sp4q verify --include-variants` at the given cutoff: one operation."""
    argv = ["verify", "--include-variants", "--cutoff", str(cutoff), "--format", "json"]
    with probe:
        c0, t0 = probe.cpu(), probe.now()
        code, text = call_cli(argv)
        c1, t1 = probe.cpu(), probe.now()
    reports = json.loads(text) if code in (0, 1) else []
    return _reports_result(reports, _timings(probe, t0, t1, c0, c1, [(t0, t1)]),
                           exit_code=code)


def run_exact(cutoff: int, seed: int, probe: SpeedProbe, tracer=None) -> dict:
    """Exact mode only: check_relation for every catalog relation on one
    generator set per family, and every casimir spectrum with qs=(), in
    an order drawn from the seed (so the calls near the median latency
    come from the whole pass, not from one stretch of it)."""
    calls = [(family, rel) for family in sp4q.FAMILIES for rel in sp4q.relation_catalog(family)]
    calls += [(None, name) for name in sp4q.CASIMIR_NAMES]
    random.Random(seed).shuffle(calls)
    reports, ops = [], []
    with probe:
        c0, t0 = probe.cpu(), probe.now()
        gens = {f: sp4q.build(f, sp4q.FockSpace(cutoff)) for f in sp4q.FAMILIES}
        for family, what in calls:
            if tracer:
                tracer.run_id += 1
            t = probe.now()
            if family is None:
                rep = sp4q.verify.check_casimir_spectrum(what, cutoff, qs=())
            else:
                rep = sp4q.check_relation(what, cutoff, gens=gens[family])
            ops.append((t, probe.now()))
            reports.append(rep.to_dict())
        c1, t1 = probe.cpu(), probe.now()
    return _reports_result(reports, _timings(probe, t0, t1, c0, c1, ops))


def _ask(qn: queries.Question):
    if qn.kind in ("eval", "expand", "spectrum"):
        return call_cli(qn.argv())
    if qn.kind == "exact":
        rep = sp4q.check_relation((qn.family, qn.relation), qn.cutoff, mutate=qn.mutate)
    else:
        rep = sp4q.check_relation((qn.family, qn.relation), qn.cutoff, mode="numeric",
                                  q=qn.q, mutate=qn.mutate)
    return rep.to_dict()


def _closed_form(name, state, q):
    return sp4q.verify.casimir_closed_form(name)(sp4q.FockState(*state))(q)


def run_queries(plan, seconds, probe: SpeedProbe, tracer=None) -> list:
    """Ask the decks of ``plan`` in turn; with ``seconds`` set, stop when
    run.more_passes says so.  Returns (questions, answers, op clock
    pairs, clock readings) per deck."""
    asked = []
    start = time.monotonic()
    with probe:
        for questions in plan:
            if seconds is not None and not more_passes(
                    time.monotonic() - start, [t1 - t0 for *_, (t0, t1, c0, c1) in asked],
                    seconds):
                break
            answers, ops = [], []
            t0, c0 = probe.now(), probe.cpu()
            for qn in questions:
                if tracer:
                    tracer.run_id += 1
                t = probe.now()
                answers.append(_ask(qn))
                ops.append((t, probe.now()))
            asked.append((questions, answers, ops, (t0, probe.now(), c0, probe.cpu())))
    return asked


def check_decks(asked: list, probe: SpeedProbe) -> dict:
    """Timings and output checks of the asked decks.  Each eval answer is
    checked against the exact expand of the same question, asked here,
    outside the timed part."""
    decks = []
    for questions, answers, ops, (t0, t1, c0, c1) in asked:
        refs = [call_cli(qn.expand().argv()) if qn.kind == "eval" else None for qn in questions]
        wrong, new, known = queries.check_deck(questions, answers, refs, _closed_form)
        decks.append({**_timings(probe, t0, t1, c0, c1, ops), "ops": len(questions),
                      "op_weight": [queries.weight(qn) for qn in questions],
                      "failed": wrong, "new_defects": new, "known_defects": known,
                      "digest": queries.exact_digest(questions, answers)})
    return {"decks": decks}


def main(job: dict) -> dict:
    if not sp4q.__file__.startswith(job["src"]):
        raise SystemExit(f"imported sp4q from {sp4q.__file__}, not from {job['src']}")
    result = {}
    kind = job["kind"]
    if kind == "queries":
        # Questions are drawn outside the timed parts and before tracing.
        decks = queries.stream(random.Random(job["seed"]), queries.catalog(sp4q))
        if job.get("decks"):
            plan, seconds = list(itertools.islice(decks, job["decks"])), None
        else:
            plan, seconds = decks, job["seconds"]
    elif kind not in ("suite", "exact"):
        raise SystemExit(f"unknown job kind {kind!r}")
    # A traced run reports raw times: the tracer is the measurement there.
    tracer = Tracer() if job.get("trace") else None
    probe = SpeedProbe(enabled=tracer is None)
    if tracer:
        tracer.start()
    try:
        if kind == "suite":
            result.update(run_suite(job["cutoff"], probe))
        elif kind == "exact":
            result.update(run_exact(job["cutoff"], job["seed"], probe, tracer))
        else:
            asked = run_queries(plan, seconds, probe, tracer)
    finally:
        if tracer:
            tracer.stop()
    if kind == "queries":
        result.update(check_decks(asked, probe))
    if tracer:
        tracer.write(job["trace"])
        result["layers"] = tracer.layer_metrics()
    if probe.ticks:
        result["unit_ms"] = statistics.median(u for _, u in probe.ticks) * 1e3
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return result


if __name__ == "__main__":
    sys.stdout.write(json.dumps(main(json.loads(sys.argv[1]))) + "\n")
