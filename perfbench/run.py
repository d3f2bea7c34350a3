#!/usr/bin/env python3
"""The sp4q benchmark.  Run from the repository root:

    python3 perfbench/run.py --workload suite --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --steady 10 [--workload W ...] [--sets 2]
    python3 perfbench/run.py --record-digests

A measured run prints one line per metric (name, value, unit) and, as
its last line, a JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``: the ``end_to_end`` metrics of BENCHMARK.json with
``--trace 0``, its ``per_layer`` metrics with ``--trace 1``.  Workloads,
metrics and their layer map are described in perfbench/README.md.

Every timed part runs in a child interpreter (worker.py) with this
checkout's ``src`` first on PYTHONPATH, one at a time, with no threads.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
DIGESTS = HERE / "digests.json"

SUITE_CUTOFF = 8
EXACT_CUTOFF = 16
SETUP_PROBES = 9
# Median time of one calibration unit (worker.calibration_unit) on the
# machine the benchmark was defined on (2 shared vCPUs at 2.1 GHz, Python
# 3.11.7): timings are scaled to the speed at which it takes this long.
REF_CAL_S = 0.0036
RUN_LIMIT_S = 170.0  # a run must end within 180 s


class BenchError(Exception):
    """The benchmark could not measure; no result is printed."""


# -- child processes ------------------------------------------------------------


def _run(cmd: list[str], deadline: float, what: str) -> str:
    """Run a child interpreter on this checkout's sources; its stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.pop("SP4Q_REPORT_DIR", None)
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError(f"no time left for {what}")
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=left)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{what} did not finish within the run limit") from None
    if proc.returncode != 0:
        raise BenchError(f"{what} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return proc.stdout


def spawn(job: dict, deadline: float) -> dict:
    """Run one worker job in a fresh interpreter and return its result."""
    cmd = [sys.executable, str(HERE / "worker.py"), json.dumps({**job, "src": str(SRC)})]
    return json.loads(_run(cmd, deadline, f"job {job['kind']}").strip().splitlines()[-1])


# A fresh interpreter's CPU time up to the end of `import sp4q`, then the
# median of seven calibration units timed right after it in the same
# process (argv[1] is this directory), which steadiness mode compares
# with the units timed in the passes.
SETUP_PROBE = """\
import time
import sp4q
cpu_s = time.process_time()
import json, statistics, sys
sys.path.insert(0, sys.argv[1])
from worker import calibration_unit
calibration_unit()
print(json.dumps({"cpu_s": cpu_s,
                  "unit_s": statistics.median(calibration_unit() for _ in range(7))}))
"""
# The same interpreter start without sp4q.
START_PROBE = """\
import time
print(time.process_time())
"""
# Median CPU time of START_PROBE on the machine the benchmark was defined on.
REF_START_S = 0.05


def setup_time(deadline: float) -> dict:
    """One set-up probe: CPU seconds of a fresh interpreter up to the end
    of `import sp4q` and the calibration unit time measured next to it,
    then the CPU seconds of a bare interpreter start (``start_s``).
    CPU time, not wall time: it leaves out the scheduling waits that make
    the 0.15 s wall-clock figure jitter by 10% on a shared host."""
    out = _run([sys.executable, "-c", SETUP_PROBE, str(HERE)], deadline, "set-up probe")
    start = _run([sys.executable, "-c", START_PROBE], deadline, "start probe")
    return {**json.loads(out.strip().splitlines()[-1]), "start_s": float(start)}


# -- statistics ------------------------------------------------------------------


def quantile(values, p: float) -> float:
    """Linear interpolation between order statistics (p in [0, 1])."""
    xs = sorted(values)
    pos = p * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(values, weighted=None) -> int | None:
    """Highest of p99/p95/p90/p75 of ``weighted`` (by default ``values``)
    with at least ten of ``values`` beyond it."""
    weighted = values if weighted is None else weighted
    for p in (99, 95, 90, 75):
        if sum(v > quantile(weighted, p / 100) for v in values) >= 10:
            return p
    return None


def latencies(passes: list[dict], raw: bool = False) -> list[float]:
    """Op latencies of the passes, each listed as often as its weight."""
    out = []
    for p in passes:
        ms = p["raw"]["op_ms"] if raw else p["op_ms"]
        for x, w in zip(ms, p.get("op_weight", [1] * len(ms))):
            out += [x] * w
    return out


# -- output checks ----------------------------------------------------------------


def load_digests() -> dict:
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh)


def check_reports(res: dict, expected: dict) -> tuple[int, list[str]]:
    """Wrong reports in one suite or exact pass: those whose wall_ms-stripped
    hash is not among the recorded ones, plus recorded ones missing."""
    got, want = Counter(res["report_hashes"]), Counter(expected["report_hashes"])
    wrong = max(sum((got - want).values()), sum((want - got).values()))
    problems = []
    if res["digest"] != expected["digest"]:
        problems.append(f"report digest {res['digest'][:16]} != recorded {expected['digest'][:16]}"
                        f" ({wrong} reports differ)")
    if res.get("exit_code", 0) != 0:
        problems.append(f"sp4q verify exited {res['exit_code']}")
        wrong = max(wrong, 1)
    if res["unexpected"]:
        problems.append(f"{res['unexpected']} unexpected verdicts")
    return wrong, problems


# -- one measured run ---------------------------------------------------------------


def _job(workload: str, seed: int, seconds: float, fixed: bool) -> dict:
    if workload == "suite":
        return {"kind": "suite", "cutoff": SUITE_CUTOFF}
    if workload == "exact-scale":
        return {"kind": "exact", "cutoff": EXACT_CUTOFF, "seed": seed}
    return {"kind": "queries", "seed": seed, "seconds": seconds, "decks": 1 if fixed else None}


def _passes(workload: str, res: dict) -> list[dict]:
    return res["decks"] if workload == "queries" else [res]


def _check(workload: str, passes: list[dict], digests: dict):
    """(attempted, failed, known defects, problems) over a run's passes."""
    attempted = failed = 0
    known, problems = [], []
    for p in passes:
        attempted += p["ops"]
        if workload == "queries":
            failed += p["failed"]
            known += p["known_defects"]
            problems += p["new_defects"]
        else:
            wrong, why = check_reports(p, digests["suite" if workload == "suite" else "exact"])
            failed += wrong
            problems += why
    return attempted, failed, known, problems


def more_passes(elapsed: float, durations: list[float], seconds: float) -> bool:
    """Start another pass while at least half of a typical one still fits
    in ``seconds``; there is always at least one."""
    return not durations or elapsed + statistics.median(durations) / 2 < seconds


def measure(workload: str, seed: int, seconds: float, deadline: float) -> dict:
    """End-to-end run: set-up probes, then whole passes for about
    ``seconds`` (queries: whole decks in one long-lived process)."""
    setup_time(deadline)  # warm-up: fills bytecode and file caches
    probes = [setup_time(deadline) for _ in range(SETUP_PROBES)]
    # Scaled by a bare interpreter start timed right after each probe: the
    # host's speed moves the two alike, and the calibration unit less so.
    setup = [p["cpu_s"] * REF_START_S / p["start_s"] for p in probes]
    job = _job(workload, seed, seconds, fixed=False)
    if workload == "queries":
        res = spawn(job, deadline)
        passes, children = res["decks"], [res]
    else:
        passes, start = [], time.monotonic()
        while more_passes(time.monotonic() - start, [p["raw"]["run_s"] for p in passes],
                          seconds):
            passes.append(spawn(job, deadline))
        children = passes
    run_s = [p["run_s"] for p in passes]
    op_ms = latencies(passes)
    speed = sum(run_s) / sum(p["raw"]["run_s"] for p in passes)
    values = {
        "setup_s": statistics.median(setup),
        "run_s": statistics.median(run_s),
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "ops_per_s": sum(p["ops"] for p in passes) / sum(run_s),
        "op_p50_ms": quantile(op_ms, 0.5),
        "op_p90_ms": quantile(op_ms, 0.9),
        "peak_rss_mb": max(c["rss_mb"] for c in children),
    }
    raw_ms = latencies(passes, raw=True)
    raw = {
        "run_s": statistics.median(p["raw"]["run_s"] for p in passes),
        "cpu_s": statistics.median(p["raw"]["cpu_s"] for p in passes),
        "op_p50_ms": quantile(raw_ms, 0.5),
        "op_p90_ms": quantile(raw_ms, 0.9),
        "setup_s": statistics.median(p["cpu_s"] for p in probes),
        "start_s": statistics.median(p["start_s"] for p in probes),
        "speed": speed,
    }
    # Median calibration unit time in the passes and in the set-up probes,
    # whose heaps hold much less: steadiness mode compares the two.
    units = {
        "pass_ms": statistics.median(c["unit_ms"] for c in children),
        "setup_ms": statistics.median(p["unit_s"] for p in probes) * 1e3,
    }
    asked = [x for p in passes for x in p["op_ms"]]
    tail = tail_percentile(asked, op_ms)
    notes = {
        "setup_s": f"median of {len(setup)}; measured {raw['setup_s']:.4g} s",
        "run_s": f"median of {len(run_s)} passes; measured {raw['run_s']:.4g} s at "
                 f"{raw['speed']:.3f}x reference speed",
        "cpu_s": f"median of {len(passes)} passes; measured {raw['cpu_s']:.4g} s",
        "op_p50_ms": f"n={len(asked)}; measured {raw['op_p50_ms']:.6g} ms"
                     + (f"; p{tail}={quantile(op_ms, tail / 100):.6g} ms" if tail
                        else "; no percentile has 10 samples beyond"),
        "op_p90_ms": f"measured {raw['op_p90_ms']:.6g} ms",
    }
    return {"values": values, "raw": raw, "units": units, "notes": notes, "passes": passes}


def trace(workload: str, seed: int, deadline: float) -> dict:
    """Per-layer run: the same fixed work once untraced and once traced."""
    job = _job(workload, seed, 0, fixed=True)
    plain = spawn(job, deadline)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{workload}-seed{seed}.jsonl"
    traced = spawn({**job, "trace": str(path)}, deadline)
    values = dict(traced["layers"])
    plain_s = sum(p["raw"]["run_s"] for p in _passes(workload, plain))
    traced_s = sum(p["raw"]["run_s"] for p in _passes(workload, traced))
    values["trace.overhead_s"] = traced_s - plain_s
    values["trace.untraced_run_s"] = plain_s
    notes = {"trace.spans": f"written to {path.relative_to(ROOT)}"}
    return {"values": values, "raw": {}, "units": {}, "notes": notes,
            "passes": _passes(workload, plain) + _passes(workload, traced)}


def run_once(args, bench: dict) -> int:
    deadline = time.monotonic() + RUN_LIMIT_S
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        raise BenchError(f"unknown workload {args.workload!r}; choose from {names}")
    digests = load_digests()
    for key, cutoff in (("suite", SUITE_CUTOFF), ("exact", EXACT_CUTOFF)):
        if digests[key]["cutoff"] != cutoff:
            raise BenchError(f"digests.json holds {key} at cutoff {digests[key]['cutoff']}")
    if args.trace:
        out = trace(args.workload, args.seed, deadline)
        wanted = bench["per_layer"]
    else:
        out = measure(args.workload, args.seed, args.seconds, deadline)
        wanted = bench["end_to_end"]
    attempted, failed, known, problems = _check(args.workload, out["passes"], digests)
    print(f"sp4q benchmark: workload {args.workload}, seed {args.seed}, "
          f"{'traced' if args.trace else f'{args.seconds} s'}")
    metrics = {}
    for m in wanted:
        value = out["values"][m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        note = out["notes"].get(m["name"])
        print(f"  {m['name']:<34} {value:>16.6f} {m['unit']:<6}" + (f"  ({note})" if note else ""))
    print(f"  {'fail_frac':<34} {failed / attempted:>16.6f} share   ({failed} of {attempted};"
          f" {len(known)} known numeric-tolerance false Fails)")
    for line in known + problems:
        print(f"  wrong: {line}")
    # Exact outputs of the first pass (queries: deck): the same for a seed.
    digest = out["passes"][0]["digest"]
    print(f"  exact-output digest of the first {'deck' if args.workload == 'queries' else 'pass'}:"
          f" {digest}")
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"run-{args.workload}-seed{args.seed}.json", "w", encoding="utf-8") as fh:
        json.dump({**result, "digest": digest, "raw": out["raw"], "units": out["units"]},
                  fh, indent=1)
    print(json.dumps(result))
    return 0


# -- steadiness --------------------------------------------------------------------


def steady(args, bench: dict) -> int:
    """Run each workload ``--steady`` times per set, with seeds 1, 2, ...,
    and report each end-to-end metric's spread (interquartile range over
    median) and each later set's drift from the first set's median, both
    against the metric's bound.  A run of a seed must give the same
    exact-output digest in every set."""
    workloads = [args.workload] if args.workload else [w["name"] for w in bench["workloads"]]
    ok, record = True, {}
    for workload in workloads:
        sets = []
        for s in range(args.sets):
            runs = []
            for i in range(args.steady):
                cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                       "--seed", str(i + 1), "--seconds", str(bench["run_seconds"]),
                       "--trace", "0"]
                t0 = time.monotonic()
                proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
                if proc.returncode != 0:
                    print(proc.stdout + proc.stderr, file=sys.stderr)
                    return 2
                res = json.loads(proc.stdout.strip().splitlines()[-1])
                res["wall_s"] = time.monotonic() - t0
                with open(OUT / f"run-{workload}-seed{i + 1}.json",
                          encoding="utf-8") as fh:
                    res.update({k: v for k, v in json.load(fh).items()
                                if k in ("digest", "raw", "units")})
                if s and res["digest"] != sets[0][i]["digest"]:
                    res["correct"] = False
                    print(f"{workload} seed {i + 1}: exact outputs differ from set 1")
                runs.append(res)
                print(f"{workload} set {s + 1} seed {i + 1}: "
                      f"{res['wall_s']:.1f} s, correct={res['correct']}, failed={res['failed']}",
                      flush=True)
            sets.append(runs)
        record[workload] = sets
        print(f"\n{workload}: {args.sets} set(s) of {args.steady} runs")
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            first = None
            for s, runs in enumerate(sets):
                vals = [r["metrics"][name]["value"] for r in runs]
                q1, med, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / med
                line = (f"  {name:<12} set {s + 1}: median {med:.6g} {m['unit']}, spread "
                        f"{spread:.3f} (bound {bound}, target < {bound / 3:.3f})")
                if spread > bound:
                    ok = False
                    line += "  OVER BOUND"
                if first is None:
                    first = med
                else:
                    drift = (med - first) / first * (1 if m["better"] == "lower" else -1)
                    line += f", worse than set 1 by {drift:+.3f}"
                    if drift > bound:
                        ok = False
                        line += "  OVER BOUND"
                print(line)
        for name in sets[0][0]["raw"]:
            spreads = []
            for runs in sets:
                q1, med, q3 = statistics.quantiles([r["raw"][name] for r in runs], n=4)
                spreads.append(f"{(q3 - q1) / med:.3f}")
            print(f"  as measured, before speed scaling: {name} spread {', '.join(spreads)}")
        ratios = [r["units"]["pass_ms"] / r["units"]["setup_ms"] for runs in sets for r in runs]
        print(f"  calibration unit in passes over unit in set-up probes: median "
              f"{statistics.median(ratios):.3f}, range {min(ratios):.3f}-{max(ratios):.3f}")
        bad = sum(not r["correct"] for runs in sets for r in runs)
        ok = ok and not bad
        print(f"  wrong answers: {sum(r['failed'] for runs in sets for r in runs)} "
              f"of {sum(r['attempted'] for runs in sets for r in runs)}; runs not correct: {bad}")
    OUT.mkdir(exist_ok=True)
    with open(OUT / "steady.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return 0 if ok else 1


# -- recording the reference digests -----------------------------------------------


def record_digests() -> int:
    """Write digests.json from one suite pass and one exact pass of this
    checkout.  Only for a commit whose reports are trusted."""
    deadline = time.monotonic() + 600
    out = {}
    for key, workload in (("suite", "suite"), ("exact", "exact-scale")):
        job = _job(workload, 0, 0, fixed=True)
        res = spawn(job, deadline)
        if res["unexpected"] or res.get("exit_code", 0) != 0:
            raise BenchError(f"{key}: refusing to record a run with unexpected verdicts")
        out[key] = {"cutoff": job["cutoff"], "reports": res["ops"], "digest": res["digest"],
                    "report_hashes": sorted(res["report_hashes"])}
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    print(f"wrote {DIGESTS.relative_to(ROOT)}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", type=int, metavar="RUNS",
                        help="steadiness mode: this many seeded runs per workload and set")
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "sp4q" / "__init__.py").is_file():
        print(f"error: no sp4q sources at {SRC}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    try:
        if args.record_digests:
            return record_digests()
        if args.steady:
            return steady(args, bench)
        if args.workload is None:
            parser.error("--workload is required")
        if args.seconds is None:
            args.seconds = bench["run_seconds"]
        return run_once(args, bench)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
