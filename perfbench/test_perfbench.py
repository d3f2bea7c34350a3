"""Fast self-tests of the benchmark at tiny sizes.

    python3 -m pytest perfbench -q
"""

import itertools
import json
import random
import shutil
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import mpmath
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import sp4q  # noqa: E402
import queries  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from tracing import Tracer  # noqa: E402


def test_evaluate_parses_sp4q_coefficients():
    q = mpmath.mpf("0.8")
    want = 3 * q ** 0.5 - q ** (-0.75) + mpmath.mpf(1) / 2
    assert abs(queries.evaluate("3*q^(1/2) - q^(-3/4) + 1/2", q) - want) < 1e-30
    nested = "((q + q^(-1)) / (q^(1/4) - 2)) * sqrt(q^(1/2) + q^(-1/2))"
    want = (q + 1 / q) / (q ** 0.25 - 2) * mpmath.sqrt(q ** 0.5 + q ** -0.5)
    assert abs(queries.evaluate(nested, q) - want) < 1e-30
    assert queries.evaluate("-q", 2.0) == -2.0
    with pytest.raises(ValueError):
        queries.evaluate("(q + 1", q)


def test_percentiles():
    assert run.quantile([1, 2, 3, 4], 0.5) == 2.5
    assert run.quantile(range(11), 0.9) == 9
    assert run.tail_percentile(range(100)) == 90
    assert run.tail_percentile(range(20)) is None
    passes = [{"op_ms": [1.0, 2.0], "op_weight": [3, 1], "raw": {"op_ms": [1.5, 2.5]}}]
    assert run.latencies(passes) == [1.0, 1.0, 1.0, 2.0]
    assert run.latencies(passes, raw=True) == [1.5, 1.5, 1.5, 2.5]


def test_decks_are_seeded_and_hold_every_kind_cutoff_and_family_once():
    cat = queries.catalog(sp4q)
    a = [list(itertools.islice(queries.stream(random.Random(5), cat), 2)) for _ in range(2)]
    assert a[0] == a[1]
    other = next(queries.stream(random.Random(6), cat))
    assert other != a[0][0]
    every = Counter({(k, c, f): queries.REPEAT[k] for k in queries.KINDS
                     for c in queries.CUTOFFS for f in sp4q.FAMILIES})
    for d in (a[0][0], a[0][1], other):
        assert len(d) == sum(every.values())
        assert Counter((qn.kind, qn.cutoff, qn.family) for qn in d if qn.kind != "spectrum") \
            == Counter({k: n for k, n in every.items() if k[0] != "spectrum"})
        assert Counter(qn.cutoff for qn in d if qn.kind == "spectrum") \
            == Counter({c: len(sp4q.FAMILIES) * queries.REPEAT["spectrum"]
                        for c in queries.CUTOFFS})
        # Weighted, every kind counts alike.
        assert len({sum(queries.weight(qn) for qn in d if qn.kind == k)
                    for k in queries.KINDS}) == 1
        assert all(qn.q is None or queries.Q_LOW <= qn.q <= queries.Q_HIGH for qn in d)
        assert all(qn.expect_holds for qn in d if qn.mutate)
    assert a[0][0] != a[0][1]


def _small_deck():
    Q = queries.Question
    common = dict(family="tensor", cutoff=6, word="L1^2 T0", state=(1, 1))
    return [
        Q("eval", q=1.37, **common),
        Q("expand", **common),
        Q("eval", "classical", 6, q=0.55, word="F11 G1m1", state=(2, 1)),
        Q("spectrum", "", 6, q=0.61, casimir="J2"),
        Q("exact", "qboson", 6, relation="N-grading Gq11"),
        Q("exact", "qboson", 6, relation="N-grading Gq11", mutate=True),
        Q("numeric", "classical", 6, q=0.9, relation="N-grading G11"),
    ]


def _ask_small_deck():
    probe = worker.SpeedProbe(True)
    decks = worker.check_decks(worker.run_queries([_small_deck()], None, probe), probe)["decks"]
    return probe, decks[0]


def test_small_deck_answers_check_out_and_are_byte_stable():
    decks = [_ask_small_deck()[1] for _ in range(2)]
    assert all(d["failed"] == 0 and not d["new_defects"] and not d["known_defects"] for d in decks)
    assert decks[0]["digest"] == decks[1]["digest"]
    assert len(decks[0]["op_ms"]) == len(decks[0]["raw"]["op_ms"]) == len(_small_deck())


def test_speed_probe_scales_by_the_measured_speed():
    probe, deck = _ask_small_deck()
    assert len(probe.ticks) >= 1 and probe.spent > 0
    assert deck["run_s"] == pytest.approx(
        deck["raw"]["run_s"] * worker.REF_CAL_S / probe.ticks[0][1], rel=0.5)

    def probe_with(units):
        p = worker.SpeedProbe(True)
        p.ticks = [(float(t), u * worker.REF_CAL_S) for t, u in enumerate(units)]
        return p

    assert probe_with([2] * 10).scaled(0.5, 7.25) == pytest.approx(6.75 / 2)
    # The speed after each tick is the median over five neighbouring ticks.
    assert probe_with([1] * 5 + [2] * 5).scaled(0, 10) == pytest.approx(5 + 5 * 0.5)
    assert probe_with([1] * 4 + [9] + [1] * 5).scaled(0, 10) == pytest.approx(10)
    assert worker.SpeedProbe(False).scaled(1.0, 3.5) == 2.5


def test_setup_probe_times_the_import_and_calibrates():
    res = run.setup_time(time.monotonic() + 60)
    assert 0 < res["start_s"] < res["cpu_s"] < 10 and 0 < res["unit_s"] < 1


def test_checks_catch_wrong_answers():
    probe = worker.SpeedProbe(True)
    questions, answers, *_ = worker.run_queries([_small_deck()], None, probe)[0]
    ev, ex = answers[0], answers[1]
    assert questions[0].expand() == questions[1]
    assert queries.check_expand_answer(questions[1], ex) is None
    assert queries.check_expand_answer(questions[1], (0, ex[1].replace(" = (", " = ((", 1))) \
        is not None
    code, text = ev
    value = text.split(" = ")[1].split()[0]
    bad = (code, text.replace(value, repr(float(value) * (1 + 1e-6)), 1))
    assert queries.check_eval_answer(questions[0], bad, ex) is not None
    assert queries.check_eval_answer(questions[0], (2, text), ex) is not None
    code, text = answers[3]
    lines = text.splitlines()
    row = lines[3].split()
    lines[3] = lines[3].replace(row[3], repr(float(row[3]) + 1e-3))
    bad = (code, "\n".join(lines) + "\n")
    assert queries.check_spectrum_answer(questions[3], bad, worker._closed_form) is not None
    short = (code, "\n".join(text.splitlines()[:-1]) + "\n")
    assert queries.check_spectrum_answer(questions[3], short, worker._closed_form) is not None


def test_known_defect_is_counted_but_kept_apart():
    Q = queries.Question
    numeric = Q("numeric", "qboson", 12, q=0.5, relation="suq+ casimir chain lower-raise")
    other = Q("numeric", "qboson", 12, q=0.5, relation="N-grading Gq11")
    fails = {"verdict": "Fails", "mode": "NumericAt(0.5)", "witness": "|0,0> -> |0,0>"}
    exact = Q("exact", "qboson", 12, relation="suq+ casimir chain lower-raise")
    mutated = Q("exact", "qboson", 12, relation="N-grading Gq11", mutate=True)
    holds = {"verdict": "Holds", "mode": "ExactMonomial"}
    wrong, new, known = queries.check_deck(
        [numeric, other, exact, mutated],
        [fails, fails, {**fails, "mode": "ExactMonomial"}, holds], [None] * 4, None)
    assert wrong == 4 and len(known) == 1 and len(new) == 3
    names = {name for _, name in queries.KNOWN_FALSE_FAILS}
    assert names <= {r.name for r in sp4q.canonical_relations("qboson")} and len(names) == 4


def test_tracer_counts_repeat_and_bindings_are_restored():
    original = sp4q.qnum.q_factorial
    rel = ("qboson", "N-grading Gq11")

    def traced(mode):
        tr = Tracer()
        tr.start()
        try:
            assert sp4q.ops.q_factorial is not original
            sp4q.check_relation(rel, 6, mode=mode, q=0.9)
        finally:
            tr.stop()
        return tr.layer_metrics()

    a, b = traced("exact"), traced("exact")
    counts = [k for k in a if not k.endswith("_s")]
    assert {k: a[k] for k in counts} == {k: b[k] for k in counts}
    assert a["qnum.q_factorial_calls"] == 0 and a["qnum.mul_calls"] > 0
    assert a["verify.reports"] == 1 and a["algebras.build_calls"] == 1
    n = traced("numeric")
    assert n["qnum.q_factorial_calls"] > 0 and n["ops.gram_calls"] > 0
    assert n["ops.to_numeric_calls"] == n["algebras.numeric_context_calls"] * 26
    assert sp4q.qnum.q_factorial is original and sp4q.ops.q_factorial is original
    assert sp4q.ops.to_numeric.__defaults__[0] is sp4q.ops.gram


def test_report_hashes_ignore_wall_ms():
    rep = {"relation": "r", "verdict": "Holds", "wall_ms": 1.0}
    assert worker.report_hash(rep) == worker.report_hash({**rep, "wall_ms": 2.0})
    res = {"report_hashes": [worker.report_hash(rep)], "digest": "x", "unexpected": 0}
    expected = {"report_hashes": [worker.report_hash({**rep, "verdict": "Fails"})],
                "digest": "y"}
    wrong, problems = run.check_reports(res, expected)
    assert wrong == 1 and problems


def test_digests_match_the_run_sizes():
    digests = run.load_digests()
    assert digests["suite"]["cutoff"] == run.SUITE_CUTOFF
    assert digests["exact"]["cutoff"] == run.EXACT_CUTOFF
    assert len(digests["suite"]["report_hashes"]) == digests["suite"]["reports"] == 757
    assert len(digests["exact"]["report_hashes"]) == digests["exact"]["reports"] == 246


def test_benchmark_json_names_every_reported_metric():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    tr = Tracer()
    per_layer = set(tr.layer_metrics()) | {"trace.overhead_s", "trace.untraced_run_s"}
    assert {m["name"] for m in bench["per_layer"]} == per_layer
    assert [w["name"] for w in bench["workloads"]] == ["suite", "exact-scale", "queries"]


def test_run_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "suite", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
