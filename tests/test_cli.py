"""Tests for the command-line interface: exit codes, output formats,
golden byte-matches, the report directory, and usage errors."""

import gc
import json
import os
import pathlib
import subprocess
import sys

import pytest

import sp4q.algebras
from sp4q.cli import CliConfig, build_parser, main


def run_cli(capsys, *argv):
    try:
        rc = main(list(argv))
    except SystemExit as exc:
        rc = exc.code
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# -- config invariants -----------------------------------------------------------


def test_config_defaults():
    cfg = CliConfig()
    assert cfg.cutoff == 12 and cfg.qs == (0.7, 1.3) and cfg.tol == 1e-10


@pytest.mark.parametrize(
    "kwargs",
    [
        {"cutoff": 3},
        {"qs": ()},
        {"qs": (0.7, -1.0)},
        {"tol": 0.0},
        {"qs": (0.0,)},
        {"qs": (float("nan"),)},
        {"qs": (0.7, float("inf"))},
        {"tol": -1.0},
        {"tol": float("nan")},
        {"tol": float("inf")},
    ],
)
def test_config_invariants(kwargs):
    with pytest.raises(ValueError):
        CliConfig(**kwargs)


# -- verify ----------------------------------------------------------------------


def test_verify_family_exit_zero(capsys):
    rc, out, _ = run_cli(
        capsys, "verify", "--family", "qboson", "--cutoff", "8", "--q", "0.7"
    )
    assert rc == 0
    assert "0 unexpected" in out.splitlines()[-1]
    assert all(not line.startswith("FAIL") for line in out.splitlines())


def test_verify_json_roundtrip(capsys):
    rc, out, _ = run_cli(
        capsys, "verify", "--family", "classical", "--cutoff", "8",
        "--q", "0.7", "--format", "json",
    )
    assert rc == 0
    again = json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"
    assert out == again


def test_verify_mutation_exits_one_with_witness(capsys):
    rc, out, _ = run_cli(
        capsys, "verify", "--family", "qboson", "--cutoff", "8",
        "--q", "0.7", "--mutate", "J-commutator",
    )
    assert rc == 1
    fails = [l for l in out.splitlines() if l.startswith("FAIL")]
    assert fails and any("J-commutator" in l for l in fails)
    assert "witness:" in out


def test_verify_variants_xfail_keep_exit_zero(capsys):
    rc, out, _ = run_cli(
        capsys, "verify", "--family", "tensor", "--cutoff", "8",
        "--q", "0.7", "--include-variants",
    )
    assert rc == 0
    lines = out.splitlines()
    assert any(l.startswith("XFAIL") for l in lines)
    assert not any(l.startswith("FAIL ") for l in lines)


def test_verify_report_dir(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("SP4Q_REPORT_DIR", str(tmp_path / "out"))
    rc, _, err = run_cli(
        capsys, "verify", "--family", "classical", "--cutoff", "8", "--q", "0.7"
    )
    assert rc == 0
    path = tmp_path / "out" / "sp4q-report.json"
    assert path.exists()
    data = json.loads(path.read_text())
    assert data and {"relation", "verdict", "wall_ms"} <= set(data[0])
    assert str(path) in err


# -- spectrum --------------------------------------------------------------------


def test_spectrum_l2_at_unity(capsys):
    rc, out, _ = run_cli(
        capsys, "spectrum", "--casimir", "L2", "--cutoff", "6",
        "--q", "1.0", "--sector", "even",
    )
    assert rc == 0
    values = {}
    for line in out.splitlines()[1:]:
        parts = line.split()
        nu = int(parts[0].split("=")[1])
        values.setdefault(nu, float(parts[3]))
    assert values[0] == 0 and values[2] == 4 and values[4] == 12


def test_spectrum_alias(capsys):
    rc, out, _ = run_cli(capsys, "spectrum", "--casimir", "C2_SUq0",
                         "--cutoff", "6")
    assert rc == 0
    assert out.startswith("K02 spectrum")
    assert "phi_q=-[1/2]" in out


def test_spectrum_weighted(capsys):
    rc, out, _ = run_cli(
        capsys, "spectrum", "--casimir", "S2", "--cutoff", "6",
        "--weights", "2/3,-1/5,1,7/2",
    )
    assert rc == 0 and "S2 spectrum" in out


@pytest.mark.parametrize("key", ["phi-ladder", "alpha-discrete", "phi-q",
                                 "qphi-alpha"])
def test_spectrum_tables_golden_via_cli(capsys, golden_dir, key):
    rc, out, _ = run_cli(capsys, "spectrum", "--table", key)
    assert rc == 0
    name = "table_" + key.replace("-", "_") + ".txt"
    assert out == (golden_dir / name).read_text()


# -- pyramid ---------------------------------------------------------------------


@pytest.mark.parametrize(
    "fname,argv",
    [
        ("pyramid_even_pairs.txt", ("--labels", "pairs", "--rows", "4")),
        ("pyramid_odd_pairs.txt",
         ("--labels", "pairs", "--sector", "odd", "--rows", "3")),
        ("pyramid_even_triple_min.txt", ("--labels", "triple-min", "--rows", "4")),
        ("pyramid_even_triple_max.txt", ("--labels", "triple-max", "--rows", "4")),
    ],
)
def test_pyramid_goldens_via_cli(capsys, golden_dir, fname, argv):
    rc, out, _ = run_cli(capsys, "pyramid", *argv)
    assert rc == 0
    assert out == (golden_dir / fname).read_text()


# -- basis -----------------------------------------------------------------------


def test_basis_all(capsys):
    rc, out, _ = run_cli(capsys, "basis", "--cutoff", "6")
    assert rc == 0
    assert out.count("PASS") == 5


def test_basis_single(capsys):
    rc, out, _ = run_cli(capsys, "basis", "--which", "rtt", "--cutoff", "6")
    assert rc == 0
    assert "basis rtt" in out


# -- expand / eval ---------------------------------------------------------------


def test_expand_word(capsys):
    rc, out, _ = run_cli(
        capsys, "expand", "--family", "tensor", "--op", "T0^2",
        "--state", "0,0", "--cutoff", "6",
    )
    assert rc == 0
    assert out.strip() == "T0^2 |0,0> = (q + q^(-1)) |2,2>"


def test_expand_flagged(capsys):
    rc, out, _ = run_cli(
        capsys, "expand", "--family", "tensor", "--op", "T0",
        "--state", "0,0", "--cutoff", "6",
    )
    assert rc == 0
    assert "sqrt(q + q^(-1))" in out


def test_expand_annihilates(capsys):
    rc, out, _ = run_cli(
        capsys, "expand", "--family", "classical", "--op", "b1",
        "--state", "0,0", "--cutoff", "6",
    )
    assert rc == 0
    assert out.strip() == "b1 |0,0> = 0"


def test_eval_matches_expand(capsys):
    rc, out, _ = run_cli(
        capsys, "eval", "--family", "tensor", "--op", "T0^2",
        "--state", "0,0", "--q", "0.7", "--cutoff", "6",
    )
    assert rc == 0
    val = float(out.split("=")[1].split("|")[0])
    b2 = 0.7 + 1 / 0.7  # [2] at q = 0.7; normalized entry is [2]^2
    assert val == pytest.approx(b2 * b2, rel=1e-12)


def test_eval_at_q_one(capsys):
    rc, out, _ = run_cli(
        capsys, "eval", "--family", "qboson", "--op", "Jp", "--state", "0,1",
        "--q", "1", "--cutoff", "6",
    )
    assert rc == 0
    assert out.startswith("Jp |0,1> = 1.0 |1,0>")


def test_non_affine_catalog_formula_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.setattr(sp4q.algebras, "_CATALOG_CACHE", {})
    monkeypatch.setitem(sp4q.algebras._CATALOG_ROWS, "qboson",
                        lambda: [("squared weight", "[J_0, J_+] = [J_0 J_0] J_+")])
    rc, out, err = run_cli(capsys, "verify", "--family", "qboson", "--cutoff", "8")
    assert rc == 2
    assert "'squared weight': bracket argument of degree 2" in err
    assert "Traceback" not in err


def test_verify_at_q_one_is_a_usage_error(capsys):
    rc, out, err = run_cli(
        capsys, "verify", "--family", "qboson", "--q", "1", "--cutoff", "8"
    )
    assert rc == 2
    assert "0/0 at q = 1" in err and "Traceback" not in err


# -- usage errors ----------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--cutoff", "3"),
        ("verify", "--family", "nonsense"),
        ("verify", "--mutate", "no-such-relation"),
        ("verify", "--tol", "-1"),
        ("spectrum", "--casimir", "nope"),
        ("spectrum", "--table", "nope"),
        ("spectrum",),
        ("pyramid", "--labels", "triple-min", "--sector", "odd"),
        ("pyramid", "--rows", "0"),
        ("basis", "--which", "nope"),
        ("expand", "--family", "tensor", "--op", "BAD", "--state", "0,0"),
        ("expand", "--family", "tensor", "--op", "T1", "--state", "9,9",
         "--cutoff", "6"),
        ("expand", "--family", "tensor", "--op", "T1^x", "--state", "0,0"),
        ("eval", "--family", "tensor", "--op", "T1", "--state", "0,0",
         "--q", "-2"),
        (),
    ],
)
def test_usage_errors_exit_two(capsys, argv):
    rc, _, _ = run_cli(capsys, *argv)
    assert rc == 2


BAD_Q = ("nan", "inf", "0", "-1")
HUGE_Q = ("1e300", "1e-300")


@pytest.mark.parametrize(
    "argv",
    [("verify", "--family", "classical", "--cutoff", "8", "--q", q) for q in BAD_Q]
    + [("eval", "--family", "qboson", "--op", "Jp", "--state", "0,1", "--q", q)
       for q in BAD_Q]
    + [("spectrum", "--casimir", "J2", "--cutoff", "6", "--q", q) for q in BAD_Q],
)
def test_bad_q_exits_two_with_a_message(capsys, argv):
    # a NaN q used to pass every numeric check, and q <= 0 crashed spectrum
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 2
    assert "q must be finite and positive" in err and "Traceback" not in err
    assert "PASS" not in out


@pytest.mark.parametrize(
    "argv",
    [("verify", "--family", "qboson", "--cutoff", "8", "--q", q) for q in HUGE_Q]
    + [("eval", "--family", "tensor", "--op", "T1", "--state", "0,0", "--cutoff", "8",
        "--q", q) for q in HUGE_Q]
    + [("spectrum", "--casimir", "J2", "--cutoff", "8", "--q", q) for q in HUGE_Q],
)
def test_float_overflowing_q_exits_two_with_a_message(capsys, argv):
    # a finite q whose powers overflow a float used to end in a traceback
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 2
    assert f"q = {float(argv[-1])!r} is out of range" in err and "Traceback" not in err
    assert "PASS" not in out


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
def test_bad_tol_exits_two_with_a_message(capsys, tol):
    rc, out, err = run_cli(
        capsys, "verify", "--family", "classical", "--cutoff", "8", "--tol", tol
    )
    assert rc == 2
    assert "tol must be finite and positive" in err and "Traceback" not in err
    assert out == ""


def test_main_builds_its_parser_once(capsys):
    argv = ("expand", "--family", "qboson", "--op", "Jp", "--state", "0,1",
            "--cutoff", "6")
    first = run_cli(capsys, *argv)
    # Building a parser leaves argparse formatter cycles behind ...
    gc.collect()
    debug = gc.get_debug()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        build_parser()
        gc.collect()
        built = [o for o in gc.garbage if type(o).__module__ == "argparse"]
        gc.garbage.clear()
        # ... and a second main call must not build another one.
        second = run_cli(capsys, *argv)
        gc.collect()
        left = [o for o in gc.garbage if type(o).__module__ == "argparse"]
    finally:
        gc.set_debug(debug)
        gc.garbage.clear()
    assert built
    assert first == second and first[0] == 0
    assert left == []


# -- console entry point and scripts ---------------------------------------------


def _run_python(*args):
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env)


def test_package_runs_as_a_module():
    proc = _run_python("-m", "sp4q", "verify", "--family", "classical", "--cutoff", "8")
    assert proc.returncode == 0, proc.stderr
    assert "0 unexpected" in proc.stdout


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "sp4q.cli", "pyramid", "--rows", "2"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "|1,1>" in proc.stdout


def test_derive_catalog_coefficients_script_runs():
    script = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "derive_catalog_coefficients.py"
    proc = _run_python(str(script))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


@pytest.mark.parametrize("casimir", ["J2", "C2_SUqpm"])
def test_spectrum_weights_for_other_casimirs_exit_two(capsys, casimir):
    rc, out, err = run_cli(capsys, "spectrum", "--casimir", casimir, "--cutoff", "6",
                           "--weights", "1,1,1,1")
    assert rc == 2
    assert "only to the casimir S2" in err and "Traceback" not in err and not out


def test_verify_near_q_one_exits_zero(capsys):
    # the casimir values lost up to 9 digits here and failed their closed forms
    rc, out, _ = run_cli(capsys, "verify", "--cutoff", "8", "--q", "1.001")
    assert rc == 0
    assert "0 unexpected" in out


def test_verify_numeric_near_q_one_exits_zero(capsys):
    # q-brackets evaluated as written lost 8 digits and failed uq+ commutator
    rc, out, _ = run_cli(
        capsys, "verify", "--family", "qboson", "--cutoff", "8", "--q", "1.000000001")
    assert rc == 0
    assert "NumericAt(1.000000001)" in out and "0 unexpected" in out


def test_spectrum_zero_weight_denominator_exits_two(capsys):
    rc, out, err = run_cli(capsys, "spectrum", "--casimir", "S2", "--cutoff", "6",
                           "--weights", "1/0,1,1,1")
    assert rc == 2
    assert "zero denominator" in err and "Traceback" not in err and not out
