"""Exit codes, structured output (schema-validated), round-trips, determinism."""

from __future__ import annotations

import csv
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from jsonschema import Draft202012Validator

from ein2lie.cli import main

SCHEMA_PATH = Path(__file__).parent.parent / "schema" / "report.schema.json"
VALIDATOR = Draft202012Validator(json.loads(SCHEMA_PATH.read_text()))


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def run_json(*argv):
    code, out, err = run_cli(*argv, "--format", "json")
    doc = json.loads(out)
    VALIDATOR.validate(doc)
    return code, doc, err


# ---------------------------------------------------------------------------
# derive
# ---------------------------------------------------------------------------

def test_derive_report_contains_rho_row():
    code, doc, _ = run_json("derive", "--family", "G1", "--alpha", "1", "--beta", "2")
    assert code == 0
    assert doc["ricci"]["rho_op"][0] == ["-2", "-2", "-2"]
    assert doc["unimodular"] is True
    assert doc["system"]["rows"][0] == {"i": 1, "j": 1, "a": "4", "b": "-2", "c": "1"}


def test_derive_raw_all_zero_is_flat(tmp_path):
    raw = tmp_path / "zero.json"
    raw.write_text(json.dumps({"c": [[["0"] * 3] * 3] * 3}))
    code, doc, _ = run_json("derive", "--raw", str(raw))
    assert code == 0
    assert all(x == "0" for row in doc["ricci"]["rho_op"] for x in row)
    assert doc["solution"]["kind"] == "line"


def test_derive_invalid_params_exit_2():
    code, _, err = run_cli(
        "derive", "--family", "G5", "--alpha", "1", "--beta", "1", "--gamma", "1", "--delta", "1"
    )
    assert code == 2
    assert "alpha*gamma + beta*delta" in err


def test_derive_report_reingests_identically(tmp_path):
    first = tmp_path / "first.json"
    code, _, _ = run_cli(
        "derive", "--family", "G2", "--alpha", "1", "--beta", "2", "--gamma", "3",
        "--format", "json", "--out", str(first),
    )
    assert code == 0
    second = tmp_path / "second.json"
    code, _, _ = run_cli("derive", "--raw", str(first), "--format", "json", "--out", str(second))
    assert code == 0
    a = json.loads(first.read_text())
    b = json.loads(second.read_text())
    for key in ("structure_constants", "connection", "ricci", "system", "solution", "unimodular"):
        assert a[key] == b[key]


def test_derive_rejects_bad_raw_table(tmp_path):
    raw = tmp_path / "bad.json"
    table = [[["0"] * 3 for _ in range(3)] for _ in range(3)]
    table[0][1][0] = "1"
    table[1][0][0] = "1"  # breaks antisymmetry
    raw.write_text(json.dumps({"c": table}))
    code, _, err = run_cli("derive", "--raw", str(raw))
    assert code == 2
    assert "antisymmetry" in err


def test_derive_rejects_non_lie_raw_table(tmp_path):
    raw = tmp_path / "nonlie.json"
    table = [[["0"] * 3 for _ in range(3)] for _ in range(3)]
    table[0][1][2], table[1][0][2] = "1", "-1"  # [e1,e2] = e3
    table[0][2][0], table[2][0][0] = "1", "-1"  # [e1,e3] = e1
    raw.write_text(json.dumps({"c": table}))
    code, _, err = run_cli("derive", "--raw", str(raw))
    assert code == 2
    assert "Jacobi" in err


# ---------------------------------------------------------------------------
# check / classify
# ---------------------------------------------------------------------------

def test_check_positive_and_negative():
    code, doc, _ = run_json("check", "--family", "G1", "--alpha", "1", "--beta", "0")
    assert code == 0
    assert doc["ein2"] is True
    assert doc["solution"] == {"kind": "point", "residual": "0", "lambda1": "0", "lambda2": "0"}

    code, doc, _ = run_json("check", "--family", "G1", "--alpha", "1", "--beta", "1")
    assert code == 1
    assert doc["ein2"] is False
    assert doc["solution"]["kind"] == "none"


def test_classify_branch_match():
    code, doc, _ = run_json("classify", "--family", "G4", "--alpha", "0", "--beta", "1", "--eta", "1")
    assert code == 0
    assert doc["branches"] == ["2.9(i)"]
    assert doc["status"] == "ein2"


def test_classify_no_match_exit_1():
    code, doc, _ = run_json(
        "classify", "--family", "G6", "--alpha", "4", "--beta", "2", "--gamma", "1", "--delta", "2"
    )
    assert code == 1
    assert doc["branches"] == []
    assert doc["status"] == "not_ein2"


def test_classify_requires_family():
    code, _, err = run_cli("classify", "--alpha", "1")
    assert code == 2
    assert "family" in err


def test_check_approx_mode_tolerance():
    code, doc, _ = run_json(
        "check", "--family", "G1", "--alpha", "1.0", "--beta", "1e-12",
        "--mode", "approx", "--tol", "1e-9",
    )
    assert code == 0  # within tolerance of the beta = 0 branch
    assert doc["mode"] == {"kind": "approx", "tolerance": 1e-9}


# ---------------------------------------------------------------------------
# config files
# ---------------------------------------------------------------------------

def test_config_file_input(tmp_path):
    cfg = tmp_path / "point.cfg"
    cfg.write_text("family = G1\nalpha = 1\nbeta = 0\n# comment\nmode = exact\n")
    code, doc, _ = run_json("check", "--config", str(cfg))
    assert code == 0
    assert doc["input"]["family"] == "G1"


def test_config_flags_override(tmp_path):
    cfg = tmp_path / "point.cfg"
    cfg.write_text("family = G1\nalpha = 1\nbeta = 0\n")
    code, doc, _ = run_json("check", "--config", str(cfg), "--beta", "1")
    assert code == 1
    assert doc["input"]["beta"] == "1"


def test_config_parse_error_names_line(tmp_path):
    cfg = tmp_path / "broken.cfg"
    cfg.write_text("family = G1\nalpha\n")
    code, _, err = run_cli("check", "--config", str(cfg))
    assert code == 2
    assert ":2:" in err


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------

def test_scan_g1_beta_sweep():
    code, out, _ = run_cli(
        "scan", "--family", "G1", "--alpha", "1", "--grid", "beta=-1:1:1"
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [row["beta"] for row in rows] == ["-1", "0", "1"]
    kinds = {row["beta"]: row["kind"] for row in rows}
    assert kinds == {"-1": "none", "0": "point", "1": "none"}
    zero_row = next(row for row in rows if row["beta"] == "0")
    assert zero_row["branches"] == "2.3"
    assert (zero_row["lambda1"], zero_row["lambda2"]) == ("0", "0")


def test_scan_g2_half_alpha_rows_are_ein2():
    code, out, _ = run_cli(
        "scan", "--family", "G2", "--gamma", "2",
        "--grid", "beta=1:2:1", "--grid", "alpha=2,4",
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    for row in rows:
        on_branch = row["alpha"] == str(2 * int(row["beta"]))
        assert (row["kind"] == "point") == on_branch
        if on_branch:
            assert row["lambda2"] == "0"


def test_scan_grid_point_violating_constraints_marked_invalid():
    code, out, _ = run_cli("scan", "--family", "G1", "--beta", "0", "--grid", "alpha=0:1:1")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows[0]["kind"] == "invalid"
    assert rows[1]["kind"] == "point"


def test_scan_invalid_parameter_exit_2():
    code, out, err = run_cli(
        "scan", "--family", "G4", "--alpha", "1", "--beta", "1", "--grid", "eta=1:2:1"
    )
    assert code == 2
    assert out == ""
    assert "eta = 1 or -1" in err


def test_scan_g5_degenerate_diagonal_rows_invalid():
    code, out, _ = run_cli(
        "scan", "--family", "G5", "--beta", "0", "--gamma", "0",
        "--grid", "alpha=-1:1:1", "--grid", "delta=-1:1:1",
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 9
    for row in rows:
        on_diagonal = int(row["alpha"]) + int(row["delta"]) == 0
        assert (row["kind"] == "invalid") == on_diagonal
        if on_diagonal:
            assert row["branches"] == "constraint violated: alpha + delta != 0"


def test_scan_without_grid_exit_2():
    code, _, err = run_cli("scan", "--family", "G1")
    assert code == 2
    assert "grid" in err


def test_scan_bad_step_exit_2():
    code, _, err = run_cli("scan", "--family", "G1", "--grid", "alpha=0:1:0")
    assert code == 2
    assert "step" in err


def test_scan_rows_in_grid_lexicographic_order():
    code, out, _ = run_cli(
        "scan", "--family", "G3", "--grid", "alpha=0:1:1", "--grid", "beta=0:1:1"
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [(r["alpha"], r["beta"]) for r in rows] == [("0", "0"), ("0", "1"), ("1", "0"), ("1", "1")]


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

VERIFY_FAST = (
    "verify", "--samples", "5", "--fidelity-samples", "5", "--neg-samples", "5", "--seed", "7"
)


def test_verify_json_schema_and_errata():
    code, doc, _ = run_json(*VERIFY_FAST)
    assert code == 0
    assert doc["ok"] is True
    assert len(doc["branches"]) == 30
    verdicts = {b["label"]: b["verdict"] for b in doc["branches"]}
    assert verdicts["3.4(v)"] == "errata"
    assert all(v in ("verified", "errata") for v in verdicts.values())
    assert [e["branch"] for e in doc["errata"]] == ["3.4(v)"]
    erratum = doc["errata"][0]
    assert erratum["counterexample"]["params"]["family"] == "G6"
    assert erratum["counterexample"]["recomputed"] is not None
    assert "beta^4/2" in erratum["correction"]
    assert all(a["ok"] for a in doc["anchors"])


def test_verify_single_theorem():
    code, doc, _ = run_json(*VERIFY_FAST, "--theorem", "2.5")
    assert code == 0
    assert [b["label"] for b in doc["branches"]] == ["2.5"]
    assert [f["family"] for f in doc["fidelity"]] == ["G2"]


def test_verify_unknown_theorem_exit_2():
    code, _, err = run_cli(*VERIFY_FAST, "--theorem", "9.9")
    assert code == 2
    assert "theorem" in err


def test_verify_metric_convention_lists_divergences():
    code, doc, _ = run_json(*VERIFY_FAST, "--convention", "metric")
    assert code == 0
    verdicts = {b["label"]: b["verdict"] for b in doc["branches"]}
    diverged = {label for label, v in verdicts.items() if v == "convention_divergence"}
    # exactly the branches whose lambda2 is generically nonzero
    assert diverged == {"2.7(ii)", "2.7(viii)", "3.2(iv)", "3.4(v)", "3.4(vii)"}
    assert doc["ok"] is True


def test_verify_deterministic_bytes(tmp_path):
    first, second = tmp_path / "a.txt", tmp_path / "b.txt"
    assert main([*VERIFY_FAST, "--out", str(first)]) == 0
    assert main([*VERIFY_FAST, "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_verify_text_mentions_result():
    code, out, _ = run_cli(*VERIFY_FAST)
    assert code == 0
    assert out.endswith("result: OK\n")
    assert "errata:" in out
