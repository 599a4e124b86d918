"""Exit codes, structured output (schema-validated), round-trips, determinism."""

from __future__ import annotations

import csv
import functools
import hashlib
import importlib.util
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from jsonschema import Draft202012Validator

from ein2lie import BRANCHES, BRANCHES_BY_LABEL, BranchSpec, cli, ein2, geometry, reporting, verify
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


# derive's text and JSON bytes, pinned by sha256: one branch point per
# family, a point that is not Ein(2), a line, approx mode at the 3.2(iv)
# anchor, the metric convention on a point with lambda2 != 0 and on the
# approx input, a raw table, exact and approx (read from the working
# directory, so that the path it echoes is fixed), and two approx inputs
# whose float tables hold Fractions: Fraction(0) for the omitted G5
# parameters, and Fraction(2) from 2*eta - beta in the G4 table.  Their
# printed connections and Ricci zeros must keep their exact entries.
DERIVE_INPUTS = {
    "G1": ("--family", "G1", "--alpha", "2", "--beta", "0"),
    "G2": ("--family", "G2", "--alpha", "2", "--beta", "1", "--gamma=-1/2"),
    "G3": ("--family", "G3", "--alpha", "1", "--beta", "1", "--gamma", "3"),
    "G4": ("--family", "G4", "--alpha", "2", "--beta", "2", "--eta", "1"),
    "G5": ("--family", "G5", "--alpha", "1", "--beta", "2", "--gamma=-2", "--delta", "1"),
    "G6": ("--family", "G6", "--alpha", "1", "--beta", "2", "--gamma", "0", "--delta", "0"),
    "G7": ("--family", "G7", "--alpha", "1", "--beta", "1", "--gamma", "0", "--delta", "2"),
    "none": ("--family", "G1", "--alpha", "1", "--beta", "2"),
    "line": ("--family", "G3", "--alpha", "3/2", "--beta", "3/2", "--gamma", "0"),
    "approx": (
        "--family", "G5", "--mode", "approx", "--alpha", "0.5749669532551427",
        "--beta=-1", "--gamma", "2", "--delta", "1.1499339065102854",
    ),
    "metric": ("--family", "G3", "--alpha", "1", "--beta", "1", "--gamma", "3", "--convention", "metric"),
    "metric_approx": (
        "--family", "G5", "--mode", "approx", "--alpha", "0.5749669532551427",
        "--beta=-1", "--gamma", "2", "--delta", "1.1499339065102854", "--convention", "metric",
    ),
    "raw": ("--raw", "raw.json"),
    "raw_approx": ("--raw", "raw.json", "--mode", "approx"),
    "approx_zeros": ("--family", "G5", "--alpha", "0.5", "--delta", "1.5", "--mode", "approx"),
    "approx_G4": ("--family", "G4", "--alpha", "0.5", "--eta", "1", "--mode", "approx"),
}
RAW_TABLE = {
    "c": [
        [["0", "0", "0"], ["0", "1", "2"], ["0", "-1", "0"]],
        [["0", "-1", "-2"], ["0", "0", "0"], ["0", "0", "0"]],
        [["0", "1", "0"], ["0", "0", "0"], ["0", "0", "0"]],
    ]
}
DERIVE_SHA256 = {
    "G1": (
        "7f488da474c450ec778a5c47e4caf40565464e42c5416a9e2d7782a5f2076cbb",
        "18bdc3a8710a117febbecbaf5b2bc9a0d85f8b39caaef4393927662841765708",
    ),
    "G2": (
        "69b2f5bd214e6d68a5dfc91f3fb00203085241e1985188e53fcc5c73de036144",
        "e42f7c3df08956ac5258f4247dfda1790529d38ffd11a8e269ddcaf62fd9736d",
    ),
    "G3": (
        "c13de1c0036c091a4d0a4700570fef308edc9d03e583a782c3ba1b4480b05d02",
        "6079ebcc7fcf8c1c86f2fd28cd1826f19757430f600eea08a11f81a5c44cabc3",
    ),
    "G4": (
        "dc97786bce2e4eae45d2672b4e944402a176c6c13668486b28a5e77c3db8b56e",
        "f40f700e4481ded2cdd4aa36d8cc3076031e19e875823d5e265cb52d4ff8b02c",
    ),
    "G5": (
        "3273eba9b4881e9558f3cfc5bb7b81ae1562e1cbeb0816c6b9c399ec5b5567e0",
        "305cd710ab0c1c03d23e20ddb844b5fb20d4262c9ff7c3d9dd6093dc08e84c8a",
    ),
    "G6": (
        "b34b6a492caf163c8462606ca365e1a5b2402629f9bd539e5ceeb59563820a94",
        "82f7956fb2c3450f5fda396b1b78534df9303a4df5725352c2aac632bc4dd7bc",
    ),
    "G7": (
        "f3897a96e49e2f9108de60ccbdeade8043e822b33cf70af1d30276295188e7ba",
        "789694d7f3853279434b4801b74bf441fbcedeeedcc433e4da1c649fd61a9312",
    ),
    "none": (
        "4bd6d1b15c19e35a8079f201f144556e91435af9ab2dbc612690c9bfad51d9c0",
        "77a020b0ebcef3626ad81c939025c6694196946923f000763dbc207e77890e99",
    ),
    "line": (
        "6de8c49fbbf9d2196dab9b3757da60d28d29c4cde7f76571cae114a160a31385",
        "0f29992b537afabe6cf13f93e35e64e0fef4290354e3fe58ab1688ca374aa0ec",
    ),
    "approx": (
        "8959e6b65c6cbd1af683320ef44f86c81b9ef98380b7e5976b64d068dec33297",
        "09ea79ab6c1b2c32e0553b6aa2afece7a9f44132209c48582ef28ccaea8e61d5",
    ),
    "metric": (
        "b28bbcef9122a8a552dfb947c7ad9b9248503ebc97ba8ee3e3838b5f997de131",
        "f5170275c277238e7129709306a6629203c9d614d3a6da201fb4210b5a5e33cb",
    ),
    "metric_approx": (
        "1f980445f7391388c2116d7a386edad29c16b7b16976d5761d8f94a6ad49759d",
        "6fc40b89917fcd442be2e78ee951959a00011adf7251b0334e3f39950c2074b8",
    ),
    "raw": (
        "c5727b5a3c2f5c3171cb229f5ec4281f868a1b130c70efbb442fd89f28861259",
        "a4b6d30a27586f5af97d38bc97ffc7fb6f85e0a569ffa4639c4d5bc76d17208b",
    ),
    "raw_approx": (
        "90e71de22d9a99595f7d9d36520317d78a66d45611d24315620ec518650019b2",
        "719dc04368230b2c6d24cb72ad5a176f7e20526c166a4f64c3510737575ed942",
    ),
    "approx_zeros": (
        "f2ea8a471c42f109cf02021f01cb7ceabfdcfd3def8873047940f0f453e20fc8",
        "36f6f15579fd5947b12ecde17d1d6f793945cf1d31a4543b3d91fd9aa6ead418",
    ),
    "approx_G4": (
        "c6adefe451fa87789d82741e28e55941943e2693bc983f445fbc1aa3e2302fe7",
        "59e9b0d4c7004afb8f5f7934c9f0118399f307876ea0715816f1c27fd3031f52",
    ),
}


@pytest.mark.parametrize("case", sorted(DERIVE_INPUTS))
def test_derive_bytes_are_pinned(case, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "raw.json").write_text(json.dumps(RAW_TABLE))
    digests = []
    for fmt in ("text", "json"):
        code, out, _ = run_cli("derive", *DERIVE_INPUTS[case], "--format", fmt)
        assert code == 0
        digests.append(hashlib.sha256(out.encode()).hexdigest())
    assert tuple(digests) == DERIVE_SHA256[case]


# check and classify on a point, a line, a point that is not Ein(2), the
# approx 3.2(iv) input and a G4 point (eta in the input line); check on a
# general line, with a base and a direction (`check_general_line`); verify at
# seed 7, whose report carries the 3.4(v) erratum, and under the metric
# convention, whose report lists the convention divergences.  (exit
# code, text sha256, JSON sha256) per case.
_VERDICT_POINTS = {
    "point": DERIVE_INPUTS["G1"],
    "line": DERIVE_INPUTS["line"],
    "none": DERIVE_INPUTS["none"],
    "approx": DERIVE_INPUTS["approx"],
    "G4": DERIVE_INPUTS["G4"],
}
REPORT_INPUTS = {
    **{f"{command}_{case}": (command, *argv)
       for command in ("check", "classify") for case, argv in _VERDICT_POINTS.items()},
    "check_general_line": (
        "check", "--family", "G3", "--alpha", "1", "--beta", "1", "--gamma", "1", "--convention", "metric",
    ),
    "verify_seed7": ("verify", "--seed", "7"),
    "verify_metric": (
        "verify", "--convention", "metric", "--samples", "5",
        "--fidelity-samples", "5", "--neg-samples", "5",
    ),
}
REPORT_SHA256 = {
    "check_general_line": (
        0,
        "1f4eebc07ef00f633a2d81727fe6d611908bbe839e470e71b2ad96de10b1b280",
        "7f2d8dd6a5862e2bbb66dfeaea815a945cc07ea6a05c32e94e203f7c0a9b8ada",
    ),
    "check_G4": (
        0,
        "dc46e93e1b64c7a04d3b1a849c6f4b0cc849bbcdbc52e9fd9add2ddb631077df",
        "82ac2e5c6a074da171156b9e2c0e4ddb7e1b7f114179604ee8fb86352ff51486",
    ),
    "check_approx": (
        0,
        "0a8bdab510d2142e2c9c55e2b662333f4727ea1db0b15addbcadfa2ccb66076e",
        "ade306febb0d9d7a49c03225ed787c7266cf164b9d6a10fca723eef26ef1e4ae",
    ),
    "check_line": (
        0,
        "d49d5b3bf18b8bc33d5b5fbb2994eecf67cfdae9a3fb8262caf791f58ae0656b",
        "69ce9606c1cb494c2c7155e3ec0a793ea08765bd7932a5460219a7e08f7c44e0",
    ),
    "check_none": (
        1,
        "6c256d3e7e486475f7165c0ccf3e0433e82619c2ebef19a9d4f3db3697cfb494",
        "ec24fb4e8c88e0ca9999b654c8d8b12f7da43f55c17804a6e43075c684dfd4eb",
    ),
    "check_point": (
        0,
        "c9bad06fa6e15c57c9f6ffa59d75c8a3b9455e3fc9f55fb84a65fbf67d050071",
        "653f02e21fdd2c92e5b70756aa2a5b98e1eb5260d2cce91224a4e05070652d30",
    ),
    "classify_G4": (
        0,
        "7247ba6836bc073b3aef23fbd9c47a408e9707d0b2a6d01130b69c559a770806",
        "6c83b840173adb03dd8e76805339191c58685feaa6ab0e217eb82b873f0c84f8",
    ),
    "classify_approx": (
        0,
        "3bb29f3a4f0190d4bb5cb6ce67831f1bd1bbbe258f150492cda9abac504efd3f",
        "07eed8a0992c61501e5db31321dd46cecfe0bf82fde15d2f4dc75b5e7af5be1d",
    ),
    "classify_line": (
        0,
        "c44dd5bc56ba6b12f8f142f5a4232d548417dd6ae89a17437c195751de474595",
        "ea5f57294dbf6a0327f24c50ad32d41bab40d0fa22e798509b4acfe7a7b204db",
    ),
    "classify_none": (
        1,
        "13d7bf8d4391289905f206aa9e6d1fd83cac4b884b000737a48e85a8104ca3f5",
        "546172ad8da571dd53ab37ccc7e24c6754ade5f619c452865dbedc6093e098ff",
    ),
    "classify_point": (
        0,
        "76dcfa0c2efd6f89aa5a2090e07d6ae19aea26c297c8ebe00ae7be2383d3d894",
        "e6e4aaf8537038203d1ba9a3c2887fa60fa3e4de01ae3c1bc083bd6fbc683591",
    ),
    "verify_metric": (
        0,
        "43ed8c428818d299494d1bff370012a3e7f9199fdf368c89776ba40492e51338",
        "9f15f2b21c8dcfae04335726e6cfc013a2b998b23c47a431e1fccf552e7a482c",
    ),
    "verify_seed7": (
        0,
        "5f2ff48918d7f51ae67de65c43a665f9c7d34b4fd134a127a707e9f11166254c",
        "d51f1283643be46272c1ffb77ccd66ef9e51be7dfe0d526a1ee9bf09d96b1ed8",
    ),
}


@functools.lru_cache(maxsize=None)
def report_output(argv, fmt):
    """(exit code, stdout) of one report; stderr must stay empty."""
    code, out, err = run_cli(*argv, "--format", fmt)
    assert err == ""
    return code, out


@pytest.mark.parametrize("case", sorted(REPORT_INPUTS))
def test_report_bytes_are_pinned(case):
    (code, text), (json_code, json_text) = (report_output(REPORT_INPUTS[case], fmt)
                                            for fmt in ("text", "json"))
    assert code == json_code
    digests = tuple(hashlib.sha256(out.encode()).hexdigest() for out in (text, json_text))
    assert (code, *digests) == REPORT_SHA256[case]


RENDER_TEXT = {
    "derive": reporting.render_derive_text,
    "check": reporting.render_verdict_text,
    "classify": reporting.render_verdict_text,
    "verify": reporting.render_suite_text,
}
ROUND_TRIP_INPUTS = {
    **{f"derive_{case}": ("derive", *argv) for case, argv in DERIVE_INPUTS.items()},
    **REPORT_INPUTS,
}


@pytest.mark.parametrize("case", sorted(ROUND_TRIP_INPUTS))
def test_text_is_a_layout_of_the_json_document(case, tmp_path, monkeypatch):
    """The text renders from the parsed JSON bytes, so it shows nothing the JSON lacks."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "raw.json").write_text(json.dumps(RAW_TABLE))
    argv = ROUND_TRIP_INPUTS[case]
    text, json_text = (report_output(argv, fmt)[1] for fmt in ("text", "json"))
    assert RENDER_TEXT[argv[0]](json.loads(json_text)) == text


def test_general_line_prints_its_base_and_direction():
    code, out = report_output(REPORT_INPUTS["check_general_line"], "text")
    assert (code, out) == (0, (
        "input: G3 alpha=1 beta=1 gamma=1\n"
        "ein2: yes\n"
        "solution: line: base (0, -1/4) + t * (1, 1/2)\n"
    ))


def test_derive_unimodular_reads_the_tolerance(tmp_path):
    """[e1,e2] = 1e-7 e2 is unimodular, and flat, within the tolerance 1e-6."""
    raw = tmp_path / "tiny.json"
    table = [[["0"] * 3 for _ in range(3)] for _ in range(3)]
    table[0][1][1], table[1][0][1] = "1e-7", "-1e-7"
    raw.write_text(json.dumps({"c": table}))
    approx = ("--raw", str(raw), "--mode", "approx")
    code, out, _ = run_cli("derive", *approx, "--tol", "1e-6")
    assert code == 0 and "  unimodular: yes\n" in out
    code, doc, _ = run_json("check", *approx, "--tol", "1e-6")
    assert code == 0 and doc["solution"]["kind"] == "line"
    code, out, _ = run_cli("derive", *approx)
    assert code == 0 and "  unimodular: no\n" in out


@pytest.mark.parametrize("case", ["approx", "metric_approx"])
def test_approx_derive_json_prints_row_entries_as_numbers(case):
    """Approx rows are floats from the contraction; only the constant column stays exact."""
    code, doc, _ = run_json("derive", *DERIVE_INPUTS[case])
    assert code == 0
    rows = doc["system"]["rows"]
    assert all(type(row["a"]) is float and type(row["b"]) is float for row in rows)
    assert all(row["c"] in ("0", "1", "-1") for row in rows)


@pytest.mark.parametrize("mode", ["exact", "approx"])
def test_derive_computes_ricci_once(mode, monkeypatch):
    """derive prints and solves the same Ricci data."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return geometry.ricci(*args, **kwargs)

    for module in (cli, ein2):
        monkeypatch.setattr(module, "ricci", counted)
    code, _, _ = run_cli("derive", *DERIVE_INPUTS["G3"], "--mode", mode)
    assert code == 0
    assert len(calls) == 1


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


@pytest.mark.parametrize("command", ["derive", "check"])
@pytest.mark.parametrize("mode", ["exact", "approx"])
def test_non_lie_raw_table_with_denominators_exit_2(command, mode, tmp_path):
    raw = tmp_path / "nonlie.json"
    table = [[["0"] * 3 for _ in range(3)] for _ in range(3)]
    table[0][1][2], table[1][0][2] = "1/2", "-1/2"  # [e1,e2] = e3/2
    table[0][2][0], table[2][0][0] = "2/3", "-2/3"  # [e1,e3] = 2 e1/3
    raw.write_text(json.dumps({"c": table}))
    code, out, err = run_cli(command, "--raw", str(raw), "--mode", mode)
    assert (code, out, err) == (2, "", "error: Jacobi identity fails; residual is nonzero\n")


@pytest.mark.parametrize("mode", ["exact", "approx"])
@pytest.mark.parametrize(
    "entry, message",
    [
        ("true", "expected a finite number or a rational string, got true"),
        ("null", "expected a finite number or a rational string, got null"),
        ("[1]", "expected a finite number or a rational string, got [1]"),
        ('{"p": 1}', 'expected a finite number or a rational string, got {"p": 1}'),
        ("1e400", "expected a finite number or a rational string, got Infinity"),
        ("NaN", "expected a finite number or a rational string, got NaN"),
        ('"one"', "not a rational literal: 'one'"),
    ],
)
def test_raw_entry_that_is_no_finite_number_exit_2(entry, message, mode, tmp_path):
    raw = tmp_path / "entry.json"
    table = [[["0"] * 3 for _ in range(3)] for _ in range(3)]
    table[1][2][0] = "ENTRY"
    raw.write_text(json.dumps({"c": table}).replace('"ENTRY"', entry))
    code, out, err = run_cli("check", "--raw", str(raw), "--mode", mode)
    assert (code, out, err) == (2, "", f"error: {raw}: c[1][2][0]: {message}\n")


def _zeros():
    return [[0] * 3 for _ in range(3)]


_SHAPE = "field 'c' must be a 3x3x3 array"


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"c": [_zeros(), _zeros(), _zeros(), [[1, 0, 0], [0, 0, 0], [0, 0, 0]]]}, _SHAPE),
        ({"c": [[[0] * 3] * 4, _zeros(), _zeros()]}, _SHAPE),
        ({"c": [[[0, 0, 0, 5], [0] * 3, [0] * 3], _zeros(), _zeros()]}, _SHAPE),
        ({"c": [_zeros(), _zeros()]}, _SHAPE),
        ({"c": {"0": 1}}, _SHAPE),
        ({"c": [{"0": 1}, _zeros(), _zeros()]}, _SHAPE),
        ({"c": "abc"}, _SHAPE),
        ({"c": ["abc", _zeros(), _zeros()]}, _SHAPE),
        ({"structure_constants": {"c": 5}}, _SHAPE),
        ({"structure_constants": 5}, "field 'c' (or 'structure_constants.c') missing"),
    ],
    ids=["extra-plane", "extra-row", "extra-entry", "two-planes", "object-table", "object-plane",
         "string-table", "string-plane", "nested-number", "number-structure-constants"],
)
def test_raw_table_of_the_wrong_shape_exit_2(doc, message, tmp_path):
    """A table that is no 3x3x3 array is an input error: nothing is cut or indexed past."""
    raw = tmp_path / "shape.json"
    raw.write_text(json.dumps(doc))
    code, out, err = run_cli("check", "--raw", str(raw))
    assert (code, out, err) == (2, "", f"error: {raw}: {message}\n")


# argparse alone reads -1e-3, -inf and -NaN as options and fails with a usage error.
@pytest.mark.parametrize("tol", ["inf", "nan", "0", "-1", "-1e-3", "-inf", "-NaN"])
def test_tolerance_that_is_not_positive_and_finite_exit_2(tol):
    code, out, err = run_cli(
        "check", "--family", "G1", "--alpha", "1", "--beta", "2", "--mode", "approx", "--tol", tol
    )
    assert (code, out, err) == (2, "", "error: tolerance must be positive and finite\n")


@pytest.mark.parametrize("tol", ["abc", "1/2"])
def test_tolerance_that_is_no_number_exit_2(tol):
    code, out, err = run_cli(
        "check", "--family", "G1", "--alpha", "1", "--beta", "2", "--mode", "approx", "--tol", tol
    )
    message = f"field tol: could not convert string to float: {tol!r}"
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("command", ["derive", "check", "classify"])
def test_negative_fraction_as_separate_argument(command):
    # A valid G6 point (alpha*gamma = beta*delta = 1/6) whose four parameters
    # are negative fractions, which argparse alone reads as options.
    values = {"alpha": "-1/2", "beta": "-1/3", "gamma": "-1/3", "delta": "-1/2"}
    separate = [token for name, value in values.items() for token in (f"--{name}", value)]
    attached = [f"--{name}={value}" for name, value in values.items()]
    result = run_cli(command, "--family", "G6", *separate)
    assert result == run_cli(command, "--family", "G6", *attached)
    assert result[0] in (0, 1) and result[1] and result[2] == ""


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

# Every config key each command reads, with the flags the run also needs.
_G4_POINT = {
    "family": "G4", "alpha": "0", "beta": "1", "gamma": "0", "delta": "0", "eta": "1",
    "convention": "metric", "mode": "approx", "tol": "1e-6", "format": "json",
}
_RAW_POINT = {"raw": "RAW", "convention": "metric", "mode": "approx", "tol": "1e-6", "format": "json"}
CONFIG_READS = (
    ("derive", _G4_POINT, ()),
    ("derive", _RAW_POINT, ()),
    ("check", _G4_POINT, ()),
    ("check", _RAW_POINT, ()),
    ("classify", _G4_POINT, ()),
    (
        "verify",
        {"convention": "metric", "seed": "3", "samples": "2", "format": "json"},
        ("--theorem", "2.5", "--fidelity-samples", "2", "--neg-samples", "2"),
    ),
    ("scan", {**_G4_POINT, "format": "csv"}, ("--grid", "alpha=0:1:1")),
)


def test_config_file_input(tmp_path):
    cfg = tmp_path / "point.cfg"
    cfg.write_text("family = G1\nalpha = 1\nbeta = 0\n# comment\nmode = exact\n")
    code, doc, _ = run_json("check", "--config", str(cfg))
    assert code == 0
    assert doc["input"]["family"] == "G1"

    # each command takes every key it reads, with the effect of its flag
    raw = tmp_path / "raw.json"
    raw.write_text(json.dumps(RAW_TABLE))
    for n, (command, keys, extra) in enumerate(CONFIG_READS):
        keys = {name: str(raw) if value == "RAW" else value for name, value in keys.items()}
        via_config, via_flags = tmp_path / f"config{n}.out", tmp_path / f"flags{n}.out"
        cfg.write_text("".join(f"{name} = {value}\n" for name, value in keys.items())
                       + f"out = {via_config}\n")
        flags = [f"--{name}={value}" for name, value in keys.items()]
        code, out, err = run_cli(command, "--config", str(cfg), *extra)
        assert code in (0, 1) and out == err == "", command
        assert run_cli(command, *flags, "--out", str(via_flags), *extra) == (code, "", "")
        assert via_config.read_text() == via_flags.read_text() != ""


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


@pytest.mark.parametrize(
    "command, line",
    [
        ("derive", "seed = 3"),
        ("derive", "samples = 5"),
        ("check", "samples = 0"),
        ("check", "seed = 3"),
        ("classify", "raw = x.json"),
        ("classify", "samples = 5"),
        ("verify", "family = G1"),
        ("verify", "alpha = 1"),
        ("verify", "raw = x.json"),
        ("verify", "mode = approx"),
        ("verify", "tol = 1e-1"),
        ("scan", "raw = x.json"),
        ("scan", "seed = 3"),
    ],
)
def test_config_key_the_command_does_not_read_exit_2(command, line, tmp_path):
    cfg = tmp_path / "point.cfg"
    cfg.write_text(f"convention = delta\n{line}\n")
    code, out, err = run_cli(command, "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert f":2: unknown key {line.split()[0]!r}" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--mode", "approx"),
        ("verify", "--tol", "1e-1"),
        ("verify", "--format", "csv"),
        ("check", "--family", "G1", "--alpha", "1", "--beta", "0", "--format", "csv"),
        ("classify", "--family", "G1", "--alpha", "1", "--beta", "0", "--format", "csv"),
        ("derive", "--family", "G1", "--alpha", "1", "--beta", "0", "--format", "csv"),
        ("scan", "--family", "G1", "--alpha", "1", "--grid", "beta=0:1:1", "--format", "text"),
        ("scan", "--family", "G1", "--alpha", "1", "--grid", "beta=0:1:1", "--format", "json"),
    ],
    ids=" ".join,
)
def test_option_the_command_does_not_take_is_a_usage_error(argv):
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv)
    assert exc.value.code == 2


_G1_CHECK = ("check", "--family", "G1", "--alpha", "1", "--beta", "0")


def test_the_default_parser_is_built_once_per_process(monkeypatch):
    cli._parser.cache_clear()
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda config=None: built.append(config) or build(config))
    assert run_cli(*_G1_CHECK) == run_cli(*_G1_CHECK)
    assert built == [None]


def test_a_config_file_leaves_later_flag_only_runs_as_they_were(tmp_path):
    cfg = tmp_path / "format.cfg"
    cfg.write_text("format = json\n")
    text = run_cli(*_G1_CHECK)
    code, out, err = run_cli(*_G1_CHECK, "--config", str(cfg))
    assert (code, err) == (0, "")
    assert json.loads(out)["ein2"] is True
    assert run_cli(*_G1_CHECK) == text
    assert text[1].startswith("input: G1 alpha=1 beta=0\n")


def test_usage_errors_on_the_cached_parser_each_exit_2():
    run_cli(*_G1_CHECK)
    for argv in (("check", "--no-such-flag"), ("verify", "--mode", "approx")):
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv)
        assert exc.value.code == 2


@pytest.mark.parametrize(
    "command, fmt",
    [("derive", "csv"), ("check", "csv"), ("classify", "csv"), ("verify", "csv"), ("scan", "json")],
)
def test_config_format_outside_the_command_choices_exit_2(command, fmt, tmp_path):
    cfg = tmp_path / "point.cfg"
    cfg.write_text(f"format = {fmt}\n")
    code, out, err = run_cli(command, "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert f"unknown format {fmt!r}" in err


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


def test_scan_free_line_prints_lambda2_zero():
    """The JSON of this line holds lambda2 = 0.0; its scan row prints 0."""
    argv = ("--family", "G3", "--beta", "1", "--gamma", "0", "--mode", "approx")
    _, doc, _ = run_json("classify", *argv, "--alpha", "1")
    assert doc["solution"]["lambda1"] is None and str(doc["solution"]["lambda2"]) == "0.0"
    code, out, _ = run_cli("scan", *argv, "--grid", "alpha=1")
    assert code == 0
    [row] = csv.DictReader(io.StringIO(out))
    assert (row["kind"], row["lambda1"], row["lambda2"]) == ("line", "free", "0")


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


@pytest.mark.parametrize("mode", ["exact", "approx"])
@pytest.mark.parametrize("grid, value", [("eta=3/2,-1", "3/2"), ("eta=1/2", "1/2")])
def test_scan_non_integer_eta_exit_2(grid, value, mode):
    code, out, err = run_cli(
        "scan", "--family", "G4", "--alpha", "1", "--beta", "1", "--grid", grid, "--mode", mode
    )
    assert (code, out, err) == (2, "", f"error: grid eta: expected an integer, got {value}\n")


@pytest.mark.parametrize(
    "argv, field",
    [
        (("check", "--family", "G1", "--alpha", "1e400", "--beta", "1"), "alpha"),
        (("scan", "--family", "G1", "--alpha", "1", "--grid", "beta=0,1e400"), "grid beta"),
        (("scan", "--family", "G1", "--alpha", "1", "--grid", "beta=0:1e400:1e399"), "grid beta"),
    ],
)
def test_approx_value_too_large_for_a_float_exit_2(argv, field):
    code, out, err = run_cli(*argv, "--mode", "approx")
    assert (code, out) == (2, "")
    assert err.startswith(f"error: field {field}: ") and err.count("\n") == 1, err


def test_scan_without_grid_exit_2():
    code, _, err = run_cli("scan", "--family", "G1")
    assert code == 2
    assert "grid" in err


def test_scan_bad_step_exit_2():
    code, _, err = run_cli("scan", "--family", "G1", "--grid", "alpha=0:1:0")
    assert code == 2
    assert "step" in err


def test_scan_rejects_a_parameter_on_two_grid_axes():
    code, out, err = run_cli(
        "scan", "--family", "G1", "--alpha", "1", "--grid", "beta=-1:1:1", "--grid", "beta=0,1"
    )
    assert (code, out, err) == (2, "", "error: grid axis 'beta' given twice\n")


# Input checks: exit 2 with one stderr line and no output.  "{tmp}" is the
# test's directory, which holds a raw file of invalid JSON and a config file
# with an empty value; missing.json and missing.cfg do not exist.
_NO_FILE = "[Errno 2] No such file or directory"
_INVALID_INPUTS = [
    (("check", "--family", "G1", "--alpha", "abc"), "field alpha: not a rational literal: 'abc'"),
    (("check", "--family", "G9"), "unknown family 'G9'; expected one of G1, G2, G3, G4, G5, G6, G7"),
    (("check", "--family", "G1", "--raw", "{tmp}/invalid.json"), "give either --family or --raw, not both"),
    (("check", "--raw", "{tmp}/missing.json"),
     f"cannot read raw input {{tmp}}/missing.json: {_NO_FILE}: '{{tmp}}/missing.json'"),
    (("check", "--raw", "{tmp}/invalid.json"), "{tmp}/invalid.json: line 2: invalid JSON (Expecting ',' delimiter)"),
    (("check", "--config", "{tmp}/empty.cfg"), "{tmp}/empty.cfg:2: empty value for 'alpha'"),
    (("check", "--config", "{tmp}/missing.cfg"),
     f"cannot read config file {{tmp}}/missing.cfg: {_NO_FILE}: '{{tmp}}/missing.cfg'"),
    (("verify", "--seed", "x"), "field seed: expected an integer, got 'x'"),
    (("scan", "--grid", "alpha=0:1:1"), "scan needs --family"),
    (("scan", "--family", "G1", "--grid", "alpha"),
     "grid axis 'alpha': expected name=start:stop:step or name=v1,v2,..."),
    (("scan", "--family", "G1", "--grid", "zeta=1,2"), "grid axis 'zeta=1,2': unknown parameter 'zeta'"),
    (("scan", "--family", "G1", "--grid", "alpha=1:2"), "grid axis 'alpha=1:2': ranges take start:stop:step"),
    (("scan", "--family", "G1", "--grid", "alpha=,"), "grid axis 'alpha=,': no values"),
]


@pytest.mark.parametrize("argv, message", _INVALID_INPUTS, ids=[" ".join(argv) for argv, _ in _INVALID_INPUTS])
def test_invalid_input_exit_2_with_its_message(argv, message, tmp_path):
    (tmp_path / "invalid.json").write_text('{"c": [1, 2\n')
    (tmp_path / "empty.cfg").write_text("family = G1\nalpha =\n")
    code, out, err = run_cli(*(arg.format(tmp=tmp_path) for arg in argv))
    assert (code, out, err) == (2, "", f"error: {message.format(tmp=tmp_path)}\n")


def test_scan_rows_in_grid_lexicographic_order():
    code, out, _ = run_cli(
        "scan", "--family", "G3", "--grid", "alpha=0:1:1", "--grid", "beta=0:1:1"
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [(r["alpha"], r["beta"]) for r in rows] == [("0", "0"), ("0", "1"), ("1", "0"), ("1", "1")]


def test_exact_scan_converts_each_row_to_int_pairs_at_most_once(monkeypatch):
    """An exact G3 scan row converts its point to int pairs once for every membership
    plan of its family (8 for G3) and not to validate it, as G3 has no family
    constraint, counted by wrapping `liealg._pairs` in every module of the package
    that binds it: at most 1 conversion per row, not 1 per branch."""
    from ein2lie import liealg

    calls, pairs = [], liealg._pairs
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "ein2lie" and getattr(module, "_pairs", None) is pairs:
            monkeypatch.setattr(module, "_pairs", lambda values: calls.append(values) or pairs(values))
    code, out, _ = run_cli(
        "scan", "--family", "G3", "--gamma", "1", "--grid", "alpha=-2:2:1/2", "--grid", "beta=-2:2:1/2"
    )
    rows = list(csv.DictReader(io.StringIO(out)))
    assert (code, len(rows)) == (0, 81)
    assert 0 < len(calls) <= len(rows), len(calls)


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


def test_verify_fails_on_an_inconclusive_branch(monkeypatch):
    """With 1 added to branch 2.5's stated lambda1 every sample fails and no case
    identity recomputes it: the branch is inconclusive and verify exits 1."""
    stated = BRANCHES_BY_LABEL["2.5"]
    wrong = BranchSpec(stated.label, stated.constraints, stated.free,
                       "lambda1 = alpha^2/2 + 2*gamma^2 + 1, lambda2 = 0")
    monkeypatch.setattr(verify, "BRANCHES", tuple(wrong if s is stated else s for s in BRANCHES))
    code, out, err = run_cli("verify", "--theorem", "2.5")
    assert (code, err) == (1, "")
    assert "  2.5         G2  inconclusive           0/50 samples\n" in out
    assert out.endswith("result: FAILED\n")
    code, doc, _ = run_json("verify", "--theorem", "2.5")
    assert code == 1 and doc["ok"] is False
    assert [(b["verdict"], b["passed"]) for b in doc["branches"]] == [("inconclusive", 0)]


@pytest.mark.parametrize("workload", ["verify", "scan_exact", "scan_approx"])
def test_benchmark_workloads_match_their_references(workload, monkeypatch):
    """perfbench's own invocations and checks, run in process at seed 7: every report
    item and scan row matches the stored reference, so an output change the benchmark
    refuses fails here first.  The workloads module is loaded by path and registered
    in sys.modules, which its dataclass needs."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", Path(__file__).parent.parent / "perfbench" / "workloads.py"
    )
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    outputs = workloads.run_once(cli, workloads.invocations(workload, 7))
    check = workloads.check_outputs(workload, outputs, workloads.load_references(workload, 7))
    assert check.attempted > 0 and check.failed == 0, check


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


@pytest.mark.parametrize("flag", ["--samples", "--fidelity-samples", "--neg-samples"])
def test_verify_negative_sample_counts_exit_2(flag):
    code, out, err = run_cli("verify", "--theorem", "2.5", flag, "-3")
    assert code == 2
    assert out == ""
    assert flag.lstrip("-") in err


def test_verify_zero_sample_counts_leave_their_sections_out():
    code, doc, _ = run_json(
        "verify", "--theorem", "2.5", "--samples", "5", "--fidelity-samples", "0"
    )
    assert code == 0
    assert doc["fidelity"] == []
    assert [n["samples"] for n in doc["negative_sampling"]] == [100]
    code, doc, _ = run_json(
        "verify", "--theorem", "2.5", "--samples", "5", "--neg-samples", "0"
    )
    assert code == 0
    assert [f["samples"] for f in doc["fidelity"]] == [100]
    assert doc["negative_sampling"] == []
    code, out, _ = run_cli(
        "verify", "--theorem", "2.5", "--samples", "5",
        "--fidelity-samples", "0", "--neg-samples", "0",
    )
    assert code == 0
    assert "fidelity" not in out and "negative sampling" not in out
