"""Report documents, and their text and CSV layouts.

Each report is built once, as its JSON document: the document is the
report.  Text and CSV are layouts of it; each `render_*` reads only the
document, so the text of the parsed JSON bytes is the text report.

Exact rationals serialize as "p" or "p/q" strings so structured output
round-trips without float artifacts; floats serialize as JSON numbers
(shortest round-trip form).  A layout prints a string as it is and a
float with 17 significant digits, the bytes of `format_scalar`.  No
document carries timestamps: identical inputs give identical reports.
"""

from __future__ import annotations

import csv
import io
import json
from collections.abc import Sequence

from .branches import (
    AnchorResult,
    BranchReport,
    ClassificationResult,
    ExpectedLambdas,
    LAMBDA1_FREE,
)
from .ein2 import LINE, PAIRS, PLANE, POINT, Ein2Solution
from .liealg import PARAMS_USED, FamilyParams
from .scalars import Scalar, format_scalar, is_exact

SCHEMA_DERIVE = "ein2lie/derive/v1"
SCHEMA_VERDICT = "ein2lie/verdict/v1"
SCHEMA_VERIFY = "ein2lie/verify/v1"

BASIS = ("e1", "e2", "e3")


def scalar_json(value: Scalar | None):
    """Exact values as "p/q" strings; floats as JSON numbers; None as null."""
    if value is None:
        return None
    if is_exact(value):
        return format_scalar(value)
    return float(value)


def matrix_json(matrix) -> list[list]:
    return [[scalar_json(x) for x in row] for row in matrix]


def tensor3_json(tensor) -> list[list[list]]:
    return [[[scalar_json(x) for x in row] for row in plane] for plane in tensor]


def params_json(params: FamilyParams) -> dict:
    doc: dict = {"family": params.family}
    for name in PARAMS_USED[params.family]:
        if name == "eta":
            doc["eta"] = params.eta
        else:
            doc[name] = scalar_json(getattr(params, name))
    return doc


def solution_json(solution: Ein2Solution) -> dict:
    doc: dict = {"kind": solution.kind, "residual": scalar_json(solution.residual)}
    if solution.kind == POINT:
        doc["lambda1"] = scalar_json(solution.point[0])
        doc["lambda2"] = scalar_json(solution.point[1])
    elif solution.kind == LINE:
        doc["line"] = {
            "base": [scalar_json(x) for x in solution.line_base],
            "direction": [scalar_json(x) for x in solution.line_direction],
        }
        if solution.lambda2_zero_line():
            doc["lambda1"] = None  # free along the line
            doc["lambda2"] = scalar_json(solution.line_base[1])
    return doc


def system_json(solution: Ein2Solution, convention: str) -> dict:
    return {
        "convention": convention,
        "rows": [
            {"i": i + 1, "j": j + 1, "a": scalar_json(a), "b": scalar_json(b), "c": scalar_json(c)}
            for (i, j), (a, b, c) in zip(PAIRS, solution.rows)
        ],
    }


def expected_json(expected: ExpectedLambdas | None) -> dict | None:
    if expected is None:
        return None
    if expected.kind == LAMBDA1_FREE:
        return {"kind": "lambda1_free", "lambda2": scalar_json(expected.lambda2)}
    return {
        "kind": "point",
        "lambda1": scalar_json(expected.lambda1),
        "lambda2": scalar_json(expected.lambda2),
    }


def branch_report_json(report: BranchReport) -> dict:
    return {
        "label": report.label,
        "family": report.family,
        "constraints": report.constraints,
        "attempted": report.attempted,
        "passed": report.passed,
        "verdict": report.verdict,
        "correction": report.correction,
        "failures": [
            {
                "params": params_json(f.params),
                "expected": expected_json(f.expected),
                "solution_kind": f.solution_kind,
                "residual_at_expected": scalar_json(f.residual_at_expected),
                "recomputed": expected_json(f.recomputed),
                "recomputed_ok": f.recomputed_ok,
            }
            for f in report.failures
        ],
    }


def anchor_result_json(result: AnchorResult) -> dict:
    return {
        "label": result.anchor.label,
        "theorem": result.anchor.theorem,
        "params": params_json(result.anchor.params),
        "expected_lambda1": result.anchor.lambda1,
        "expected_lambda2": result.anchor.lambda2,
        "tolerance": result.anchor.tolerance,
        "lambda1_error": result.lambda1_error,
        "lambda2_error": result.lambda2_error,
        "solution": solution_json(result.solution),
        "ok": result.ok,
    }


def classification_json(result: ClassificationResult) -> dict:
    return {
        "branches": list(result.branches),
        "status": result.status,
        "solution": solution_json(result.solution),
    }


def _erratum_json(branch: dict) -> dict:
    """An errata entry, read off its branch entry; the first failure is the counterexample."""
    failure = branch["failures"][0] if branch["failures"] else None
    return {
        "branch": branch["label"],
        "family": branch["family"],
        "constraints": branch["constraints"],
        "counterexample": failure and {
            "params": failure["params"],
            "stated": failure["expected"],
            "residual_at_stated": failure["residual_at_expected"],
            "recomputed": failure["recomputed"],
        },
        "correction": branch["correction"],
    }


def suite_json(report) -> dict:
    branches = [branch_report_json(b) for b in report.branches]
    return {
        "schema": SCHEMA_VERIFY,
        "seed": report.seed,
        "samples": report.samples,
        "convention": report.convention,
        "theorems": list(report.theorems) if report.theorems else None,
        "fidelity": [
            {"family": f.family, "samples": f.samples, "mismatches": f.failures, "ok": f.ok}
            for f in report.fidelity
        ],
        "branches": branches,
        "anchors": [anchor_result_json(a) for a in report.anchors],
        "negative_sampling": [
            {"family": n.family, "samples": n.samples, "violations": n.failures, "ok": n.ok}
            for n in report.negative
        ],
        "errata": [_erratum_json(b) for b in branches if b["verdict"] == "errata"],
        "ok": report.ok,
    }


def dumps(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


# ---------------------------------------------------------------------------
# Text layouts: each reads only its document
# ---------------------------------------------------------------------------

def _text(value) -> str:
    """A document value as text: a string as it is, a float with 17 significant digits."""
    return format(value, ".17g") if isinstance(value, float) else str(value)


def format_vector(coeffs: Sequence) -> str:
    """Render a coefficient triple as a frame combination like "2 e1 - e3"."""
    parts: list[str] = []
    for coeff, name in zip(coeffs, BASIS):
        rendered = _text(coeff)
        if rendered in ("0", "-0"):
            continue
        if rendered == "1":
            term = name
        elif rendered == "-1":
            term = f"-{name}"
        else:
            term = f"{rendered} {name}"
        if parts and not term.startswith("-"):
            parts.append(f"+ {term}")
        elif parts:
            parts.append(f"- {term[1:]}")
        else:
            parts.append(term)
    return " ".join(parts) if parts else "0"


def format_matrix(matrix, indent: str = "  ") -> str:
    cells = [[_text(x) for x in row] for row in matrix]
    width = max(len(c) for row in cells for c in row)
    return "\n".join(indent + "[ " + "  ".join(c.rjust(width) for c in row) + " ]" for row in cells)


def render_params(params: dict) -> str:
    """A parameter document (`params_json`, or a family input) as "G1 alpha=1 beta=0"."""
    values = (f"{name}={_text(value)}" for name, value in params.items()
              if name not in ("kind", "family"))
    return " ".join([params["family"], *values])


def _render_input(doc: dict) -> str:
    return f"raw {doc['path']}" if doc["kind"] == "raw" else render_params(doc)


def _lambdas(doc: dict) -> str:
    return f"lambda1 = {_text(doc['lambda1'])}, lambda2 = {_text(doc['lambda2'])}"


def render_solution(solution: dict) -> str:
    kind = solution["kind"]
    if kind == POINT:
        return f"point: {_lambdas(solution)} (residual {_text(solution['residual'])})"
    if kind == LINE:
        if "lambda1" in solution:  # the line lambda2 = 0, lambda1 free
            return "line: lambda2 = 0, lambda1 free"
        base, direction = (", ".join(_text(x) for x in solution["line"][key])
                           for key in ("base", "direction"))
        return f"line: base ({base}) + t * ({direction})"
    if kind == PLANE:
        return "plane: every (lambda1, lambda2)"
    return f"none (minimal residual {_text(solution['residual'])})"


def render_derive_text(doc: dict) -> str:
    c, gamma, ricci = doc["structure_constants"]["c"], doc["connection"], doc["ricci"]
    lines = [f"input: {_render_input(doc['input'])}", "", "brackets:"]
    for i, j in ((0, 1), (0, 2), (1, 2)):
        lines.append(f"  [{BASIS[i]},{BASIS[j]}] = {format_vector(c[i][j])}")
    lines += [f"  unimodular: {'yes' if doc['unimodular'] else 'no'}", ""]
    lines.append("connection (nabla_{e_i} e_j):")
    for i in range(3):
        lines.append("  " + " | ".join(
            f"nabla_{BASIS[i]} {BASIS[j]} = {format_vector(gamma[i][j])}" for j in range(3)
        ))
    lines.append("")
    for title, key in (("ricci operator (row convention)", "rho_op"), ("ricci tensor", "rho"),
                       ("rho^2 tensor", "rho_sq")):
        lines += [f"{title}:", format_matrix(ricci[key])]
    lines.append("")
    lines.append(f"component system ({doc['convention']} convention), A + lambda1*B + lambda2*C = 0:")
    for row in doc["system"]["rows"]:
        lines.append(
            f"  ({row['i']},{row['j']}):"
            f" A = {_text(row['a'])}, B = {_text(row['b'])}, C = {_text(row['c'])}"
        )
    lines += ["", f"solution: {render_solution(doc['solution'])}"]
    return "\n".join(lines) + "\n"


def render_verdict_text(doc: dict) -> str:
    lines = [f"input: {_render_input(doc['input'])}"]
    if "branches" in doc:  # classify
        lines.append(f"branches: {', '.join(doc['branches']) or '(no branch)'}")
        lines.append(f"status: {doc['status']}")
    lines.append(f"ein2: {'yes' if doc['ein2'] else 'no'}")
    lines.append(f"solution: {render_solution(doc['solution'])}")
    return "\n".join(lines) + "\n"


def _sampled_lines(title: str, checks: list[dict], failures: str) -> list[str]:
    """A sampled section: one "family: n points, status" line per check."""
    if not checks:
        return []
    lines = [title]
    for check in checks:
        status = "ok" if check["ok"] else f"{check[failures]} {failures}"
        lines.append(f"  {check['family']}: {check['samples']} points, {status}")
    return lines + [""]


def render_suite_text(doc: dict) -> str:
    lines = [
        "verification suite"
        f" (seed {doc['seed']}, samples {doc['samples']}, convention {doc['convention']})"
    ]
    if doc["theorems"]:
        lines.append(f"restricted to: {', '.join(doc['theorems'])}")
    lines.append("")
    lines += _sampled_lines(
        "tabulated-system fidelity (delta convention):", doc["fidelity"], "mismatches"
    )

    lines.append("branches:")
    for b in doc["branches"]:
        lines.append(
            f"  {b['label']:<11s} {b['family']}  {b['verdict']:<22s}"
            f" {b['passed']}/{b['attempted']} samples"
        )
    lines.append("")

    if doc["anchors"]:
        tolerances = ", ".join(sorted({f"{a['tolerance']:g}" for a in doc["anchors"]}))
        lines.append(f"irrational anchors (tolerance {tolerances}):")
        for a in doc["anchors"]:
            lines.append(
                f"  {a['label']}: {'ok' if a['ok'] else 'FAIL'}"
                f" (lambda1 err {a['lambda1_error']:.3e}, lambda2 err {a['lambda2_error']:.3e})"
            )
        lines.append("")

    lines += _sampled_lines(
        "negative sampling (off-branch points must not be Ein(2)):",
        doc["negative_sampling"], "violations",
    )

    if doc["errata"]:
        lines.append("errata:")
        for erratum in doc["errata"]:
            lines.append(f"  {erratum['branch']} ({erratum['family']}; {erratum['constraints']}):")
            example = erratum["counterexample"]
            if example:
                lines.append(f"    counterexample: {render_params(example['params'])}")
                if example["stated"]["kind"] == "point":
                    lines.append(
                        f"    stated: {_lambdas(example['stated'])}"
                        f" (system residual {_text(example['residual_at_stated'])})"
                    )
                recomputed = example["recomputed"]
                if recomputed is not None and recomputed["kind"] == "point":
                    lines.append(f"    recomputed: {_lambdas(recomputed)} (in the solution set)")
            lines.append(f"    correction: {erratum['correction']}")
        lines.append("")

    lines.append(f"result: {'OK' if doc['ok'] else 'FAILED'}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Scan rows and their CSV layout
# ---------------------------------------------------------------------------

SCAN_COLUMNS = (
    "family",
    "alpha",
    "beta",
    "gamma",
    "delta",
    "eta",
    "kind",
    "lambda1",
    "lambda2",
    "residual",
    "branches",
)


def scan_row(params: FamilyParams, result: ClassificationResult | None,
             error: str = "") -> dict[str, str]:
    """One CSV row; its solution columns are read off `solution_json`."""
    row = dict.fromkeys(SCAN_COLUMNS, "")
    row.update(family=params.family, kind="invalid", branches=error)
    for name in ("alpha", "beta", "gamma", "delta"):
        row[name] = format_scalar(getattr(params, name))
    if params.eta is not None:
        row["eta"] = str(params.eta)
    if result is None:
        return row
    solution = solution_json(result.solution)
    row["kind"] = solution["kind"]
    row["residual"] = _text(solution["residual"])
    row["branches"] = ";".join(result.branches)
    if "lambda1" in solution:
        row["lambda1"] = "free" if solution["lambda1"] is None else _text(solution["lambda1"])
        row["lambda2"] = _text(solution["lambda2"])
    return row


def render_scan_csv(rows: list[dict[str, str]]) -> str:
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=SCAN_COLUMNS, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buffer.getvalue()
