"""Report documents: JSON builders, text rendering, CSV rows.

Exact rationals serialize as "p" or "p/q" strings so structured output
round-trips without float artifacts; floats serialize as JSON numbers
(shortest round-trip form) and render with 17 significant digits in
text.  No document carries timestamps: identical inputs must produce
byte-identical reports.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Sequence

from .branches import (
    AnchorResult,
    BranchReport,
    ClassificationResult,
    ExpectedLambdas,
    LAMBDA1_FREE,
)
from .ein2 import LINE, PAIRS, PLANE, POINT, Ein2Solution
from .geometry import RicciData, Tensor3
from .liealg import PARAMS_USED, FamilyParams, StructureConstants
from .scalars import Scalar, format_scalar, is_exact

SCHEMA_DERIVE = "ein2lie/derive/v1"
SCHEMA_VERDICT = "ein2lie/verdict/v1"
SCHEMA_VERIFY = "ein2lie/verify/v1"

BASIS = ("e1", "e2", "e3")


def scalar_json(value: Optional[Scalar]):
    """Exact values as "p/q" strings; floats as JSON numbers; None as null."""
    if value is None:
        return None
    if is_exact(value):
        return format_scalar(value)
    return float(value)


def matrix_json(matrix) -> List[List]:
    return [[scalar_json(x) for x in row] for row in matrix]


def tensor3_json(tensor) -> List[List[List]]:
    return [[[scalar_json(x) for x in row] for row in plane] for plane in tensor]


def params_json(params: FamilyParams) -> Dict:
    doc: Dict = {"family": params.family}
    for name in PARAMS_USED[params.family]:
        if name == "eta":
            doc["eta"] = params.eta
        else:
            doc[name] = scalar_json(getattr(params, name))
    return doc


def solution_json(solution: Ein2Solution) -> Dict:
    doc: Dict = {"kind": solution.kind, "residual": scalar_json(solution.residual)}
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


def system_json(solution: Ein2Solution, convention: str) -> Dict:
    return {
        "convention": convention,
        "rows": [
            {"i": i + 1, "j": j + 1, "a": scalar_json(a), "b": scalar_json(b), "c": scalar_json(c)}
            for (i, j), (a, b, c) in zip(PAIRS, solution.rows)
        ],
    }


def expected_json(expected: Optional[ExpectedLambdas]) -> Optional[Dict]:
    if expected is None:
        return None
    if expected.kind == LAMBDA1_FREE:
        return {"kind": "lambda1_free", "lambda2": scalar_json(expected.lambda2)}
    return {
        "kind": "point",
        "lambda1": scalar_json(expected.lambda1),
        "lambda2": scalar_json(expected.lambda2),
    }


def branch_report_json(report: BranchReport) -> Dict:
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


def anchor_result_json(result: AnchorResult) -> Dict:
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


def classification_json(result: ClassificationResult) -> Dict:
    return {
        "branches": list(result.branches),
        "status": result.status,
        "solution": solution_json(result.solution),
    }


def dumps(doc: Dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


# ---------------------------------------------------------------------------
# Text rendering
# ---------------------------------------------------------------------------

def format_vector(coeffs: Sequence[Scalar]) -> str:
    """Render a coefficient triple as a frame combination like "2 e1 - e3"."""
    parts: List[str] = []
    for coeff, name in zip(coeffs, BASIS):
        if coeff == 0:
            continue
        rendered = format_scalar(coeff)
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
    cells = [[format_scalar(x) for x in row] for row in matrix]
    width = max(len(c) for row in cells for c in row)
    return "\n".join(indent + "[ " + "  ".join(c.rjust(width) for c in row) + " ]" for row in cells)


def render_params(params: FamilyParams) -> str:
    pieces = [params.family]
    for name in PARAMS_USED[params.family]:
        value = getattr(params, name)
        pieces.append(f"{name}={value if name == 'eta' else format_scalar(value)}")
    return " ".join(pieces)


def render_solution(solution: Ein2Solution) -> str:
    if solution.kind == POINT:
        lam1, lam2 = solution.point
        return (
            f"point: lambda1 = {format_scalar(lam1)}, lambda2 = {format_scalar(lam2)}"
            f" (residual {format_scalar(solution.residual)})"
        )
    if solution.kind == LINE:
        if solution.lambda2_zero_line():
            return "line: lambda2 = 0, lambda1 free"
        base = ", ".join(format_scalar(x) for x in solution.line_base)
        direction = ", ".join(format_scalar(x) for x in solution.line_direction)
        return f"line: base ({base}) + t * ({direction})"
    if solution.kind == PLANE:
        return "plane: every (lambda1, lambda2)"
    return f"none (minimal residual {format_scalar(solution.residual)})"


def render_derive_text(doc_input: str, sc: StructureConstants, gamma: Tensor3,
                       rd: RicciData, convention: str, solution: Ein2Solution,
                       unimodular_flag: bool) -> str:
    lines = [f"input: {doc_input}", ""]
    lines.append("brackets:")
    for i in range(3):
        for j in range(i + 1, 3):
            lines.append(f"  [{BASIS[i]},{BASIS[j]}] = {format_vector(sc.bracket(i, j))}")
    lines.append(f"  unimodular: {'yes' if unimodular_flag else 'no'}")
    lines.append("")
    lines.append("connection (nabla_{e_i} e_j):")
    for i in range(3):
        row = []
        for j in range(3):
            row.append(f"nabla_{BASIS[i]} {BASIS[j]} = {format_vector(gamma[i][j])}")
        lines.append("  " + " | ".join(row))
    lines.append("")
    lines.append("ricci operator (row convention):")
    lines.append(format_matrix(rd.rho_op))
    lines.append("ricci tensor:")
    lines.append(format_matrix(rd.rho))
    lines.append("rho^2 tensor:")
    lines.append(format_matrix(rd.rho_sq))
    lines.append("")
    lines.append(f"component system ({convention} convention), A + lambda1*B + lambda2*C = 0:")
    for (i, j), (a, b, c) in zip(PAIRS, solution.rows):
        lines.append(
            f"  ({i + 1},{j + 1}):"
            f" A = {format_scalar(a)}, B = {format_scalar(b)}, C = {format_scalar(c)}"
        )
    lines.append("")
    lines.append(f"solution: {render_solution(solution)}")
    return "\n".join(lines) + "\n"


def render_verdict_text(described_input: str, solution: Ein2Solution,
                        branches: Optional[Sequence[str]] = None,
                        status: Optional[str] = None) -> str:
    lines = [f"input: {described_input}"]
    if branches is not None:
        rendered = ", ".join(branches) if branches else "(no branch)"
        lines.append(f"branches: {rendered}")
    if status is not None:
        lines.append(f"status: {status}")
    lines.append(f"ein2: {'yes' if solution.is_ein2() else 'no'}")
    lines.append(f"solution: {render_solution(solution)}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Suite report
# ---------------------------------------------------------------------------

def _erratum_json(branch: Dict) -> Dict:
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


def suite_json(report) -> Dict:
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


def render_suite_text(report) -> str:
    lines = [
        "verification suite"
        f" (seed {report.seed}, samples {report.samples}, convention {report.convention})"
    ]
    if report.theorems:
        lines.append(f"restricted to: {', '.join(report.theorems)}")
    lines.append("")

    if report.fidelity:
        lines.append("tabulated-system fidelity (delta convention):")
        for f in report.fidelity:
            status = "ok" if f.ok else f"{f.failures} mismatches"
            lines.append(f"  {f.family}: {f.samples} points, {status}")
        lines.append("")

    lines.append("branches:")
    for b in report.branches:
        lines.append(
            f"  {b.label:<11s} {b.family}  {b.verdict:<22s} {b.passed}/{b.attempted} samples"
        )
    lines.append("")

    if report.anchors:
        tolerances = ", ".join(sorted({f"{a.anchor.tolerance:g}" for a in report.anchors}))
        lines.append(f"irrational anchors (tolerance {tolerances}):")
        for a in report.anchors:
            status = "ok" if a.ok else "FAIL"
            lines.append(
                f"  {a.anchor.label}: {status}"
                f" (lambda1 err {a.lambda1_error:.3e}, lambda2 err {a.lambda2_error:.3e})"
            )
        lines.append("")

    if report.negative:
        lines.append("negative sampling (off-branch points must not be Ein(2)):")
        for n in report.negative:
            status = "ok" if n.ok else f"{n.failures} violations"
            lines.append(f"  {n.family}: {n.samples} points, {status}")
        lines.append("")

    if report.errata:
        lines.append("errata:")
        for b in report.errata:
            lines.append(f"  {b.label} ({b.family}; {b.constraints}):")
            if b.failures:
                first = b.failures[0]
                lines.append(f"    counterexample: {render_params(first.params)}")
                if first.expected.kind == "point":
                    lines.append(
                        "    stated: lambda1 = "
                        f"{format_scalar(first.expected.lambda1)}, lambda2 = "
                        f"{format_scalar(first.expected.lambda2)}"
                        f" (system residual {format_scalar(first.residual_at_expected)})"
                    )
                if first.recomputed is not None and first.recomputed.kind == "point":
                    lines.append(
                        "    recomputed: lambda1 = "
                        f"{format_scalar(first.recomputed.lambda1)}, lambda2 = "
                        f"{format_scalar(first.recomputed.lambda2)} (in the solution set)"
                    )
            lines.append(f"    correction: {b.correction}")
        lines.append("")

    lines.append(f"result: {'OK' if report.ok else 'FAILED'}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Scan rows
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


def scan_row(params: FamilyParams, result: Optional[ClassificationResult],
             error: str = "") -> Dict[str, str]:
    row = {
        "family": params.family,
        "alpha": format_scalar(params.alpha),
        "beta": format_scalar(params.beta),
        "gamma": format_scalar(params.gamma),
        "delta": format_scalar(params.delta),
        "eta": "" if params.eta is None else str(params.eta),
        "kind": "invalid",
        "lambda1": "",
        "lambda2": "",
        "residual": "",
        "branches": "",
    }
    if result is None:
        row["branches"] = error
        return row
    solution = result.solution
    row["kind"] = solution.kind
    row["residual"] = format_scalar(solution.residual)
    row["branches"] = ";".join(result.branches)
    if solution.kind == POINT:
        row["lambda1"] = format_scalar(solution.point[0])
        row["lambda2"] = format_scalar(solution.point[1])
    elif solution.kind == LINE and solution.lambda2_zero_line():
        row["lambda1"] = "free"
        row["lambda2"] = "0"
    return row
