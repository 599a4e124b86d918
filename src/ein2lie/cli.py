"""Command-line front end.

Subcommands:

  derive    full derivation report (brackets, connection, Ricci data,
            component system, solution) for one algebra
  check     decide the Ein(2) condition; exit 0 iff it holds
  classify  match a parameter point against the branch catalog;
            exit 0 iff a branch matches
  verify    run the verification suite; exit 0 iff every check is
            verified or carries an errata record
  scan      sweep a parameter grid, one CSV row per grid point

Exit codes: 0 success/affirmative, 1 negative verdict or unexplained
verification failure, 2 invalid input.

Single points are described with flags (--family, --alpha, ...) or a
flat key-value config file; arbitrary algebras enter as raw structure
constants in JSON (--raw).  Derive reports embed their structure
constants in the raw schema, so a report can be re-ingested with --raw.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Dict, List, Optional, Sequence, Tuple

from . import reporting
from .branches import DEFAULT_SEED, classify
from .ein2 import CONVENTIONS, DELTA, build_system, is_ein2, solve_lambdas
from .geometry import levi_civita, ricci
from .liealg import (
    FAMILIES,
    FamilyParams,
    LieAlgebraError,
    StructureConstants,
    build_family,
    from_raw,
    unimodular,
)
from .scalars import APPROX, DEFAULT_TOLERANCE, EXACT, Mode, Scalar, parse_scalar
from .verify import run_suite

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INVALID = 2


class InputError(Exception):
    """Invalid command-line, config-file or raw input (exit code 2)."""


@dataclass
class JobConfig:
    command: str
    family: Optional[str] = None
    alpha: Optional[Scalar] = None
    beta: Optional[Scalar] = None
    gamma: Optional[Scalar] = None
    delta: Optional[Scalar] = None
    eta: Optional[int] = None
    raw: Optional[str] = None
    convention: str = DELTA
    mode: str = EXACT
    tol: float = DEFAULT_TOLERANCE
    seed: int = DEFAULT_SEED
    samples: int = 50
    fidelity_samples: int = 100
    neg_samples: int = 100
    theorem: Optional[List[str]] = None
    grid: Optional[List[str]] = None
    out: Optional[str] = None
    format: Optional[str] = None


_PARAM_KEYS = ("alpha", "beta", "gamma", "delta")
_CONFIG_KEYS = {
    "family", "alpha", "beta", "gamma", "delta", "eta", "raw",
    "convention", "mode", "tol", "seed", "samples", "out", "format",
}


def _read_config_file(path: str) -> Dict[str, str]:
    values: Dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for lineno, raw_line in enumerate(handle, start=1):
                line = raw_line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise InputError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
                key, _, value = line.partition("=")
                key = key.strip().lower()
                value = value.strip()
                if key not in _CONFIG_KEYS:
                    raise InputError(f"{path}:{lineno}: unknown key {key!r}")
                if not value:
                    raise InputError(f"{path}:{lineno}: empty value for {key!r}")
                values[key] = value
    except OSError as exc:
        raise InputError(f"cannot read config file {path}: {exc}") from exc
    return values


def _parse_cli_scalar(text: str, field_name: str, mode: str) -> Scalar:
    try:
        value = parse_scalar(text)
    except ValueError as exc:
        raise InputError(f"field {field_name}: {exc}") from exc
    if mode == APPROX:
        return float(value)
    return value


def _build_job(args: argparse.Namespace) -> JobConfig:
    merged: Dict[str, str] = {}
    if getattr(args, "config", None):
        merged.update(_read_config_file(args.config))

    def pick(name, default=None):
        flag = getattr(args, name, None)
        if flag is not None:
            return flag
        if name in merged:
            return merged[name]
        return default

    mode = str(pick("mode", EXACT)).lower()
    if mode not in (EXACT, APPROX):
        raise InputError(f"unknown mode {mode!r}; expected exact or approx")
    convention = str(pick("convention", DELTA)).lower()
    if convention not in CONVENTIONS:
        raise InputError(f"unknown convention {convention!r}; expected delta or metric")

    job = JobConfig(command=args.command, mode=mode, convention=convention)
    job.raw = pick("raw")
    family = pick("family")
    if family is not None:
        family = str(family).upper()
        if family not in FAMILIES:
            raise InputError(f"unknown family {family!r}; expected one of {', '.join(FAMILIES)}")
        job.family = family
    for name in _PARAM_KEYS:
        value = pick(name)
        if value is not None:
            setattr(job, name, _parse_cli_scalar(str(value), name, mode))
    eta = pick("eta")
    if eta is not None:
        try:
            job.eta = int(str(eta))
        except ValueError as exc:
            raise InputError(f"field eta: expected an integer, got {eta!r}") from exc
    try:
        job.tol = float(pick("tol", DEFAULT_TOLERANCE))
        job.seed = int(pick("seed", DEFAULT_SEED))
        job.samples = int(pick("samples", 50))
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    if job.tol <= 0:
        raise InputError("tolerance must be positive")
    if job.samples < 1:
        raise InputError("samples must be >= 1")
    for name in ("fidelity_samples", "neg_samples"):
        count = getattr(args, name, None)
        if count is not None:
            if count < 0:
                raise InputError(f"{name.replace('_', '-')} must be >= 0")
            setattr(job, name, count)
    job.theorem = getattr(args, "theorem", None)
    job.grid = getattr(args, "grid", None)
    job.out = pick("out")
    fmt = pick("format")
    job.format = str(fmt).lower() if fmt is not None else None
    return job


def _job_mode(job: JobConfig) -> Mode:
    if job.mode == APPROX:
        return Mode.approx(job.tol)
    return Mode.exact()


def _family_params(job: JobConfig, **overrides) -> FamilyParams:
    """The job's parameter point; `overrides` replace parameters the job gives."""
    if job.family is None:
        raise InputError("missing --family (or a 'family' line in the config file)")
    given = ((name, getattr(job, name)) for name in _PARAM_KEYS + ("eta",))
    kwargs = {name: value for name, value in given if value is not None}
    kwargs.update(overrides)
    try:
        return FamilyParams(job.family, **kwargs)
    except LieAlgebraError as exc:
        raise InputError(str(exc)) from exc


def _load_raw(path: str, mode: Mode) -> StructureConstants:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise InputError(f"cannot read raw input {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: line {exc.lineno}: invalid JSON ({exc.msg})") from exc
    table = doc.get("c") if isinstance(doc, dict) else None
    if table is None and isinstance(doc, dict):
        table = doc.get("structure_constants", {}).get("c")
    if table is None:
        raise InputError(f"{path}: field 'c' (or 'structure_constants.c') missing")
    try:
        entries = [[[_raw_entry(table, i, j, k, mode) for k in range(3)] for j in range(3)]
                   for i in range(3)]
    except (IndexError, TypeError) as exc:
        raise InputError(f"{path}: field 'c' must be a 3x3x3 array") from exc
    return from_raw(entries, mode)


def _raw_entry(table, i, j, k, mode: Mode):
    value = table[i][j][k]
    if isinstance(value, str):
        value = parse_scalar(value)
    if mode.kind == APPROX:
        return float(value)
    if isinstance(value, float):
        # exact mode keeps the float's exact binary value as a rational
        return Fraction(value)
    return value


def _input_algebra(job: JobConfig):
    """Resolve the input to (structure constants, params-or-None, description)."""
    mode = _job_mode(job)
    if job.raw is not None and job.family is not None:
        raise InputError("give either --family or --raw, not both")
    if job.raw is not None:
        return _load_raw(job.raw, mode), None, f"raw {job.raw}"
    params = _family_params(job)
    sc = build_family(params, mode if job.mode == APPROX else None)
    return sc, params, reporting.render_params(params)


def _input_json(job: JobConfig, params: Optional[FamilyParams]) -> Dict:
    if params is None:
        return {"kind": "raw", "path": job.raw}
    return {"kind": "family", **reporting.params_json(params)}


def _mode_json(job: JobConfig) -> Dict:
    return {"kind": job.mode, "tolerance": job.tol if job.mode == APPROX else 0.0}


def _emit(job: JobConfig, text: str) -> None:
    if job.out:
        with open(job.out, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_derive(job: JobConfig) -> int:
    sc, params, described = _input_algebra(job)
    mode = _job_mode(job) if job.mode == APPROX else None
    conn = levi_civita(sc, mode)
    rd = ricci(sc, mode)
    system = build_system(rd, job.convention)
    solution = solve_lambdas(system, mode)
    fmt = job.format or "text"
    if fmt == "json":
        doc = {
            "schema": reporting.SCHEMA_DERIVE,
            "input": _input_json(job, params),
            "mode": _mode_json(job),
            "convention": job.convention,
            "structure_constants": {"c": reporting.tensor3_json(sc.c)},
            "unimodular": unimodular(sc),
            "connection": reporting.tensor3_json(conn.gamma),
            "ricci": {
                "rho": reporting.matrix_json(rd.rho),
                "rho_op": reporting.matrix_json(rd.rho_op),
                "rho_sq": reporting.matrix_json(rd.rho_sq),
            },
            "system": reporting.system_json(system),
            "solution": reporting.solution_json(solution),
        }
        _emit(job, reporting.dumps(doc))
    elif fmt == "text":
        _emit(
            job,
            reporting.render_derive_text(
                described, sc, conn, rd, system, solution, unimodular(sc)
            ),
        )
    else:
        raise InputError(f"derive supports text or json output, not {fmt!r}")
    return EXIT_OK


def cmd_check(job: JobConfig) -> int:
    sc, params, described = _input_algebra(job)
    mode = _job_mode(job) if job.mode == APPROX else None
    solution = is_ein2(sc, job.convention, mode)
    fmt = job.format or "text"
    if fmt == "json":
        doc = {
            "schema": reporting.SCHEMA_VERDICT,
            "command": "check",
            "input": _input_json(job, params),
            "convention": job.convention,
            "mode": _mode_json(job),
            "ein2": solution.is_ein2(),
            "solution": reporting.solution_json(solution),
        }
        _emit(job, reporting.dumps(doc))
    else:
        _emit(job, reporting.render_verdict_text(described, solution))
    return EXIT_OK if solution.is_ein2() else EXIT_NEGATIVE


def cmd_classify(job: JobConfig) -> int:
    if job.raw is not None:
        raise InputError("classify needs family parameters; raw tables have no branch catalog")
    params = _family_params(job)
    mode = _job_mode(job) if job.mode == APPROX else None
    result = classify(params, job.convention, mode)
    fmt = job.format or "text"
    if fmt == "json":
        doc = {
            "schema": reporting.SCHEMA_VERDICT,
            "command": "classify",
            "input": _input_json(job, params),
            "convention": job.convention,
            "mode": _mode_json(job),
            "ein2": result.solution.is_ein2(),
            **reporting.classification_json(result),
        }
        _emit(job, reporting.dumps(doc))
    else:
        _emit(
            job,
            reporting.render_verdict_text(
                reporting.render_params(params),
                result.solution,
                branches=result.branches,
                status=result.status,
            ),
        )
    return EXIT_OK if result.branches else EXIT_NEGATIVE


def cmd_verify(job: JobConfig) -> int:
    report = run_suite(
        samples=job.samples,
        seed=job.seed,
        convention=job.convention,
        fidelity_samples=job.fidelity_samples,
        negative_samples=job.neg_samples,
        theorems=job.theorem,
    )
    fmt = job.format or "text"
    if fmt == "json":
        _emit(job, reporting.dumps(reporting.suite_json(report)))
    elif fmt == "text":
        _emit(job, reporting.render_suite_text(report))
    else:
        raise InputError(f"verify supports text or json output, not {fmt!r}")
    return EXIT_OK if report.ok else EXIT_NEGATIVE


def _parse_grid(specs: Optional[Sequence[str]], mode: str) -> List[Tuple[str, List[Scalar]]]:
    if not specs:
        raise InputError("scan needs at least one --grid axis (name=start:stop:step or name=v1,v2,...)")
    axes: List[Tuple[str, List[Scalar]]] = []
    for spec in specs:
        if "=" not in spec:
            raise InputError(f"grid axis {spec!r}: expected name=start:stop:step or name=v1,v2,...")
        name, _, rhs = spec.partition("=")
        name = name.strip().lower()
        if name not in _PARAM_KEYS + ("eta",):
            raise InputError(f"grid axis {spec!r}: unknown parameter {name!r}")
        rhs = rhs.strip()
        values: List[Scalar] = []
        if ":" in rhs:
            pieces = rhs.split(":")
            if len(pieces) != 3:
                raise InputError(f"grid axis {spec!r}: ranges take start:stop:step")
            start, stop, step = (
                _parse_cli_scalar(p, f"grid {name}", EXACT) for p in pieces
            )
            if step <= 0:
                raise InputError(f"grid axis {spec!r}: step must be positive")
            current = start
            while current <= stop:
                values.append(current)
                current = current + step
        else:
            for piece in rhs.split(","):
                piece = piece.strip()
                if piece:
                    values.append(_parse_cli_scalar(piece, f"grid {name}", EXACT))
        if not values:
            raise InputError(f"grid axis {spec!r}: no values")
        if mode == APPROX:
            values = [float(v) for v in values]
        axes.append((name, values))
    return axes


def cmd_scan(job: JobConfig) -> int:
    if job.family is None:
        raise InputError("scan needs --family")
    axes = _parse_grid(job.grid, job.mode)
    mode = _job_mode(job) if job.mode == APPROX else None

    rows = []
    names = [name for name, _ in axes]
    for combo in product(*(values for _, values in axes)):
        point = {}
        for name, value in zip(names, combo):
            if name == "eta":
                if getattr(value, "denominator", 1) != 1:
                    raise InputError(f"grid eta: expected an integer, got {value}")
                value = int(value)
            point[name] = value
        params = _family_params(job, **point)
        try:
            result = classify(params, job.convention, mode)
        except LieAlgebraError as exc:
            rows.append(reporting.scan_row(params, None, error=str(exc)))
        else:
            rows.append(reporting.scan_row(params, result))

    fmt = job.format or "csv"
    if fmt != "csv":
        raise InputError(f"scan emits csv, not {fmt!r}")
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=reporting.SCAN_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    _emit(job, buffer.getvalue())
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _add_input_flags(parser: argparse.ArgumentParser, with_raw: bool = True) -> None:
    parser.add_argument("--family", help=f"one of {', '.join(FAMILIES)}")
    parser.add_argument("--alpha", help="parameter alpha (rational like 3/2, or decimal)")
    parser.add_argument("--beta", help="parameter beta")
    parser.add_argument("--gamma", help="parameter gamma")
    parser.add_argument("--delta", help="parameter delta")
    parser.add_argument("--eta", help="parameter eta (+1 or -1, G4 only)")
    if with_raw:
        parser.add_argument("--raw", help="path to raw structure constants (JSON)")
    parser.add_argument("--config", help="flat key-value config file (key = value per line)")


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--convention", choices=CONVENTIONS, help="component-system convention")
    parser.add_argument("--mode", choices=(EXACT, APPROX), help="arithmetic mode")
    parser.add_argument("--tol", type=float, help="tolerance for approx mode (default 1e-9)")
    parser.add_argument("--out", help="write the report to this path instead of stdout")
    parser.add_argument("--format", choices=("text", "json", "csv"), help="output format")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ein2lie",
        description="Verification engine for three-dimensional Lorentzian Ein(2) Lie groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_derive = sub.add_parser("derive", help="derivation report for one algebra")
    _add_input_flags(p_derive)
    _add_common_flags(p_derive)

    p_check = sub.add_parser("check", help="decide the Ein(2) condition (exit 0 iff yes)")
    _add_input_flags(p_check)
    _add_common_flags(p_check)

    p_classify = sub.add_parser("classify", help="match against the branch catalog")
    _add_input_flags(p_classify, with_raw=False)
    _add_common_flags(p_classify)

    p_verify = sub.add_parser("verify", help="run the verification suite")
    p_verify.add_argument("--samples", type=int, help="samples per branch (default 50)")
    p_verify.add_argument(
        "--fidelity-samples", dest="fidelity_samples", type=int,
        help="points per family for system fidelity (default 100; 0 skips the section)",
    )
    p_verify.add_argument(
        "--neg-samples", dest="neg_samples", type=int,
        help="off-branch points per family (default 100; 0 skips the section)",
    )
    p_verify.add_argument("--seed", type=int, help=f"sampling seed (default {DEFAULT_SEED})")
    p_verify.add_argument(
        "--theorem", action="append",
        help="restrict to one theorem group (e.g. 2.5); repeatable",
    )
    p_verify.add_argument("--config", help="flat key-value config file")
    _add_common_flags(p_verify)

    p_scan = sub.add_parser("scan", help="sweep a parameter grid (CSV)")
    _add_input_flags(p_scan, with_raw=False)
    p_scan.add_argument(
        "--grid", action="append",
        help="grid axis: name=start:stop:step (inclusive) or name=v1,v2,...; repeatable",
    )
    _add_common_flags(p_scan)

    return parser


_DISPATCH = {
    "derive": cmd_derive,
    "check": cmd_check,
    "classify": cmd_classify,
    "verify": cmd_verify,
    "scan": cmd_scan,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        job = _build_job(args)
        return _DISPATCH[args.command](job)
    except (InputError, LieAlgebraError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
