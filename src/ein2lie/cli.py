"""Command-line front end.

Subcommands, with the options each one takes besides --convention,
--out, --format and --config, which all of them take:

  derive    full derivation report (brackets, connection, Ricci data,
            component system, solution) for one algebra; --family,
            --alpha, --beta, --gamma, --delta, --eta, --raw, --mode,
            --tol; text or json
  check     decide the Ein(2) condition; exit 0 iff it holds; the
            options of derive; text or json
  classify  match a parameter point against the branch catalog;
            exit 0 iff a branch matches; the options of derive except
            --raw; text or json
  verify    run the verification suite; exit 0 iff every check is
            verified or carries an errata record; --samples,
            --fidelity-samples, --neg-samples, --seed, --theorem;
            text or json
  scan      sweep a parameter grid, one CSV row per grid point; the
            options of classify and --grid; csv

Each command builds its report once, as its JSON document, and hands
it to `_emit`, which writes the document or its layout in the other
format (`reporting.render_*`); no command builds a report per format.

Exit codes: 0 success/affirmative, 1 negative verdict or unexplained
verification failure, 2 invalid input.

Single points are described with flags (--family, --alpha, ...) or a
flat key-value config file; arbitrary algebras enter as raw structure
constants in JSON (--raw).  A config file may set those of family,
alpha, beta, gamma, delta, eta, raw, convention, mode, tol, seed,
samples, out and format that are flags of the command; any other key is
an error, and a flag given on the command line wins over the file.
Derive reports embed their structure constants in the raw schema, so a
report can be re-ingested with --raw.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from fractions import Fraction
from functools import cache
from itertools import product
from collections.abc import Callable, Sequence

from . import reporting
from .branches import DEFAULT_SAMPLES, DEFAULT_SEED, classify
from .ein2 import CONVENTIONS, DELTA, is_ein2, solve
from .geometry import ricci
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
from .verify import DEFAULT_POINTS, run_suite

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INVALID = 2


class InputError(Exception):
    """Invalid command-line, config-file or raw input (exit code 2)."""


_PARAM_KEYS = ("alpha", "beta", "gamma", "delta")
# The options a config file may set, where the command has the flag.
_CONFIG_KEYS = {
    "family", "alpha", "beta", "gamma", "delta", "eta", "raw",
    "convention", "mode", "tol", "seed", "samples", "out", "format",
}
_CHOICES = {"convention": CONVENTIONS, "mode": (EXACT, APPROX)}
_COUNTS = {"samples": 1, "fidelity_samples": 0, "neg_samples": 0}  # and their least values


def _formats(command: str) -> tuple[str, ...]:
    """The output formats of a command; the first is its default."""
    return ("csv",) if command == "scan" else ("text", "json")


def _read_config_file(path: str, keys: set[str]) -> dict[str, str]:
    values: dict[str, str] = {}
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
                if key not in keys:
                    raise InputError(f"{path}:{lineno}: unknown key {key!r}")
                if not value:
                    raise InputError(f"{path}:{lineno}: empty value for {key!r}")
                values[key] = value
    except OSError as exc:
        raise InputError(f"cannot read config file {path}: {exc}") from exc
    return values


def _parse_cli_scalar(text: str, field_name: str) -> Scalar:
    try:
        return parse_scalar(text)
    except ValueError as exc:
        raise InputError(f"field {field_name}: {exc}") from exc


def _mode_scalar(value: Scalar, field_name: str, mode: Mode) -> Scalar:
    """An exact value as a scalar of `mode`: a float in approx mode, if it fits one."""
    try:
        return value if mode.is_exact else float(value)
    except OverflowError as exc:
        raise InputError(f"field {field_name}: {exc}") from exc


def _build_job(args: argparse.Namespace) -> argparse.Namespace:
    """Parse and validate, in place, the options of `args.command`.

    Flag and config values arrive as text, options left unset as the
    parser's defaults.  The namespace holds exactly the command's own
    options, so no other one is read; `mode` and `tol` become one `Mode`.
    """
    job = vars(args)
    for name, choices in {**_CHOICES, "format": _formats(args.command)}.items():
        if name in job:
            value = job[name] = job[name].lower()
            if value not in choices:
                raise InputError(f"unknown {name} {value!r}; expected {' or '.join(choices)}")
    for name in ("eta", "seed", *_COUNTS):
        if job.get(name) is not None:
            try:
                job[name] = int(job[name])
            except ValueError as exc:
                raise InputError(f"field {name}: expected an integer, got {job[name]!r}") from exc
    for name, least in _COUNTS.items():
        if job.get(name, least) < least:
            raise InputError(f"{name.replace('_', '-')} must be >= {least}")
    if "mode" in job:
        try:
            tol = float(job.pop("tol"))
        except ValueError as exc:
            raise InputError(f"field tol: {exc}") from exc
        if not 0 < tol < math.inf:
            raise InputError("tolerance must be positive and finite")
        job["mode"] = Mode.approx(tol) if job["mode"] == APPROX else Mode.exact()
    if job.get("family") is not None:
        family = job["family"] = job["family"].upper()
        if family not in FAMILIES:
            raise InputError(f"unknown family {family!r}; expected one of {', '.join(FAMILIES)}")
    for name in _PARAM_KEYS:
        if job.get(name) is not None:
            job[name] = _mode_scalar(_parse_cli_scalar(job[name], name), name, job["mode"])
    return args


def _family_params(job: argparse.Namespace, **overrides) -> FamilyParams:
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
    if table is None and isinstance(doc, dict) and isinstance(doc.get("structure_constants"), dict):
        table = doc["structure_constants"].get("c")
    if table is None:
        raise InputError(f"{path}: field 'c' (or 'structure_constants.c') missing")
    if not _is_cube(table):
        raise InputError(f"{path}: field 'c' must be a 3x3x3 array")
    entries = [[[_raw_entry(path, table, i, j, k, mode) for k in range(3)] for j in range(3)]
               for i in range(3)]
    return from_raw(entries, mode)


def _is_cube(table, depth: int = 3) -> bool:
    """`table` is a list of three entries, each such a list down to `depth` levels."""
    return type(table) is list and len(table) == 3 and (
        depth == 1 or all(_is_cube(plane, depth - 1) for plane in table)
    )


def _raw_entry(path: str, table, i, j, k, mode: Mode) -> Scalar:
    """Entry c[i][j][k], a finite JSON number or a rational string, as a scalar of `mode`."""
    value = table[i][j][k]
    try:
        if isinstance(value, str):
            value = parse_scalar(value)
        elif type(value) not in (int, float) or (type(value) is float and not math.isfinite(value)):
            raise ValueError(f"expected a finite number or a rational string, got {json.dumps(value)}")
        # exact mode keeps a float's exact binary value as a rational
        return float(value) if mode.kind == APPROX else Fraction(value)
    except (ValueError, OverflowError) as exc:
        raise InputError(f"{path}: c[{i}][{j}][{k}]: {exc}") from exc


def _input_algebra(job: argparse.Namespace):
    """Resolve the input to (structure constants, params-or-None)."""
    if job.raw is not None and job.family is not None:
        raise InputError("give either --family or --raw, not both")
    if job.raw is not None:
        return _load_raw(job.raw, job.mode), None
    params = _family_params(job)
    return build_family(params, job.mode), params


def _input_json(job: argparse.Namespace, params: FamilyParams | None) -> dict:
    if params is None:
        return {"kind": "raw", "path": job.raw}
    return {"kind": "family", **reporting.params_json(params)}


def _mode_json(job: argparse.Namespace) -> dict:
    return {"kind": job.mode.kind, "tolerance": job.mode.tolerance}


def _verdict_json(job: argparse.Namespace, command: str, params: FamilyParams | None,
                  ein2: bool, **fields) -> dict:
    """A verdict document: the header check and classify share, then `fields`."""
    return {
        "schema": reporting.SCHEMA_VERDICT,
        "command": command,
        "input": _input_json(job, params),
        "convention": job.convention,
        "mode": _mode_json(job),
        "ein2": ein2,
        **fields,
    }


def _emit(job: argparse.Namespace, doc, render: Callable) -> None:
    """Write the report: its JSON document, or `render(doc)`, its layout in the other format."""
    text = reporting.dumps(doc) if job.format == "json" else render(doc)
    if job.out:
        with open(job.out, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_derive(job: argparse.Namespace) -> int:
    sc, params = _input_algebra(job)
    rd = ricci(sc, job.mode)
    solution = solve(rd, job.convention, job.mode)
    doc = {
        "schema": reporting.SCHEMA_DERIVE,
        "input": _input_json(job, params),
        "mode": _mode_json(job),
        "convention": job.convention,
        "structure_constants": {"c": reporting.tensor3_json(sc.c)},
        "unimodular": unimodular(sc, job.mode),
        "connection": reporting.tensor3_json(rd.connection),
        "ricci": {
            "rho": reporting.matrix_json(rd.rho),
            "rho_op": reporting.matrix_json(rd.rho_op),
            "rho_sq": reporting.matrix_json(rd.rho_sq),
        },
        "system": reporting.system_json(solution, job.convention),
        "solution": reporting.solution_json(solution),
    }
    _emit(job, doc, reporting.render_derive_text)
    return EXIT_OK


def cmd_check(job: argparse.Namespace) -> int:
    sc, params = _input_algebra(job)
    solution = is_ein2(sc, job.convention, job.mode)
    doc = _verdict_json(job, "check", params, solution.is_ein2(),
                        solution=reporting.solution_json(solution))
    _emit(job, doc, reporting.render_verdict_text)
    return EXIT_OK if solution.is_ein2() else EXIT_NEGATIVE


def cmd_classify(job: argparse.Namespace) -> int:
    params = _family_params(job)
    result = classify(params, job.convention, job.mode)
    doc = _verdict_json(job, "classify", params, result.solution.is_ein2(),
                        **reporting.classification_json(result))
    _emit(job, doc, reporting.render_verdict_text)
    return EXIT_OK if result.branches else EXIT_NEGATIVE


def cmd_verify(job: argparse.Namespace) -> int:
    report = run_suite(
        samples=job.samples,
        seed=job.seed,
        convention=job.convention,
        fidelity_samples=job.fidelity_samples,
        negative_samples=job.neg_samples,
        theorems=job.theorem,
    )
    _emit(job, reporting.suite_json(report), reporting.render_suite_text)
    return EXIT_OK if report.ok else EXIT_NEGATIVE


def _parse_grid(specs: Sequence[str] | None, mode: Mode) -> list[tuple[str, list[Scalar]]]:
    if not specs:
        raise InputError("scan needs at least one --grid axis (name=start:stop:step or name=v1,v2,...)")
    axes: list[tuple[str, list[Scalar]]] = []
    for spec in specs:
        if "=" not in spec:
            raise InputError(f"grid axis {spec!r}: expected name=start:stop:step or name=v1,v2,...")
        name, _, rhs = spec.partition("=")
        name = name.strip().lower()
        if name not in _PARAM_KEYS + ("eta",):
            raise InputError(f"grid axis {spec!r}: unknown parameter {name!r}")
        if name in dict(axes):
            raise InputError(f"grid axis {name!r} given twice")
        rhs = rhs.strip()
        values: list[Scalar] = []
        if ":" in rhs:
            pieces = rhs.split(":")
            if len(pieces) != 3:
                raise InputError(f"grid axis {spec!r}: ranges take start:stop:step")
            start, stop, step = (_parse_cli_scalar(p, f"grid {name}") for p in pieces)
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
                    values.append(_parse_cli_scalar(piece, f"grid {name}"))
        if not values:
            raise InputError(f"grid axis {spec!r}: no values")
        if name != "eta":  # eta stays exact, so `cmd_scan` sees a fraction
            values = [_mode_scalar(v, f"grid {name}", mode) for v in values]
        axes.append((name, values))
    return axes


def cmd_scan(job: argparse.Namespace) -> int:
    if job.family is None:
        raise InputError("scan needs --family")
    axes = _parse_grid(job.grid, job.mode)

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
            result = classify(params, job.convention, job.mode)
        except LieAlgebraError as exc:
            rows.append(reporting.scan_row(params, None, error=str(exc)))
        else:
            rows.append(reporting.scan_row(params, result))
    _emit(job, rows, reporting.render_scan_csv)
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
    parser.add_argument(
        "--mode", choices=_CHOICES["mode"], default=EXACT, help="arithmetic mode (default %(default)s)"
    )
    parser.add_argument(
        "--tol", default=DEFAULT_TOLERANCE, help="tolerance for approx mode (default %(default)s)"
    )


def _add_common_flags(parser: argparse.ArgumentParser, formats: tuple[str, ...]) -> None:
    parser.add_argument(
        "--convention", choices=CONVENTIONS, default=DELTA,
        help="component-system convention (default %(default)s)",
    )
    parser.add_argument("--out", help="write the report to this path instead of stdout")
    parser.add_argument(
        "--format", choices=formats, default=formats[0], help="output format (default %(default)s)"
    )
    parser.add_argument("--config", help="flat key-value config file (key = value per line)")


def build_parser(config: dict[str, str] | None = None) -> argparse.ArgumentParser:
    """The argument parser; `config` values replace the defaults of the flags they name."""
    parser = argparse.ArgumentParser(
        prog="ein2lie",
        description="Verification engine for three-dimensional Lorentzian Ein(2) Lie groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    _add_input_flags(sub.add_parser("derive", help="derivation report for one algebra"))
    _add_input_flags(sub.add_parser("check", help="decide the Ein(2) condition (exit 0 iff yes)"))
    _add_input_flags(
        sub.add_parser("classify", help="match against the branch catalog"), with_raw=False
    )

    p_verify = sub.add_parser("verify", help="run the verification suite")
    p_verify.add_argument("--samples", default=DEFAULT_SAMPLES, help="samples per branch (default %(default)s)")
    p_verify.add_argument(
        "--fidelity-samples", dest="fidelity_samples", default=DEFAULT_POINTS,
        help="points per family for system fidelity (default %(default)s; 0 skips the section)",
    )
    p_verify.add_argument(
        "--neg-samples", dest="neg_samples", default=DEFAULT_POINTS,
        help="off-branch points per family (default %(default)s; 0 skips the section)",
    )
    p_verify.add_argument("--seed", default=DEFAULT_SEED, help="sampling seed (default %(default)s)")
    p_verify.add_argument(
        "--theorem", action="append",
        help="restrict to one theorem group (e.g. 2.5); repeatable",
    )

    p_scan = sub.add_parser("scan", help="sweep a parameter grid (CSV)")
    _add_input_flags(p_scan, with_raw=False)
    p_scan.add_argument(
        "--grid", action="append",
        help="grid axis: name=start:stop:step (inclusive) or name=v1,v2,...; repeatable",
    )

    for command, command_parser in sub.choices.items():
        _add_common_flags(command_parser, _formats(command))
        command_parser.set_defaults(**(config or {}))
    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The config-free parser, built once per process by the first `main`."""
    return build_parser()


_DISPATCH = {
    "derive": cmd_derive,
    "check": cmd_check,
    "classify": cmd_classify,
    "verify": cmd_verify,
    "scan": cmd_scan,
}


def main(argv: Sequence[str] | None = None) -> int:
    # argparse reads -1/2 and -inf, unlike -1, as options: `--alpha -1/2`
    # becomes `--alpha=-1/2`, `--tol -inf` becomes `--tol=-inf`
    argv = list(sys.argv[1:] if argv is None else argv)
    for i in range(len(argv) - 1, 0, -1):
        if argv[i - 1] in [f"--{name}" for name in _PARAM_KEYS + ("tol",)] and re.match(
            r"-([0-9.]|inf|nan)", argv[i], re.IGNORECASE
        ):
            argv[i - 1 : i + 1] = [f"{argv[i - 1]}={argv[i]}"]
    args = _parser().parse_args(argv)
    try:
        if args.config:
            # The file may set the command's own options; flags still win.
            # Its defaults go to a parser of their own, never the shared one.
            config = _read_config_file(args.config, _CONFIG_KEYS.intersection(vars(args)))
            args = build_parser(config).parse_args(argv)
        return _DISPATCH[args.command](_build_job(args))
    except (InputError, LieAlgebraError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
