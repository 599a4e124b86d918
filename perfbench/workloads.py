"""Workload definitions and output-correctness checks.

A workload is a list of `ein2lie` command lines.  One repetition runs
every command line once through `ein2lie.cli.main`, captures what it
writes to stdout, and times each call from entry to return.  The checks
turn each captured output into operations (one per `verify` report item
and one per `scan` row) and count the ones that fail.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# The three scan grids.  G3 is the grid ROADMAP names; G1 (five nonzero
# rows, off-diagonal ones included) and G5 (with the invalid diagonal
# alpha + delta = 0, which exercises the scan error path) use step 1/2 so
# that one repetition of all three stays near three seconds.
SCAN_GRIDS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("G3", ("--family", "G3", "--gamma", "1",
            "--grid", "alpha=-2:2:1/2", "--grid", "beta=-2:2:1/2")),
    ("G1", ("--family", "G1",
            "--grid", "alpha=1:3:1/2", "--grid", "beta=-2:2:1/2")),
    ("G5", ("--family", "G5", "--beta", "0", "--gamma", "0",
            "--grid", "alpha=-2:2:1/2", "--grid", "delta=-2:2:1/2")),
)

WORKLOADS = ("verify", "scan_exact", "scan_approx")

# The one erratum the classification is known to carry.
EXPECTED_ERRATUM = "3.4(v)"

# The seed whose verify reference fixes the set of report items.
CATALOG_SEED = "7"

APPROX_TOLERANCE = 1e-9
SCAN_NUMERIC_COLUMNS = ("alpha", "beta", "gamma", "delta", "eta", "lambda1", "lambda2", "residual")


def invocations(workload: str, seed: int) -> List[Tuple[str, List[str]]]:
    """The (key, argv) pairs of one repetition; key names the reference."""
    if workload == "verify":
        return [("verify", ["verify", "--seed", str(seed)])]
    if workload == "scan_exact":
        return [(name, ["scan", *args]) for name, args in SCAN_GRIDS]
    if workload == "scan_approx":
        return [(name, ["scan", *args, "--mode", "approx"]) for name, args in SCAN_GRIDS]
    raise ValueError(f"unknown workload {workload!r}")


def run_once(cli, calls: Sequence[Tuple[str, List[str]]]) -> List[Tuple[str, int, str, float]]:
    """Run each call through cli.main; return (key, exit code, stdout, seconds) per call."""
    outputs = []
    for key, argv in calls:
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            start = time.perf_counter()
            code = cli.main(argv)
            seconds = time.perf_counter() - start
        outputs.append((key, code, buffer.getvalue(), seconds))
    return outputs


@dataclass
class RepCheck:
    """Operations checked in one repetition."""

    attempted: int = 0
    failed: int = 0
    decided: int = 0  # algebras decided: verify sample points, scan grid rows
    none_rows: int = 0  # scan rows whose solution kind is "none"

    def add(self, other: "RepCheck") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.decided += other.decided
        self.none_rows += other.none_rows


def load_references(workload: str, seed: int) -> Dict[str, Optional[str]]:
    """Reference outputs by invocation key; None where the seed has none.

    The verify reference is also returned under "catalog" (seed 7), whose
    items fix which report items every seed must produce.
    """
    with open(REFERENCE_DIR / f"{workload}.json", encoding="utf-8") as handle:
        stored = json.load(handle)
    if workload == "verify":
        return {"verify": stored.get(str(seed)), "catalog": stored[CATALOG_SEED]}
    return {key: stored[key] for key, _ in SCAN_GRIDS}


def check_outputs(workload: str, outputs, references) -> RepCheck:
    total = RepCheck()
    for key, code, text, _ in outputs:
        if workload == "verify":
            total.add(check_verify(code, text, references["verify"], references["catalog"]))
        elif workload == "scan_exact":
            total.add(check_scan_exact(code, text, references[key]))
        else:
            total.add(check_scan_approx(code, text, references[key]))
    return total


# ---------------------------------------------------------------------------
# verify: one operation per report item
# ---------------------------------------------------------------------------

_SECTIONS = (
    ("tabulated-system fidelity", "fidelity"),
    ("branches:", "branch"),
    ("irrational anchors", "anchor"),
    ("negative sampling", "negative"),
    ("errata:", "errata"),
)


def parse_verify(text: str) -> Tuple[List[str], Dict[str, str]]:
    """Split a text suite report into its frame and its items.

    Items are keyed "fidelity:G1", "branch:2.3", "anchor:<label>" and
    "negative:G1".  An errata block is appended to its branch's item.
    The frame is every other line: the header, section titles, blank
    lines and the result line.
    """
    frame: List[str] = []
    items: Dict[str, str] = {}
    section = None
    erratum = "errata:?"
    for line in text.splitlines():
        if not line.startswith("  "):
            section = next((name for prefix, name in _SECTIONS if line.startswith(prefix)), None)
            frame.append(line)
        elif section == "errata":
            if not line.startswith("    "):
                erratum = "branch:" + line.split()[0]
            items[erratum] = items.get(erratum, "") + "\n" + line
        elif section in ("fidelity", "anchor", "negative"):
            items[f"{section}:{line.strip().split(':')[0]}"] = line
        elif section == "branch":
            items["branch:" + line.split()[0]] = line
        else:
            frame.append(line)
    return frame, items


def _item_verdict_ok(key: str, text: str) -> bool:
    kind, name = key.split(":", 1)
    first = text.split("\n")[0]
    if kind in ("fidelity", "negative"):
        return first.endswith(", ok")
    if kind == "anchor":
        return ": ok (" in first
    if kind == "branch":
        fields = first.split()
        if len(fields) < 3:
            return False
        return fields[2] == "verified" or (fields[2] == "errata" and name == EXPECTED_ERRATUM)
    return False


def _item_points(key: str, text: str) -> int:
    """Algebras the item decided: points per family, samples per branch, 1 per anchor."""
    kind = key.split(":", 1)[0]
    first = text.split("\n")[0]
    try:
        if kind in ("fidelity", "negative"):
            return int(first.split(":")[1].split()[0])
        if kind == "branch":
            return int(first.split()[3].split("/")[1])
    except (IndexError, ValueError):
        return 0
    return 1


def check_verify(code: int, text: str, reference: Optional[str], catalog: str) -> RepCheck:
    """Fail an item whose verdict is bad or whose text differs from the reference.

    A bad frame (wrong header or a result other than OK) or a nonzero
    exit code fails every item of the report.
    """
    frame, items = parse_verify(text)
    expected = parse_verify(catalog)[1].keys()
    ref_frame, ref_items = parse_verify(reference) if reference is not None else (None, None)
    frame_ok = code == 0 and "result: OK" in frame
    if ref_frame is not None:
        frame_ok = frame_ok and frame == ref_frame
    check = RepCheck()
    for key in sorted(set(expected) | set(items)):
        check.attempted += 1
        item = items.get(key)
        ok = (
            frame_ok
            and item is not None
            and key in expected
            and _item_verdict_ok(key, item)
            and (ref_items is None or ref_items.get(key) == item)
        )
        if not ok:
            check.failed += 1
        if item is not None:
            check.decided += _item_points(key, item)
    return check


# ---------------------------------------------------------------------------
# scan: one operation per grid row
# ---------------------------------------------------------------------------

def _scan_rows(text: str) -> Tuple[List[str], List[Dict[str, str]]]:
    reader = csv.DictReader(io.StringIO(text))
    rows = list(reader)
    return list(reader.fieldnames or []), rows


def _count_none(text: str) -> int:
    return sum(1 for row in _scan_rows(text)[1] if row["kind"] == "none")


def check_scan_exact(code: int, text: str, reference: str) -> RepCheck:
    """Fail each row that differs byte for byte from the reference row."""
    out = text.split("\n")
    ref = reference.split("\n")
    header_ok = code == 0 and out[0] == ref[0]
    count = max(len(out), len(ref)) - 2  # header and the empty tail after "\n"
    failed = sum(
        1
        for i in range(1, count + 1)
        if not header_ok or i >= len(out) or i >= len(ref) or out[i] != ref[i]
    )
    return RepCheck(attempted=count, failed=failed, decided=max(len(out) - 2, 0),
                    none_rows=_count_none(text) if header_ok else 0)


def _close(value: str, expected: str) -> bool:
    if value == expected:
        return True
    try:
        return abs(float(value) - float(expected)) <= APPROX_TOLERANCE
    except ValueError:
        return False


def check_scan_approx(code: int, text: str, reference: str) -> RepCheck:
    """Fail a row whose kind or branches differ, or whose numbers differ by more than 1e-9."""
    fields, rows = _scan_rows(text)
    ref_fields, ref_rows = _scan_rows(reference)
    header_ok = code == 0 and fields == ref_fields
    count = max(len(rows), len(ref_rows))
    failed = 0
    for i in range(count):
        row = rows[i] if i < len(rows) else None
        ref = ref_rows[i] if i < len(ref_rows) else None
        ok = (
            header_ok
            and row is not None
            and ref is not None
            and row["family"] == ref["family"]
            and row["kind"] == ref["kind"]
            and row["branches"] == ref["branches"]
            and all(_close(row[name], ref[name]) for name in SCAN_NUMERIC_COLUMNS)
        )
        if not ok:
            failed += 1
    none_rows = sum(1 for row in rows if row["kind"] == "none") if header_ok else 0
    return RepCheck(attempted=count, failed=failed, decided=len(rows), none_rows=none_rows)
