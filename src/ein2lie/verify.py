"""Full verification suite: fidelity, all branches, anchors, negative sampling.

The suite is the artifact's main deliverable: it replays the complete
classification and reports, per branch, whether the stated data is
reproduced.  A branch whose stated formulas fail but whose case-identity
recomputation succeeds is carried as errata (a result, not a failure);
the suite only fails on unexplained disagreements.

The tabulated per-family systems and the branch statements assume the
delta convention, so fidelity checks, negative sampling and the
irrational anchors always run under it.  Branch verification honors the
requested convention; under the metric convention, branches with
lambda2 != 0 legitimately diverge, and `verify_branch` decides such a
divergence (it re-checks the branch under delta), so the suite lists it
instead of failing.  Fidelity and negative sampling are one routine
(`_sampled`) run with two checks, both exact: the points of both
sections are rational, since the family pieces they are drawn on take
no root step.
"""

from __future__ import annotations

from collections.abc import Sequence

from .branches import (
    ANCHORS,
    BRANCHES,
    DEFAULT_SAMPLES,
    DEFAULT_SEED,
    AnchorResult,
    BranchReport,
    sample_off_branch,
    sample_valid_points,
    verify_anchor,
    verify_branch,
)
from .ein2 import _EXACT, DELTA, NONE, is_ein2, match_printed_system
from .liealg import FAMILIES, FamilyParams, build_family

#: Points per family of the fidelity and negative sections by default.
DEFAULT_POINTS = 100


class SampledCheck:
    """The sampled points of one family that fail a check.

    Fidelity counts mismatches, negative sampling counts violations.
    """

    def __init__(self, family: str, samples: int, failures: int = 0):
        self.family, self.samples, self.failures = family, samples, failures

    @property
    def ok(self) -> bool:
        return self.failures == 0


class SuiteReport:
    def __init__(self, seed: int, samples: int, convention: str, theorems: tuple | None):
        self.seed, self.samples, self.convention = seed, samples, convention
        self.theorems = theorems
        self.fidelity: list[SampledCheck] = []
        self.branches: list[BranchReport] = []
        self.anchors: list[AnchorResult] = []
        self.negative: list[SampledCheck] = []

    @property
    def ok(self) -> bool:
        sections = (self.fidelity, self.branches, self.anchors, self.negative)
        return all(item.ok for section in sections for item in section)


def _sampled(families, count: int, seed: int, sample, fails) -> list[SampledCheck]:
    """One check per family of the `count` points `sample(family, count, seed)` draws,
    counting the points that `fails`; no check when count is 0."""
    if count <= 0:
        return []
    return [
        SampledCheck(family, count, sum(1 for params in sample(family, count, seed) if fails(params)))
        for family in families
    ]


def _solved(params: FamilyParams) -> bool:
    """An off-branch point the exact solver finds Ein(2): a violation.  The points
    `sample_off_branch` draws are rational (its plans take no root step)."""
    return is_ein2(build_family(params, _EXACT), DELTA, _EXACT).kind != NONE


def run_suite(
    samples: int = DEFAULT_SAMPLES,
    seed: int = DEFAULT_SEED,
    convention: str = DELTA,
    fidelity_samples: int = DEFAULT_POINTS,
    negative_samples: int = DEFAULT_POINTS,
    theorems: Sequence[str] | None = None,
) -> SuiteReport:
    """Run the complete verification suite deterministically.

    theorems, when given, restricts every section to the named theorem
    groups (e.g. ["2.5"]) and their families.
    """
    selected = list(BRANCHES)
    if theorems:
        wanted = set(theorems)
        selected = [s for s in BRANCHES if s.theorem in wanted or s.label in wanted]
        if not selected:
            raise ValueError(f"no branches match theorem filter {sorted(wanted)!r}")
    families = tuple(f for f in FAMILIES if any(s.family == f for s in selected))
    selected_theorems = {spec.theorem for spec in selected}

    report = SuiteReport(
        seed=seed,
        samples=samples,
        convention=convention,
        theorems=tuple(theorems) if theorems else None,
    )
    report.fidelity = _sampled(
        families, fidelity_samples, seed, sample_valid_points,
        lambda params: not match_printed_system(params),
    )
    report.branches = [verify_branch(spec, samples, seed, convention) for spec in selected]
    report.anchors = [verify_anchor(anchor) for anchor in ANCHORS if anchor.theorem in selected_theorems]
    report.negative = _sampled(families, negative_samples, seed, sample_off_branch, _solved)
    return report
