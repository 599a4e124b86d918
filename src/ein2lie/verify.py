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
lambda2 != 0 legitimately diverge, and such divergences are re-checked
under delta and listed instead of failed.
"""

from __future__ import annotations

from collections.abc import Sequence

from .branches import (
    ANCHORS,
    BRANCHES,
    DEFAULT_SEED,
    AnchorResult,
    BranchReport,
    sample_off_branch,
    sample_valid_points,
    verify_anchor,
    verify_branch,
)
from .ein2 import DELTA, NONE, is_ein2, match_printed_system
from .liealg import FAMILIES, build_family

CONVENTION_DIVERGENCE = "convention_divergence"


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
        branch_ok = all(
            report.verdict in ("verified", "errata", CONVENTION_DIVERGENCE)
            for report in self.branches
        )
        return (
            branch_ok
            and all(f.ok for f in self.fidelity)
            and all(a.ok for a in self.anchors)
            and all(n.ok for n in self.negative)
        )


def run_suite(
    samples: int = 50,
    seed: int = DEFAULT_SEED,
    convention: str = DELTA,
    fidelity_samples: int = 100,
    negative_samples: int = 100,
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

    report = SuiteReport(
        seed=seed,
        samples=samples,
        convention=convention,
        theorems=tuple(theorems) if theorems else None,
    )

    if fidelity_samples > 0:
        for family in families:
            fidelity = SampledCheck(family=family, samples=fidelity_samples)
            for params in sample_valid_points(family, fidelity_samples, seed):
                if not match_printed_system(params):
                    fidelity.failures += 1
            report.fidelity.append(fidelity)

    for spec in selected:
        branch_report = verify_branch(spec, count=samples, seed=seed, convention=convention)
        if convention != DELTA and not branch_report.ok:
            delta_report = verify_branch(spec, count=samples, seed=seed, convention=DELTA)
            if delta_report.ok:
                branch_report.verdict = CONVENTION_DIVERGENCE
                branch_report.correction = (
                    "stated lambdas hold under the delta convention "
                    f"(delta verdict: {delta_report.verdict}); the metric convention "
                    "flips the constant coefficient of row (3,3), which matters "
                    "exactly when lambda2 != 0"
                )
        report.branches.append(branch_report)

    selected_theorems = {spec.theorem for spec in selected}
    for anchor in ANCHORS:
        if anchor.theorem in selected_theorems:
            report.anchors.append(verify_anchor(anchor))

    if negative_samples > 0:
        for family in families:
            negative = SampledCheck(family=family, samples=negative_samples)
            for params in sample_off_branch(family, negative_samples, seed):
                mode = params.mode()
                solution = is_ein2(build_family(params, mode), DELTA, mode)
                if solution.kind != NONE:
                    negative.failures += 1
            report.negative.append(negative)

    return report
