"""Write the reference outputs that the correctness checks compare against.

The references are the outputs of the commit that defined the benchmark
and must not be regenerated by a change that claims a gain.  To rebuild
them, run from the root of a checkout:

    python3 perfbench/capture_reference.py

`verify` references cover VERIFY_SEEDS; on any other seed only the
verdict checks apply.  The scan grids do not depend on the seed.
"""

from __future__ import annotations

import json
import sys

import workloads

VERIFY_SEEDS = range(100)


def _capture(cli, workload, seed):
    return {key: text for key, _, text, _ in workloads.run_once(cli, workloads.invocations(workload, seed))}


def main() -> int:
    sys.path.insert(0, str(workloads.REFERENCE_DIR.parent.parent / "src"))
    import ein2lie.cli as cli

    verify = {}
    for seed in VERIFY_SEEDS:
        text = _capture(cli, "verify", seed)["verify"]
        check = workloads.check_verify(0, text, None, text)
        if check.failed:
            raise SystemExit(f"verify --seed {seed}: {check.failed} items fail their verdict check")
        verify[str(seed)] = text
    captured = {"verify": verify}
    for workload in ("scan_exact", "scan_approx"):
        captured[workload] = _capture(cli, workload, 0)

    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    for workload, stored in captured.items():
        with open(workloads.REFERENCE_DIR / f"{workload}.json", "w", encoding="utf-8") as handle:
            json.dump(stored, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
