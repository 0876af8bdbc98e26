"""Record the digests of the golden outputs in ``digests.json``.

    python3 perfbench/record_digests.py

The benchmark compares every run's warm-up outputs (fixed seed-0 inputs)
and the seed-0 ``meta-quick`` suite JSON against these digests, and every
``meta-quick`` suite's per-case expectation and check count against the
values recorded here.  A case's check count is recorded only if it is the
same for every one of ``COUNT_SEEDS``; otherwise it is recorded as null.
Re-record only for a change that is meant to alter outputs, and say so in
the change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402
from bdlogic import metatheory  # noqa: E402


COUNT_SEEDS = (0, 1, 2, 3, 4)


def main() -> None:
    out = {}
    for name, cls in workloads.WORKLOADS.items():
        workload = cls(0, 1)
        out[name] = {"golden": [digest for digest, _, _ in workload.golden()]}
    full = metatheory.run_suite(0, "quick")
    meta = workloads.MetaQuickWorkload(0, 1)
    if meta.report(0, meta.run(0)).to_json() != full.to_json():
        raise SystemExit("per-case reports do not reassemble the full suite")
    out["meta-quick"]["full_seed0"] = workloads.sha(full.to_json())
    reports = [full] + [metatheory.run_suite(s, "quick") for s in COUNT_SEEDS[1:]]
    cases = {}
    for r in full.results:
        counts = {x.cases_run for rep in reports for x in rep.results if x.case_id == r.case_id}
        cases[r.case_id] = [r.expectation, counts.pop() if len(counts) == 1 else None]
    out["meta-quick"]["cases"] = cases
    workloads.DIGESTS.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n",
                                 encoding="utf-8")


if __name__ == "__main__":
    main()
