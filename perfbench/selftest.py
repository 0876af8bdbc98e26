"""Self-test of the benchmark's checker.

    python3 perfbench/selftest.py

1. A tampered verdict (every ``bd`` decision inverted) must make ``check``
   report failed operations.
2. A tampered recorded digest must make the warm-up report a failure.
3. A tampered recorded check count of a ``meta-quick`` case must make a
   suite with a seed other than 0 fail its checks.
4. A one-second smoke run of every workload, untraced and traced, must
   print every metric named in ``BENCHMARK.json`` with its unit, and no
   failures.

Exits 0 when all four hold.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run as bench  # noqa: E402
import workloads  # noqa: E402
from bdlogic import decision  # noqa: E402


def tampered_verdict_fails() -> bool:
    run = bench.Run()
    workload = bench.set_up("check", 3, run)
    clean = run.failed
    original = decision._DECIDERS["bd"]

    def inverted(*args, **kwargs):
        verdict = original(*args, **kwargs)
        return dataclasses.replace(verdict, entailed=not verdict.entailed)

    decision._DECIDERS["bd"] = inverted
    try:
        bench.measure(workload, 2.0, bench.Tally(workload, run), bench.Speed())
    finally:
        decision._DECIDERS["bd"] = original
    print(f"tampered verdict: clean warm-up failed={clean}, "
          f"after tampering failed={run.failed} of {run.attempted}")
    return clean == 0 and run.failed > clean


def tampered_digest_fails() -> bool:
    recorded = workloads.recorded_digests()
    tampered = json.loads(json.dumps(recorded))
    first = tampered["slices"]["golden"][0]
    tampered["slices"]["golden"][0] = ("0" if first[0] != "0" else "1") + first[1:]
    workloads.recorded_digests = lambda: tampered
    try:
        run = bench.Run()
        bench.set_up("slices", 3, run)
    finally:
        workloads.recorded_digests = lambda: recorded
    print(f"tampered digest: failed={run.failed} of {run.attempted}")
    return run.failed > 0


def tampered_case_count_fails() -> bool:
    recorded = workloads.recorded_digests()
    tampered = json.loads(json.dumps(recorded))
    case_id = next(c for c in workloads.GOLDEN_CASES
                   if recorded["meta-quick"]["cases"][c][1] is not None)
    tampered["meta-quick"]["cases"][case_id][1] += 1
    workload = workloads.MetaQuickWorkload(5, 1)
    cases = workload.run(5000, workloads.GOLDEN_CASES)
    clean = workload.verify(5000, cases)[0]
    workloads.recorded_digests = lambda: tampered
    try:
        errors = workload.verify(5000, cases)[0]
    finally:
        workloads.recorded_digests = lambda: recorded
    print(f"tampered case count ({case_id}): clean errors={len(clean)}, "
          f"after tampering errors={len(errors)}")
    return not clean and bool(errors)


def smoke_runs() -> bool:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ok = True
    for workload in spec["workloads"]:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, *spec["command"][1:], "--workload", workload["name"],
                 "--seed", "5", "--seconds", "1", "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=180)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            missing = [m["name"] for m in spec[group]
                       if result["metrics"].get(m["name"], {}).get("unit") != m["unit"]]
            extra = sorted(set(result["metrics"]) - {m["name"] for m in spec[group]})
            good = proc.returncode == 0 and result["correct"] and not missing and not extra
            ok &= good
            print(f"smoke {workload['name']} trace={trace}: exit {proc.returncode}, "
                  f"correct={result['correct']}, missing={missing}, extra={extra}")
    return ok


def main() -> int:
    results = [tampered_verdict_fails(), tampered_digest_fails(),
               tampered_case_count_fails(), smoke_runs()]
    print("selftest:", "pass" if all(results) else "FAIL")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
