"""The bdlogic benchmark.

    python3 perfbench/run.py --workload {check,slices,meta-quick} --seed N \
        --seconds S --trace {0,1}

Run from the root of a bdlogic checkout; the package is imported from
``src/``.  One process, no threads, one closed-loop client: each operation
starts when the previous one has returned.  Inputs come from ``--seed``
(see ``gen.py``); every output is checked (see ``workloads.py``).

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` runs each
operation twice, untraced and traced (``tracing.py``) back to back, and
reports per-layer metrics per operation plus the tracing overhead; the
spans go to ``.bench_out/``.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  Lines
before it, starting with ``#``, give sample counts, tail percentiles, the
error share with its base and the full per-layer table.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

T_START = time.perf_counter()
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# gen.reference_work() takes about this long on the machine the bounds were
# set on (a 2-core VM, Python 3.11); times are scaled to that speed.
REFERENCE_MS = 6.0
SPEED_EVERY_S = 0.2
# The reference spawn (see Spawns): interpreter start-up, imports of numpy and
# standard-library modules (none of bdlogic), then gen.reference_work() 40
# times.  It prints the time of the last part.  On the machine the bounds were
# set on its start-up part takes about REFERENCE_START_MS, the whole spawn
# about REFERENCE_SPAWN_S.
REFERENCE_SPAWN_CODE = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "import numpy, argparse, dataclasses, decimal, json, email.parser, http.client\n"
    "sys.path.insert(0, {here!r})\n"
    "import gen\n"
    "t1 = time.perf_counter()\n"
    "for _ in range(40):\n"
    "    gen.reference_work()\n"
    "print(time.perf_counter() - t1)\n")
REFERENCE_START_MS = 230.0
REFERENCE_SPAWN_S = 0.5
SPAWN_ROUNDS = 10
IMPORT_SPAWNS = 5
# Operations the peak-memory probe runs unchecked: about 1.5 s of check
# requests or slices, or the two oracle-agreement cases of one suite.
RSS_PROBE_OPS = {"check": 200, "slices": 200, "meta-quick": 1}
# p99 is left out: its threshold of 1000 samples lies inside the normal range
# of the check workload's small band, so the reported percentile would
# change from run to run.
TAIL_LADDER = (95.0, 90.0, 75.0)
# Per-layer metrics for the JSON line: names that do work on every workload.
LAYER_TIMES = ("syntax.parse", "syntax.render", "syntax.iter", "plcore.models_of",
               "plcore.universe", "decision.decide", "decision.inconsistency_report")
LAYER_SHARES = ("syntax", "plcore", "decision")


def _percentile(values: list[float], p: float) -> float:
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))  # nearest rank
    return ordered[int(rank) - 1]


def tail(values: list[float]) -> tuple[float, str]:
    """The highest ladder percentile with at least ten samples beyond it.

    With fewer than 40 samples no percentile qualifies and p75 is reported
    (the maximum for three samples or fewer): on ``meta-quick``'s four to
    six oracle cases a run, the maximum alone followed single bursts of
    machine noise and spread two to three times as much between runs.
    """
    for p in TAIL_LADDER:
        if len(values) * (100 - p) / 100 >= 10:
            return _percentile(values, p), f"p{p:g}"
    return _percentile(values, 75.0), "p75"


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _spawn(args: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=_env(),
                          stdin=subprocess.DEVNULL, capture_output=True, text=True,
                          timeout=120)
    return time.perf_counter() - start, proc


class Run:
    """Counts operations and failures; keeps the first few error messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, what: str, errors: list[str]) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(f"{what}: {'; '.join(errors)}")


def set_up(workload_name: str, seed: int, run: Run):
    """Import, generate the inputs, warm up on the golden inputs."""
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads  # noqa: E402  (imports bdlogic)

    workload = workloads.WORKLOADS[workload_name](seed)
    expected = workloads.recorded_digests()[workload_name]["golden"]
    golden = workload.golden()
    if len(golden) != len(expected):
        run.record("golden", [f"{len(golden)} golden outputs, {len(expected)} recorded"])
    for i, ((digest, item, result), want) in enumerate(zip(golden, expected)):
        errors = [] if digest == want else ["output differs from the recorded digest"]
        errors += workload.verify(item, result)[0]
        run.record(f"golden {i}", errors)
    return workload


class Speed:
    """Times ``gen.reference_work()`` every 0.2 s between operations.

    The machine's speed drifts by a third and more within seconds and over
    minutes (other tenants share the host), far beyond any useful bound.
    Each operation's time is scaled by ``REFERENCE_MS`` over the reference
    time measured around it, so the figures read as if taken at a fixed
    speed.  The reference work is the benchmark's own code, so a change to
    bdlogic cannot move it.
    """

    def __init__(self) -> None:
        import gen

        self._work = gen.reference_work
        self.samples: list[tuple[float, float]] = []  # (midpoint, ms)
        self.spent = 0.0
        self._due = 0.0
        for _ in range(3):  # warm-up
            self.sample()
        self.samples[:-1] = []

    def sample(self) -> float:
        """Time the reference work once; returns the speed factor it gives."""
        gc.disable()  # a collection would time the heap of whichever workload runs
        try:
            start = time.perf_counter()
            self._work()
            end = time.perf_counter()
        finally:
            gc.enable()
        self.samples.append(((start + end) / 2, (end - start) * 1000.0))
        self.spent += end - start
        self._due = end + SPEED_EVERY_S
        return REFERENCE_MS / self.samples[-1][1]

    def sample_if_due(self) -> None:
        if time.perf_counter() >= self._due:
            self.sample()

    def scale(self, t0: float | None = None, t1: float | None = None) -> float:
        """Scale for times taken in ``[t0, t1]``; for the whole run if omitted.

        Uses the samples inside the interval, or the three nearest its
        midpoint when fewer than three fall inside.
        """
        if t0 is None:
            return REFERENCE_MS / statistics.median(ms for _, ms in self.samples)
        inside = [ms for t, ms in self.samples if t0 <= t <= t1]
        if len(inside) < 3:
            mid = (t0 + t1) / 2
            inside = [ms for _, ms in sorted(self.samples, key=lambda s: abs(s[0] - mid))[:3]]
        return REFERENCE_MS / statistics.median(inside)


class Tally:
    """Checks and summarises each operation as it completes, off the clock.

    Only the summary is kept, so the process's memory is the program's and
    the inputs', not a backlog of outputs.
    """

    def __init__(self, workload, run: Run) -> None:
        self.workload = workload
        self.run = run
        self.ops = 0
        self.decided = 0
        self.timed: list[tuple[str, float, float | None, float, float]] = []  # class, ms, factor, start, end
        self.busy: list[tuple[float, float, float]] = []  # each operation: ms, start, end
        self.output_bytes = 0
        self.case_walls: dict[str, list[float]] = {}

    def add(self, item, result, ms: float, t0: float, t1: float) -> None:
        workload = self.workload
        errors, ok = workload.verify(item, result)
        self.run.record(f"op {self.ops}", errors)
        self.ops += 1
        self.decided += ok
        self.timed += [(klass, value, factor, t0, t1)
                       for klass, value, factor in workload.samples(item, result, ms)]
        self.busy.append((ms, t0, t1))
        if workload.name == "check":
            self.output_bytes += len(result[1].encode("utf-8"))
        elif workload.name == "meta-quick":
            for case_id, report, _, _ in result:
                self.case_walls.setdefault(case_id, []).append(report.results[0].wall_ms)


def measure(workload, seconds: float, tally: Tally, speed: Speed, pauses=()) -> float:
    """Closed loop over the workload's stream until ``seconds`` pass.

    The stream starts over if it runs out.  ``pauses`` are callables run
    between operations at evenly spaced points of the run, so that what
    they time samples the same stretch of machine time as the operations.
    Their duration, the tally's and the speed samples' is excluded from
    the elapsed time.
    """
    start = time.perf_counter()
    due = [start + seconds * (k + 0.5) / len(pauses) for k in range(len(pauses))]
    pending = list(pauses)
    paused = 0.0
    for item in itertools.cycle(workload.items):
        inside = speed.spent
        t0 = time.perf_counter()
        result = workload.run(item)
        now = time.perf_counter()
        inside = speed.spent - inside  # samples taken between a suite's cases
        paused += inside
        tally.add(item, result, (now - t0 - inside) * 1000.0, t0, now)
        speed.sample_if_due()
        while pending and now >= due[0]:
            due.pop(0)
            pending.pop(0)()
        paused += time.perf_counter() - now
        if time.perf_counter() - paused >= start + seconds:
            break
    end = time.perf_counter()
    speed.sample()
    for pause in pending:
        pause()
    return end - start - paused


def measure_pairs(workload, tracer, seconds: float, run: Run, speed: Speed):
    """Each operation untraced and traced, back to back, in alternating order.

    Pairs cancel the machine's drift out of the overhead estimate; the
    alternation cancels the advantage of running second.  Returns the two
    tallies and the time each side spent in operations.
    """
    tallies = {False: Tally(workload, run), True: Tally(workload, run)}
    spent = {False: 0.0, True: 0.0}
    deadline = time.perf_counter() + seconds
    for index, item in enumerate(itertools.cycle(workload.items)):
        results = {}
        for on in ((False, True) if index % 2 == 0 else (True, False)):
            if on:
                tracer.install()
            inside = speed.spent
            try:
                t0 = time.perf_counter()
                results[on] = workload.run(item)
                elapsed = time.perf_counter() - t0
            finally:
                if on:
                    tracer.uninstall()
            elapsed -= speed.spent - inside
            spent[on] += elapsed
            tallies[on].add(item, results[on], elapsed * 1000.0, t0, t0 + elapsed)
        if workload.name == "check" and results[False][:2] != results[True][:2]:
            run.record(f"traced op {index}", ["output changed under tracing"])
        speed.sample_if_due()
        if time.perf_counter() >= deadline:
            speed.sample()
            return tallies[False], tallies[True], spent[False], spent[True]


def latency_metrics(tally: Tally, elapsed: float, speed: Speed) -> tuple[dict, list[str]]:
    """Latencies and throughput, each operation scaled by the speed around it."""
    metrics, notes = {}, []
    for k in ("light", "heavy"):
        samples = [s for s in tally.timed if s[0] == k]
        raw = [ms for _, ms, _, _, _ in samples]
        values = [ms * (speed.scale(t0, t1) if factor is None else factor)
                  for _, ms, factor, t0, t1 in samples]
        value, label = tail(values)
        metrics[f"{k}_p50_ms"] = statistics.median(values)
        metrics[f"{k}_tail_ms"] = value
        notes.append(f"# {k}: n={len(values)} p50={metrics[f'{k}_p50_ms']:.3f} ms, "
                     f"tail={label} ({value:.3f} ms); unscaled p50={statistics.median(raw):.3f} ms, "
                     f"{label}={tail(raw)[0]:.3f} ms")
    busy = sum(ms for ms, _, _ in tally.busy)
    scaled_busy = sum(ms * speed.scale(t0, t1) for ms, t0, t1 in tally.busy)
    metrics["ops_per_s"] = tally.ops / (elapsed * scaled_busy / busy)
    notes.append(f"# ops: {tally.ops} in {elapsed:.2f} s ({tally.ops / elapsed:.3f}/s unscaled)")
    return metrics, notes


class Spawns:
    """Cold checks and set-up probes, each paired with a reference spawn.

    One round spawns ``python -m bdlogic check <file> ... --json`` (whose output
    must equal the in-process output) and a reference spawn, and every
    other round a set-up probe (this script with ``--setup-only``), back to
    back in rotating order.  Fresh processes do not follow the in-process
    reference work's pace (see ``Speed``), but they do follow a reference
    spawn's: over minutes the ratios moved by a quarter to a half of what
    the raw times did.
    ``cold_check_ms`` is the median ratio of a cold check to the reference
    spawn's start-up part, times ``REFERENCE_START_MS``; ``setup_s`` the
    median ratio of a probe's set-up to the whole reference spawn, times
    ``REFERENCE_SPAWN_S``.
    """

    def __init__(self, workload, workload_name: str, seed: int, run: Run) -> None:
        import workloads

        owner = workload
        if not isinstance(workload, workloads.CheckWorkload):
            owner = workloads.CheckWorkload(0, count=20)
        req = owner.cold_request()
        self.cold_args = ["-m", "bdlogic", *owner.argv(req)]
        self.expected = owner.run(req)[:2]
        self.probe_args = [str(HERE / "run.py"), "--workload", workload_name, "--seed",
                           str(seed), "--seconds", "0", "--trace", "0", "--setup-only"]
        self.run = run
        self.rounds: list[dict] = []
        self.round()  # warm-up: fills the file cache, discarded
        self.rounds.clear()

    def _cold(self) -> dict:
        seconds, proc = _spawn(self.cold_args)
        errors = [] if (proc.returncode, proc.stdout) == self.expected else [
            f"spawned exit {proc.returncode} differs from in-process {self.expected[0]}"]
        self.run.record("cold spawn", errors)
        return {"cold_ms": seconds * 1000.0}

    def _probe(self) -> dict:
        _, proc = _spawn(self.probe_args)
        try:
            probe = json.loads(proc.stdout.strip().splitlines()[-1])
            errors = [] if probe["failed"] == 0 else [f"probe failed {probe['failed']} checks"]
            self.run.record("setup probe", errors)
            return {"setup_s": probe["setup_s"]}
        except (ValueError, IndexError, KeyError):
            self.run.record("setup probe", [f"exit {proc.returncode}: {proc.stderr[-300:]!r}"])
            return {}

    def _reference(self) -> dict:
        seconds, proc = _spawn(["-c", REFERENCE_SPAWN_CODE.format(here=str(HERE))])
        compute = float(proc.stdout)
        return {"ref_start_ms": (seconds - compute) * 1000.0, "ref_s": seconds}

    def round(self) -> None:
        jobs = [self._cold, self._reference]
        if len(self.rounds) % 2 == 0:
            jobs.append(self._probe)
        k = len(self.rounds) % len(jobs)
        sample: dict = {}
        for job in jobs[k:] + jobs[:k]:
            sample.update(job())
        self.rounds.append(sample)

    def metrics(self) -> tuple[dict, list[str]]:
        def median(key: str) -> float:
            return statistics.median(r[key] for r in self.rounds if key in r)

        probed = [r for r in self.rounds if "setup_s" in r]
        cold = REFERENCE_START_MS * statistics.median(
            r["cold_ms"] / r["ref_start_ms"] for r in self.rounds)
        setup = REFERENCE_SPAWN_S * statistics.median(r["setup_s"] / r["ref_s"] for r in probed)
        notes = [f"# spawns: {len(self.rounds)} rounds; unscaled medians: cold check "
                 f"{median('cold_ms'):.1f} ms, set-up {median('setup_s'):.3f} s; reference "
                 f"spawn {median('ref_s'):.3f} s, its start-up {median('ref_start_ms'):.1f} ms"]
        return {"cold_check_ms": cold, "setup_s": setup}, notes


def rss_probe(workload_name: str, seed: int) -> None:
    """Run the stream's first operations unchecked; print the peak RSS in MB.

    No golden checks, no reference answers and only the probed part of the
    stream: the figure is the program's memory, not the checker's.
    """
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads  # noqa: E402  (imports bdlogic)

    count = RSS_PROBE_OPS[workload_name]
    workloads.WORKLOADS[workload_name](seed, count).probe(count)
    print(_own_peak_kb() / 1024.0)


def _own_peak_kb() -> float:
    """This process's peak RSS in KiB, from ``VmHWM`` where Linux has it.

    A spawned child's ``ru_maxrss`` can start at its parent's peak (Linux
    keeps the pre-exec high-water mark), so it would report the parent's
    memory; ``VmHWM`` belongs to the child's own address space.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return float(line.split()[1])
    except OSError:
        pass
    return float(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def peak_rss_mb(workload_name: str, seed: int, run: Run) -> float | None:
    _, proc = _spawn([str(HERE / "run.py"), "--workload", workload_name, "--seed", str(seed),
                      "--seconds", "0", "--rss-probe"])
    try:
        return float(proc.stdout)
    except ValueError:
        run.record("memory probe", [f"exit {proc.returncode}: {proc.stderr[-300:]!r}"])
        return None


def import_ms() -> float:
    code = ("import time; t = time.perf_counter(); import bdlogic.cli; "
            "print((time.perf_counter() - t) * 1000)")
    return statistics.median(float(_spawn(["-c", code])[1].stdout) for _ in range(IMPORT_SPAWNS))


def layer_metrics(tracer, tally: Tally, untraced_s: float, traced_s: float,
                  speed: Speed) -> tuple[dict, list[str]]:
    """Per-operation layer figures; times scaled by the run's median speed."""
    from tracing import LAYERS

    ops = tally.ops

    def self_ms(name: str) -> float:
        return tracer.self_ns[name] / 1e6 / ops * speed.scale()

    metrics = {}
    for name in LAYER_TIMES:
        metrics[f"{name}_calls"] = tracer.calls[name] / ops
        metrics[f"{name}_ms"] = self_ms(name)
    metrics["plcore.world_bits"] = tracer.counters["plcore.world_bits"] / ops
    shares = tracer.layer_self_ns()
    traced_ns = traced_s * 1e9
    for layer in LAYER_SHARES:
        metrics[f"{layer}.self_pct"] = 100.0 * shares[layer] / traced_ns
    metrics["cli.import_ms"] = import_ms()
    metrics["trace.overhead_pct"] = 100.0 * (traced_s / untraced_s - 1.0)

    notes = [f"# traced ops: {ops}; untraced {untraced_s:.3f} s, traced {traced_s:.3f} s, "
             f"overhead {metrics['trace.overhead_pct']:.1f}%; spans: {len(tracer.span_name)}",
             "# waiting: 0 ms in every layer (no layer has a queue or a lock)",
             "# layer self time, share of traced wall time: " + ", ".join(
                 f"{layer} {100.0 * shares[layer] / traced_ns:.1f}%" for layer in LAYERS),
             "# per operation: name calls total_ms self_ms"]
    for name, row in tracer.summary().items():
        notes.append(f"#   {name} {row['calls'] / ops:.3f} {row['total_ms'] / ops:.4f} "
                     f"{row['self_ms'] / ops:.4f}")
    for name, value in sorted(tracer.counters.items()):
        notes.append(f"#   counter {name} {value / ops:.3f}")
    notes.append("# per operation, the named layer figures outside the JSON line "
                 "(0 where the layer does no work here; self times scaled):")
    for name, value in (
            ("plcore.formula_for_class_ms", self_ms("plcore.formula_for_class")),
            ("decision.consequences_ms", self_ms("decision.consequences")),
            ("semantics.oracle_calls", tracer.calls["semantics.oracle"] / ops),
            ("semantics.oracle_ms", self_ms("semantics.oracle")),
            ("semantics.oracle_cells", tracer.counters["semantics.oracle_cells"] / ops),
            ("semantics.countermodel_ms", self_ms("semantics.countermodel")),
            ("semantics.model_to_dict_ms", self_ms("semantics.model_to_dict")),
            ("closure.close_calls", tracer.calls["closure.close"] / ops),
            ("closure.close_ms", self_ms("closure.close")),
            ("closure.refused",
             tracer.counters["closure.close.raised.ClosureScaleError"] / ops),
            ("metatheory.self_ms", self_ms("metatheory.run_suite")),
            ("cli.main_self_ms", self_ms("cli.main")),
            ("cli.output_bytes", tally.output_bytes / ops)):
        notes.append(f"#   {name} {value:.4f}")
    for case_id, walls in sorted(tally.case_walls.items()):
        notes.append(f"#   case {case_id} wall_ms {statistics.median(walls):.1f}")
    return metrics, notes


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["check", "slices", "meta-quick"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--rss-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if not (SRC / "bdlogic" / "__init__.py").is_file():
        print(f"error: no bdlogic sources under {SRC}", file=sys.stderr)
        return 2
    if args.rss_probe:
        rss_probe(args.workload, args.seed)
        return 0

    run = Run()
    workload = set_up(args.workload, args.seed, run)
    setup_s = time.perf_counter() - T_START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "failed": run.failed}))
        return 0
    setup_notes = [f"# set-up of this process: {setup_s:.3f} s (unscaled)"]
    if hasattr(workload, "write_stream"):
        start = time.perf_counter()
        files = workload.write_stream()
        setup_notes.append(f"# documents: {files} files written in "
                           f"{time.perf_counter() - start:.3f} s, outside set-up")
    speed = Speed()
    if hasattr(workload, "between"):
        workload.between = speed.sample
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        _, traced, untraced_s, traced_s = measure_pairs(workload, tracer, args.seconds, run, speed)
        metrics, notes = layer_metrics(tracer, traced, untraced_s, traced_s, speed)
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        span_file = out_dir / f"spans-{args.workload}-seed{args.seed}.bin.gz"
        tracer.dump(span_file)
        notes.append(f"# spans written to {span_file.relative_to(ROOT)}")
    else:
        spawns = Spawns(workload, args.workload, args.seed, run)
        tally = Tally(workload, run)
        elapsed = measure(workload, args.seconds, tally, speed,
                          pauses=[spawns.round] * SPAWN_ROUNDS)
        own_peak_mb = _own_peak_kb() / 1024.0
        metrics, notes = latency_metrics(tally, elapsed, speed)
        metrics["decided_share"] = tally.decided / tally.ops
        notes.append(f"# decided: {tally.decided} of {tally.ops} operations")
        spawn_metrics, spawn_notes = spawns.metrics()
        metrics.update(spawn_metrics)
        notes += spawn_notes
        probe_mb = peak_rss_mb(args.workload, args.seed, run)
        if probe_mb is not None:
            metrics["peak_rss_mb"] = probe_mb
        notes.append(f"# peak RSS: memory probe {probe_mb} MB; this process, "
                     f"checker included, {own_peak_mb:.1f} MB")

    for line in setup_notes + notes:
        print(line)
    print(f"# error_share: {run.failed} of {run.attempted} operations "
          f"({run.failed / run.attempted:.4f})")
    for message in run.messages:
        print(f"# error: {message}")
    print(f"# speed: reference work took {REFERENCE_MS / speed.scale():.3f} ms "
          f"(median of {len(speed.samples)}), scale {speed.scale():.4f}")
    units = {"_per_s": "1/s", "_ms": "ms", "_s": "s", "_mb": "MB", "_pct": "%",
             "_share": "share", "_calls": "1/op", "world_bits": "bits/op"}
    out = {}
    for name, value in metrics.items():
        unit = next(u for suffix, u in units.items() if name.endswith(suffix))
        if args.trace and name.endswith("_ms") and name != "cli.import_ms":
            unit = "ms/op"
        out[name] = {"value": value, "unit": unit}
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
