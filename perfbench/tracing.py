"""Span tracing around bdlogic's layer boundaries, applied from outside.

``Tracer.install()`` wraps the public functions of each layer and rebinds
the name in every ``bdlogic`` module that imported it (for example
``decision.models_of`` as well as ``plcore.models_of``), plus the logic
table in ``decision``.  ``uninstall()`` puts the originals back; the pair
is cheap enough to toggle around single operations.  A span
opened while another span of the same name is open is not recorded, so a
recursive function (``models_of``) or a nested entry point (``decide``
calling ``decide_bd``) counts once, at its outermost call.

Spans live in flat in-memory arrays (name, start, end, parent) and are
written out by ``dump`` when the run ends; per-name calls, total and self
time (a span minus its recorded children) are kept as the spans close.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from array import array
from collections import defaultdict

# name -> [(module, attribute), ...]; the first entry is the defining one.
_FUNCTIONS = {
    "syntax.parse": [("syntax", "parse_formula"), ("syntax", "parse_sentence"),
                     ("syntax", "parse_information_set")],
    "syntax.render": [("syntax", "render_formula"), ("syntax", "render_sentence"),
                      ("syntax", "render_document")],
    "plcore.models_of": [("plcore", "models_of"), ("plcore", "semantic_class")],
    "plcore.relevant_atoms": [("plcore", "relevant_atoms")],
    "plcore.formula_for_class": [("plcore", "formula_for_class")],
    "decision.decide": [("decision", "decide"), ("decision", "decide_wbd"),
                        ("decision", "decide_gbd"), ("decision", "decide_bd"),
                        ("decision", "decide_bn")],
    "decision.consequences": [("decision", "consequences")],
    "decision.inconsistency_report": [("decision", "inconsistency_report")],
    "semantics.oracle": [("semantics", "brute_force_entails"),
                         ("semantics", "brute_force_consequences"),
                         ("semantics", "count_models")],
    "semantics.countermodel": [("semantics", "construct_countermodel")],
    "semantics.model_to_dict": [("semantics", "model_to_dict")],
    "semantics.render_model": [("semantics", "render_model")],
    "semantics.satisfies": [("semantics", "satisfies"), ("semantics", "holds_all")],
    "closure.close": [("closure", "close")],
    "metatheory.run_suite": [("metatheory", "run_suite")],
    "cli.main": [("cli", "main")],
}
# InformationSet members that re-sort the set on every read.
_ITER_MEMBERS = ("__iter__", "beliefs", "disbeliefs", "belief_bodies",
                 "disbelief_bodies", "dual_bodies")
LAYERS = ("syntax", "plcore", "decision", "semantics", "closure", "metatheory", "cli")


def _count_oracle_cells(tracer: "Tracer", args: tuple, kwargs: dict, result) -> None:
    """Model-grid cells one oracle call scans, from the universe size.

    The grid has one cell per (m, source) pair: S x S for gbd and
    S x (2^S - 1) families for wbd/bd, S = 2^(2^n) world sets.  An
    entailment or count scans it once; a consequence slice scans it once
    per class and kind, 2S times.
    """
    from bdlogic.syntax import atoms_of

    logic, gamma = args[0], args[1]
    universe = kwargs.get("universe") or next(
        (a for a in args[2:] if hasattr(a, "world_count")), None)
    if universe is not None:
        n = universe.n
    else:  # the oracle's own default: the atoms of gamma and the query
        bodies = [s.body for s in gamma.sentences] + [a.body for a in args[2:3]]
        n = len(set().union(*(atoms_of(b) for b in bodies)))
    sets = 1 << (1 << n)
    grid = sets * (sets if logic == "gbd" else (1 << sets) - 1)
    scans = 2 * sets if isinstance(result, frozenset) else 1
    tracer.counters["semantics.oracle_cells"] += grid * scans


def _count_world_bits(tracer: "Tracer", args: tuple, kwargs: dict, result) -> None:
    tracer.counters["plcore.world_bits"] += args[1].world_count


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("i")
        self.calls: dict[str, int] = defaultdict(int)
        self.total_ns: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.counters: dict[str, int] = defaultdict(int)
        self._stack: list[list[int]] = []  # [span index, child ns]
        self._open: dict[str, int] = defaultdict(int)
        self._patches: list[tuple[object, str, object, object]] = []

    # -- spans --------------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str, observe=None):
        """``fn`` with a span named ``name`` around each outermost call."""
        name_id = self._id(name)
        open_count = self._open
        stack = self._stack
        tracer = self

        def traced(*args, **kwargs):
            if open_count[name]:
                return fn(*args, **kwargs)
            index = len(tracer.span_name)
            tracer.span_name.append(name_id)
            tracer.span_parent.append(stack[-1][0] if stack else -1)
            tracer.span_end.append(0)
            frame = [index, 0]
            stack.append(frame)
            open_count[name] += 1
            start = time.perf_counter_ns()
            tracer.span_start.append(start)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer.counters[f"{name}.raised.{type(exc).__name__}"] += 1
                raise
            finally:
                end = time.perf_counter_ns()
                open_count[name] -= 1
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                tracer.span_end[index] = end
                tracer.calls[name] += 1
                tracer.total_ns[name] += duration
                tracer.self_ns[name] += duration - frame[1]
            if observe is not None:
                observe(tracer, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installation -------------------------------------------------------

    def _plan(self) -> list[tuple[object, str, object, object]]:
        """(owner, attribute, original, traced) for every rebinding."""
        from bdlogic import decision, syntax

        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "bdlogic" or n.startswith("bdlogic."))]
        observers = {"plcore.models_of": _count_world_bits,
                     "semantics.oracle": _count_oracle_cells}
        plan = []
        for name, targets in _FUNCTIONS.items():
            for module_name, attr in targets:
                original = getattr(sys.modules[f"bdlogic.{module_name}"], attr)
                traced = self.wrap(original, name, observers.get(name))
                plan += [(module, key, original, traced) for module in modules
                         for key, value in vars(module).items() if value is original]
                plan += [(decision._DECIDERS, logic, original, traced)
                         for logic, value in decision._DECIDERS.items() if value is original]
        info = syntax.InformationSet
        for member in _ITER_MEMBERS:
            current = info.__dict__[member]
            if isinstance(current, property):
                traced = property(self.wrap(current.fget, "syntax.iter"))
            else:
                traced = self.wrap(current, "syntax.iter")
            plan.append((info, member, current, traced))
        universe = sys.modules["bdlogic.plcore"].AtomUniverse
        init = universe.__dict__["__init__"]
        plan.append((universe, "__init__", init, self.wrap(init, "plcore.universe")))
        return plan

    @staticmethod
    def _apply(plan, index: int) -> None:
        for entry in plan:
            owner, attr, value = entry[0], entry[1], entry[index]
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)

    def install(self) -> None:
        """Rebind every traced name; cheap after the first call."""
        if not self._patches:
            self._patches = self._plan()
        self._apply(self._patches, 3)

    def uninstall(self) -> None:
        self._apply(self._patches, 2)

    # -- results ------------------------------------------------------------

    def layer_self_ns(self) -> dict[str, int]:
        out = {layer: 0 for layer in LAYERS}
        for name, ns in self.self_ns.items():
            out[name.split(".", 1)[0]] += ns
        return out

    def summary(self) -> dict:
        return {
            name: {"calls": self.calls[name], "total_ms": self.total_ns[name] / 1e6,
                   "self_ms": self.self_ns[name] / 1e6}
            for name in sorted(self.calls)
        }

    def dump(self, path) -> None:
        """Write the spans: a JSON header line, then the four arrays' raw bytes.

        The header names the arrays in order with their typecodes and
        lengths; a span's parent is an index into the same arrays (-1 for a
        root), and times are ``perf_counter_ns`` values.
        """
        arrays = {"name": self.span_name, "start": self.span_start,
                  "end": self.span_end, "parent": self.span_parent}
        header = {"names": self.names, "spans": len(self.span_name),
                  "arrays": [[key, a.typecode, a.itemsize] for key, a in arrays.items()],
                  "byteorder": sys.byteorder, "summary": self.summary(),
                  "counters": dict(self.counters)}
        with gzip.open(path, "wb", compresslevel=1) as fh:
            fh.write(json.dumps(header).encode("utf-8") + b"\n")
            for a in arrays.values():
                fh.write(a.tobytes())
