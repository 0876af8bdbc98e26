"""Reasoning with beliefs and disbeliefs.

Four propositional logics over two-sorted information sets (``B: f`` /
``D: f``), each with a different story about what licenses disbelief:

* ``wbd`` — disbelieve only what implies something already disbelieved;
* ``gbd`` — pool all disbelief evidence into one source;
* ``bd``  — let the beliefs participate in refutations;
* ``bn``  — disbelief is just belief in the negation.

The package offers syntactic decision procedures (:mod:`bdlogic.decision`),
an independent brute-force model-enumeration oracle
(:mod:`bdlogic.semantics`), inference-rule closure over small universes
(:mod:`bdlogic.closure`), a cross-validation property suite
(:mod:`bdlogic.metatheory`), worked scenarios (:mod:`bdlogic.fixtures`),
and a CLI (``bdl``).
"""

from importlib import import_module

__version__ = "0.1.0"

# Each exported name under the module that defines it.  ``import bdlogic``
# loads none of them; the first read of a name imports its module.  The name
# is read from that module every time and no copy is kept here, so a name
# rebound there (by a test's monkeypatch or the benchmark's tracer) is what
# the package gives too.
_EXPORTS = {
    "syntax": (
        "Atom", "Top", "Bottom", "Not", "And", "Or", "Implies", "Iff", "Formula",
        "Belief", "Disbelief", "Sentence", "InformationSet",
        "ParseError", "DocumentParseError", "atoms_of",
        "parse_formula", "parse_sentence", "parse_information_set",
        "render_formula", "render_sentence", "render_document",
    ),
    "plcore": (
        "AtomUniverse", "AtomLimitError", "MAX_ATOMS", "models_of",
        "semantic_class", "conjunction_mask", "pl_entails", "is_tautology",
        "is_contradiction", "formula_for_class", "relevant_atoms", "universe_for",
    ),
    "verdicts": ("LOGICS", "LogicId", "Rationale", "Verdict"),
    "semantics": (
        "ModelWBD", "ModelGBD", "ModelBD", "Model", "ScaleLimitError",
        "CountermodelConstructionError", "satisfies", "holds_all",
        "brute_force_entails", "brute_force_consequences", "enumerate_models",
        "count_models", "construct_countermodel", "render_model", "model_to_dict",
    ),
    "decision": (
        "decide", "decide_wbd", "decide_gbd", "decide_bd", "decide_bn",
        "consequences", "CONSEQUENCE_UNIVERSE_LIMIT", "InconsistencyReport",
        "inconsistency_report",
    ),
    "closure": (
        "Rule", "RuleReading", "RULE_SETS", "ClosureUniverse", "ClosureScaleError",
        "build_universe", "close",
    ),
    "metatheory": (
        "run_suite", "PropertyReport", "REQUIRED_CASE_IDS",
        "generate_information_set", "Disagreement", "readings_agree",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_HOME]


def __getattr__(name: str):
    # an unknown name raises, so ``from bdlogic import closure`` goes on to
    # import the submodule
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_HOME[name]}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
