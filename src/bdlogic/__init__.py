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

from .closure import (
    RULE_SETS,
    ClosureScaleError,
    ClosureUniverse,
    Rule,
    RuleReading,
    build_universe,
    close,
)
from .decision import (
    CONSEQUENCE_UNIVERSE_LIMIT,
    InconsistencyReport,
    consequences,
    decide,
    decide_bd,
    decide_bn,
    decide_gbd,
    decide_wbd,
    inconsistency_report,
)
from .plcore import (
    MAX_ATOMS,
    AtomLimitError,
    AtomUniverse,
    conjunction_mask,
    formula_for_class,
    is_contradiction,
    is_tautology,
    models_of,
    pl_entails,
    relevant_atoms,
    semantic_class,
    universe_for,
)
from .semantics import (
    CountermodelConstructionError,
    Model,
    ModelBD,
    ModelGBD,
    ModelWBD,
    ScaleLimitError,
    brute_force_consequences,
    brute_force_entails,
    construct_countermodel,
    count_models,
    enumerate_models,
    holds_all,
    model_to_dict,
    render_model,
    satisfies,
)
from .syntax import (
    And,
    Atom,
    Belief,
    Bottom,
    Disbelief,
    DocumentParseError,
    Formula,
    Iff,
    Implies,
    InformationSet,
    Not,
    Or,
    ParseError,
    Sentence,
    Top,
    atoms_of,
    parse_formula,
    parse_information_set,
    parse_sentence,
    render_document,
    render_formula,
    render_sentence,
)
from .metatheory import (
    REQUIRED_CASE_IDS,
    Disagreement,
    PropertyReport,
    generate_information_set,
    readings_agree,
    run_suite,
)
from .verdicts import LOGICS, LogicId, Rationale, Verdict

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # syntax
    "Atom", "Top", "Bottom", "Not", "And", "Or", "Implies", "Iff", "Formula",
    "Belief", "Disbelief", "Sentence", "InformationSet",
    "ParseError", "DocumentParseError", "atoms_of",
    "parse_formula", "parse_sentence", "parse_information_set",
    "render_formula", "render_sentence", "render_document",
    # propositional core
    "AtomUniverse", "AtomLimitError", "MAX_ATOMS", "models_of",
    "semantic_class", "conjunction_mask", "pl_entails", "is_tautology",
    "is_contradiction", "formula_for_class", "relevant_atoms", "universe_for",
    # verdicts
    "LOGICS", "LogicId", "Rationale", "Verdict",
    # semantics
    "ModelWBD", "ModelGBD", "ModelBD", "Model", "ScaleLimitError",
    "CountermodelConstructionError", "satisfies", "holds_all",
    "brute_force_entails", "brute_force_consequences", "enumerate_models",
    "count_models", "construct_countermodel", "render_model", "model_to_dict",
    # decision
    "decide", "decide_wbd", "decide_gbd", "decide_bd", "decide_bn",
    "consequences", "InconsistencyReport", "inconsistency_report",
    # closure
    "Rule", "RuleReading", "RULE_SETS", "ClosureUniverse", "ClosureScaleError",
    "build_universe", "close",
    # metatheory
    "run_suite", "PropertyReport", "REQUIRED_CASE_IDS",
    "generate_information_set", "Disagreement", "readings_agree",
]
