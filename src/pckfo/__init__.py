"""First-order epistemic-probabilistic logic toolkit: parsing, evaluation
over finite measurable Kripke-probability models, Hilbert-style proof
checking with bounded certificates for the infinitary rules, and brute-force
validity/satisfiability search at desk scale."""

from .errors import (
    BudgetError, CaptureError, EvalError, NonSentenceError, NotMeasurable,
    ParseError, PckfoError, ProofTransformError, SchemaError,
    SideConditionError,
)
from .syntax import (
    And, App, Atom, CommonKnows, CommonProb, EveryoneKnows, EveryoneProb,
    Forall, Guard, Knows, NestedImplicationSpec, Not, ProbAtLeast, Var,
    disj, exists, expand_abbrev, free_vars, iff, implies, is_free_for,
    is_sentence, iterate_everyone, knows_prob, nested_implication,
    prob_common_stage, prob_eq, prob_gt, prob_le, prob_lt, substitute, top,
    bot,
)
from .model import Model, ProbSpace, classify, measure, validate
from .parser import (
    model_to_doc, model_to_json, parse_formula, parse_model, parse_proof,
    print_formula, print_term, proof_to_doc, proof_to_json, load_model,
    load_proof, parse_term,
)
from .evaluator import Evaluator, Program, eval_term, extension, satisfies
from .axioms import AxiomInstance, instantiate, match_axiom, tautology_check
from .proofcheck import (
    Certificate, Proof, ProofBuilder, Step, check, deduction_transform,
    strong_necessitation_transform,
)
from .oracle import (
    SearchBudget, enumerate_models, expected_invalid_counterexample,
    find_model, fuzz_soundness, noncompactness_demo, random_models,
    targeted_class_models, validity_suite,
)
from .report import CheckReport

__version__ = "0.1.0"
