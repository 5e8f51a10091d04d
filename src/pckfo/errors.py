"""Exception types shared across the package."""


class PckfoError(Exception):
    """Base class for all library errors."""


class CaptureError(PckfoError):
    """Substitution would capture a variable of the inserted term."""

    def __init__(self, var, term, binder):
        from .parser import print_term   # the parser imports this module
        super().__init__(
            f"substituting for '{var}' would capture a variable of"
            f" '{print_term(term)}' under the binder '{binder}'"
        )
        self.var = var
        self.term = term
        self.binder = binder


class ArityError(PckfoError):
    """A symbol was used with the wrong number of arguments."""


class RationalRangeError(PckfoError):
    """A probability bound fell outside [0, 1]."""


class ParseError(PckfoError):
    """Concrete-syntax error; carries the span of the offending token as
    str indices (characters, not bytes) into the parsed text."""

    def __init__(self, message, span):
        start, end = span
        super().__init__(f"{message} (at {start}..{end})")
        self.span = span


class SchemaError(PckfoError):
    """A structured model/proof document (or a model part built in code)
    violated its schema."""


class EvalError(PckfoError):
    """Evaluation failed (undeclared symbol, missing valuation entry, ...)."""


class NotMeasurable(PckfoError):
    """An event straddles an atom of the relevant algebra.

    Carries enough context to point at the offending probability-operator
    application: the formula whose extension was measured, the agent and
    state owning the probability space, and the straddled atom.
    """

    def __init__(self, agent, state, atom, formula=None):
        where = f"space of agent '{agent}' at state '{state}'"
        super().__init__(f"event straddles atom {sorted(atom)} in the {where}")
        self.agent = agent
        self.state = state
        self.atom = frozenset(atom)
        self.formula = formula


class SideConditionError(PckfoError):
    """Axiom-schema side condition violated at instantiation time."""


class BudgetError(PckfoError):
    """A search/enumeration budget is out of range or exceeds the cap."""


class NonSentenceError(PckfoError):
    """An operation that requires a sentence received an open formula."""


class ProofTransformError(PckfoError):
    """A proof transformation received an input it cannot rewrite."""
