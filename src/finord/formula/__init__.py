"""Surface language: AST, parsing, printing, sugar removal, builders."""

from types import ModuleType as _Module

from .nodes import (AtomVar, BOT, Bot, Eq, Exle, ExistsAtom, ExistsSet, FALSE,
                    FalseF, ForallAtom, ForallSet, Formula, And, At, Iff,
                    Implies, MAX, MIN, MaxAtom, Mem, MinAtom, Not, Or, SetVar,
                    Subset, Term, TRUE, TrueF, all_identifiers, free_set_vars,
                    free_vars, is_sentence, subformulas, terms_of)
from .parser import ParseError, format_formula, parse
from .sugar import desugar, is_desugared, relativize
from .builders import (base_axioms, build_comp, build_psi, build_rho,
                       build_sum, comp_samples, conj, disj,
                       induction_samples, reconstruct, succ_formula)

# every name imported above, and no submodule
__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _Module)]
