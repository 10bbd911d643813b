"""finord: decide properties of finite linear orders and their limits.

The pieces: a small two-sorted formula language over ordered power-set
structures, brute-force finite-model evaluation, a compilation of sentences
to word automata whose accepted lengths form ultimately periodic sets,
pebble-free back-and-forth games, and residue-style limit points that
complete the finite models.
"""

from types import ModuleType as _Module

from .automata import (DEFAULT_STATE_CAP, Dfa, combine, complement, concat,
                       cylindrify, effective_state_cap, equivalent,
                       lasso_spectrum, minimize, project, to_dot)
from .compiler import base_automaton, clear_caches, compile, spectrum
from .completions import (UNDETERMINED, Fin, Inf, ResidueSpec, Table,
                          TypePoint, Undetermined, ZeroShift, crt_solve,
                          format_point, parse_point, point_models, point_mul,
                          pseudofinite_valid, rep, residue_extend,
                          satisfiable_witness, validate)
from .efgame import (DUPLICATOR, SPOILER, atomic_agreement, ef_equiv,
                     ef_winner)
from .formula.builders import (base_axioms, build_comp, build_psi, build_rho,
                               build_sum, comp_samples, conj, disj,
                               induction_samples, reconstruct, succ_formula)
from .formula.nodes import (FALSE, MAX, MIN, TRUE, And, At, AtomVar, Bot, Eq,
                            ExistsAtom, ExistsSet, Exle, FalseF, ForallAtom,
                            ForallSet, Formula, Iff, Implies, MaxAtom, Mem,
                            MinAtom, Not, Or, ResourceLimitError, SetVar,
                            Subset, Term, TrueF, free_set_vars, free_vars,
                            is_sentence)
from .formula.parser import ParseError, format_formula, parse
from .formula.sugar import desugar, is_desugared, relativize
from .model import (FiniteModel, canonical_iso_check, evaluate, product,
                    slow_evaluate)
from .upsets import (NormalFormDescriptor, UPSet, brute_force_oracle,
                     format_upset, from_normal_form, minkowski_sum,
                     minkowski_validity_bound, parse_upset, same_set,
                     to_normal_form, unary_dfa)

__version__ = "0.1.0"

# every name imported above, and no submodule
__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _Module)]
