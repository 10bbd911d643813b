"""finord: decide properties of finite linear orders and their limits.

The pieces: a small two-sorted formula language over ordered power-set
structures, brute-force finite-model evaluation, a compilation of sentences
to word automata whose accepted lengths form ultimately periodic sets,
pebble-free back-and-forth games, and residue-style limit points that
complete the finite models.
"""

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
                            MinAtom, Not, Or, SetVar, Subset, Term, TrueF,
                            free_set_vars, free_vars, is_sentence,
                            quantifier_depths)
from .formula.parser import ParseError, format_formula, parse
from .formula.sugar import desugar, is_desugared, relativize
from .model import (FiniteModel, ResourceLimitError, canonical_iso_check,
                    evaluate, product, slow_evaluate)
from .upsets import (NormalFormDescriptor, UPSet, brute_force_oracle,
                     format_upset, from_normal_form, minkowski_sum,
                     minkowski_validity_bound, parse_upset, same_set,
                     to_normal_form, unary_dfa)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_STATE_CAP", "DUPLICATOR", "FALSE", "MAX", "MIN", "SPOILER",
    "TRUE", "UNDETERMINED", "And", "At", "AtomVar", "Bot", "Dfa", "Eq",
    "ExistsAtom", "ExistsSet", "Exle", "FalseF", "Fin", "FiniteModel",
    "ForallAtom", "ForallSet", "Formula", "Iff", "Implies",
    "Inf", "MaxAtom", "Mem", "MinAtom", "NormalFormDescriptor", "Not", "Or",
    "ParseError", "ResidueSpec", "ResourceLimitError", "SetVar", "Subset",
    "Table", "Term", "TrueF", "TypePoint", "UPSet", "Undetermined",
    "ZeroShift", "atomic_agreement", "base_automaton", "base_axioms",
    "brute_force_oracle", "build_comp", "build_psi", "build_rho",
    "build_sum", "canonical_iso_check", "clear_caches",
    "combine", "comp_samples", "compile", "complement", "concat", "conj",
    "crt_solve", "cylindrify", "desugar", "disj", "ef_equiv", "ef_winner",
    "effective_state_cap", "equivalent", "evaluate", "format_formula",
    "format_point", "format_upset", "free_set_vars", "free_vars",
    "from_normal_form", "induction_samples", "is_desugared", "is_sentence",
    "lasso_spectrum", "minimize", "minkowski_sum",
    "minkowski_validity_bound", "parse", "parse_point", "parse_upset",
    "point_models", "point_mul", "product", "project",
    "pseudofinite_valid", "quantifier_depths", "reconstruct", "relativize",
    "rep", "residue_extend", "same_set", "satisfiable_witness",
    "slow_evaluate", "spectrum", "succ_formula", "to_dot", "to_normal_form",
    "unary_dfa",
    "validate",
]
