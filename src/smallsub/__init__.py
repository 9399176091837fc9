"""smallsub: strength, regular sequences, and small subalgebras of
polynomial rings, with exact certificates at desk scale."""

from .bounds import (BoundTable, B_recursion, cubic_eta_A, default_cubic_B3,
                     eta_A_i, phi, quadric_B, quadric_thresholds, stillman_C)
from .budget import Budget, BudgetExceededError, DEFAULT_BUDGET, InternalError
from .certify import (RetaCertificate, check_reta, determinant,
                      is_regular_sequence, minors_height_check, minors_ideal,
                      singular_locus_codim)
from .descent import (DescentStep, DescentTrace, ThresholdPolicy,
                      compare_sequences, descend_step, small_subalgebra,
                      subalgebra_membership)
from .fields import GF, QQ, CoefficientField, parse_field_spec
from .grammar import (ParseError, format_polynomial, parse_forms_file,
                      parse_generators, parse_polynomial)
from .groebner import (GREVLEX, LEX, Ideal, TermOrder, colon_ideal,
                       elimination_order, exact_divide, groebner_basis, height,
                       ideal_dimension, intersection, leading_form_ideal,
                       membership_cofactors, normal_form, saturation)
from .modules import (FreeResolution, SubmoduleOfFree, free_resolution,
                      kernel_of_map, koszul_relations, module_groebner_basis,
                      projective_dimension, submodule_contains,
                      submodule_equals, syzygies)
from .poly import (DimensionSequence, Form, GradedSpace, Monomial, Polynomial,
                   derivative_space, dehomogenize, echelon_basis, gradient,
                   homogenize, jacobian, leading_form, partial_derivative)
from .strength import (CollapseWitness, StrengthReport, enumerate_forms,
                       find_collapse, full_report, strength_exact,
                       strength_lower_bound)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
