"""qlevy: quantum Levy processes and convolution cocycles on finite *-bialgebras."""

from .algebra import (AxiomViolation, Bialgebra, Element, ParseError,
                      build_function_algebra, build_group_algebra,
                      class_hypergroup_algebra, is_positive, load_bialgebra,
                      multiply, represent, star, validate_bialgebra)
from .cocycle import (Generator, StepFunction, check_cocycle_identity,
                      delta_qs, exp_inner_product, matrix_element,
                      simplex_series_oracle, toy_fock_evolve, weak_qlp_moments)
from .convolution import (ConvolutionSemigroup, OperatorMap, amplified_norm,
                          conv_exp, convolve, counit_map, e_map, functional,
                          load_operator_map, r_map, semigroup_generator)
from .derivations import (DerivationProblem, check_chi_structure,
                          check_derivation, implement_chi_structure,
                          solve_inner)
from .generators import (CPQuadruple, SchurmannTriple,
                         check_conditionally_positive, check_cp_form,
                         check_minimality, check_phi1, check_structure_map,
                         gns_construct, intertwine_minimal, make_cp_generator,
                         make_structure_map)
from .harness import (GroupCocycleData, RunConfig, build_group_generator,
                      coboundary_data, run_report, simulate_compound_poisson,
                      solve_coboundary)

__version__ = "0.1.0"
