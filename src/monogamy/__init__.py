"""Exact graph-extendibility values of Werner, isotropic and Brauer states.

The library computes, in exact rational arithmetic, how entangled the
edge marginals of a global quantum state on a graph can simultaneously
be, for the three classical families of symmetric two-qudit states. The
closed-form values are cross-verified against numeric oracles built from
the Brauer-diagram matrix representation, Jucys-Murphy spectra and
one-dimensional dual minimax solvers.
"""

from .budget import BudgetExceededError, current_budget
from .diagrams import (
    BrauerDiagram,
    SiteOperator,
    all_diagrams,
    compose,
    jm_sum_brauer,
    jm_sum_sym,
    matrix_rep,
    pair_operators,
    projectors,
    young_symmetrizer,
)
from .extendibility import (
    ExtendibilityValue,
    LN2,
    asymptotic_limit,
    brauer_is_ppt,
    brauer_is_separable,
    compute_value,
    conjecture_probe,
    cycle_werner_value,
    iso_dual_numeric,
    isotropic_dual_minimax,
    matching_lower_bound_state,
    p_avg_numeric,
    p_b_complete,
    p_iso,
    p_iso_bipartite,
    p_iso_prime,
    p_w_complete,
    q0_dual_value,
    reduced_state,
    werner_primal_certificate,
    werner_primal_value,
)
from .graphs import Graph, edge_average_hamiltonian, make_family, perfect_matchings
from .partitions import (
    Partition,
    conjugate,
    content,
    enumerate_brauer_irreps,
    enumerate_sym_irreps,
    gl_dim,
    mn_character,
    odd_row_count,
    optimal_rectangular_partition,
    shifted_schur_11,
    sym_dim,
)
from .spectral import JointSpectrum, Spectrum, edge_sum, joint_spectrum, lambda_max, sym_eigen

__version__ = "0.1.0"
