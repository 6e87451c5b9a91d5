"""Exact checks of the twist-power identities of a separating-twist
argument.

For the twist powers k = 1..K, a certificate checks exactly that the
pushed-forward bounding-curve lift is valid, that its matrix equals
M_k N M_k^-1 and the twist's action on the handle classes, that the
matrices lie on the expected sides of the amalgam, and that distinct
powers name distinct double cosets (in closed form).  It does not check
that the separations imply infinite generation; the README's Claims
table lists what each step rests on.

The pipeline: Laurent polynomial coefficients of lifted cycles in an
abelian cover (laurent, homology), the induced 2x2 twist representation
(rep), double-coset separation inside an amalgam of SL2 groups over
function rings (amalgam), and the Bruhat-Tits tree that grounds the
amalgam's membership predicates geometrically (tree).
"""

from .laurent import (
    LaurentPoly,
    LaurentRing,
    ParseError,
    RingHom,
    RingMismatchError,
    ValuationError,
    parse_poly,
    phi_hom,
    single_variable_ring,
    specialize_phi,
    specialize_single,
    surface_ring,
)
from .homology import (
    CycleClass,
    EpsilonTable,
    Generator,
    LiftClass,
    canonical_lift,
    comm_pairs,
    excluded_pair,
    pair_kernel,
    pairing_polynomial,
    pushforward_b1_twist,
    twist_apply,
    validate_lift,
)
from .rep import (
    Matrix2,
    h_form,
    matrix_Mk,
    matrix_N,
    multiply,
    rho,
)
from .tree import (
    TreeVertex,
    act,
    as_sl2,
    ball_dot,
    base_vertex,
    canonical_vertex,
    distance,
    fixes_edge,
    fixes_vertex,
    odd_base_vertex,
    parse_vertex,
    series_ring,
    translation_length,
)
from .amalgam import (
    AmalgamLetter,
    Certificate,
    amalgam_normal_form,
    build_certificate,
    double_cosets_distinct,
    h_cap_a_forces_identity,
    in_A,
    in_B,
    in_U,
)

__version__ = "0.1.0"
