"""dforge: exact isogeny algebra for rank-two Drinfeld F_q[T]-modules.

The tower F_p < F_q < A = F_q[T] < Q = F_q(T) < K = Q[x]/(f) is exact
throughout; isogenies live in the twisted ring K{tau} and their kernels
are handled through right divisibility, never as sets of torsion points.
"""

from .errors import AlgebraError, ParseError
from .fields import Fq, FqElem, PolyA, RatFunc, is_irreducible
from .extfield import ExtField, ExtFieldElem, GaloisDatum
from .ideals import (
    IdealA,
    factor_ideal,
    rational_roots,
    unit_ideal,
)
from .skew import (
    SkewPoly,
    conjugate,
    differential,
    lclm,
    right_divmod,
    right_gcd,
    skew_eval,
)
from .drinfeld import (
    CertificateCache,
    DescentCocycle,
    DrinfeldModule,
    JInvariant,
    NonCMCertificate,
    certify_non_cm,
    conjugate_module,
    descend_k_model,
    endo_search,
    j_invariant,
    make_module,
    phi_a,
)
from .isogeny import (
    Isogeny,
    annihilator,
    compose,
    degree,
    delta_p,
    dual,
    factor_prime_power,
    find_isogenies,
    is_cyclic,
    is_primitive,
    normalize_isogeny,
    primitive_part,
    project_p,
    verify_isogeny,
)
from .trees import (
    Center,
    ClassificationResult,
    OrbitDatum,
    OrbitGroup,
    SubTree,
    classify,
    materialize_center,
    minimality_check,
    orbit_from_isogenies,
    reconstruct_subtree,
    tree_center,
    validate_orbit,
)
from .moduli import (
    ALElement,
    ModuliPoint,
    StarOrbit,
    al_apply,
    al_compose,
    al_group,
    descent_data,
    is_central,
    star_orbit,
    theta,
)

__version__ = "0.1.0"
