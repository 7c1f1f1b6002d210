"""harmdist: distortion operators, univalence criteria and two-point
distortion bounds for planar harmonic mappings on the unit disc, plus a
numerical harness that certifies every bound on sampled point pairs."""

__version__ = "0.1.0"

from .analytic import (  # noqa: F401
    AnalyticMap, Compose, ExpMap, HalfPlane, Identity, Koebe, LinearCombo,
    LogMap, Mobius, Monomial, SeriesMap, ZERO, disk_automorphism_map, koebe_transform,
)
from .bounds import PairBound, growth_sandwich, mobius_exact  # noqa: F401
from .criteria import (  # noqa: F401
    CriterionVerdict, becker_analytic, becker_harmonic, convexity_check,
    nehari_analytic, nehari_harmonic, theorem_d_harmonic,
)
from .disk import automorphism, hyperbolic, pseudo_hyperbolic  # noqa: F401
from .harmonic import (  # noqa: F401
    HarmonicMap, affine_transform, analytic_as_harmonic, from_h_and_omega,
    harmonic_mobius, jacobian, shear_linear,
)
from .norms import (  # noqa: F401
    NormEstimate, OrderEstimate, beta_lambda, order_of, sup_weighted,
)
from .operators import (  # noqa: F401
    distortion_quantities, harmonic_pre_schwarzian, harmonic_schwarzian,
    omega_star_at, pre_schwarzian, schwarzian,
)
from .series import TaylorSeries  # noqa: F401
from .verifier import (  # noqa: F401
    BoundReport, counterexample_search, sample_pairs, verify_bound,
)
