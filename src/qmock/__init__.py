"""qmock: exact q-series arithmetic for mock modular forms and the
SO(3) Donaldson invariants of CP^2.

The public surface, by layer:

* qseries  - Series: the exact Laurent-series ring over the rationals
* forms    - eta quotients, theta functions (phases as quarter-turn
             counts), E2, E*, Z0hat
* mock     - Appell-Lerch mu, H(tau), Q+ (all plain Series), elliptic genus
* brackets - the E2-corrected weight-raising derivative
* uplane   - the constant-term functional and the invariant tables
* moonshine- M24 dimension decompositions of the H coefficients
"""

from .qseries import (
    InsufficientPrecision,
    LatticeError,
    NotInvertible,
    QSeriesError,
    Series,
)
from .forms import (
    EtaQuotientSpec,
    HalfPeriodPoint,
    PhaseError,
    eisenstein_e2,
    e_star,
    eta,
    eta_quotient,
    theta_big,
    theta_char,
    theta_nullwert,
    z0_hat,
)
from .mock import (
    PoleAtArgument,
    a_coefficients,
    elliptic_genus_check,
    h_series,
    mock_from_coefficients,
    mock_theta_m,
    mu_half_period,
    q_plus,
    q_plus_rescaled,
)
from .brackets import bracket_coefficients, bracket_hat, cohen_bracket
from .uplane import (
    InvariantRecord,
    NotPolynomialInZ0,
    OddExponent,
    RouteMismatch,
    Z0Polynomial,
    column_extract,
    donaldson_phi,
    generating_function,
    h_k_series,
    kernel_check,
    u_plane_coefficient,
    z0_reduce,
)
from .moonshine import (
    M24_DIMENSIONS,
    DecompositionWitness,
    decompose_bounded,
    decompose_distinct,
)

__version__ = "0.1.0"
