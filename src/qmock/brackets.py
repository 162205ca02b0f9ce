"""The E2-corrected iterated derivative that raises weight by 2k.

The operator is sum_j (-1)^j C(k,j) * (Gamma(1/2)/Gamma(1/2+j)) * 2^(2j) 3^j
* E2^(k-j) * (q d/dq)^j, purely formal on series; Gamma(1/2)/Gamma(1/2+j)
is the exact rational 2^j / (2j-1)!!.  There is one operator: the
bracket of an operand in the 8tau variable is, exactly, the q -> q^8
rescale of the plain bracket of that operand taken back to tau.

Every bracket comes from one ladder.  With U_j = (q d/dq)^j M * E2^(-j),
the bracket is E^k[M] = E2^k * sum_j c_{k,j} U_j, so all brackets of
orders 0..K cost O(K) products (E2^(-j), U_j and E2^k, each one product
up from the last), where bracketing each k on its own costs O(K^2).
Each rung's sum is one integer linear combination (``Series.combine``):
over the ladder's common denominator L = (2K-1)!!,
c_{k,j} = (-1)^j C(k,j) N_j / L with integers N_j = a_j L from
a_j = a_(j-1) * 24/(2j-1), a_0 = 1.  ``bracket_hat``'s prefactor climbs
the same way as E2^k, by one (Theta2 Theta3)^(-2) per k.
``cohen_bracket`` and ``bracket_hat`` are the top rung of a ladder.

Precision follows the rules in ``qseries``: E2 is built to the operand's
prec - val and has valuation 0, so E2^(-1) is certified as far as E2 and
every bracket certifies exactly the operand's prec; ``bracket_hat``
certifies m8.prec - 48k - 24 whatever k is.
"""

from collections import deque
from fractions import Fraction
from math import comb

from .qseries import Series, q_order
from .forms import eisenstein_e2, eta, theta_big


def double_factorial(m):
    """m!! with the convention (-1)!! = 0!! = 1."""
    out = 1
    while m > 1:
        out *= m
        m -= 2
    return out


def _gamma_weights(k_max):
    """Integers N_0..N_k_max and L = (2 k_max - 1)!! with a_j = N_j / L,
    where a_j = (Gamma(1/2)/Gamma(1/2+j)) 12^j = 24^j/(2j-1)!! climbs by
    a_j = a_(j-1) * 24/(2j-1) from a_0 = 1."""
    big = double_factorial(2 * k_max - 1)
    weights = [big]
    for j in range(1, k_max + 1):
        weights.append(weights[-1] * 24 // (2 * j - 1))  # exact: 2j-1 divides L/(2j-3)!!
    return weights, big


def _row(k, weights):
    """(-1)^j C(k,j) N_j for j = 0..k: row k of the bracket over L."""
    return [(-1) ** j * comb(k, j) * weights[j] for j in range(k + 1)]


def bracket_coefficients(k):
    """The exact rationals c_{k,j} = (-1)^j C(k,j) (2^j/(2j-1)!!) 4^j 3^j."""
    if k < 0:
        raise ValueError("bracket order k must be nonnegative")
    weights, big = _gamma_weights(k)
    return tuple((j, Fraction(c, big)) for j, c in enumerate(_row(k, weights)))


def bracket_ladder(m_series, k_max):
    """Yield E^0[M], ..., E^k_max[M] in order; E^0[M] is M itself."""
    if k_max < 0:
        raise ValueError("bracket order k must be nonnegative")
    e2 = eisenstein_e2(q_order(m_series.prec - m_series.min_exp))  # E2 needs this
    u = [m_series]
    deriv = m_series
    e2_inv = e2.invert() if k_max else None
    for j in range(1, k_max + 1):
        deriv = deriv.q_derive()
        e2_inv_j = e2_inv if j == 1 else e2_inv_j * e2_inv
        u.append(deriv * e2_inv_j)
    yield m_series
    weights, big = _gamma_weights(k_max)
    e2_k = e2
    for k in range(1, k_max + 1):
        if k > 1:
            e2_k = e2_k * e2
        yield e2_k * Series.combine(zip(_row(k, weights), u), big)


def bracket_hat_ladder(m8, k_max):
    """Yield eta(8tau)^3 / (Theta2*Theta3)^(2k+2) * E^k[m8] for k = 0..k_max,
    the bracket taken in the 8tau variable as the plain bracket of
    m8(tau/8) rescaled by 8 and cut back to m8's prec (m8 must be a series
    in q^8, LatticeError otherwise); the building blocks of the kernel
    mechanism and of route B."""
    m = m8.rescale_exponents(1, 8)
    rel = max(1, m8.prec - m8.min_exp)  # 1 keeps Theta2 invertible for a zero m8
    eta8_cubed = eta(8, q_order(rel + 8)).pow_int(3)
    t23 = theta_big(2, q_order(rel + 24)) * theta_big(3, q_order(rel))
    step = t23.pow_int(-2)
    prefactor = eta8_cubed * step
    for k, bracket in enumerate(bracket_ladder(m, k_max)):
        if k:
            prefactor = prefactor * step
        yield prefactor * bracket.rescale_exponents(8, 1).truncate(m8.prec)


def _top(ladder):
    return deque(ladder, maxlen=1)[0]


def cohen_bracket(m_series, k):
    """E^k[M]: sum_j c_{k,j} * E2^(k-j) * (q d/dq)^j M, the top rung of
    ``bracket_ladder``."""
    return _top(bracket_ladder(m_series, k))


def bracket_hat(m8, k):
    """eta(8tau)^3 / (Theta2*Theta3)^(2k+2) times the bracket of an
    8tau-variable operand, the top rung of ``bracket_hat_ladder``."""
    return _top(bracket_hat_ladder(m8, k))
