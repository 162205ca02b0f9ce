"""The E2-corrected iterated derivative that raises weight by 2k.

The operator is sum_j (-1)^j C(k,j) * (Gamma(1/2)/Gamma(1/2+j)) * 2^(2j) 3^j
* E2^(k-j) * (q d/dq)^j, purely formal on series; Gamma(1/2)/Gamma(1/2+j)
is the exact rational 2^j / (2j-1)!!.

When the operand lives in a rescaled variable (q standing for the old
q^scale), the operator must be conjugated along: E2 becomes the series
in q^scale and each derivative picks up a factor 1/scale.  Applying the
unit-variable operator verbatim to a rescaled operand would neither
reproduce the rescale of the bracket nor preserve the operand's support
progression.

Every bracket comes from one ladder.  With U_j = scale^(-j) (q d/dq)^j M
* E2^(-j), the bracket is E^k[M] = E2^k * sum_j c_{k,j} U_j, so all
brackets of orders 0..K cost O(K) products (E2^(-j), U_j and E2^k, each
one product up from the last) plus cheap scalar sums, where bracketing
each k on its own costs O(K^2).  ``bracket_hat``'s prefactor climbs the
same way, by one (Theta2 Theta3)^(-2) per k.  ``cohen_bracket`` and
``bracket_hat`` are the top rung of a ladder.

Precision follows the rules in ``qseries``: E2 is built to the operand's
prec - val and has valuation 0, so E2^(-1) is certified as far as E2 and
every bracket certifies exactly the operand's prec; ``bracket_hat``
certifies m8.prec - 48k - 24 whatever k is.
"""

from collections import deque
from fractions import Fraction
from math import comb

from .qseries import q_order
from .forms import eisenstein_e2, eta, theta_big


def double_factorial(m):
    """m!! with the convention (-1)!! = 0!! = 1."""
    out = 1
    while m > 1:
        out *= m
        m -= 2
    return out


def bracket_coefficients(k):
    """The exact rationals c_{k,j} = (-1)^j C(k,j) (2^j/(2j-1)!!) 4^j 3^j."""
    if k < 0:
        raise ValueError("bracket order k must be nonnegative")
    terms = []
    for j in range(k + 1):
        gamma_ratio = Fraction(2**j, double_factorial(2 * j - 1))
        c = Fraction((-1) ** j * comb(k, j)) * gamma_ratio * 4**j * 3**j
        terms.append((j, c))
    return tuple(terms)


def bracket_ladder(m_series, k_max, scale=1):
    """Yield E^0[M], ..., E^k_max[M] in the scale*tau variable, in order.

    ``scale`` = 1 is the plain operator; ``scale`` = N evaluates the
    operator on an operand given in the N*tau variable, i.e. E^k equals
    the q -> q^N rescale of the plain bracket of the unrescaled operand.
    E^0[M] is M itself.
    """
    if k_max < 0:
        raise ValueError("bracket order k must be nonnegative")
    v = m_series.val()
    rel = 0 if v is None else m_series.prec - v  # E2(scale*tau) needs this
    e2 = eisenstein_e2(q_order(Fraction(rel, scale)))
    if scale != 1:
        e2 = e2.rescale_exponents(scale, 1)
    u = [m_series]
    deriv = m_series
    inv_scale = Fraction(1, scale)
    e2_inv = e2.invert() if k_max else None
    for j in range(1, k_max + 1):
        deriv = deriv.q_derive().scale(inv_scale)
        e2_inv_j = e2_inv if j == 1 else e2_inv_j * e2_inv
        u.append(deriv * e2_inv_j)
    for k in range(k_max + 1):
        total = None
        for j, c in bracket_coefficients(k):
            term = u[j].scale(c)
            total = term if total is None else total + term
        if k:
            e2_k = e2 if k == 1 else e2_k * e2
            total = e2_k * total
        yield total


def bracket_hat_ladder(m8, k_max):
    """Yield eta(8tau)^3 / (Theta2*Theta3)^(2k+2) * E^k[m8] for k = 0..k_max,
    the bracket taken in the 8tau variable; the building blocks of the
    kernel mechanism and of route B."""
    v = m8.val()
    rel = 1 if v is None else m8.prec - v  # 1 keeps Theta2 invertible for a zero m8
    eta8_cubed = eta(8, q_order(rel + 8)).pow_int(3)
    t23 = theta_big(2, q_order(rel + 24)) * theta_big(3, q_order(rel))
    step = t23.pow_int(-2)
    prefactor = eta8_cubed * step
    for k, bracket in enumerate(bracket_ladder(m8, k_max, scale=8)):
        if k:
            prefactor = prefactor * step
        yield prefactor * bracket


def _top(ladder):
    return deque(ladder, maxlen=1)[0]


def cohen_bracket(m_series, k, scale=1):
    """E^k[M]: sum_j c_{k,j} * scale^(-j) * E2(scale*tau)^(k-j) * (q d/dq)^j M,
    the top rung of ``bracket_ladder``."""
    return _top(bracket_ladder(m_series, k, scale))


def bracket_hat(m8, k):
    """eta(8tau)^3 / (Theta2*Theta3)^(2k+2) times the bracket of an
    8tau-variable operand, the top rung of ``bracket_hat_ladder``."""
    return _top(bracket_hat_ladder(m8, k))
