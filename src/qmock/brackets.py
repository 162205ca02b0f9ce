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

Precision follows the rules in ``qseries``: E2 is built to the operand's
prec - val, so the bracket certifies exactly the operand's prec, and
``bracket_hat`` certifies m8.prec - 48k - 24 whatever k is.
"""

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


def cohen_bracket(m_series, k, scale=1):
    """sum_j c_{k,j} * scale^(-j) * E2(scale*tau)^(k-j) * (q d/dq)^j M.

    ``scale`` = 1 is the plain operator; ``scale`` = N evaluates the
    operator an operand given in the N*tau variable, i.e. it equals the
    q -> q^N rescale of the plain bracket of the unrescaled operand.
    """
    if k < 0:
        raise ValueError("bracket order k must be nonnegative")
    if k == 0:
        return m_series
    v = m_series.val()
    rel = 0 if v is None else m_series.prec - v  # E2(scale*tau) needs this
    e2 = eisenstein_e2(q_order(Fraction(rel, scale)))
    if scale != 1:
        e2 = e2.rescale_exponents(scale, 1)
    result = None
    deriv = m_series
    inv_scale = Fraction(1, scale)
    for j, c in bracket_coefficients(k):
        if j > 0:
            deriv = deriv.q_derive()
        term = deriv.scale(c * inv_scale**j)
        if j < k:
            term = e2.pow_int(k - j) * term
        result = term if result is None else result + term
    return result


def bracket_hat(m8, k):
    """eta(8tau)^3 / (Theta2*Theta3)^(2k+2) times the bracket of an
    8tau-variable operand; the building block of the kernel mechanism."""
    v = m8.val()
    rel = 1 if v is None else m8.prec - v  # 1 keeps Theta2 invertible for a zero m8
    eta8_cubed = eta(8, q_order(rel + 8)).pow_int(3)
    t23 = theta_big(2, q_order(rel + 24)) * theta_big(3, q_order(rel))
    bracket = cohen_bracket(m8, k, scale=8)
    return eta8_cubed * t23.pow_int(-(2 * k + 2)) * bracket
