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
a_j = a_(j-1) * 24/(2j-1), a_0 = 1.  The powers E2^(-j) and E2^k, and
``bracket_hat``'s prefactors eta(8tau)^3 (Theta2 Theta3)^(-2k-2), are each
one ``qseries.chain``: one product per power.  E^0[M] is M, so a ladder
of order 0 builds no E2.
``cohen_bracket`` and ``bracket_hat`` are the top rung of a ladder.
``bracket_hat_ladder`` puts the 8tau prefactors on a plain ladder of
m8(tau/8), not on m8; ``uplane.h_k_family`` builds H_k from it.  The
invariant layer's route B takes no hat rung: its factor T cancels the
eta(8tau)^3, so it rescales the plain ladder on H (``uplane.h_ladder``)
under Theta4^9 (Theta2 Theta3)^(-2k-3) instead.

Precision follows the rules in ``qseries``: E2 is built to the operand's
prec - val and has valuation 0, so E2^(-1) is certified as far as E2 and
every bracket certifies exactly the operand's prec.  Hat rung k on the
ladder of m certifies 8 m.prec - 48k - 24 whatever k is; ``bracket_hat``
cuts it to m8.prec - 48k - 24, as m = m8(tau/8) rounds m8.prec up.
"""

from fractions import Fraction
from math import comb, prod

from .qseries import Series, chain, q_order
from .forms import eisenstein_e2, eta, theta_big


def double_factorial(m):
    """m!! with the convention (-1)!! = 0!! = 1."""
    return prod(range(m, 1, -2))


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
    """The tuple E^0[M], ..., E^k_max[M]; E^0[M] is M itself, so k_max = 0
    builds no E2."""
    if k_max < 0:
        raise ValueError("bracket order k must be nonnegative")
    if not k_max:
        return (m_series,)
    e2 = eisenstein_e2(q_order(m_series.prec - m_series.min_exp))  # E2 needs this
    e2_inv = e2.invert()
    u = [m_series]
    deriv = m_series
    for e2_inv_j in chain(e2_inv, e2_inv, k_max - 1):
        deriv = deriv.q_derive()
        u.append(deriv * e2_inv_j)
    weights, big = _gamma_weights(k_max)
    return (m_series, *(e2_k * Series.combine(zip(_row(k, weights), u), big)
                        for k, e2_k in enumerate(chain(e2, e2, k_max - 1), 1)))


def bracket_hat_ladder(ladder):
    """The tuple eta(8tau)^3 / (Theta2*Theta3)^(2k+2) * E^k[m8], k = 0..K,
    from the plain ``ladder`` E^0[m], ..., E^K[m] of m = m8(tau/8): the
    bracket in the 8tau variable is the plain rung rescaled by 8, and rung
    k certifies 8 m.prec - 48k - 24.  The building blocks of the Z0hat
    mechanism's H_k; T times rung k on H's ladder is route B's rung k."""
    rel = max(1, 8 * (ladder[0].prec - ladder[0].min_exp))  # 1: Theta2 invertible for m8 = 0
    eta8_cubed = eta(8, q_order(rel + 8)).pow_int(3)
    t23 = theta_big(2, q_order(rel + 24)) * theta_big(3, q_order(rel))
    step = t23.pow_int(-2)
    prefactors = chain(eta8_cubed * step, step, len(ladder) - 1)
    return tuple(prefactor * bracket.rescale_exponents(8, 1)
                 for prefactor, bracket in zip(prefactors, ladder))


def cohen_bracket(m_series, k):
    """E^k[M]: sum_j c_{k,j} * E2^(k-j) * (q d/dq)^j M, the top rung of
    ``bracket_ladder``."""
    return bracket_ladder(m_series, k)[-1]


def bracket_hat(m8, k):
    """eta(8tau)^3 / (Theta2*Theta3)^(2k+2) times the bracket of an
    8tau-variable operand, the top rung of ``bracket_hat_ladder`` on the
    ladder of m8(tau/8), cut to m8.prec - 48k - 24 (m8 must be a series in
    q^8, LatticeError otherwise)."""
    top = bracket_hat_ladder(bracket_ladder(m8.rescale_exponents(1, 8), k))[-1]
    return top.truncate(m8.prec - 48 * k - 24)
