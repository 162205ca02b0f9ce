"""The mock-modular layer: Appell-Lerch sums, H(tau), and the Q+ series.

H(tau) is built from Eguchi-Hikami's identity eta^3 H = -2 E2 + 48 F2
(``h_series``); its coefficient table is never used as an input, only as
a test oracle.  The Appell-Lerch sum mu specialised at the three
half-periods 1/2, (1+tau)/2, tau/2 gives H as well, and is its oracle:
the elliptic-genus check reads the three mu with the production H, and
tier-1 compares -8 times their sum with H, prec included.  The companion series
Q+(tau) is assembled from sieved eta quotients and a mock theta sum, and
Q+(tau/8) - H(tau)/12 spans the kernel of the constant-term functional
in the invariant layer.  Every mock here, H, Q+ and the explicit mocks
that probe the functional, is a plain ``Series``.

The Lerch sum's n-th summand starts at an exponent convex in n and least
at n = -s, where v = r + s*tau; ``forms.below`` scans it outward from
there, so mu is exact at every half-period, not only at s = 0 and 1/2.

H and Q+ sit on ``qseries.order_memo``: each is built once at the
deepest order asked so far, and a smaller order (Q+(tau/8) at order N
reads Q+ at 8N) is served as a truncation.  mu is not memoised: the
genus reads each mu once.  ``genus_mock_order`` names the order the
genus reads mu and H at, so a caller can build H there first; eta^3's
order is read off the sum 24 mu + H the genus holds.
"""

from fractions import Fraction

from .qseries import LATTICE_DEN, QSeriesError, Series, order_memo, q_order
from .forms import (
    HalfPeriodPoint,
    THETA_CHARS,
    V_HALF,
    V_ONE_PLUS_TAU_HALF,
    V_TAU_HALF,
    V_ZERO,
    below,
    eisenstein_e2,
    eta_cube,
    modular_a,
    modular_b,
    theta_char,
    theta_char_val,
    theta_nullwert,
)


class PoleAtArgument(QSeriesError):
    """mu(z; tau) or 1/theta_1(z|tau) evaluated at a lattice point z."""


def mu_half_period(v, order):
    """The Appell-Lerch sum mu(v; tau) for v = r + s*tau, r,s in (1/2)Z.

    mu(z;tau) = (i e^(pi i z) / theta_1(z|tau)) *
                sum_n (-1)^n q^(n(n+1)/2) e^(2 pi i n z) / (1 - q^n e^(2 pi i z)).

    With c = e^(2 pi i r) = +-1, the n-th geometric factor is
    1/(1 - c q^(n+s)).  For n + s < 0 the factor must first be rewritten
    as -c^(-1) q^(-(n+s)) / (1 - c^(-1) q^(-(n+s))): expanding 1/(1-x)
    with x of negative exponent is invalid in a power-series ring.
    """
    v = HalfPeriodPoint(*v)
    if v.is_lattice_point():
        raise PoleAtArgument(f"mu has a pole at v = {v.r} + {v.s}*tau")
    r2, s2 = v.r2, v.s2
    c_sign = 1 if r2 % 2 == 0 else -1  # e^(2 pi i r)
    prec = LATTICE_DEN * order
    v_theta1 = theta_char_val(1, v)
    need = prec + v_theta1  # the Lerch sum's prec against 1/theta_1

    def summand(n):
        # summand n is sum_j coef * c^j q^(first + j*step)
        first = 12 * n * (n + 1) + 12 * n * s2 + 6 * s2
        step = 24 * n + 12 * s2
        coef = 1 if n % 2 == 0 else -c_sign  # (-1)^n * c^n
        if step < 0:
            return first - step, -step, -c_sign * coef
        return first, step, coef

    pairs = []
    # summand n starts at 3(m^2 - 4s^2) + 6|m| with m = 2n + 2s, least at n = -s
    for n in below(lambda n: summand(n)[0], (1 - s2) // 2, need):
        first, step, coef = summand(n)
        if step:
            pairs += [(e, coef * c_sign**j) for j, e in enumerate(range(first, need, step))]
        else:  # n + s = 0, so s is whole, r is not and the factor is 1/(1 + 1)
            pairs.append((first, Fraction(coef, 2)))

    lerch = Series.from_pairs(pairs, prec=need)
    # the prefactor i e^(pi i r) and theta_1's phase i^p are both i^(2r+1)
    _, theta1 = theta_char(1, 1, v, q_order(prec - lerch.min_exp + 2 * v_theta1))
    return (lerch / theta1).truncate(prec)


H_POINTS = (V_HALF, V_ONE_PLUS_TAU_HALF, V_TAU_HALF)


@order_memo
def h_series(order):
    """H(tau) = (-2 E2(tau) + 48 F2(tau)) / eta(tau)^3, with
    F2 = sum_(r>s>0, r-s odd) (-1)^r s q^(rs/2): Eguchi-Hikami,
    "Superconformal algebras and mock theta functions 2" (2009), as quoted
    in Eguchi-Ooguri-Tachikawa, arXiv:1004.0956.  It equals
    -8 * [mu(1/2) + mu((1+tau)/2) + mu(tau/2)], prec included.

    The numerator has valuation 0 and eta^3 valuation 3, so H to P lattice
    units takes the numerator to P + 3 and eta^3 to P + 6; F2's inner sum
    over r stops at the numerator's precision.  The result is certified
    to have integer coefficients; the graded coefficients live at
    exponents -1/8 + k/2 and vanish for odd k.
    """
    prec = LATTICE_DEN * order
    work = q_order(prec + 3)
    bound = LATTICE_DEN * work
    pairs = []  # the term (r, s) of F2 sits at q^(rs/2), 12rs lattice units
    s = 1
    while 12 * s * (s + 1) < bound:
        pairs += [(12 * r * s, -s if r % 2 else s)
                  for r in range(s + 1, (bound - 1) // (12 * s) + 1, 2)]
        s += 1
    f2 = Series.from_pairs(pairs, prec=bound)
    numerator = Series.combine([(-2, eisenstein_e2(work)), (48, f2)])
    h = (numerator / eta_cube(q_order(prec + 6))).truncate(prec)
    for e in h.support():
        if h.coefficient(e).denominator != 1:
            raise QSeriesError(f"H(tau) coefficient at lattice {e} is not an integer")
    return h


def a_coefficients(order):
    """The integers A_n with H = 2 q^(-1/8) (-1 + sum A_n q^n), n <= order.

    H's coefficient at q^(n - 1/8) is 2 A_n; a coefficient that is not an
    even integer names no A_n and raises QSeriesError."""
    h = h_series(order)
    out = {}
    for n in range(1, order + 1):
        c = h.coefficient(-3 + 24 * n)
        if c.denominator != 1 or c.numerator % 2:
            raise QSeriesError(
                f"H's coefficient 2 A_{n} at q^({n} - 1/8) is {c}, not an even integer"
            )
        out[n] = c.numerator // 2
    return out


def mock_theta_m(order):
    """The mock theta sum M(q), a q-hypergeometric series supported on
    exponents 7 mod 8; term n enters at exponent 8(n+1)^2 - 1."""
    prec = LATTICE_DEN * order
    terms = [(1, Series.zero(prec))]  # certifies the sum below prec, also with no term
    running = Series.one(prec)  # prod_{k<=n} (1-q^(16k-8)) / prod_{k<=n+1} (1+q^(16k-8))^2
    n = 0
    while 8 * (n + 1) ** 2 - 1 < order:
        if n > 0:
            num = Series.from_pairs(
                [(0, 1), (LATTICE_DEN * (16 * n - 8), -1)], prec=prec
            )
            running = running * num
        den = Series.from_pairs(
            [(0, 1), (LATTICE_DEN * (16 * (n + 1) - 8), 1)], prec=prec
        ).pow_int(2)
        running = running / den
        lead = Series.monomial(LATTICE_DEN * (8 * (n + 1) ** 2 - 1), prec=prec)
        terms.append((1 if n % 2 else -1, lead * running))
        n += 1
    return Series.combine(terms)


@order_memo
def q_plus(order):
    """Q+(tau) = -7/2 A_{3,8} + 3/2 A_{7,8} - 1/2 B + 4 M(q).

    Every summand is supported on exponents 3 or 7 mod 8, so all
    exponents of Q+ are -1 mod 4.
    """
    prec = LATTICE_DEN * order
    work = q_order(prec)  # at least 1: the q^-1 pole lies below any prec <= 0
    a = modular_a(work)  # built once, sieved twice
    s = Series.combine([(-7, a.sieve(3, 8)), (3, a.sieve(7, 8)),
                        (-1, modular_b(work)), (8, mock_theta_m(work))], 2)
    return s.truncate(prec)


def q_plus_rescaled(order):
    """Q+(tau/8) = q^(-1/8)(1 + 28 q^(1/2) + 39 q + ...)."""
    return q_plus(8 * order).rescale_exponents(1, 8)


def mock_from_coefficients(h_values, order):
    """The formal holomorphic part q^(-1/8) sum_k H_k q^(k/2).

    Feeding unit vectors recovers the constant-term functional column
    by column; the construction is linear in h_values.
    """
    pairs = [(-3 + 12 * k, Fraction(hk)) for k, hk in enumerate(h_values)]
    return Series.from_pairs(pairs, prec=LATTICE_DEN * order)


# ----------------------------------------------------------------------
# elliptic genus consistency


def elliptic_genus_theta(v, order):
    """8 * sum_j (theta_j(z|tau)/theta_j(tau))^2 for j = 2, 3, 4 at z = v."""
    v = HalfPeriodPoint(*v)
    prec = LATTICE_DEN * order
    terms = [(1, Series.zero(prec))]  # certifies the sum below prec
    for j, (a, b) in THETA_CHARS.items():
        # (num/den)^2 with val num >= lo and val den = theta_j(0|tau)'s, exact
        lo, v_den = theta_char_val(a, v), theta_char_val(a, V_ZERO)
        den = theta_nullwert(j, q_order(prec - 2 * lo + 3 * v_den))
        # at the origin the numerator is den itself: theta_j(0|tau), same order
        p, num = (0, den) if v == V_ZERO else theta_char(a, b, v, q_order(prec - lo + 2 * v_den))
        # (i^p)^2 = (-1)^p; the square is of the sparse theta sum num, and
        # the dense quotients by den are never multiplied together
        terms.append((-8 if p % 2 else 8, num * num / den / den))
    return Series.combine(terms)


def genus_mock_order(v, order):
    """The q-order of the mu(v) and H that ``elliptic_genus_mock(v, order)``
    reads: theta_1^2 / eta^3 has valuation 2*v_t1 - 3, exactly."""
    return q_order(LATTICE_DEN * order - 2 * theta_char_val(1, HalfPeriodPoint(*v)) + 3)


def elliptic_genus_mock(v, order):
    """theta_1(z|tau)^2 / eta^3 * (24 mu(z;tau) + H(tau)) at z = v."""
    v = HalfPeriodPoint(*v)
    if v.is_lattice_point():
        raise PoleAtArgument("mu(z;tau) is singular at lattice points z")
    prec = LATTICE_DEN * order
    s_order = genus_mock_order(v, order)
    s = Series.combine([(24, mu_half_period(v, s_order)), (1, h_series(s_order))])
    v_t1 = theta_char_val(1, v)
    p, t1 = theta_char(1, 1, v, q_order(prec - v_t1 + 3 - s.min_exp))
    # eta^3, of valuation 3, divides s theta_1^2, so it needs prec + 6 - val(s theta_1^2)
    genus = s * t1 * t1 / eta_cube(q_order(prec - 2 * v_t1 + 6 - s.min_exp))
    return (-genus if p % 2 else genus).truncate(prec)  # (i^p)^2 = (-1)^p


def elliptic_genus_check(v, order):
    """Difference of the two genus representations; zero when both converge."""
    return elliptic_genus_theta(v, order) - elliptic_genus_mock(v, order)


NAMED_MOCKS = {
    "H": h_series,
    "Qplus": q_plus,
    "QplusTau8": q_plus_rescaled,
    "mu:half": lambda order: mu_half_period(V_HALF, order),
    "mu:tauhalf": lambda order: mu_half_period(V_TAU_HALF, order),
    "mu:onetauhalf": lambda order: mu_half_period(V_ONE_PLUS_TAU_HALF, order),
    "Mq": mock_theta_m,
}
