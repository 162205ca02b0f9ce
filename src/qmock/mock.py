"""The mock-modular layer: Appell-Lerch sums, H(tau), and the Q+ series.

H(tau) is assembled exclusively from the Appell-Lerch sum mu specialised
at the three half-periods 1/2, (1+tau)/2, tau/2; its coefficient table
is never used as an input, only as a test oracle.  The companion series
Q+(tau) is assembled from sieved eta quotients and a mock theta sum, and
Q+(tau/8) - H(tau)/12 spans the kernel of the constant-term functional
in the invariant layer.
"""

from dataclasses import dataclass
from fractions import Fraction

from .qseries import (
    LATTICE_DEN,
    GaussRat,
    QSeriesError,
    Series,
    order_memo,
    quarter_phase,
)
from .forms import (
    HalfPeriodPoint,
    V_HALF,
    V_ONE_PLUS_TAU_HALF,
    V_TAU_HALF,
    eta,
    modular_a_sieved,
    modular_b,
    theta_char,
    theta_nullwert,
)


class PoleAtArgument(QSeriesError):
    """mu(z; tau) or 1/theta_1(z|tau) evaluated at a lattice point z."""


@dataclass(frozen=True)
class MockSeries:
    """A mock-modular holomorphic part together with how it was built."""

    series: Series
    construction: str  # "mu_sum" | "qplus_assembly" | "explicit"

    def h_coefficient(self, k):
        """Coefficient of q^(-1/8 + k/2), the k-th graded coefficient."""
        return self.series.coefficient(-3 + 12 * k)

    def truncate(self, prec):
        """The same mock certified only below ``prec`` lattice units."""
        return MockSeries(self.series.truncate(prec), self.construction)


@order_memo
def mu_half_period(v, order):
    """The Appell-Lerch sum mu(v; tau) for v = r + s*tau, r,s in (1/2)Z.

    mu(z;tau) = (i e^(pi i z) / theta_1(z|tau)) *
                sum_n (-1)^n q^(n(n+1)/2) e^(2 pi i n z) / (1 - q^n e^(2 pi i z)).

    With c = e^(2 pi i r) = +-1, the n-th geometric factor is
    1/(1 - c q^(n+s)).  For n + s < 0 the factor must first be rewritten
    as -c^(-1) q^(-(n+s)) / (1 - c^(-1) q^(-(n+s))): expanding 1/(1-x)
    with x of negative exponent is invalid in a power-series ring.
    """
    if not isinstance(v, HalfPeriodPoint):
        v = HalfPeriodPoint(*v)
    if v.is_lattice_point():
        raise PoleAtArgument(f"mu has a pole at v = {v.r} + {v.s}*tau")
    r2, s2 = v.r2, v.s2
    prec = LATTICE_DEN * order
    pad = prec + 2 * LATTICE_DEN  # room for the division by theta_1

    c_sign = 1 if r2 % 2 == 0 else -1  # e^(2 pi i r)

    def min_exp24(n):
        # leading lattice exponent of the n-th summand
        base = 12 * n * (n + 1) + 12 * n * s2
        e_x = 24 * n + 12 * s2
        return base if e_x >= 0 else base - e_x

    def add_summand(n, pairs):
        base = 12 * n * (n + 1) + 12 * n * s2
        # (-1)^n * c^n with c = e^(2 pi i r) = +-1
        coef = (1 if n % 2 == 0 else -1) * (1 if n % 2 == 0 else c_sign)
        e_x = 24 * n + 12 * s2
        if e_x > 0:
            j = 0
            while base + j * e_x < pad:
                pairs.append((base + j * e_x, GaussRat(coef * (c_sign ** j))))
                j += 1
        elif e_x == 0:
            if c_sign == 1:
                raise PoleAtArgument("geometric factor 1/(1-1) in the mu sum")
            pairs.append((base, GaussRat(Fraction(coef, 2))))
        else:
            j = 1
            while base - j * e_x < pad:
                pairs.append((base - j * e_x, GaussRat(-coef * (c_sign ** j))))
                j += 1

    pairs = []
    # Scan outward: min_exp24 grows like 12 n^2 in both directions (it is
    # n(n+1)/2 + ns, plus |n+s| after the negative rewrite), so once a
    # side exceeds the target it stays out.
    n = 0
    prev = None
    while min_exp24(n) < pad or n < 2:
        if min_exp24(n) < pad:
            add_summand(n, pairs)
        if prev is not None and n >= 2:
            assert min_exp24(n) >= prev, "mu summand exponents must grow"
        prev = min_exp24(n)
        n += 1
    n = -1
    prev = None
    while min_exp24(n) < pad or n > -3:
        if min_exp24(n) < pad:
            add_summand(n, pairs)
        if prev is not None and n <= -3:
            assert min_exp24(n) >= prev, "mu summand exponents must grow"
        prev = min_exp24(n)
        n -= 1

    lerch_sum = Series.from_pairs(pairs, prec=pad)
    theta1 = theta_char(1, 1, v, (pad // LATTICE_DEN) + 2)
    prefactor = Series.monomial(
        6 * s2, GaussRat(0, 1) * quarter_phase(r2), prec=pad
    )  # i * e^(pi i r) * q^(s/2)
    return (prefactor * lerch_sum * theta1.invert()).truncate(prec)


H_POINTS = (V_HALF, V_ONE_PLUS_TAU_HALF, V_TAU_HALF)


@order_memo
def h_series(order):
    """H(tau) = -8 * [mu(1/2) + mu((1+tau)/2) + mu(tau/2)].

    The result is certified real with integer coefficients; the graded
    coefficients live at exponents -1/8 + k/2 and vanish for odd k.
    """
    total = mu_half_period(H_POINTS[0], order)
    for v in H_POINTS[1:]:
        total = total + mu_half_period(v, order)
    h = total.scale(-8).assert_real()
    for e in h.support():
        if h.coefficient(e).re.denominator != 1:
            raise QSeriesError(f"H(tau) coefficient at lattice {e} is not an integer")
    return MockSeries(h, "mu_sum")


def a_coefficients(order):
    """The integers A_n with H = 2 q^(-1/8) (-1 + sum A_n q^n), n <= order."""
    h = h_series(order).series
    out = {}
    for n in range(1, order + 1):
        c = h.coefficient(-3 + 24 * n)
        out[n] = int(c.re / 2)
    return out


def mock_theta_m(order):
    """The mock theta sum M(q), a q-hypergeometric series supported on
    exponents 7 mod 8; term n enters at exponent 8(n+1)^2 - 1."""
    prec = LATTICE_DEN * order
    total = Series.zero(prec)
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
        running = running * den.invert()
        lead = Series.monomial(
            LATTICE_DEN * (8 * (n + 1) ** 2 - 1), 1 if n % 2 else -1, prec=prec
        )
        total = total + lead * running
        n += 1
    return total.truncate(prec)


def q_plus(order):
    """Q+(tau) = -7/2 A_{3,8} + 3/2 A_{7,8} - 1/2 B + 4 M(q).

    Every summand is supported on exponents 3 or 7 mod 8, so all
    exponents of Q+ are -1 mod 4.
    """
    prec = LATTICE_DEN * order
    if order <= 0:
        # the q^-1 pole lies below any precision <= 0: certify it from a
        # positive order rather than claim an empty expansion
        return MockSeries(q_plus(1).series.truncate(prec), "qplus_assembly")
    s = (
        modular_a_sieved(3, order).scale(Fraction(-7, 2))
        + modular_a_sieved(7, order).scale(Fraction(3, 2))
        + modular_b(order).scale(Fraction(-1, 2))
        + mock_theta_m(order).scale(4)
    )
    return MockSeries(s.truncate(prec).assert_real(), "qplus_assembly")


def q_plus_rescaled(order):
    """Q+(tau/8) = q^(-1/8)(1 + 28 q^(1/2) + 39 q + ...)."""
    base = q_plus(8 * order)
    return MockSeries(base.series.rescale_exponents(1, 8), "qplus_assembly")


def mock_from_coefficients(h_values, order):
    """The formal holomorphic part q^(-1/8) sum_k H_k q^(k/2).

    Feeding unit vectors recovers the constant-term functional column
    by column; the construction is linear in h_values.
    """
    prec = LATTICE_DEN * order
    pairs = []
    for k, hk in enumerate(h_values):
        e = -3 + 12 * k
        if e < prec:
            pairs.append((e, GaussRat(Fraction(hk))))
    return MockSeries(Series.from_pairs(pairs, prec=prec), "explicit")


# ----------------------------------------------------------------------
# elliptic genus consistency


def elliptic_genus_theta(v, order):
    """8 * sum_j (theta_j(z|tau)/theta_j(tau))^2 for j = 2, 3, 4 at z = v."""
    if not isinstance(v, HalfPeriodPoint):
        v = HalfPeriodPoint(*v)
    pad_order = order + 4
    chars = {2: (1, 0), 3: (0, 0), 4: (0, 1)}
    total = Series.zero(LATTICE_DEN * pad_order)
    for j, (a, b) in chars.items():
        num = theta_char(a, b, v, pad_order)
        den = theta_nullwert(j, pad_order)
        total = total + (num * den.invert()).pow_int(2)
    return total.scale(8).truncate(LATTICE_DEN * order)


def elliptic_genus_mock(v, order):
    """theta_1(z|tau)^2 / eta^3 * (24 mu(z;tau) + H(tau)) at z = v."""
    if not isinstance(v, HalfPeriodPoint):
        v = HalfPeriodPoint(*v)
    if v.is_lattice_point():
        raise PoleAtArgument("mu(z;tau) is singular at lattice points z")
    pad_order = order + 4
    t1 = theta_char(1, 1, v, pad_order)
    eta3 = eta(1, pad_order + 1).pow_int(3)
    mu = mu_half_period(v, pad_order)
    h = h_series(pad_order).series
    out = t1.pow_int(2) * eta3.invert() * (mu.scale(24) + h)
    return out.truncate(LATTICE_DEN * order)


def elliptic_genus_check(v, order):
    """Difference of the two genus representations; zero when both converge."""
    lhs = elliptic_genus_theta(v, order)
    rhs = elliptic_genus_mock(v, order)
    return (lhs - rhs).truncate(LATTICE_DEN * order)


NAMED_MOCKS = {
    "H": lambda order: h_series(order).series,
    "Qplus": lambda order: q_plus(order).series,
    "QplusTau8": lambda order: q_plus_rescaled(order).series,
    "mu:half": lambda order: mu_half_period(V_HALF, order),
    "mu:tauhalf": lambda order: mu_half_period(V_TAU_HALF, order),
    "mu:onetauhalf": lambda order: mu_half_period(V_ONE_PLUS_TAU_HALF, order),
    "Mq": mock_theta_m,
}
