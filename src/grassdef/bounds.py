"""Non-defectivity bounds, osculating dimensions and limit hyperplanes.

The bounds certify that the h-secant variety of a Grassmannian or
Segre-Veronese variety has the expected dimension for every h up to the
reported maximum.  They are purely combinatorial: the heavy lifting is the
auxiliary sequence h_m, read off a binary expansion, which counts how many
general points an inductive osculating degeneration can absorb.  Limit
hyperplanes are closed-form too: two binomials per coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb, gcd, lcm, log10

from .indices import GrassShape, SegreVeroneseShape, _check_digits, _check_ints, _check_size, _int_text


def h_m(m: int, k: int) -> int:
    """Value of the auxiliary sequence h_m at k >= 0, for m >= 2.

    h_m(0) = 0, and for k >= 1 write k + 1 = 2^{a_1} + ... + 2^{a_s} + eps
    with a_1 > ... > a_s >= 1 and eps in {0, 1}; then
    h_m(k) = m^{a_1 - 1} + ... + m^{a_s - 1}.

    Consequences used elsewhere: h_m(2k) = h_m(2k - 1) and
    h_2(k) = floor((k + 1) / 2).
    """
    _check_ints("m", (m,), 2)
    _check_ints("k", (k,), 0)
    return _h(m, k)


def _h_log10(m: int, k: int) -> float:
    """A bound on log10 h_m(j) for every j <= k, for _check_digits before any
    power is taken: h_m(j) sums distinct powers among m^0, ..., m^(t-1) for
    t = floor(log2(j + 1)), so it is below m^t / (m - 1)."""
    return ((max(k, 0) + 1).bit_length() - 1) * log10(m) - log10(m - 1)


def _h(m: int, k: int) -> int:
    # extension by 0 for k <= 0; the bound branches below may produce
    # negative residual arguments and rely on this convention
    if k <= 0:
        return 0
    v = k + 1
    total = 0
    i = 1
    while (1 << i) <= v:
        if v & (1 << i):
            total += m ** (i - 1)
        i += 1
    return total


@dataclass(frozen=True)
class BoundReport:
    """Outcome of a non-defectivity bound.

    max_h is the largest number of points h for which the bound asserts
    that the h-secant variety has the expected dimension.  raw_value keeps
    the branch sum before normalization and branch records which case of
    the bound applied.
    """

    max_h: int
    raw_value: int
    branch: str

    @property
    def statement(self) -> str:
        return f"not h-defective for h ≤ {self.max_h}"


def _bound_args(r: int, n: int) -> tuple[int, int]:
    """The (r, n) of GrassShape(r, n); refuses a normalized r below 2."""
    shape = GrassShape(r, n)
    if shape.r < 2:
        raise ValueError(
            "the bound needs r >= 2; secant varieties of Grassmannians of "
            "lines are understood classically"
        )
    return shape.r, shape.n


def grass_bound(r: int, n: int) -> BoundReport:
    """Main non-defectivity bound for secant varieties of G(r, n).

    With alpha = floor((n + 1) / (r + 1)) the report certifies max_h = B + 1
    where B is, for (r, n) normalized by GrassShape to n >= 2r + 1,

      alpha * h_alpha(r - 1)                        if n >= r^2 + 3r + 1,
      (alpha - 1) h_alpha(r - 1) + h_alpha(r')      if r is even,
      (alpha - 1) h_alpha(r - 2) + h_alpha(r'')     if r is odd,

    with r' = n - 2 - alpha r and r'' = min(n - 3 - alpha(r - 1), r - 2).
    The residual arguments r' and r'' can leave [0, r - 1]; h is extended
    by zero on nonpositive arguments.
    """
    r, n = _bound_args(r, n)
    alpha = (n + 1) // (r + 1)
    # B = (alpha - 1) h_alpha(a) + h_alpha(b) < alpha 10^_h_log10(alpha, max(a, b))
    if n >= r * r + 3 * r + 1:
        branch, a, b = "large_n", r - 1, r - 1
    elif r % 2 == 0:
        branch, a, b = "even_r", r - 1, n - 2 - alpha * r
    else:
        branch, a, b = "odd_r", r - 2, min(n - 3 - alpha * (r - 1), r - 2)
    _check_digits(f"the {branch} bound at r = {r}", log10(alpha) + _h_log10(alpha, max(a, b)))
    value = (alpha - 1) * _h(alpha, a) + _h(alpha, b)
    return BoundReport(max_h=value + 1, raw_value=value, branch=branch)


def linear_bound(r: int, n: int) -> BoundReport:
    """Closed-form corollary of grass_bound, always at most as strong.

    max_h is the certified value itself, for (r, n) normalized as there:

      floor(r / 2) alpha + 1                                  if n >= r^2 + 3r + 1,
      floor((n + 1) / 2) - r / 2                              if r is even,
      min{ (r - 1)/2 alpha + 1, floor(n / 2) - (r - 1)/2 }    if r is odd.
    """
    r, n = _bound_args(r, n)
    alpha = (n + 1) // (r + 1)
    if n >= r * r + 3 * r + 1:
        value = (r // 2) * alpha + 1
        branch = "large_n"
    elif r % 2 == 0:
        value = (n + 1) // 2 - r // 2
        branch = "even_r"
    else:
        value = min(((r - 1) // 2) * alpha + 1, n // 2 - (r - 1) // 2)
        branch = "odd_r"
    return BoundReport(max_h=value, raw_value=value, branch=branch)


def aop_bound(r: int, n: int) -> BoundReport:
    """Previously known non-defectivity range, kept for comparison.

    Certifies max_h = floor((n - r) / 3) + 1 for (r, n) normalized as in
    grass_bound, so the two reports are directly comparable.
    """
    r, n = _bound_args(r, n)
    value = (n - r) // 3 + 1
    return BoundReport(max_h=value, raw_value=value, branch="aop")


def sv_bound(shape: SegreVeroneseShape) -> BoundReport:
    """Non-defectivity bound for Segre-Veronese varieties.

    Requires total degree d = d_1 + ... + d_t at least 3 and certifies
    max_h = n_1 * h_{n_1 + 1}(d - 2) + 1 where n_1 is the smallest factor
    dimension.
    """
    if not isinstance(shape, SegreVeroneseShape):
        raise TypeError("sv_bound takes a SegreVeroneseShape")
    d = shape.d_total
    if d < 3:
        raise ValueError("the bound needs total degree at least 3")
    n1 = shape.n[0]
    _check_digits("the sv bound", log10(n1) + _h_log10(n1 + 1, d - 2))
    raw = n1 * _h(n1 + 1, d - 2)
    return BoundReport(max_h=raw + 1, raw_value=raw, branch="sv")


def osculating_dim_grass(r: int, n: int, s: int) -> int:
    """Dimension of the general s-th osculating space of G(r, n) in the
    Pluecker embedding.

    With (r, n) normalized by GrassShape, equals sum_{l=1}^{s} C(r+1, l)
    C(n-r, l) for s <= r and the ambient dimension from s = r + 1 on.
    """
    r = GrassShape(r, n).r
    _check_ints("s", (s,), 0)
    top = min(s, r + 1)
    return sum(comb(r + 1, l) * comb(n - r, l) for l in range(1, top + 1))


@lru_cache(maxsize=8)
def _sv_level_counts(shape: SegreVeroneseShape) -> tuple[int, ...]:
    # coefficient list of prod_j sum_{l=0}^{d_j} C(n_j + l - 1, l) x^l;
    # entry l counts the monomials contributing to the l-th osculating level;
    # built once per shape, since a sweep asks for every level
    counts = [1]
    for nj, dj in zip(shape.n, shape.d):
        factor = [comb(nj + l - 1, l) for l in range(dj + 1)]
        new = [0] * (len(counts) + dj)
        for i, a in enumerate(counts):
            if not a:
                continue
            for l, b in enumerate(factor):
                new[i + l] += a * b
        counts = new
    return tuple(counts)


def osculating_dim_sv(shape: SegreVeroneseShape, s: int) -> int:
    """Dimension of the general s-th osculating space of a Segre-Veronese
    variety; saturates at the ambient dimension from s = d_total on."""
    if not isinstance(shape, SegreVeroneseShape):
        raise TypeError("osculating_dim_sv takes a SegreVeroneseShape")
    _check_ints("s", (s,), 0)
    counts = _sv_level_counts(shape)
    return sum(counts[1 : min(s, shape.d_total) + 1])


@dataclass(frozen=True)
class LimitHyperplane:
    """Integer coefficient vector (c_0, ..., c_s) of a hyperplane section
    adapted to a two-point collision of osculating conditions on a degree D
    rational normal curve."""

    coeffs: tuple[int, ...]
    trivial: bool


def limit_hyperplane_coeffs(D: int, s: int, sbar: int, k1: int, k2: int) -> LimitHyperplane:
    """Coefficients of the limit hyperplane for parameters (D, s, sbar,
    k1, k2) with D > k1 + k2 + 1, 0 <= s <= D and sbar, k1, k2 >= 0.

    For s < D - k2 the trivial section (1, 0, ..., 0) works.  Otherwise the
    coefficients satisfy c_j = 0 for j in [D - k1, s] together with the
    collision relations sum_k C(sbar + j, j - k) c_k = 0 for j in
    [D - k2, s].  With q = s - D + k2 + 1 <= k2 + 1 < D - k1 the answer is
    c_k = (-1)^k C(s - k, q - k) C(sbar + k, k) for k <= q and 0 above,
    over the gcd of its entries, so c_0 = C(s, q) / gcd > 0.

    As C(sbar + j, j - k) C(sbar + k, k) = C(sbar + j, j) C(j, k), relation
    j is C(sbar + j, j) times the j-th finite difference, up to sign, of
    f(k) = C(s - k, s - q): the first binomial of c_k for k <= q, and 0 for
    q < k <= j <= s.  f has degree s - q = D - k2 - 1 < j, so every
    relation holds.  With c_0 fixed, the relations on c_1..c_q have matrix
    diag(C(sbar + j, j)) [C(j, k)] diag(1 / C(sbar + k, k)); for j =
    s - q + 1..s and k = 1..q, det [C(j, k)] is the product of the j times
    their Vandermonde over 1! 2! ... q!, so the solution is unique up to
    scale.  Each relation is still checked, divided by C(sbar + j, j) so
    that no binomial of size sbar + D - k2 is built; a residual raises
    ArithmeticError.  _check_size caps the s + 1 coefficients and the
    q (q + 1) terms of the check, and a bound C(s, q) C(sbar + q, q) on
    |c_k| too long to print is refused before anything is built.  It
    ignores the gcd, so it may refuse coefficients that would print.
    """
    _check_ints("D, s, sbar, k1 and k2", (D, s, sbar, k1, k2))
    _check_ints("sbar, k1 and k2", (sbar, k1, k2), 0)
    if D <= k1 + k2 + 1:
        raise ValueError("need D > k1 + k2 + 1")
    _check_ints("s", (s,), 0, D)
    q = s - D + k2 + 1
    label = f"the limit hyperplane at s = {_int_text(s)}"
    _check_size(label, s + 1 + max(q, 0) * (q + 1))
    if q <= 0:
        return LimitHyperplane((1,) + (0,) * s, trivial=True)
    # log10 C(s, q) C(sbar + q, q) term by term: lgamma overflows past 1e308
    _check_digits(label, sum(log10((s - i) * (sbar + q - i)) - 2 * log10(q - i) for i in range(q)))
    # each binomial from the one before, as s - k >= s - q = D - k2 - 1 > 0
    coeffs, a, b = [], comb(s, q), 1
    for k in range(q + 1):
        coeffs.append(-a * b if k & 1 else a * b)
        a, b = a * (q - k) // (s - k), b * (sbar + k + 1) // (k + 1)
    g = gcd(*coeffs)
    coeffs = [c // g for c in coeffs] + [0] * (s - q)
    # relation j over C(sbar + j, j) is sum_k C(j, k) c_k / C(sbar + k, k); times
    # L = lcm_k C(sbar + k, k) it is y_0 of P^j w for w_k = L c_k / C(sbar + k, k)
    # and (P y)_k = y_k + y_(k+1), since C(j + 1, k) = C(j, k) + C(j, k - 1)
    binoms = [comb(sbar + k, k) for k in range(q + 1)]
    common = lcm(*binoms)
    weighted = [common // b * c for b, c in zip(binoms, coeffs)]
    pascal = [comb(D - k2, i) for i in range(q + 1)]
    y = [sum(a * b for a, b in zip(pascal, weighted[k:])) for k in range(q + 1)]
    for j in range(D - k2, s + 1):
        if y[0]:
            raise ArithmeticError(f"the collision relation for j = {j} leaves residual {y[0]}")
        y = [a + b for a, b in zip(y, y[1:])]
    return LimitHyperplane(tuple(coeffs), trivial=False)
