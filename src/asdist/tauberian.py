"""Coefficient asymptotics from poles on the circle of convergence.

Generic machinery: locate the minimal-modulus poles of a rational function,
extract their leading principal-part coefficients, and predict the
partial sums along the induced arithmetic progression.  `principal_parts`
does this for any rational function, from an exact factorisation of its
denominator (the one use of `sympy`).  The zeta factor of the conductor
series needs no factorisation: its denominator is a product of known
binomials 1 - q^e t^l, so `zeta_factor_poles` reads every pole, and its
order, off those binomials, and `tauberian_constant` uses it.  On top of
that, closed-form asymptotic constants for the conductor counting function
in the two regimes where they are handy (p = 2, any rank; rank 1, odd p).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

import mpmath
import sympy

from .counting import GroupSpec
from .dirichlet import (
    PREC_BITS,
    RationalFunctionT,
    critical_poles,
    holomorphic_factor_at_abscissa,
    holomorphic_factor_cutoff,
    holomorphic_factor_value,
    local_monomials,
    pole_analysis,
    zeta_factor_binomials,
)
from .errors import (
    ModelError,
    PrecisionError,
    UnsupportedInputError,
)
from .field import FieldModel


@dataclass(frozen=True)
class MeromorphicModel:
    """Minimal-modulus pole data of a function holomorphic slightly beyond
    its circle of convergence except for poles on that circle."""

    radius: object  # mpf
    radius_exact: Fraction | None
    pole_order: int
    root_count: int  # poles sit among R * xi^{-j}, xi a primitive root of unity
    principal_coeffs: dict  # j -> mpc, only the j of the poles of maximal order
    principal_exact: dict | None  # same keys, Fractions, when all are rational roots


@dataclass(frozen=True)
class AsymptoticEstimate:
    """Leading-term model c * X^a * log(X)^{b-1} for the counts at
    X = exp(n * log_scale): the value at n is
    c * growth^n * (n * log_scale)^{b-1}, as X^a = growth^n."""

    exponent: Fraction | None
    log_order: int
    constant: object  # mpf
    constant_exact: Fraction | None
    progression: tuple  # (modulus l, residue e)
    growth: object  # per-step factor of the count: X^a = growth^n
    log_scale: object  # log X = n * log_scale


def _cancel(f: RationalFunctionT):
    t = sympy.Symbol("t")
    num = sympy.Poly(list(reversed(f.numerator)), t)
    den = sympy.Poly(list(reversed(f.denominator)), t)
    g = sympy.gcd(num, den)
    if g.degree() > 0:
        num = sympy.div(num, g)[0]
        den = sympy.div(den, g)[0]
    return num, den


def _poles(den):
    """Every root of `den` with its exact multiplicity, from one
    factorisation over Q: (Fraction or None, mpc, multiplicity) triples.
    A linear factor gives its root exactly; every other factor is
    irreducible, hence squarefree, and its simple roots come numerically."""
    poles = []
    for factor, mult in sympy.factor_list(den)[1]:
        coeffs = [int(c) for c in factor.all_coeffs()]
        if len(coeffs) == 2:
            root = Fraction(-coeffs[1], coeffs[0])
            poles.append((root, mpmath.mpc(root.numerator) / root.denominator, mult))
            continue
        try:
            roots = mpmath.polyroots(coeffs, maxsteps=200, extraprec=120)
        except mpmath.libmp.NoConvergence as exc:
            raise PrecisionError(f"pole finder did not converge: {exc}") from exc
        poles += [(None, mpmath.mpc(z), mult) for z in roots]
    return poles


def principal_parts(f: RationalFunctionT, correction=None) -> MeromorphicModel:
    """Locate the minimal-modulus poles of f and compute the order-b
    principal Laurent coefficients of the maximal order b found there.

    `correction` is an optional holomorphic factor evaluated at each pole
    (used when f is known only as rational-part times point-evaluable part).
    """
    with mpmath.workprec(PREC_BITS):
        num, den = _cancel(f)
        if den.degree() == 0:
            raise ValueError("input has no pole")
        poles = _poles(den)
        radius = min(abs(z) for _, z, _ in poles)
        tol = radius * mpmath.mpf(2) ** (-PREC_BITS // 3)
        on_circle = [item for item in poles if abs(abs(item[1]) - radius) < tol]
        if any(
            tol <= abs(abs(z) - radius) < radius * mpmath.mpf("1e-6")
            for _, z, _ in poles
        ):
            raise PrecisionError(
                "pole moduli too close to separate at the working precision"
            )
        order = max(mult for _, _, mult in on_circle)
        # distinct fractions of denominator <= 2^(prec/8) lie >= 2^(-prec/4)
        # apart, far wider than angle_tol, so the reading is unambiguous
        angle_tol = mpmath.mpf(2) ** (-PREC_BITS // 3)
        by_angle = {}
        for pole in on_circle:
            angle = mpmath.arg(pole[1]) / (2 * mpmath.pi)
            near = Fraction(int(mpmath.nint(angle * 2**PREC_BITS)), 2**PREC_BITS)
            near = near.limit_denominator(2 ** (PREC_BITS // 8))
            if abs(angle - mpmath.mpf(near.numerator) / near.denominator) >= angle_tol:
                raise PrecisionError(
                    "pole angles are not commensurable at this precision"
                )
            by_angle[near % 1] = pole
        root_count = math.lcm(*(a.denominator for a in by_angle))
        radius_exact = next(
            (abs(exact) for exact, _, _ in on_circle if exact is not None), None
        )

        num_coeffs = [int(c) for c in reversed(num.all_coeffs())]
        den_coeffs = [int(c) for c in reversed(den.all_coeffs())]
        den_deriv = [math.perm(i, order) * c for i, c in enumerate(den_coeffs)]
        den_deriv = den_deriv[order:]
        # the maximal-order poles, keyed by j in 1..root_count (angle -j/root_count)
        top = {int(-angle * root_count) % root_count or root_count: pole
               for angle, pole in by_angle.items() if pole[2] == order}
        coeffs: dict = {}
        exact_coeffs: dict | None = {} if correction is None else None
        for j in sorted(top):
            exact, z, _ = top[j]
            coeffs[j] = (
                mpmath.factorial(order)
                * mpmath.polyval(num_coeffs[::-1], z)
                / mpmath.polyval(den_deriv[::-1], z)
            )
            if correction is not None:
                coeffs[j] *= correction(z)
            if exact is None:
                exact_coeffs = None
            elif exact_coeffs is not None:
                n_val = sum(Fraction(c) * exact**i for i, c in enumerate(num_coeffs))
                d_val = sum(Fraction(c) * exact**i for i, c in enumerate(den_deriv))
                exact_coeffs[j] = math.factorial(order) * n_val / d_val
        return MeromorphicModel(
            radius, radius_exact, order, root_count, coeffs, exact_coeffs
        )


def zeta_factor_poles(model: FieldModel, p: int, r: int, correction) -> MeromorphicModel:
    """`principal_parts(zeta_factor_rational(model, p, r), correction)`,
    read off the binomials 1 - q^e t^l of the denominator: no factorisation
    and no root finding.  It visits only the j where some binomial
    vanishes and keeps the poles of maximal order, in increasing j.  It
    leaves the exact fields `radius_exact` and `principal_exact` None.

    The poles on the circle |t| = R = q^(-a) sit among z_j = R xi^(-j),
    xi = exp(2 pi i / ell), and `critical_poles` gives a, ell and the
    binomials that vanish at each z_j.  A vanishing binomial has
    1 - q^e t^l ~ -(l / z_j)(t - z_j), so the principal coefficient
    lim (t - z)^b f(t) of z = z_j is (-z)^b N(z) / (prod_vanishing l *
    prod_other (1 - q^e z^l)) times correction(z), with the numerator
    N(t) = prod L(q^k t^l) over the monomials N^k u^l, l >= 2, of
    `local_monomials`.  N has no zero on the circle when L satisfies the
    Riemann hypothesis.
    """
    a, ell, vanishing = critical_poles(p, r)
    q, binomials = model.q, zeta_factor_binomials(p, r)
    order = max(map(len, vanishing.values()))
    with mpmath.workprec(PREC_BITS):
        radius = mpmath.mpf(q) ** (-mpmath.mpf(a.numerator) / a.denominator)
        l_coeffs = list(reversed(model.l_poly))
        coeffs: dict = {}
        for j, zeros in sorted(vanishing.items()):
            if len(zeros) != order:
                continue
            z = radius * mpmath.expjpi(mpmath.mpf(-2 * j) / ell)
            numer = mpmath.mpf(1)
            for k, l in local_monomials(p, r)[1:]:
                numer *= mpmath.polyval(l_coeffs, q**k * z**l)
            if abs(numer) < mpmath.mpf(2) ** (-PREC_BITS // 2):
                raise PrecisionError(
                    f"the zeta factor's numerator vanishes at the pole {z}"
                )
            denom = mpmath.mpf(1)
            for l, e in binomials:
                denom *= l if (l, e) in zeros else 1 - q**e * z**l
            coeffs[j] = (-z) ** order * numer / denom * correction(z)
        return MeromorphicModel(radius, None, order, ell, coeffs, None)


def _imag_guard(value, magnitude):
    """Re(value), after checking that Im(value) is rounding noise: below
    2^(-PREC_BITS/2) of `magnitude`, the sum of the moduli of the terms
    that `value` sums."""
    if abs(mpmath.im(value)) > mpmath.mpf(2) ** (-PREC_BITS // 2) * magnitude:
        raise PrecisionError(
            f"prediction has nonvanishing imaginary part {mpmath.im(value)}"
        )
    return mpmath.re(value)


def predict_partial_sums(model: MeromorphicModel, m: int) -> AsymptoticEstimate:
    """Leading-term model of the coefficient partial sums along the
    progression class of m."""
    if m < 1:
        raise ValueError("prediction needs m >= 1")
    with mpmath.workprec(PREC_BITS):
        b = model.pole_order
        ell = model.root_count
        s, magnitude = mpmath.mpc(0), mpmath.mpf(0)
        for j, p_j in model.principal_coeffs.items():
            # u = R xi^(-j) and the phase xi^(j m), xi = exp(2 pi i / ell),
            # as exact fractions of a turn: a power of a rounded xi loses
            # the working bits once j m approaches ell^2
            u = model.radius * mpmath.expjpi(mpmath.mpf(-2 * j) / ell)
            phase = mpmath.expjpi(mpmath.mpf(2 * (j * m % ell)) / ell)
            term = (-u) ** (-b) * p_j * phase / (1 - u)
            s += term
            magnitude += abs(term)
        s = _imag_guard(s, magnitude) / mpmath.factorial(b - 1)
        log_scale = mpmath.log(1 / model.radius)
        if b >= 2 and not log_scale:
            raise UnsupportedInputError(f"poles of order {b} on the unit circle")
        constant = s / log_scale ** (b - 1)
        # every pole in principal_exact is a rational root, so it sits at
        # u = R (j = ell) or u = -R (j = ell/2), with phase xi^(j m) = sign^m
        constant_exact = None
        if model.principal_exact is not None and b == 1:
            constant_exact = Fraction(0)
            for j, p_j in model.principal_exact.items():
                sign = 1 if j == ell else -1
                u = sign * model.radius_exact
                constant_exact -= p_j * sign**m / (u * (1 - u))
        return AsymptoticEstimate(
            exponent=Fraction(1),
            log_order=b,
            constant=constant,
            constant_exact=constant_exact,
            progression=(ell, m % ell),
            growth=1 / model.radius,
            log_scale=log_scale,
        )


def closed_form_constant(
    model: FieldModel,
    group: GroupSpec,
    degree_cutoff: int | None = None,
) -> AsymptoticEstimate:
    """Closed-form asymptotic constant of the conductor counting function,
    available for p = 2 (any rank) and for rank 1 (any p).  The Euler
    product stops at `degree_cutoff`, by default `holomorphic_factor_cutoff`."""
    if group.p != model.p:
        raise ModelError("group exponent must equal the field characteristic")
    p, r = group.p, group.r
    if p != 2 and r != 1:
        raise UnsupportedInputError(
            "closed-form constants exist for p = 2 or rank 1 only; use the "
            "generic principal-part extraction instead"
        )
    report = pole_analysis(p, r)
    a = report.abscissa
    residue_factor = model.zeta_residue_factor()  # log(q) * zeta(1), exact
    e_top = group.e_coeffs[r]
    with mpmath.workprec(PREC_BITS):
        logq = mpmath.log(model.q)
        if p == 2:
            constant_exact = e_top * residue_factor / (
                (1 - Fraction(1, model.q ** (r + 1))) * model.zeta_value(r + 1)
            )
            constant = mpmath.mpf(constant_exact.numerator) / constant_exact.denominator
        else:
            constant_exact = None
            if degree_cutoff is None:
                degree_cutoff = holomorphic_factor_cutoff(model, p, r)
            product, _ = holomorphic_factor_at_abscissa(model, p, r, degree_cutoff)
            rational_part = (
                e_top
                * residue_factor ** (p - 1)
                / (
                    math.factorial(p - 2)
                    * math.factorial(p)
                    * (1 - Fraction(1, model.q))
                )
            )
            constant = (
                mpmath.mpf(rational_part.numerator)
                / rational_part.denominator
                * product
                / logq ** (p - 2)
            )
        return AsymptoticEstimate(
            exponent=a,
            log_order=report.log_order,
            constant=constant,
            constant_exact=constant_exact,
            progression=(2 if p == 2 else 1, 0),
            growth=mpmath.mpf(model.q) ** (mpmath.mpf(a.numerator) / a.denominator),
            log_scale=logq,
        )


def tauberian_constant(
    model: FieldModel,
    group: GroupSpec,
    degree_cutoff: int | None = None,
) -> AsymptoticEstimate:
    """Asymptotic constant via principal-part extraction from the exact
    meromorphic factor, corrected by the holomorphic factor.  The exponent,
    log scale and cutoff default are as in `closed_form_constant`."""
    if group.p != model.p:
        raise ModelError("group exponent must equal the field characteristic")
    p, r = group.p, group.r
    e_top = group.e_coeffs[r]
    if degree_cutoff is None:
        degree_cutoff = holomorphic_factor_cutoff(model, p, r)

    def correction(u):
        # runs inside zeta_factor_poles at PREC_BITS, so e_top is not
        # rounded to the default 53 bits
        value = holomorphic_factor_value(model, p, r, u, degree_cutoff)
        return value * e_top.numerator / e_top.denominator

    pole_model = zeta_factor_poles(model, p, r, correction)
    estimate = predict_partial_sums(pole_model, pole_model.root_count)
    # a pole of order > 1 occurs only for r = 1, where R = 1/q, so the
    # constant (divided by log(1/R)^(b-1)) agrees with log_scale = log q
    with mpmath.workprec(PREC_BITS):
        return replace(
            estimate,
            exponent=pole_analysis(p, r).abscissa,
            log_scale=mpmath.log(model.q),
        )
