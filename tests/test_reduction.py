"""The paper's reduction of the 2D isothermal Euler-Poisson system, derived with sympy.

The rotating family is rho = e^f(r/a)/a^2, u = (a'/a) x + (xi/a^2) x_perp and
P = K rho, where a solves the scale law a'' = -c1/a + c2/a^3 and f the radial
law f'' + f'/s + g e^f = F.  Gravity is Phi_r = M(r/a)/r, M(s) = 2 pi
int_0^s e^f tau dtau = (2 pi/g)(F s^2/2 - s f'(s)), the first integral of s
times the radial law.  Here f, f', a and a' are sympy functions whose
derivatives are those laws with symbolic coefficients, so every derivative of
the fields is closed in (f, f', a, a').  Mass and Poisson then vanish for any
coefficients, and the momentum balance leaves three coefficients, K g - 2 pi,
pi F - c1 g and g (c2 - xi^2): it holds exactly when the code's `LiouvilleParams.law`
and `EmdenParams.scale_law` state g = 2 pi/K, F = 2 lam/K, c1 = lam and c2 =
xi^2.

The N-dimensional Goldreich-Weber family (N >= 3) is radial: rho =
f(r/a)^(N/(N-2))/a^N, u = (a'/a) r and P = K rho^((2N-2)/N), with a'' = -c1/a^(N-1)
+ c2/a^3 and f'' + (N-1) f'/s + g f^(N/(N-2)) = F.  Gravity is Phi_r =
alpha(N) M(r/a)/r^(N-1), M(s) = int_0^s f^(N/(N-2)) tau^(N-1) dtau = (F s^N/N -
s^(N-1) f'(s))/g, with alpha(N) = N(N-2) pi^(N/2)/Gamma(N/2 + 1) exact.  Mass and
Poisson vanish for any coefficients; momentum leaves K g (2N-2)/(N-2) - alpha(N),
alpha(N) F - N c1 g and c2: it holds exactly when `GWParams.law` and
`GWParams.scale_law` state g = (N-2) alpha(N)/((2N-2)K), F = N(N-2) lam/((2N-2)K),
c1 = lam and c2 = 0.  This oracle reads neither the ODE solver nor the
finite-difference residuals.
"""

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulerpoisson.emden import EmdenParams
from eulerpoisson.goldreich_weber import GWParams
from eulerpoisson.liouville import LiouvilleParams, alpha_const

# a momentum coefficient of the code's floats is at most this share of its largest term
_ULPS = 4 * 2.0**-52


@functools.cache
def _reduction():
    """The coefficient symbols (K, xi, g, F, c1, c2) and the mass, Poisson and two
    momentum residuals, each as its numerator's coefficients: polynomials in those
    symbols, one per monomial in x, y, r, a, a', f' and e^f, the numerator reduced
    modulo r^2 = x^2 + y^2 so that a residual is 0 exactly when all of them are."""
    import sympy as sp  # a test dependency, never skipped

    t, x, y, r = sp.symbols("t x y r", real=True)
    K, xi, g, F, c1, c2 = coeffs = sp.symbols("K xi g F c1 c2", real=True)

    class f(sp.Function):
        def fdiff(self, argindex=1):
            return fp(*self.args)

    class fp(sp.Function):
        def fdiff(self, argindex=1):
            (s,) = self.args
            return F - g * sp.exp(f(s)) - fp(s) / s

    class a(sp.Function):
        def fdiff(self, argindex=1):
            return ad(*self.args)

    class ad(sp.Function):
        def fdiff(self, argindex=1):
            return -c1 / a(*self.args) + c2 / a(*self.args) ** 3

    # r = sqrt(x^2 + y^2) is a symbol of its own, reached by the chain rule
    dx = lambda e: e.diff(x) + e.diff(r) * x / r
    dy = lambda e: e.diff(y) + e.diff(r) * y / r
    A, B = a(t), ad(t)
    s = r / A
    rho = sp.exp(f(s)) / A**2
    u1, u2 = B / A * x - xi / A**2 * y, B / A * y + xi / A**2 * x
    phi_r = 2 * sp.pi / g * (F * s**2 / 2 - s * fp(s)) / r
    residuals = {
        "mass": rho.diff(t) + dx(rho * u1) + dy(rho * u2),
        "poisson": dx(phi_r * x / r) + dy(phi_r * y / r) - 2 * sp.pi * rho,
        **{name: rho * (u.diff(t) + u1 * dx(u) + u2 * dy(u)) + d(K * rho) + rho * phi_r * c / r
           for name, u, d, c in (("momentum_x", u1, dx, x), ("momentum_y", u2, dy, y))},
    }
    state = sp.symbols("a adot f fdot", real=True)
    known = {f(s): state[2], fp(s): state[3], A: state[0], B: state[1]}

    def coefficients(e):
        num, _ = sp.fraction(sp.together(e.subs(known)))
        num = sp.rem(sp.expand(num), r**2 - x**2 - y**2, r)
        return sp.Poly(sp.expand(num), x, y, r, state[0], state[1], state[3],
                       sp.exp(state[2])).coeffs()

    return coeffs, {name: coefficients(e) for name, e in residuals.items()}


@functools.cache
def _gw_reduction(N: int):
    """The coefficient symbols (K, g, F, c1, c2) and the mass, Poisson and momentum
    residuals of the radial N-dimensional family, each as its numerator's coefficients:
    polynomials in those symbols, one per monomial in r, a, a', f' and phi, where
    f = phi^(N-2), so that the density f^(N/(N-2)) = phi^N and the pressure are powers of
    phi with integer exponents."""
    import sympy as sp

    t, r = sp.symbols("t r", positive=True)
    K, g, F, c1, c2 = coeffs = sp.symbols("K g F c1 c2", real=True)
    p = sp.Rational(N, N - 2)
    alpha = N * (N - 2) * sp.pi ** sp.Rational(N, 2) / sp.gamma(sp.Rational(N, 2) + 1)

    class f(sp.Function):
        def fdiff(self, argindex=1):
            return fp(*self.args)

    class fp(sp.Function):
        def fdiff(self, argindex=1):
            (s,) = self.args
            return F - g * f(s) ** p - (N - 1) * fp(s) / s

    class a(sp.Function):
        def fdiff(self, argindex=1):
            return ad(*self.args)

    class ad(sp.Function):
        def fdiff(self, argindex=1):
            return -c1 / a(*self.args) ** (N - 1) + c2 / a(*self.args) ** 3

    A, B = a(t), ad(t)
    s = r / A
    rho = f(s) ** p / A**N
    u = B / A * r
    pressure = K * rho ** sp.Rational(2 * N - 2, N)
    phi_r = alpha / g * (F * s**N / N - s ** (N - 1) * fp(s)) / r ** (N - 1)
    residuals = {
        "mass": rho.diff(t) + (r ** (N - 1) * rho * u).diff(r) / r ** (N - 1),
        "poisson": (r ** (N - 1) * phi_r).diff(r) / r ** (N - 1) - alpha * rho,
        "momentum": rho * (u.diff(t) + u * u.diff(r)) + pressure.diff(r) + rho * phi_r,
    }
    state = sp.symbols("a adot phi fdot", positive=True)
    known = {f(s): state[2] ** (N - 2), fp(s): state[3], A: state[0], B: state[1]}

    def coefficients(e):
        num, _ = sp.fraction(sp.together(e.subs(known)))
        return sp.Poly(sp.expand(num), r, *state).coeffs()

    return coeffs, {name: coefficients(e) for name, e in residuals.items()}


def _worst_share(coeffs, polys, values) -> float:
    """The largest |coefficient| over its largest |term|, evaluated exactly (the
    floats as rationals, pi to 40 digits) at the coefficient values `values`."""
    import sympy as sp

    exact = {c: sp.Rational(v) for c, v in zip(coeffs, values)}
    worst = 0.0
    for poly in polys:
        total = abs(poly.subs(exact).evalf(40))
        if total:  # else 0 exactly, as at xi = 0 the terms of g (c2 - xi^2) are
            terms = [abs(term.subs(exact).evalf(40)) for term in sp.Add.make_args(sp.expand(poly))]
            worst = max(worst, float(total / max(terms)))
    return worst


class TestRotatingReduction:
    def test_mass_and_poisson_vanish_identically(self):
        _, residuals = _reduction()
        assert residuals["mass"] == [0] and residuals["poisson"] == [0]

    @settings(derandomize=True, max_examples=5, deadline=None)
    @given(K=st.floats(0.5, 2.0), lam=st.floats(0.25, 4.0), alpha=st.floats(-1.0, 1.0),
           xi=st.one_of(st.just(0.0), st.floats(0.25, 4.0)))
    def test_the_codes_laws_balance_momentum(self, K, lam, alpha, xi):
        coeffs, residuals = _reduction()
        law = LiouvilleParams(K, lam, alpha).law
        scale = EmdenParams(lam, xi, 1.0, 0.0).scale_law
        assert (law.d, law.power, scale.d) == (2, None, 2)
        momentum = residuals["momentum_x"] + residuals["momentum_y"]
        values = (K, xi, law.g, law.F, scale.lam, scale.xi2)
        assert _worst_share(coeffs, momentum, values) <= _ULPS
        # mutant controls: a gravity 1e-9 too strong, and a doubled forcing
        g_mutant = (K, xi, law.g * (1 + 1e-9), law.F, scale.lam, scale.xi2)
        assert _worst_share(coeffs, momentum, g_mutant) > 1e-10
        f_mutant = (K, xi, law.g, 2 * law.F, scale.lam, scale.xi2)
        assert _worst_share(coeffs, momentum, f_mutant) > 0.1


class TestGoldreichWeberReduction:
    @pytest.mark.parametrize("N", [3, 4, 5, 6])
    def test_mass_and_poisson_vanish_identically(self, N):
        _, residuals = _gw_reduction(N)
        assert residuals["mass"] == [0] and residuals["poisson"] == [0]

    @pytest.mark.parametrize("N", [3, 4, 5, 6])
    @settings(derandomize=True, max_examples=3, deadline=None)
    @given(K=st.floats(0.5, 2.0), lam=st.floats(-4.0, 4.0))
    def test_the_codes_laws_balance_momentum(self, N, K, lam):
        coeffs, residuals = _gw_reduction(N)
        p = GWParams(N=N, K=K, lam=lam, alpha_center=1.0)
        law, scale = p.law, p.scale_law
        assert (law.d, law.power, scale.d) == (N, N / (N - 2), N)
        values = (K, law.g, law.F, scale.lam, scale.xi2)
        assert _worst_share(coeffs, residuals["momentum"], values) <= _ULPS
        # mutant control: the gravity before the factor N - 2, which is 1 at N = 3
        g_mutant = alpha_const(N) / ((2 * N - 2) * K)
        if N == 3:
            assert g_mutant == law.g
        else:
            mutant = (K, g_mutant, law.F, scale.lam, scale.xi2)
            assert _worst_share(coeffs, residuals["momentum"], mutant) > 0.1
