"""Invariants of the basis, the interval lookup, the moment tables, the
pricing rows, the cone solver and the PDE step, on random inputs.

The oracles share no code with the parts under test: the constant one and
the forward recursion for the basis, ``scipy.integrate.quad`` of the
densities written out here, split at the knots and at multiples of the
standard deviation, basis values from the recursive evaluation route, and
scipy's SLSQP for the solver, bisection and a row-by-row Horner for
piecewise evaluation, dense Gauss-Legendre products of the whole basis
for the PDE's weak form, and Gauss-Legendre sums with closed-form
Gaussian tails for its mass and mean.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.integrate import quad
from scipy.optimize import minimize

from volspline import bspline as bs, opt, pde, priors as pr, regression as rg, slv, surface as sf

SETTINGS = settings(derandomize=True, deadline=None, max_examples=40)
SPLITS = np.array([-40.0, -20.0, -10.0, -6.0, -3.0, -1.5, 0.0, 1.5, 3.0, 6.0, 10.0, 20.0, 40.0])

maturities = st.floats(0.1, 2.0)
# interval ends in standard deviations from the centre; None is infinite
ends = st.one_of(st.none(), st.floats(-14.0, 14.0))


def _quad(f, lo, hi, centre, sd, points=(), reach=45.0):
    """Integral of f over [lo, hi] clipped to centre -+ reach * sd, split at
    centre + SPLITS * sd and at ``points``."""
    lo, hi = max(lo, centre - reach * sd), min(hi, centre + reach * sd)
    cuts = np.unique(np.concatenate([[lo, hi], centre + SPLITS * sd, np.asarray(points, dtype=float)]))
    cuts = cuts[(cuts >= lo) & (cuts <= hi)]
    return sum(quad(f, a, b, epsabs=0.0, epsrel=1e-12, limit=200)[0] for a, b in zip(cuts[:-1], cuts[1:]))


def _gauss_pdf(mean, sd):
    return lambda x: math.exp(-0.5 * ((x - mean) / sd) ** 2) / (sd * math.sqrt(2.0 * math.pi))


def _bounds(z_lo, z_hi, centre, sd):
    lo = -math.inf if z_lo is None else centre + z_lo * sd
    hi = math.inf if z_hi is None else centre + z_hi * sd
    return (lo, hi) if lo <= hi else (hi, lo)


def _ssvi(data, T):
    params = pr.SSVIParams(
        C=data.draw(st.floats(0.0, 0.02)), K=data.draw(st.floats(0.02, 0.08)),
        rho=data.draw(st.floats(-0.7, 0.5)), eta=data.draw(st.floats(0.2, 1.2)),
        gamma=data.draw(st.floats(0.3, 0.6)), forward_curve=100.0,
    )
    assume(pr.validate_ssvi(params, (T, T)).passed)
    return params


# ---------------------------------------------------------------------------
# the basis: partition of unity and evaluation routes
# ---------------------------------------------------------------------------

# knots near zero and far from it, where local coordinates keep Horner exact
centres = st.sampled_from([0.0, 1e3, -1e4, 1e6, -3e7])


def _knots_and_points(data, n_knots, centre):
    """Random knots, and points across them, three spans into each wing and on every knot."""
    gaps = data.draw(st.lists(st.floats(0.05, 1.0), min_size=n_knots - 1, max_size=n_knots - 1))
    g = centre + np.concatenate([[0.0], np.cumsum(gaps)])
    span = g[-1] - g[0]
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
    return g, np.concatenate([rng.uniform(g[0] - 3.0 * span, g[-1] + 3.0 * span, 60), g]), rng


@SETTINGS
@given(data=st.data(), order=st.integers(0, 4), extra=st.integers(2, 7), centre=centres)
def test_partition_of_unity_for_every_truncation(data, order, extra, centre):
    """On k knots with order n, the k - n + 1 functions of wing degree at most
    0 sum to one on the whole line, and every truncation t >= 0 keeps them.
    The compact B-splines (t = -1) sum to one on [g_n, g_{k-1-n}), where all
    n + 1 active ones are kept, and to zero off [g_0, g_{k-1}).  A kept wing
    of degree d >= 1 vanishes on [g_{n-d}, g_{k-1-n+d}]."""
    n, k = order, order + extra
    g, xs, _ = _knots_and_points(data, k, centre)
    for t in range(-1, n + 1):
        basis = bs.make_basis(g, n, t)
        full = np.arange(basis.first_index, basis.last_index + 1)  # full-basis index per kept function
        flat = (full >= n) & (full <= k)
        for values in (bs.design_matrix(basis, xs), basis.compiled().evaluate(xs)):
            total = values[:, flat].sum(axis=1)
            if t >= 0:
                assert flat.sum() == k - n + 1
                np.testing.assert_allclose(total, 1.0, rtol=0.0, atol=1e-13)
            else:
                inside = (xs >= g[n]) & (xs < g[k - 1 - n])
                np.testing.assert_allclose(total[inside], 1.0, rtol=0.0, atol=1e-13)
                assert not values[(xs < g[0]) | (xs >= g[-1])].any()
            for d in range(1, t + 1):
                assert not values[xs >= g[n - d], np.flatnonzero(full == n - d)].any()
                assert not values[xs <= g[k - 1 - n + d], np.flatnonzero(full == k + d)].any()


@SETTINGS
@given(data=st.data(), order=st.integers(0, 4), extra=st.integers(2, 7), centre=centres)
def test_evaluation_routes_agree(data, order, extra, centre):
    """Forward recursion, de Boor collapse and compiled Horner give one
    spline, and the derivative map gives the derivative of the compiled
    pieces.  Errors are relative to ``sum |w_j B_j| + max |w_j|``: near the
    end of a support both routes round to about eps, not to eps times the
    small value."""
    g, xs, rng = _knots_and_points(data, order + extra, centre)
    basis = bs.make_basis(g, order, data.draw(st.integers(-1, order)))
    spline = bs.Spline(basis, rng.standard_normal(basis.dimension))

    def scale(sp):
        return np.abs(bs.design_matrix(sp.basis, xs)) @ np.abs(sp.weights) + np.abs(sp.weights).max()

    forward = spline(xs, method="forward")
    for route in ("backward", "compiled"):
        assert np.max(np.abs(spline(xs, method=route) - forward) / scale(spline)) <= 1e-12, route
    if order:
        slope = spline.derivative_spline(1)
        err = np.abs(slope(xs, method="forward") - spline.compiled().derivative()(xs))
        assert np.max(err / scale(slope)) <= 1e-12


# ---------------------------------------------------------------------------
# interval lookup and piecewise evaluation: exact against bisection
# ---------------------------------------------------------------------------

def _neighbours(g):
    """Every knot and the floats just below and just above it."""
    return np.concatenate([g, np.nextafter(g, -np.inf), np.nextafter(g, np.inf)])


def _even_knots(data):
    """``g0 + h * arange(n)``, the affine image a calibration date maps its
    unit basis to, or ``linspace(g0, g1, n)``, the knots it stands for."""
    n = data.draw(st.integers(2, 40))
    g0 = data.draw(st.floats(-1e6, 1e6))
    h = data.draw(st.floats(1e-3, 1e3))
    if data.draw(st.booleans()):
        return g0 + h * np.arange(n)
    return np.linspace(g0, g0 + h * (n - 1), n)


any_floats = st.floats(allow_nan=True, allow_infinity=True)


@settings(SETTINGS, max_examples=150)
@given(data=st.data())
def test_equal_spacing_locate_is_bisection(data):
    """On evenly spaced knots the corrected floor is the bisection index for
    every float: knots, their neighbours, points across the range, huge
    values, infinities and NaN."""
    g = _even_knots(data)
    kv = bs.KnotVector(g)
    assert kv.equal_spacing
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
    span = g[-1] - g[0]
    xs = np.concatenate([
        _neighbours(g),
        rng.uniform(g[0] - span, g[-1] + span, 50),
        np.array(data.draw(st.lists(any_floats, max_size=20))),
        [np.inf, -np.inf, np.nan],
    ])
    expected = np.searchsorted(g, xs, side="right") - 1
    np.testing.assert_array_equal(kv.locate(xs), expected)
    for x, e in list(zip(xs, expected))[::7]:
        assert kv.locate(x) == e


def horner_by_rows(pp, x):
    """The piecewise polynomial by bisection, a row gather of its
    coefficients and ``acc = acc * u + c[:, d]``."""
    xs = np.asarray(x, dtype=float)
    scalar = xs.ndim == 0
    xs = np.atleast_1d(xs)
    idx = np.searchsorted(pp.breakpoints, xs, side="right")
    u = xs - pp.refs[idx]
    c = pp.coeffs[idx]
    acc = c[:, -1].copy()
    for d in range(c.shape[1] - 2, -1, -1):
        acc = acc * u + c[:, d]
    return float(acc[0]) if scalar else acc


@settings(SETTINGS, max_examples=100)
@given(data=st.data(), even=st.booleans(), degree=st.integers(0, 4))
def test_piecewise_poly_is_horner_by_rows_bit_for_bit(data, even, degree):
    """Evaluation equals the bisection-and-row-gather reference bit for bit,
    on equal and unequal breakpoints (and none), for array and scalar
    input, on the knots, next to them and in both wings."""
    m = data.draw(st.integers(0, 12))
    if even and m:
        g = np.linspace(-2.0, 3.0, m) if m > 1 else np.array([0.5])
    else:
        g = np.cumsum(data.draw(st.lists(st.floats(0.01, 1.0), min_size=m, max_size=m)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
    refs = np.concatenate([[g[0] if m else 0.0], g]) + rng.uniform(-0.1, 0.1, m + 1)
    pp = bs.PiecewisePoly(g, refs, rng.standard_normal((m + 1, degree + 1)))
    if even and m > 1:
        assert pp._knots.equal_spacing
    lo, hi = (g[0], g[-1]) if m else (-1.0, 1.0)
    xs = np.concatenate([_neighbours(g), rng.uniform(lo - 5.0, hi + 5.0, 40), [lo - 1e3, hi + 1e3]])
    assert pp(xs).tobytes() == horner_by_rows(pp, xs).tobytes()
    for x in xs[::7]:
        value = pp(x)
        assert isinstance(value, float) and np.float64(value).tobytes() == np.float64(horner_by_rows(pp, x)).tobytes()


def test_slv_paths_are_those_of_horner_by_rows(monkeypatch):
    """The particle calibration and the path simulation evaluate the
    conditional variance at every particle: with the reference evaluator
    patched in, coefficients and terminal spots come out bit for bit."""
    p = slv.ScottParams(100.0, 0.2, 1.0, 0.3, -0.8, 0.25)
    grid = np.linspace(0.0, 1.0, 11)

    def run():
        surface = slv.calibrate_leverage(p, grid, 2000, seed=3)
        return [s.cond_var.coeffs for s in surface.slices], slv.simulate_terminal(surface, 2**12, 4)

    coeffs, spots = run()
    monkeypatch.setattr(bs.PiecewisePoly, "__call__", horner_by_rows)
    ref_coeffs, ref_spots = run()
    assert all(a.tobytes() == b.tobytes() for a, b in zip(coeffs, ref_coeffs))
    assert spots.tobytes() == ref_spots.tobytes()


# ---------------------------------------------------------------------------
# one table per measure
# ---------------------------------------------------------------------------

@SETTINGS
@given(T=maturities, mean=st.floats(-150.0, 150.0), rate=st.floats(0.01, 400.0),
       z=st.tuples(ends, ends), zref=st.floats(-4.0, 4.0), deg=st.integers(0, 6))
def test_gaussian_table_matches_quad(T, mean, rate, z, zref, deg):
    law = pr.BachelierPrior(mean, rate * T)
    sd = law.sigma
    lo, hi = _bounds(*z, mean, sd)
    ref = mean + zref * sd
    table = law.moment_table([lo], [hi], [ref], deg)[0]
    pdf = _gauss_pdf(mean, sd)
    for d in range(deg + 1):
        want = _quad(lambda x: (x - ref) ** d * pdf(x), lo, hi, mean, sd)
        size = _quad(lambda x: abs(x - ref) ** d * pdf(x), lo, hi, mean, sd)
        # relative to the integral of |x - ref|^d: far-tail intervals keep their digits
        assert abs(table[d] - want) <= 1e-10 * size + 1e-300


@SETTINGS
@given(T=maturities, vol=st.floats(0.05, 0.6), z=st.tuples(ends, ends), zref=st.floats(-3.0, 3.0),
       deg=st.integers(0, 4))
def test_lognormal_tables_match_quad(T, vol, z, zref, deg):
    """The lognormal's log-law and the exponential tilt of the log-law, as
    the surface measure uses them."""
    F, w = 100.0, vol * vol * T
    sd, m = math.sqrt(w), -0.5 * w
    klo, khi = _bounds(*z, m, sd)
    pdf = _gauss_pdf(m, sd)
    measure = sf.slice_measure(pr.LogNormalPrior(F, vol * vol), T, F)
    kref = m + zref * sd
    mass = measure.moment_table([klo], [khi], [kref], deg)[0]
    spot = measure.spot_moment_table([klo], [khi], [kref], deg)[0]
    for d in range(deg + 1):
        want = _quad(lambda k: (k - kref) ** d * pdf(k), klo, khi, m, sd)
        assert mass[d] == pytest.approx(want, rel=1e-9, abs=1e-13 * (4.0 * sd) ** d)
        want = _quad(lambda k: (k - kref) ** d * F * math.exp(k) * pdf(k), klo, khi, m, sd)
        assert spot[d] == pytest.approx(want, rel=1e-9, abs=1e-13 * F * (4.0 * sd) ** d)


@SETTINGS
@given(data=st.data(), T=maturities, z=st.tuples(ends, ends), zref=st.floats(-3.0, 3.0), deg=st.integers(0, 3))
def test_ssvi_tables_match_quad(data, T, z, zref, deg):
    """Log-moneyness tables, plain and spot-weighted, to the degree the surface uses."""
    params = _ssvi(data, T)
    slc = pr.SSVISlice(params, T)
    F = slc.forward
    sd = math.sqrt(pr.ssvi_total_variance(params, T, 0.0))
    klo, khi = _bounds(*z, 0.0, sd)
    kref = zref * sd
    q = lambda k: float(pr.ssvi_logm_density(params, T, k))  # noqa: E731
    reach = 60.0 / sd  # SSVI wings are linear in k: exponential, wide tails
    mass = slc.log_moment_table([klo], [khi], [kref], deg)[0]
    spot = slc.log_moment_table([klo], [khi], [kref], deg, spot=True)[0]
    for d in range(deg + 1):
        want = _quad(lambda k: (k - kref) ** d * q(k), klo, khi, 0.0, sd, reach=reach)
        assert mass[d] == pytest.approx(want, rel=1e-8, abs=1e-12)
        want = _quad(lambda k: (k - kref) ** d * F * math.exp(k) * q(k), klo, khi, 0.0, sd, reach=reach)
        assert spot[d] == pytest.approx(want, rel=1e-8, abs=1e-12 * F)


def _intervals(data, sd, n):
    """n random intervals and reference points, in standard deviations sd about 0."""
    bounds = [_bounds(*data.draw(st.tuples(ends, ends)), 0.0, sd) for _ in range(n)]
    refs = [data.draw(st.floats(-3.0, 3.0)) * sd for _ in range(n)]
    return np.array([b[0] for b in bounds]), np.array([b[1] for b in bounds]), np.array(refs)


@SETTINGS
@given(data=st.data(), T=maturities, deg=st.integers(0, 4), spot=st.booleans(), n=st.integers(1, 5))
def test_ssvi_kept_cells_give_the_fresh_grid_tables(data, T, deg, spot, n):
    """A slice's table from the cells it keeps equals, bit for bit, the table
    on cells built from a freshly computed grid, before and after the slice
    has served other queries: other intervals, other degrees, the other
    weight."""
    params = _ssvi(data, T)
    slc = pr.SSVISlice(params, T)
    sd = math.sqrt(pr.ssvi_total_variance(params, T, 0.0))
    lo, hi, ref = _intervals(data, sd, n)

    def fresh(lo, hi, ref, deg, spot):
        other = pr.SSVISlice(params, T)
        weight = other._spot_density if spot else other.logm_density
        return pr._composite_table(pr._CompositeCells(other.grid(), weight), weight, lo, hi, ref, deg)

    want = fresh(lo, hi, ref, deg, spot).tobytes()
    assert slc.log_moment_table(lo, hi, ref, deg, spot=spot).tobytes() == want
    for _ in range(data.draw(st.integers(1, 3))):
        lo2, hi2, ref2 = _intervals(data, sd, data.draw(st.integers(1, 5)))
        deg2, spot2 = data.draw(st.integers(0, 5)), data.draw(st.booleans())
        got = slc.log_moment_table(lo2, hi2, ref2, deg2, spot=spot2)
        assert got.tobytes() == fresh(lo2, hi2, ref2, deg2, spot2).tobytes()
    assert slc.log_moment_table(lo, hi, ref, deg, spot=spot).tobytes() == want


@SETTINGS
@given(support=st.tuples(st.floats(-5.0, 5.0), st.floats(0.1, 10.0)), z=st.tuples(ends, ends),
       ref=st.floats(-5.0, 5.0), deg=st.integers(0, 6))
def test_lebesgue_table_matches_quad(support, z, ref, deg):
    lower, upper = support[0], support[0] + support[1]
    lo, hi = _bounds(*z, lower, support[1])
    table = rg.LebesgueMeasure(lower, upper).moment_table([lo], [hi], [ref], deg)[0]
    a, b = max(lo, lower), min(hi, upper)
    for d in range(deg + 1):
        want = quad(lambda x: (x - ref) ** d, a, b, epsabs=0.0, epsrel=1e-13)[0] if b > a else 0.0
        assert table[d] == pytest.approx(want, rel=1e-10, abs=1e-12 * (abs(ref) + abs(lower) + abs(upper)) ** d)


# ---------------------------------------------------------------------------
# moment rows and Gram matrices of a random basis
# ---------------------------------------------------------------------------

def _measure_and_pdf(data, kind, T, knots_centre):
    """A measure, its density, the centre, scale and reach of its mass, and its kinks."""
    if kind == "bachelier":
        law = pr.BachelierPrior(knots_centre + data.draw(st.floats(-1.0, 1.0)), data.draw(st.floats(0.2, 4.0)) * T)
        return law, _gauss_pdf(law.mean, law.sigma), law.mean, law.sigma, 45.0, ()
    if kind == "ssvi":
        params = _ssvi(data, T)
        sd = math.sqrt(pr.ssvi_total_variance(params, T, 0.0))
        q = lambda k: float(pr.ssvi_logm_density(params, T, k))  # noqa: E731
        return sf.SSVICoordMeasure(params, T), q, 0.0, sd, 60.0 / sd, ()  # a measure over log-moneyness
    lower = knots_centre - data.draw(st.floats(0.5, 3.0))
    upper = knots_centre + data.draw(st.floats(0.5, 3.0))
    pdf = lambda x: 1.0 if lower <= x <= upper else 0.0  # noqa: E731
    return rg.LebesgueMeasure(lower, upper), pdf, knots_centre, 1.0, 45.0, (lower, upper)


def _spline_pieces(basis, weights):
    """(a, b, power coefficients) per piece, interpolated from the recursive evaluation route."""
    g = basis.knots.knots
    span = g[-1] - g[0]
    edges = np.concatenate([[-math.inf], g, [math.inf]])
    spline = bs.Spline(basis, weights)
    pieces = []
    for a, b in zip(edges[:-1], edges[1:]):
        if b <= a:
            continue
        lo, hi = max(a, g[0] - span - 1.0), min(b, g[-1] + span + 1.0)
        xs = lo + (hi - lo) * (0.5 - 0.5 * np.cos(np.pi * (np.arange(basis.order + 1) + 0.5) / (basis.order + 1)))
        poly = np.polynomial.Polynomial.fit(xs, spline(xs, method="forward"), basis.order).convert()
        pieces.append((a, b, list(poly.coef[::-1])))
    return pieces


def _horner(coef, x):
    acc = 0.0
    for c in coef:
        acc = acc * x + c
    return acc


@SETTINGS
@given(data=st.data(), kind=st.sampled_from(["bachelier", "ssvi", "lebesgue"]), T=maturities,
       order=st.integers(0, 3), n_knots=st.integers(2, 9), centre=st.floats(-1.0, 1.0))
def test_moment_rows_and_gram_match_quad(data, kind, T, order, n_knots, centre):
    gaps = data.draw(st.lists(st.floats(0.1, 1.0), min_size=n_knots - 1, max_size=n_knots - 1))
    knots = centre - 0.5 * sum(gaps) + np.concatenate([[0.0], np.cumsum(gaps)])
    truncation = data.draw(st.integers(-1, order)) if kind == "lebesgue" else 0
    basis = bs.make_basis(knots, order, truncation)
    measure, pdf, mid, sd, reach, kinks = _measure_and_pdf(data, kind, T, centre)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
    v, w = rng.standard_normal((2, basis.dimension))
    want_row = want_gram = scale = 0.0
    for (a, b, pv), (_, _, pw) in zip(_spline_pieces(basis, v), _spline_pieces(basis, w)):
        want_row += _quad(lambda x: _horner(pw, x) * pdf(x), a, b, mid, sd, kinks, reach)
        want_gram += _quad(lambda x: _horner(pv, x) * _horner(pw, x) * pdf(x), a, b, mid, sd, kinks, reach)
        scale += _quad(lambda x: abs(_horner(pv, x) * _horner(pw, x)) * pdf(x), a, b, mid, sd, kinks, reach)
    cb = basis.compiled()
    gram = bs.weighted_gram(cb, measure)
    assert bs.moment_rows(cb, measure) @ w == pytest.approx(want_row, rel=1e-8, abs=1e-10)
    assert v @ gram @ w == pytest.approx(want_gram, rel=1e-8, abs=1e-10 * max(scale, 1.0))
    np.testing.assert_array_equal(gram, gram.T)


# ---------------------------------------------------------------------------
# the exact L2 distance of the SLV criterion
# ---------------------------------------------------------------------------

def _random_piecewise(data, centre, sd, rng):
    """A piecewise polynomial of degree 0-3 with 0-4 breakpoints in a random
    window of the law's range (windows of two draws may be disjoint), refs
    within 2 sd of the centre and terms of size about 1 there."""
    n = data.draw(st.integers(0, 4))
    lo = data.draw(st.floats(-4.0, 3.0))
    bp = centre + sd * np.unique(rng.uniform(lo, lo + data.draw(st.floats(0.1, 3.0)), n))
    refs = centre + sd * rng.uniform(-2.0, 2.0, bp.size + 1)
    deg = data.draw(st.integers(0, 3))
    coeffs = rng.standard_normal((bp.size + 1, deg + 1)) / sd ** np.arange(deg + 1)
    return bs.PiecewisePoly(bp, refs, coeffs)


def _piece(pp, x):
    """The piece of ``pp`` holding ``x``, as a function of one float (Horner on python floats)."""
    i = int(np.searchsorted(pp.breakpoints, x, side="right"))
    ref, coeffs = float(pp.refs[i]), [float(c) for c in pp.coeffs[i][::-1]]

    def value(y):
        acc = 0.0
        for c in coeffs:
            acc = acc * (y - ref) + c
        return acc

    return value


@SETTINGS
@given(data=st.data(), mean=st.floats(-5.0, 5.0), sd=st.floats(0.05, 3.0))
def test_l2_distance_matches_quad(data, mean, sd):
    """The integral of (f - g)^2 dQ for a Gaussian Q, in either order, against
    quadrature on each interval between both sets of breakpoints: f and g of
    unequal degrees and unrelated breakpoints (none, overlapping or disjoint)."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
    f, g = _random_piecewise(data, mean, sd, rng), _random_piecewise(data, mean, sd, rng)
    law = pr.BachelierPrior(mean, sd * sd)
    pdf = _gauss_pdf(mean, sd)
    edges = np.concatenate([[-math.inf], np.union1d(f.breakpoints, g.breakpoints), [math.inf]])
    want = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        inside = b - 1.0 if a == -math.inf else a + 1.0 if b == math.inf else 0.5 * (a + b)
        fa, ga = _piece(f, inside), _piece(g, inside)
        want += _quad(lambda x: (fa(x) - ga(x)) ** 2 * pdf(x), a, b, mean, sd)
    # the scale of the terms, (|f| + |g|)^2 dQ, roughly: cancellation between f and g is not an error
    xs = mean + sd * np.linspace(-12.0, 12.0, 4001)
    size = np.trapezoid((np.abs(f(xs)) + np.abs(g(xs))) ** 2 * law.density(xs), xs)
    got = slv._l2_distance_sq(f, g, law)
    assert abs(got - want) <= 1e-10 * size
    assert abs(slv._l2_distance_sq(g, f, law) - got) <= 1e-10 * size


# ---------------------------------------------------------------------------
# pricing rows
# ---------------------------------------------------------------------------

def _slice(data, kind, T):
    F = 100.0
    if kind == "lognormal":
        prior = pr.LogNormalPrior(F, data.draw(st.floats(0.01, 0.25)))
    elif kind == "bachelier":
        prior = pr.BachelierPrior(F, data.draw(st.floats(25.0, 900.0)))
    else:
        prior = _ssvi(data, T)
    measure = sf.slice_measure(prior, T, F)
    if kind == "bachelier":
        sd = math.sqrt(prior.variance * T)
        knots = np.linspace(F - 3.0 * sd, F + 3.0 * sd, data.draw(st.integers(4, 12)))
        strikes = F + sd * np.array(data.draw(st.lists(st.floats(-6.0, 6.0), min_size=1, max_size=8)))
    else:
        sd = math.sqrt(T * (prior.total_variance if kind == "lognormal" else prior.K))
        knots = np.linspace(-3.0 * sd, 3.0 * sd, data.draw(st.integers(4, 12)))
        strikes = F * np.exp(sd * np.array(data.draw(st.lists(st.floats(-6.0, 6.0), min_size=1, max_size=8))))
    return sf.make_basis(knots, data.draw(st.integers(1, 3)), truncation=0), measure, F, strikes


priors = st.sampled_from(["lognormal", "bachelier", "ssvi"])


@SETTINGS
@given(data=st.data(), kind=priors, T=maturities)
def test_put_call_parity_rowwise(data, kind, T):
    basis, measure, F, strikes = _slice(data, kind, T)
    forms = sf.pricing_linear_forms(basis, measure, strikes)
    parity = forms["forward_row"] - strikes[:, None] * forms["mass_row"]
    np.testing.assert_allclose(forms["call_rows"] - forms["put_rows"], parity, rtol=0.0, atol=1e-12 * F)


@SETTINGS
@given(data=st.data(), kind=priors, T=maturities)
def test_unit_weights_give_mass_one_and_the_forward(data, kind, T):
    basis, measure, F, strikes = _slice(data, kind, T)
    forms = sf.pricing_linear_forms(basis, measure, strikes)
    ones = np.ones(basis.dimension)
    assert forms["mass_row"] @ ones == pytest.approx(1.0, abs=1e-9)
    assert forms["forward_row"] @ ones == pytest.approx(F, rel=1e-9)


@SETTINGS
@given(data=st.data(), kind=priors, T=maturities)
def test_calls_nonincreasing_and_convex_for_nonnegative_weights(data, kind, T):
    basis, measure, F, _ = _slice(data, kind, T)
    g = basis.knots.knots
    span = g[-1] - g[0]
    coords = np.linspace(g[0] - 0.5 * span, g[-1] + 0.5 * span, 60)
    strikes = measure.spot_of_coord(coords)
    weights = np.array(data.draw(st.lists(st.floats(0.0, 3.0), min_size=basis.dimension, max_size=basis.dimension)))
    calls = sf.pricing_linear_forms(basis, measure, strikes)["call_rows"] @ weights
    assert np.diff(calls).max() <= 1e-10 * F
    slopes = np.diff(calls) / np.diff(strikes)
    assert np.diff(slopes).min() >= -1e-10


# ---------------------------------------------------------------------------
# cone solver
# ---------------------------------------------------------------------------

@settings(SETTINGS, max_examples=150)
@given(data=st.data(), n=st.integers(2, 6), m=st.integers(0, 8), with_soc=st.booleans())
def test_qp_solutions_are_feasible_and_match_slsqp(data, n, m, with_soc):
    """Random strictly feasible QPs: inequality rows and an optional cone
    around an interior point x0, equalities through x0.  Some variables may
    have no entry in the inequality rows."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
    B = rng.standard_normal((n, n))
    scale = 10.0 ** data.draw(st.floats(-3.0, 3.0))
    P = scale * (B @ B.T + data.draw(st.floats(0.05, 1.0)) * np.eye(n))
    q = 3.0 * scale * rng.standard_normal(n)
    x0 = rng.standard_normal(n)
    cs = rg.ConstraintSet(n)
    G = rng.standard_normal((m, n))
    G[:, data.draw(st.lists(st.integers(0, n - 1), max_size=n - 1))] = 0.0
    cs.add_ineq_rows(G, G @ x0 - rng.uniform(0.1, 1.0, m), "ineq")
    me = data.draw(st.integers(0, n - 1))
    A = rng.standard_normal((me, n))
    cs.add_eq_rows(A, A @ x0, "eq")
    if with_soc:
        k = data.draw(st.integers(1, n))
        As, bs_, cs_ = rng.standard_normal((k, n)), rng.standard_normal(k), rng.standard_normal(n)
        ds = np.linalg.norm(As @ x0 + bs_) - cs_ @ x0 + rng.uniform(0.1, 1.0)
        cs.add_soc(As, bs_, cs_, ds, "soc")

    quad_form = opt.QuadForm(P, q)
    sol = opt.solve_qp(quad_form, cs)
    assert sol.status == "optimal", (sol.status, sol.kkt_residuals)
    assert max(cs.violations(sol.x).values(), default=0.0) <= 1e-7

    cons = [{"type": "ineq", "fun": lambda x: G @ x - cs.ineq_rhs, "jac": lambda x: G}] if m else []
    if me:
        cons.append({"type": "eq", "fun": lambda x: A @ x - A @ x0, "jac": lambda x: A})
    if with_soc:
        cons.append({"type": "ineq", "fun": lambda x: cs_ @ x + ds - np.linalg.norm(As @ x + bs_)})
    # SLSQP's stopping test is absolute: hand it the objective in units of scale
    ref = minimize(lambda x: quad_form.value(x) / scale, x0, jac=lambda x: (P @ x + q) / scale,
                   constraints=cons, method="SLSQP", options={"ftol": 1e-14, "maxiter": 500})
    assume(ref.success and max(cs.violations(ref.x).values(), default=0.0) <= 1e-9)
    ref_value = quad_form.value(ref.x)
    atol = 1e-6 * max(abs(ref_value), scale)
    # SLSQP's point is feasible, so it bounds the optimum from above.  Without
    # a cone it is the optimum too; with one it can stop short near the apex,
    # where the norm has no gradient
    assert sol.objective <= ref_value + atol
    if not with_soc:
        assert sol.objective >= ref_value - atol


# ---------------------------------------------------------------------------
# the PDE step
# ---------------------------------------------------------------------------

PDE_S0, PDE_V0 = 100.0, 400.0


def _pde_problem(data, order, affine, uniform):
    """A ratio problem on knots over five base deviations, evenly spaced or not."""
    n_knots = data.draw(st.integers(order + 6, 18))
    half = 5.0 * math.sqrt(PDE_V0)
    if uniform:
        g = np.linspace(PDE_S0 - half, PDE_S0 + half, n_knots)
    else:
        gaps = np.array(data.draw(st.lists(st.floats(0.3, 3.0), min_size=n_knots - 1, max_size=n_knots - 1)))
        g = PDE_S0 - half + 2.0 * half * np.concatenate([[0.0], np.cumsum(gaps)]) / gaps.sum()
    if affine:  # equal to the base variance at s0 and positive on the knot span
        slope = data.draw(st.floats(-0.3, 0.3))
        coef = pde.AffineVariance(PDE_V0 - slope * PDE_S0, slope)
    else:
        coef = pde.ConstantVariance(PDE_V0 * data.draw(st.floats(0.85, 1.0)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return pde.PDEProblem(coef, PDE_V0, PDE_S0, bs.make_basis(g, order, truncation=0), 1.0)


def _dense_weak_form(problem, t):
    """Mass and stiffness as Gauss-Legendre products of the dense basis
    values at every point of every knot interval, with the coefficients of
    constant or affine variance written out."""
    cb = problem.basis.compiled()
    g = cb.breakpoints
    nodes, weights = np.polynomial.legendre.leggauss(pde.GL_POINTS)
    half = 0.5 * np.diff(g)[:, None]
    xs = ((0.5 * (g[:-1] + g[1:]))[:, None] + half * nodes).ravel()
    ws = (half * weights).ravel()
    coef = problem.local_variance
    slope = coef.slope if isinstance(coef, pde.AffineVariance) else 0.0
    v = coef.intercept + slope * xs if isinstance(coef, pde.AffineVariance) else np.full_like(xs, coef.v)
    z, s = xs - problem.s0, problem.base_variance * t
    g1, g2 = -z / s, (z * z - s) / (s * s)
    react = 0.5 * (2.0 * slope * g1 + (v - problem.base_variance) * g2)
    adv = 0.5 * slope + v * g1
    vals, dvals = cb.evaluate(xs), cb.derivative().evaluate(xs)
    mass = vals.T @ (ws[:, None] * vals)
    stiffness = (
        -0.5 * dvals.T @ ((ws * v)[:, None] * dvals)
        + vals.T @ ((ws * adv)[:, None] * dvals)
        + vals.T @ ((ws * react)[:, None] * vals)
    )
    return mass, stiffness


def _ratio_mass_and_mean(traj, k):
    """Integrals of the ratio against the base density N(s0, v0 t) and of x
    times it: Gauss-Legendre between the knots and multiples of the
    deviation, and the flat wings against closed-form Gaussian tails."""
    problem = traj.problem
    s0, sd = problem.s0, math.sqrt(problem.base_variance * traj.times[k])
    g = problem.basis.knots.knots
    cuts = np.unique(np.concatenate([g, np.clip(s0 + SPLITS * sd, g[0], g[-1])]))
    nodes, weights = np.polynomial.legendre.leggauss(20)
    half = 0.5 * np.diff(cuts)[:, None]
    xs = ((0.5 * (cuts[:-1] + cuts[1:]))[:, None] + half * nodes).ravel()
    ws = (half * weights).ravel()
    f = ws * traj.ratio(k, xs) * np.exp(-0.5 * ((xs - s0) / sd) ** 2) / (sd * math.sqrt(2.0 * math.pi))
    left, right = traj.ratio(k, [g[0] - 1.0, g[-1] + 1.0])
    zl, zr = (g[0] - s0) / sd, (g[-1] - s0) / sd
    cdf = lambda z: 0.5 * math.erfc(-z / math.sqrt(2.0))  # noqa: E731
    pdf = lambda z: math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)  # noqa: E731
    mass = f.sum() + left * cdf(zl) + right * cdf(-zr)
    mean = (xs * f).sum() + left * (s0 * cdf(zl) - sd * pdf(zl)) + right * (s0 * cdf(-zr) + sd * pdf(zr))
    return mass, mean


@settings(SETTINGS, max_examples=30)
@given(data=st.data(), order=st.integers(1, 3), affine=st.booleans(), uniform=st.booleans(),
       t=st.floats(1e-3, 1.0))
def test_pde_weak_form_is_the_dense_rule_and_evolve_keeps_mass_and_mean(data, order, affine, uniform, t):
    """The interval-by-interval assembly equals the dense products of the
    whole basis, and every step of a short evolve keeps unit mass and the
    mean s0."""
    problem = _pde_problem(data, order, affine, uniform)
    mass, stiffness = _dense_weak_form(problem, t)
    system = pde.assemble(problem, t)
    assert np.abs(system.mass_full - mass).max() <= 1e-13 * np.abs(mass).max()
    assert np.array_equal(system.mass, system.mass_full[1:-1])
    assert np.abs(system.stiffness - stiffness[1:-1]).max() <= 1e-13 * np.abs(stiffness[1:-1]).max()

    traj = pde.evolve(problem, 6)
    for k in range(1, traj.times.size):
        m, mu = _ratio_mass_and_mean(traj, k)
        assert abs(m - 1.0) <= 1e-8 and abs(mu - problem.s0) <= 1e-8 * problem.s0


@settings(SETTINGS)
@given(data=st.data(), order=st.integers(1, 3), affine=st.booleans(), uniform=st.booleans(),
       scheme=st.sampled_from(["explicit", "implicit", "cn"]), steps=st.integers(1, 30))
def test_pde_batched_step_tables_are_the_public_functions_bit_for_bit(data, order, affine, uniform, scheme, steps):
    """evolve builds the weak form, collocation rows, mass/mean rows and
    factored step systems for many times at once; on a random time grid
    each step's share equals the public single-time functions, bit for bit."""
    problem = _pde_problem(data, order, affine, uniform)
    gaps = data.draw(st.lists(st.floats(1e-3, 0.2), min_size=steps, max_size=steps))
    times = np.concatenate([[0.0], np.cumsum(gaps)])
    thetas = np.full(steps, {"explicit": 0.0, "implicit": 1.0, "cn": 0.5}[scheme])
    if scheme == "cn":
        thetas[: data.draw(st.integers(0, 3))] = 1.0
    tables = pde._basis_tables(problem.basis.compiled())
    mids = 0.5 * (times[:-1] + times[1:])
    block = pde.assemble(problem, mids, tables)
    mass_full, stiffness = block.mass_full, block.stiffness
    operators = pde.collocation_rows(problem, mids, tables)[1]
    rows = np.stack(pde.constrain(problem, times[1:], tables), axis=1)
    ops = pde._step_operators(problem, tables, times, thetas)
    rng = np.random.default_rng(steps)
    for m in range(steps):
        th, dt, tm = thetas[m], times[m + 1] - times[m], mids[m]
        system = pde.assemble(problem, tm)
        vals, op = pde.collocation_rows(problem, tm)
        R = np.vstack(pde.constrain(problem, times[m + 1]))
        assert np.array_equal(mass_full, system.mass_full)
        assert np.array_equal(stiffness[m], system.stiffness)
        assert np.array_equal(operators[m], op)
        assert np.array_equal(rows[m], R)
        A, B = system.mass, system.stiffness
        assert np.array_equal(ops.rhs_band[m], A + (1.0 - th) * dt * B)
        assert np.array_equal(ops.rhs_border[m], vals + (1.0 - th) * dt * op)
        assert np.array_equal(ops.rows[m], R) and np.array_equal(ops.gram[m], R @ R.T)
        rb, rbb = rng.standard_normal(A.shape[0]), rng.standard_normal(2)
        x = pde.solve_bordered_banded(A - th * dt * B, vals - th * dt * op, rb, rbb, problem.basis.order)
        assert np.array_equal(pde._solve_factored(ops.lhs, m, rb, rbb), x)
