"""Basis construction, evaluation routes, differentiation and inner products."""

import gc
import weakref

import numpy as np
import pytest

from volspline import bspline as bs
from volspline.priors import BachelierPrior


def function_pieces(basis):
    """Each kept basis function as one piecewise polynomial."""
    cb = basis.compiled()
    return [cb.combination(e) for e in np.eye(cb.coeffs.shape[0])]


def random_basis(rng, n_knots=10, order=3, truncation=None, spread=3.0):
    knots = np.sort(rng.uniform(-spread, spread, n_knots))
    return bs.make_basis(knots, order, truncation)


class TestConstruction:
    def test_order0_indicators(self):
        basis = bs.make_basis([0.0, 1.0], 0)
        assert basis.dimension == 3
        rows = bs.design_matrix(basis, [-0.5, 0.5, 1.5])
        np.testing.assert_allclose(rows, np.eye(3))

    def test_truncated_dimension(self):
        # removing the wing functions above degree t leaves k + 2t - n + 1
        basis = bs.make_basis(np.arange(8.0), 3, truncation=1)
        assert basis.dimension == 8 + 2 * 1 - 3 + 1
        full = bs.make_basis(np.arange(8.0), 3)
        assert full.dimension == 8 + 3 + 1
        compact = bs.make_basis(np.arange(8.0), 3, truncation=-1)
        assert compact.dimension == 8 - 3 - 1

    def test_default_constants_scale_with_knots(self):
        basis = bs.make_basis(np.linspace(-2.0, 5.0, 8), 2)
        assert basis.c0 == pytest.approx((5.0 + 2.0) / 7.0)
        assert basis.c1 == basis.c0
        single = bs.make_basis([1.0, 1.0], 1)
        assert single.c0 == 1.0

    def test_rejects_bad_inputs(self):
        with pytest.raises(bs.SplineError):
            bs.KnotVector([1.0, 0.0])
        with pytest.raises(bs.SplineError):
            bs.make_basis([0.0, 1.0], 1, truncation=2)
        with pytest.raises(bs.SplineError):
            bs.make_basis([0.0, 1.0], 1, truncation=-2)
        with pytest.raises(bs.SplineError):
            bs.make_basis([0.0, 0.0, 0.0], 1)  # multiplicity above order + 1

    def test_high_order_polynomial_block(self):
        # order above the knot count appends a polynomial middle block
        basis = bs.make_basis([0.0, 1.0], 3)
        assert basis.dimension == 2 + 3 + 1
        rng = np.random.default_rng(0)
        w = rng.standard_normal(basis.dimension)
        sp = bs.Spline(basis, w)
        xs = rng.uniform(-3, 3, 50)
        np.testing.assert_allclose(
            sp(xs, method="forward"), sp(xs, method="compiled"), rtol=0, atol=1e-11 * np.abs(sp(xs)).max()
        )


class TestLocate:
    def test_basic_intervals(self):
        kv = bs.KnotVector([0.0, 1.0, 2.0])
        assert kv.locate(0.5) == 0
        assert kv.locate(-3.0) == -1
        assert kv.locate(2.0) == 2
        assert kv.locate(1.0) == 1

    def test_equal_spacing_matches_bisection(self):
        rng = np.random.default_rng(1)
        knots = np.linspace(0.0, 3.0, 4)
        fast = bs.KnotVector(knots)
        assert fast.equal_spacing
        assert fast.locate(2.7) == 2
        xs = np.concatenate([rng.uniform(-1, 4, 300), knots, knots - 1e-16, knots + 1e-16])
        np.testing.assert_array_equal(fast.locate(xs), np.searchsorted(knots, xs, "right") - 1)

    def test_equal_spacing_off_the_float_range(self):
        # the floor is clipped before the integer cast: +inf and 1e300 fall
        # above the last knot and NaN sorts last, as in bisection
        kv = bs.KnotVector(np.linspace(0.0, 1.0, 11))
        assert kv.equal_spacing
        xs = np.array([np.inf, 1e300, np.nan, -np.inf, -1e300])
        np.testing.assert_array_equal(kv.locate(xs), [10, 10, 10, -1, -1])
        assert kv.locate(np.nan) == 10 and kv.locate(np.inf) == 10

    def test_spacing_flag_only_where_the_floor_is_exact(self):
        assert not bs.KnotVector([1.0, 1.0]).equal_spacing
        assert not bs.KnotVector([0.0, 1.0, 3.0]).equal_spacing


class TestEvaluation:
    def test_hand_unrolled_order1(self):
        basis = bs.make_basis([0.0, 1.0], 1)
        rows = bs.design_matrix(basis, [0.5, -1.0])
        np.testing.assert_allclose(rows, [[0.0, 0.5, 0.5, 0.0], [1.0, 1.0, 0.0, 0.0]], atol=1e-15)

    def test_partition_of_unity_interior(self):
        rng = np.random.default_rng(2)
        for order in (1, 2, 3):
            basis = random_basis(rng, n_knots=9, order=order)
            g = basis.knots.knots
            xs = rng.uniform(g[order - 1], g[9 - order] - 1e-12, 200)
            total = bs.design_matrix(basis, xs).sum(axis=1)
            np.testing.assert_allclose(total, 1.0, atol=1e-12)

    def test_nonnegativity(self):
        rng = np.random.default_rng(3)
        basis = random_basis(rng, n_knots=8, order=3)
        xs = rng.uniform(-6, 6, 500)
        assert bs.design_matrix(basis, xs).min() >= -1e-14

    def test_compile_matches_forward(self):
        rng = np.random.default_rng(4)
        basis = random_basis(rng, n_knots=10, order=3)
        xs = rng.uniform(-6, 6, 1000)
        D_fwd = bs.design_matrix(basis, xs)
        D_cmp = basis.compiled().evaluate(xs)
        scale = np.abs(D_fwd).max()
        assert np.abs(D_fwd - D_cmp).max() <= 1e-12 * scale

    def test_compiled_basis_dies_with_its_spec(self):
        # the spec caches its compiled form, which holds no reference back,
        # so reference counting frees both without the cycle collector
        enabled = gc.isenabled()
        gc.disable()
        try:
            spec = bs.make_basis(np.linspace(0.0, 5.0, 6), 3)
            compiled = weakref.ref(spec.compiled())
            assert compiled() is spec.compiled()
            del spec
            assert compiled() is None
        finally:
            if enabled:
                gc.enable()

    def test_compiled_order0_exact(self):
        basis = bs.make_basis([0.0, 1.0], 0)
        pieces = function_pieces(basis)
        assert pieces[0](-0.5) == 1.0 and pieces[0](0.5) == 0.0
        assert pieces[1](0.5) == 1.0 and pieces[1](1.5) == 0.0
        assert pieces[2](1.5) == 1.0

    def test_middle_function_polynomials(self):
        # knots {0,1}, order 1: the left-constant function is 1, then 1-x, then 0
        basis = bs.make_basis([0.0, 1.0], 1)
        b1 = function_pieces(basis)[1]
        assert b1(-4.0) == pytest.approx(1.0)
        assert b1(0.25) == pytest.approx(0.75)
        assert b1(1.5) == 0.0

    def test_three_evaluation_routes_agree(self):
        rng = np.random.default_rng(5)
        basis = random_basis(rng, n_knots=10, order=3)
        w = rng.standard_normal(basis.dimension)
        sp = bs.Spline(basis, w)
        xs = rng.uniform(-8, 8, 800)
        vb = sp(xs, method="backward")
        vf = sp(xs, method="forward")
        vc = sp(xs, method="compiled")
        scale = np.abs(vf) + 1.0
        assert (np.abs(vb - vf) / scale).max() <= 1e-12
        assert (np.abs(vc - vf) / scale).max() <= 1e-12

    def test_partition_weights_evaluate_to_constant(self):
        rng = np.random.default_rng(6)
        basis = random_basis(rng, n_knots=9, order=2)
        g = basis.knots.knots
        sp = bs.Spline(basis, np.full(basis.dimension, 0.7))
        xs = rng.uniform(g[1], g[-2], 50)
        np.testing.assert_allclose(sp(xs), 0.7, atol=1e-13)

    def test_truncated_evaluation_drops_wings(self):
        basis = bs.make_basis(np.arange(6.0), 2, truncation=0)
        row = bs.design_matrix(basis, [-3.0])[0]  # left of all knots
        np.testing.assert_allclose(row, np.eye(basis.dimension)[0])  # only the constant wing survives


class TestAffineEquivariance:
    def test_affine_map_of_knots(self):
        rng = np.random.default_rng(7)
        knots = np.sort(rng.uniform(-2, 2, 8))
        a, b = 1.7, -0.4
        basis = bs.make_basis(knots, 3)
        mapped = bs.make_basis(a * knots + b, 3)
        xs = rng.uniform(-4, 4, 200)
        D1 = bs.design_matrix(basis, xs)
        D2 = bs.design_matrix(mapped, a * xs + b)
        assert np.abs(D1 - D2).max() <= 1e-12 * max(1.0, np.abs(D1).max())

    @pytest.mark.parametrize("unit", [np.arange(6.0), np.array([0.0, 0.4, 1.5, 2.0, 3.7, 5.0])])
    @pytest.mark.parametrize("order", [0, 1, 2, 3])
    def test_affine_image_is_the_compile_of_the_mapped_knots(self, unit, order):
        # the compiled basis and the penalty Gram of g0 + h * unit follow
        # from those of the unit knots without a compile
        for t in range(-1, order + 1):
            basis = bs.make_basis(unit, order, t)
            for g0, h in ((-3.2, 0.037), (4.6, 0.21), (100.0, 7.5)):
                mapped = bs.make_basis(g0 + h * unit, order, t)
                got, want = basis.compiled().affine_image(g0, h), bs.compile_basis(mapped)
                assert (got.first_index, got.order) == (want.first_index, want.order)
                for a, b in ((got.breakpoints, want.breakpoints), (got.refs, want.refs)):
                    assert np.abs(a - b).max() <= 1e-15 * np.abs(b).max()
                scale = np.abs(want.coeffs).max(axis=(0, 1))  # per degree: they scale as h^-d
                assert np.all(np.abs(got.coeffs - want.coeffs) <= 1e-13 * scale)
                for p in range(t + 1, order + 2):
                    if p == 0:
                        continue
                    gram = h ** (1 - 2 * p) * bs.gram_matrix(basis, p)
                    ref = bs.gram_matrix(mapped, p)
                    assert np.abs(gram - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_affine_image_rejects_a_nonpositive_scale(self):
        cb = bs.make_basis(np.arange(4.0), 2).compiled()
        for h in (0.0, -1.0, np.nan):
            with pytest.raises(bs.SplineError):
                cb.affine_image(0.0, h)


class TestSmoothness:
    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_distinct_knots_continuity(self, order):
        rng = np.random.default_rng(8)
        basis = random_basis(rng, n_knots=8, order=order)
        pieces = function_pieces(basis)
        for knot in basis.knots.knots[1:-1]:
            for pp in pieces:
                for p in range(order):  # continuous up to order - 1 derivatives
                    left = pp.one_sided(float(knot), p, "left")
                    right = pp.one_sided(float(knot), p, "right")
                    assert abs(left - right) <= 1e-8 * max(1.0, abs(left))

    @pytest.mark.parametrize("mult", [1, 2, 3])
    def test_multiplicity_reduces_continuity(self, mult):
        order = 3
        knots = np.sort(np.concatenate([np.linspace(0, 4, 5), np.full(mult - 1, 2.0)]))
        basis = bs.make_basis(knots, order)
        pieces = function_pieces(basis)
        jumps = np.zeros(order + 1)
        for pp in pieces:
            for p in range(order + 1):
                jumps[p] = max(jumps[p], abs(pp.one_sided(2.0, p, "left") - pp.one_sided(2.0, p, "right")))
        # continuous through order - mult, visibly broken at order - mult + 1
        for p in range(order - mult + 1):
            assert jumps[p] <= 1e-8
        assert jumps[order - mult + 1] > 1e-4


class TestDerivatives:
    def test_hand_case_order1(self):
        basis = bs.make_basis([0.0, 1.0], 1)
        dm = bs.derivative_decomposition(basis, 1)
        # the middle function 1_{x<0} + (1-x) on [0,1) has slope -1 there
        assert dm.matrix[1, 1] == pytest.approx(-1.0)

    def test_constant_spline_zero_derivative(self):
        rng = np.random.default_rng(9)
        basis = random_basis(rng, n_knots=8, order=2)
        dm = bs.derivative_decomposition(basis, 1)
        dw = dm.matrix @ np.ones(basis.dimension)
        g = basis.knots.knots
        low = bs.Spline(dm.basis, dw)
        xs = rng.uniform(g[1], g[-2], 50)
        np.testing.assert_allclose(low(xs), 0.0, atol=1e-12)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(10)
        basis = random_basis(rng, n_knots=9, order=3)
        w = rng.standard_normal(basis.dimension)
        sp = bs.Spline(basis, w)
        dm = bs.derivative_decomposition(basis, 1)
        dsp = bs.Spline(dm.basis, dm.matrix @ w)
        g = basis.knots.knots
        xs = rng.uniform(g[0] + 0.1, g[-1] - 0.1, 100)
        h = 1e-5
        fd = (sp(xs + h) - sp(xs - h)) / (2 * h)
        assert np.abs(dsp(xs) - fd).max() <= 1e-6

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_matches_symbolic_differentiation(self, p):
        rng = np.random.default_rng(11)
        basis = random_basis(rng, n_knots=10, order=3)
        w = rng.standard_normal(basis.dimension)
        dm = bs.derivative_decomposition(basis, p)
        mapped = bs.Spline(dm.basis, dm.matrix @ w)
        pp = bs.Spline(basis, w).compiled()
        for _ in range(p):
            pp = pp.derivative()
        xs = rng.uniform(-5, 5, 300)
        scale = max(1.0, np.abs(pp(xs)).max())
        assert np.abs(mapped(xs, method="compiled") - pp(xs)).max() <= 1e-11 * scale

    def test_truncation_composes(self):
        rng = np.random.default_rng(12)
        basis = random_basis(rng, n_knots=10, order=3, truncation=1)
        w = rng.standard_normal(basis.dimension)
        dm = bs.derivative_decomposition(basis, 2)
        assert dm.basis.truncation == -1
        mapped = bs.Spline(dm.basis, dm.matrix @ w)
        pp = bs.Spline(basis, w).compiled().derivative().derivative()
        xs = rng.uniform(-5, 5, 200)
        assert np.abs(mapped(xs, method="compiled") - pp(xs)).max() <= 1e-10 * max(1.0, np.abs(pp(xs)).max())

    def test_dirac_comb_difference_rule(self):
        basis = bs.make_basis([0.0, 1.0], 0)
        dm = bs.derivative_decomposition(basis, 1)
        assert dm.basis is None and dm.comb is not None
        np.testing.assert_allclose(dm.matrix, [[-1.0, 1.0, 0.0], [0.0, -1.0, 1.0]])

    def test_rejects_too_high_order(self):
        basis = bs.make_basis([0.0, 1.0], 1)
        with pytest.raises(bs.SplineError):
            bs.derivative_decomposition(basis, 3)


class TestGram:
    def test_unit_indicator(self):
        basis = bs.make_basis([0.0, 1.0], 0, truncation=-1)
        gram = bs.gram_matrix(basis, 0)
        np.testing.assert_allclose(gram, [[1.0]])

    def test_hand_integral_one_sixth(self):
        basis = bs.make_basis([0.0, 1.0, 2.0, 3.0], 1, truncation=-1)
        gram = bs.gram_matrix(basis, 0)
        assert gram[0, 1] == pytest.approx(1.0 / 6.0, abs=1e-15)

    def test_dirac_comb_trapezoid(self):
        basis = bs.make_basis([0.0, 1.0, 3.0], 1, truncation=1)
        pen = bs.gram_matrix(basis, 2)
        dm = bs.derivative_decomposition(basis, 2)
        expected_core = np.diag([0.5 / 1.0, 0.5 * (1.0 / 1.0 + 1.0 / 2.0), 0.5 / 2.0])
        np.testing.assert_allclose(pen, dm.matrix.T @ expected_core @ dm.matrix, atol=1e-14)

    def test_rejects_divergent_wing_integrals(self):
        basis = bs.make_basis(np.arange(6.0), 2, truncation=1)
        with pytest.raises(bs.SplineError):
            bs.gram_matrix(basis, 1)  # wings of degree 1 are not square integrable

    def test_against_dense_quadrature(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            n_knots = int(rng.integers(6, 11))
            order = int(rng.integers(1, 4))
            p = int(rng.integers(0, order + 1))
            basis = random_basis(rng, n_knots=n_knots, order=order, truncation=min(p - 1, order))
            gram = bs.gram_matrix(basis, p)
            oracle = _simpson_gram(basis, p)
            scale = max(1.0, np.abs(oracle).max())
            assert np.abs(gram - oracle).max() <= 1e-9 * scale

    def test_psd_and_banded(self):
        rng = np.random.default_rng(14)
        basis = random_basis(rng, n_knots=12, order=3, truncation=1)
        gram = bs.gram_matrix(basis, 2)
        np.testing.assert_allclose(gram, gram.T, atol=1e-14)
        eigs = np.linalg.eigvalsh(gram)
        assert eigs.min() >= -1e-10 * max(1.0, eigs.max())


def _simpson_gram(basis, p):
    """Dense-grid integration oracle for derivative inner products."""
    dm = bs.derivative_decomposition(basis, p)
    low = dm.basis
    g = basis.knots.knots
    core = np.zeros((low.dimension, low.dimension))
    for i in range(g.size - 1):
        a, b = g[i], g[i + 1]
        if b <= a:
            continue
        # composite 4-point Gauss over many subpanels: endpoint-free (the
        # half-open jumps at knots are never sampled) and effectively exact
        sub = 64
        edges = np.linspace(a, b, sub + 1)
        mids = 0.5 * (edges[:-1] + edges[1:])
        halves = 0.5 * np.diff(edges)
        gx, gw = np.polynomial.legendre.leggauss(4)
        xs_f = (mids[:, None] + halves[:, None] * gx[None, :]).ravel()
        w_f = (halves[:, None] * gw[None, :]).ravel()
        vals_f = low.compiled().evaluate(xs_f)
        core += vals_f.T @ (w_f[:, None] * vals_f)
    return dm.matrix.T @ core @ dm.matrix



@pytest.mark.parametrize("order, truncation, n_knots", [(0, 0, 5), (1, -1, 6), (2, 1, 20), (3, 0, 9), (3, 3, 4)])
def test_weighted_gram_is_the_optimized_einsum_bit_for_bit(order, truncation, n_knots):
    # the contraction path searched once per operand shape gives the bytes of a search on every call
    law = BachelierPrior(0.3, 0.8)
    for shift in (0.0, 0.7):
        cb = bs.make_basis(np.linspace(-2.0, 2.0, n_knots) + shift, order, truncation).compiled()
        lo, hi, refs, coeffs = bs.live_pieces(cb)
        deg = coeffs.shape[2] - 1
        table = law.moment_table(lo, hi, refs, 2 * deg)
        hankel = table[:, np.add.outer(np.arange(deg + 1), np.arange(deg + 1))]
        gram = np.einsum("jia,iab,lib->jl", coeffs, hankel, coeffs, optimize=True)
        assert bs.weighted_gram(cb, law).tobytes() == (0.5 * (gram + gram.T)).tobytes()
