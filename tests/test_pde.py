"""Galerkin assembly, bordered solves and the ratio evolution."""

import importlib.util
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from scipy.special import ive, ndtr

from volspline import bspline as bs, pde, surface as sf

V0 = 0.04 * 100.0**2  # 20% lognormal-equivalent at spot 100, price units
S0 = 100.0


def ratio_problem(fac: float, n_knots: int = 40, half_sigmas: float = 7.0, horizon: float = 1.0):
    half = half_sigmas * np.sqrt(V0 * horizon)
    basis = bs.make_basis(np.linspace(S0 - half, S0 + half, n_knots), 3, truncation=0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return pde.PDEProblem(pde.ConstantVariance(fac * V0), V0, S0, basis, horizon)


def exact_ratio(fac: float, xs, horizon: float = 1.0):
    v = fac * V0
    z = np.asarray(xs) - S0
    return np.sqrt(V0 / v) * np.exp(-0.5 * z**2 * (1.0 / v - 1.0 / V0) / horizon)


class TestAssembly:
    def test_stationary_annihilates_constants(self):
        prob = ratio_problem(1.0, n_knots=20, half_sigmas=5.0)
        sys_ = pde.assemble(prob, 0.3)
        ones = np.ones(prob.basis.dimension)
        assert np.abs(sys_.stiffness @ ones).max() <= 1e-10

    def test_hand_stiffness_entry(self):
        # order-1 hats on {0,1,2,3}, v = 1: -(1/2) times the slope product on [1,2]
        basis = bs.make_basis([0.0, 1.0, 2.0, 3.0], 1, truncation=0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            prob = pde.PDEProblem(pde.ConstantVariance(1.0), 1.0, 1.5, basis, 1.0)
        # strip advection/reaction by checking the mass block instead, then
        # the diffusion piece via a symmetric difference below
        sys_ = pde.assemble(prob, 1e6)  # coefficients vanish at huge t
        np.testing.assert_allclose(sys_.mass_full[1, 2], 1.0 / 6.0, atol=1e-14)
        # at enormous t the log-derivative terms die out: B ~ -(1/2) v grad-grad
        i, j = 1, 2
        assert sys_.stiffness[i - 1, j] == pytest.approx(0.5, abs=1e-6)

    def test_mass_is_spd_banded(self):
        prob = ratio_problem(1.0, n_knots=25, half_sigmas=5.0)
        A = pde.assemble(prob, 0.5).mass_full
        np.testing.assert_allclose(A, A.T, atol=1e-14)
        assert np.linalg.eigvalsh(A).min() > 0.0
        d = prob.basis.dimension
        for i in range(d):
            for j in range(d):
                if abs(i - j) > prob.basis.order + 1:
                    assert A[i, j] == 0.0

    def test_rejects_nonpositive_variance(self):
        # an affine variance is checked on the knot span when the problem is built;
        # a general one by the step functions, where they evaluate it
        basis = bs.make_basis(np.linspace(0, 200, 12), 3, truncation=0)
        with pytest.raises(pde.PDEError, match=r"positive on the knot span \[0\.0, 200\.0\].*reaches -199\.0 at t = 0\.0"):
            pde.PDEProblem(pde.AffineVariance(1.0, -1.0), V0, S0, basis, 1.0)
        prob = pde.PDEProblem(FadingVariance(0.4), V0, S0, basis, 1.0)
        with pytest.raises(pde.PDEError, match="local variance must be positive"):
            pde.assemble(prob, 0.5)

    def test_collocation_rejects_nonpositive_variance_at_a_boundary_knot(self):
        # v = x - 60 vanishes at the lower knot only: every quadrature point
        # of the weak form lies inside an interval, the collocation point does not.
        # As an AffineVariance it is rejected where the problem is built
        basis = bs.make_basis(np.linspace(60.0, 140.0, 12), 3, truncation=0)
        with pytest.raises(pde.PDEError, match=r"reaches 0\.0 at t = 0\.0, x = 60\.0"):
            pde.PDEProblem(pde.AffineVariance(-60.0, 1.0), 80.0, S0, basis, 1.0)
        prob = pde.PDEProblem(RampVariance(60.0), 80.0, S0, basis, 1.0)  # v <= 80 on the span
        pde.assemble(prob, 0.5)
        with pytest.raises(pde.PDEError, match="positive"):
            pde.collocation_rows(prob, 0.5)

    @pytest.mark.parametrize("t", [np.array([]), np.array([[0.5, 0.6]])])
    def test_rejects_times_that_are_not_a_nonempty_vector(self, t):
        prob = ratio_problem(0.9, n_knots=12)
        for step_function in (pde.assemble, pde.collocation_rows):
            with pytest.raises(pde.PDEError, match="nonempty 1-D array"):
                step_function(prob, t)

    @pytest.mark.parametrize(
        "t, message",
        [(np.array([]), "nonempty 1-D array"), (np.array([[0.5, 0.6]]), "nonempty 1-D array"),
         (0.0, "t > 0"), (np.array([0.5, -0.1]), "t > 0")],
    )
    def test_constrain_checks_its_times_as_the_other_step_functions_do(self, t, message):
        prob = ratio_problem(0.9, n_knots=12)
        for step_function in (pde.assemble, pde.collocation_rows, pde.constrain):
            with pytest.raises(pde.PDEError, match=message):
                step_function(prob, t)

    def test_constraint_rows_on_constant(self):
        prob = ratio_problem(1.0, n_knots=20, half_sigmas=5.0)
        mass_row, mean_row = pde.constrain(prob, 0.7)
        ones = np.ones(prob.basis.dimension)
        assert mass_row @ ones == pytest.approx(1.0, abs=1e-12)
        assert mean_row @ ones == pytest.approx(S0, rel=1e-12)

    def test_only_flat_extrapolation_supported(self):
        basis = bs.make_basis(np.linspace(0, 200, 12), 3, truncation=1)
        with pytest.raises(pde.PDEError):
            pde.PDEProblem(pde.ConstantVariance(V0), V0, S0, basis, 1.0)


class TestBorderedSolve:
    def test_matches_dense_on_random_systems(self):
        rng = np.random.default_rng(4)
        worst = 0.0
        for _ in range(100):
            d = int(rng.integers(8, 40))
            bw = int(rng.integers(1, 4))
            band = np.zeros((d - 2, d))
            for i in range(d - 2):
                lo, hi = max(0, i + 1 - bw), min(d, i + 2 + bw)
                band[i, lo:hi] = rng.standard_normal(hi - lo)
                band[i, min(i + 1, d - 1)] += 3.0
            border = rng.standard_normal((2, d))
            rb = rng.standard_normal(d - 2)
            rbb = rng.standard_normal(2)
            x1 = pde.solve_bordered_banded(band, border, rb, rbb)
            x2 = np.linalg.solve(np.vstack([band, border]), np.concatenate([rb, rbb]))
            worst = max(worst, np.abs(x1 - x2).max() / max(1.0, np.abs(x2).max()))
        assert worst <= 1e-10

    def test_matches_dense_on_assembled_step_systems(self):
        # the early, stiff step is where the interior block is least well conditioned
        rng = np.random.default_rng(5)
        dt = 0.01
        for n_knots in (25, 40):
            prob = ratio_problem(0.9, n_knots=n_knots, half_sigmas=5.0)
            for t in (0.005, 0.55, 0.995):
                sys_ = pde.assemble(prob, t)
                vals, op = pde.collocation_rows(prob, t)
                band = sys_.mass - 0.5 * dt * sys_.stiffness
                border = vals - 0.5 * dt * op
                rb = rng.standard_normal(band.shape[0])
                rbb = rng.standard_normal(2)
                x1 = pde.solve_bordered_banded(band, border, rb, rbb)
                x2 = np.linalg.solve(np.vstack([band, border]), np.concatenate([rb, rbb]))
                assert np.abs(x1 - x2).max() <= 1e-10 * max(1.0, np.abs(x2).max()), (n_knots, t)

    def test_singular_system_raises(self):
        prob = ratio_problem(0.9, n_knots=25, half_sigmas=5.0)
        sys_ = pde.assemble(prob, 0.55)
        vals, op = pde.collocation_rows(prob, 0.55)
        band = sys_.mass - 0.005 * sys_.stiffness
        border = vals - 0.005 * op
        rb = np.ones(band.shape[0])
        rbb = np.ones(2)
        equal_borders = np.vstack([border[0], border[0]])
        with pytest.raises(pde.PDEError, match="singular"):
            pde.solve_bordered_banded(band, equal_borders, rb, rbb)
        zero_row = band.copy()
        zero_row[band.shape[0] // 2] = 0.0
        with pytest.raises(pde.PDEError, match="singular"):
            pde.solve_bordered_banded(zero_row, border, rb, rbb)

    @pytest.mark.parametrize(
        "band_shape, border_shape", [((3, 4), (2, 4)), ((2, 4), (3, 4)), ((2, 4), (2, 5)), ((4,), (2, 4))]
    )
    def test_rejects_a_stack_that_is_not_square(self, band_shape, border_shape):
        with pytest.raises(pde.PDEError, match="not square"):
            pde.solve_bordered_banded(np.ones(band_shape), np.ones(border_shape), np.ones(2), np.ones(2))

    @pytest.mark.parametrize("bw", [1, 2, 3])
    def test_matches_dense_for_each_bandwidth(self, bw):
        rng = np.random.default_rng(10 + bw)
        d = 12
        band = np.zeros((d - 2, d))
        for i in range(d - 2):
            lo, hi = max(0, i + 1 - bw), min(d, i + 2 + bw)
            band[i, lo:hi] = rng.standard_normal(hi - lo)
            band[i, i + 1] += 4.0
        border, rb, rbb = rng.standard_normal((2, d)), rng.standard_normal(d - 2), rng.standard_normal(2)
        x1 = pde.solve_bordered_banded(band, border, rb, rbb)
        x2 = np.linalg.solve(np.vstack([band, border]), np.concatenate([rb, rbb]))
        np.testing.assert_allclose(x1, x2, rtol=0.0, atol=1e-12 * np.abs(x2).max())

    def test_singular_interior_blocks_are_solved(self):
        # interior blocks [[0]] and [[1, 1], [2, 2]]; both full matrices are nonsingular,
        # and the dense solve pivots across the border rows
        border1 = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]])
        band1 = np.array([[1.0, 0.0, 2.0]])
        band2 = np.array([[1.0, 1.0, 1.0, 0.0], [0.0, 2.0, 2.0, 1.0]])
        border2 = np.array([[1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0]])
        for band, border, exact in ((band1, border1, [1 / 3, 2 / 3, 1 / 3]), (band2, border2, [1.0, 0.0, 0.0, 1.0])):
            assert abs(np.linalg.det(np.vstack([band, border]))) > 0.5
            x = pde.solve_bordered_banded(band, border, np.ones(band.shape[0]), np.ones(2))
            np.testing.assert_allclose(x, exact, rtol=0.0, atol=1e-15)

    def test_wings_only_system(self):
        # a dimension-2 basis has no interior: only the 2 x 2 border rows remain
        border = np.array([[2.0, 1.0], [1.0, 3.0]])
        x = pde.solve_bordered_banded(np.zeros((0, 2)), border, np.zeros(0), np.array([3.0, 4.0]))
        np.testing.assert_allclose(x, np.linalg.solve(border, [3.0, 4.0]), rtol=1e-15)


class TestEvolve:
    def test_stationarity_all_schemes(self):
        prob = ratio_problem(1.0, n_knots=30, half_sigmas=5.0)
        for scheme, steps in (("cn", 100), ("implicit", 60)):
            traj = pde.evolve(prob, steps, scheme=scheme)
            assert np.abs(traj.weights - 1.0).max() <= 1e-10

    def test_gaussian_ratio_oracle(self):
        prob = ratio_problem(0.9)
        traj = pde.evolve(prob, 100, scheme="cn")
        xs = np.linspace(S0 - 3 * np.sqrt(V0), S0 + 3 * np.sqrt(V0), 101)
        rel = np.abs(traj.ratio(-1, xs) - exact_ratio(0.9, xs)) / exact_ratio(0.9, xs)
        assert rel.max() <= 2e-3

    def test_mass_and_mean_every_step(self):
        prob = ratio_problem(0.9, n_knots=25)
        traj = pde.evolve(prob, 50)
        for k in range(1, traj.times.size):
            mass_row, mean_row = pde.constrain(prob, float(traj.times[k]))
            assert abs(mass_row @ traj.weights[k] - 1.0) <= 1e-8
            assert abs(mean_row @ traj.weights[k] - S0) <= 1e-8 * S0

    def test_explicit_blowup_guard(self):
        prob = ratio_problem(0.8, n_knots=40, half_sigmas=5.0)
        with pytest.raises(pde.PDEError, match="blew up"):
            pde.evolve(prob, 20, scheme="explicit")

    def test_density_positive_and_normalized(self):
        prob = ratio_problem(0.9, n_knots=30)
        traj = pde.evolve(prob, 60)
        xs = np.linspace(S0 - 80, S0 + 80, 400)
        dens = traj.slice(-1).density(xs)
        assert dens.min() >= -1e-8
        # trapezoid over a wide window captures nearly all mass
        total = np.trapezoid(dens, xs)
        assert total == pytest.approx(1.0, abs=5e-3)

    def test_affine_variance_runs(self):
        # gentle slope: the ratio's wings stay within spline range
        half = 5.0 * np.sqrt(V0)
        basis = bs.make_basis(np.linspace(S0 - half, S0 + half, 30), 3, truncation=0)
        coef = pde.AffineVariance(V0 - 0.2 * S0, 0.2)  # equals V0 at S0
        prob = pde.PDEProblem(coef, V0 + 0.2 * half, S0, basis, 1.0)  # the variance at the upper knot
        traj = pde.evolve(prob, 60)
        assert np.all(np.isfinite(traj.weights))
        mass_row, _ = pde.constrain(prob, 1.0)
        assert mass_row @ traj.weights[-1] == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("slope", [0.2, -0.2])
    def test_affine_variance_matches_the_squared_bessel_density(self, slope):
        # v = a + b x makes Z = 4 v(X) / b**2 a squared Bessel process of
        # dimension 0, whose density for z > 0 is
        # (1/2t) sqrt(z0/z) exp(-(z0 + z)/2t) I_1(sqrt(z0 z)/t), and dz/dx = 4/b
        half = 5.0 * np.sqrt(V0)
        basis = bs.make_basis(np.linspace(S0 - half, S0 + half, 40), 3, truncation=0)
        coef = pde.AffineVariance(V0 - slope * S0, slope)  # equals V0 at S0, 420 at one boundary knot
        traj = pde.evolve(pde.PDEProblem(coef, 440.0, S0, basis, 1.0), 100)
        z0 = 4.0 * V0 / slope**2
        for k in (10, 50, 100):
            t = traj.times[k]
            xs = np.linspace(S0 - 3.0 * np.sqrt(V0 * t), S0 + 3.0 * np.sqrt(V0 * t), 201)
            z = 4.0 * coef.value(t, xs) / slope**2
            exact = np.sqrt(z0 / z) * np.exp(-((np.sqrt(z0) - np.sqrt(z)) ** 2) / (2.0 * t)) / (2.0 * t)
            exact *= ive(1, np.sqrt(z0 * z) / t) * 4.0 / abs(slope)
            assert np.abs(traj.slice(k).density(xs) - exact).max() <= 1e-3 * exact.max()

    def test_a_base_below_the_local_variance_is_rejected(self):
        # v0 = v(s0) for a sloped variance: v exceeds v0 on one side of s0
        half = 5.0 * np.sqrt(V0)
        basis = bs.make_basis(np.linspace(S0 - half, S0 + half, 30), 3, truncation=0)
        with pytest.raises(pde.PDEError, match=r"420\.0 at t = 0\.0, x = 200\.0.*must be at least 420\.0"):
            pde.PDEProblem(pde.AffineVariance(V0 - 0.2 * S0, 0.2), V0, S0, basis, 1.0)
        pde.PDEProblem(pde.AffineVariance(V0 - 0.2 * S0, 0.2), 420.0, S0, basis, 1.0)


    @pytest.mark.parametrize("scheme", ["cn", "implicit"])
    @pytest.mark.parametrize(
        "coef", [pde.ConstantVariance(0.9 * V0), pde.AffineVariance(V0 - 0.2 * S0, 0.2)], ids=["constant", "affine"]
    )
    def test_shared_tables_match_the_public_step(self, scheme, coef):
        # evolve shares one set of basis tables across its steps; composing the
        # public step functions, which build their own, must give the same bits
        half = 5.0 * np.sqrt(V0)
        basis = bs.make_basis(np.linspace(S0 - half, S0 + half, 25), 3, truncation=0)
        base = max(V0, float(coef.value(0.0, basis.knots.knots).max()))  # dominates the variance on the span
        prob = pde.PDEProblem(coef, base, S0, basis, 1.0)
        steps, rannacher = 12, 2  # evolve starts a cn march with two implicit steps
        traj = pde.evolve(prob, steps, scheme=scheme)

        times = np.linspace(0.0, 1.0, steps + 1)
        A = pde.assemble(prob, 0.5 * (times[0] + times[1])).mass
        w = np.ones(basis.dimension)
        ref, proj = [w], []
        for m in range(steps):
            th = 1.0 if scheme == "implicit" or m < rannacher else 0.5
            dt, tm = times[m + 1] - times[m], 0.5 * (times[m] + times[m + 1])
            B = pde.assemble(prob, tm).stiffness
            vals, op = pde.collocation_rows(prob, tm)
            w = pde.solve_bordered_banded(
                A - th * dt * B, vals - th * dt * op, (A + (1 - th) * dt * B) @ w, (vals + (1 - th) * dt * op) @ w
            )
            R = np.vstack(pde.constrain(prob, times[m + 1]))
            resid = R @ w - np.array([1.0, S0])
            proj.append(np.linalg.norm(resid))
            w = w - R.T @ np.linalg.solve(R @ R.T, resid)
            ref.append(w)
        assert np.array_equal(traj.weights, np.array(ref))
        assert np.array_equal(traj.projection, np.array(proj))

    def test_projection_sizes_recorded(self):
        prob = ratio_problem(0.9, n_knots=25)
        traj = pde.evolve(prob, 30)
        assert traj.projection.shape == (30,)
        assert np.all(np.isfinite(traj.projection)) and np.all(traj.projection >= 0.0)


class FadingVariance(pde.VarianceCoef):
    """v(t, x) = V0 (1 - t / t_zero): equal to the base variance at t = 0 and
    nonpositive from t_zero on; t may be a float or a column of times."""

    def __init__(self, t_zero: float):
        self.t_zero = t_zero

    def value(self, t, x):
        return V0 * (1.0 - np.asarray(t, dtype=float) / self.t_zero) + np.zeros_like(np.asarray(x, dtype=float))

    def dx(self, t, x):
        return np.zeros(np.broadcast_shapes(np.shape(t), np.shape(x)))

    dxx = dx


class RampVariance(pde.VarianceCoef):
    """v(t, x) = x - x_zero as a general coefficient: ``PDEProblem`` checks the
    positivity of the constant and affine forms only, so the step functions'
    own checks meet this one."""

    def __init__(self, x_zero: float):
        self.x_zero = x_zero

    def value(self, t, x):
        return np.asarray(x, dtype=float) - self.x_zero

    def dx(self, t, x):
        return np.ones_like(np.asarray(x, dtype=float))

    def dxx(self, t, x):
        return np.zeros_like(np.asarray(x, dtype=float))


def public_march(prob, steps, scheme="cn"):
    """Weights and projection sizes of ``steps`` steps composed from the
    public step functions, each building its own tables; a cn march starts
    with two implicit steps, as ``evolve``'s does."""
    times = np.linspace(0.0, prob.horizon, steps + 1)
    A = pde.assemble(prob, 0.5 * (times[0] + times[1])).mass
    w = np.ones(prob.basis.dimension)
    weights, proj = [w], []
    for m in range(steps):
        th = {"explicit": 0.0, "implicit": 1.0, "cn": 0.5}[scheme]
        th = 1.0 if scheme == "cn" and m < 2 else th
        dt, tm = times[m + 1] - times[m], 0.5 * (times[m] + times[m + 1])
        B = pde.assemble(prob, tm).stiffness
        vals, op = pde.collocation_rows(prob, tm)
        w = pde.solve_bordered_banded(
            A - th * dt * B, vals - th * dt * op, (A + (1 - th) * dt * B) @ w, (vals + (1 - th) * dt * op) @ w
        )
        R = np.vstack(pde.constrain(prob, times[m + 1]))
        resid = R @ w - np.array([1.0, prob.s0])
        proj.append(np.linalg.norm(resid))
        w = w - R.T @ np.linalg.solve(R @ R.T, resid)
        weights.append(w)
    return np.array(weights), np.array(proj)


class TestBatchedEvolve:
    def _problem(self, coef, n_knots=25, horizon=1.0):
        half = 5.0 * np.sqrt(V0 * horizon)
        basis = bs.make_basis(np.linspace(S0 - half, S0 + half, n_knots), 3, truncation=0)
        return pde.PDEProblem(coef, V0, S0, basis, horizon)

    def test_time_dependent_variance_matches_the_public_step(self):
        # positive over the whole horizon; evolve asks for every block's times at once
        prob = self._problem(FadingVariance(4.0))
        traj = pde.evolve(prob, 23)
        weights, proj = public_march(prob, 23)
        assert np.array_equal(traj.weights, weights) and np.array_equal(traj.projection, proj)

    def test_variance_turning_nonpositive_mid_march_raises(self):
        # the midpoint of step 6 of 10 is t = 0.55, past the variance's zero at 0.5
        prob = self._problem(FadingVariance(0.5))
        with pytest.raises(pde.PDEError, match="local variance must be positive"):
            pde.evolve(prob, 10)
        with pytest.raises(pde.PDEError, match="local variance must be positive"):
            pde.evolve(prob, 25)  # at step 13, in the second block of steps

    def test_one_step(self):
        prob = ratio_problem(0.9, n_knots=25)
        traj = pde.evolve(prob, 1)
        assert traj.weights.shape == (2, prob.basis.dimension)
        assert traj.projection.shape == traj.max_abs_weight.shape == (1,)
        weights, proj = public_march(prob, 1)
        assert np.array_equal(traj.weights, weights) and np.array_equal(traj.projection, proj)
        mass_row, mean_row = pde.constrain(prob, 1.0)
        assert abs(mass_row @ traj.weights[1] - 1.0) <= 1e-8
        assert abs(mean_row @ traj.weights[1] - S0) <= 1e-8 * S0

    @pytest.mark.parametrize("steps", [0, -3])
    def test_rejects_fewer_than_one_step(self, steps):
        with pytest.raises(pde.ConfigError, match="steps must be at least 1"):
            pde.evolve(ratio_problem(0.9, n_knots=25), steps)

    def test_max_abs_weight_is_the_guarded_value(self):
        prob = ratio_problem(0.9, n_knots=25)
        traj = pde.evolve(prob, 30)
        assert np.array_equal(traj.max_abs_weight, np.abs(traj.weights[1:]).max(axis=1))
        assert np.all(traj.max_abs_weight < 1e6)

    def test_ratios_are_ratio_at_every_time(self):
        prob = ratio_problem(0.9, n_knots=25)
        traj = pde.evolve(prob, 12)
        g = prob.basis.knots.knots
        xs = np.concatenate([np.linspace(g[0] - 30.0, g[-1] + 30.0, 77), g])
        rows = traj.ratios(xs)
        assert rows.shape == (traj.times.size, xs.size)
        for k in range(traj.times.size):
            assert np.array_equal(rows[k], traj.ratio(k, xs))

    def test_the_tracer_sees_each_block_of_steps(self):
        # the benchmark's tracer patches the step functions by name: evolve
        # must reach them, one call each of the first three per block of 10
        # steps and one solve per step
        from volspline import cli, slv, surface  # noqa: F401 - Tracer.install looks them up in sys.modules

        path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
        spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
        tracing = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracing)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            tracer.start_round()
            pde.evolve(ratio_problem(0.9, n_knots=25), 100)
        finally:
            tracer.uninstall()
        calls = tracer.rounds[0]["calls"]
        assert [calls[f"pde.{name}"] for name in ("assemble", "collocation_rows", "constrain")] == [10, 10, 10]
        assert calls["pde.solve_bordered_banded"] == 100


class TestBaseSlices:
    """The law at each step is a surface slice on the base slice measure."""

    @pytest.fixture(scope="class")
    def shipped(self):
        cfg = json.loads((Path(__file__).resolve().parents[1] / "configs" / "pde_ratio.json").read_text())
        assert (cfg["s0"], cfg["base_variance"], cfg["order"], cfg["scheme"]) == (S0, V0, 3, "cn")
        v = cfg["local_variance"]["value"]
        prob = ratio_problem(v / V0, cfg["knots"], cfg["half_width_stds"], cfg["horizon"])
        return prob, v, pde.evolve(prob, cfg["steps"])

    def test_calls_match_the_bachelier_law_and_rise_in_t(self, shipped):
        prob, v, traj = shipped
        strikes = np.linspace(40.0, 160.0, 121)
        calls = np.array([traj.slice(k).call_price(strikes) for k in range(1, traj.times.size)])
        for t in (0.1, 0.5, 1.0):
            k = int(np.argmin(np.abs(traj.times - t)))
            sd = np.sqrt(v * traj.times[k])
            d = (S0 - strikes) / sd
            exact = (S0 - strikes) * ndtr(d) + sd * np.exp(-0.5 * d * d) / np.sqrt(2.0 * np.pi)
            assert np.abs(calls[k - 1] - exact).max() <= 2e-3
        assert np.diff(calls, axis=0).min() >= -1e-12

    def test_constraint_rows_are_the_base_measures_mass_and_forward_rows(self, shipped):
        prob, _, traj = shipped
        ts = traj.times[[1, 10, 50, 100]]
        mass, mean = pde.constrain(prob, ts)
        for t, mass_row, mean_row in zip(ts, mass, mean):
            forms = sf.pricing_linear_forms(prob.basis, prob.base_measure(t), [S0])
            for row, want in ((mass_row, forms["mass_row"]), (mean_row, forms["forward_row"])):
                assert np.abs(row - want).max() <= 1e-14 * np.abs(want).max()


class TestConvergence:
    def test_spatial_halving(self):
        xs = np.linspace(S0 - 3 * np.sqrt(V0), S0 + 3 * np.sqrt(V0), 101)
        errs = {}
        for nk in (40, 79):
            prob = ratio_problem(0.9, n_knots=nk)
            traj = pde.evolve(prob, 200)
            errs[nk] = np.abs(traj.ratio(-1, xs) - exact_ratio(0.9, xs)).max()
        assert errs[40] / errs[79] >= 3.0

    def test_temporal_halving(self):
        prob = ratio_problem(0.9)
        xs = np.linspace(S0 - 3 * np.sqrt(V0), S0 + 3 * np.sqrt(V0), 101)
        sols = {}
        # the first bracket sits past the under-resolved startup layer
        for steps in (100, 200, 400):
            traj = pde.evolve(prob, steps)
            sols[steps] = traj.ratio(-1, xs)
        ratio = np.abs(sols[100] - sols[200]).max() / np.abs(sols[200] - sols[400]).max()
        assert ratio >= 3.0
