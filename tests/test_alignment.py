import warnings

import numpy as np
import pytest
from conftest import textured_radiance_scene
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import ndimage, sparse
from scipy.sparse.linalg import eigsh, spsolve

from gradientstage import alignment, core
from gradientstage.alignment import (
    FlowField,
    FlowParams,
    complement_residual,
    flow_estimate,
    joint_photometric_align,
    resample,
    warp_image,
    warp_normals,
    ALPHA_RANGE,
    CG_TOL,
    MIN_IMPROVEMENT,
    _constraint_target,
    _pcg,
)
from gradientstage.core import Image, NormalMap


def textured_image(h, w, seed=0, sigma=2.0):
    rng = np.random.default_rng(seed)
    vals = ndimage.gaussian_filter(rng.random((h, w)), sigma)
    vals = (vals - vals.min()) / (vals.max() - vals.min())
    return vals


def constant_flow(shape, u, v):
    vec = np.zeros(shape + (2,))
    vec[..., 0] = u
    vec[..., 1] = v
    return FlowField(vec, np.ones(shape, bool))


SEEDS = st.integers(0, 2**32 - 1)
GRID_SHAPES = st.tuples(st.integers(1, 7), st.integers(1, 7))


def random_grid(shape, seed, channels=None):
    """Values of mixed magnitude (HxW, or HxWxC with channels) and a mask."""
    rng = np.random.default_rng(seed)
    full = shape if channels is None else shape + (channels,)
    return rng.normal(size=full) * 10.0 ** rng.integers(-3, 4), rng.random(shape) > 0.3


class TestResample:
    @given(GRID_SHAPES, SEEDS, st.sampled_from([None, 1, 3]))
    @settings(max_examples=50, deadline=None)
    def test_integer_queries_reproduce_grid(self, shape, seed, channels):
        values, mask = random_grid(shape, seed, channels)
        rng = np.random.default_rng(seed)
        yq, xq = rng.integers(0, shape[0], 20), rng.integers(0, shape[1], 20)
        out, valid = resample(values, mask, xq.astype(float), yq.astype(float))
        np.testing.assert_array_equal(out, values[yq, xq])
        np.testing.assert_array_equal(valid, mask[yq, xq])

    @given(GRID_SHAPES, SEEDS)
    @settings(max_examples=50, deadline=None)
    def test_matches_scalar_reference_bitwise(self, shape, seed):
        """Outputs keep the summation order of this per-query reference, so
        warps stay bit-identical when the vectorization changes."""
        h, w = shape
        values, mask = random_grid(shape, seed)
        rng = np.random.default_rng(seed)
        xq, yq = rng.uniform(-1.0, w, 30), rng.uniform(-1.0, h, 30)
        out, valid = resample(values, mask, xq, yq)
        for k, (x, y) in enumerate(zip(xq, yq)):
            x0 = min(max(int(np.floor(x)), 0), max(w - 2, 0))
            y0 = min(max(int(np.floor(y)), 0), max(h - 2, 0))
            x1, y1 = min(x0 + 1, w - 1), min(y0 + 1, h - 1)
            fx, fy = x - x0, y - y0

            def interp(g):
                return (
                    g[y0, x0] * (1 - fx) * (1 - fy)
                    + g[y0, x1] * fx * (1 - fy)
                    + g[y1, x0] * (1 - fx) * fy
                    + g[y1, x1] * fx * fy
                )

            inside = 0 <= x <= w - 1 and 0 <= y <= h - 1
            assert out[k] == interp(values)
            assert valid[k] == (inside and interp(mask.astype(float)) > 1.0 - 1e-12)

    @given(GRID_SHAPES, SEEDS, st.integers(1, 4))
    @settings(max_examples=50, deadline=None)
    def test_channels_equal_separate_calls_bitwise(self, shape, seed, channels):
        values, mask = random_grid(shape, seed, channels)
        rng = np.random.default_rng(seed)
        xq = rng.uniform(-2.0, shape[1] + 1.0, (5, 6))
        yq = rng.uniform(-2.0, shape[0] + 1.0, (5, 6))
        out, valid = resample(values, mask, xq, yq)
        for c in range(channels):
            out_c, valid_c = resample(values[..., c], mask, xq, yq)
            np.testing.assert_array_equal(out[..., c], out_c)
            np.testing.assert_array_equal(valid, valid_c)

    @given(GRID_SHAPES, SEEDS, st.data())
    @settings(max_examples=100, deadline=None)
    def test_valid_iff_no_masked_point_carries_weight(self, shape, seed, data):
        values, mask = random_grid(shape, seed)

        def coord(n):
            """A grid coordinate or one strictly between two; the indices it weighs."""
            base = data.draw(st.integers(0, n - 1))
            if base == n - 1 or data.draw(st.booleans()):
                return float(base), [base]
            return base + data.draw(st.floats(1e-3, 1 - 1e-3)), [base, base + 1]

        (x, cols), (y, rows) = coord(shape[1]), coord(shape[0])
        _, valid = resample(values, mask, np.array([x]), np.array([y]))
        assert valid[0] == mask[np.ix_(rows, cols)].all()

    @given(
        GRID_SHAPES,
        SEEDS,
        st.sampled_from("lrtb"),
        st.floats(1e-9, 1.5) | st.floats(1.5, 1e6),  # how far beyond the edge
        st.floats(0, 1),  # where along the edge
    )
    @settings(max_examples=50, deadline=None)
    def test_outside_frame_invalid(self, shape, seed, side, beyond, t):
        h, w = shape
        values, _ = random_grid(shape, seed)
        x, y = {
            "l": (-beyond, t * (h - 1)),
            "r": (w - 1 + beyond, t * (h - 1)),
            "t": (t * (w - 1), -beyond),
            "b": (t * (w - 1), h - 1 + beyond),
        }[side]
        for mask in (None, np.ones(shape, bool)):
            _, valid = resample(values, mask, np.array([x]), np.array([y]))
            assert not valid[0]

    @given(GRID_SHAPES, SEEDS, st.sampled_from(["random", "holes", "full", "empty"]))
    @example((1, 1), 0, "holes")
    @example((1, 6), 1, "holes")
    @example((6, 1), 2, "random")
    @settings(max_examples=100, deadline=None)
    def test_mask_shortcut_equals_full_mask_interpolation(self, shape, seed, masks):
        """Validity matches the mask bilinearly sampled at every query,
        including NaN and infinite queries."""
        h, w = shape
        rng = np.random.default_rng(seed)
        mask = {
            "random": rng.random(shape) > 0.3,
            "holes": rng.random(shape) > 0.1 / (h * w) ** 0.5,  # isolated holes
            "full": np.ones(shape, bool),
            "empty": np.zeros(shape, bool),
        }[masks]
        xq = rng.uniform(-1.5, w + 0.5, 40)
        yq = rng.uniform(-1.5, h + 0.5, 40)
        xq[::3], yq[1::4] = np.floor(xq[::3]), np.floor(yq[1::4])  # grid lines
        xq[::7], yq[3::7] = rng.choice([np.nan, np.inf, -np.inf], (2, 6))
        with np.errstate(invalid="ignore"):  # casts and products of NaN and inf
            _, valid = resample(np.zeros(shape), mask, xq, yq)
            inside = (xq >= 0) & (yq >= 0) & (xq <= w - 1) & (yq <= h - 1)
            x0 = np.clip(np.floor(xq).astype(int), 0, max(w - 2, 0))
            y0 = np.clip(np.floor(yq).astype(int), 0, max(h - 2, 0))
            x1, y1 = np.minimum(x0 + 1, w - 1), np.minimum(y0 + 1, h - 1)
            fx, fy = xq - x0, yq - y0
            m = mask.astype(float)
            sampled = (
                m[y0, x0] * (1 - fx) * (1 - fy)
                + m[y0, x1] * fx * (1 - fy)
                + m[y1, x0] * (1 - fx) * fy
                + m[y1, x1] * fx * fy
            )
        np.testing.assert_array_equal(valid, inside & (sampled > 1.0 - 1e-12))

    def test_mask_resampled_only_between_valid_and_invalid_neighbours(self, monkeypatch):
        """A 64x64 frame with its left half masked, warped by a fractional
        flow: the mask goes through _bilinear only at queries with both
        valid and invalid neighbours, and validity is still the full-mask
        interpolation's."""
        h, w = 64, 64
        values = textured_image(h, w, seed=4)
        mask = np.ones((h, w), bool)
        mask[:, : w // 2] = False
        yy, xx = np.mgrid[0:h, 0:w]
        xq, yq = xx + 0.3 + 0.02 * yy, yy - 0.45
        masked = []

        def spy(flat, index, dx, dy, fx, fy):
            if flat.dtype == bool:
                masked.append(index.copy())
            return bilinear(flat, index, dx, dy, fx, fy)

        bilinear = alignment._bilinear
        monkeypatch.setattr(alignment, "_bilinear", spy)
        out, valid = resample(values, mask, xq, yq)

        x0 = np.clip(np.floor(xq).astype(int), 0, w - 2)
        y0 = np.clip(np.floor(yq).astype(int), 0, h - 2)
        fx, fy = xq - x0, yq - y0
        inside = (xq >= 0) & (yq >= 0) & (xq <= w - 1) & (yq <= h - 1)
        corners = [mask[y0, x0], mask[y0, x0 + 1], mask[y0 + 1, x0], mask[y0 + 1, x0 + 1]]
        mixed = inside & np.any(corners, axis=0) & ~np.all(corners, axis=0)
        assert mixed.sum() >= h - 1
        np.testing.assert_array_equal(np.sort(np.concatenate(masked)), np.sort((y0 * w + x0)[mixed]))

        def full(g):
            return (
                g[y0, x0] * (1 - fx) * (1 - fy)
                + g[y0, x0 + 1] * fx * (1 - fy)
                + g[y0 + 1, x0] * (1 - fx) * fy
                + g[y0 + 1, x0 + 1] * fx * fy
            )

        np.testing.assert_array_equal(valid, inside & (full(mask.astype(float)) > 1.0 - 1e-12))
        np.testing.assert_array_equal(out, full(values))


class TestWarpBlocks:
    @given(GRID_SHAPES, SEEDS, st.booleans())
    @settings(max_examples=50, deadline=None)
    def test_block_length_invariant_bitwise(self, shape, seed, masked):
        """warp_image, warp_normals and the flow solve's warp walk blocks of
        rows: one-row blocks and a block length that does not divide H give
        the one-block result bit for bit."""
        h, w = shape
        rng = np.random.default_rng(seed)
        values, mask = random_grid(shape, seed)
        mask = mask if masked else None
        img = Image(np.abs(values), mask)
        nm = NormalMap.from_components(rng.normal(size=shape + (3,)), mask)
        flow = FlowField(rng.uniform(-2.0, 2.0, shape + (2,)), rng.random(shape) > 0.2)
        src, tgt = rng.random(shape), rng.random(shape)
        params = FlowParams(iterations=5, warps=2)

        def warps(rows):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(core, "_CHUNK_BYTES", 8 * w * rows)
                image = warp_image(img, flow)
                u, v = alignment._hs_single_level(src, tgt, flow.u, flow.v, params)
                patch.setattr(core, "_CHUNK_BYTES", 8 * 3 * w * rows)
                normals = warp_normals(nm, flow)
            return image.samples, image.mask, normals.normals, normals.magnitude, normals.mask, u, v

        want = warps(h)  # one block
        for rows in (1, next(k for k in range(2, h + 2) if h % k)):
            for got, ref in zip(warps(rows), want):
                assert got.tobytes() == ref.tobytes()


_AVG_KERNEL = np.array(
    [[1 / 12, 1 / 6, 1 / 12], [1 / 6, 0.0, 1 / 6], [1 / 12, 1 / 6, 1 / 12]]
)


def jacobi_sweep(du, dv, ix, iy, it, denom):
    """One Horn-Schunck Jacobi sweep as ndimage convolutions; the flow
    solve's system is the fixed point of this sweep."""
    du_a = ndimage.convolve(du, _AVG_KERNEL, mode="nearest")
    dv_a = ndimage.convolve(dv, _AVG_KERNEL, mode="nearest")
    t = (ix * du_a + iy * dv_a + it) / denom
    return du_a - ix * t, dv_a - iy * t


def average_matrix(shape):
    """The stencil that jacobi_sweep applies, under replicated borders, as a
    sparse (h w, h w) matrix."""
    h, w = shape
    index = np.arange(h * w).reshape(shape)
    ii, jj = np.mgrid[0:h, 0:w]
    rows, cols, vals = [], [], []
    for (a, b), k in np.ndenumerate(_AVG_KERNEL):
        if k:
            tap = index[np.clip(ii + a - 1, 0, h - 1), np.clip(jj + b - 1, 0, w - 1)]
            rows.append(index.ravel())
            cols.append(tap.ravel())
            vals.append(np.full(h * w, k))
    # repeated (row, col) pairs at the borders sum
    return sparse.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(h * w,) * 2
    )


def flow_system(ix, iy, it, alpha, u=None, v=None):
    """A and b of alpha^2 (I - Avg) d + g (g . d) = -g it - alpha^2 (I - Avg) f
    for d = (du, dv) stacked, g = (ix, iy) and the current flow f = (u, v),
    zero if not given: with f = 0, the system whose fixed point jacobi_sweep
    has."""
    smooth = alpha**2 * (sparse.identity(ix.size) - average_matrix(ix.shape))
    gx, gy = ix.ravel(), iy.ravel()
    a = sparse.bmat(
        [
            [smooth + sparse.diags(gx * gx), sparse.diags(gx * gy)],
            [sparse.diags(gx * gy), smooth + sparse.diags(gy * gy)],
        ],
        format="csc",
    )
    b = -np.concatenate([gx * it.ravel(), gy * it.ravel()])
    if u is not None:
        b -= np.concatenate([smooth @ u.ravel(), smooth @ v.ravel()])
    return a, b


SOLVE_CASES = (
    st.tuples(st.integers(1, 40), st.integers(1, 40)),
    SEEDS,
    st.floats(0.01, 1.0),
)


def solve_case(shape, seed, dtype=np.float64):
    return np.random.default_rng(seed).normal(size=(3,) + shape).astype(dtype)


def zero_flow(shape, dtype=np.float64):
    return np.zeros(shape, dtype), np.zeros(shape, dtype)


def float64_system(ix, iy, it, alpha, u, v):
    """flow_system of the solve's inputs, in float64 whatever their dtype:
    float32 values are exact in float64."""
    ix, iy, it, u, v = (np.asarray(a, float) for a in (ix, iy, it, u, v))
    return flow_system(ix, iy, it, alpha, u, v)


def assert_solves_to_tolerance(ix, iy, it, u, v, alpha):
    """_pcg meets CG_TOL on the oracle's system, and lies within the
    residual-implied distance of spsolve's solution; the system and the
    residual are float64 for float32 inputs too, and only the rounding
    allowances take the inputs' eps."""
    eps = np.finfo(ix.dtype).eps
    du, dv = _pcg(ix, iy, it, u, v, alpha, 10_000)
    assert du.dtype == dv.dtype == ix.dtype
    a, b = float64_system(ix, iy, it, alpha, u, v)
    x = np.concatenate([du.ravel(), dv.ravel()]).astype(float)
    residual = np.linalg.norm(b - a @ x)
    # the iteration's own residual meets CG_TOL; recomputing it here
    # differs by rounding only
    assert residual <= CG_TOL * np.linalg.norm(b) * (1 + 1e-6)
    if ix.size == 1:
        # A = g g^T: CG from zero returns the minimum-norm solution, up to
        # rounding grown by the preconditioner's condition number; 1e-13 is
        # about 450 float64 eps
        g2 = (ix.astype(float) ** 2 + iy.astype(float) ** 2).item()
        rtol = 1e-13 * (eps / np.finfo(float).eps)
        np.testing.assert_allclose(x, b / g2, rtol=rtol * (1 + g2 / alpha**2))
        return
    oracle = spsolve(a, b)
    oracle_residual = np.linalg.norm(b - a @ oracle)
    lam_min = eigsh(a, k=1, sigma=0, which="LM", return_eigenvectors=False)[0]
    # |x - x*| <= |A^-1| |r| for each of the two approximate solutions
    bound = (residual + oracle_residual) / lam_min
    # x and x* are vectors whose residuals are recomputed in float64: where
    # CG stops at its rounding floor (a grid of a few pixels), the distance
    # can pass the residual bound by about an ulp, in the solve's
    # precision, of |x| + |x*| (0.75 ulp at the pinned float64 (3, 1)
    # example); allow a few
    rounding = 4 * eps * (np.linalg.norm(x) + np.linalg.norm(oracle))
    assert np.linalg.norm(x - oracle) <= bound * (1 + 1e-6) + rounding


def flow_solve_cases(dtype):
    """The solve's checks at the working precision dtype, since _pcg computes
    in the dtype of its inputs; each call makes new test functions, so that
    each class runs its own hypothesis tests."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    class FlowSolveCases:
        @given(*SOLVE_CASES)
        @example((1, 1), 0, 0.01)
        @example((1, 9), 1, 0.5)
        @example((9, 1), 2, 1.0)
        @example((40, 40), 3, 0.01)
        @settings(max_examples=100, deadline=None)
        def test_solves_the_system_to_tolerance(self, shape, seed, alpha):
            ix, iy, it = solve_case(shape, seed, dtype)
            assert_solves_to_tolerance(ix, iy, it, *zero_flow(shape, dtype), alpha)

        @given(*SOLVE_CASES, SEEDS, st.floats(1e-3, 1e3))
        @example((1, 1), 0, 0.01, 0, 5.0)
        @example((1, 9), 1, 0.5, 1, 1.0)
        @example((9, 1), 2, 1.0, 2, 1.0)
        @example((40, 40), 3, 0.01, 3, 10.0)
        @example((3, 1), 90408872, 0.3862392963508185, 172, 848.1587627437304)
        @settings(max_examples=100, deadline=None)
        def test_solves_the_total_flow_system_to_tolerance(self, shape, seed, alpha, flow_seed, flow_scale):
            # the current flow enters b only, as -alpha^2 (I - Avg)(u, v)
            ix, iy, it = solve_case(shape, seed, dtype)
            u, v = np.random.default_rng(flow_seed).normal(size=(2,) + shape) * flow_scale
            assert_solves_to_tolerance(ix, iy, it, u.astype(dtype), v.astype(dtype), alpha)

        @given(*SOLVE_CASES, st.sampled_from(["it", "gradient", "uniform flow"]))
        @settings(max_examples=30, deadline=None)
        def test_zero_rhs_gives_bitwise_zeros(self, shape, seed, alpha, zeroed):
            ix, iy, it = solve_case(shape, seed, dtype)
            u, v = zero_flow(shape, dtype)
            if zeroed == "gradient":
                ix[...] = 0.0
                iy[...] = 0.0
            else:
                it[...] = 0.0
            if zeroed == "uniform flow":
                # a flow with no variation costs no smoothness, exactly
                u[...], v[...] = np.random.default_rng(seed).normal(size=2) * 10.0
            for d in _pcg(ix, iy, it, u, v, alpha, 100):
                assert d.shape == shape
                assert d.tobytes() == np.zeros(shape, dtype).tobytes()

        @given(*SOLVE_CASES)
        @settings(max_examples=30, deadline=None)
        def test_energy_error_never_rises_with_the_cap(self, shape, seed, alpha):
            # CG minimizes |x - x*|_A over a Krylov space that grows with each
            # iteration, so a larger cap is never worse; cap 0 is no increment
            ix, iy, it = solve_case(shape, seed, dtype)
            if ix.size == 1:
                return  # A = g g^T is singular; no unique x* to measure against
            a, b = float64_system(ix, iy, it, alpha, *zero_flow(shape))
            oracle = spsolve(a, b)
            errors = []
            for cap in range(6):
                du, dv = _pcg(ix, iy, it, *zero_flow(shape, dtype), alpha, cap)
                if cap == 0:
                    assert not du.any() and not dv.any()
                e = np.concatenate([du.ravel(), dv.ravel()]) - oracle
                errors.append(e @ (a @ e))
            for before, after in zip(errors, errors[1:]):
                assert after <= before * (1 + 1e-9) + 1e-12 * errors[0]

    return FlowSolveCases


class TestFlowSolve(flow_solve_cases(np.float64)):
    @given(*SOLVE_CASES)
    @settings(max_examples=30, deadline=None)
    def test_system_is_the_jacobi_fixed_point(self, shape, seed, alpha):
        ix, iy, it = solve_case(shape, seed)
        a, b = flow_system(ix, iy, it, alpha)
        np.testing.assert_allclose(
            average_matrix(shape) @ it.ravel(),
            ndimage.convolve(it, _AVG_KERNEL, mode="nearest").ravel(),
            rtol=1e-12,
            atol=1e-12,
        )
        assert abs(a - a.T).max() == 0.0
        if ix.size == 1:
            return  # a lone pixel has no smoothness term, so A = g g^T is singular
        x = spsolve(a, b)
        du, dv = x.reshape((2,) + shape)
        got = jacobi_sweep(du, dv, ix, iy, it, alpha**2 + ix**2 + iy**2)
        scale = np.abs(x).max()
        for g, want in zip(got, (du, dv)):
            np.testing.assert_allclose(g, want, rtol=0, atol=1e-8 * scale)


class TestFlowSolveFloat32(flow_solve_cases(np.float32)):
    """The working precision of flow_estimate's solve."""

    def test_meets_the_tolerance_within_the_default_cap_at_512(self):
        # the first warp of a 512^2 pair one pixel apart, as _hs_single_level
        # builds it at zero flow: a float32 iteration that stalled at its
        # rounding floor would run to the cap short of CG_TOL
        src = textured_radiance_scene(512, 512)[1].samples
        tgt = textured_radiance_scene(512, 512, shift=(1, 1))[1].samples
        ix = 0.5 * (np.gradient(src, axis=1) + np.gradient(tgt, axis=1))
        iy = 0.5 * (np.gradient(src, axis=0) + np.gradient(tgt, axis=0))
        ix, iy, it = (a.astype(np.float32) for a in (ix, iy, src - tgt))
        params = FlowParams()
        u, v = zero_flow(src.shape, np.float32)
        du, dv = _pcg(ix, iy, it, u, v, params.alpha, params.iterations)
        a, b = float64_system(ix, iy, it, params.alpha, u, v)
        x = np.concatenate([du.ravel(), dv.ravel()]).astype(float)
        assert np.linalg.norm(b - a @ x) <= CG_TOL * np.linalg.norm(b) * (1 + 1e-6)


class TestFlowParams:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("alpha", 0.0),
            ("alpha", -0.1),
            ("alpha", np.nan),
            ("alpha", np.inf),
            ("alpha", 1e-200),  # alpha^2 underflows to zero
            ("alpha", 1e200),  # alpha^2 overflows
            # just outside ALPHA_RANGE: 6 / alpha^2 or alpha^2 passes float32's max
            ("alpha", np.nextafter(ALPHA_RANGE[0], 0.0)),
            ("alpha", np.nextafter(ALPHA_RANGE[1], np.inf)),
            ("levels", 0),
            ("warps", 0),
        ],
    )
    def test_rejects_degenerate_settings(self, field, value):
        with pytest.raises(ValueError, match=field):
            FlowParams(**{field: value})

    @pytest.mark.parametrize("alpha", ALPHA_RANGE)
    def test_alpha_range_ends_are_normal_finite_float32_weights(self, alpha):
        assert FlowParams(alpha=alpha).alpha == alpha
        for weight in (np.float32(alpha**2), np.float32(6.0 / alpha**2)):
            assert np.finfo(np.float32).tiny <= weight < np.inf


def assert_same_image(got: Image, want: Image):
    assert got.samples.tobytes() == want.samples.tobytes()
    np.testing.assert_array_equal(got.mask, want.mask)


class TestWarpImage:
    @given(GRID_SHAPES, SEEDS)
    @settings(max_examples=50, deadline=None)
    def test_zero_flow_identity(self, shape, seed):
        values, mask = random_grid(shape, seed)
        img = Image(np.abs(values), mask)
        assert_same_image(warp_image(img, FlowField.zero(shape)), img)

    def test_integer_shift_of_ramp(self):
        ramp = np.tile(np.arange(30.0), (10, 1))
        img = Image(ramp)
        out = warp_image(img, constant_flow((10, 30), 2.0, 0.0))
        # shifted content: out(p) = ramp(p + 2)
        np.testing.assert_allclose(out.samples[:, :-2], ramp[:, 2:], atol=1e-12)
        assert not out.mask[:, -2:].any()  # border band invalid
        assert out.mask[:, :-2].all()

    @given(GRID_SHAPES, SEEDS)
    @settings(max_examples=50, deadline=None)
    def test_equals_the_resampled_grid_through_the_constructor(self, shape, seed):
        """Zeros at invalid pixels, those of the flow's mask included."""
        values, mask = random_grid(shape, seed)
        img = Image(np.abs(values), mask)
        rng = np.random.default_rng(seed)
        flow = FlowField(rng.uniform(-1.5, 1.5, shape + (2,)), rng.random(shape) > 0.2)
        yy, xx = np.mgrid[0 : shape[0], 0 : shape[1]]
        vals, valid = resample(img.samples, img.mask, xx + flow.u, yy + flow.v)
        assert_same_image(warp_image(img, flow), Image(np.maximum(vals, 0.0), valid & flow.mask))

    def test_fully_off_image(self):
        img = Image(np.ones((5, 5)))
        out = warp_image(img, constant_flow((5, 5), 50.0, 0.0))
        assert not out.mask.any()

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            warp_image(Image(np.ones((5, 5))), FlowField.zero((4, 4)))

    def test_forward_back_round_trip_interior(self):
        vals = textured_image(40, 40, seed=1)
        img = Image(vals)
        fwd = constant_flow((40, 40), 1.5, -2.25)
        back = warp_image(warp_image(img, fwd), fwd.scaled(-1.0))
        inner = (slice(6, -6), slice(6, -6))
        err = np.abs(back.samples - vals)[inner].mean()
        assert err < 0.02 * vals[inner].mean()


class TestWarpNormals:
    @given(GRID_SHAPES, SEEDS)
    @settings(max_examples=50, deadline=None)
    def test_zero_flow_identity_bitwise(self, shape, seed):
        nm = NormalMap.from_components(*random_grid(shape, seed, 3))
        out = warp_normals(nm, FlowField.zero(nm.shape))
        assert out.normals.tobytes() == nm.normals.tobytes()
        assert out.magnitude.tobytes() == nm.magnitude.tobytes()
        np.testing.assert_array_equal(out.mask, nm.mask)

    @given(GRID_SHAPES, SEEDS)
    @settings(max_examples=50, deadline=None)
    def test_zero_flow_with_a_partial_mask_only_narrows(self, shape, seed):
        nm = NormalMap.from_components(*random_grid(shape, seed, 3))
        flow_mask = np.random.default_rng(seed + 1).random(shape) > 0.5
        out = warp_normals(nm, FlowField(np.zeros(shape + (2,)), flow_mask))
        kept = nm.mask & flow_mask
        np.testing.assert_array_equal(out.mask, kept)
        assert out.normals[kept].tobytes() == nm.normals[kept].tobytes()
        assert out.magnitude[kept].tobytes() == nm.magnitude[kept].tobytes()
        dropped = int((~kept).sum())
        assert out.normals[~kept].tobytes() == np.tile([0.0, 0.0, 1.0], (dropped, 1)).tobytes()
        assert out.magnitude[~kept].tobytes() == np.zeros(dropped).tobytes()
        assert not (out.normals.flags.writeable or out.magnitude.flags.writeable
                    or out.mask.flags.writeable)

    def test_uniform_field_invariant(self):
        vecs = np.zeros((8, 8, 3))
        vecs[...] = (0.0, 0.6, 0.8)
        nm = NormalMap.from_components(vecs)
        out = warp_normals(nm, constant_flow((8, 8), 0.5, 0.5))
        expected = np.tile([0.0, 0.6, 0.8], (int(out.mask.sum()), 1))
        np.testing.assert_allclose(out.normals[out.mask], expected, atol=1e-12)

    def test_unit_length_after_fractional_shift(self):
        rng = np.random.default_rng(2)
        smooth = ndimage.gaussian_filter(rng.normal(size=(12, 12, 3)), (2, 2, 0))
        smooth[..., 2] += 2.0
        nm = NormalMap.from_components(smooth)
        out = warp_normals(nm, constant_flow((12, 12), 0.5, 0.0))
        lens = np.linalg.norm(out.normals[out.mask], axis=1)
        np.testing.assert_allclose(lens, 1.0, atol=1e-12)


class TestHalfFlow:
    def test_constant_halved(self):
        f = constant_flow((4, 4), 4.0, 2.0)
        h = f.scaled(0.5)
        assert np.all(h.vectors[..., 0] == 2.0)
        assert np.all(h.vectors[..., 1] == 1.0)

    @given(st.floats(-20, 20), st.floats(-20, 20))
    @settings(max_examples=20, deadline=None)
    def test_half_of_half_is_quarter(self, u, v):
        f = constant_flow((3, 3), u, v)
        np.testing.assert_array_equal(f.scaled(0.5).scaled(0.5).vectors, f.vectors / 4.0)


class TestScaled:
    @given(
        st.lists(st.sampled_from([0.0, -0.0, 1.5, -2.25, 1e-300, -7.0]), min_size=8, max_size=8),
        st.lists(st.booleans(), min_size=4, max_size=4),
        st.one_of(st.sampled_from([-1.0, 0.0, -0.0, 0.5]), st.floats(-4, 4)),
    )
    @settings(max_examples=50, deadline=None)
    def test_scaled_is_the_product_with_positive_zeros(self, vectors, mask, k):
        """vectors * k, except that every zero, -0.0 in or a zero product
        under a negative k, comes out +0.0; the mask is kept."""
        vectors = np.array(vectors).reshape(2, 2, 2)
        mask = np.array(mask).reshape(2, 2)
        f = FlowField(vectors, mask)
        out = f.scaled(k)
        want = np.where(mask[..., None], vectors * k, 0.0)
        want[want == 0.0] = 0.0
        assert out.vectors.tobytes() == want.tobytes()
        np.testing.assert_array_equal(out.mask, mask)


class TestComplementResidual:
    def test_ideal_triple_zero(self):
        g, gbar, c = textured_radiance_scene(30, 40)
        assert complement_residual(g, gbar, c) < 1e-9

    def test_shifted_complement_increases(self):
        g, gbar, c = textured_radiance_scene(30, 40)
        _, gbar_shifted, _ = textured_radiance_scene(30, 40, shift=(0, 3))
        assert complement_residual(g, gbar_shifted, c) > complement_residual(g, gbar, c)

    def test_constant_violation_arithmetic(self):
        g = Image(np.full((4, 5), 0.3))
        gbar = Image(np.full((4, 5), 0.45))
        c = Image(np.full((4, 5), 0.65))
        assert complement_residual(g, gbar, c) == pytest.approx(0.1 * 20, abs=1e-12)

    def test_empty_joint_mask_raises(self):
        a = Image(np.ones((2, 2)), np.zeros((2, 2), bool))
        with pytest.raises(ValueError):
            complement_residual(a, a, a)

    def test_zero_iff_constraint_holds(self):
        rng = np.random.default_rng(0)
        g = Image(rng.random((5, 5)))
        gbar = Image(rng.random((5, 5)))
        c = Image(g.samples + gbar.samples)
        assert complement_residual(g, gbar, c) == 0.0


class TestFlowEstimate:
    @given(st.tuples(st.integers(2, 60), st.integers(2, 60)), SEEDS, st.booleans())
    @example((60, 60), 0, False)
    @settings(max_examples=30, deadline=None)
    def test_identical_images_zero_flow(self, shape, seed, masked):
        # every warp's data term is exactly zero, so every solve returns
        # exact zeros, and warping by zero flow is the identity
        rng = np.random.default_rng(seed)
        img = Image(rng.random(shape), rng.random(shape) > 0.3 if masked else None)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # a flat or all-masked frame
            flow = flow_estimate(img, Image(img.samples.copy(), img.mask.copy()))
        assert flow.vectors.tobytes() == np.zeros(shape + (2,)).tobytes()
        assert_same_image(warp_image(img, flow), img)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            warm = flow_estimate(img, img, init=flow)
        assert warm.vectors.tobytes() == np.zeros(shape + (2,)).tobytes()

    @given(st.integers(-40, 40), st.sampled_from([ALPHA_RANGE[0], FlowParams.alpha, ALPHA_RANGE[1]]),
           SEEDS)
    @example(40, ALPHA_RANGE[0], 0)
    @example(40, ALPHA_RANGE[1], 0)
    @example(-40, ALPHA_RANGE[0], 0)
    @example(-40, ALPHA_RANGE[1], 0)
    @settings(max_examples=40, deadline=None)
    def test_finite_flows_at_any_frame_scale_and_alpha(self, k, alpha, seed):
        # a float32 overflow or breakdown in the solve stops it at its last
        # finite iterate: no NaN reaches the warps
        big = textured_image(44, 52, seed=seed) * 2.0**k
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            warnings.simplefilter("ignore", UserWarning)  # frames below DARK_EPS are flat
            flow = flow_estimate(Image(big[:40, :48]), Image(big[2:42, 1:49]), FlowParams(alpha=alpha))
        assert np.isfinite(flow.vectors).all()

    @staticmethod
    def translated_pair():
        big = textured_image(120, 120, seed=3)
        return Image(big[: 100, : 100]), Image(big[3:103, 2:102])  # tgt(p) = src(p + (2,3))

    @staticmethod
    def translation_error(flow):
        inner = (slice(12, -12), slice(12, -12))
        return np.hypot(flow.u[inner] - 2.0, flow.v[inner] - 3.0).mean()

    def test_small_translation(self):
        src, tgt = self.translated_pair()
        assert self.translation_error(flow_estimate(src, tgt)) < 0.25

    def test_warm_started_small_translation(self):
        # the total-flow objective refines a start near the answer
        src, tgt = self.translated_pair()
        flow = flow_estimate(src, tgt, init=flow_estimate(src, tgt))
        assert self.translation_error(flow) < 0.25

    def test_warm_start_builds_no_pyramid(self, monkeypatch):
        src, tgt = self.translated_pair()

        def no_pyramid(a):
            raise AssertionError("pyramid level built")

        monkeypatch.setattr(alignment, "_downsample", no_pyramid)
        flow = flow_estimate(src, tgt, init=constant_flow(src.shape, 2.0, 3.0))
        assert flow.shape == src.shape
        with pytest.raises(AssertionError, match="pyramid level built"):
            flow_estimate(src, tgt)

    def test_warm_start_of_the_wrong_shape_raises(self):
        src, tgt = self.translated_pair()
        with pytest.raises(ValueError, match="dimension mismatch"):
            flow_estimate(src, tgt, init=FlowField.zero((100, 99)))

    def test_large_translation_with_pyramid(self):
        # image large enough for all 4 pyramid levels: 20 px is 2.5 px at
        # the coarsest scale
        big = textured_image(220, 260, seed=4, sigma=4.0)
        src = Image(big[:200, :220])
        tgt = Image(big[:200, 20:240])
        flow = flow_estimate(src, tgt, FlowParams(levels=4))
        inner = (slice(25, -25), slice(25, -25))
        err = np.hypot(flow.u[inner] - 20.0, flow.v[inner]).mean()
        assert err < 1.0

    def test_flat_images_warn_and_zero(self):
        img = Image(np.full((40, 40), 0.5))
        with pytest.warns(UserWarning):
            flow = flow_estimate(img, img)
        assert np.all(flow.vectors == 0.0)

    def test_flat_images_keep_the_joint_mask(self):
        mask = np.array([[True, False], [False, False]])
        img = Image(np.full((2, 2), 0.5), mask)
        with pytest.warns(UserWarning):
            flow = flow_estimate(img, Image(img.samples, mask))
        np.testing.assert_array_equal(flow.mask, mask)


class TestJointPhotometricAlign:
    def test_already_aligned(self):
        g, gbar, c = textured_radiance_scene(40, 50)
        u, v, residuals = joint_photometric_align(g, gbar, c, 3)
        assert residuals[0] < 1e-6
        assert np.abs(u.vectors).max() < 0.05
        assert np.abs(v.vectors).max() < 0.05

    def test_shifted_complement_recovered(self):
        g, gbar, c = textured_radiance_scene(70, 90, shift=(3, 2))
        u, v, residuals = joint_photometric_align(g, gbar, c, 10)
        inner = (slice(12, -12), slice(12, -12))
        err = np.hypot(v.u[inner] + 2.0, v.v[inner] + 3.0).mean()
        assert err < 0.3
        assert residuals[-1] < residuals[0]

    def test_residuals_non_increasing_within_tolerance(self):
        g, gbar, c = textured_radiance_scene(50, 60, shift=(2, 1))
        _, _, residuals = joint_photometric_align(g, gbar, c, 8)
        for a, b in zip(residuals, residuals[1:]):
            assert b <= a * 1.01

    def test_estimator_failure_returns_best(self):
        g, gbar, c = textured_radiance_scene(30, 30)

        calls = []

        def flaky(src, tgt, params, init):
            calls.append(1)
            if len(calls) > 2:
                raise RuntimeError("estimator exploded")
            return flow_estimate(src, tgt, params, init)

        with pytest.warns(UserWarning, match=r"best flows so far \(estimator exploded\)"):
            u, v, residuals = joint_photometric_align(g, gbar, c, 5, estimator=flaky)
        assert u.shape == g.shape
        assert len(calls) == 3

    def test_flows_that_leave_no_pixel_valid_return_the_best(self):
        g, gbar, c = textured_radiance_scene(30, 30)
        flows = []

        def drifting(src, tgt, params, init):
            """The real estimate, then from the second outer iteration on
            a flow that moves every pixel out of the frame."""
            flows.append(flow_estimate(src, tgt, params, init))
            if len(flows) > 2:
                return constant_flow(g.shape, 100.0, 0.0)
            return flows[-1]

        with pytest.warns(UserWarning, match="best flows so far .*no jointly valid pixels"):
            u, v, residuals = joint_photometric_align(g, gbar, c, 5, estimator=drifting)
        assert len(residuals) == 1
        assert (u, v) == (flows[0], flows[1])

    @pytest.mark.parametrize("error", [NameError, TypeError])
    def test_programming_error_in_the_estimator_propagates(self, error):
        g, gbar, c = textured_radiance_scene(30, 30)

        def broken(src, tgt, params, init):
            raise error("a bug, not a failed estimate")

        with pytest.raises(error, match="a bug"):
            joint_photometric_align(g, gbar, c, 3, estimator=broken)

    def test_estimator_is_warm_started_from_the_previous_flow(self):
        g, gbar, c = textured_radiance_scene(30, 30, shift=(1, 1))
        inits, flows = [], []

        def spy(src, tgt, params, init):
            inits.append(init)
            flows.append(flow_estimate(src, tgt, params, init))
            return flows[-1]

        _, _, residuals = joint_photometric_align(g, gbar, c, 3, estimator=spy)
        assert len(inits) == 2 * len(residuals) >= 4
        # calls alternate u, v: each starts from the same flow's last estimate
        assert inits[:2] == [None, None]
        for k in range(2, len(inits)):
            assert inits[k] is flows[k - 2]

    def test_iteration_floor(self):
        g, gbar, c = textured_radiance_scene(20, 20)
        with pytest.raises(ValueError):
            joint_photometric_align(g, gbar, c, 0)

    def test_init_warm_starts_the_first_iteration(self):
        g, gbar, c = textured_radiance_scene(30, 30, shift=(1, 1))
        start = (constant_flow(g.shape, 1.0, 1.0), constant_flow(g.shape, -1.0, -1.0))
        inits, flows = [], []

        def spy(src, tgt, params, init):
            inits.append(init)
            flows.append(flow_estimate(src, tgt, params, init))
            return flows[-1]

        joint_photometric_align(g, gbar, c, 3, estimator=spy, init=start)
        assert inits[0] is start[0] and inits[1] is start[1]
        for k in range(2, len(inits)):
            assert inits[k] is flows[k - 2]

    def test_failed_first_estimate_returns_the_init_flows(self):
        g, gbar, c = textured_radiance_scene(30, 30)
        start = (constant_flow(g.shape, 0.5, 0.0), constant_flow(g.shape, -0.5, 0.0))

        def failing(src, tgt, params, init):
            raise RuntimeError("no estimate")

        with pytest.warns(UserWarning, match="best flows so far"):
            u, v, residuals = joint_photometric_align(g, gbar, c, 3, estimator=failing, init=start)
        assert (u, v) == start and residuals == []

    def test_init_of_the_wrong_shape_raises(self):
        g, gbar, c = textured_radiance_scene(20, 20)
        zero = FlowField.zero((20, 19))
        with pytest.raises(ValueError, match="dimension mismatch"):
            joint_photometric_align(g, gbar, c, 1, init=(zero, zero))

    def test_without_init_matches_the_alternation_from_zero_flow_bitwise(self):
        # criterion 8's inputs; three iterations cover the cold first one
        # and the warm later ones
        g, gbar, c = textured_radiance_scene(182, 298, seed=0, shift=(3, 2))
        u, v, residuals = joint_photometric_align(g, gbar, c, 3)
        ref_u, ref_v, ref_residuals = reference_alternation(g, gbar, c, 3)
        assert u.vectors.tobytes() == ref_u.vectors.tobytes()
        assert v.vectors.tobytes() == ref_v.vectors.tobytes()
        assert residuals == ref_residuals


def reference_alternation(g, gbar, c, iterations):
    """joint_photometric_align without init, written out: the first
    outer iteration runs the pyramid from zero flow, every later one
    warm-starts; the best flows by residual are returned."""
    u = v = FlowField.zero(g.shape)
    residuals, best, best_res = [], (u, v), np.inf
    gbar_w = warp_image(gbar, v)
    for i in range(iterations):
        u = flow_estimate(g, _constraint_target(c, gbar_w, gbar), None, u if i else None)
        g_w = warp_image(g, u)
        v = flow_estimate(gbar, _constraint_target(c, g_w, g), None, v if i else None)
        gbar_w = warp_image(gbar, v)
        residuals.append(complement_residual(g_w, gbar_w, c))
        if residuals[-1] < best_res:
            best_res, best = residuals[-1], (u, v)
        if i and (residuals[-2] - residuals[-1]) / residuals[-2] < MIN_IMPROVEMENT:
            break
    return *best, residuals

