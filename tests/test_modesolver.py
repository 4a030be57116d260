import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from qpmcascade import modesolver
from qpmcascade.dispersion import sellmeier_index
from qpmcascade.errors import CapabilityError, DomainError, NumericError, masked_cells
from qpmcascade.modesolver import (
    ModeShortfallWarning,
    ModeSolverIndexProvider,
    WaveguideGeometry,
    marcatili_index,
    solve_modes,
)
from qpmcascade.qpm import SectionSpec, phasematch_map
from qpmcascade.spectral import Wavelength, dfg_target

LAM = Wavelength(1561.62)
TEMP = 59.26


def symmetric_slab_neff(n_core: float, n_clad: float, thickness_um: float, lam_um: float) -> float:
    """Analytic fundamental mode of a symmetric scalar slab, by bisection in n_eff.

    Oracle independent of the library's slab solver: solves
    tan(kappa d / 2) = gamma / kappa on the fundamental branch.
    """
    k0 = 2.0 * math.pi / lam_um

    def defect(neff: float) -> float:
        beta = k0 * neff
        kappa = math.sqrt((k0 * n_core) ** 2 - beta * beta)
        gamma = math.sqrt(beta * beta - (k0 * n_clad) ** 2)
        return math.tan(kappa * thickness_um / 2.0) - gamma / kappa

    # fundamental branch: kappa*d/2 in (0, pi/2)
    lo = max(n_clad, math.sqrt(max(n_core**2 - (math.pi / (k0 * thickness_um)) ** 2, 0.0)))
    a, b = lo + 1e-12, n_core - 1e-12
    assert defect(a) * defect(b) < 0
    for _ in range(200):
        mid = 0.5 * (a + b)
        if defect(a) * defect(mid) <= 0:
            b = mid
        else:
            a = mid
    return 0.5 * (a + b)


def bisection_slab_kappa(k0, n_core, n_a, n_b, thickness, m):
    """The slab equation of ``modesolver.slab_kappa`` solved by scalar
    bisection to the last bit: the implementation before the root kernel."""
    contrast = n_core * n_core - max(n_a, n_b) ** 2
    if contrast <= 0:
        return None
    kappa_max = k0 * math.sqrt(contrast)
    qa = (k0 * k0) * (n_core * n_core - n_a * n_a)
    qb = (k0 * k0) * (n_core * n_core - n_b * n_b)

    def phase_defect(kappa):
        ga = math.sqrt(max(qa - kappa * kappa, 0.0))
        gb = math.sqrt(max(qb - kappa * kappa, 0.0))
        return kappa * thickness - math.atan2(ga, kappa) - math.atan2(gb, kappa) - m * math.pi

    hi = kappa_max * (1.0 - 1e-15)
    if phase_defect(hi) <= 0.0:
        return None
    lo = kappa_max * 1e-15
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if phase_defect(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def full_matrix_modes(geometry, lam, count):
    """Oracle: guided (n_eff, field) pairs, descending, from eigsh factoring
    the full-grid A - sigma*I itself (SuperLU) with four spare eigenpairs,
    the same sigma and a start vector from the same seed."""
    from scipy.sparse.linalg import eigsh

    n, _, _, n_core, n_clad, _, _ = modesolver.index_map(geometry, lam, TEMP)
    k0 = 2.0 * math.pi / lam.um
    a_mat = modesolver._helmholtz_matrix(
        n,
        geometry.window_width_um / geometry.grid_nx,
        geometry.window_height_um / geometry.grid_ny,
        k0,
    )
    v0 = np.random.default_rng(modesolver._V0_SEED).standard_normal(a_mat.shape[0])
    vals, vecs = eigsh(a_mat, k=count + 4, sigma=(k0 * n_core) ** 2, which="LM", v0=v0)
    guided = [i for i in np.argsort(vals)[::-1] if (k0 * n_clad) ** 2 < vals[i] < (k0 * n_core) ** 2]
    return [(math.sqrt(vals[i]) / k0, vecs[:, i].reshape(n.shape)) for i in guided[:count]]


def square_core_geometry(core_material, substrate_material, lam):
    """6 um square core in a 24 um square window on a 64^2 grid, with a
    superstrate of the substrate's index: symmetric under a quarter turn."""
    return WaveguideGeometry(
        core_width_um=6.0,
        core_height_um=6.0,
        core_material=core_material,
        substrate_material=substrate_material,
        superstrate_index=sellmeier_index(substrate_material, lam, TEMP),
        window_width_um=24.0,
        window_height_um=24.0,
    )


@pytest.fixture(scope="module")
def default_geometry(lithium_niobate, lithium_tantalate):
    return WaveguideGeometry(
        core_width_um=10.0,
        core_height_um=8.0,
        core_material=lithium_niobate,
        substrate_material=lithium_tantalate,
    )


@pytest.fixture(scope="module")
def odd_grid_geometry(default_geometry):
    return default_geometry.with_grid(65, 48)


@pytest.fixture(scope="module")
def small_geometry(lithium_niobate, lithium_tantalate):
    return WaveguideGeometry(
        core_width_um=4.0,
        core_height_um=3.0,
        core_material=lithium_niobate,
        substrate_material=lithium_tantalate,
    )


@pytest.fixture(scope="module")
def slab_geometry(lithium_niobate, lithium_tantalate):
    n_clad = sellmeier_index(lithium_tantalate, LAM, TEMP)
    return WaveguideGeometry(
        core_width_um=26.0,
        core_height_um=2.0,
        core_material=lithium_niobate,
        substrate_material=lithium_tantalate,
        superstrate_index=n_clad,
        grid_nx=96,
        grid_ny=128,
        window_width_um=30.0,
        window_height_um=12.0,
    )


class TestSolveModes:
    def test_no_index_contrast_yields_empty_list(self, constant_material):
        geometry = WaveguideGeometry(
            core_width_um=10.0,
            core_height_um=8.0,
            core_material=constant_material,
            substrate_material=constant_material,
            superstrate_index=2.0,
        )
        with pytest.warns(ModeShortfallWarning):
            assert solve_modes(geometry, LAM, TEMP, count=1) == []

    def test_slab_limit_matches_analytic_dispersion(self, slab_geometry, lithium_niobate, lithium_tantalate):
        n_core = sellmeier_index(lithium_niobate, LAM, TEMP)
        n_clad = sellmeier_index(lithium_tantalate, LAM, TEMP)
        oracle = symmetric_slab_neff(n_core, n_clad, 2.0, LAM.um)
        solution = solve_modes(slab_geometry, LAM, TEMP, count=1)[0]
        assert abs(solution.n_eff - oracle) < 5e-4

    def test_rectangular_core_matches_marcatili(self, default_geometry):
        fd = solve_modes(default_geometry, LAM, TEMP, count=1)[0].n_eff
        approx = marcatili_index(default_geometry, LAM, TEMP, (1, 1))
        assert abs(fd - approx) < 5e-3

    def test_eigenvalue_bounds_strict(self, default_geometry, lithium_niobate, lithium_tantalate):
        n_core = sellmeier_index(lithium_niobate, LAM, TEMP)
        n_clad = sellmeier_index(lithium_tantalate, LAM, TEMP)
        for sol in solve_modes(default_geometry, LAM, TEMP, count=2):
            assert n_clad < sol.n_eff < n_core

    def test_grid_refinement_converges(self, default_geometry):
        base = solve_modes(default_geometry, LAM, TEMP, count=1)[0].n_eff
        fine = solve_modes(default_geometry.with_grid(128, 128), LAM, TEMP, count=1)[0].n_eff
        assert abs(fine - base) < 1e-4

    def test_deterministic_bitwise(self, default_geometry):
        a = solve_modes(default_geometry, LAM, TEMP, count=2)
        b = solve_modes(default_geometry, LAM, TEMP, count=2)
        assert [s.n_eff for s in a] == [s.n_eff for s in b]
        assert all(np.array_equal(x.field, y.field) for x, y in zip(a, b))

    def test_field_normalized_and_residual_small(self, default_geometry):
        for sol in solve_modes(default_geometry, LAM, TEMP, count=2):
            assert abs(np.linalg.norm(sol.field) - 1.0) < 1e-12
            assert sol.residual < 1e-8

    def test_mode_ordering_descending(self, default_geometry):
        sols = solve_modes(default_geometry, LAM, TEMP, count=3)
        n_effs = [s.n_eff for s in sols]
        assert n_effs == sorted(n_effs, reverse=True)

    def test_shortfall_warns_and_returns_shorter_list(self, lithium_niobate, lithium_tantalate):
        # small weakly guiding core: far fewer than six bound modes
        tiny = WaveguideGeometry(
            core_width_um=4.0,
            core_height_um=3.0,
            core_material=lithium_niobate,
            substrate_material=lithium_tantalate,
            window_width_um=20.0,
            window_height_um=16.0,
        )
        with pytest.warns(ModeShortfallWarning):
            sols = solve_modes(tiny, LAM, TEMP, count=6)
        assert 0 < len(sols) < 6

    def test_count_validation(self, default_geometry):
        with pytest.raises(DomainError):
            solve_modes(default_geometry, LAM, TEMP, count=0)

    @pytest.mark.parametrize("geometry_name", ["default_geometry", "odd_grid_geometry", "slab_geometry"])
    @pytest.mark.parametrize("lam_nm", [637.2, 905.08, 1561.62, 2152.9])
    @pytest.mark.parametrize("count", [1, 2, 3])
    def test_matches_eigsh_own_shift_invert(self, request, geometry_name, lam_nm, count):
        """Oracle: eigsh factoring A - sigma*I itself (column ordering) with
        four spare eigenpairs, the same sigma and start vector.  Each n_eff
        within 1e-12, each field within 1e-12 of the oracle's eigenvector
        signed by the left-half rule, each residual <= 1e-8."""
        geometry = request.getfixturevalue(geometry_name)
        lam = Wavelength(lam_nm)
        expected = full_matrix_modes(geometry, lam, count)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ModeShortfallWarning)
            got = solve_modes(geometry, lam, TEMP, count=count)
        assert len(got) == len(expected)
        left_cols = math.ceil(geometry.grid_nx / 2)
        for sol, (n_eff, field) in zip(got, expected):
            assert abs(sol.n_eff - n_eff) <= 1e-12
            left = field[:, :left_cols]
            sign = np.sign(left.flat[np.argmax(np.abs(left))])
            assert np.max(np.abs(sol.field - sign * field)) <= 1e-12
            assert sol.residual <= 1e-8

    @pytest.fixture
    def lapack_calls(self, monkeypatch):
        """Band shape of each ``pbtrf`` call and the number of ``pbtrs``
        calls (half-block shifted-inverse applications); ``splu`` raises."""
        import scipy.linalg.lapack as lapack
        import scipy.sparse.linalg as sparse_linalg

        calls = SimpleNamespace(bands=[], solves=0)
        get_lapack_funcs = lapack.get_lapack_funcs

        def counting(name, func):
            def pbtrf(band, **kw):
                calls.bands.append(band.shape)
                return func(band, **kw)

            def pbtrs(*args, **kw):
                calls.solves += 1
                return func(*args, **kw)

            return {"pbtrf": pbtrf, "pbtrs": pbtrs}.get(name, func)

        def counting_get_lapack_funcs(names, *args, **kwargs):
            funcs = get_lapack_funcs(names, *args, **kwargs)
            if isinstance(names, str):
                return funcs
            return tuple(counting(name, func) for name, func in zip(names, funcs))

        def no_splu(*args, **kwargs):
            raise AssertionError("solve_modes called splu")

        monkeypatch.setattr(lapack, "get_lapack_funcs", counting_get_lapack_funcs)
        monkeypatch.setattr(sparse_linalg, "splu", no_splu)
        return calls

    def test_one_symmetric_ordered_factorization_per_solve(self, default_geometry, lapack_calls, monkeypatch):
        """count 1 makes one banded Cholesky factorization (LAPACK pbtrf)
        of the x-even block; more modes factor the even and the odd block.
        No solve calls SuperLU.  Each factored block gets one eigsh call on
        its own OPinv, asking for k = count (even) and count - 1 (odd)."""
        import scipy.sparse.linalg as sparse_linalg

        runs = []
        eigsh = sparse_linalg.eigsh

        def recording_eigsh(a_op, k, **kwargs):
            op_inv = kwargs["OPinv"]
            assert isinstance(op_inv, sparse_linalg.LinearOperator)
            runs.append((k, op_inv.shape[0]))
            return eigsh(a_op, k, **kwargs)

        monkeypatch.setattr(sparse_linalg, "eigsh", recording_eigsh)
        for nx, ny in ((64, 64), (65, 48)):
            # Band storage: kd + 1 rows, one column per cell of the block.
            even, odd = math.ceil(nx / 2), nx // 2
            bands = [(even + 1, ny * even), (odd + 1, ny * odd)]
            for count in (1, 2, 3):
                lapack_calls.bands.clear()
                runs.clear()
                solutions = solve_modes(default_geometry.with_grid(nx, ny), LAM, TEMP, count=count)
                assert len(solutions) == count
                assert lapack_calls.bands == bands[: 1 if count == 1 else 2]
                # With OPinv given, eigsh factors nothing itself.
                assert runs == [(count, ny * even), (count - 1, ny * odd)][: 1 if count == 1 else 2]

    @pytest.mark.parametrize("lam_nm", [637.2, 905.08, 1561.62, 2152.9])
    def test_one_mode_applies_the_shifted_inverse_at_most_20_times(self, default_geometry, lapack_calls, lam_nm):
        """Work counter: a one-mode solve of the reference 64^2 geometry
        makes at most 20 banded triangular solve pairs (pbtrs calls).  With
        k = 2 and eigsh's default 20 Lanczos vectors it made 21 or 38."""
        solve_modes(default_geometry, Wavelength(lam_nm), TEMP, count=1)
        assert 0 < lapack_calls.solves <= 20

    @pytest.mark.parametrize("lam_nm", [637.2, 905.08, 1561.62, 2152.9])
    @pytest.mark.parametrize("count, limit", [(1, 10), (2, 40)])
    def test_shift_above_each_block_top_bounds_the_inverse_applications(
        self, default_geometry, lapack_calls, lam_nm, count, limit
    ):
        """Work counter: shifted just above each block's top mode, a
        one-mode solve of the reference 64^2 geometry makes at most 10
        pbtrs calls and a two-mode solve at most 40, with one pbtrf per
        block.  Shifted at (k0 n_core)^2 they made 16-19 and 50-53."""
        solve_modes(default_geometry, Wavelength(lam_nm), TEMP, count=count)
        assert len(lapack_calls.bands) == count
        assert 0 < lapack_calls.solves <= limit

    def test_reference_geometry_never_falls_back(self, default_geometry, lapack_calls, monkeypatch):
        """Work counter: exactly one pbtrf per block on the reference
        geometry over 640-2200 nm x 20/60/120/200 C x count 1-3, so every
        shifted factorization succeeds.  A block is factored before its
        Lanczos run, so eigsh is replaced by a stub whose eigenvalues lie
        below the guided band (each solve then finds no mode)."""
        import scipy.sparse.linalg as sparse_linalg

        def no_guided_pairs(a_op, k, **kwargs):
            return np.full(k, -1.0), np.zeros((a_op.shape[0], k))

        monkeypatch.setattr(sparse_linalg, "eigsh", no_guided_pairs)
        block = (33, 64 * 32)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ModeShortfallWarning)
            for lam_nm in np.linspace(640.0, 2200.0, 40):
                for temp_C in (20.0, 60.0, 120.0, 200.0):
                    for count in (1, 2, 3):
                        lapack_calls.bands.clear()
                        solve_modes(default_geometry, Wavelength(lam_nm), temp_C, count=count)
                        assert lapack_calls.bands == [block] * min(count, 2), (lam_nm, temp_C, count)

    def test_failed_shifted_factorization_refactors_at_sigma0(self, lithium_niobate, lithium_tantalate, lapack_calls):
        """A 2 um square core in a 16 um square window with a symmetric
        surround, at 2152.9 nm: the fundamental lies 18% of the way from
        its block's separable estimate up to (k0 n_core)^2, above the
        shift.  pbtrf fails there and the x-even block is factored again
        at (k0 n_core)^2; n_eff is within 1e-12 of the full-matrix oracle."""
        lam = Wavelength(2152.9)
        geometry = WaveguideGeometry(
            core_width_um=2.0,
            core_height_um=2.0,
            core_material=lithium_niobate,
            substrate_material=lithium_tantalate,
            superstrate_index=sellmeier_index(lithium_tantalate, lam, TEMP),
            window_width_um=16.0,
            window_height_um=16.0,
        )
        sols = solve_modes(geometry, lam, TEMP, count=1)
        assert lapack_calls.bands == [(33, 64 * 32)] * 2
        expected = full_matrix_modes(geometry, lam, 1)
        assert len(sols) == len(expected) == 1
        assert abs(sols[0].n_eff - expected[0][0]) <= 1e-12

    @pytest.mark.parametrize("nx, ny", [(64, 64), (65, 48)])
    def test_count_no_block_can_hold_is_refused_before_factoring(self, default_geometry, lapack_calls, nx, ny):
        """A count above the x-even block's cell count less 2 raises
        DomainError before any factorization."""
        even_size = ny * math.ceil(nx / 2)
        for count in (even_size - 1, 100_000_000):
            with pytest.raises(DomainError, match=f"count must be >= 1 and <= {even_size - 2}"):
                solve_modes(default_geometry.with_grid(nx, ny), LAM, TEMP, count=count)
        assert lapack_calls.bands == []

    @pytest.mark.parametrize("lam_nm", [637.2, 1561.62, 2152.9])
    def test_degenerate_pair_across_the_parity_blocks(self, lithium_niobate, lithium_tantalate, lam_nm):
        """A square core in a square window and a symmetric surround: the
        x-odd mode 2 and its rotated, x-even twin are degenerate, one in
        each block.  Both come back within 1e-12 of the full-matrix oracle,
        one field x-even and the other x-odd."""
        lam = Wavelength(lam_nm)
        geometry = square_core_geometry(lithium_niobate, lithium_tantalate, lam)
        expected = full_matrix_modes(geometry, lam, 3)
        sols = solve_modes(geometry, lam, TEMP, count=3)
        assert len(sols) == len(expected) == 3
        for sol, (n_eff, _) in zip(sols, expected):
            assert abs(sol.n_eff - n_eff) <= 1e-12
        assert abs(sols[1].n_eff - sols[2].n_eff) <= 1e-12
        parities = [
            tuple(np.allclose(s.field, sign * s.field[:, ::-1], rtol=0.0, atol=1e-12) for sign in (1, -1))
            for s in sols[1:]
        ]
        assert sorted(parities) == [(False, True), (True, False)]

    def test_mode_past_cut_off_is_a_shortfall(self, lithium_niobate, lithium_tantalate):
        """At 2152.9 nm the square core guides the fundamental and the
        degenerate pair only: asking for four warns and returns three."""
        lam = Wavelength(2152.9)
        geometry = square_core_geometry(lithium_niobate, lithium_tantalate, lam)
        with pytest.warns(ModeShortfallWarning, match="requested 4 guided modes, found 3"):
            sols = solve_modes(geometry, lam, TEMP, count=4)
        assert len(sols) == 3

    def test_band_that_is_not_positive_definite_raises(self, default_geometry, monkeypatch):
        """sigma below the top eigenvalue makes sigma I - B indefinite, so
        pbtrf fails and the solve raises NumericError."""
        shifted_band = modesolver._shifted_band
        monkeypatch.setattr(
            modesolver, "_shifted_band", lambda stencil, sigma: shifted_band(stencil, 0.5 * sigma)
        )
        with pytest.raises(NumericError, match="not positive definite"):
            solve_modes(default_geometry, LAM, TEMP, count=1)

    @pytest.mark.parametrize("nx, ny", [(64, 64), (65, 48)])
    @pytest.mark.parametrize("lam_nm", [637.2, 905.08, 1561.62, 2152.9])
    @pytest.mark.parametrize("count", [2, 3])
    def test_sign_is_set_by_the_left_half(self, default_geometry, nx, ny, lam_nm, count):
        """Each mode's largest |psi| in columns [: ceil(nx/2)] is positive,
        x-odd modes included, whose mirror lobes tie up to round-off."""
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ModeShortfallWarning)
            sols = solve_modes(default_geometry.with_grid(nx, ny), Wavelength(lam_nm), TEMP, count=count)
        assert len(sols) >= 2
        for sol in sols:
            left = sol.field[:, : math.ceil(nx / 2)]
            assert left.flat[np.argmax(np.abs(left))] > 0


# Random centered-core geometries: hypothesis draws for the tests below.
RANDOM_GEOMETRY = dict(
    core_w=st.floats(2.0, 12.0),
    core_h=st.floats(1.5, 9.0),
    margin_w=st.floats(1.0, 14.0),
    margin_h=st.floats(1.0, 12.0),
    superstrate=st.floats(1.0, 2.05),
    nx=st.integers(32, 48),
    ny=st.integers(32, 48),
    lam_nm=st.sampled_from([637.2, 905.08, 1561.62, 2152.9]),
    count=st.integers(1, 3),
)


def random_geometry(core_material, substrate_material, core_w, core_h, margin_w, margin_h, superstrate, nx, ny):
    """The geometry of one RANDOM_GEOMETRY draw: the margins split evenly
    on both sides of the core."""
    return WaveguideGeometry(
        core_width_um=core_w,
        core_height_um=core_h,
        core_material=core_material,
        substrate_material=substrate_material,
        superstrate_index=superstrate,
        grid_nx=nx,
        grid_ny=ny,
        window_width_um=core_w + margin_w,
        window_height_um=core_h + margin_h,
    )


@settings(max_examples=30, deadline=None)
@given(**RANDOM_GEOMETRY)
def test_parity_split_matches_the_full_matrix(
    lithium_niobate, lithium_tantalate, core_w, core_h, margin_w, margin_h, superstrate, nx, ny, lam_nm, count
):
    """Even and odd grids: each n_eff within 1e-12 of a full-matrix eigsh,
    each residual against the full matrix <= 1e-8, and the fundamental
    field its own mirror image."""
    from scipy.sparse.linalg import eigsh

    geometry = random_geometry(
        lithium_niobate, lithium_tantalate, core_w, core_h, margin_w, margin_h, superstrate, nx, ny
    )
    lam = Wavelength(lam_nm)
    n, _, _, n_core, n_clad, _, _ = modesolver.index_map(geometry, lam, TEMP)
    k0 = 2.0 * math.pi / lam.um
    a_mat = modesolver._helmholtz_matrix(
        n, geometry.window_width_um / nx, geometry.window_height_um / ny, k0
    )
    v0 = np.random.default_rng(modesolver._V0_SEED).standard_normal(a_mat.shape[0])
    vals, _ = eigsh(a_mat, k=count + 4, sigma=(k0 * n_core) ** 2, which="LM", v0=v0)
    guided = sorted((v for v in vals if (k0 * n_clad) ** 2 < v < (k0 * n_core) ** 2), reverse=True)
    expected = [math.sqrt(v) / k0 for v in guided[:count]]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ModeShortfallWarning)
        sols = solve_modes(geometry, lam, TEMP, count=count)
    assert len(sols) == len(expected)
    for sol, n_eff in zip(sols, expected):
        assert abs(sol.n_eff - n_eff) <= 1e-12
        psi = sol.field.ravel()
        beta2 = (k0 * sol.n_eff) ** 2
        assert np.linalg.norm(a_mat @ psi - beta2 * psi) <= 1e-8
        assert sol.residual <= 1e-8
    if count == 1 and sols:
        field = sols[0].field
        assert np.allclose(field, field[:, ::-1], rtol=0.0, atol=1e-15)


def parity_block_top(a_mat, nx, sigma0, wide, sign):
    """Oracle: the top eigenvalue of the full matrix on x-even (``sign``
    +1) or x-odd (-1) fields, from a full-grid shift-invert eigsh at
    sigma0 with the other parity pushed ``wide`` below the spectrum."""
    import scipy.sparse as sparse
    from scipy.sparse.linalg import eigsh

    size = a_mat.shape[0]
    cells = np.arange(size).reshape(-1, nx)
    mirror = sparse.csr_matrix((np.ones(size), (cells.ravel(), cells[:, ::-1].ravel())), shape=(size, size))
    other = 0.5 * (sparse.identity(size, format="csr") - sign * mirror)
    v0 = np.random.default_rng(modesolver._V0_SEED).standard_normal(size)
    return eigsh(a_mat - wide * other, k=1, sigma=sigma0, which="LM", v0=v0)[0][0]


@settings(max_examples=30, deadline=None)
@given(**RANDOM_GEOMETRY)
# A 2 um core in a near-symmetric surround at 2152.9 nm: the fundamental
# lies 18% of the way from its block's estimate up to sigma0, above the
# shift, so both blocks are factored again at sigma0.
@example(core_w=2.0, core_h=2.0, margin_w=14.0, margin_h=14.0, superstrate=2.1,
         nx=48, ny=48, lam_nm=2152.9, count=2)
# The reference core: neither block falls back.
@example(core_w=10.0, core_h=8.0, margin_w=20.0, margin_h=16.0, superstrate=1.0,
         nx=48, ny=48, lam_nm=1561.62, count=2)
def test_separable_estimate_is_below_each_block_top(
    lithium_niobate, lithium_tantalate, core_w, core_h, margin_w, margin_h, superstrate, nx, ny, lam_nm, count
):
    """Loewner order: each parity block's separable estimate is at most the
    block's top eigenvalue from the full matrix, and the solve matches the
    full-matrix eigsh within 1e-12 whether or not a block fell back to
    sigma0 (its shift at or below that top)."""
    geometry = random_geometry(
        lithium_niobate, lithium_tantalate, core_w, core_h, margin_w, margin_h, superstrate, nx, ny
    )
    lam = Wavelength(lam_nm)
    n, _, _, n_core, _, n_sub, weights = modesolver.index_map(geometry, lam, TEMP)
    k0 = 2.0 * math.pi / lam.um
    hx, hy = geometry.window_width_um / nx, geometry.window_height_um / ny
    a_mat = modesolver._helmholtz_matrix(n, hx, hy, k0)
    sigma0 = (k0 * n_core) ** 2
    wide = sigma0 + 8.0 / hx**2 + 8.0 / hy**2
    for parity, sign, estimate in zip(("even", "odd"), (1, -1), modesolver._separable_tops(geometry, lam, n_core, n_sub, weights)):
        top = parity_block_top(a_mat, nx, sigma0, wide, sign)
        assert estimate <= top
        shift = estimate + modesolver._SHIFT_GAP * (sigma0 - estimate)
        event(f"x-{parity} block falls back: {shift <= top}")
    expected = full_matrix_modes(geometry, lam, count)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ModeShortfallWarning)
        sols = solve_modes(geometry, lam, TEMP, count=count)
    assert len(sols) == len(expected)
    for sol, (n_eff, _) in zip(sols, expected):
        assert abs(sol.n_eff - n_eff) <= 1e-12
        assert sol.residual <= 1e-8


class TestGeometryValidation:
    def test_window_must_contain_core(self, lithium_niobate, lithium_tantalate):
        with pytest.raises(DomainError):
            WaveguideGeometry(
                core_width_um=40.0,
                core_height_um=8.0,
                core_material=lithium_niobate,
                substrate_material=lithium_tantalate,
            )

    def test_minimum_grid(self, lithium_niobate, lithium_tantalate):
        with pytest.raises(DomainError):
            WaveguideGeometry(
                core_width_um=10.0,
                core_height_um=8.0,
                core_material=lithium_niobate,
                substrate_material=lithium_tantalate,
                grid_nx=16,
            )


class TestMarcatili:
    def test_slab_limit_agreement(self, slab_geometry, lithium_niobate, lithium_tantalate):
        n_core = sellmeier_index(lithium_niobate, LAM, TEMP)
        n_clad = sellmeier_index(lithium_tantalate, LAM, TEMP)
        oracle = symmetric_slab_neff(n_core, n_clad, 2.0, LAM.um)
        assert abs(marcatili_index(slab_geometry, LAM, TEMP, (1, 1)) - oracle) < 1e-3

    def test_large_core_approaches_bulk_from_below(self, lithium_niobate, constant_material):
        geometry = WaveguideGeometry(
            core_width_um=24.0,
            core_height_um=16.0,
            core_material=lithium_niobate,
            substrate_material=constant_material,
            superstrate_index=2.0,
            window_width_um=30.0,
            window_height_um=24.0,
        )
        n_core = sellmeier_index(lithium_niobate, LAM, TEMP)
        approx = marcatili_index(geometry, LAM, TEMP, (1, 1))
        assert approx < n_core
        assert n_core - approx < 5e-3

    def test_mode_ordering(self, default_geometry):
        first = marcatili_index(default_geometry, LAM, TEMP, (1, 1))
        second = marcatili_index(default_geometry, LAM, TEMP, (2, 1))
        assert second < first

    def test_evanescent_raises_capability(self, default_geometry):
        with pytest.raises(CapabilityError):
            marcatili_index(default_geometry, LAM, TEMP, (40, 40))

    @pytest.mark.parametrize("geometry_name", ["default_geometry", "slab_geometry", "small_geometry"])
    def test_bracket_kernel_matches_the_scalar_bisection(self, request, geometry_name, monkeypatch):
        """3 geometries x 4 wavelengths x 4 mode pairs: n_eff within 1e-12
        relative of the slab equation solved by ``bisection_slab_kappa``,
        and unbound in the same cases."""
        geometry = request.getfixturevalue(geometry_name)

        def marcatili_or_unbound(lam_nm, pair):
            try:
                return marcatili_index(geometry, Wavelength(lam_nm), TEMP, pair)
            except CapabilityError:
                return None

        cases = [(lam, pair) for lam in (637.2, 905.08, 1561.62, 2152.9)
                 for pair in ((1, 1), (2, 1), (1, 2), (3, 2))]
        got = [marcatili_or_unbound(lam, pair) for lam, pair in cases]
        monkeypatch.setattr(modesolver, "slab_kappa", bisection_slab_kappa)
        expect = [marcatili_or_unbound(lam, pair) for lam, pair in cases]
        assert sum(v is not None for v in expect) >= 8
        for value, oracle in zip(got, expect):
            if oracle is None:
                assert value is None
            else:
                assert value == pytest.approx(oracle, rel=1e-12, abs=0.0)


class TestModeSolverProvider:
    def test_guided_bound_and_ordering(self, default_geometry, lithium_niobate, lithium_tantalate):
        n1, n2 = (ModeSolverIndexProvider(default_geometry, default_mode=mode).effective_index(LAM, TEMP)
                  for mode in (1, 2))
        n_core = sellmeier_index(lithium_niobate, LAM, TEMP)
        n_clad = sellmeier_index(lithium_tantalate, LAM, TEMP)
        assert n_clad < n2 < n1 < n_core

    def test_default_mode_configuration(self, default_geometry):
        provider = ModeSolverIndexProvider(default_geometry, default_mode=2)
        assert provider.effective_index(LAM, TEMP) == solve_modes(default_geometry, LAM, TEMP, count=2)[1].n_eff

    def test_unavailable_mode_raises(self, slab_geometry):
        provider = ModeSolverIndexProvider(slab_geometry, default_mode=9)
        with pytest.raises(CapabilityError):
            provider.effective_index(LAM, TEMP)

    def test_higher_mode_map_solves_once_per_distinct_key(self, default_geometry, lithium_niobate, monkeypatch):
        solved = []

        def two_mode_solve(geometry, lam, temp_C, count=1):
            n = sellmeier_index(lithium_niobate, lam, temp_C)
            solved.append((lam.nm, temp_C))
            return [SimpleNamespace(mode_index=m, n_eff=n - 0.01 * m) for m in (1, 2)][:count]

        monkeypatch.setattr(modesolver, "solve_modes", two_mode_solve)
        # One provider for both sections, as a device with equal blocks has.
        provider = ModeSolverIndexProvider(default_geometry, default_mode=2)
        step1, step2 = (SectionSpec(role, 20.0, period, TEMP, provider)
                        for role, period in (("step1", 12.9), ("step2", 31.8)))
        signal = Wavelength(637.2)
        pm = phasematch_map(step1, step2, signal, [55.0, 60.0], [2150.0, 2155.0])
        assert np.all(np.isfinite(pm.step1)) and np.all(np.isfinite(pm.step2))
        # Signal, two intermediates, two targets and two pumps at two temperatures.
        assert len(solved) == len(set(solved)) == 14
        assert provider.effective_index(signal, 55.0) == sellmeier_index(lithium_niobate, signal, 55.0) - 0.02
        assert len(solved) == 14


    def test_map_solves_once_per_distinct_key(self, default_geometry, fake_solves):
        step1, step2 = (
            SectionSpec(role, 20.0, period, TEMP, ModeSolverIndexProvider(default_geometry))
            for role, period in (("step1", 12.9), ("step2", 31.8))
        )
        signal, temps, pumps = Wavelength(637.2), [55.0, 60.0], [2150.0, 2155.0]
        pm = phasematch_map(step1, step2, signal, temps, pumps)
        assert np.all(np.isfinite(pm.step1)) and np.all(np.isfinite(pm.step2))
        keys1, keys2 = set(), set()
        for temp in temps:
            for pump_nm in pumps:
                pump = Wavelength(pump_nm)
                mid = dfg_target(signal, pump)
                keys1 |= {(lam.nm, temp) for lam in (signal, mid, pump)}
                keys2 |= {(lam.nm, temp) for lam in (mid, dfg_target(mid, pump), pump)}
        assert len(fake_solves) == len(keys1) + len(keys2) == 22
        # Scalar queries of the same chain find the map's cache entries.
        for section, keys in ((step1, keys1), (step2, keys2)):
            for lam_nm, temp in keys:
                section.index_provider.effective_index(Wavelength(lam_nm), temp)
        assert len(fake_solves) == 22

    def test_array_query_masks_what_a_scalar_query_raises(self, default_geometry, fake_solves):
        provider = ModeSolverIndexProvider(default_geometry, default_mode=2)
        with pytest.raises(CapabilityError):
            provider.effective_index(LAM, TEMP)
        with masked_cells() as log:
            row = provider.effective_index(np.array([LAM.nm]), np.array([TEMP, 300.0]))
        assert np.all(np.isnan(row))
        assert [(reason, mask.tolist()) for reason, mask in log] == [
            ("capability_error", [True, False]),
            ("lithium_niobate_e temperature_C", [False, True]),
        ]
