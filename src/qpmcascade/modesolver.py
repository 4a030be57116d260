"""Scalar finite-difference eigenmode solver for a rectangular ridge cross-section.

The guided problem is the scalar Helmholtz eigenequation on a rectangular
window with zero-field (Dirichlet) boundaries,

    [d2/dx2 + d2/dy2 + k0^2 n(x,y)^2] psi = beta^2 psi,

discretized with the standard 5-point stencil on a uniform cell-centered
grid.  Effective indices are n_eff = beta / k0.  A mode is guided when
max(substrate, superstrate) < n_eff < n_core.

Modes come from shift-invert Lanczos runs (ARPACK, through ``eigsh``).
Every eigenvalue of the operator lies below sigma0 = (k0 n_core)^2, and
for any shift above the spectrum the eigenvalues nearest the shift are
the highest-index modes.  The core is centered in the window, so the
operator commutes with the mirror x -> W - x, and an orthogonal change of basis (pairs of mirror columns
folded into their sum and difference over sqrt 2) splits the 5-point
matrix exactly into an x-even and an x-odd block.  Each block is a
5-point matrix on the left half of the grid and differs from the
Dirichlet matrix only in the column next to the mirror plane: for an
even column count that column's diagonal gains +1/hx^2 (even) or
-1/hx^2 (odd); for an odd count the center column belongs to the even
block and couples to its neighbor with sqrt(2)/hx^2, while in the odd
block that neighbor sees a Dirichlet wall.  By Perron-Frobenius the
fundamental mode is simple with a positive field, and a positive field
is even (see :func:`solve_modes`), so of the ``count`` top modes the odd
block holds at most ``count - 1``.  Each block gets its own Lanczos run:
the even block asks for ``k = count`` eigenpairs, the odd block for
``k = count - 1``, and one mode needs only the even block.  The runs'
eigenvalues are merged and sorted, and those outside the guided band
((k0 n_clad)^2, sigma0) dropped.

Each block is shifted just above its own top eigenvalue, not at sigma0:
Lanczos on the shifted inverse converges the faster the closer the shift
sits to the wanted eigenvalues (Ericsson & Ruhe, Math. Comp. 35, 1251
(1980)).  The shift comes from the separable (Marcatili-type) operator
with index squared n_x^2(x) + n_y^2(y) - n_core^2 (Marcatili, Bell Syst.
Tech. J. 48, 2071 (1969)), where n_x^2 and n_y^2 are the area-weighted
profiles through the core, built from the index map's cell weights.  Its
stencil is an x and a y tridiagonal operator summed, so each block's top
eigenvalue est_b costs two small tridiagonal eigenproblems.  In every
cell the separable index squared is the true one minus
(1 - fx)(1 - fy)(n_core^2 - n_sup^2) >= 0, with fx and fy the cell's core
fractions along x and along y, so the separable block lies below the
true block in the Loewner order and est_b is a lower bound on the
block's top eigenvalue.  The block is shifted to sigma_b = est_b +
0.1 (sigma0 - est_b), capped at sigma0.  The bound does not say how far
above est_b the top lies; a banded Cholesky factorization of
sigma_b I - B that succeeds certifies that sigma_b lies above it, and
when it fails the block is factored again at sigma0.  On the reference
64^2 geometry no block fell back over 640-2200 nm at 20-200 C; over 600
random geometries with 2-12 um cores, 42 of 1010 blocks did, none of
which held a returned mode.

A run keeps a Krylov basis of max(6, 2k + 1) vectors (eigsh's ``ncv``),
capped by the block size, not eigsh's default of max(20, 2k + 1).  At
59.26 C over 637-2153 nm a one-mode solve of the reference geometry
applies the shifted inverse 10 times, at 64^2 and at 128^2; shifted at
sigma0 it took 16-19, and one run on both blocks stacked, asking for
``count + 1`` pairs with 20 vectors, 21-38.  A two-mode solve takes
36-39 half-block inverse applications (50-56 at sigma0).  A block asked
for more pairs than it guides costs more, because the extra pairs lie
among the closely spaced unguided eigenvalues below cut-off: at
2152.9 nm the reference geometry guides only two x-even modes and one
or two x-odd ones, and a three-mode solve takes 92-96 half-block
inverse applications (64^2 to 128^2; 118-121 at sigma0).

Shifted above its spectrum, each block ``sigma I - B`` is symmetric
positive definite (a symmetric nonsingular M-matrix), and with cells in
C order it is banded with half-bandwidth kd = ceil(nx / 2), the block's
column count.  So it is factored by LAPACK's banded Cholesky (``pbtrf``,
upper band storage) and each Lanczos step is one pair of banded
triangular solves (``pbtrs``) on its block.  The 5-point stencil is kept as its
diagonals (:func:`_stencil`); the band, the full-grid residual mat-vec
and the sparse matrix the tests use as an oracle are all read from them,
and no sparse matrix is built on the solve path.  The factor costs
O(N kd^2) for N cells, against about O(N^1.5) for a sparse LU with a
fill-reducing ordering (SuperLU, minimum degree), so the band loses on
large grids.  On a 2-core x86 machine with BLAS on one thread the band
was the faster up to 224^2 for two modes and 256^2 for one; the sparse
LU was the faster from 256^2 for two modes (0.60 s against 0.86 s) and
288^2 for one (0.38 s against 0.42 s).  At 64^2, the device default,
the band halves the solve time.  Where the crossover falls depends on
the machine.  Fields are unfolded back onto the full grid and every
eigenpair's residual is checked against the full-grid operator.

The index map has three regions: the core rectangle (centered in the
window), the substrate half-plane below the core bottom, and superstrate
everywhere else.  Setting ``superstrate_index`` equal to the substrate
index at the evaluation point produces a symmetric surround, which is the
configuration the slab-limit tests use.

The window is an artificial truncation; users are responsible for choosing
it large enough that the mode has decayed at the walls.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .dispersion import SellmeierModel, sellmeier_index
from .errors import CapabilityError, DomainError, NumericError, RangeError, is_array, screen
from .qpm import _first_roots
from .spectral import Wavelength

# Seed for the deterministic ARPACK starting vector; fixed so identical
# inputs give bitwise-identical eigenvalues.
_V0_SEED = 987654321

_RESIDUAL_LIMIT = 1e-8

# Smallest Lanczos basis (eigsh's ``ncv``) of a block run asking for k
# eigenpairs; a run uses max(_NCV_MIN, 2k + 1) vectors, capped by the block.
_NCV_MIN = 6

# A block's shift sits this fraction of the way from its separable
# estimate up to (k0 n_core)^2.
_SHIFT_GAP = 0.1


class ModeShortfallWarning(UserWarning):
    """Fewer guided modes exist than were requested."""


@dataclass(frozen=True)
class WaveguideGeometry:
    """Rectangular core on a substrate half-plane inside a finite window.

    All transverse dimensions in micrometers.  The window must strictly
    contain the core and the grid must resolve it (at least 32 cells per
    axis).
    """

    core_width_um: float
    core_height_um: float
    core_material: SellmeierModel
    substrate_material: SellmeierModel
    superstrate_index: float = 1.0
    grid_nx: int = 64
    grid_ny: int = 64
    window_width_um: float = 30.0
    window_height_um: float = 24.0

    def __post_init__(self):
        for name in ("core_width_um", "core_height_um", "window_width_um", "window_height_um"):
            if not getattr(self, name) > 0:
                raise DomainError(f"{name} must be positive")
        if self.core_width_um >= self.window_width_um or self.core_height_um >= self.window_height_um:
            raise DomainError("window must strictly contain the core")
        if self.grid_nx < 32 or self.grid_ny < 32:
            raise DomainError("grid_nx and grid_ny must be at least 32")
        if not self.superstrate_index >= 1.0:
            raise DomainError("superstrate_index must be >= 1")

    def with_grid(self, nx: int, ny: int) -> "WaveguideGeometry":
        return replace(self, grid_nx=nx, grid_ny=ny)


@dataclass(frozen=True, eq=False)
class ModeSolution:
    """One guided eigenmode: effective index, unit-L2 field, residual norm."""

    n_eff: float
    mode_index: int
    field: np.ndarray  # shape (grid_ny, grid_nx)
    x_um: np.ndarray
    y_um: np.ndarray
    residual: float


def _overlap_fraction(lo: np.ndarray, hi: np.ndarray, a: float, b: float) -> np.ndarray:
    """Fraction of each [lo, hi) cell covered by the interval [a, b]."""
    return np.clip(np.minimum(hi, b) - np.maximum(lo, a), 0.0, None) / (hi - lo)


def _area_weights(geometry: WaveguideGeometry):
    """Cell centers and the area weights of the index map's layers.

    Returns ``(x, y, fx, fy, f_sub)`` on the cell-centered grid:
    ``fx[j]`` is the fraction of column j inside the core's x span,
    ``fy[i]`` the fraction of row i inside its y span and ``f_sub[i]`` the
    fraction of row i below the core bottom (substrate).  Cell (i, j) is
    core over ``fy[i] fx[j]`` of its area.
    """
    w, h = geometry.core_width_um, geometry.core_height_um
    ww, wh = geometry.window_width_um, geometry.window_height_um
    hx = ww / geometry.grid_nx
    hy = wh / geometry.grid_ny
    x = (np.arange(geometry.grid_nx) + 0.5) * hx
    y = (np.arange(geometry.grid_ny) + 0.5) * hy
    core_bottom = 0.5 * (wh - h)
    core_top = 0.5 * (wh + h)
    fx = _overlap_fraction(x - 0.5 * hx, x + 0.5 * hx, 0.5 * (ww - w), 0.5 * (ww + w))
    fy = _overlap_fraction(y - 0.5 * hy, y + 0.5 * hy, core_bottom, core_top)
    f_sub = _overlap_fraction(y - 0.5 * hy, y + 0.5 * hy, -np.inf, core_bottom)
    return x, y, fx, fy, f_sub


def index_map(geometry: WaveguideGeometry, lam: Wavelength, temp_C: float):
    """Sampled refractive index n(x, y) on cell centers.

    n^2 is area-averaged over each cell (exact rectangle overlaps), which
    removes the staircase error of binary sampling at the core boundary.
    Returns (n, x_um, y_um, n_core, n_clad_max, n_sub, (fx, fy, f_sub)):
    the last two are what :func:`_separable_tops` reuses, the substrate
    index and the area weights of :func:`_area_weights`.
    """
    n_core = sellmeier_index(geometry.core_material, lam, temp_C)
    n_sub = sellmeier_index(geometry.substrate_material, lam, temp_C)
    n_sup = geometry.superstrate_index
    x, y, fx, fy, f_sub = _area_weights(geometry)
    f_core = np.outer(fy, fx)
    f_sup = 1.0 - f_core - f_sub[:, None]
    n2 = f_core * n_core**2 + f_sub[:, None] * n_sub**2 + f_sup * n_sup**2
    return np.sqrt(n2), x, y, n_core, max(n_sub, n_sup), n_sub, (fx, fy, f_sub)


def _separable_tops(geometry: WaveguideGeometry, lam: Wavelength, n_core: float, n_sub: float, weights) -> tuple[float, float]:
    """Top eigenvalues of the x-even and the x-odd block of the separable
    stencil: the 5-point stencil of :func:`_stencil` with n^2 replaced by
    n_x^2(x) + n_y^2(y) - n_core^2.

    n_x^2 = fx n_core^2 + (1 - fx) n_sup^2 and n_y^2 = fy n_core^2 +
    f_sub n_sub^2 + (1 - fy - f_sub) n_sup^2 are the area-weighted
    profiles through the core, from the indices and the weights
    ``(fx, fy, f_sub)`` :func:`index_map` returned.  The operator is a
    sum of a tridiagonal x and a tridiagonal y operator, so its eigenvalues are sums of theirs.  The x profile is mirror
    symmetric, so the top x eigenvector is even and the second is odd
    (they alternate, by Sturm oscillation): the x-even block's top is the
    top x eigenvalue plus the top y eigenvalue, the x-odd block's the
    second x eigenvalue plus the same.
    """
    from scipy.linalg import eigh_tridiagonal  # deferred: only eigen-solves need it

    n2_core, n2_sub, n2_sup = n_core**2, n_sub**2, geometry.superstrate_index**2
    fx, fy, f_sub = weights
    k0 = 2.0 * math.pi / lam.um

    def top_eigenvalues(n2, h, wanted):
        inv_h2 = 1.0 / (h * h)
        return eigh_tridiagonal(
            (k0 * k0) * n2 - 2.0 * inv_h2, np.full(n2.size - 1, inv_h2),
            eigvals_only=True, select="i", select_range=(n2.size - wanted, n2.size - 1),
        )

    hx = geometry.window_width_um / geometry.grid_nx
    hy = geometry.window_height_um / geometry.grid_ny
    x_odd, x_even = top_eigenvalues(fx * n2_core + (1.0 - fx) * n2_sup, hx, 2)
    (y_top,) = top_eigenvalues(fy * n2_core + f_sub * n2_sub + (1.0 - fy - f_sub) * n2_sup, hy, 1)
    offset = y_top - (k0 * k0) * n2_core
    return x_even + offset, x_odd + offset


def _stencil(n: np.ndarray, hx: float, hy: float, k0: float, mirror_edge=(0.0, 1.0)):
    """5-point Helmholtz stencil on the cell grid of ``n`` as its diagonals.

    Returns ``(main, ex, ey)``: ``main[i, j]`` is the diagonal entry of
    cell (i, j), ``ex[i, j]`` the coupling of cells (i, j) and (i, j + 1),
    and ``ey`` the coupling of every vertically adjacent pair.  Cells in C
    order are rows of the matrix, so ``ex`` is its first off-diagonal
    (with zeros across row ends) and ``ey`` its ``nx``-th.

    ``mirror_edge = (d, c)`` rewrites the last column, the one next to the
    mirror plane when ``n`` is the left half of a parity block: its
    diagonal gains d/hx^2 and its coupling to the column before it is
    scaled by c.  The default keeps the Dirichlet wall of the full window.
    """
    inv_hx2 = 1.0 / (hx * hx)
    inv_hy2 = 1.0 / (hy * hy)
    shift, scale = mirror_edge
    main = (k0 * k0) * (n * n) - 2.0 * (inv_hx2 + inv_hy2)
    main[:, -1] += shift * inv_hx2
    ex = np.full((n.shape[0], n.shape[1] - 1), inv_hx2)
    ex[:, -1] *= scale
    return main, ex, inv_hy2


def _stencil_matvec(stencil, vec: np.ndarray) -> np.ndarray:
    """The stencil's matrix times ``vec`` (cells in C order)."""
    main, ex, ey = stencil
    psi = vec.reshape(main.shape)
    out = main * psi
    out[:, :-1] += ex * psi[:, 1:]
    out[:, 1:] += ex * psi[:, :-1]
    out[:-1] += ey * psi[1:]
    out[1:] += ey * psi[:-1]
    return out.ravel()


def _helmholtz_matrix(n: np.ndarray, hx: float, hy: float, k0: float, mirror_edge=(0.0, 1.0)):
    """The stencil of :func:`_stencil` as a sparse matrix (for checks)."""
    import scipy.sparse as sparse  # deferred: only checks need it

    main, ex, ey = _stencil(n, hx, hy, k0, mirror_edge)
    nx = n.shape[1]
    ex_flat = np.hstack([ex, np.zeros((ex.shape[0], 1))]).ravel()[:-1]
    ey_flat = np.full(main.size - nx, ey)
    return sparse.diags(
        [ey_flat, ex_flat, main.ravel(), ex_flat, ey_flat], [-nx, -1, 0, 1, nx], format="csr"
    )


def _shifted_band(stencil, sigma: float) -> np.ndarray:
    """``sigma I - B`` for the stencil's matrix B in LAPACK upper band storage.

    Entry (i, j), i <= j, sits at ``band[kd + i - j, j]`` with half-bandwidth
    ``kd`` the column count: row ``kd`` holds the diagonal, row ``kd - 1``
    the x-couplings (0 at each row start) and row 0 the y-couplings.
    """
    main, ex, ey = stencil
    kd = main.shape[1]
    band = np.zeros((kd + 1, main.size), order="F")
    band[kd] = sigma - main.ravel()
    band[kd - 1] = np.hstack([np.zeros((ex.shape[0], 1)), -ex]).ravel()
    band[0, kd:] = -ey
    return band


def _parity_blocks(n: np.ndarray, hx: float, hy: float, k0: float, count: int) -> list:
    """Stencils of the x-even block, then (for ``count >= 2``) the x-odd block.

    Both are built on the left columns of ``n``; see the module docstring
    for the mirror-plane column of each.
    """
    half = n.shape[1] // 2
    if n.shape[1] % 2:
        specs = [(half + 1, (0.0, math.sqrt(2.0))), (half, (0.0, 1.0))]
    else:
        specs = [(half, (1.0, 1.0)), (half, (-1.0, 1.0))]
    return [
        _stencil(n[:, :cols], hx, hy, k0, edge)
        for cols, edge in specs[: 1 if count == 1 else 2]
    ]


def _unfold(vec: np.ndarray, ny: int, nx: int, odd: bool) -> np.ndarray:
    """Full (ny, nx) field of an x-even (``odd`` false) or x-odd block vector.

    This inverts the orthogonal fold, so it preserves the L2 norm.  An
    x-odd field is zero on the center column of an odd column count.
    """
    half = nx // 2
    block = vec.reshape(ny, -1)
    left = block[:, :half] * math.sqrt(0.5)
    right = -left if odd else left
    center = np.zeros((ny, nx - 2 * half)) if odd else block[:, half:]
    return np.hstack([left, center, right[:, ::-1]])


def solve_modes(
    geometry: WaveguideGeometry,
    lam: Wavelength,
    temp_C: float,
    count: int = 1,
) -> list[ModeSolution]:
    """Guided modes sorted by descending effective index.

    Returns up to ``count`` solutions; if fewer guided modes exist a
    :class:`ModeShortfallWarning` is emitted and the shorter list is
    returned.  Raises :class:`DomainError`, before any factorization,
    unless 1 <= ``count`` <= the x-even block's cell count less 2 (the
    most eigenpairs a Lanczos run on it can return).  Raises
    :class:`NumericError` if the eigensolver fails to converge, a block
    shifted at sigma0 = (k0 n_core)^2 is not positive definite, or a
    solution violates the residual contract.

    ``sigma0 I - A`` is a symmetric irreducible nonsingular M-matrix:
    sigma0 exceeds every eigenvalue of A, its off-diagonal entries are
    <= 0 and the grid graph is connected.  So it is positive definite
    and, by Perron-Frobenius, its inverse is entrywise positive; the top
    eigenvalue of A, the fundamental mode, is then simple with a positive
    eigenvector.  The mirror commutes with A, so a simple eigenvector is
    even or odd, and a positive one is even: ``count == 1`` factors and
    iterates on the x-even block alone, and that is exact.  ``count >= 2``
    factors both blocks and runs one Lanczos iteration on each, asking
    the even block for ``count`` eigenpairs and the odd block, which
    cannot hold mode 1, for ``count - 1``, each with a Krylov basis of
    max(6, 2k + 1) vectors.  The merged eigenvalues are sorted, and
    those outside the guided band dropped.  Each block B is A on an
    invariant subspace in an orthonormal basis.

    Each block is shifted to sigma_b = est_b + 0.1 (sigma0 - est_b),
    capped at sigma0, where est_b is the top eigenvalue of the same block
    of the separable operator (see the module docstring): a lower bound
    on B's top eigenvalue, in the Loewner order.  LAPACK's banded
    Cholesky (``pbtrf``) succeeding on ``sigma_b I - B`` certifies that
    sigma_b lies above B's spectrum, so the eigenvalues nearest sigma_b
    are B's top ones.  When it fails, the block is factored again at
    sigma0, where ``sigma0 I - B`` is positive definite (and again an
    M-matrix); ``pbtrf`` failing there too raises :class:`NumericError`.
    The factor costs O(N kd^2) for N cells and half-bandwidth kd =
    ceil(nx / 2); see the module docstring for where a sparse LU wins
    and for the number of inverse applications a solve takes.

    Each field is scaled to unit L2 norm and signed so that its largest
    value in the left half of the window, columns ``[: ceil(nx / 2)]``,
    is positive.  The left half decides because an x-odd mode's two
    mirror lobes tie in magnitude up to round-off.
    """
    import scipy.sparse.linalg as sparse_linalg  # deferred: only eigen-solves need it
    from scipy.linalg.lapack import get_lapack_funcs

    even_size = geometry.grid_ny * ((geometry.grid_nx + 1) // 2)
    if not 1 <= count <= even_size - 2:
        raise DomainError(
            f"count must be >= 1 and <= {even_size - 2}, the x-even block's "
            f"{even_size} cells less 2; got {count}"
        )
    n, x, y, n_core, n_clad, n_sub, weights = index_map(geometry, lam, temp_C)
    if n_core <= n_clad:
        warnings.warn("no index contrast; no guided modes", ModeShortfallWarning)
        return []
    k0 = 2.0 * math.pi / lam.um
    hx = geometry.window_width_um / geometry.grid_nx
    hy = geometry.window_height_um / geometry.grid_ny
    blocks = _parity_blocks(n, hx, hy, k0, count)
    sigma0 = (k0 * n_core) ** 2
    pbtrf, pbtrs = get_lapack_funcs(("pbtrf", "pbtrs"), dtype=np.float64)
    tops = _separable_tops(geometry, lam, n_core, n_sub, weights)
    pairs = []
    # The odd block holds at most count - 1 of the top modes: mode 1 is even.
    for odd, (block, k, top) in enumerate(zip(blocks, (count, count - 1), tops)):
        size = block[0].size
        k = min(k, size - 2)
        # pbtrf succeeding certifies the shift lies above the block's spectrum.
        shift = min(top + _SHIFT_GAP * (sigma0 - top), sigma0)
        for sigma in (shift, sigma0):
            factor, info = pbtrf(_shifted_band(block, sigma), lower=0, overwrite_ab=1)
            if info == 0:
                break
        else:
            raise NumericError(
                f"shifted Helmholtz block is not positive definite (pbtrf info {info})"
            )
        op_inv = sparse_linalg.LinearOperator(
            (size, size), matvec=lambda v: -pbtrs(factor, v, lower=0)[0], dtype=float
        )
        # In shift-invert mode eigsh reads only the shape of its operator.
        a_op = sparse_linalg.LinearOperator(
            (size, size), matvec=partial(_stencil_matvec, block), dtype=float
        )
        v0 = np.random.default_rng(_V0_SEED).standard_normal(size)
        try:
            vals, vecs = sparse_linalg.eigsh(
                a_op, k=k, sigma=sigma, which="LM", v0=v0, OPinv=op_inv,
                ncv=min(max(_NCV_MIN, 2 * k + 1), size - 1),
            )
        except sparse_linalg.ArpackNoConvergence as exc:
            raise NumericError(f"eigensolver did not converge: {exc}") from exc
        pairs += [(val, odd, vec) for val, vec in zip(vals, vecs.T)]
    pairs.sort(key=lambda pair: pair[0], reverse=True)
    beta2_low = (k0 * n_clad) ** 2
    full = _stencil(n, hx, hy, k0)
    left_cols = (n.shape[1] + 1) // 2
    out: list[ModeSolution] = []
    for beta2, odd, vec in pairs:
        if not (beta2_low < beta2 < sigma0):
            continue
        psi = _unfold(vec, *n.shape, odd)
        psi = psi / np.linalg.norm(psi)
        left = psi[:, :left_cols]
        if left.flat[np.argmax(np.abs(left))] < 0:
            psi = -psi
        psi = psi.ravel()
        residual = float(np.linalg.norm(_stencil_matvec(full, psi) - beta2 * psi))
        if residual > _RESIDUAL_LIMIT:
            raise NumericError(f"eigenpair residual {residual} exceeds {_RESIDUAL_LIMIT}")
        out.append(
            ModeSolution(
                n_eff=float(math.sqrt(beta2) / k0),
                mode_index=len(out) + 1,
                field=psi.reshape(n.shape),
                x_um=x,
                y_um=y,
                residual=residual,
            )
        )
        if len(out) == count:
            break
    if len(out) < count:
        warnings.warn(
            f"requested {count} guided modes, found {len(out)}", ModeShortfallWarning
        )
    return out


def slab_kappa(k0: float, n_core: float, n_a: float, n_b: float, thickness: float, m: int) -> float | None:
    """Transverse wavenumber of scalar slab mode ``m`` (0-based), or None.

    Solves kappa*d = m*pi + atan(gamma_a/kappa) + atan(gamma_b/kappa) with
    the root kernel of :func:`qpmcascade.qpm._first_roots` on the two-point
    scan just inside (0, kappa_max).  The left side minus the right is
    strictly increasing in kappa, so that scan brackets the one root when
    the mode is bound; otherwise there is no bracket and None is returned.
    """
    contrast = n_core * n_core - max(n_a, n_b) ** 2
    if contrast <= 0:
        return None
    kappa_max = k0 * math.sqrt(contrast)
    qa = (k0 * k0) * (n_core * n_core - n_a * n_a)
    qb = (k0 * k0) * (n_core * n_core - n_b * n_b)

    def phase_defect(kappa: np.ndarray) -> np.ndarray:
        ga = np.sqrt(np.maximum(qa - kappa * kappa, 0.0))
        gb = np.sqrt(np.maximum(qb - kappa * kappa, 0.0))
        return kappa * thickness - np.arctan2(ga, kappa) - np.arctan2(gb, kappa) - m * math.pi

    kappa = float(_first_roots(phase_defect, kappa_max * np.array([1e-15, 1.0 - 1e-15])))
    return None if math.isnan(kappa) else kappa


def marcatili_index(
    geometry: WaveguideGeometry,
    lam: Wavelength,
    temp_C: float,
    mode_pair: tuple[int, int] = (1, 1),
) -> float:
    """Closed-form separable (Marcatili) effective-index approximation.

    ``mode_pair`` = (p, q) counts from 1 along width and height.  The
    horizontal slab sees superstrate on both sides; the vertical slab sees
    substrate below and superstrate above.  Raises
    :class:`CapabilityError` when either slab problem has no bound
    solution or the combined mode is evanescent.
    """
    p, q = mode_pair
    if p < 1 or q < 1:
        raise DomainError("mode_pair entries must be >= 1")
    n_core = sellmeier_index(geometry.core_material, lam, temp_C)
    n_sub = sellmeier_index(geometry.substrate_material, lam, temp_C)
    n_sup = geometry.superstrate_index
    if n_core <= max(n_sub, n_sup):
        raise CapabilityError("no positive index contrast; Marcatili mode unbound")
    k0 = 2.0 * math.pi / lam.um
    kx = slab_kappa(k0, n_core, n_sup, n_sup, geometry.core_width_um, p - 1)
    ky = slab_kappa(k0, n_core, n_sub, n_sup, geometry.core_height_um, q - 1)
    if kx is None or ky is None:
        raise CapabilityError(f"slab factor of mode pair {mode_pair} has no bound solution")
    beta2 = (k0 * n_core) ** 2 - kx * kx - ky * ky
    if beta2 <= (k0 * max(n_sub, n_sup)) ** 2:
        raise CapabilityError(f"mode pair {mode_pair} is evanescent in this geometry")
    return math.sqrt(beta2) / k0


class ModeSolverIndexProvider:
    """Effective index backed by the finite-difference mode solver.

    The provider reports eigenmode ``default_mode`` of the geometry; this
    is how higher-order-mode conversion branches are wired into the
    phase-matching engine, one provider per mode.  Results are cached per
    (wavelength, temperature); an array query looks up each element and
    masks (NaN) those a scalar query would raise on.
    """

    def __init__(self, geometry: WaveguideGeometry, default_mode: int = 1):
        if default_mode < 1:
            raise DomainError("default_mode must be >= 1")
        self.geometry = geometry
        self.default_mode = default_mode
        self._cache: dict[tuple[float, float], float] = {}

    def effective_index(self, lam, temp_C):
        lam_nm = lam.nm if isinstance(lam, Wavelength) else lam
        if not (is_array(lam_nm) or is_array(temp_C)):
            return self._lookup(float(lam_nm), float(temp_C))
        lam_nm, temp_C = np.broadcast_arrays(np.asarray(lam_nm, float), np.asarray(temp_C, float))
        out = np.empty(lam_nm.shape)
        why = np.full(lam_nm.shape, "", dtype=object)
        for i in np.ndindex(out.shape):
            try:
                out[i] = self._lookup(float(lam_nm[i]), float(temp_C[i]))
            except (DomainError, CapabilityError) as exc:
                why[i] = exc.quantity if isinstance(exc, RangeError) else exc.code
        for reason in dict.fromkeys(why[why != ""]):
            out = screen(out, why != reason, reason, None)
        return out

    def _lookup(self, lam_nm: float, temp_C: float) -> float:
        key = (lam_nm, temp_C)
        if key not in self._cache:
            mode = self.default_mode
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ModeShortfallWarning)
                solutions = solve_modes(self.geometry, Wavelength(lam_nm), temp_C, count=mode)
            if len(solutions) < mode:
                raise CapabilityError(
                    f"geometry guides only {len(solutions)} mode(s) at "
                    f"{lam_nm} nm, {temp_C} C; mode {mode} unavailable"
                )
            self._cache[key] = solutions[mode - 1].n_eff
        return self._cache[key]

    def __repr__(self):
        return f"ModeSolverIndexProvider(default_mode={self.default_mode})"
