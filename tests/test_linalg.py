import numpy as np
import pytest
from numpy.testing import assert_allclose

from kreinkit import (
    DegenerateSpectrum,
    InvalidInput,
    ShapeError,
    SolverError,
    SphereQP,
    SymMatrix,
    factor_sphere_qp,
    indefiniteness,
    solve_sphere_qp,
    sphere_constrained_qp,
    sphere_qp_objective,
    sym_eigen,
    thin_svd,
)
from kreinkit.linalg import tril_inverse


def random_symmetric(rng, n, scale=1.0):
    a = rng.normal(size=(n, n))
    return SymMatrix(scale * (a + a.T) / 2.0)


# ---------------------------------------------------------------------------
# SymMatrix


def test_sym_matrix_symmetrizes_roundoff():
    a = np.array([[1.0, 2.0 + 1e-12], [2.0, 3.0]])
    m = SymMatrix(a)
    assert_allclose(m.values, m.values.T, rtol=0, atol=0)


def test_sym_matrix_rejects_asymmetry():
    with pytest.raises(InvalidInput):
        SymMatrix(np.array([[1.0, 2.0], [5.0, 3.0]]))


def test_sym_matrix_rejects_nonsquare():
    with pytest.raises(ShapeError):
        SymMatrix(np.zeros((2, 3)))


def test_sym_matrix_values_read_only():
    m = SymMatrix(np.eye(3))
    with pytest.raises(ValueError):
        m.values[0, 0] = 5.0


def test_sym_matrix_stores_exactly_symmetric_input_as_it_is():
    # (a + a.T) / 2 overflows to inf here
    a = np.full((2, 2), 1e308)
    assert np.array_equal(SymMatrix(a).values, a)
    rng = np.random.default_rng(5)
    x = rng.normal(size=(30, 30))
    x = x + x.T
    m = SymMatrix(x)
    assert np.array_equal(m.values, (x + x.T) / 2.0)
    assert not np.shares_memory(m.values, x) and x.flags.writeable


def test_sym_matrix_copies_symmetric_input_once(peak_bytes):
    rng = np.random.default_rng(6)
    x = rng.normal(size=(600, 600))
    x = x + x.T
    assert peak_bytes(lambda: SymMatrix(x)) <= 1.1 * x.nbytes


# ---------------------------------------------------------------------------
# signed eigendecomposition


def test_sym_eigen_identity():
    eig = sym_eigen(SymMatrix(np.eye(2)))
    assert_allclose(eig.d, [1.0, 1.0])
    assert_allclose(eig.s, [1.0, 1.0])
    assert_allclose(eig.U @ eig.U.T, np.eye(2), atol=1e-14)


def test_sym_eigen_diagonal_mixed_signs():
    eig = sym_eigen(SymMatrix(np.diag([2.0, -3.0])))
    # ordered by |eigenvalue| descending
    assert_allclose(eig.d, [-3.0, 2.0])
    assert_allclose(eig.s, [-1.0, 1.0])
    assert_allclose(np.abs(eig.U), [[0.0, 1.0], [1.0, 0.0]], atol=1e-14)
    # sign convention: largest-magnitude entry of each eigenvector positive
    assert eig.U[1, 0] > 0 and eig.U[0, 1] > 0


def test_sym_eigen_offdiagonal_frozen():
    eig = sym_eigen(SymMatrix(np.array([[0.0, 1.0], [1.0, 0.0]])))
    r = 1.0 / np.sqrt(2.0)
    assert_allclose(eig.d, [1.0, -1.0], atol=1e-15)
    assert_allclose(eig.U, [[r, r], [r, -r]], atol=1e-14)


def test_sym_eigen_zero_threshold():
    eig = sym_eigen(SymMatrix(np.diag([1.0, 1e-20])))
    assert_allclose(eig.s, [1.0, 0.0])
    assert eig.tau_zero == pytest.approx(1e-12)


def test_sym_eigen_reconstructs():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = rng.integers(2, 12)
        m = random_symmetric(rng, n)
        eig = sym_eigen(m)
        assert_allclose(eig.U @ np.diag(eig.d) @ eig.U.T, m.values, atol=1e-12)
        assert_allclose(eig.U.T @ eig.U, np.eye(n), atol=1e-12)
        order = np.abs(eig.d)
        assert np.all(order[:-1] >= order[1:] - 1e-14)


@pytest.mark.parametrize("n", [1, 63, 64, 65, 200, 801])
def test_tril_inverse_matches_inv(n):
    # the Cholesky factor of a Gram of graded columns: cond(L) up to ~5e5;
    # 64 is the substitution base, and 65 splits into two base blocks
    rng = np.random.default_rng(31)
    a = rng.normal(size=(n + 10, n)) * np.logspace(0, -4, n)
    L = np.linalg.cholesky(a.T @ a)
    X = tril_inverse(L)
    assert np.all(np.triu(X, 1) == 0.0)
    bound = n * np.finfo(float).eps * np.linalg.cond(L)
    assert np.linalg.norm(X @ L - np.eye(n)) <= bound
    ref = np.linalg.inv(L)
    assert np.linalg.norm(X - ref) <= bound * np.linalg.norm(ref)


def test_sym_eigen_deterministic():
    rng = np.random.default_rng(3)
    m = random_symmetric(rng, 7)
    a = sym_eigen(m)
    b = sym_eigen(m)
    assert np.array_equal(a.U, b.U) and np.array_equal(a.d, b.d)


# ---------------------------------------------------------------------------
# flip spectrum


def test_flip_spectrum_diagonal():
    # d * s is the flipped spectrum |d| the flip baselines train on, and
    # U diag(s) U' is the sign operator that maps K to it
    eig = sym_eigen(SymMatrix(np.diag([2.0, -3.0])))
    assert_allclose(eig.d * eig.s, [3.0, 2.0])
    assert_allclose((eig.U * (eig.d * eig.s)) @ eig.U.T, np.diag([2.0, 3.0]), atol=1e-14)
    assert_allclose((eig.U * eig.s) @ eig.U.T, np.diag([1.0, -1.0]), atol=1e-14)


def test_flip_spectrum_is_psd():
    rng = np.random.default_rng(5)
    for _ in range(10):
        eig = sym_eigen(random_symmetric(rng, 8))
        assert np.array_equal(eig.d * eig.s, np.abs(eig.d))
        flipped = (eig.U * (eig.d * eig.s)) @ eig.U.T
        assert np.linalg.eigvalsh(flipped).min() >= -1e-10


def test_flip_projector_involution():
    rng = np.random.default_rng(6)
    eig = sym_eigen(random_symmetric(rng, 6))
    p = (eig.U * eig.s) @ eig.U.T
    assert_allclose(p @ p, np.eye(6), atol=1e-10)


def test_indefiniteness():
    eig = sym_eigen(SymMatrix(np.diag([2.0, -3.0])))
    assert indefiniteness(eig) == pytest.approx(0.6)
    psd = sym_eigen(SymMatrix(np.diag([1.0, 2.0])))
    assert indefiniteness(psd) == 0.0
    with pytest.raises(DegenerateSpectrum):
        indefiniteness(sym_eigen(SymMatrix(np.zeros((2, 2)))))


# ---------------------------------------------------------------------------
# thin SVD


def test_thin_svd_frozen():
    a = np.array([[3.0, 0.0], [0.0, 2.0], [0.0, 0.0]])
    f = thin_svd(a)
    assert_allclose(f.sigma, [3.0, 2.0])
    assert_allclose(f.A @ np.diag(f.sigma) @ f.B.T, a, atol=1e-14)


def test_thin_svd_shapes_and_orthonormality():
    rng = np.random.default_rng(11)
    for _ in range(10):
        n, m = int(rng.integers(3, 20)), int(rng.integers(1, 4))
        a = rng.normal(size=(n, n - m + 1))
        f = thin_svd(a)
        r = a.shape[1]
        assert f.A.shape == (n, r) and f.B.shape == (r, r)
        assert_allclose(f.A.T @ f.A, np.eye(r), atol=1e-12)
        assert_allclose(f.A @ np.diag(f.sigma) @ f.B.T, a, atol=1e-12)
        assert np.all(f.sigma[:-1] >= f.sigma[1:] - 1e-14)


def test_thin_svd_rejects_wide():
    with pytest.raises(ShapeError):
        thin_svd(np.zeros((2, 3)))


# ---------------------------------------------------------------------------
# norm-constrained quadratic minimization


def test_sphere_qp_frozen_easy_case():
    # secular-equation oracle: nu = 0.13224188231190018
    prob = SphereQP(W=SymMatrix(np.diag([1.0, 2.0])), b=np.array([1.0, 1.0]), r=1.0)
    gamma = sphere_constrained_qp(prob)
    assert_allclose(gamma, [0.88320350591352581, 0.46898994354043083], atol=1e-9)
    assert np.linalg.norm(gamma) == pytest.approx(1.0, abs=1e-10)


def test_sphere_qp_frozen_hard_case():
    # gradient component along the bottom eigenvector vanishes, radius exceeds
    # the pseudo-solution norm: minimizer gains a +sqrt(3) component
    prob = SphereQP(W=SymMatrix(np.diag([1.0, 2.0])), b=np.array([0.0, 1.0]), r=2.0)
    gamma = sphere_constrained_qp(prob)
    assert_allclose(gamma, [np.sqrt(3.0), 1.0], atol=1e-9)
    assert sphere_qp_objective(prob, gamma) == pytest.approx(3.0, abs=1e-9)


def test_sphere_qp_zero_gradient():
    prob = SphereQP(W=SymMatrix(np.diag([1.0, 2.0])), b=np.zeros(2), r=3.0)
    gamma = sphere_constrained_qp(prob)
    # pure Rayleigh case: radius times the bottom eigenvector
    assert_allclose(gamma, [3.0, 0.0], atol=1e-12)


def test_sphere_qp_validation():
    with pytest.raises(InvalidInput):
        SphereQP(W=SymMatrix(np.eye(2)), b=np.zeros(2), r=0.0)
    with pytest.raises(ShapeError):
        SphereQP(W=SymMatrix(np.eye(2)), b=np.zeros(3), r=1.0)


def test_sphere_qp_never_beaten_on_the_sphere():
    rng = np.random.default_rng(17)
    for _ in range(60):
        n = int(rng.integers(1, 6))
        w = random_symmetric(rng, n, scale=float(rng.uniform(0.1, 5.0)))
        b = rng.normal(size=n) * rng.choice([0.0, 1.0], p=[0.15, 0.85])
        prob = SphereQP(W=w, b=b, r=float(rng.uniform(0.1, 4.0)))
        gamma = sphere_constrained_qp(prob)
        assert np.linalg.norm(gamma) == pytest.approx(prob.r, rel=1e-9)
        best = sphere_qp_objective(prob, gamma)
        z = rng.normal(size=(2000, n))
        z *= prob.r / np.linalg.norm(z, axis=1, keepdims=True)
        vals = np.einsum("ij,jk,ik->i", z, w.values, z) - 2.0 * z @ b
        assert best <= vals.min() + 1e-7 * max(1.0, abs(best))


def test_sphere_qp_stationarity():
    # (W + nu I) gamma = b for some nu >= -lambda_min
    rng = np.random.default_rng(23)
    for _ in range(25):
        n = int(rng.integers(2, 7))
        w = random_symmetric(rng, n)
        b = rng.normal(size=n)
        prob = SphereQP(W=w, b=b, r=1.5)
        gamma = sphere_constrained_qp(prob)
        resid = w.values @ gamma - b
        # the residual must be parallel to gamma (multiplier direction)
        cross = resid - (resid @ gamma) / (gamma @ gamma) * gamma
        assert np.linalg.norm(cross) <= 1e-7 * max(1.0, np.linalg.norm(b))
        nu = -(resid @ gamma) / (gamma @ gamma)
        lam_min = np.linalg.eigvalsh(w.values).min()
        assert nu >= lam_min * -1.0 - 1e-6 * max(1.0, abs(lam_min))


def test_sphere_qp_one_factor_serves_every_radius():
    rng = np.random.default_rng(29)
    problems = [(SymMatrix(np.diag([1.0, 2.0, 5.0])), np.array([0.0, 1.0, 1.0])),  # hard case
                (random_symmetric(rng, 4), np.zeros(4))]                           # b = 0
    problems += [(random_symmetric(rng, n), rng.normal(size=n)) for n in (1, 3, 6, 6)]
    for w, b in problems:
        shared = factor_sphere_qp(w, b)
        for r in (4.0, 2.0, 1.0, 0.5, 0.1):  # one factor, radii in turn
            gamma = solve_sphere_qp(shared, r)
            assert np.array_equal(gamma, sphere_constrained_qp(SphereQP(W=w, b=b, r=r)))
    with pytest.raises(InvalidInput):
        solve_sphere_qp(shared, 0.0)
    with pytest.raises(ShapeError):
        factor_sphere_qp(np.eye(2), np.zeros(3))


def test_sphere_qp_is_shift_invariant():
    # on the sphere W and W + c I share their minimiser; the secular solve
    # must resolve it when lambda_min is far larger than the bracket ||b|| / r
    rng = np.random.default_rng(43)
    for _ in range(50):
        n = int(rng.integers(2, 9))
        w = random_symmetric(rng, n).values
        b = rng.normal(size=n)
        r = float(10.0 ** rng.uniform(-1, 1))
        plain = solve_sphere_qp(factor_sphere_qp(w, b), r)
        shifted = solve_sphere_qp(factor_sphere_qp(w + 1e5 * np.eye(n), b), r)
        assert np.abs(shifted - plain).max() <= 1e-8 * r


def test_sphere_qp_grid_matches_one_solve_at_a_time():
    rng = np.random.default_rng(47)
    problems = [(SymMatrix(np.diag([1.0, 2.0, 5.0])), np.array([0.0, 1.0, 1.0])),  # hard case
                (random_symmetric(rng, 4), np.zeros(4))]                           # b = 0
    problems += [(random_symmetric(rng, n), rng.normal(size=n)) for n in (1, 3, 8, 8)]
    # radii of either side of the hard case's limit norm 1.03, scales that
    # keep the bottom gap, close it to round-off, or zero it
    scales = np.array([[1.0], [1e-3], [1e-13], [0.0], [7.5]])
    radii = np.array([0.3, 1.0, 2.0, 40.0])
    for w, b in problems:
        f = factor_sphere_qp(w, b)
        grid = solve_sphere_qp(f, radii, scale=scales)
        assert grid.shape == (len(scales), len(radii), len(b))
        for (i, j), (c, r) in zip(np.ndindex(grid.shape[:2]),
                                  np.broadcast(scales[:, 0, None], radii)):
            alone = solve_sphere_qp(f, r, scale=c)
            assert alone.shape == (len(b),)
            assert np.abs(grid[i, j] - alone).max() <= 1e-12 * r
            assert np.linalg.norm(alone) == pytest.approx(r, rel=1e-9)
            # as good as the problem of W scaled by c, factored on its own (the
            # minimiser need not be unique: c = 0 and b = 0 leave any one)
            prob = SphereQP(W=c * w.values, b=b, r=r)
            best = sphere_qp_objective(prob, sphere_constrained_qp(prob))
            assert sphere_qp_objective(prob, alone) <= best + 1e-9 * max(1.0, abs(best))
    with pytest.raises(InvalidInput):
        solve_sphere_qp(f, [1.0, 0.0])
    with pytest.raises(InvalidInput):
        solve_sphere_qp(f, 1.0, scale=[1.0, -1.0])


def test_sphere_qp_grid_problem_fails_alone():
    f = factor_sphere_qp(np.diag([1.0, 2.0, 5.0]), np.array([0.0, 1.0, 1.0]))
    radii = np.array([2.0, 0.5, 3.0])
    # no secular root meets a negative tolerance, so the problem at r = 0.5
    # runs out of iterations, while the hard cases at r = 2 and 3 need none
    with pytest.raises(SolverError):
        solve_sphere_qp(f, 0.5, tol=-1.0)
    grid = solve_sphere_qp(f, radii, tol=-1.0)
    assert np.isnan(grid[1]).all()
    for i in (0, 2):
        assert np.array_equal(grid[i], solve_sphere_qp(f, radii[i]))
    # a scale that overflows the eigenvalues fails its own problem alone
    grid = solve_sphere_qp(f, 0.5, scale=[1.0, 1e308])
    assert np.isnan(grid[1]).all()
    assert np.array_equal(grid[0], solve_sphere_qp(f, 0.5))
    with pytest.raises(SolverError):
        solve_sphere_qp(f, 0.5, scale=1e308)
