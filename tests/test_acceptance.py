"""Acceptance checks: one test per core guarantee, each printing a PASS/FAIL line.

Each test pins the tolerances it enforces and reports the measured worst case,
so a run of this module doubles as a short certification report for the
library: exact recovery, one-shot eigendecomposition validity, route
equivalence, cost model, learner equivalences, solver optimality, sampler
quality, end-to-end classification, and the dissimilarity round trip.
"""

import csv
import math
import time

import numpy as np
from numpy.testing import assert_allclose

from kreinkit import (
    FeatureMap,
    GramSource,
    RegPair,
    SphereQP,
    SymMatrix,
    approximate,
    build_feature_map,
    build_sketch,
    default_sketch_size,
    DissimilarityMatrix,
    double_center_neg,
    fit,
    flip_krr_baseline,
    flip_shsvm_baseline,
    flop_count,
    frobenius_error,
    gram,
    gram_cross,
    krein_krr_full,
    krein_krr_lowrank,
    kmeanspp_landmarks,
    leverage_scores,
    one_shot_eigen,
    parse_kernel_spec,
    sample_leverage,
    sgt_one_shot,
    sh_svm_lowrank,
    spawn_rng,
    sphere_constrained_qp,
    squared_hinge_gradient,
    squared_hinge_objective,
    sym_eigen,
    truncate_factor,
    uniform_landmarks,
    vc_lsm_lowrank,
)
from kreinkit.cli import main as cli_main


def _mixed_spectrum_matrix(rng, n: int, lo: float = 0.3, hi: float = 5.0) -> np.ndarray:
    """Random symmetric matrix with a nonsingular mixed-sign spectrum."""
    mag = rng.uniform(lo, hi, size=n)
    signs = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    signs[0], signs[1] = 1.0, -1.0
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return (q * (mag * signs)) @ q.T


def _instances(seed: int, count: int, nlo: int, nhi: int):
    rng = spawn_rng(seed)
    for _ in range(count):
        n = int(rng.integers(nlo, nhi + 1))
        yield n, _mixed_spectrum_matrix(rng, n), rng


def test_c01_full_landmark_recovery(acceptance_report):
    t0 = time.perf_counter()
    worst = 0.0
    for n, K, _ in _instances(1001, 50, 6, 60):
        f = fit(SymMatrix(K))
        rel = frobenius_error(SymMatrix(K), approximate(f, K)) / np.linalg.norm(K)
        worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-7 and elapsed < 5.0
    acceptance_report("c01", ok,
            f"50 instances, worst rel Frobenius error {worst:.2e} (tol 1e-07), "
            f"{elapsed:.2f}s (limit 5s)")


def test_c02_one_shot_orthonormal_and_reconstructs(acceptance_report):
    pick = spawn_rng(1002)
    worst_ortho, worst_recon = 0.0, 0.0
    for n, K, _ in _instances(1001, 50, 6, 60):
        m = int(pick.integers(5, n + 1))
        idx = pick.choice(n, size=m, replace=False)
        block = SymMatrix(0.5 * (K[np.ix_(idx, idx)] + K[np.ix_(idx, idx)].T))
        K_XZ = K[:, idx]
        f = fit(block)
        eig = one_shot_eigen(f, build_feature_map(f, K_XZ).phi)
        worst_ortho = max(worst_ortho,
                          float(np.abs(eig.U.T @ eig.U - np.eye(eig.rank)).max()))
        target = approximate(f, K_XZ).values
        recon = (eig.U * eig.lam) @ eig.U.T
        worst_recon = max(worst_recon,
                          np.linalg.norm(recon - target) / np.linalg.norm(target))
    ok = worst_ortho <= 1e-8 and worst_recon <= 1e-7
    acceptance_report("c02", ok,
            f"50 instances, worst orthonormality {worst_ortho:.2e} (tol 1e-08), "
            f"worst reconstruction rel {worst_recon:.2e} (tol 1e-07)")


def test_c03_squared_route_equivalence(acceptance_report):
    worst_recon, worst_eig = 0.0, 0.0
    for n, K, rng in _instances(1003, 30, 8, 50):
        for _ in range(50):
            m = int(rng.integers(5, n + 1))
            idx = rng.choice(n, size=m, replace=False)
            block = SymMatrix(0.5 * (K[np.ix_(idx, idx)] + K[np.ix_(idx, idx)].T))
            f = fit(block)
            if f.effective_rank == m:
                break
        K_XZ = K[:, idx]
        a = one_shot_eigen(f, build_feature_map(f, K_XZ).phi)
        b = sgt_one_shot(f, K_XZ)
        assert a.rank == b.rank
        ra = (a.U * a.lam) @ a.U.T
        rb = (b.U * b.lam) @ b.U.T
        scale = max(np.linalg.norm(ra), 1e-30)
        worst_recon = max(worst_recon, np.linalg.norm(ra - rb) / scale)
        lam_scale = max(1.0, float(np.abs(a.lam).max()))
        worst_eig = max(worst_eig,
                        float(np.abs(np.sort(a.lam) - np.sort(b.lam)).max()) / lam_scale)
    ok = worst_recon <= 1e-6 and worst_eig <= 1e-6
    acceptance_report("c03", ok,
            f"30 full-rank instances, reconstruction gap {worst_recon:.2e} and "
            f"eigenvalue multiset gap {worst_eig:.2e} (tol 1e-06 each)")


def test_c04_flop_model_and_wall_clock(acceptance_report):
    rng = spawn_rng(1004)
    for _ in range(30):
        m = int(rng.integers(1, 500))
        n = int(rng.integers(m, 4 * m + 1))
        assert flop_count("one_shot", n, m) == 3 * m * m * n + 3 * m**3
        assert flop_count("sgt", n, m) == 7 * m * m * n + 2 * m**3
    assert flop_count("one_shot", 10**6, 10**3) == 3_003_000_000_000
    assert flop_count("sgt", 10**6, 10**3) == 7_002_000_000_000

    t0 = time.perf_counter()
    n, m = 10_000, 200
    x = spawn_rng(74).normal(size=(n, 6))
    spec = parse_kernel_spec("kernel=gaussdiff sigma1=1.0 sigma2=3.0")
    marks = uniform_landmarks(n, m, spawn_rng(75))
    factor = fit(gram(spec, x[marks.indices]))
    K_XZ = gram_cross(spec, x, x[marks.indices])

    def seconds(route):
        t = time.perf_counter()
        route(factor, K_XZ)
        return time.perf_counter() - t

    # the one_shot route forms its features from the cross block first
    routes = (lambda f, k: one_shot_eigen(f, build_feature_map(f, k).phi), sgt_one_shot)
    for route in routes:
        route(factor, K_XZ)  # warm-up excluded
    # the routes' repetitions alternate, so load on the host falls on both alike
    reps = [[seconds(route) for route in routes] for _ in range(10)]
    med_one, med_sgt = (float(t) for t in np.median(reps, axis=0))
    elapsed = time.perf_counter() - t0
    ok = med_one <= 1.1 * med_sgt and elapsed < 120.0
    acceptance_report("c04", ok,
            f"flop formulas exact; n=10^4 m=200 medians: one_shot {med_one * 1e3:.1f}ms "
            f"vs sgt {med_sgt * 1e3:.1f}ms (limit 1.1x), bench {elapsed:.1f}s (limit 120s)")


def test_c05_split_penalty_ridge_matches_flip_baseline(acceptance_report):
    worst_train, worst_oos = 0.0, 0.0
    for n, K, rng in _instances(1005, 100, 10, 80):
        y = rng.normal(size=n)
        lam = float(10.0 ** rng.uniform(-3, 0))
        eig = sym_eigen(SymMatrix(K))
        full = krein_krr_full(eig, y, RegPair(lam, lam))
        flip = flip_krr_baseline(eig, y, lam)
        train_full = full.predict(K)
        scale = max(1.0, float(np.abs(train_full).max()))
        worst_train = max(worst_train,
                          float(np.abs(train_full - flip.predict_training()).max()) / scale)
        rows = rng.normal(size=(5, n))
        diff = np.abs(full.predict(rows) - flip.predict(rows)).max()
        worst_oos = max(worst_oos, float(diff) / scale)
    ok = worst_train <= 1e-8 and worst_oos <= 1e-8
    acceptance_report("c05", ok,
            f"100 instances, equal-penalty ridge vs flip baseline: train gap "
            f"{worst_train:.2e}, out-of-sample gap {worst_oos:.2e} (tol 1e-08)")


def test_c06_squared_hinge_matches_flip_baseline(acceptance_report):
    rng = spawn_rng(1006)
    spec = parse_kernel_spec("kernel=gaussdiff sigma1=1.0 sigma2=2.0")
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(20, 101))
        m = int(rng.integers(5, 21))
        x = rng.normal(size=(n, 3))
        marks = uniform_landmarks(n, m, rng)
        factor = fit(gram(spec, x[marks.indices]))
        fmap = build_feature_map(factor, gram_cross(spec, x, x[marks.indices]))
        y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        y[0], y[1] = 1.0, -1.0
        lam = float(10.0 ** rng.uniform(-2, 0))
        a = sh_svm_lowrank(fmap, y, RegPair(lam, lam))
        b = flip_shsvm_baseline(fmap, y, lam)
        pa = fmap.phi @ a.z
        pb = fmap.phi @ b.z
        worst = max(worst, float(np.abs(pa - pb).max()) / max(1.0, float(np.abs(pa).max())))
    ok = worst <= 1e-6
    acceptance_report("c06", ok,
            f"50 instances, split-free squared hinge vs flip baseline: "
            f"train prediction gap {worst:.2e} (tol 1e-06)")


def test_c07_sphere_constrained_global_optimality(acceptance_report):
    rng = spawn_rng(1007)
    worst_constraint, worst_excess = 0.0, -np.inf
    hard_count = 0
    for i in range(200):
        n = int(rng.integers(10, 41))
        q = int(rng.integers(2, 9))
        signs = np.where(rng.random(q) < 0.5, 1.0, -1.0)
        reg = RegPair(float(10.0 ** rng.uniform(-3, 0)), float(10.0 ** rng.uniform(-3, 0)))
        lam_vec = np.where(signs > 0, reg.lam_pos, reg.lam_neg)
        hard = i % 20 == 7
        if hard:
            # spectrum-aligned features, targets orthogonal to the softest
            # penalty direction, radius past the pseudo-inverse point
            hard_count += 1
            qmat, _ = np.linalg.qr(rng.normal(size=(n, q)))
            delta = rng.uniform(0.5, 2.0, size=q)
            phi = qmat * delta[None, :]
            w_vals = n * lam_vec / delta**2
            j = int(np.argmin(w_vals))
            c = rng.normal(size=q)
            c[j] = 0.0
            y = qmat @ c
            gaps = w_vals - w_vals[j]
            phi0 = math.sqrt(float(np.sum((c[gaps > 0] / gaps[gaps > 0]) ** 2)))
            r = 2.0 * phi0 if phi0 > 0 else 1.0
        else:
            phi = rng.normal(size=(n, q))
            while np.linalg.svd(phi, compute_uv=False).min() < 1e-6:
                phi = rng.normal(size=(n, q))
            y = np.zeros(n) if i in (50, 150) else rng.normal(size=n)
            r = float(10.0 ** rng.uniform(-1, 1))
        model = vc_lsm_lowrank(FeatureMap(phi=phi, signs=signs, factor=None), y, reg, r)
        fitted = float(np.linalg.norm(phi @ model.z))
        worst_constraint = max(worst_constraint, abs(fitted - r) / r)
        # Monte Carlo over the feasible sphere, drawn through the feature SVD
        A, delta_svd, Vt = np.linalg.svd(phi, full_matrices=False)
        scaled = Vt.T / delta_svd[None, :]
        draws = rng.normal(size=(q, 100_000))
        draws *= r / np.linalg.norm(draws, axis=0, keepdims=True)
        Z = scaled @ draws
        c_vec = phi.T @ y
        obj_mc = float(n) * (lam_vec @ (Z * Z)) - 2.0 * (c_vec @ Z)
        obj_star = float(n) * float(lam_vec @ (model.z * model.z)) - 2.0 * float(c_vec @ model.z)
        worst_excess = max(worst_excess, obj_star - float(obj_mc.min()))
    ok = worst_constraint <= 1e-6 and worst_excess <= 1e-6
    acceptance_report("c07", ok,
            f"200 instances ({hard_count} hard-case), constraint residual "
            f"{worst_constraint:.2e} (tol 1e-06 rel), max objective excess over "
            f"10^5 feasible points {worst_excess:.2e} (tol 1e-06)")


def test_c08_squared_hinge_solver_correctness(acceptance_report):
    rng = spawn_rng(1008)
    worst_grad_rel = 0.0
    for _ in range(25):
        n = int(rng.integers(15, 51))
        q = int(rng.integers(2, 11))
        phi = rng.normal(size=(n, q))
        y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        lam_diag = 10.0 ** rng.uniform(-2, 0, size=q)
        z = 0.3 * rng.normal(size=q)
        while float(np.abs(1.0 - y * (phi @ z)).min()) < 1e-3:
            z = 0.3 * rng.normal(size=q)
        g = squared_hinge_gradient(phi, y, lam_diag, float(n), z)
        h = 1e-6 * max(1.0, float(np.abs(z).max()))
        num = np.empty(q)
        for j in range(q):
            zp, zm = z.copy(), z.copy()
            zp[j] += h
            zm[j] -= h
            num[j] = (squared_hinge_objective(phi, y, lam_diag, float(n), zp)
                      - squared_hinge_objective(phi, y, lam_diag, float(n), zm)) / (2 * h)
        worst_grad_rel = max(worst_grad_rel,
                             float(np.linalg.norm(num - g)) / max(1.0, float(np.linalg.norm(g))))

    worst_gnorm_rel, worst_iters = 0.0, 0
    for _ in range(100):
        n = int(rng.integers(20, 61))
        q = int(rng.integers(2, 11))
        phi = rng.normal(size=(n, q))
        signs = np.where(rng.random(q) < 0.5, 1.0, -1.0)
        y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        y[0], y[1] = 1.0, -1.0
        reg = RegPair(float(10.0 ** rng.uniform(-2, 0)), float(10.0 ** rng.uniform(-2, 0)))
        model = sh_svm_lowrank(FeatureMap(phi=phi, signs=signs, factor=None), y, reg)
        lam_diag = np.where(signs > 0, reg.lam_pos, reg.lam_neg)
        gnorm = float(np.linalg.norm(
            squared_hinge_gradient(phi, y, lam_diag, float(n), model.z)))
        worst_gnorm_rel = max(worst_gnorm_rel, gnorm / max(1.0, float(n)))
        worst_iters = max(worst_iters, int(model.diagnostics["iterations"]))
    ok = worst_grad_rel <= 1e-5 and worst_gnorm_rel <= 1e-7 and worst_iters <= 100
    acceptance_report("c08", ok,
            f"gradient vs central differences {worst_grad_rel:.2e} (tol 1e-05); "
            f"100 solves: grad norm {worst_gnorm_rel:.2e} of max(1,n) (tol 1e-07), "
            f"max {worst_iters} Newton steps (limit 100)")


def test_c09_sampler_quality_decay(acceptance_report):
    t0 = time.perf_counter()
    spec = parse_kernel_spec("kernel=gaussdiff sigma1=1.0 sigma2=3.0")
    n = 500
    ranks = [10, 20, 40, 80, 160]
    samplers = ("uniform", "leverage", "kmeanspp")
    errors = {s: {k: [] for k in ranks} for s in samplers}
    for seed in range(10):
        x = spawn_rng(seed, 0).normal(size=(n, 4)) * 3.0
        source = GramSource.from_data(spec, x)
        full = source.full()
        for ki, k in enumerate(ranks):
            for si, name in enumerate(samplers):
                rng = spawn_rng(seed, 1, si, ki)
                if name == "uniform":
                    marks = uniform_landmarks(n, k, rng)
                else:
                    sketch = build_sketch(source, default_sketch_size(k, n), rng)
                    if name == "leverage":
                        budget = min(n, math.ceil(k * math.log(n)))
                        marks = sample_leverage(leverage_scores(sketch.eig), budget, rng)
                    else:
                        marks = kmeanspp_landmarks(sketch.features, k, rng)
                f = truncate_factor(fit(source.block(marks.indices), landmarks=marks), k)
                err = frobenius_error(full, approximate(f, source.cross_all(marks.indices)))
                errors[name][k].append(err)
    med = {s: {k: float(np.median(v)) for k, v in errors[s].items()} for s in samplers}
    elapsed = time.perf_counter() - t0
    at40 = med["kmeanspp"][40] <= med["uniform"][40] and med["leverage"][40] <= med["uniform"][40]
    mono = all(med[s][ranks[i + 1]] <= med[s][ranks[i]]
               for s in samplers for i in range(len(ranks) - 1))
    ok = at40 and mono and elapsed < 180.0
    acceptance_report("c09", ok,
            f"medians at m=40: kmeanspp {med['kmeanspp'][40]:.1f} and leverage "
            f"{med['leverage'][40]:.1f} vs uniform {med['uniform'][40]:.1f}; "
            f"monotone over ranks {ranks}: {mono}; {elapsed:.1f}s (limit 180s)")


def test_c10_lowrank_matches_full_rank(acceptance_report):
    from scipy.optimize import minimize

    rng = spawn_rng(1010)
    worst = {"lsm": 0.0, "vclsm": 0.0, "shsvm": 0.0}
    for trial in range(20):
        n = int(rng.integers(12, 41))
        K = _mixed_spectrum_matrix(rng, n, lo=0.4, hi=4.0)
        factor = fit(SymMatrix(K))
        assert factor.effective_rank == n
        fmap = build_feature_map(factor, K)
        eig = factor.eig
        if trial == 0:
            reg = RegPair(0.05, 0.05)
        else:
            reg = RegPair(float(10.0 ** rng.uniform(-3, 0)), float(10.0 ** rng.uniform(-3, 0)))
        lam_vec = np.where(factor.s_r > 0, reg.lam_pos, reg.lam_neg)
        y = rng.normal(size=n)

        low = krein_krr_lowrank(fmap, y, reg)
        full = krein_krr_full(eig, y, reg)
        scale = max(1.0, float(np.abs(K @ full.alpha).max()))
        worst["lsm"] = max(worst["lsm"],
                           float(np.abs(fmap.phi @ low.z - K @ full.alpha).max()) / scale)

        r = 0.7 * float(np.linalg.norm(y))
        low_vc = vc_lsm_lowrank(fmap, y, reg, r)
        gamma = sphere_constrained_qp(
            SphereQP(W=np.diag(n * lam_vec / np.abs(factor.d_r)), b=factor.U_r.T @ y, r=r),
            tol=1e-12,
        )
        preds_full = factor.U_r @ gamma
        scale = max(1.0, float(np.abs(preds_full).max()))
        worst["vclsm"] = max(worst["vclsm"],
                             float(np.abs(fmap.phi @ low_vc.z - preds_full).max()) / scale)

        yb = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        yb[0], yb[1] = 1.0, -1.0
        low_sh = sh_svm_lowrank(fmap, yb, reg)
        pen = n * lam_vec / np.abs(factor.d_r)
        U = factor.U_r

        def obj(qv):
            margin = np.maximum(1.0 - yb * (U @ qv), 0.0)
            return float(margin @ margin + pen @ (qv * qv))

        def jac(qv):
            margin = 1.0 - yb * (U @ qv)
            act = np.where(margin > 0.0, margin, 0.0)
            return -2.0 * U.T @ (yb * act) + 2.0 * pen * qv

        res = minimize(obj, np.zeros(n), jac=jac, method="L-BFGS-B",
                       options={"maxiter": 20000, "ftol": 1e-18, "gtol": 1e-12})
        preds_full_sh = U @ res.x
        scale = max(1.0, float(np.abs(preds_full_sh).max()))
        worst["shsvm"] = max(worst["shsvm"],
                             float(np.abs(fmap.phi @ low_sh.z - preds_full_sh).max()) / scale)
    ok = all(v <= 1e-6 for v in worst.values())
    acceptance_report("c10", ok,
            "20 full-landmark instances, train prediction gaps vs full-rank "
            f"learners: lsm {worst['lsm']:.2e}, vclsm {worst['vclsm']:.2e}, "
            f"shsvm {worst['shsvm']:.2e} (tol 1e-06)")


def test_c11_end_to_end_classification(acceptance_report, tmp_path):
    args = ["cv", "--synthetic", "two_gaussians", "--n", "400", "--no-standardize",
            "--learners", "shsvm", "--sampler", "uniform", "--ranks", "50",
            "--lambdas", "0.1", "--folds", "10", "--seed", "0"]
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        rc = cli_main(args + ["--out", str(out)])
        assert rc == 0
        outs.append(out)
    identical = all(
        (outs[0] / f).read_bytes() == (outs[1] / f).read_bytes()
        for f in ("cv_folds.csv", "cv_summary.csv")
    )
    with open(outs[0] / "cv_summary.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    shsvm = [r for r in rows if r["learner"] == "shsvm"]
    sf = [r for r in rows if r["learner"] == "sf-lsm"]
    mean_err = float(shsvm[0]["mean_error"]) if shsvm else 1.0
    ok = bool(shsvm) and bool(sf) and mean_err <= 0.05 and identical
    acceptance_report("c11", ok,
            f"10-fold stratified CV on the separated two-class set: squared-hinge "
            f"error {mean_err:.3f} (limit 0.05), similarity baseline reported "
            f"({'yes' if sf else 'no'}), identical reruns: {identical}")


def test_c12_double_centering_round_trip(acceptance_report):
    rng = spawn_rng(1012)
    worst = 0.0
    for _ in range(6):
        n = int(rng.integers(8, 41))
        p = int(rng.integers(2, 6))
        x = rng.normal(size=(n, p))
        x -= x.mean(axis=0)
        gramm = x @ x.T
        sq = (x * x).sum(axis=1)
        d2 = np.maximum(sq[:, None] + sq[None, :] - 2.0 * gramm, 0.0)
        np.fill_diagonal(d2, 0.0)
        D = DissimilarityMatrix(values=np.sqrt(d2), squared=False)
        recovered = double_center_neg(D).values
        worst = max(worst, float(np.abs(recovered - gramm).max()))
    ok = worst <= 1e-8
    acceptance_report("c12", ok,
            f"6 centered point sets, max entry gap between re-centered "
            f"dissimilarities and the Gram matrix {worst:.2e} (tol 1e-08)")
