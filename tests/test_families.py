import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import block_diag

from branchvi.amortize import AmortArch, init_amortized
from branchvi.errors import MalformedParamsError
from branchvi.families import (
    BranchParams,
    JointFamily,
    assemble_joint,
    factor_draw_batch,
    family_param_count,
    init_branch,
    init_joint,
    joint_draw_batch,
    joint_factors,
    joint_to_branch,
    local_draw_rows,
    local_grad_rows,
)
from branchvi.gaussmath import (
    LOG_2PI,
    GaussianSpec,
    UnconstrainedChol,
    diag_transform,
    diag_transform_grad,
    mvn_logpdf,
    spec_from_moments,
    tril_map,
    tril_map_backward,
    tril_map_raw,
    tril_unmap,
)
from branchvi.rng import RngStream
from branchvi.training import params_to_tree
from branchvi.trees import tree_flatten, tree_rebind
from helpers import perturb


def gaussian_entropy(spec: GaussianSpec) -> float:
    """Closed-form entropy of N(mean, L L^T): the reference for Monte Carlo
    estimates of E[-log q]."""
    L = tril_map(spec.chol)
    return 0.5 * spec.dim * (1.0 + LOG_2PI) + float(np.sum(np.log(np.diag(L))))


def _random_branch_params(structure, D, dz, N, seed, scale=0.4):
    return perturb(init_branch(structure, D, dz, N), seed, scale)


def _random_joint(structure, D, dz, N, seed, scale=0.4):
    return perturb(init_joint(structure, D, dz, N), seed, scale)


def _joint_draw(fam, eps):
    """One joint draw (M = 1): theta, z (N, dz) and log q."""
    X, logqs, _ = joint_draw_batch(fam, eps[None])
    D = fam.global_dim
    return X[0, :D], X[0, D:].reshape(fam.n_branches, fam.local_dim), logqs[0]


def _local_draw(params: BranchParams, i, theta, eps):
    """Branch i's local draw (M = B = 1): z and its conditional log q."""
    Z, logqs, _ = local_draw_rows(params.W[[i]], params.structure, params.gamma,
                                  np.asarray(theta, dtype=float)[None],
                                  np.asarray(eps, dtype=float)[None, None])
    return Z[0, 0], logqs[0, 0]


def _chol(params: BranchParams, i) -> UnconstrainedChol:
    """Branch i's Cholesky factor (dense or block) as a standalone object."""
    return UnconstrainedChol(params.raw[i], params.local_dim, params.gamma)


def _cond_spec(params: BranchParams, i, theta) -> GaussianSpec:
    """q(z_i | theta) of a dense or block branch family, for mvn_logpdf."""
    mean = params.mu[i] + (params.A[i] @ theta if params.A is not None else 0.0)
    return GaussianSpec(mean, _chol(params, i))


class TestJointSampling:
    def test_diag_at_zero_noise(self):
        fam = init_joint("diag", 2, 1, 3)
        theta, z, logq = _joint_draw(fam, np.zeros(fam.total_dim))
        assert np.allclose(theta, 0) and np.allclose(z, 0)
        assert logq == pytest.approx(-(fam.total_dim / 2) * LOG_2PI)

    def test_block_degenerates_at_zero_branches(self):
        fam = init_joint("block", 2, 1, 0)
        assert [f[0] for f in joint_factors(fam)] == ["theta"]
        theta, z, logq = _joint_draw(fam, RngStream(30).normal(fam.total_dim))
        assert z.shape == (0, 1)
        assert logq == pytest.approx(mvn_logpdf(fam.theta_spec, theta), abs=1e-12)

    def test_dense_logq_matches_mvn_logpdf(self):
        fam = _random_joint("dense", 1, 2, 1, seed=31)
        theta, z, logq = _joint_draw(fam, RngStream(32).normal(fam.total_dim))
        x = np.concatenate([theta, z.ravel()])
        assert logq == pytest.approx(mvn_logpdf(fam.spec, x), abs=1e-10)

    @pytest.mark.parametrize("structure", ["dense", "block", "diag"])
    def test_batched_rows_are_single_draws(self, structure):
        fam = _random_joint(structure, 2, 2, 3, seed=29)
        EPS = RngStream(28).normal((5, fam.total_dim))
        X, logqs, auxs = joint_draw_batch(fam, EPS)
        assert len(auxs) == len(joint_factors(fam))
        for m in range(EPS.shape[0]):
            theta, z, logq = _joint_draw(fam, EPS[m])
            x = np.concatenate([theta, z.ravel()])
            assert np.allclose(X[m], x, rtol=0, atol=1e-12)
            assert logq == pytest.approx(logqs[m], abs=1e-12)

    @pytest.mark.parametrize("structure", ["dense", "block", "diag"])
    def test_entropy_against_monte_carlo(self, structure):
        fam = _random_joint(structure, 2, 2, 2, seed=33)
        gen = RngStream(34).generator()
        neg_logq = -joint_draw_batch(fam, gen.standard_normal((100_000, fam.total_dim)))[1]
        if structure == "dense":
            ent = gaussian_entropy(fam.spec)
        elif structure == "block":
            ent = gaussian_entropy(fam.theta_spec) + gaussian_entropy(fam.locals_spec)
        else:
            ent = (0.5 * fam.total_dim * (1 + LOG_2PI)
                   + float(np.sum(np.log(fam.diag.scales()))))
        se = neg_logq.std() / np.sqrt(neg_logq.size)
        assert abs(neg_logq.mean() - ent) < 3 * se


class TestBranchSampling:
    def test_global_standard_normal(self):
        params = init_branch("dense", 2, 1, 1)
        (theta,), (logq,), _ = factor_draw_batch(params.v, RngStream(35).normal((1, 2)))
        assert logq == pytest.approx(mvn_logpdf(params.v, theta), abs=1e-10)

    def test_global_deterministic(self):
        params = init_branch("dense", 2, 1, 1)
        t1, l1, _ = factor_draw_batch(params.v, RngStream(36).normal((1, 2)))
        t2, l2, _ = factor_draw_batch(params.v, RngStream(36).normal((1, 2)))
        assert np.array_equal(t1, t2) and np.array_equal(l1, l2)

    def test_local_affine_arithmetic(self):
        params = init_branch("dense", 1, 1, 1)
        params.mu[0], params.A[0] = 1.0, 2.0
        z, logq = _local_draw(params, 0, np.array([3.0]), np.zeros(1))
        assert z[0] == pytest.approx(7.0)

    def test_local_reduces_to_standard_normal(self):
        params = init_branch("dense", 3, 2, 1)
        eps = RngStream(37).normal(2)
        for theta_scale in (0.0, 5.0):
            z, logq = _local_draw(params, 0, np.full(3, theta_scale), eps)
            assert np.allclose(z, eps)

    def test_local_conditional_density(self):
        gen = RngStream(38).generator()
        params = init_branch("dense", 3, 2, 1)
        params.mu[0] = gen.standard_normal(2)
        params.A[0] = gen.standard_normal((2, 3))
        params.raw[0] = gen.standard_normal(3)
        theta = gen.standard_normal(3)
        z, logq = _local_draw(params, 0, theta, RngStream(39).normal(2))
        ref = mvn_logpdf(_cond_spec(params, 0, theta), z)
        assert logq == pytest.approx(ref, abs=1e-10)

    @pytest.mark.parametrize("structure", ["block", "diag"])
    def test_no_coupling_structures_ignore_theta(self, structure):
        # Table-style structure rule: without A, locals cannot depend on theta.
        params = _random_branch_params(structure, 3, 2, 1, seed=40)
        eps = RngStream(41).normal(2)
        z1, q1 = _local_draw(params, 0, np.zeros(3), eps)
        z2, q2 = _local_draw(params, 0, np.full(3, 9.0), eps)
        assert np.array_equal(z1, z2) and q1 == q2

    def test_structure_field_validation(self):
        with pytest.raises(MalformedParamsError):
            # a block-width row (mu, raw) has no A columns for a dense family
            BranchParams("dense", 1, 1, init_branch("dense", 1, 1, 0).v, np.zeros((1, 2)))


class TestJointToBranch:
    def test_identity_covariance(self):
        fam = init_joint("dense", 2, 1, 2)
        bp = joint_to_branch(fam)
        assert np.allclose(bp.A, 0.0, atol=1e-12)
        assert np.allclose(tril_map_raw(bp.raw, 1, bp.gamma), np.eye(1), atol=1e-12)

    def test_two_dim_by_hand(self):
        spec = spec_from_moments(np.array([0.0, 0.0]), np.array([[2.0, 1.0], [1.0, 2.0]]))
        bp = joint_to_branch(JointFamily("dense", 1, 1, 1, spec=spec))
        assert bp.A[0, 0, 0] == pytest.approx(0.5, abs=1e-12)
        L = tril_map(_chol(bp, 0))
        assert (L @ L.T)[0, 0] == pytest.approx(1.5, abs=1e-12)

    def test_theta_marginal_preserved(self):
        fam = _random_joint("dense", 2, 1, 3, seed=42)
        bp = joint_to_branch(fam)
        cov = fam.spec.cov()
        assert np.allclose(bp.v.mean, fam.spec.mean[:2], atol=1e-12)
        assert np.allclose(bp.v.cov(), cov[:2, :2], atol=1e-12)

    def _conditionally_independent_joint(self, D, dz, N, seed):
        gen = RngStream(seed).generator()
        P = D + N * dz
        L = np.tril(gen.standard_normal((P, P)) * 0.6)
        L[np.arange(P), np.arange(P)] = np.abs(L[np.arange(P), np.arange(P)]) + 0.5
        for i in range(N):
            for j in range(N):
                if i != j:
                    L[D + i * dz:D + (i + 1) * dz, D + j * dz:D + (j + 1) * dz] = 0.0
        L = np.tril(L)
        return JointFamily("dense", D, dz, N,
                           spec=GaussianSpec(gen.standard_normal(P), tril_unmap(L)))

    def test_pointwise_density_equality_without_coupling(self):
        fam = self._conditionally_independent_joint(1, 2, 3, seed=43)
        bp = joint_to_branch(fam)
        gen = RngStream(44).generator()
        D, dz = 1, 2
        for _ in range(100):
            x = fam.spec.mean + gen.standard_normal(fam.total_dim) * 1.5
            theta = x[:D]
            lq = mvn_logpdf(bp.v, theta)
            for i in range(bp.n_branches):
                z = x[D + i * dz:D + (i + 1) * dz]
                lq += mvn_logpdf(_cond_spec(bp, i, theta), z)
            assert abs(lq - mvn_logpdf(fam.spec, x)) < 1e-9

    @pytest.mark.parametrize("structure", ["block", "diag"])
    def test_regrouping_is_exact(self, structure):
        fam = _random_joint(structure, 2, 2, 2, seed=45)
        bp = joint_to_branch(fam)
        assert bp.A is None
        if structure == "diag":
            # regrouping is a re-indexing of the same per-coordinate factors
            assert np.allclose(bp.v.mean, fam.diag.mean[:2])
            assert np.allclose(bp.v.scale_raw, fam.diag.scale_raw[:2])
            assert np.allclose(bp.mu[1], fam.diag.mean[4:6])
            assert np.allclose(bp.scale_raw[1], fam.diag.scale_raw[4:6])
        else:
            Lz = tril_map(fam.locals_spec.chol)
            cov_z = Lz @ Lz.T
            for i in range(bp.n_branches):
                Lw = tril_map(_chol(bp, i))
                blk = cov_z[i * 2:(i + 1) * 2, i * 2:(i + 1) * 2]
                assert np.allclose(Lw @ Lw.T, blk, atol=1e-10)

    def test_assembled_joint_is_spd(self):
        gen = RngStream(47).generator()
        for k in range(100):
            structure = ("dense", "block", "diag")[k % 3]
            params = _random_branch_params(structure, 2, 2, 3, seed=1000 + k, scale=0.8)
            mean, cov = assemble_joint(params)
            np.linalg.cholesky(cov + 0.0)  # raises if not SPD

    def test_roundtrip_through_assembly(self):
        # branch -> implied joint -> branch recovers the same distribution
        params = _random_branch_params("dense", 1, 1, 2, seed=48)
        mean, cov = assemble_joint(params)
        fam = JointFamily("dense", 1, 1, 2, spec=spec_from_moments(mean, cov))
        back = joint_to_branch(fam)
        gen = RngStream(49).generator()
        for _ in range(20):
            theta = gen.standard_normal(1)
            assert np.allclose(params.mu + params.A @ theta, back.mu + back.A @ theta,
                               atol=1e-9)
        La, Lb = (tril_map_raw(p.raw, 1, p.gamma) for p in (params, back))
        assert np.allclose(La @ La.transpose(0, 2, 1), Lb @ Lb.transpose(0, 2, 1), atol=1e-9)


class TestParamCounts:
    def test_diag_joint(self):
        assert family_param_count("joint", "diag", 3, 2, 2) == 2 * (2 + 3 * 2)

    def test_branch_dense_minimal(self):
        assert family_param_count("branch", "dense", 1, 1, 1) == 5

    def test_counts_grow_linearly_for_branch_constant_for_amortized(self):
        counts = [family_param_count("branch", "dense", N, 2, 2) for N in (1, 2, 5, 9)]
        diffs = np.diff(counts) / np.diff([1, 2, 5, 9])
        assert np.all(diffs == diffs[0]) and diffs[0] > 0
        am = [family_param_count("amortized", "dense", N, 2, 2, net_param_count=777)
              for N in (1, 10, 100)]
        assert len(set(am)) == 1

    def test_joint_dense_matches_tree_size(self):
        for structure in ("dense", "block", "diag"):
            fam = init_joint(structure, 2, 3, 2)
            want = family_param_count("joint", structure, 2, 2, 3)
            assert tree_flatten(params_to_tree(fam)).size == want

    def test_branch_matches_tree_size(self):
        for structure in ("dense", "block", "diag"):
            params = init_branch(structure, 2, 3, 4)
            want = family_param_count("branch", structure, 4, 2, 3)
            assert tree_flatten(params_to_tree(params)).size == want


class TestStackedLocals:
    @pytest.mark.parametrize("structure", ["dense", "block", "diag"])
    def test_tree_size_does_not_grow_with_branches(self, structure):
        assert (len(params_to_tree(init_branch(structure, 2, 2, 1)))
                == len(params_to_tree(init_branch(structure, 2, 2, 5000))))

    @pytest.mark.parametrize("structure", ["dense", "block", "diag"])
    def test_local_views_write_through_to_W(self, structure):
        # Row layout: [mu | A row-major | raw] (dense), [mu | raw], [mu | scale_raw].
        params = init_branch(structure, 2, 3, 4)
        params.mu[2] = 1.0
        parts = [np.full(3, 1.0)]
        if structure == "dense":
            params.A[2] = np.arange(6.0).reshape(3, 2)
            parts.append(np.arange(6.0))
        cov = params.scale_raw if structure == "diag" else params.raw
        cov[2] = 3.0
        parts.append(np.full(cov.shape[1], 3.0))
        assert np.all(params.W[[0, 1, 3]] == 0.0)
        assert np.array_equal(params.W[2], np.concatenate(parts))


def _rebind_copies(params):
    """params rebound to copies of its arrays: (tree, copies, rebound)."""
    tree = params_to_tree(params)
    copies = {k: a.copy() for k, a in tree.items()}
    return tree, copies, tree_rebind(params, tree, copies)


class TestTreeRoundTrip:
    @given(st.sampled_from(["dense", "block", "diag"]), st.integers(0, 3))
    @settings(max_examples=20, deadline=None)
    def test_branch_tree_roundtrip(self, structure, N):
        params = _random_branch_params(structure, 2, 1, N, seed=50 + N)
        tree, copies, back = _rebind_copies(params)
        assert np.array_equal(tree_flatten(params_to_tree(back)), tree_flatten(tree))

    @given(st.sampled_from(["dense", "block", "diag"]))
    @settings(max_examples=10, deadline=None)
    def test_joint_tree_roundtrip(self, structure):
        fam = _random_joint(structure, 2, 1, 2, seed=60)
        tree, copies, back = _rebind_copies(fam)
        assert np.array_equal(tree_flatten(params_to_tree(back)), tree_flatten(tree))

    @pytest.mark.parametrize("kind, structure, want", [
        ("joint", "dense", ["q.mean", "q.raw"]),
        ("joint", "block", ["theta.mean", "theta.raw", "locals.mean", "locals.raw"]),
        ("joint", "diag", ["q.mean", "q.scale_raw"]),
        ("branch", "dense", ["v.mean", "v.raw", "w"]),
        ("branch", "block", ["v.mean", "v.raw", "w"]),
        ("branch", "diag", ["v.mean", "v.scale_raw", "w"]),
        ("amortized", "dense", ["v.mean", "v.raw"]),
        ("amortized", "block", ["v.mean", "v.raw"]),
        ("amortized", "diag", ["v.mean", "v.scale_raw"]),
    ])
    def test_layout_is_pinned(self, kind, structure, want):
        # the keys are the checkpoint's params.* names, in the flat packing order
        if kind == "joint":
            params = init_joint(structure, 2, 2, 3)
        elif kind == "branch":
            params = init_branch(structure, 2, 2, 3)
        else:
            params = init_amortized(structure, 2, 2, 2, RngStream(61))
            want = want + [f"net.{mlp}.{l}.{a}" for mlp in ("feat", "param")
                           for l in range(4) for a in ("W", "b")]
        assert list(params_to_tree(params)) == want

    def test_block_joint_without_branches_has_no_locals(self):
        assert list(params_to_tree(init_joint("block", 2, 2, 0))) == ["theta.mean",
                                                                      "theta.raw"]

    @pytest.mark.parametrize("make", [
        lambda: _random_joint("block", 2, 1, 2, seed=62),
        lambda: _random_branch_params("dense", 2, 2, 3, seed=63),
        lambda: init_amortized("diag", 2, 2, 1, RngStream(64), AmortArch((3, 3), (4, 4))),
    ], ids=["joint", "branch", "amortized"])
    def test_rebind_holds_the_given_arrays_and_leaves_the_caller_alone(self, make):
        params = make()
        before = tree_flatten(params_to_tree(params))
        tree, copies, back = _rebind_copies(params)
        assert back is not params and type(back) is type(params)
        assert all(a is copies[k] for k, a in params_to_tree(back).items())
        assert all(a is tree[k] for k, a in params_to_tree(params).items())
        for a in copies.values():
            a += 1.0
        assert np.array_equal(tree_flatten(params_to_tree(params)), before)
        assert np.array_equal(tree_flatten(params_to_tree(back)), before + 1.0)

    def test_rebind_checks_the_new_arrays(self):
        params = init_branch("dense", 2, 2, 3)
        tree = params_to_tree(params)
        with pytest.raises(MalformedParamsError, match="W has shape"):
            tree_rebind(params, tree, {**tree, "w": np.zeros((3, tree["w"].shape[1] + 1))})

    def test_rebind_rejects_arrays_the_container_does_not_hold(self):
        params = init_branch("dense", 2, 2, 3)
        tree = params_to_tree(params)
        with pytest.raises(ValueError, match="does not hold the arrays \\['w'\\]"):
            tree_rebind(params, {**tree, "w": tree["w"].copy()}, tree)


def _rows_problem(structure, seed, D=3, dz=2, N=5, M=4, gamma=2.5):
    params = init_branch(structure, D, dz, N, gamma)
    params.W[:] = RngStream(seed).generator().standard_normal(params.W.shape) * 0.6
    gen = RngStream(seed + 1).generator()
    batch = np.array([4, 0, 2])
    THETA = gen.standard_normal((M, D))
    EPS = gen.standard_normal((M, batch.size, dz))
    GZ = gen.standard_normal((M, batch.size, dz))
    return params, batch, THETA, EPS, GZ


@pytest.mark.parametrize("structure", ["dense", "block", "diag"])
class TestBatchedLocals:
    def test_draw_matches_local_draw_and_the_density(self, structure):
        params, batch, THETA, EPS, _ = _rows_problem(structure, 50)
        Z, logq, _ = local_draw_rows(params.W[batch], structure, params.gamma, THETA, EPS)
        for m in range(THETA.shape[0]):
            for pos, i in enumerate(batch):
                z, lq = _local_draw(params, i, THETA[m], EPS[m, pos])
                assert np.array_equal(z, Z[m, pos]) and lq == logq[m, pos]
                if structure == "diag":
                    mu = params.mu[i]
                    sd = diag_transform(params.scale_raw[i], params.gamma)
                    ref_z = mu + sd * EPS[m, pos]
                    ref_q = float(np.sum(-0.5 * ((ref_z - mu) / sd) ** 2 - np.log(sd))
                                  - 0.5 * sd.size * LOG_2PI)
                else:
                    spec = _cond_spec(params, i, THETA[m])
                    ref_z = spec.mean + tril_map(spec.chol) @ EPS[m, pos]
                    ref_q = mvn_logpdf(spec, ref_z)
                assert np.allclose(Z[m, pos], ref_z, rtol=0, atol=1e-12)
                assert abs(logq[m, pos] - ref_q) < 1e-10

    def test_grad_rows_match_per_branch_formulas(self, structure):
        params, batch, THETA, EPS, GZ = _rows_problem(structure, 52)
        rows = params.W[batch]
        scale, n_mc = 2.5, THETA.shape[0]
        _, _, aux = local_draw_rows(rows, structure, params.gamma, THETA, EPS)
        G = local_grad_rows(rows, structure, params.gamma, aux, THETA, EPS, GZ, scale, n_mc)
        for pos, i in enumerate(batch):
            E, g = EPS[:, pos], GZ[:, pos]
            parts = [scale * g.sum(axis=0)]
            if structure == "diag":
                sd = diag_transform(params.scale_raw[i], params.gamma)
                parts.append(((scale * g * E).sum(axis=0) + n_mc * scale / sd)
                             * diag_transform_grad(params.scale_raw[i], params.gamma))
            else:
                if structure == "dense":
                    parts.append((scale * (g.T @ THETA)).ravel())
                chol = _chol(params, i)
                L = tril_map(chol)
                GL = scale * np.tril(g.T @ E)
                GL[np.arange(2), np.arange(2)] += n_mc * scale / np.diag(L)
                parts.append(tril_map_backward(chol, GL))
            assert np.allclose(G[pos], np.concatenate(parts), rtol=1e-12, atol=1e-12)

    def test_grad_rows_match_finite_differences(self, structure):
        # local_grad_rows is d/d rows of sum over (copy, branch) of
        # scale * (GZ . z) - scale * log q(z).
        params, batch, THETA, EPS, GZ = _rows_problem(structure, 54)
        rows = params.W[batch].copy()
        scale, n_mc = 1.5, THETA.shape[0]

        def f(r):
            Z, logq, _ = local_draw_rows(r, structure, params.gamma, THETA, EPS)
            return scale * float(np.sum(GZ * Z)) - scale * float(np.sum(logq))

        _, _, aux = local_draw_rows(rows, structure, params.gamma, THETA, EPS)
        G = local_grad_rows(rows, structure, params.gamma, aux, THETA, EPS, GZ, scale, n_mc)
        h = 1e-6
        for idx in np.ndindex(rows.shape):
            rp, rm = rows.copy(), rows.copy()
            rp[idx] += h
            rm[idx] -= h
            assert G[idx] == pytest.approx((f(rp) - f(rm)) / (2 * h), rel=1e-5, abs=1e-7)

    def test_assembled_covariance_honours_gamma(self, structure):
        # A zero-initialized joint has variances psi(0)^2 = gamma = 4; the diag
        # one is also perturbed, as it has no cross-branch coupling to drop.
        fam = init_joint(structure, 1, 1, 3, gamma=4.0)
        if structure == "dense":
            mean, cov = fam.spec.mean, fam.spec.cov()
        elif structure == "block":
            mean = np.concatenate([fam.theta_spec.mean, fam.locals_spec.mean])
            cov = block_diag(fam.theta_spec.cov(), fam.locals_spec.cov())
        else:
            gen = RngStream(56).generator()
            fam.diag.mean[:] = gen.standard_normal(4)
            fam.diag.scale_raw[:] = gen.standard_normal(4)
            mean, cov = fam.diag.mean, np.diag(fam.diag.scales() ** 2)
        mean_b, cov_b = assemble_joint(joint_to_branch(fam))
        assert np.allclose(mean_b, mean, atol=1e-12)
        assert np.allclose(cov_b, cov, rtol=1e-12, atol=1e-12)
