import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from branchvi.errors import MalformedParamsError
from branchvi.families import (
    BranchParams,
    DiagGaussian,
    JointFamily,
    LocalParams,
    assemble_joint,
    branch_from_tree,
    branch_sample_global,
    branch_sample_local,
    branch_to_tree,
    factor_draw,
    family_param_count,
    init_branch,
    init_joint,
    joint_from_tree,
    joint_sample_logq,
    joint_to_branch,
    joint_to_tree,
    local_draw,
)
from branchvi.gaussmath import (
    LOG_2PI,
    GaussianSpec,
    UnconstrainedChol,
    gaussian_entropy,
    mvn_logpdf,
    spec_from_moments,
    tril_map,
    tril_size,
    tril_unmap,
)
from branchvi.rng import RngStream
from branchvi.trees import tree_flatten, tree_unflatten


def _random_branch_params(structure, D, dz, N, seed, scale=0.4):
    params = init_branch(structure, D, dz, N)
    tree = branch_to_tree(params)
    flat = tree_flatten(tree)
    flat = flat + RngStream(seed).generator().standard_normal(flat.size) * scale
    return branch_from_tree(params, tree_unflatten(tree, flat))


def _random_joint(structure, D, dz, N, seed, scale=0.4):
    fam = init_joint(structure, D, dz, N)
    tree = joint_to_tree(fam)
    flat = tree_flatten(tree)
    flat = flat + RngStream(seed).generator().standard_normal(flat.size) * scale
    return joint_from_tree(fam, tree_unflatten(tree, flat))


class TestJointSampling:
    def test_diag_at_zero_noise(self):
        fam = init_joint("diag", 2, 1, 3)
        from branchvi.families import joint_draw

        draw = joint_draw(fam, np.zeros(fam.total_dim))
        assert np.allclose(draw.theta, 0) and np.allclose(draw.z, 0)
        assert draw.logq == pytest.approx(-(fam.total_dim / 2) * LOG_2PI)

    def test_block_degenerates_at_zero_branches(self):
        fam = init_joint("block", 2, 1, 0)
        theta, z, logq = joint_sample_logq(fam, RngStream(30))
        assert z.shape == (0, 1)
        assert logq == pytest.approx(mvn_logpdf(fam.theta_spec, theta), abs=1e-12)

    def test_dense_logq_matches_mvn_logpdf(self):
        fam = _random_joint("dense", 1, 2, 1, seed=31)
        theta, z, logq = joint_sample_logq(fam, RngStream(32))
        x = np.concatenate([theta, z.ravel()])
        assert logq == pytest.approx(mvn_logpdf(fam.spec, x), abs=1e-10)

    @pytest.mark.parametrize("structure", ["dense", "block", "diag"])
    def test_entropy_against_monte_carlo(self, structure):
        fam = _random_joint(structure, 2, 2, 2, seed=33)
        gen = RngStream(34).generator()
        from branchvi.families import joint_draw

        neg_logq = np.empty(100_000)
        for k in range(neg_logq.size):
            neg_logq[k] = -joint_draw(fam, gen.standard_normal(fam.total_dim)).logq
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
        theta, logq = branch_sample_global(params, RngStream(35))
        assert logq == pytest.approx(mvn_logpdf(params.v, theta), abs=1e-10)

    def test_global_deterministic(self):
        params = init_branch("dense", 2, 1, 1)
        t1, l1 = branch_sample_global(params, RngStream(36))
        t2, l2 = branch_sample_global(params, RngStream(36))
        assert np.array_equal(t1, t2) and l1 == l2

    def test_local_affine_arithmetic(self):
        w = LocalParams(np.array([1.0]), A=np.array([[2.0]]),
                        chol=UnconstrainedChol(np.zeros(1), 1))
        z, logq, _ = local_draw(w, np.array([3.0]), np.zeros(1))
        assert z[0] == pytest.approx(7.0)

    def test_local_reduces_to_standard_normal(self):
        w = LocalParams(np.zeros(2), A=np.zeros((2, 3)),
                        chol=UnconstrainedChol(np.zeros(3), 2))
        eps = RngStream(37).normal(2)
        for theta_scale in (0.0, 5.0):
            z, logq, _ = local_draw(w, np.full(3, theta_scale), eps)
            assert np.allclose(z, eps)

    def test_local_conditional_density(self):
        gen = RngStream(38).generator()
        w = LocalParams(gen.standard_normal(2), A=gen.standard_normal((2, 3)),
                        chol=UnconstrainedChol(gen.standard_normal(3), 2))
        theta = gen.standard_normal(3)
        z, logq = branch_sample_local(w, theta, RngStream(39))
        ref = mvn_logpdf(GaussianSpec(w.mu + w.A @ theta, w.chol), z)
        assert logq == pytest.approx(ref, abs=1e-10)

    @pytest.mark.parametrize("structure", ["block", "diag"])
    def test_no_coupling_structures_ignore_theta(self, structure):
        # Table-style structure rule: without A, locals cannot depend on theta.
        params = _random_branch_params(structure, 3, 2, 1, seed=40)
        w = params.local(0)
        eps = RngStream(41).normal(2)
        z1, q1, _ = local_draw(w, np.zeros(3), eps)
        z2, q2, _ = local_draw(w, np.full(3, 9.0), eps)
        assert np.array_equal(z1, z2) and q1 == q2

    def test_structure_field_validation(self):
        with pytest.raises(MalformedParamsError):
            # a block-width row (mu, raw) has no A columns for a dense family
            BranchParams("dense", 1, 1, init_branch("dense", 1, 1, 0).v, np.zeros((1, 2)))
        with pytest.raises(MalformedParamsError):
            LocalParams(np.zeros(1))


class TestJointToBranch:
    def test_identity_covariance(self):
        fam = init_joint("dense", 2, 1, 2)
        bp = joint_to_branch(fam)
        for i in range(bp.n_branches):
            w = bp.local(i)
            assert np.allclose(w.A, 0.0, atol=1e-12)
            assert np.allclose(tril_map(w.chol), np.eye(1), atol=1e-12)

    def test_two_dim_by_hand(self):
        spec = spec_from_moments(np.array([0.0, 0.0]), np.array([[2.0, 1.0], [1.0, 2.0]]))
        bp = joint_to_branch(JointFamily("dense", 1, 1, 1, spec=spec))
        assert bp.local(0).A[0, 0] == pytest.approx(0.5, abs=1e-12)
        L = tril_map(bp.local(0).chol)
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
            lq = mvn_logpdf(GaussianSpec(bp.v.mean, bp.v.chol), theta)
            for i in range(bp.n_branches):
                w = bp.local(i)
                z = x[D + i * dz:D + (i + 1) * dz]
                lq += mvn_logpdf(GaussianSpec(w.mu + w.A @ theta, w.chol), z)
            assert abs(lq - mvn_logpdf(fam.spec, x)) < 1e-9

    @pytest.mark.parametrize("structure", ["block", "diag"])
    def test_regrouping_is_exact(self, structure):
        fam = _random_joint(structure, 2, 2, 2, seed=45)
        bp = joint_to_branch(fam)
        assert bp.A is None
        assert all(bp.local(i).A is None for i in range(bp.n_branches))
        if structure == "diag":
            # regrouping is a re-indexing of the same per-coordinate factors
            assert np.allclose(bp.v.mean, fam.diag.mean[:2])
            assert np.allclose(bp.v.scale_raw, fam.diag.scale_raw[:2])
            assert np.allclose(bp.local(1).mu, fam.diag.mean[4:6])
            assert np.allclose(bp.local(1).scale_raw, fam.diag.scale_raw[4:6])
        else:
            Lz = tril_map(fam.locals_spec.chol)
            cov_z = Lz @ Lz.T
            for i in range(bp.n_branches):
                Lw = tril_map(bp.local(i).chol)
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
            for i in range(params.n_branches):
                w_a, w_b = params.local(i), back.local(i)
                m_a = w_a.mu + w_a.A @ theta
                m_b = w_b.mu + w_b.A @ theta
                assert np.allclose(m_a, m_b, atol=1e-9)
                La, Lb = tril_map(w_a.chol), tril_map(w_b.chol)
                assert np.allclose(La @ La.T, Lb @ Lb.T, atol=1e-9)


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
            assert tree_flatten(joint_to_tree(fam)).size == want

    def test_branch_matches_tree_size(self):
        for structure in ("dense", "block", "diag"):
            params = init_branch(structure, 2, 3, 4)
            want = family_param_count("branch", structure, 4, 2, 3)
            assert tree_flatten(branch_to_tree(params)).size == want


class TestStackedLocals:
    @pytest.mark.parametrize("structure", ["dense", "block", "diag"])
    def test_tree_size_does_not_grow_with_branches(self, structure):
        assert (len(branch_to_tree(init_branch(structure, 2, 2, 1)))
                == len(branch_to_tree(init_branch(structure, 2, 2, 5000))))

    @pytest.mark.parametrize("structure", ["dense", "block", "diag"])
    def test_local_views_write_through_to_W(self, structure):
        params = init_branch(structure, 2, 3, 4)
        w = params.local(2)
        w.mu[:] = 1.0
        if w.A is not None:
            w.A[:] = 2.0
        (w.chol.raw if w.chol is not None else w.scale_raw)[:] = 3.0
        assert np.all(params.W[[0, 1, 3]] == 0.0)
        assert np.array_equal(params.mu[2], np.full(3, 1.0))
        if structure == "dense":
            assert np.array_equal(params.A[2], np.full((3, 2), 2.0))
        cov = params.scale_raw if structure == "diag" else params.raw
        assert np.all(cov[2] == 3.0)


class TestTreeRoundTrip:
    @given(st.sampled_from(["dense", "block", "diag"]), st.integers(0, 3))
    @settings(max_examples=20, deadline=None)
    def test_branch_tree_roundtrip(self, structure, N):
        params = _random_branch_params(structure, 2, 1, N, seed=50 + N)
        tree = branch_to_tree(params)
        flat = tree_flatten(tree)
        back = branch_from_tree(params, tree_unflatten(tree, flat))
        assert np.array_equal(tree_flatten(branch_to_tree(back)), flat)

    @given(st.sampled_from(["dense", "block", "diag"]))
    @settings(max_examples=10, deadline=None)
    def test_joint_tree_roundtrip(self, structure):
        fam = _random_joint(structure, 2, 1, 2, seed=60)
        tree = joint_to_tree(fam)
        flat = tree_flatten(tree)
        back = joint_from_tree(fam, tree_unflatten(tree, flat))
        assert np.array_equal(tree_flatten(joint_to_tree(back)), flat)
