from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from branchvi.data import (
    BranchDataset,
    RatingsTable,
    from_branches,
    load_dataset,
    load_ratings,
    pca_features,
    preprocess,
    save_dataset,
    split,
)
from branchvi.errors import InvalidDataError
from branchvi.rng import RngStream


def _write(tmp_path, text, name="ratings.csv"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestLoadRatings:
    def test_well_formed(self, tmp_path):
        path = _write(tmp_path, "user,item,rating,f1,f2\n"
                                "u1,i1,4.0,0.1,0.2\n"
                                "u2,i2,2.5,0.3,0.4\n"
                                "u1,i3,3.0,0.5,0.6\n")
        table = load_ratings(path)
        assert table.n_rows == 3
        assert table.feature_dim == 2
        assert table.ratings.tolist() == [4.0, 2.5, 3.0]

    def test_missing_feature_names_line(self, tmp_path):
        path = _write(tmp_path, "user,item,rating,f1\nu1,i1,4.0,0.1\nu2,i2,3.0\n")
        with pytest.raises(InvalidDataError, match=":3"):
            load_ratings(path)

    def test_non_numeric_field_names_line(self, tmp_path):
        path = _write(tmp_path, "user,item,rating,f1\nu1,i1,high,0.1\n")
        with pytest.raises(InvalidDataError, match=":2"):
            load_ratings(path)

    def test_empty_file_is_empty_table(self, tmp_path):
        table = load_ratings(_write(tmp_path, ""))
        assert table.n_rows == 0

    def test_header_only(self, tmp_path):
        table = load_ratings(_write(tmp_path, "user,item,rating,f1\n"))
        assert table.n_rows == 0 and table.feature_dim == 1


class TestPreprocess:
    def _table(self, users, ratings):
        n = len(users)
        return RatingsTable(list(users), [f"i{k}" for k in range(n)],
                            np.asarray(ratings, dtype=float),
                            np.arange(2 * n, dtype=float).reshape(n, 2))

    def test_binarization_boundary(self):
        ds = preprocess(self._table(["u"] * 3, [3.0, 3.5, 5.0]),
                        max_ratings_per_user=10, threshold=3.0)
        assert ds.y.tolist() == [0.0, 1.0, 1.0]

    def test_exactly_three_maps_to_zero(self):
        ds = preprocess(self._table(["u"], [3.0]), 10, 3.0)
        assert ds.y.tolist() == [0.0]

    def test_heavy_user_dropped_entirely(self):
        users = ["a"] * 3 + ["b"] * 2
        ds = preprocess(self._table(users, [4, 4, 4, 4, 4]),
                        max_ratings_per_user=2, threshold=3.0)
        assert ds.counts.tolist() == [2]  # only user b survives
        assert np.array_equal(ds.x, np.arange(6.0, 10.0).reshape(2, 2))

    def test_idempotent_on_binary_data(self):
        table = self._table(["a", "a", "b"], [1.0, 0.0, 1.0])
        once = preprocess(table, 10, 0.5)
        again_table = RatingsTable(["a", "a", "b"], ["x", "y", "z"],
                                   once.y, table.features)
        twice = preprocess(again_table, 10, 0.5)
        assert np.array_equal(once.counts, twice.counts)
        assert np.array_equal(once.y, twice.y)

    def test_branch_order_independent_of_row_order(self):
        t1 = self._table(["b", "a"], [4.0, 1.0])
        ds = preprocess(t1, 10, 3.0)
        assert ds.n_branches == 2
        assert ds.y.tolist() == [0.0, 1.0]  # user "a" sorts first
        assert ds.x.tolist() == [[2.0, 3.0], [0.0, 1.0]]

    def test_rows_grouped_by_sorted_user_in_file_order(self):
        users = ["c", "a", "b", "a", "c", "b", "a"]
        ds = preprocess(self._table(users, [4.0, 1.0, 4.0, 4.0, 1.0, 1.0, 4.0]), 10, 3.0)
        assert ds.counts.tolist() == [3, 2, 2]
        assert ds.x[:, 0].tolist() == [2.0, 6.0, 12.0, 4.0, 10.0, 0.0, 8.0]
        assert ds.y.tolist() == [0.0, 1.0, 1.0, 1.0, 0.0, 1.0, 0.0]


class TestPca:
    def test_uncorrelated_data_gives_signed_permutation(self):
        gen = RngStream(400).generator()
        scales = np.array([3.0, 1.5, 0.5])
        X = gen.standard_normal((4000, 3)) * scales
        table = RatingsTable(["u"] * 4000, ["i"] * 4000, np.zeros(4000), X)
        out = pca_features(table, 3)
        Xc = X - X.mean(axis=0)
        # projection must preserve total variance (orthogonal basis)
        assert np.trace(np.cov(out.features.T)) == pytest.approx(
            np.trace(np.cov(Xc.T)), rel=1e-8)
        # components align with axes: each column correlates +-1 with one axis
        C = np.corrcoef(out.features.T, Xc.T)[:3, 3:]
        assert np.allclose(np.sort(np.abs(C).max(axis=1)), 1.0, atol=1e-2)

    def test_rank_one_explained_variance(self):
        gen = RngStream(401).generator()
        direction = np.array([1.0, 2.0, -1.0])
        coef = gen.standard_normal(500)
        X = np.outer(coef, direction)
        table = RatingsTable(["u"] * 500, ["i"] * 500, np.zeros(500), X)
        out = pca_features(table, 1)
        total = np.var(X - X.mean(axis=0), axis=0).sum()
        explained = np.var(out.features[:, 0])
        assert explained / total == pytest.approx(1.0, abs=1e-8)

    def test_projected_covariance_diagonal(self):
        gen = RngStream(402).generator()
        A = gen.standard_normal((5, 5))
        X = gen.standard_normal((2000, 5)) @ A
        table = RatingsTable(["u"] * 2000, ["i"] * 2000, np.zeros(2000), X)
        out = pca_features(table, 4)
        C = np.cov(out.features.T)
        off = np.abs(C - np.diag(np.diag(C))).max()
        assert off / np.trace(C) < 1e-6

    def test_deterministic(self):
        gen = RngStream(403).generator()
        X = gen.standard_normal((100, 4))
        table = RatingsTable(["u"] * 100, ["i"] * 100, np.zeros(100), X)
        a = pca_features(table, 2).features
        b = pca_features(table, 2).features
        assert np.array_equal(a, b)

    def test_k_too_large(self):
        table = RatingsTable(["u"], ["i"], np.zeros(1), np.zeros((1, 2)))
        with pytest.raises(InvalidDataError):
            pca_features(table, 3)


class TestSplit:
    def _dataset(self, sizes, seed=404, dim=2):
        gen = RngStream(seed).generator()
        return from_branches([(gen.standard_normal((n, dim)), gen.standard_normal(n))
                              for n in sizes], dim)

    def test_one_tenth(self):
        ds = self._dataset([10, 10])
        parts = split(ds, 0.1, RngStream(405))
        assert parts.train.counts.tolist() == [9, 9]
        assert parts.test.counts.tolist() == [1, 1]

    def test_zero_fraction(self):
        ds = self._dataset([3, 5])
        parts = split(ds, 0.0, RngStream(406))
        assert parts.test.counts.tolist() == [0, 0]

    def test_single_observation_stays_in_train(self):
        ds = self._dataset([1, 8])
        parts = split(ds, 0.5, RngStream(407))
        assert parts.train.counts.tolist() == [1, 4]
        assert parts.test.counts.tolist() == [0, 4]

    def test_union_is_original_multiset(self):
        ds = self._dataset([7, 4, 9])
        parts = split(ds, 0.3, RngStream(408))
        for i in range(ds.n_branches):
            tr, te, orig = parts.train.batch([i]), parts.test.batch([i]), ds.batch([i])
            rows = np.vstack([np.column_stack([tr.x, tr.y]),
                              np.column_stack([te.x, te.y])])
            orig_rows = np.column_stack([orig.x, orig.y])
            assert np.array_equal(
                rows[np.lexsort(rows.T)], orig_rows[np.lexsort(orig_rows.T)])

    def test_each_branch_draws_from_its_own_child_stream(self):
        # Branch i's test rows are rng.child(i)'s choice among its rows, kept
        # in their original order, whatever the other branches hold.
        ds = self._dataset([7, 1, 9])
        parts = split(ds, 0.3, RngStream(408))
        for i, n_test in ((0, 2), (2, 3)):
            chosen = np.sort(RngStream(408).child(i).generator().choice(
                ds.counts[i], size=n_test, replace=False))
            assert np.array_equal(parts.test.batch([i]).y, ds.batch([i]).y[chosen])
            kept = np.setdiff1d(np.arange(ds.counts[i]), chosen)
            assert np.array_equal(parts.train.batch([i]).x, ds.batch([i]).x[kept])

    def test_round_half_up(self):
        ds = self._dataset([5])
        parts = split(ds, 0.1, RngStream(409))  # 0.5 rounds to 1
        assert parts.test.counts.tolist() == [1]

    def test_invalid_fraction(self):
        with pytest.raises(InvalidDataError):
            split(self._dataset([3]), 1.0, RngStream(410))


class TestContainer:
    @given(sizes=st.lists(st.integers(1, 6), min_size=1, max_size=4),
           dim=st.integers(0, 3))
    @settings(max_examples=20, deadline=None)
    def test_roundtrip_bitwise(self, tmp_path_factory, sizes, dim):
        tmp = tmp_path_factory.mktemp("container")
        gen = RngStream(sum(sizes) * 7 + dim).generator()
        ds = from_branches([(gen.standard_normal((n, dim)), gen.standard_normal(n))
                            for n in sizes], dim)
        save_dataset(ds, str(tmp / "ds"))
        back = load_dataset(str(tmp / "ds"))
        assert back.n_branches == ds.n_branches
        assert back.covariate_dim == dim
        assert np.array_equal(back.counts, ds.counts)
        assert np.array_equal(back.x, ds.x)
        assert np.array_equal(back.y, ds.y)

    def test_empty_test_branch_roundtrip(self, tmp_path):
        ds = from_branches([(np.zeros((0, 2)), np.zeros(0)), (np.ones((2, 2)), np.ones(2))], 2)
        save_dataset(ds, str(tmp_path / "ds"))
        back = load_dataset(str(tmp_path / "ds"))
        assert back.counts.tolist() == [0, 2]
        # a test split can have no rows at all: the file is shorter than one x row
        none = from_branches([(np.zeros((0, 3)), np.zeros(0))] * 2, 3)
        save_dataset(none, str(tmp_path / "none"))
        back = load_dataset(str(tmp_path / "none"))
        assert back.counts.tolist() == [0, 0] and back.x.shape == (0, 3)

    def test_fixture_saves_back_byte_for_byte(self, tmp_path):
        # The on-disk format is pinned by a committed file, not only by round
        # trips. The fixture's .meta also holds the has_covariates line that
        # older writers added; the writer now leaves it out.
        fixture = Path(__file__).parent / "fixtures" / "v1_branch_dense" / "data"
        save_dataset(load_dataset(str(fixture)), str(tmp_path / "ds"))
        assert (tmp_path / "ds.bin").read_bytes() == Path(f"{fixture}.bin").read_bytes()
        old_meta = Path(f"{fixture}.meta").read_text().splitlines(keepends=True)
        assert (tmp_path / "ds.meta").read_text() == "".join(
            line for line in old_meta if not line.startswith("has_covariates"))

    @pytest.mark.parametrize("extra", ["has_covariates = 1\n", "has_covariates = 0\n",
                                       "# a comment\nsome_future_key = 7\n"])
    def test_meta_keys_it_does_not_read_are_ignored(self, tmp_path, extra):
        ds = from_branches([(np.ones((2, 2)), np.arange(2.0)), (np.zeros((1, 2)), np.ones(1))], 2)
        save_dataset(ds, str(tmp_path / "ds"))
        meta = tmp_path / "ds.meta"
        meta.write_text(meta.read_text() + extra)
        back = load_dataset(str(tmp_path / "ds"))
        assert back.counts.tolist() == [2, 1]
        assert np.array_equal(back.x, ds.x) and np.array_equal(back.y, ds.y)

    def test_layout_is_documented_order(self, tmp_path):
        ds = from_branches([(np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([5.0, 6.0])),
                            (np.zeros((0, 2)), np.zeros(0)),
                            (np.array([[7.0, 8.0]]), np.array([9.0]))], 2)
        save_dataset(ds, str(tmp_path / "ds"))
        want = (np.int64(2).astype("<i8").tobytes()
                + np.arange(1.0, 7.0).astype("<f8").tobytes()
                + np.int64(0).astype("<i8").tobytes()
                + np.int64(1).astype("<i8").tobytes()
                + np.arange(7.0, 10.0).astype("<f8").tobytes())
        assert (tmp_path / "ds.bin").read_bytes() == want


class TestDatasetConstructor:
    """The columnar constructor rejects inconsistent columns."""

    @pytest.mark.parametrize("x, y, counts, needle", [
        (np.zeros((3, 2)), np.zeros(3), [4, -1], "non-negative"),
        (np.zeros((3, 2)), np.zeros(3), [1, 1], "counts sum to 2 rows but x has 3"),
        (np.zeros((3, 2)), np.zeros(2), [3], r"x has 3 rows but y has shape \(2,\)"),
        (np.zeros(3), np.zeros(3), [3], "x must be 2-d"),
    ])
    def test_rejects(self, x, y, counts, needle):
        with pytest.raises(InvalidDataError, match=needle):
            BranchDataset(x, y, np.asarray(counts))

    def test_from_branches_rejects_a_mismatched_branch(self):
        with pytest.raises(InvalidDataError, match=r"branch 1: x has shape \(2, 3\)"):
            from_branches([(np.zeros((1, 2)), np.zeros(1)), (np.zeros((2, 3)), np.zeros(2))], 2)
        with pytest.raises(InvalidDataError, match="branch 0: x has 2 rows but y"):
            from_branches([(np.zeros((2, 2)), np.zeros(3))], 2)

    def test_full_batch_is_the_dataset(self):
        ds = from_branches([(np.ones((2, 1)), np.ones(2)), (np.ones((1, 1)), np.ones(1))], 1)
        assert ds.batch([0, 1]) is ds and ds.n_obs == 3


def test_batch_gathers_branch_rows_in_batch_order():
    gen = RngStream(60).generator()
    branches = [(gen.standard_normal((n, 2)), gen.standard_normal(n)) for n in (3, 0, 4, 2)]
    data = from_branches(branches, 2)
    full = data.batch(np.arange(4))
    assert full.counts.tolist() == [3, 0, 4, 2] and full.starts.tolist() == [0, 3, 3, 7]
    sub = data.batch([3, 1, 0])
    assert sub.counts.tolist() == [2, 0, 3]
    assert np.array_equal(sub.x, np.concatenate([branches[3][0], branches[0][0]]))
    assert np.array_equal(sub.y, np.concatenate([branches[3][1], branches[0][1]]))
    assert sub.seg.tolist() == [0, 0, 2, 2, 2]
    sums = sub.segment_sum(sub.y[None])
    assert sums[0, 1] == 0.0
    assert sums[0, 0] == pytest.approx(branches[3][1].sum())
    assert sums[0, 2] == pytest.approx(branches[0][1].sum())
    empty = data.batch([1])
    assert empty.segment_sum(np.zeros((2, 0))).shape == (2, 1)


class TestBranchMoments:
    COUNTS = (3, 0, 4, 2, 1, 0, 6)

    def _data(self, D=2):
        gen = RngStream(61).generator()
        return from_branches([(gen.standard_normal((n, D)), gen.standard_normal(n))
                              for n in self.COUNTS], D)

    @pytest.mark.parametrize("idx", [[0, 2, 3, 6], [2], [1], list(range(7))])
    def test_batch_moments_are_the_dataset_moments_at_idx(self, idx):
        data = self._data()
        for got, full in zip(data.batch(idx).moments, data.moments):
            assert np.array_equal(got, full[idx])

    def test_branch_without_rows_has_zero_moments(self):
        data = self._data(D=3)
        G, b, c = data.moments
        assert G.shape == (7, 3, 3) and b.shape == (7, 3) and c.shape == (7,)
        for j in (1, 5):
            assert not G[j].any() and not b[j].any() and c[j] == 0.0
        G1, b1, c1 = data.batch([5]).moments
        assert not G1.any() and not b1.any() and c1.tolist() == [0.0]

    def test_moments_are_cached_and_read_only(self):
        data = self._data()
        assert data.moments is data.moments
        for a in data.moments:
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 1.0


class TestSegmentSort:
    COUNTS = (3, 0, 1, 5, 2, 1, 0, 4)

    def _data_and_values(self, M=3):
        gen = RngStream(62).generator()
        data = from_branches([(gen.standard_normal((n, 2)), gen.standard_normal(n))
                              for n in self.COUNTS], 2)
        vals = gen.standard_normal((M, data.n_obs))
        vals[:, 5] = vals[:, 4]  # a tie inside branch 3 (rows 4 to 8)
        return data, vals

    def test_each_branch_is_sorted_alone(self):
        data, vals = self._data_and_values()
        before = vals.copy()
        out = data.segment_sort(vals)
        assert np.array_equal(vals, before)  # the input is not written
        for s, c in zip(data.starts, data.counts):
            assert np.array_equal(out[:, s:s + c], np.sort(vals[:, s:s + c], axis=-1))

    def test_empty_and_one_row_branches_are_left_as_they_are(self):
        data, vals = self._data_and_values()
        out = data.segment_sort(vals)
        for j in np.flatnonzero(data.counts == 1):
            s = data.starts[j]
            assert np.array_equal(out[:, s], vals[:, s])
        none = data.batch([1, 6])
        assert none.segment_sort(np.zeros((3, 0))).shape == (3, 0)
        one = data.batch([5, 2])
        assert np.array_equal(one.segment_sort(vals[:, :2]), vals[:, :2])

    def test_a_branch_alone_is_bitwise_the_branch_inside_a_batch(self):
        data, vals = self._data_and_values()
        idx = [3, 1, 7, 0]
        batch = data.batch(idx)
        rows = np.concatenate([np.arange(s, s + c)
                               for s, c in zip(data.starts[idx], data.counts[idx])])
        out = batch.segment_sort(vals[:, rows])
        for pos, j in enumerate(idx):
            alone = data.batch([j])
            s, c = data.starts[j], data.counts[j]
            got = out[:, batch.starts[pos]:batch.starts[pos] + c]
            assert got.tobytes() == alone.segment_sort(vals[:, s:s + c]).tobytes()


class TestContainerValidation:
    """Corrupt .bin files raise InvalidDataError naming the file and byte offset."""

    @pytest.fixture()
    def saved(self, tmp_path):
        # two branches, covariate dim 2: branch 0 is its count at [0, 8), x at
        # [8, 40) and y at [40, 56); branch 1 runs from 56 to 56 + 8 + 3 * 24 = 136
        ds = from_branches([(np.ones((2, 2)), np.ones(2)), (np.zeros((3, 2)), np.zeros(3))], 2)
        path = str(tmp_path / "ds")
        save_dataset(ds, path)
        return path

    def _rewrite(self, path, mutate):
        with open(f"{path}.bin", "rb") as fh:
            raw = bytearray(fh.read())
        with open(f"{path}.bin", "wb") as fh:
            fh.write(mutate(raw))

    def test_intact_file_loads(self, saved):
        assert load_dataset(saved).n_obs == 5

    def test_truncated_at_a_count(self, saved):
        self._rewrite(saved, lambda raw: raw[:60])
        with pytest.raises(InvalidDataError, match=r"ds\.bin: truncated at byte 60: "
                                                   r"branch 1's count at byte 56"):
            load_dataset(saved)

    def test_truncated_mid_array(self, saved):
        self._rewrite(saved, lambda raw: raw[:20])
        with pytest.raises(InvalidDataError, match=r"ds\.bin: truncated at byte 20: "
                                                   r"branch 0's 2 observations from byte 8"):
            load_dataset(saved)

    def test_negative_count(self, saved):
        def negate(raw):
            raw[56:64] = np.int64(-3).astype("<i8").tobytes()
            return raw

        self._rewrite(saved, negate)
        with pytest.raises(InvalidDataError,
                           match=r"ds\.bin: negative observation count -3 for branch 1 "
                                 r"at byte 56"):
            load_dataset(saved)

    def test_trailing_bytes(self, saved):
        self._rewrite(saved, lambda raw: raw + b"\0" * 5)
        with pytest.raises(InvalidDataError,
                           match=r"ds\.bin: 5 trailing bytes after the last branch, at byte 136"):
            load_dataset(saved)

    @pytest.mark.parametrize("meta, needle", [
        ("covariate_dim = 2\n", "'branches'"),
        ("branches = two\ncovariate_dim = 2\n", r"ds\.meta:1: expected 'key = integer'"),
        ("branches = -1\ncovariate_dim = 2\n", "'branches'"),
        ("branches = 1000000000000000\ncovariate_dim = 2\n",
         r"ds\.bin: truncated at byte 136: branch 2's count at byte 136"),
    ])
    def test_bad_meta(self, saved, meta, needle):
        with open(f"{saved}.meta", "w") as fh:
            fh.write(meta)
        with pytest.raises(InvalidDataError, match=needle):
            load_dataset(saved)
