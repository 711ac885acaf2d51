"""Dataset containers, ingestion, preprocessing, and splitting.

A dataset is a ragged collection of branches; branch i holds n_i
(covariate, observation) pairs. Covariates are optional (width-0 rows for
models without them).

On-disk container (documented bit-exactly in the README):
  <path>.meta  text sidecar: "branches", "covariate_dim", "has_covariates"
  <path>.bin   per branch: n_i as little-endian int64, then the covariate
               block (n_i x covariate_dim, row-major float64 LE), then the
               observation block (n_i float64 LE)
"""

from __future__ import annotations

import csv
import struct
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidDataError
from .rng import RngStream


@dataclass
class BranchData:
    """Per-branch covariates x (n, x_dim) and observations y (n,)."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        if self.x.ndim != 2:
            raise InvalidDataError("x must be 2-d (n, covariate_dim)")
        if self.y.shape != (self.x.shape[0],):
            raise InvalidDataError(
                f"x has {self.x.shape[0]} rows but y has shape {self.y.shape}"
            )

    @property
    def n(self) -> int:
        return self.x.shape[0]


@dataclass
class BranchDataset:
    branches: list
    covariate_dim: int
    has_covariates: bool = True

    def __post_init__(self):
        for b in self.branches:
            if b.x.shape[1] != self.covariate_dim:
                raise InvalidDataError(
                    f"branch covariate dim {b.x.shape[1]} != dataset dim {self.covariate_dim}"
                )

    @property
    def n_branches(self) -> int:
        return len(self.branches)

    @property
    def n_obs(self) -> int:
        return sum(b.n for b in self.branches)

    @property
    def counts(self) -> np.ndarray:
        """(N,) observation rows per branch."""
        return self._all.counts

    @cached_property
    def _all(self) -> "BranchBatch":
        # Built on first use; the branches are not expected to change afterwards.
        x = np.zeros((0, self.covariate_dim))
        y = np.zeros(0)
        if self.branches:
            x = np.concatenate([b.x for b in self.branches])
            y = np.concatenate([b.y for b in self.branches])
        return BranchBatch(x, y, np.array([b.n for b in self.branches], dtype=np.int64))

    def batch(self, idx) -> "BranchBatch":
        """The observations of branches ``idx``, concatenated in that order."""
        full = self._all
        idx = np.asarray(idx, dtype=np.int64)
        if idx.size == self.n_branches and np.array_equal(idx, np.arange(idx.size)):
            return full
        counts = full.counts[idx]
        shift = full.starts[idx] - (np.cumsum(counts) - counts)
        rows = np.repeat(shift, counts) + np.arange(int(counts.sum()))
        return BranchBatch(full.x[rows], full.y[rows], counts)


@dataclass
class BranchBatch:
    """Observations of a batch of branches, concatenated in batch order.

    Batch position j owns rows starts[j] : starts[j] + counts[j] of x and y;
    a branch may own no rows. ``xt`` is x transposed and contiguous. Models
    reduce per-row terms to per-branch terms with ``segment_sum``.
    """

    x: np.ndarray        # (n, x_dim)
    y: np.ndarray        # (n,)
    counts: np.ndarray   # (B,) rows per batch position

    def __post_init__(self):
        self.xt = np.ascontiguousarray(self.x.T)
        self.starts = np.cumsum(self.counts) - self.counts
        self.seg = np.repeat(np.arange(self.counts.size), self.counts)  # row -> position
        self._nonempty = self.counts > 0
        self._all_nonempty = bool(self._nonempty.all())

    @property
    def n_branches(self) -> int:
        return self.counts.size

    def segment_sum(self, a: np.ndarray) -> np.ndarray:
        """Per-branch sums along the last axis: a (..., n) -> (..., B).

        Each branch's rows are added in order by ``np.add.reduceat``, so a
        branch's sum does not depend on the rest of the batch. A branch with
        no rows sums to 0 (reduceat itself would return a neighbouring row).
        """
        if self._all_nonempty and self.n_branches:
            return np.add.reduceat(a, self.starts, axis=-1)
        out = np.zeros(a.shape[:-1] + (self.n_branches,))
        if self._nonempty.any():
            out[..., self._nonempty] = np.add.reduceat(a, self.starts[self._nonempty],
                                                       axis=-1)
        return out


@dataclass
class SplitDataset:
    """Train/test parts aligned by branch index; test branches may be empty."""

    train: BranchDataset
    test: BranchDataset

    def __post_init__(self):
        if self.train.n_branches != self.test.n_branches:
            raise InvalidDataError("train and test must have identical branch counts")


# ---------------------------------------------------------------------------
# Ratings ingestion


@dataclass
class RatingsTable:
    """Parsed ratings file: one row per (user, item) rating plus item features."""

    user_ids: list
    item_ids: list
    ratings: np.ndarray
    features: np.ndarray  # (rows, feature_dim)

    @property
    def n_rows(self) -> int:
        return len(self.user_ids)

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]


def load_ratings(path, delimiter: str = ",") -> RatingsTable:
    """Parse a delimited text file with header user-id, item-id, rating, features...

    Malformed rows raise with their 1-based line number.
    """
    users, items, ratings, feats = [], [], [], []
    n_cols = None
    with open(path, newline="") as fh:
        reader = csv.reader(fh, delimiter=delimiter)
        try:
            header = next(reader)
        except StopIteration:
            return RatingsTable([], [], np.zeros(0), np.zeros((0, 0)))
        if len(header) < 3:
            raise InvalidDataError(
                f"{path}: header needs at least user-id, item-id, rating columns"
            )
        n_cols = len(header)
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != n_cols:
                raise InvalidDataError(
                    f"{path}:{lineno}: expected {n_cols} fields, got {len(row)}"
                )
            try:
                rating = float(row[2])
                fvals = [float(v) for v in row[3:]]
            except ValueError as exc:
                raise InvalidDataError(f"{path}:{lineno}: non-numeric field ({exc})") from None
            users.append(row[0])
            items.append(row[1])
            ratings.append(rating)
            feats.append(fvals)
    features = np.asarray(feats, dtype=float)
    if features.size == 0:
        features = features.reshape(len(users), max(n_cols - 3, 0))
    return RatingsTable(users, items, np.asarray(ratings, dtype=float), features)


def preprocess(table: RatingsTable, max_ratings_per_user: int, threshold: float) -> BranchDataset:
    """Group ratings into per-user branches with binarized observations.

    Users with more than ``max_ratings_per_user`` ratings are removed
    entirely; ratings strictly greater than ``threshold`` map to 1, the rest
    to 0. Branch order is sorted by user id so the result does not depend on
    row order in the file.
    """
    by_user: dict = {}
    for idx, uid in enumerate(table.user_ids):
        by_user.setdefault(uid, []).append(idx)
    branches = []
    for uid in sorted(by_user):
        rows = by_user[uid]
        if len(rows) > max_ratings_per_user:
            continue
        x = table.features[rows]
        y = (table.ratings[rows] > threshold).astype(float)
        branches.append(BranchData(x, y))
    return BranchDataset(branches, table.feature_dim, has_covariates=True)


def pca_features(table: RatingsTable, k: int) -> RatingsTable:
    """Project item features onto their top-k principal components.

    Power iteration with deflation on the feature covariance; each
    component's sign is fixed by making its largest-magnitude loading
    positive, so the output is deterministic given the data.
    """
    dim = table.feature_dim
    if k > dim:
        raise InvalidDataError(f"k={k} exceeds feature dim {dim}")
    X = table.features - table.features.mean(axis=0)
    n = max(X.shape[0] - 1, 1)
    C = (X.T @ X) / n
    comps = np.empty((dim, k))
    gen = RngStream(0x9CA, 0).generator()  # fixed internal stream: deterministic
    for j in range(k):
        v = gen.standard_normal(dim)
        v /= np.linalg.norm(v)
        for _ in range(10_000):
            w = C @ v
            norm = np.linalg.norm(w)
            if norm == 0.0:  # exhausted the spectrum (rank < k)
                break
            w /= norm
            if w @ v < 0:
                w = -w
            if np.linalg.norm(w - v) < 1e-10:
                v = w
                break
            v = w
        lam = float(v @ C @ v)
        pivot = np.argmax(np.abs(v))
        if v[pivot] < 0:
            v = -v
        comps[:, j] = v
        C = C - lam * np.outer(v, v)
    return RatingsTable(table.user_ids, table.item_ids, table.ratings, X @ comps)


def split(ds: BranchDataset, test_fraction: float, rng: RngStream) -> SplitDataset:
    """Per-branch uniform split; round-half-up test counts.

    Branches with a single observation keep it in train. Each branch uses its
    own child stream, so the split for branch i does not depend on the other
    branches.
    """
    if not 0.0 <= test_fraction < 1.0:
        raise InvalidDataError("test_fraction must be in [0, 1)")
    train_branches, test_branches = [], []
    empty = np.zeros((0, ds.covariate_dim))
    for i, b in enumerate(ds.branches):
        n_test = int(np.floor(b.n * test_fraction + 0.5))
        if b.n <= 1:
            n_test = 0
        n_test = min(n_test, b.n)
        if n_test == 0:
            train_branches.append(BranchData(b.x.copy(), b.y.copy()))
            test_branches.append(BranchData(empty.copy(), np.zeros(0)))
            continue
        gen = rng.child(i).generator()
        chosen = np.sort(gen.choice(b.n, size=n_test, replace=False))
        mask = np.zeros(b.n, dtype=bool)
        mask[chosen] = True
        train_branches.append(BranchData(b.x[~mask], b.y[~mask]))
        test_branches.append(BranchData(b.x[mask], b.y[mask]))
    return SplitDataset(
        BranchDataset(train_branches, ds.covariate_dim, ds.has_covariates),
        BranchDataset(test_branches, ds.covariate_dim, ds.has_covariates),
    )


# ---------------------------------------------------------------------------
# Binary container


def save_dataset(ds: BranchDataset, path: str) -> None:
    with open(f"{path}.meta", "w") as fh:
        fh.write(f"branches = {ds.n_branches}\n")
        fh.write(f"covariate_dim = {ds.covariate_dim}\n")
        fh.write(f"has_covariates = {int(ds.has_covariates)}\n")
    with open(f"{path}.bin", "wb") as fh:
        for b in ds.branches:
            fh.write(np.int64(b.n).astype("<i8").tobytes())
            fh.write(np.ascontiguousarray(b.x, dtype="<f8").tobytes())
            fh.write(np.ascontiguousarray(b.y, dtype="<f8").tobytes())


def load_dataset(path: str) -> BranchDataset:
    """Read a dataset written by save_dataset.

    The .bin file is read in one pass into one buffer, and each branch's x
    and y are views into it, so loading holds the data once. A short read, a
    negative count or bytes left after the last branch raise InvalidDataError
    naming the file and the byte offset.
    """
    meta: dict = {}
    with open(f"{path}.meta") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            try:
                meta[key.strip()] = int(value.strip())
            except ValueError:
                raise InvalidDataError(
                    f"{path}.meta:{lineno}: expected 'key = integer', got {line!r}") from None
    for key in ("branches", "covariate_dim"):
        if meta.get(key, -1) < 0:
            raise InvalidDataError(f"{path}.meta: needs a non-negative integer {key!r}")
    n_branches = meta["branches"]
    cov_dim = meta["covariate_dim"]
    bin_path = f"{path}.bin"
    with open(bin_path, "rb") as fh:
        buf = np.fromfile(fh, dtype=np.uint8)  # writable, unlike bytes
    end = len(buf)
    branches = []
    off = 0
    for i in range(n_branches):
        if end - off < 8:
            raise InvalidDataError(
                f"{bin_path}: truncated at byte {end}: branch {i}'s count at byte {off} "
                "needs 8 bytes")
        (n,) = struct.unpack_from("<q", buf, off)
        if n < 0:
            raise InvalidDataError(
                f"{bin_path}: negative observation count {n} for branch {i} at byte {off}")
        off += 8
        if end - off < 8 * n * (cov_dim + 1):
            raise InvalidDataError(
                f"{bin_path}: truncated at byte {end}: branch {i}'s {n} observations "
                f"from byte {off} need {8 * n * (cov_dim + 1)} bytes")
        xy = np.frombuffer(buf, "<f8", n * (cov_dim + 1), off)
        off += 8 * n * (cov_dim + 1)
        branches.append(BranchData(xy[:n * cov_dim].reshape(n, cov_dim), xy[n * cov_dim:]))
    if off != end:
        raise InvalidDataError(
            f"{bin_path}: {end - off} trailing bytes after the last branch, at byte {off}")
    return BranchDataset(branches, cov_dim, bool(meta.get("has_covariates", 1)))
