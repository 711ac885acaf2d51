"""Scalable structured variational inference for two-level hierarchical models.

Variational families over a global latent and per-branch locals come in
three couplings (dense, block, diagonal) and three kinds (joint, branch,
amortized). Branch families admit minibatch ELBO estimation; amortized
families share one network across branches so the parameter count does not
grow with the data. Everything runs on plain numpy with hand-written
reparameterized gradients.
"""

from .data import BranchBatch, BranchDataset, SplitDataset
from .estimators import (
    ElboEstimate,
    MinibatchSampler,
    amortized_elbo,
    branch_elbo,
    joint_elbo,
    subsampled_branch_elbo,
)
from .families import BranchParams, JointFamily, joint_to_branch
from .gaussmath import GaussianSpec, UnconstrainedChol
from .models import HbdModel, preference_model, synthetic_model, synthetic_oracle
from .rng import RngStream

__version__ = "0.1.0"

__all__ = [
    "BranchBatch",
    "BranchDataset",
    "BranchParams",
    "ElboEstimate",
    "GaussianSpec",
    "HbdModel",
    "JointFamily",
    "MinibatchSampler",
    "RngStream",
    "SplitDataset",
    "UnconstrainedChol",
    "amortized_elbo",
    "branch_elbo",
    "joint_elbo",
    "joint_to_branch",
    "preference_model",
    "subsampled_branch_elbo",
    "synthetic_model",
    "synthetic_oracle",
    "__version__",
]
