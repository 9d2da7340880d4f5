"""Similarity-preserving binary hashing with shallow forests.

Pipeline: train a forest of shallow trees whose split nodes are low-rank-loss
weak learners, encode samples as one-hot leaf codes per tree, greedily select
the most informative code blocks, pack them into compact binary hashes, and
serve Hamming-space retrieval.
"""

from .errors import DataFormatError, InvalidInputError, NumericError
from .lowrank import (
    KernelConfig,
    OptimizerConfig,
    Transform,
    fit_transform,
    kernel_featurize,
    lowrank_loss,
    median_bandwidth,
    nuclear_norm,
    nuclear_subgradient,
    principal_angles,
)
from .dictionaries import (
    Dictionary,
    SplitConfig,
    SplitNode,
    ksvd_fit,
    omp,
    residual_projector,
    train_split_node,
)
from .network import (
    DenseLayer,
    DenseNet,
    NetConfig,
    build_net,
    net_fit,
    net_forward,
)
from .forest import (
    Forest,
    ForestConfig,
    HashTree,
    LabeledDataset,
    encode_dataset,
    partition_classes,
    train_forest,
    train_tree,
)
from .aggregation import (
    BlockSet,
    SelectionResult,
    block_covariance,
    conditional_variance,
    estimate_lambda,
    greedy_semisupervised,
    select_blocks,
    unsupervised_gain,
)
from .retrieval import (
    HammingIndex,
    HashCode,
    PackedCodes,
    mean_average_precision,
    pack_codes,
    precision_recall_at_radius,
    radius_query,
    rank_query,
)
from .data import (
    SyntheticSpec,
    gen_synthetic,
    load_codes,
    load_idx,
    load_labels,
    load_matrix,
    load_model,
    save_codes,
    save_labels,
    save_matrix,
    save_model,
)

__version__ = "0.1.0"
