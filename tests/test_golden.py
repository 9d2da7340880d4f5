"""Golden digests of one tiny seeded pipeline per learner.

Each case trains a forest, selects its blocks, saves the model, loads it and
packs the training set's codes from the loaded forest.  The sha256 digests of
the model bytes, the packed words and ``chosen`` must equal those stored for
this platform, so a change meant to move code only shows that seeded codes
and model bytes did not move.

Floating-point results depend on numpy's version and on the OpenBLAS kernels
it picked for the CPU, so digests are stored per platform key: the numpy
version and the OpenBLAS core name.  On a key with no digests the test skips
and names the key.
"""

import ctypes
import glob
import hashlib
import os

import numpy as np
import pytest

from leafhash import (
    BlockSet,
    ForestConfig,
    NetConfig,
    OptimizerConfig,
    SplitConfig,
    SyntheticSpec,
    encode_dataset,
    gen_synthetic,
    load_model,
    pack_codes,
    save_model,
    select_blocks,
    train_forest,
)

OPT = OptimizerConfig(max_iters=40, geometry_iters=20)
CONFIGS = {
    "linear": ForestConfig(split=SplitConfig(learner="linear", atoms=4, sparsity=2,
                                             optimizer=OPT)),
    # 4 anchors of 12-d points: stacked groups of 3 trees, and depth 3 below them
    "kernel": ForestConfig(split=SplitConfig(learner="kernel", atoms=4, sparsity=2,
                                             optimizer=OPT), anchor_count=4),
    "neural": ForestConfig(split=SplitConfig(learner="neural", atoms=4, sparsity=2,
                                             net_hidden=(8,), net_output_dim=6,
                                             net=NetConfig(epochs=20))),
}

GOLDEN = {
    "numpy 2.4.6, OpenBLAS SkylakeX": {
        "kernel": {
            "model": "8ce749a1763730d4827643e49f68ba3d2553ec494951f02a1fbe0170aa56345a",
            "codes": "b707ebef884f5c060921c670ae68d775806a694c94850987cf1ed22d5c888df9",
            "chosen": "476dc192ef52c9d303a1ed424b04d889b8a260e5f4af502bb2acfce918af78cd",
        },
        "linear": {
            "model": "c7f06765ad8339bbd1334e0c2a4f5e0578aa28b59490ac38a64865882eee15eb",
            "codes": "ac009de77d6a31ae96052cd81f0ae064d0ba88a3e850513db0f16f9ad38975aa",
            "chosen": "596b9797b8bd0c51cb918894a6bb2d1104cd18ba5859664f85e8f2eb7d2f9655",
        },
        "neural": {
            "model": "24e289faefeacf98a718d2540622804df2214b5f63c8bc39d0459988700543d4",
            "codes": "d726f3951c45f910fa541f877da647b61a76edf0c10208a7840a61f77ec72482",
            "chosen": "9be902a7e5066d6b26b8680aa2be6ddc74fdb27fceeca24b8e1ae2ddffba4331",
        },
    },
}


def openblas_core():
    """The core name numpy's bundled OpenBLAS runs its kernels for, or None."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas64_-*.so")):
        try:
            corename = ctypes.CDLL(path).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        return corename().decode()
    return None


def platform_key():
    return f"numpy {np.__version__}, OpenBLAS {openblas_core()}"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def pipeline_digests(learner, tmp_path):
    ds = gen_synthetic(SyntheticSpec(kind="subspaces", class_count=4, ambient_dim=12,
                                     intrinsic_dim=2, noise=0.05, samples_per_class=30,
                                     seed=11))
    forest = train_forest(ds, 12, depth=3, cfg=CONFIGS[learner], master_seed=23)
    blocks = encode_dataset(forest, ds.features)
    selection = select_blocks(BlockSet.from_blocks(blocks), ds.labels, 4, "semi")
    path = tmp_path / f"{learner}.fhm"
    save_model(forest, selection, path)
    loaded, loaded_selection = load_model(path)
    codes = pack_codes(encode_dataset(loaded, ds.features), loaded_selection.chosen)
    return {
        "model": sha256(path.read_bytes()),
        "codes": sha256(np.ascontiguousarray(codes.words, dtype="<u8").tobytes()),
        "chosen": sha256(np.asarray(selection.chosen, dtype="<i8").tobytes()),
    }


@pytest.mark.parametrize("learner", sorted(CONFIGS))
def test_seeded_pipeline_matches_its_golden_digests(learner, tmp_path):
    key = platform_key()
    if key not in GOLDEN:
        pytest.skip(f"no golden digests for platform key {key!r}")
    assert pipeline_digests(learner, tmp_path) == GOLDEN[key][learner]
