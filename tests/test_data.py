import copy
import gzip
import json
import math
import pickle
import struct
import sys
import tempfile
import threading
import tracemalloc
import zlib
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from leafhash import encode as encode_module
from leafhash import (
    BlockSet,
    DataFormatError,
    Forest,
    ForestConfig,
    HashTree,
    InvalidInputError,
    KernelConfig,
    NetConfig,
    PackedCodes,
    SelectionResult,
    SplitConfig,
    SplitNode,
    SyntheticSpec,
    encode_dataset,
    gen_synthetic,
    load_codes,
    load_idx,
    load_labels,
    load_matrix,
    load_model,
    pack_codes,
    save_codes,
    save_labels,
    save_matrix,
    save_model,
    select_blocks,
    train_forest,
)

IMAGES_MAGIC = 0x00000803
LABELS_MAGIC = 0x00000801


class TestLoadIdx:
    def test_images_scaled_to_unit(self, tmp_path):
        payload = struct.pack(">IIII", IMAGES_MAGIC, 2, 2, 2)
        payload += bytes([0, 0, 0, 0, 255, 255, 255, 255])
        path = tmp_path / "img.idx"
        path.write_bytes(payload)
        m = load_idx(path)
        assert m.shape == (4, 2)
        np.testing.assert_allclose(m[:, 0], 0.0)
        np.testing.assert_allclose(m[:, 1], 1.0)

    def test_labels(self, tmp_path):
        path = tmp_path / "lab.idx"
        path.write_bytes(struct.pack(">II", LABELS_MAGIC, 3) + bytes([3, 1, 4]))
        np.testing.assert_array_equal(load_idx(path), [3, 1, 4])

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.idx"
        path.write_bytes(struct.pack(">IIII", 0x123, 1, 1, 1))
        with pytest.raises(DataFormatError):
            load_idx(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "short.idx"
        path.write_bytes(struct.pack(">IIII", IMAGES_MAGIC, 2, 2, 2) + bytes([7]))
        with pytest.raises(DataFormatError) as err:
            load_idx(path)
        assert err.value.offset is not None

    def test_gzip_transparent(self, tmp_path):
        payload = struct.pack(">II", LABELS_MAGIC, 2) + bytes([5, 6])
        path = tmp_path / "lab.idx.gz"
        path.write_bytes(gzip.compress(payload))
        np.testing.assert_array_equal(load_idx(path), [5, 6])


class TestLoadMatrix:
    def test_csv_rows_are_feature_dims(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,2\n3,4\n")
        np.testing.assert_array_equal(load_matrix(path, "csv"),
                                      [[1.0, 2.0], [3.0, 4.0]])

    def test_csv_optional_header(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("a,b\n1,2\n3,4\n")
        np.testing.assert_array_equal(load_matrix(path, "csv"),
                                      [[1.0, 2.0], [3.0, 4.0]])

    def test_ragged_csv_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,2\n3\n")
        with pytest.raises(DataFormatError):
            load_matrix(path, "csv")

    def test_non_numeric_cell_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,2\n3,oops\n")
        with pytest.raises(DataFormatError):
            load_matrix(path, "csv")

    def test_raw_f64_round_trip(self, tmp_path, rng):
        m = rng.normal(size=(3, 7))
        path = tmp_path / "m.raw"
        save_matrix(m, path, "raw-f64")
        np.testing.assert_array_equal(load_matrix(path, "raw-f64"), m)

    def test_csv_round_trip(self, tmp_path, rng):
        m = rng.normal(size=(4, 5))
        path = tmp_path / "m.csv"
        save_matrix(m, path, "csv")
        np.testing.assert_array_equal(load_matrix(path, "csv"), m)

    def test_raw_is_not_a_format_name(self, tmp_path, rng):
        # only raw-f64, the name the CLI and the README give
        path = tmp_path / "m.bin"
        with pytest.raises(InvalidInputError, match="^unknown matrix format 'raw'$"):
            save_matrix(rng.normal(size=(2, 3)), path, "raw")
        assert not path.exists()
        save_matrix(rng.normal(size=(2, 3)), path, "raw-f64")
        with pytest.raises(InvalidInputError, match="^unknown matrix format 'raw'$"):
            load_matrix(path, "raw")

    def test_raw_size_mismatch(self, tmp_path):
        path = tmp_path / "m.raw"
        path.write_bytes(struct.pack("<QQ", 2, 2) + b"\x00" * 8)
        with pytest.raises(DataFormatError):
            load_matrix(path, "raw-f64")

    def test_labels_text_round_trip(self, tmp_path):
        path = tmp_path / "lab.txt"
        save_labels([4, 0, 9], path)
        np.testing.assert_array_equal(load_labels(path), [4, 0, 9])

    def test_labels_from_idx(self, tmp_path):
        path = tmp_path / "lab.idx"
        path.write_bytes(struct.pack(">II", LABELS_MAGIC, 2) + bytes([7, 2]))
        np.testing.assert_array_equal(load_labels(path), [7, 2])

    def test_empty_csv_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(DataFormatError):
            load_matrix(path, "csv")

    def test_header_only_csv_rejected(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("a,b\n")
        with pytest.raises(DataFormatError):
            load_matrix(path, "csv")


def _valid_input_files():
    """One small valid file per loader and format: (bytes, loader) pairs."""
    m = np.random.default_rng(0).normal(size=(3, 4))
    csv = "".join(",".join(repr(float(v)) for v in row) + "\n" for row in m)
    raw = struct.pack("<QQ", *m.shape) + m.astype("<f8").tobytes()
    images = struct.pack(">IIII", IMAGES_MAGIC, 3, 2, 2) + bytes(range(0, 240, 20))
    labels = struct.pack(">II", LABELS_MAGIC, 5) + bytes([3, 1, 4, 1, 5])
    return [
        (csv.encode(), lambda p: load_matrix(p, "csv")),
        (raw, lambda p: load_matrix(p, "raw-f64")),
        (images, load_idx),
        (gzip.compress(images, mtime=0), load_idx),
        (labels, load_idx),
        (labels, load_labels),
        (gzip.compress(labels, mtime=0), load_labels),
        (b"3\n1\n4\n1\n5\n", load_labels),
    ]


class TestMutatedInputFiles:
    @given(data=st.data())
    @settings(max_examples=400, deadline=None)
    def test_loads_or_raises_format_error(self, data):
        raw, loader = data.draw(st.sampled_from(_valid_input_files()))
        changes = data.draw(st.lists(
            st.tuples(st.integers(0, len(raw) - 1), st.integers(0, 255)),
            min_size=1, max_size=3))
        mutated = bytearray(raw)
        for pos, value in changes:
            mutated[pos] = value
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "input"
            path.write_bytes(bytes(mutated))
            try:
                loader(path)
            except DataFormatError:
                pass

    def test_undecodable_csv_byte_is_format_error_at_offset(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_bytes(b"1,2\n3,\xff\n")
        with pytest.raises(DataFormatError, match="UTF-8") as err:
            load_matrix(path, "csv")
        assert err.value.offset == 6


class TestGenSynthetic:
    def test_subspace_rank(self):
        ds = gen_synthetic(SyntheticSpec(kind="subspaces", intrinsic_dim=3,
                                         noise=0.0, seed=1))
        for c in ds.classes:
            rank = np.linalg.matrix_rank(ds.features[:, ds.labels == c])
            assert rank == 3

    def test_circles_exact_radii(self):
        ds = gen_synthetic(SyntheticSpec(kind="circles2d", ambient_dim=2,
                                         noise=0.0, seed=2))
        norms = np.linalg.norm(ds.features[:, ds.labels == 0], axis=0)
        np.testing.assert_allclose(norms, 1.0)
        norms = np.linalg.norm(ds.features[:, ds.labels == 1], axis=0)
        np.testing.assert_allclose(norms, 2.0)

    def test_lines2d_two_rays_per_class(self):
        ds = gen_synthetic(SyntheticSpec(kind="lines2d", ambient_dim=2,
                                         noise=0.0, samples_per_class=200, seed=3))
        angles = np.degrees(np.arctan2(ds.features[1], ds.features[0]))
        class0 = np.unique(np.round(angles[ds.labels == 0]).astype(int))
        assert set(class0) <= {0, 30}
        assert len(class0) == 2

    def test_deterministic(self):
        spec = SyntheticSpec(kind="subspaces", noise=0.05, seed=11)
        a, b = gen_synthetic(spec), gen_synthetic(spec)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_invalid_specs(self):
        with pytest.raises(InvalidInputError):
            SyntheticSpec(kind="subspaces", intrinsic_dim=11, ambient_dim=10)
        with pytest.raises(InvalidInputError):
            SyntheticSpec(kind="circles2d", ambient_dim=3)
        with pytest.raises(InvalidInputError):
            SyntheticSpec(kind="nonsense")


def trained_artifacts(learner="linear", seed=1):
    """A small trained forest, its blocks and selection.  ``kernel`` trees
    have 20 anchors in 8 dimensions and encode one at a time;
    ``kernel-stacked`` is a kernel forest of 3-anchor trees, which encode in
    stacked groups; ``kernel-one-anchor`` keeps each of those trees' first
    anchor, so its trees encode one at a time; ``kernel-two-view`` adds a
    second, 5-d view of the same samples, with a second anchor pool."""
    ds = gen_synthetic(SyntheticSpec(kind="subspaces", class_count=3, ambient_dim=8,
                                     intrinsic_dim=2, noise=0.02,
                                     samples_per_class=30, seed=2))
    stacked = learner in ("kernel-stacked", "kernel-one-anchor")
    cfg = ForestConfig(
        split=SplitConfig(learner="kernel" if learner.startswith("kernel") else learner,
                          atoms=3, sparsity=2, net_hidden=(8,), net_output_dim=6,
                          net=NetConfig(epochs=30)),
        anchor_count=3 if stacked else 20,
    )
    if learner == "kernel-two-view":
        second = gen_synthetic(SyntheticSpec(kind="subspaces", class_count=3, ambient_dim=5,
                                             intrinsic_dim=2, noise=0.02,
                                             samples_per_class=30, seed=3))
        forest = train_forest([ds, second], 3, 2, cfg, master_seed=seed)
    else:
        forest = train_forest(ds, 3, 2, cfg, master_seed=seed)
    if learner == "kernel-one-anchor":
        # trained one-anchor trees have degenerate roots; these do not.  The
        # trees change in place, so a new forest is made of them.
        for tree in forest.trees:
            (kc,) = tree.kernels
            tree.kernels = (replace(kc, anchors=kc.anchors[:, :1].copy()),)
            root = tree.nodes[0][0]
            root.proj_pos, root.proj_neg = root.proj_pos[:, :1].copy(), root.proj_neg[:, :1].copy()
        forest = Forest(trees=forest.trees, master_seed=forest.master_seed, depth=forest.depth,
                        feature_dims=forest.feature_dims, config=forest.config)
    blocks = encode_dataset(forest, ds.features)
    selection = select_blocks(BlockSet.from_blocks(blocks), None, 1, "unsup")
    return ds, forest, blocks, selection


class TestModelContainer:
    @pytest.mark.parametrize("learner", ["linear", "kernel", "kernel-stacked",
                                         "kernel-one-anchor", "kernel-two-view", "neural"])
    def test_round_trip_bit_exact_encoding(self, tmp_path, learner):
        ds, forest, blocks, selection = trained_artifacts(learner)
        path = tmp_path / "model.fhsh"
        save_model(forest, selection, path)
        loaded, loaded_sel = load_model(path)
        blocks2 = encode_dataset(loaded, ds.features)
        assert all(np.array_equal(a, b) for a, b in zip(blocks, blocks2))
        assert loaded_sel.chosen == selection.chosen
        assert loaded.master_seed == forest.master_seed
        assert loaded.config == forest.config

    @pytest.mark.parametrize("learner", ["linear", "neural", "kernel", "kernel-stacked",
                                         "kernel-two-view"])
    def test_loaded_model_saves_to_the_same_bytes(self, tmp_path, learner):
        _, forest, _, _ = trained_artifacts(learner)
        if learner.startswith("kernel"):
            groups = forest._groups[0]
            assert any(g.take is not None for g in groups) == (learner == "kernel-stacked")
        raw = saved_model_bytes(learner)
        path = tmp_path / "again.fhsh"
        save_model(*load_model_bytes(raw), path)
        assert path.read_bytes() == raw

    @pytest.mark.parametrize("learner", ["kernel", "kernel-stacked", "kernel-one-anchor",
                                         "kernel-two-view"])
    def test_loaded_pool_norms_are_the_trees_norms(self, learner):
        forest, _ = load_model_bytes(saved_model_bytes(learner))
        for m in range(len(forest.feature_dims)):
            pool = forest.pools[m]
            alone = {g.start for g in forest._groups[m] if g.take is None}
            for t, (tree, idx) in enumerate(zip(forest.trees, pool.indices)):
                if tree.kernels[m].n_anchors == 1:
                    # numpy sums a one-anchor norm pairwise, not as the pool's
                    assert t in alone
                    continue
                # bit for bit: an RBF map takes them from the pool or the tree
                assert pool.sq_norms[idx].tobytes() == tree.kernels[m].anchor_sq_norms.tobytes()

    @pytest.mark.parametrize("learner", ["linear", "neural", "kernel-stacked"])
    def test_loaded_arrays_are_writable_and_aligned(self, learner):
        # copies, not views of the file's bytes
        forest, _ = load_model_bytes(saved_model_bytes(learner))
        arrays = [kc.anchors for tree in forest.trees for kc in tree.kernels if kc is not None]
        for node in (n for tree in forest.trees for per_mod in tree.nodes for n in per_mod):
            if not node.degenerate:
                arrays += [node.proj_pos, node.proj_neg]
                for layer in node.net.layers if node.net is not None else []:
                    arrays += [layer.weight, layer.bias]
        assert len(arrays) > len(forest.trees)
        assert all(a.flags.writeable and a.flags.aligned for a in arrays)

    def test_truncated_file_fails_checksum(self, tmp_path):
        _, forest, _, selection = trained_artifacts()
        path = tmp_path / "model.fhsh"
        save_model(forest, selection, path)
        path.write_bytes(path.read_bytes()[:-12])
        with pytest.raises(DataFormatError, match="checksum"):
            load_model(path)

    def test_future_version_rejected(self, tmp_path):
        _, forest, _, selection = trained_artifacts()
        path = tmp_path / "model.fhsh"
        save_model(forest, selection, path)
        raw = path.read_bytes()
        # FHSH04 kept each modality's pool in its first kernel record and
        # every node's class partition; FHSH03 had a learner byte in its
        # header and kept the optimizer's constants in its config; FHSH02
        # stored every tree's anchors in full
        for magic in (b"FHSH06", b"FHSH04", b"FHSH03", b"FHSH02"):
            path.write_bytes(magic + raw[6:])
            with pytest.raises(DataFormatError, match="version"):
                load_model(path)

    def test_gzipped_model_loads(self, tmp_path):
        ds, forest, blocks, selection = trained_artifacts()
        path = tmp_path / "model.fhsh"
        save_model(forest, selection, path)
        zpath = tmp_path / "model.fhsh.gz"
        zpath.write_bytes(gzip.compress(path.read_bytes()))
        loaded, _ = load_model(zpath)
        blocks2 = encode_dataset(loaded, ds.features)
        assert all(np.array_equal(a, b) for a, b in zip(blocks, blocks2))


_SAVED_MODELS = {}


def saved_model_bytes(learner="linear"):
    """Bytes of one saved model per learner, trained once for the whole module."""
    if learner not in _SAVED_MODELS:
        _, forest, _, selection = trained_artifacts(learner)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "model.fhsh"
            save_model(forest, selection, path)
            _SAVED_MODELS[learner] = path.read_bytes()
    return _SAVED_MODELS[learner]


def config_span(raw):
    """(offset, length) of the config string record in a saved model.

    Layout after the 6-byte magic: u8 modalities, u32 trees, u8 depth,
    i64 seed, one u32 per modality, then the string: a u32 length and that
    many bytes.
    """
    offset = 6 + 14 + 4 * raw[6]
    (length,) = struct.unpack_from("<I", raw, offset)
    return offset, length


def selection_span(raw):
    """(offset of the selection's u32 block count, the count) in a saved
    model: after the config string come the flag, the mode string and the
    lambda flag and value.  The count's blocks and then their gains follow."""
    offset, length = config_span(raw)
    selection = offset + 4 + length
    (mode_length,) = struct.unpack_from("<I", raw, selection + 1)
    count_at = selection + 1 + 4 + mode_length + 1 + 8
    return count_at, struct.unpack_from("<I", raw, count_at)[0]


def pool_records(raw):
    """([(offset, (d, P) or None)] per modality, offset of the first tree
    record) in a saved model.

    The pool records follow the selection: per modality a u8 flag, then,
    when it is set, the pool as a 2-D array: u8 ndim, u64 d, u64 P and the
    d x P float64 entries.
    """
    count_at, count = selection_span(raw)
    at, pools = count_at + 4 + 12 * count, []
    for _ in range(raw[6]):
        if raw[at] == 0:
            pools.append((at, None))
            at += 1
            continue
        assert raw[at + 1] == 2
        d, size = struct.unpack_from("<QQ", raw, at + 2)
        pools.append((at, (d, size)))
        at += 2 + 16 + 8 * d * size
    return pools, at


def first_kernel_record(raw):
    """(offset of the first tree's first kernel record, offset of its u32
    index count) in a saved RBF kernel model.

    Before the record: the pool records and the tree seed.  The record is
    the u8 kernel code and sigma, then the indices.
    """
    record = pool_records(raw)[1] + 8
    assert raw[record] == 1
    return record, record + 1 + 8


def first_node(raw):
    """Offset of the first tree's first node in a saved model: after its
    kernel records, one per modality.  The node is a u8 degenerate flag,
    then, for a node that is not, its net and projectors."""
    at = pool_records(raw)[1] + 8
    for _ in range(raw[6]):
        if raw[at] == 0:
            at += 1
            continue
        constants = 8 * raw[at]  # sigma, or polynomial p and q
        (n,) = struct.unpack_from("<I", raw, at + 1 + constants)
        at += 1 + constants + 4 + 4 * n
    return at


def truncated_payload(raw, end):
    """``raw`` cut at file offset ``end``, with the trailing CRC recomputed."""
    return raw[:end] + struct.pack("<I", zlib.crc32(raw[6:end]))


def with_payload_bytes(raw, changes):
    """``raw`` with bytes replaced and the trailing CRC recomputed."""
    body = bytearray(raw[:-4])
    for pos, value in changes:
        body[pos] = value
    payload = bytes(body[6:])
    return bytes(body) + struct.pack("<I", zlib.crc32(payload))


def load_model_bytes(raw):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.fhsh"
        path.write_bytes(raw)
        return load_model(path)


class TestConfigStringDecoding:
    def test_bad_utf8_is_format_error_at_string(self):
        raw = saved_model_bytes()
        offset, _ = config_span(raw)
        with pytest.raises(DataFormatError, match="UTF-8") as info:
            load_model_bytes(with_payload_bytes(raw, [(offset + 4, 0xFF)]))
        assert info.value.offset == offset

    def test_missing_key_is_format_error(self):
        raw = saved_model_bytes()
        offset, length = config_span(raw)
        key = raw.index(b'"split"', offset + 4, offset + 4 + length)
        with pytest.raises(DataFormatError, match="config") as info:
            load_model_bytes(with_payload_bytes(raw, [(key + 1, ord("x"))]))
        assert info.value.offset == offset

    @pytest.mark.parametrize("section, key", [(None, "bootstrap_fraction"),
                                              ("optimizer", "sv_threshold"),
                                              ("net", "bias_init")])
    def test_removed_key_is_format_error_at_config(self, section, key):
        # keys of settings that are now constants; an older config held them
        raw = saved_model_bytes()
        offset, length = config_span(raw)
        config = json.loads(bytes(raw[offset + 4:offset + 4 + length]))
        (config if section is None else config["split"][section])[key] = 0.5
        text = json.dumps(config, sort_keys=True).encode()
        body = raw[:offset] + struct.pack("<I", len(text)) + text + raw[offset + 4 + length:-4]
        with pytest.raises(DataFormatError, match=key) as info:
            load_model_bytes(body + struct.pack("<I", zlib.crc32(body[6:])))
        assert info.value.offset == offset

    @pytest.mark.parametrize("learner, stated", [("linear", "kernel"), ("linear", "neural"),
                                                 ("kernel", "linear"), ("kernel", "neural"),
                                                 ("neural", "linear"), ("neural", "kernel")])
    def test_trees_of_another_learner_are_format_error_at_config(self, learner, stated):
        # the learners' names are six letters each, so one replaces another in place
        raw = saved_model_bytes(learner)
        offset, length = config_span(raw)
        key = f'"learner": "{learner}"'.encode()
        at = raw.index(key, offset + 4, offset + 4 + length) + len(key) - 7
        changes = list(enumerate(stated.encode(), start=at))
        with pytest.raises(DataFormatError, match=f"does not fit the {stated} learner") as info:
            load_model_bytes(with_payload_bytes(raw, changes))
        assert info.value.offset == offset

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_mutated_config_loads_or_raises_format_error(self, data):
        raw = saved_model_bytes()
        offset, length = config_span(raw)
        changes = data.draw(st.lists(
            st.tuples(st.integers(offset + 4, offset + 3 + length), st.integers(0, 255)),
            min_size=1, max_size=3))
        try:
            load_model_bytes(with_payload_bytes(raw, changes))
        except DataFormatError as exc:
            assert exc.offset == offset


class TestModelDecoding:
    def test_depth_zero_is_format_error_at_depth_byte(self):
        raw = saved_model_bytes()
        with pytest.raises(DataFormatError, match="depth") as info:
            load_model_bytes(with_payload_bytes(raw, [(11, 0)]))
        assert info.value.offset == 11

    def test_huge_array_shape_is_format_error(self):
        raw = saved_model_bytes("kernel")
        # the first array is the anchor pool, after its record's flag
        anchors = pool_records(raw)[0][0][0] + 1
        assert raw[anchors] == 2
        # 2**61 rows: an element count that overflows int64
        changes = list(enumerate(struct.pack("<Q", 2**61), start=anchors + 1))
        with pytest.raises(DataFormatError, match="shape") as info:
            load_model_bytes(with_payload_bytes(raw, changes))
        assert info.value.offset == anchors

    def test_selected_block_past_the_forest_is_format_error(self):
        raw = saved_model_bytes()
        forest, selection = load_model_bytes(raw)
        offset, length = config_span(raw)
        selection_at = offset + 4 + length
        (mode_length,) = struct.unpack_from("<I", raw, selection_at + 1)
        # flag, mode string, lambda flag and value, u32 count, then the blocks
        chosen = selection_at + 1 + 4 + mode_length + 1 + 8 + 4
        assert struct.unpack_from("<I", raw, chosen)[0] == selection.chosen[0]
        changes = list(enumerate(struct.pack("<I", forest.n_trees), start=chosen))
        with pytest.raises(DataFormatError, match="selection") as info:
            load_model_bytes(with_payload_bytes(raw, changes))
        assert info.value.offset == chosen

    def test_nan_projector_is_format_error_at_array(self):
        raw = saved_model_bytes("kernel")
        forest, _ = load_model_bytes(raw)
        node = forest.trees[0].nodes[0][0]
        assert not node.degenerate
        at = raw.index(np.ascontiguousarray(node.proj_pos, "<f8").tobytes())
        changes = list(enumerate(struct.pack("<d", np.nan), start=at))
        with pytest.raises(DataFormatError, match="non-finite") as info:
            load_model_bytes(with_payload_bytes(raw, changes))
        # the record starts with its u8 ndim and two u64 dimensions
        assert info.value.offset == at - 1 - 2 * 8

    def test_nan_sigma_is_format_error_at_kernel(self):
        raw = saved_model_bytes("kernel")
        forest, _ = load_model_bytes(raw)
        # the first tree's kernel record: its u8 kind code, then sigma
        at = raw.index(struct.pack("<d", forest.trees[0].kernels[0].sigma))
        assert raw[at - 1] == 1
        changes = list(enumerate(struct.pack("<d", np.nan), start=at))
        with pytest.raises(DataFormatError, match="kernel") as info:
            load_model_bytes(with_payload_bytes(raw, changes))
        assert info.value.offset == at - 1

    @pytest.mark.parametrize("sigma", [1e-200, 1e200])
    def test_sigma_whose_square_underflows_or_overflows_is_format_error_at_kernel(
            self, sigma):
        raw = saved_model_bytes("kernel")
        forest, _ = load_model_bytes(raw)
        at = raw.index(struct.pack("<d", forest.trees[0].kernels[0].sigma))
        changes = list(enumerate(struct.pack("<d", sigma), start=at))
        with pytest.raises(DataFormatError, match="2 sigma\\^2") as info:
            load_model_bytes(with_payload_bytes(raw, changes))
        assert info.value.offset == at - 1

    def test_anchor_index_past_the_pool_is_format_error_at_kernel(self):
        raw = saved_model_bytes("kernel")
        record, count_at = first_kernel_record(raw)
        (_, (_, pool_size)), = pool_records(raw)[0]
        changes = list(enumerate(struct.pack("<I", pool_size), start=count_at + 4))
        with pytest.raises(DataFormatError, match="past a pool") as info:
            load_model_bytes(with_payload_bytes(raw, changes))
        assert info.value.offset == record

    def test_index_count_past_the_payload_is_format_error_at_kernel(self):
        raw = saved_model_bytes("kernel")
        record, count_at = first_kernel_record(raw)
        changes = list(enumerate(struct.pack("<I", len(raw)), start=count_at))
        with pytest.raises(DataFormatError, match="indices run past") as info:
            load_model_bytes(with_payload_bytes(raw, changes))
        assert info.value.offset == record

    def test_pool_of_another_dimension_is_format_error_at_its_record(self):
        raw = saved_model_bytes("kernel")
        (pool_at, (d, _)), = pool_records(raw)[0]
        # the header's feature dimension: after the u8 modality count, u32
        # tree count, u8 depth and i64 master seed
        assert struct.unpack_from("<I", raw, 20)[0] == d
        changes = list(enumerate(struct.pack("<I", d + 1), start=20))
        with pytest.raises(DataFormatError, match="pool") as info:
            load_model_bytes(with_payload_bytes(raw, changes))
        assert info.value.offset == pool_at

    def test_second_modality_pool_of_another_dimension_is_format_error_at_its_record(self):
        raw = saved_model_bytes("kernel-two-view")
        (_, first), (pool_at, (d, _)) = pool_records(raw)[0]
        assert first[0] == 8 and d == 5
        assert struct.unpack_from("<I", raw, 24)[0] == d
        changes = list(enumerate(struct.pack("<I", d - 1), start=24))
        with pytest.raises(DataFormatError, match="modality 1's 4 dimensions") as info:
            load_model_bytes(with_payload_bytes(raw, changes))
        assert info.value.offset == pool_at

    def test_kernel_record_of_a_modality_without_a_pool_is_format_error_at_kernel(self):
        raw = saved_model_bytes("kernel")
        (pool_at, _), = pool_records(raw)[0]
        trees_at = pool_records(raw)[1]
        # the flag cleared and the pool taken out: the trees follow the flag
        body = raw[:pool_at] + b"\x00" + raw[trees_at:-4]
        record = first_kernel_record(raw)[0] - (trees_at - pool_at - 1)
        with pytest.raises(DataFormatError, match="no anchor pool") as info:
            load_model_bytes(body + struct.pack("<I", zlib.crc32(body[6:])))
        assert info.value.offset == record

    @pytest.mark.parametrize("learner", ["linear", "neural"])
    def test_pool_of_a_modality_without_kernel_trees_is_format_error_at_its_record(
            self, learner):
        raw = saved_model_bytes(learner)
        (pool_at, pool), = pool_records(raw)[0]
        assert pool is None
        pool = np.ones((8, 2))
        record = b"\x01\x02" + struct.pack("<QQ", *pool.shape) + pool.tobytes()
        body = raw[:pool_at] + record + raw[pool_at + 1:-4]
        with pytest.raises(DataFormatError, match="no kernel tree") as info:
            load_model_bytes(body + struct.pack("<I", zlib.crc32(body[6:])))
        assert info.value.offset == pool_at

    def test_pool_of_a_forest_without_trees_is_format_error_at_its_record(self, tmp_path):
        # a kernel forest of no trees has no pool to store
        _, forest, _, _ = trained_artifacts("kernel")
        path = tmp_path / "model.fhsh"
        save_model(replace(forest, trees=()), None, path)
        raw = path.read_bytes()
        pool_at = config_span(raw)[0] + 4 + config_span(raw)[1] + 1
        assert raw[pool_at:-4] == b"\x00"
        pool = forest.pools[0].rows.T
        record = b"\x01\x02" + struct.pack("<QQ", *pool.shape) + pool.tobytes()
        body = raw[:pool_at] + record
        with pytest.raises(DataFormatError, match="no kernel tree") as info:
            load_model_bytes(body + struct.pack("<I", zlib.crc32(body[6:])))
        assert info.value.offset == pool_at

    def test_projectors_that_do_not_fit_the_map_are_format_error_at_node(self, tmp_path):
        # tree 0 loses its last anchor but keeps root projectors that take all 20
        _, forest, _, selection = trained_artifacts("kernel")
        tree = forest.trees[0]
        (kc,) = tree.kernels
        tree.kernels = (replace(kc, anchors=kc.anchors[:, :-1].copy()),)
        assert tree.nodes[0][0].proj_pos.shape[1] == kc.n_anchors
        path = tmp_path / "model.fhsh"
        forest = Forest(trees=forest.trees, master_seed=1, depth=2,
                        feature_dims=(8,), config=forest.config)
        save_model(forest, selection, path)
        with pytest.raises(DataFormatError, match="projectors") as info:
            load_model(path)
        assert info.value.offset == first_node(path.read_bytes())

    @pytest.mark.parametrize("axis", [0, 1])
    def test_empty_pool_is_format_error_at_its_record(self, axis):
        raw = saved_model_bytes("kernel")
        (pool_at, _), = pool_records(raw)[0]
        # a pool of no rows or no columns: its anchors' bytes are then read
        # as what follows
        changes = list(enumerate(struct.pack("<Q", 0), start=pool_at + 2 + 8 * axis))
        with pytest.raises(DataFormatError, match="pool") as info:
            load_model_bytes(with_payload_bytes(raw, changes))
        assert info.value.offset == pool_at

    def test_loaded_nodes_have_empty_class_partitions(self):
        _, forest, _, _ = trained_artifacts("kernel-two-view")
        loaded, _ = load_model_bytes(saved_model_bytes("kernel-two-view"))
        nodes = [n for tree in loaded.trees for per_mod in tree.nodes for n in per_mod]
        assert len(nodes) == 2 * len(loaded.trees)
        assert all(node.class_partition == {} for node in nodes)
        # the trained forest keeps its partitions
        assert all(node.class_partition for tree in forest.trees
                   for per_mod in tree.nodes for node in per_mod)

    def test_node_record_is_its_flags_and_arrays(self):
        # the first node of a linear tree: u8 degenerate flag, u8 net flag,
        # then the projectors, with no class partition between
        raw = saved_model_bytes()
        forest, _ = load_model_bytes(raw)
        node = forest.trees[0].nodes[0][0]
        assert not node.degenerate
        at = first_node(raw)
        assert raw[at:at + 2] == b"\x00\x00" and raw[at + 2] == 2
        shape = struct.unpack_from("<QQ", raw, at + 3)
        assert shape == node.proj_pos.shape
        assert raw[at + 19:at + 19 + node.proj_pos.nbytes] == node.proj_pos.tobytes()

    @pytest.mark.parametrize("part, kept", [("chosen", 0), ("chosen", 3), ("gains", 0),
                                            ("gains", 7)])
    def test_truncated_selection_is_format_error_at_its_field(self, part, kept):
        raw = saved_model_bytes()
        count_at, count = selection_span(raw)
        assert count == 1
        at = count_at + 4 + (4 if part == "gains" else 0)
        with pytest.raises(DataFormatError, match="truncated") as info:
            load_model_bytes(truncated_payload(raw, at + kept))
        assert info.value.offset == at

    def test_selection_count_past_the_payload_is_format_error_at_its_last_block(self):
        raw = saved_model_bytes()
        count_at, _ = selection_span(raw)
        # every u32 up to the CRC is read as a block; the one the payload
        # cannot hold whole is reported
        changes = list(enumerate(struct.pack("<I", len(raw)), start=count_at))
        with pytest.raises(DataFormatError, match="truncated") as info:
            load_model_bytes(with_payload_bytes(raw, changes))
        blocks = count_at + 4
        assert info.value.offset == blocks + 4 * ((len(raw) - 4 - blocks) // 4)

    @pytest.mark.parametrize("kept", [0, 3, 4, 11])
    def test_truncated_indices_are_format_error_at_kernel(self, kept):
        raw = saved_model_bytes("kernel")
        record, count_at = first_kernel_record(raw)
        with pytest.raises(DataFormatError, match="indices run past") as info:
            load_model_bytes(truncated_payload(raw, count_at + 4 + kept))
        assert info.value.offset == record

    def test_pool_is_stored_once_and_held_by_the_loaded_forest(self):
        _, forest, _, selection = trained_artifacts("kernel")
        raw = saved_model_bytes("kernel")
        (_, (_, pool_size)), = pool_records(raw)[0]
        total = sum(t.kernels[0].n_anchors for t in forest.trees)
        distinct = {c.tobytes() for t in forest.trees for c in t.kernels[0].anchors.T}
        assert pool_size == len(distinct) < total
        loaded, _ = load_model_bytes(raw)
        pool = loaded.pools[0]
        assert pool.rows.shape[0] == pool_size
        built = encode_module.anchor_pool(loaded.trees, 0)
        assert np.array_equal(pool.rows, built.rows)
        assert all(np.array_equal(i, j) for i, j in zip(pool.indices, built.indices))
        for tree, idx in zip(loaded.trees, pool.indices):
            np.testing.assert_array_equal(pool.rows[idx], tree.kernels[0].anchors.T)

    def test_linear_and_neural_models_write_no_pool(self):
        for learner in ("linear", "neural"):
            raw = saved_model_bytes(learner)
            forest, _ = load_model_bytes(raw)
            assert forest.pools == (None,)
            assert pool_records(raw)[0] == [(pool_records(raw)[1] - 1, None)]
            # every tree's kernel record is its one u8 "no kernel" code
            assert all(t.kernels == (None,) for t in forest.trees)

    @pytest.mark.parametrize("learner", ["linear", "kernel", "kernel-stacked",
                                         "kernel-two-view", "neural"])
    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_mutated_payload_loads_or_raises_format_error(self, learner, data):
        raw = saved_model_bytes(learner)
        # the whole payload, the pool records' flags and shapes, or the
        # first node's flags
        pools, trees_at = pool_records(raw)
        node = first_node(raw)
        spans = [(6, len(raw) - 5), (node, node + 1)]
        spans += [(at, at if pool is None else at + 17) for at, pool in pools]
        if learner.startswith("kernel"):
            # the first kernel record's indices
            record, count_at = first_kernel_record(raw)
            spans.append((count_at, count_at + 4 + 4 * 3))
        if learner == "kernel-two-view":
            # the second modality's kernel record
            second = count_at + 4 + 4 * struct.unpack_from("<I", raw, count_at)[0]
            spans.append((second, node - 1))
        lo, hi = data.draw(st.sampled_from(spans))
        changes = data.draw(st.lists(
            st.tuples(st.integers(lo, hi), st.integers(0, 255)), min_size=1, max_size=3))
        try:
            forest, _ = load_model_bytes(with_payload_bytes(raw, changes))
        except DataFormatError:
            return
        for m in range(len(forest.feature_dims)):
            pool = forest.pools[m]
            if pool is not None:
                for tree, idx in zip(forest.trees, pool.indices):
                    if idx is not None:
                        np.testing.assert_array_equal(pool.rows[idx],
                                                      tree.kernels[m].anchors.T)
        for tree in forest.trees:
            for kc in tree.kernels:
                if kc is not None:
                    assert np.isfinite([kc.sigma, kc.p, kc.q]).all()
                    assert np.isfinite(kc.anchors).all()
            for node in (n for per_mod in tree.nodes for n in per_mod):
                if node.degenerate:
                    continue
                arrays = [node.proj_pos, node.proj_neg]
                if node.net is not None:
                    arrays += [a for layer in node.net.layers
                               for a in (layer.weight, layer.bias)]
                assert all(np.isfinite(a).all() for a in arrays)


class TestCanonicalFlags:
    """Every flag of a model is one byte, 0 or 1, and a clear lambda flag has
    all-zero lambda bytes, so one forest and selection have one file."""

    @staticmethod
    def flags(raw):
        """Offsets of the flags in a saved kernel model, whose selection
        has no lambda and whose first node is neither degenerate nor a net."""
        selection = sum(config_span(raw)) + 4
        (mode_length,) = struct.unpack_from("<I", raw, selection + 1)
        (pool, _), = pool_records(raw)[0]
        node = first_node(raw)
        flags = {"selection": selection, "lambda": selection + 5 + mode_length,
                 "pool": pool, "degenerate": node, "net": node + 1}
        assert [raw[at] for at in flags.values()] == [1, 0, 1, 0, 0]
        return flags

    @pytest.mark.parametrize("flag", ["selection", "lambda", "pool", "degenerate", "net"])
    def test_flag_that_is_neither_0_nor_1_is_format_error_at_it(self, flag):
        raw = saved_model_bytes("kernel")
        at = self.flags(raw)[flag]
        with pytest.raises(DataFormatError, match="neither 0 nor 1") as info:
            load_model_bytes(with_payload_bytes(raw, [(at, 2)]))
        assert info.value.offset == at

    def test_lambda_bytes_under_a_clear_lambda_flag_are_format_error_at_them(self):
        raw = saved_model_bytes("kernel")
        at = self.flags(raw)["lambda"] + 1
        assert raw[at:at + 8] == bytes(8)
        changes = list(enumerate(struct.pack("<d", 5.0), start=at))
        with pytest.raises(DataFormatError, match="lambda bytes") as info:
            load_model_bytes(with_payload_bytes(raw, changes))
        assert info.value.offset == at


class TestSelectionRules:
    """A model holds only a selection that a selector makes: mode unsup, sup
    or semi, a finite lambda >= 0 when set, distinct blocks of the forest
    and finite gains.  ``save_model`` rejects any other with InvalidInputError,
    ``load_model`` with DataFormatError at the field."""

    # a negative gain is one an unsupervised step can make
    GOOD = SelectionResult(chosen=[0, 1], gains=[0.5, -0.25], mode="semi", lam=1.0)
    # rule: (selection that breaks it, field, offset in the field, bytes there)
    BROKEN = {
        "mode": (replace(GOOD, mode="semx"), "mode", 4 + 3, b"x"),
        "lambda-negative": (replace(GOOD, lam=-2.0), "lam", 0, struct.pack("<d", -2.0)),
        "lambda-nan": (replace(GOOD, lam=math.nan), "lam", 0, struct.pack("<d", math.nan)),
        "chosen-twice": (replace(GOOD, chosen=[1, 1]), "chosen", 0, struct.pack("<I", 1)),
        # the saved forest has 3 trees
        "chosen-outside": (replace(GOOD, chosen=[0, 3]), "chosen", 4, struct.pack("<I", 3)),
        "gain-nan": (replace(GOOD, gains=[0.5, math.nan]), "gains", 8,
                     struct.pack("<d", math.nan)),
        "gain-inf": (replace(GOOD, gains=[math.inf, 0.5]), "gains", 0,
                     struct.pack("<d", math.inf)),
    }

    @staticmethod
    def fields(raw):
        """Offsets of the selection's mode, lambda value, blocks and gains
        in a saved model of a two-block selection."""
        mode = sum(config_span(raw)) + 4 + 1
        (mode_length,) = struct.unpack_from("<I", raw, mode)
        lam = mode + 4 + mode_length + 1
        chosen = lam + 8 + 4
        return {"mode": mode, "lam": lam, "chosen": chosen, "gains": chosen + 2 * 4}

    @pytest.fixture(scope="class")
    def good_raw(self, tmp_path_factory):
        _, forest, _, _ = trained_artifacts()
        path = tmp_path_factory.mktemp("selection") / "model.fhsh"
        save_model(forest, self.GOOD, path)
        return path.read_bytes()

    def test_a_selection_a_selector_makes_round_trips(self, good_raw):
        _, selection = load_model_bytes(good_raw)
        assert selection == self.GOOD

    @pytest.mark.parametrize("rule", sorted(BROKEN))
    def test_save_rejects_a_selection_no_selector_makes(self, tmp_path, rule):
        _, forest, _, _ = trained_artifacts()
        selection, field, _, _ = self.BROKEN[rule]
        path = tmp_path / "model.fhsh"
        with pytest.raises(InvalidInputError, match=f"selection {field}"):
            save_model(forest, selection, path)
        assert not path.exists()

    @pytest.mark.parametrize("gains", [[0.5], [0.5, 0.25, 0.125]])
    def test_save_rejects_gains_that_are_not_one_per_block(self, tmp_path, gains):
        # the file stores one gain per block, so no file holds such a selection
        _, forest, _, _ = trained_artifacts()
        with pytest.raises(InvalidInputError, match="selection gains"):
            save_model(forest, replace(self.GOOD, gains=gains), tmp_path / "model.fhsh")

    @pytest.mark.parametrize("rule", sorted(BROKEN))
    def test_load_rejects_a_selection_no_selector_makes_at_its_field(self, good_raw, rule):
        _, field, at, value = self.BROKEN[rule]
        start = self.fields(good_raw)[field]
        changes = list(enumerate(value, start=start + at))
        with pytest.raises(DataFormatError, match=f"selection {field}") as info:
            load_model_bytes(with_payload_bytes(good_raw, changes))
        assert info.value.offset == start


def serve_shaped_forest(seed=0, dim=784, order="C"):
    """A kernel forest shaped like serve-784's: 32 RBF trees of 16 anchors
    drawn from 40 shared columns, which encode in two stacked groups, then
    a one-anchor tree and a tree with a degenerate root, which encode alone.
    The anchors are handed over in ``order``: numpy lays out the columns
    ``shared[:, idx]`` in Fortran order."""
    rng = np.random.default_rng(seed)
    shared = rng.normal(size=(dim, 40))
    trees = []
    for t in range(34):
        anchors = shared[:, rng.choice(40, size=1 if t == 32 else 16, replace=False)]
        anchors = np.asarray(anchors, order=order)
        width = anchors.shape[1]
        root = (SplitNode(class_partition={0: "neg", 1: "neg"}, degenerate=True) if t == 33
                else SplitNode(proj_pos=rng.normal(size=(2, width)),
                               proj_neg=rng.normal(size=(2, width)),
                               class_partition={0: "neg", 1: "pos"}))
        trees.append(HashTree(depth=2, nodes=[[root]], tree_seed=t,
                              kernels=(KernelConfig(anchors=anchors, sigma=30.0),),
                              feature_dims=(dim,)))
    return Forest(trees=trees, master_seed=seed, depth=2, feature_dims=(dim,),
                  config=ForestConfig(split=SplitConfig(learner="kernel")))


class TestPooledAnchors:
    """A loaded kernel tree takes its anchors from the pool when they are
    first read; a stacked group never reads them."""

    def test_stacked_load_gathers_no_anchors(self, tmp_path):
        forest = serve_shaped_forest()
        assert [g.stop - g.start for g in forest._groups[0]] == [16, 16, 1, 1]
        path = tmp_path / "model.fhsh"
        save_model(forest, None, path)
        x = np.random.default_rng(1).normal(size=(784, 20))
        anchor_bytes = sum(t.kernels[0].anchors.nbytes for t in forest.trees)
        encode_dataset(load_model(path)[0], x)  # first calls allocate caches
        tracemalloc.start()
        try:
            loaded, _ = load_model(path)
            blocks = encode_dataset(loaded, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < anchor_bytes
        assert all(np.array_equal(a, b) for a, b in zip(blocks, encode_dataset(forest, x)))
        # bit for bit, the lone trees' (read to encode) and the stacked ones'
        for saved, tree in zip(forest.trees, loaded.trees):
            (kc,), (own,) = tree.kernels, saved.kernels
            assert kc._shape == own.anchors.shape
            assert kc.anchors.tobytes() == own.anchors.tobytes()
            assert kc.anchor_sq_norms.tobytes() == own.anchor_sq_norms.tobytes()

    def test_fortran_ordered_anchors_make_the_forest_their_c_copy_makes(self, tmp_path):
        forests = {order: serve_shaped_forest(order=order) for order in "CF"}
        for order, forest in forests.items():
            save_model(forest, None, tmp_path / f"{order}.fhsh")
        loaded, _ = load_model(tmp_path / "F.fhsh")
        for c_tree, f_tree, l_tree in zip(*(f.trees for f in (*forests.values(), loaded))):
            (c_kc,), (f_kc,), (l_kc,) = c_tree.kernels, f_tree.kernels, l_tree.kernels
            assert f_kc.anchors.flags.c_contiguous
            assert f_kc.anchor_sq_norms.tobytes() == c_kc.anchor_sq_norms.tobytes()
            assert f_kc.anchor_sq_norms.tobytes() == l_kc.anchor_sq_norms.tobytes()
        assert (tmp_path / "C.fhsh").read_bytes() == (tmp_path / "F.fhsh").read_bytes()
        x = np.random.default_rng(3).normal(size=(784, 20))
        for a, b in zip(*(encode_dataset(f, x) for f in forests.values())):
            np.testing.assert_array_equal(a, b)

    def test_caller_changing_its_anchors_moves_no_tree_pool_model_or_code(self, tmp_path):
        # the caller keeps the C-ordered float64 arrays it built the kernels
        # of, and changes them in place once the forest is made
        rng = np.random.default_rng(5)
        shared = rng.normal(size=(64, 40))
        arrays = [np.ascontiguousarray(shared[:, rng.choice(40, size=16, replace=False)])
                  for _ in range(8)]
        trees = [HashTree(depth=2, tree_seed=t, feature_dims=(64,),
                          kernels=(KernelConfig(anchors=a, sigma=30.0),),
                          nodes=[[SplitNode(proj_pos=rng.normal(size=(2, 16)),
                                            proj_neg=rng.normal(size=(2, 16)))]])
                 for t, a in enumerate(arrays)]
        forest = Forest(trees=trees, master_seed=0, depth=2, feature_dims=(64,),
                        config=ForestConfig(split=SplitConfig(learner="kernel")))
        assert all(g.take is not None for g in forest._groups[0])
        x = rng.normal(size=(64, 20))
        anchors = [tree.kernels[0].anchors.copy() for tree in forest.trees]
        rows = forest.pools[0].rows.copy()
        blocks = encode_dataset(forest, x)
        save_model(forest, None, tmp_path / "before.fhsh")
        for a in arrays:
            a += 5.0
        for tree, a, own in zip(forest.trees, arrays, anchors):
            assert tree.kernels[0].anchors is not a
            np.testing.assert_array_equal(tree.kernels[0].anchors, own)
        np.testing.assert_array_equal(forest.pools[0].rows, rows)
        save_model(forest, None, tmp_path / "after.fhsh")
        assert (tmp_path / "after.fhsh").read_bytes() == (tmp_path / "before.fhsh").read_bytes()
        for a, b in zip(blocks, encode_dataset(forest, x)):
            np.testing.assert_array_equal(a, b)
        # a tree encoded alone reads its own anchors, not the pool
        alone = Forest(trees=forest.trees[:1], master_seed=0, depth=2, feature_dims=(64,),
                       config=forest.config)
        for a, b in zip(blocks[:1], encode_dataset(alone, x)):
            np.testing.assert_array_equal(a, b)

    def test_forest_of_some_loaded_trees_encodes_and_saves_as_the_saved_ones(self, tmp_path):
        forest = serve_shaped_forest(dim=64)
        save_model(forest, None, tmp_path / "model.fhsh")
        loaded, _ = load_model(tmp_path / "model.fhsh")
        some = [3, 17, 32, 33]
        subsets = [Forest(trees=[f.trees[t] for t in some], master_seed=0, depth=2,
                          feature_dims=(64,), config=forest.config) for f in (forest, loaded)]
        x = np.random.default_rng(2).normal(size=(64, 30))
        for a, b in zip(*(encode_dataset(f, x) for f in subsets)):
            np.testing.assert_array_equal(a, b)
        for name, f in zip(("saved", "loaded"), subsets):
            save_model(f, None, tmp_path / f"{name}.fhsh")
        assert (tmp_path / "saved.fhsh").read_bytes() == (tmp_path / "loaded.fhsh").read_bytes()
        # the new forest's pool read their anchors, so they let go of the old pool
        assert all("_source" not in vars(loaded.trees[t].kernels[0]) for t in some)

    def test_copy_or_pickle_of_a_pooled_kernel_holds_its_own_anchors(self, tmp_path):
        forest = serve_shaped_forest(dim=64)
        save_model(forest, None, tmp_path / "model.fhsh")
        loaded, _ = load_model(tmp_path / "model.fhsh")
        (kc,), (own,) = loaded.trees[0].kernels, forest.trees[0].kernels
        # the whole 40-anchor pool would take 20 kB
        assert len(pickle.dumps(kc)) < own.anchors.nbytes + 2000
        copied = copy.copy(loaded.trees[1].kernels[0])
        for other, saved in ((pickle.loads(pickle.dumps(kc)), own),
                             (copied, forest.trees[1].kernels[0])):
            assert "_source" not in vars(other)
            assert other.anchors.tobytes() == saved.anchors.tobytes()
        assert kc.anchors.tobytes() == own.anchors.tobytes()

    def test_threads_reading_anchors_first_at_once_get_equal_arrays(self, tmp_path):
        forest = serve_shaped_forest(dim=64)
        path = tmp_path / "model.fhsh"
        save_model(forest, None, path)
        loaded, _ = load_model(path)
        n_threads = 4
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for saved, tree in zip(forest.trees, loaded.trees):
                kc, got = tree.kernels[0], [None] * n_threads
                start = threading.Barrier(n_threads)

                def read(i, kc=kc, got=got, start=start):
                    start.wait(timeout=10)
                    got[i] = kc.anchors

                threads = [threading.Thread(target=read, args=(i,)) for i in range(n_threads)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=10)
                assert not any(thread.is_alive() for thread in threads)
                assert all(a is got[0] for a in got)
                np.testing.assert_array_equal(got[0], saved.kernels[0].anchors)
        finally:
            sys.setswitchinterval(switch)


class TestCodesContainer:
    def test_round_trip(self, tmp_path, rng):
        _, _, blocks, selection = trained_artifacts()
        codes = pack_codes(blocks, selection.chosen)
        labels = rng.integers(0, 3, len(codes))
        path = tmp_path / "codes.fhcd"
        save_codes(codes, labels, path)
        loaded, loaded_labels = load_codes(path)
        np.testing.assert_array_equal(loaded.words, codes.words)
        np.testing.assert_array_equal(loaded_labels, labels)
        assert loaded.length == codes.length

    def test_36_bits_fit_one_word_zero_padded(self, tmp_path, rng):
        words = rng.integers(0, 2**36, size=(4, 1), dtype=np.uint64)
        codes = PackedCodes(words=words, length=36)
        path = tmp_path / "codes.fhcd"
        save_codes(codes, None, path)
        loaded, labels = load_codes(path)
        assert labels is None
        assert loaded.words.shape == (4, 1)
        assert np.all(loaded.words >> np.uint64(36) == 0)

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_mutated_payload_loads_or_raises_format_error(self, data):
        rng = np.random.default_rng(0)
        codes = PackedCodes(words=rng.integers(0, 2**36, size=(20, 1), dtype=np.uint64),
                            length=36)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "codes.fhcd"
            save_codes(codes, rng.integers(0, 5, 20), path)
            raw = path.read_bytes()
            changes = data.draw(st.lists(
                st.tuples(st.integers(6, len(raw) - 5), st.integers(0, 255)),
                min_size=1, max_size=3))
            path.write_bytes(with_payload_bytes(raw, changes))
            try:
                load_codes(path)
            except DataFormatError:
                pass

    @pytest.mark.parametrize("labels", [[0.7, 1.2], [[0, 1], [1, 0]]],
                             ids=["fractions", "2-D"])
    def test_labels_that_are_not_one_integer_per_code_raise_before_writing(
            self, tmp_path, labels):
        codes = PackedCodes(words=np.zeros((2, 1), dtype=np.uint64), length=8)
        path = tmp_path / "codes.fhcd"
        with pytest.raises(InvalidInputError,
                           match="^labels must be one integer per code, 2 in all$"):
            save_codes(codes, labels, path)
        assert not path.exists()

    def test_label_flag_that_is_neither_0_nor_1_is_format_error_at_it(self, tmp_path):
        codes = PackedCodes(words=np.zeros((3, 1), dtype=np.uint64), length=8)
        path = tmp_path / "codes.fhcd"
        save_codes(codes, None, path)
        # after the magic: u64 count, u32 length, then the flag
        at = 6 + 8 + 4
        path.write_bytes(with_payload_bytes(path.read_bytes(), [(at, 2)]))
        with pytest.raises(DataFormatError, match="neither 0 nor 1") as info:
            load_codes(path)
        assert info.value.offset == at

    def test_count_mismatch_detected(self, tmp_path, rng):
        codes = PackedCodes(words=rng.integers(0, 100, size=(3, 1),
                                               dtype=np.uint64), length=8)
        path = tmp_path / "codes.fhcd"
        save_codes(codes, None, path)
        raw = bytearray(path.read_bytes())
        # bump the count field and refresh the checksum so only the count lies
        struct.pack_into("<Q", raw, 6, 4)
        import zlib
        payload = bytes(raw[6:-4])
        raw[-4:] = struct.pack("<I", zlib.crc32(payload))
        path.write_bytes(bytes(raw))
        with pytest.raises(DataFormatError):
            load_codes(path)
