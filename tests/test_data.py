import gzip
import json
import struct
import tempfile
import zlib
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from leafhash import forest as forest_module
from leafhash import (
    BlockSet,
    DataFormatError,
    Forest,
    ForestConfig,
    InvalidInputError,
    NetConfig,
    PackedCodes,
    SplitConfig,
    SyntheticSpec,
    encode_dataset,
    gen_synthetic,
    greedy_unsupervised,
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
    train_forest,
    train_multimodal_forest,
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
    anchor, so its trees encode one at a time; ``kernel-two-view`` adds a second, 5-d view of the same
    samples, whose anchor pool the first tree's second kernel record holds."""
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
        forest = train_multimodal_forest([ds, second], 0, 3, 2, cfg, master_seed=seed)
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
    selection = greedy_unsupervised(BlockSet.from_blocks(blocks), 1)
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
        # FHSH03 had a learner byte in its header and kept the optimizer's
        # constants in its config; FHSH02 stored every tree's anchors in full
        for magic in (b"FHSH05", b"FHSH03", b"FHSH02"):
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


def first_kernel_record(raw):
    """(offset of the first tree's first kernel record, offset of its anchor
    pool) in a saved RBF kernel model.

    Before the record: the selection record and the tree seed.  The record
    is the u8 kernel code and sigma, the pool array, then the indices.
    """
    count_at, count = selection_span(raw)
    record = count_at + 4 + 12 * count + 8
    assert raw[record] == 1
    return record, record + 1 + 8


def pool_shape(raw, pool_at):
    """((d, P), offset of the u32 index count after it) of a pool array."""
    d, size = struct.unpack_from("<QQ", raw, pool_at + 1)
    return (d, size), pool_at + 1 + 16 + 8 * d * size


def first_node(raw):
    """Offset of the first tree's first node in a saved model: after its
    kernel records, one per modality, each its modality's first (so an RBF
    record holds a pool).  The node is a u8 degenerate flag, a u32 class
    count and that many 9-byte (i64 class, u8 side) partition entries."""
    count_at, count = selection_span(raw)
    at = count_at + 4 + 12 * count + 8
    for _ in range(raw[6]):
        if raw[at] == 0:
            at += 1
            continue
        _, index_count_at = pool_shape(raw, at + 1 + 8)
        (n,) = struct.unpack_from("<I", raw, index_count_at)
        at = index_count_at + 4 + 4 * n
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
        # the first array is the anchor pool, in the first tree's kernel record
        anchors = first_kernel_record(raw)[1]
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

    def test_anchor_index_past_the_pool_is_format_error_at_kernel(self):
        raw = saved_model_bytes("kernel")
        record, pool_at = first_kernel_record(raw)
        (_, pool_size), count_at = pool_shape(raw, pool_at)
        changes = list(enumerate(struct.pack("<I", pool_size), start=count_at + 4))
        with pytest.raises(DataFormatError, match="past a pool") as info:
            load_model_bytes(with_payload_bytes(raw, changes))
        assert info.value.offset == record

    def test_index_count_past_the_payload_is_format_error_at_kernel(self):
        raw = saved_model_bytes("kernel")
        record, pool_at = first_kernel_record(raw)
        _, count_at = pool_shape(raw, pool_at)
        changes = list(enumerate(struct.pack("<I", len(raw)), start=count_at))
        with pytest.raises(DataFormatError, match="indices run past") as info:
            load_model_bytes(with_payload_bytes(raw, changes))
        assert info.value.offset == record

    def test_pool_of_another_dimension_is_format_error_at_kernel(self):
        raw = saved_model_bytes("kernel")
        record, pool_at = first_kernel_record(raw)
        (d, _), _ = pool_shape(raw, pool_at)
        # the header's feature dimension: after the u8 modality count, u32
        # tree count, u8 depth and i64 master seed
        assert struct.unpack_from("<I", raw, 20)[0] == d
        changes = list(enumerate(struct.pack("<I", d + 1), start=20))
        with pytest.raises(DataFormatError, match="pool") as info:
            load_model_bytes(with_payload_bytes(raw, changes))
        assert info.value.offset == record

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

    def test_empty_pool_is_format_error_at_kernel(self):
        raw = saved_model_bytes("kernel")
        record, pool_at = first_kernel_record(raw)
        # a pool of no columns: its anchors' bytes are then read as what follows
        changes = list(enumerate(struct.pack("<Q", 0), start=pool_at + 9))
        with pytest.raises(DataFormatError, match="pool") as info:
            load_model_bytes(with_payload_bytes(raw, changes))
        assert info.value.offset == record

    # a record cut short is reported at the first field that does not fit,
    # where reading it field by field stops
    @pytest.mark.parametrize("kept, offset", [(0, 0), (5, 0), (8, 8), (9, 9), (26, 26)])
    def test_truncated_class_partition_is_format_error_at_its_field(self, kept, offset):
        raw = saved_model_bytes("kernel")
        entries = first_node(raw) + 1 + 4
        assert struct.unpack_from("<I", raw, entries - 4)[0] == 3
        with pytest.raises(DataFormatError, match="truncated") as info:
            load_model_bytes(truncated_payload(raw, entries + kept))
        assert info.value.offset == entries + offset

    def test_class_listed_twice_keeps_its_first_place_and_last_side(self):
        raw = saved_model_bytes()
        entries = first_node(raw) + 1 + 4
        (cls, side), _, (last, last_side) = struct.iter_unpack("<qB", raw[entries:entries + 27])
        # the second entry names the first class again, on the other side
        changes = enumerate(struct.pack("<qB", cls, 1 - side), start=entries + 9)
        forest, _ = load_model_bytes(with_payload_bytes(raw, list(changes)))
        sides = ("neg", "pos")
        assert list(forest.trees[0].nodes[0][0].class_partition.items()) == [
            (cls, sides[1 - side]), (last, sides[last_side])]

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
        record, pool_at = first_kernel_record(raw)
        _, count_at = pool_shape(raw, pool_at)
        with pytest.raises(DataFormatError, match="indices run past") as info:
            load_model_bytes(truncated_payload(raw, count_at + 4 + kept))
        assert info.value.offset == record

    def test_pool_is_stored_once_and_held_by_the_loaded_forest(self):
        _, forest, _, selection = trained_artifacts("kernel")
        raw = saved_model_bytes("kernel")
        (_, pool_size), _ = pool_shape(raw, first_kernel_record(raw)[1])
        total = sum(t.kernels[0].n_anchors for t in forest.trees)
        distinct = {c.tobytes() for t in forest.trees for c in t.kernels[0].anchors.T}
        assert pool_size == len(distinct) < total
        loaded, _ = load_model_bytes(raw)
        pool = loaded.pools[0]
        assert pool.rows.shape[0] == pool_size
        built = forest_module.anchor_pool(loaded.trees, 0)
        assert np.array_equal(pool.rows, built.rows)
        assert all(np.array_equal(i, j) for i, j in zip(pool.indices, built.indices))
        for tree, idx in zip(loaded.trees, pool.indices):
            np.testing.assert_array_equal(pool.rows[idx], tree.kernels[0].anchors.T)

    def test_linear_and_neural_models_write_no_pool(self):
        for learner in ("linear", "neural"):
            raw = saved_model_bytes(learner)
            forest, _ = load_model_bytes(raw)
            assert forest.pools == (None,)
            # every tree's kernel record is its one u8 "no kernel" code
            assert all(t.kernels == (None,) for t in forest.trees)

    @pytest.mark.parametrize("learner", ["linear", "kernel", "kernel-stacked",
                                         "kernel-two-view", "neural"])
    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_mutated_payload_loads_or_raises_format_error(self, learner, data):
        raw = saved_model_bytes(learner)
        # the whole payload, or the first node's class partition
        node = first_node(raw)
        (classes,) = struct.unpack_from("<I", raw, node + 1)
        spans = [(6, len(raw) - 5), (node + 1, node + 4 + 9 * classes)]
        if learner.startswith("kernel"):
            # the first kernel record's indices
            record, pool_at = first_kernel_record(raw)
            _, count_at = pool_shape(raw, pool_at)
            spans.append((count_at, count_at + 4 + 4 * 3))
        if learner == "kernel-two-view":
            # the second modality's kernel record, with its pool
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
