import gzip
import struct
import tempfile
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from leafhash import forest as forest_module
from leafhash import (
    BlockSet,
    DataFormatError,
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
    """A small trained forest, its blocks and selection.  ``kernel-stacked``
    is a kernel forest of 3-anchor trees, which encode in stacked groups."""
    ds = gen_synthetic(SyntheticSpec(kind="subspaces", class_count=3, ambient_dim=8,
                                     intrinsic_dim=2, noise=0.02,
                                     samples_per_class=30, seed=2))
    stacked = learner == "kernel-stacked"
    cfg = ForestConfig(
        split=SplitConfig(learner="kernel" if stacked else learner, atoms=3, sparsity=2,
                          net_hidden=(8,), net_output_dim=6, net=NetConfig(epochs=30)),
        anchor_count=3 if stacked else 20,
    )
    forest = train_forest(ds, 3, 2, cfg, master_seed=seed)
    blocks = encode_dataset(forest, ds.features)
    selection = greedy_unsupervised(BlockSet.from_blocks(blocks), 1)
    return ds, forest, blocks, selection


class TestModelContainer:
    @pytest.mark.parametrize("learner", ["linear", "kernel", "neural"])
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
        # FHSH02, the version before, stored every tree's anchors in full
        for magic in (b"FHSH04", b"FHSH02"):
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
    u8 learner, i64 seed, one u32 per modality, then the string: a u32
    length and that many bytes.
    """
    offset = 6 + 15 + 4 * raw[6]
    (length,) = struct.unpack_from("<I", raw, offset)
    return offset, length


def first_kernel_record(raw):
    """(offset of the first tree's kernel record, offset of its anchor pool)
    in a saved single-view RBF kernel model.

    Before the record: the selection record (flag, mode string, lambda flag
    and value, one chosen block and its gain) and the tree seed.  The record
    is the u8 kernel code and sigma, the pool array, then the indices.
    """
    offset, length = config_span(raw)
    selection = offset + 4 + length
    (mode_length,) = struct.unpack_from("<I", raw, selection + 1)
    record = selection + 1 + 4 + mode_length + 1 + 8 + 4 + 4 + 8 + 8
    assert raw[record] == 1
    return record, record + 1 + 8


def pool_shape(raw, pool_at):
    """((d, P), offset of the u32 index count after it) of a pool array."""
    d, size = struct.unpack_from("<QQ", raw, pool_at + 1)
    return (d, size), pool_at + 1 + 16 + 8 * d * size


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

    def test_empty_pool_is_format_error_at_kernel(self):
        raw = saved_model_bytes("kernel")
        record, pool_at = first_kernel_record(raw)
        # a pool of no columns: its anchors' bytes are then read as what follows
        changes = list(enumerate(struct.pack("<Q", 0), start=pool_at + 9))
        with pytest.raises(DataFormatError, match="pool") as info:
            load_model_bytes(with_payload_bytes(raw, changes))
        assert info.value.offset == record

    def test_pool_is_stored_once_and_held_by_the_loaded_forest(self):
        _, forest, _, selection = trained_artifacts("kernel")
        raw = saved_model_bytes("kernel")
        (_, pool_size), _ = pool_shape(raw, first_kernel_record(raw)[1])
        total = sum(t.kernels[0].n_anchors for t in forest.trees)
        distinct = {c.tobytes() for t in forest.trees for c in t.kernels[0].anchors.T}
        assert pool_size == len(distinct) < total
        loaded, _ = load_model_bytes(raw)
        pool = forest_module._held_pool(loaded, 0)
        assert pool.rows.shape[0] == pool_size
        assert forest_module._held_pool(loaded, 0) is pool
        for tree, idx in zip(loaded.trees, pool.indices):
            np.testing.assert_array_equal(pool.rows[idx], tree.kernels[0].anchors.T)

    def test_linear_and_neural_models_write_no_pool(self):
        for learner in ("linear", "neural"):
            raw = saved_model_bytes(learner)
            forest, _ = load_model_bytes(raw)
            assert forest_module._held_pool(forest, 0) is None
            # every tree's kernel record is its one u8 "no kernel" code
            assert all(t.kernels == (None,) for t in forest.trees)

    @pytest.mark.parametrize("learner", ["kernel", "kernel-stacked", "neural"])
    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_mutated_payload_loads_or_raises_format_error(self, learner, data):
        raw = saved_model_bytes(learner)
        if learner == "neural":
            spans = [(6, len(raw) - 5)]
        else:
            # the whole payload, or only the first kernel record's indices
            record, pool_at = first_kernel_record(raw)
            _, count_at = pool_shape(raw, pool_at)
            spans = [(6, len(raw) - 5), (count_at, count_at + 4 + 4 * 3)]
        lo, hi = data.draw(st.sampled_from(spans))
        changes = data.draw(st.lists(
            st.tuples(st.integers(lo, hi), st.integers(0, 255)), min_size=1, max_size=3))
        try:
            forest, _ = load_model_bytes(with_payload_bytes(raw, changes))
        except DataFormatError:
            return
        pool = forest_module._held_pool(forest, 0)
        if pool is not None:
            for tree, idx in zip(forest.trees, pool.indices):
                if idx is not None:
                    np.testing.assert_array_equal(pool.rows[idx], tree.kernels[0].anchors.T)
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
