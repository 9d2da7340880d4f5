"""Dataset ingestion, synthetic geometry generators, and model/code files.

File formats owned here:

- IDX image/label containers (big-endian, magic 0x803 / 0x801); gzip-compressed
  files are detected by content and decompressed transparently.
- Delimited text matrices (rows are feature dimensions, columns are samples)
  and a raw little-endian float64 format with a (rows, cols) header.
- "FHSH05" binary model container and "FHCD01" packed-codes file, both with a
  trailing CRC32; round-trips are bit-exact for everything serving reads, and
  a model holds nothing else.  Its header stores each modality's distinct
  kernel anchors once, as the forest's pool (``Forest.pools``, see
  ``encode.anchor_pool``), and each kernel tree's anchors as indices into
  it.  A model is read in bulk: in place through a memoryview, with a run of
  records of one kind (the selection's blocks, a kernel's indices) as one
  array.  No tree's anchors are copied out of the pool: each loaded kernel
  gathers them from it when they are first read (``KernelConfig._pooled``),
  which a stacked encode group never does.  The loaded forest is made with
  the pools that were read, so it never dedups its anchors again.
"""

from __future__ import annotations

import gzip
import json
import math
import struct
import zlib
from dataclasses import asdict, dataclass

import numpy as np

from .errors import DataFormatError, InvalidInputError
from .lowrank import KernelConfig, OptimizerConfig, check_kernel_constants
from .network import DenseLayer, DenseNet, NetConfig
from .dictionaries import SplitConfig, SplitNode
from .encode import AnchorPool
from .forest import Forest, ForestConfig, HashTree, LabeledDataset
from .aggregation import SelectionResult
from .retrieval import PackedCodes, _words_for

MODEL_MAGIC = b"FHSH05"
CODES_MAGIC = b"FHCD01"

_IDX_IMAGES = 0x00000803
_IDX_LABELS = 0x00000801

_KERNEL_CODES = {None: 0, "rbf": 1, "polynomial": 2}
_ACT_CODES = {"relu": 0, "identity": 1}
_ACT_NAMES = {v: k for k, v in _ACT_CODES.items()}


# ---------------------------------------------------------------------------
# IDX and matrix loaders

def _read_file(path) -> bytes:
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:2] == b"\x1f\x8b":
        try:
            raw = gzip.decompress(raw)
        except (OSError, EOFError, zlib.error) as exc:
            raise DataFormatError(f"corrupt gzip stream: {exc}") from exc
    return raw


def load_idx(path):
    """Load an IDX container: images become a (pixels, N) matrix scaled to
    [0, 1]; labels become an int array."""
    raw = _read_file(path)
    if len(raw) < 8:
        raise DataFormatError("IDX file too short for a header", offset=len(raw))
    magic = struct.unpack(">I", raw[0:4])[0]
    if magic == _IDX_LABELS:
        (count,) = struct.unpack(">I", raw[4:8])
        if len(raw) < 8 + count:
            raise DataFormatError(
                f"label payload truncated: expected {count} bytes", offset=len(raw)
            )
        return np.frombuffer(raw, dtype=np.uint8, count=count, offset=8).astype(np.int64)
    if magic == _IDX_IMAGES:
        if len(raw) < 16:
            raise DataFormatError("image header truncated", offset=len(raw))
        count, rows, cols = struct.unpack(">III", raw[4:16])
        need = count * rows * cols
        if len(raw) < 16 + need:
            raise DataFormatError(
                f"image payload truncated: expected {need} bytes", offset=len(raw)
            )
        pixels = np.frombuffer(raw, dtype=np.uint8, count=need, offset=16)
        images = pixels.reshape(count, rows * cols).astype(np.float64) / 255.0
        return images.T.copy()
    raise DataFormatError(f"unsupported IDX magic 0x{magic:08x}", offset=0)


def load_matrix(path, fmt: str = "csv") -> np.ndarray:
    """Load a feature matrix (rows are dimensions, columns are samples)."""
    if fmt == "csv":
        return _load_csv(path)
    if fmt == "raw-f64":
        return _load_raw_f64(path)
    raise InvalidInputError(f"unknown matrix format {fmt!r}")


def _load_csv(path) -> np.ndarray:
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"csv file is not UTF-8: {exc.reason}",
                              offset=exc.start) from exc
    # universal newlines, as text-mode reading splits them
    text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = [ln.strip() for ln in text.split("\n")]
    rows = [ln for ln in lines if ln]
    if not rows:
        raise DataFormatError("csv file is empty")
    parsed = []
    start = 0
    try:
        parsed.append([float(tok) for tok in rows[0].split(",")])
        start = 1
    except ValueError:
        start = 1  # header row
    for i, ln in enumerate(rows[start:], start=start):
        try:
            parsed.append([float(tok) for tok in ln.split(",")])
        except ValueError as exc:
            raise DataFormatError(f"non-numeric cell in csv row {i + 1}: {exc}") from exc
    width = len(parsed[0]) if parsed else 0
    if width == 0:
        raise DataFormatError("csv file has no numeric rows")
    for i, row in enumerate(parsed):
        if len(row) != width:
            raise DataFormatError(
                f"ragged csv: row {i + 1} has {len(row)} cells, expected {width}"
            )
    return np.asarray(parsed, dtype=np.float64)


def _load_raw_f64(path) -> np.ndarray:
    raw = _read_file(path)
    if len(raw) < 16:
        raise DataFormatError("raw-f64 header truncated", offset=len(raw))
    rows, cols = struct.unpack("<QQ", raw[:16])
    need = 16 + rows * cols * 8
    if len(raw) != need:
        raise DataFormatError(
            f"raw-f64 payload is {len(raw)} bytes, expected {need}", offset=len(raw)
        )
    return np.frombuffer(raw, dtype="<f8", offset=16).reshape(rows, cols).copy()


def save_matrix(matrix, path, fmt: str = "csv"):
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2:
        raise InvalidInputError("matrix must be 2-D")
    if fmt == "csv":
        with open(path, "w", encoding="utf-8") as fh:
            for row in matrix:
                fh.write(",".join(repr(float(v)) for v in row) + "\n")
    elif fmt == "raw-f64":
        with open(path, "wb") as fh:
            fh.write(struct.pack("<QQ", *matrix.shape))
            fh.write(np.ascontiguousarray(matrix, dtype="<f8").tobytes())
    else:
        raise InvalidInputError(f"unknown matrix format {fmt!r}")


def load_labels(path) -> np.ndarray:
    """Labels from an IDX label file or a plain text file of integers."""
    raw = _read_file(path)
    if len(raw) >= 4 and struct.unpack(">I", raw[:4])[0] == _IDX_LABELS:
        return load_idx(path)
    try:
        return np.asarray([int(tok) for tok in raw.decode("utf-8").split()], dtype=np.int64)
    except (UnicodeDecodeError, ValueError) as exc:
        raise DataFormatError(f"cannot parse labels: {exc}") from exc


def save_labels(labels, path):
    labels = np.asarray(labels, dtype=np.int64)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(str(int(v)) for v in labels) + "\n")


# ---------------------------------------------------------------------------
# Synthetic geometries

@dataclass(frozen=True)
class SyntheticSpec:
    """Generator settings for the toy two-class geometries.

    kinds: "subspaces" (random low-dimensional class subspaces in the ambient
    space), "lines2d" (four rays in the plane, two per class), "circles2d"
    (concentric circles, class c at radius c+1).
    """

    kind: str
    class_count: int = 2
    ambient_dim: int = 10
    intrinsic_dim: int = 2
    noise: float = 0.0
    samples_per_class: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("subspaces", "lines2d", "circles2d"):
            raise InvalidInputError(f"unknown synthetic kind {self.kind!r}")
        if self.noise < 0:
            raise InvalidInputError("noise must be >= 0")
        if self.class_count < 1 or self.samples_per_class < 1:
            raise InvalidInputError("class_count and samples_per_class must be >= 1")
        if self.kind == "subspaces" and self.intrinsic_dim > self.ambient_dim:
            raise InvalidInputError("intrinsic_dim cannot exceed ambient_dim")
        if self.kind in ("lines2d", "circles2d") and self.ambient_dim != 2:
            raise InvalidInputError(f"{self.kind} requires ambient_dim=2")
        if self.kind == "lines2d" and self.class_count != 2:
            raise InvalidInputError("lines2d is a two-class geometry")


def gen_synthetic(spec: SyntheticSpec) -> LabeledDataset:
    """Deterministic synthetic dataset; labels are emitted grouped by class
    (all class-0 columns first), so two generators with equal class counts
    stay sample-aligned."""
    rng = np.random.default_rng(spec.seed)
    per_class = []
    for c in range(spec.class_count):
        if spec.kind == "subspaces":
            basis = np.linalg.qr(
                rng.normal(size=(spec.ambient_dim, spec.intrinsic_dim))
            )[0]
            coeffs = rng.normal(size=(spec.intrinsic_dim, spec.samples_per_class))
            pts = basis @ coeffs
        elif spec.kind == "lines2d":
            angles = np.deg2rad([0.0, 30.0] if c == 0 else [90.0, 120.0])
            ray = rng.integers(0, 2, size=spec.samples_per_class)
            t = rng.uniform(0.2, 1.0, size=spec.samples_per_class)
            theta = angles[ray]
            pts = np.vstack([t * np.cos(theta), t * np.sin(theta)])
        else:  # circles2d: concentric circles with radial noise only
            radius = float(c + 1)
            theta = rng.uniform(0.0, 2.0 * np.pi, size=spec.samples_per_class)
            r = radius + spec.noise * rng.normal(size=spec.samples_per_class)
            pts = np.vstack([r * np.cos(theta), r * np.sin(theta)])
        if spec.kind != "circles2d" and spec.noise > 0:
            pts = pts + spec.noise * rng.normal(size=pts.shape)
        per_class.append(pts)
    features = np.concatenate(per_class, axis=1)
    labels = np.repeat(np.arange(spec.class_count), spec.samples_per_class)
    return LabeledDataset(features=features, labels=labels)


# ---------------------------------------------------------------------------
# Binary container plumbing

class _Writer:
    def __init__(self):
        self.buf = bytearray()

    def u8(self, v):
        self.buf += struct.pack("<B", v)

    def u32(self, v):
        self.buf += struct.pack("<I", v)

    def u64(self, v):
        self.buf += struct.pack("<Q", v)

    def i64(self, v):
        self.buf += struct.pack("<q", v)

    def f64(self, v):
        self.buf += struct.pack("<d", v)

    def string(self, s):
        enc = s.encode("utf-8")
        self.u32(len(enc))
        self.buf += enc

    def u32s(self, a):
        self.u32(len(a))
        self.buf += np.asarray(a, dtype="<u4").tobytes()

    def array(self, a):
        a = np.ascontiguousarray(a, dtype="<f8")
        self.u8(a.ndim)
        for d in a.shape:
            self.u64(d)
        self.buf += a.tobytes()


_U32S, _U64S, _F64S = np.dtype("<u4"), np.dtype("<u8"), np.dtype("<f8")
_U8, _U32, _U64, _I64, _F64 = (struct.Struct(f) for f in ("<B", "<I", "<Q", "<q", "<d"))


class _Reader:
    """Reads records in place from a payload, through a memoryview of it."""

    def __init__(self, buf, base_offset=0):
        self.buf = memoryview(buf)
        self.pos = 0
        self.base = base_offset

    def _take(self, n):
        if self.pos + n > len(self.buf):
            raise DataFormatError(
                "container truncated mid-record", offset=self.base + self.pos
            )
        out = self.buf[self.pos : self.pos + n]
        self.pos += n
        return out

    def _scalar(self, kind):
        at = self.pos
        if at + kind.size > len(self.buf):
            raise DataFormatError("container truncated mid-record", offset=self.base + at)
        self.pos = at + kind.size
        return kind.unpack_from(self.buf, at)[0]

    def u8(self):
        return self._scalar(_U8)

    def u32(self):
        return self._scalar(_U32)

    def u64(self):
        return self._scalar(_U64)

    def i64(self):
        return self._scalar(_I64)

    def f64(self):
        return self._scalar(_F64)

    def records(self, dtype, count):
        """``count`` packed records of ``dtype`` as one read-only array.

        Records that run past the payload are reported at the first that
        does not fit, where reading them one by one stops."""
        at, need = self.pos, dtype.itemsize * count
        if at + need > len(self.buf):
            full = (len(self.buf) - at) // dtype.itemsize
            raise DataFormatError("container truncated mid-record",
                                  offset=self.base + at + full * dtype.itemsize)
        self.pos = at + need
        return np.frombuffer(self.buf, dtype=dtype, count=count, offset=at)

    def string(self):
        start = self.base + self.pos
        n = self.u32()
        try:
            return str(self._take(n), "utf-8")
        except UnicodeDecodeError as exc:
            raise DataFormatError(f"string is not UTF-8: {exc}", offset=start) from exc

    def u32s(self, offset):
        """A u32 count and that many u32s; ``offset`` locates the record
        they belong to for error reports."""
        n = self.u32()
        left = len(self.buf) - self.pos
        if 4 * n > left:
            raise DataFormatError(f"{n} indices run past the {left} bytes left", offset=offset)
        return self.records(_U32S, n).astype(np.intp)

    def array(self):
        start = self.base + self.pos
        shape = tuple(self.records(_U64S, self.u8()).tolist())
        need = 8 * math.prod(shape)  # Python ints: no overflow on huge shapes
        left = len(self.buf) - self.pos
        if need > left:
            raise DataFormatError(
                f"array of shape {shape} runs past the {left} bytes left", offset=start
            )
        try:
            out = self.records(_F64S, need // 8).reshape(shape).copy()
        except ValueError as exc:  # over 64 dimensions, or one past the index range
            raise DataFormatError(f"bad array shape {shape}: {exc}", offset=start) from exc
        if not np.isfinite(out).all():
            raise DataFormatError("array holds non-finite entries", offset=start)
        return out

    def done(self):
        if self.pos != len(self.buf):
            raise DataFormatError(
                f"{len(self.buf) - self.pos} trailing bytes", offset=self.base + self.pos
            )


def _checked_payload(raw, magic, kind):
    if len(raw) < len(magic) + 4:
        raise DataFormatError(f"{kind} file too short", offset=len(raw))
    if raw[:4] != magic[:4]:
        raise DataFormatError(f"not a {kind} file (bad magic)", offset=0)
    if raw[: len(magic)] != magic:
        version = raw[4 : len(magic)].decode("ascii", errors="replace")
        raise DataFormatError(f"unsupported {kind} container version {version!r}", offset=4)
    payload = memoryview(raw)[len(magic) : -4]
    (crc_stored,) = struct.unpack("<I", raw[-4:])
    if zlib.crc32(payload) != crc_stored:
        raise DataFormatError(f"{kind} checksum mismatch (file damaged or truncated)")
    return payload


def _finalize(magic, payload: bytes) -> bytes:
    return magic + payload + struct.pack("<I", zlib.crc32(payload))


# ---------------------------------------------------------------------------
# Model container

def _write_selection(w, selection):
    w.u8(selection is not None)
    if selection is not None:
        w.string(selection.mode)
        w.u8(selection.lam is not None)
        w.f64(0.0 if selection.lam is None else float(selection.lam))
        w.u32s(selection.chosen)
        w.buf += np.asarray(selection.gains, dtype="<f8").tobytes()


def _read_selection(r, n_trees):
    if r.u8() == 0:
        return None
    mode = r.string()
    has_lam = r.u8()
    lam = r.f64()
    k = r.u32()
    start = r.base + r.pos
    chosen = r.records(_U32S, k).tolist()
    if chosen and max(chosen) >= n_trees:
        raise DataFormatError(
            f"selection names block {max(chosen)} of a {n_trees}-tree forest", offset=start
        )
    gains = r.records(_F64S, k).tolist()
    return SelectionResult(chosen=chosen, gains=gains, mode=mode,
                           lam=lam if has_lam else None)


def _read_pools(r, feature_dims):
    """Each modality's pool record: ``(offset, pool)``, the pool as the (d, P)
    array the file stores, or None.  A pool holds anchors of its modality's
    dimension in ``feature_dims``."""
    pools = []
    for m, dim in enumerate(feature_dims):
        start = r.base + r.pos
        pool = r.array() if r.u8() else None
        if pool is not None and (pool.ndim != 2 or pool.size == 0 or pool.shape[0] != dim):
            raise DataFormatError(f"anchor pool of shape {pool.shape} does not hold anchors "
                                  f"of modality {m}'s {dim} dimensions", offset=start)
        pools.append((start, pool))
    return pools


def _write_kernel(w, kc, idx):
    """A kernel record: its kind code and constants, then its anchors as
    indices ``idx`` into its modality's pool."""
    w.u8(_KERNEL_CODES[None if kc is None else kc.kind])
    if kc is None:
        return
    if kc.kind == "rbf":
        w.f64(kc.sigma)
    else:
        w.f64(kc.p)
        w.f64(kc.q)
    w.u32s(idx)


def _read_kernel(r, size):
    """A kernel record, whose indices must fall in its modality's pool of
    ``size`` anchors (None when the modality has no pool).  Returns
    ``(constants, indices)``, both None for a tree without a kernel; the
    constants are checked here, and :func:`_kernels` makes the kernels."""
    start = r.base + r.pos
    code = r.u8()
    if code == 0:
        return None, None
    if code == 1:
        consts = {"kind": "rbf", "sigma": r.f64()}
    elif code == 2:
        consts = {"kind": "polynomial", "p": r.f64(), "q": r.f64()}
    else:
        raise DataFormatError(f"unknown kernel code {code}", offset=start)
    if size is None:
        raise DataFormatError("kernel record of a modality with no anchor pool", offset=start)
    idx = r.u32s(start)
    if idx.size and idx.max() >= size:
        raise DataFormatError(f"anchor index {idx.max()} past a pool of {size}", offset=start)
    try:
        if idx.size == 0:
            raise InvalidInputError("anchors is empty")
        check_kernel_constants(**consts)
    except InvalidInputError as exc:  # no anchors, bad bandwidth or constants
        raise DataFormatError(f"bad kernel record: {exc}", offset=start) from exc
    return consts, idx


def _kernels(pools, records):
    """A tree's kernels from its kernel records (:func:`_read_kernel`), one
    ``(constants, indices)`` pair per modality.  Each kernel takes its
    anchors from its modality's :class:`AnchorPool` in ``pools`` when they
    are first read (``KernelConfig._pooled``)."""
    return tuple(None if idx is None else KernelConfig._pooled(pools[m].rows, idx, **consts)
                 for m, (consts, idx) in enumerate(records))


def _write_net(w, net):
    w.u8(len(net.layers))
    for layer in net.layers:
        w.array(layer.weight)
        w.array(layer.bias)
        w.u8(_ACT_CODES[layer.activation])


def _read_net(r):
    start = r.base + r.pos
    n_layers = r.u8()
    layers = []
    try:
        for _ in range(n_layers):
            weight = r.array()
            bias = r.array()
            act = _ACT_NAMES.get(r.u8())
            layers.append(DenseLayer(weight=weight, bias=bias, activation=act))
        return DenseNet(layers=layers)
    except InvalidInputError as exc:  # unknown activation, bad shapes, no layers
        raise DataFormatError(f"bad net record: {exc}", offset=start) from exc


def _write_node(w, node):
    w.u8(1 if node.degenerate else 0)
    if node.degenerate:
        return
    # a linear or kernel node's transform is folded into both projectors, so
    # serving never reads it and it is not stored
    w.u8(1 if node.net is not None else 0)
    if node.net is not None:
        _write_net(w, node.net)
    w.array(node.proj_pos)
    w.array(node.proj_neg)


def _read_node(r, width):
    """One node record, which must fit ``width``, the width of its tree's
    map: its kernel's anchor count, else the modality's dimension."""
    start = r.base + r.pos
    if r.u8() == 1:
        return SplitNode(degenerate=True)
    net = _read_net(r) if r.u8() else None
    proj_pos = r.array()
    proj_neg = r.array()
    if net is not None:
        if net.input_dim != width:
            raise DataFormatError(f"net takes {net.input_dim} features, not {width}",
                                  offset=start)
        width = net.output_dim
    if any(p.ndim != 2 or p.shape[1] != width for p in (proj_pos, proj_neg)):
        raise DataFormatError(f"projectors of shapes {proj_pos.shape} and {proj_neg.shape} "
                              f"do not take {width} features", offset=start)
    return SplitNode(proj_pos=proj_pos, proj_neg=proj_neg, net=net)


def _read_tree(r, sizes, feature_dims, internal):
    """One tree record: ``(seed, kernel records, nodes)`` (see
    :func:`_read_kernel`, of pools of ``sizes``, and :func:`_read_node`)."""
    seed = r.i64()
    kernels = [_read_kernel(r, size) for size in sizes]
    widths = [dim if idx is None else idx.size for dim, (_, idx) in zip(feature_dims, kernels)]
    nodes = [[_read_node(r, width) for width in widths] for _ in range(internal)]
    return seed, kernels, nodes


def _config_to_json(cfg: ForestConfig) -> str:
    return json.dumps(asdict(cfg), sort_keys=True)


def _config_from_json(text: str, offset: int) -> ForestConfig:
    """Parse the stored forest config; ``offset`` locates it for error reports."""
    try:
        d = json.loads(text)
        split = d.pop("split")
        opt = OptimizerConfig(**split.pop("optimizer"))
        net = NetConfig(**split.pop("net"))
        split["net_hidden"] = tuple(split["net_hidden"])
        return ForestConfig(split=SplitConfig(optimizer=opt, net=net, **split), **d)
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        # ValueError covers JSON syntax and InvalidInputError from the configs
        raise DataFormatError(f"bad forest config: {exc!r}", offset=offset) from exc


def save_model(forest: Forest, selection, path):
    """Write the forest and its block selection as one FHSH05 container.

    The header holds the modality count, tree count, depth, master seed,
    feature dimensions, the forest config as JSON (which states the
    learner), the selection, and per modality a flag, set when the anchor
    pool follows.  Each tree record then holds its seed, its kernel records
    (anchors as indices into the pool) and its nodes, without partitions.
    """
    w = _Writer()
    w.u8(len(forest.feature_dims))
    w.u32(forest.n_trees)
    w.u8(forest.depth)
    w.i64(forest.master_seed)
    for dim in forest.feature_dims:
        w.u32(dim)
    w.string(_config_to_json(forest.config))
    _write_selection(w, selection)
    for pool in forest.pools:
        w.u8(pool is not None)
        if pool is not None:
            w.array(pool.rows.T)
    for t, tree in enumerate(forest.trees):
        w.i64(tree.tree_seed)
        for kc, pool in zip(tree.kernels, forest.pools):
            _write_kernel(w, kc, None if kc is None else pool.indices[t])
        for per_mod in tree.nodes:
            for node in per_mod:
                _write_node(w, node)
    with open(path, "wb") as fh:
        fh.write(_finalize(MODEL_MAGIC, bytes(w.buf)))


def load_model(path):
    """Read an FHSH05 container; returns ``(forest, selection)``.

    The forest is made with the anchor pools it was read with, so it does
    not build them again; its nodes' class partitions are empty.  A pool
    that does not fit its modality, a kernel record without a pool, a net
    or projector that does not fit its tree's map, or a tree that does not
    fit the config's learner (a kernel or a net where the learner has none,
    or none where it has one) raises ``DataFormatError``; the last is
    reported at the config, which states the learner.
    """
    payload = _checked_payload(_read_file(path), MODEL_MAGIC, "model")
    r = _Reader(payload, base_offset=len(MODEL_MAGIC))
    n_modalities = r.u8()
    n_trees = r.u32()
    depth = r.u8()
    if not 2 <= depth <= 7:
        raise DataFormatError(f"tree depth {depth} outside 2..7", offset=r.base + r.pos - 1)
    master_seed = r.i64()
    feature_dims = tuple(r.u32() for _ in range(n_modalities))
    config_offset = r.base + r.pos
    config = _config_from_json(r.string(), config_offset)
    selection = _read_selection(r, n_trees)
    internal = 2 ** (depth - 1) - 1
    pools = _read_pools(r, feature_dims)
    sizes = [None if pool is None else pool.shape[1] for _, pool in pools]
    read = [_read_tree(r, sizes, feature_dims, internal) for _ in range(n_trees)]
    r.done()
    read_pools = []
    for m, (start, pool) in enumerate(pools):
        indices = [rec[m][1] for _, rec, _ in read]
        if pool is not None and all(idx is None for idx in indices):
            raise DataFormatError(f"anchor pool of modality {m} with no kernel tree", offset=start)
        read_pools.append(None if pool is None else AnchorPool.of(pool, indices))
    trees = [HashTree(depth=depth, nodes=tree_nodes, tree_seed=seed,
                      kernels=_kernels(read_pools, records), feature_dims=feature_dims)
             for seed, records, tree_nodes in read]
    try:
        forest = Forest(trees=trees, master_seed=master_seed, depth=depth,
                        feature_dims=feature_dims, config=config, read_pools=read_pools)
    except InvalidInputError as exc:  # a tree that does not fit the config's learner
        raise DataFormatError(f"bad forest: {exc}", offset=config_offset) from exc
    return forest, selection


# ---------------------------------------------------------------------------
# Codes file

def save_codes(codes: PackedCodes, labels, path):
    """Write packed codes (and optional labels) as one FHCD01 container."""
    w = _Writer()
    w.u64(len(codes))
    w.u32(codes.length)
    w.u8(1 if labels is not None else 0)
    w.buf += np.ascontiguousarray(codes.words, dtype="<u8").tobytes()
    if labels is not None:
        labels = np.asarray(labels, dtype="<i8")
        if labels.shape[0] != len(codes):
            raise InvalidInputError("labels length does not match the codes")
        w.buf += labels.tobytes()
    with open(path, "wb") as fh:
        fh.write(_finalize(CODES_MAGIC, bytes(w.buf)))


def load_codes(path):
    """Read an FHCD01 container; returns ``(codes, labels_or_None)``."""
    payload = _checked_payload(_read_file(path), CODES_MAGIC, "codes")
    r = _Reader(payload, base_offset=len(CODES_MAGIC))
    count = r.u64()
    length = r.u32()
    has_labels = r.u8()
    wpl = _words_for(length)
    words = np.frombuffer(r._take(count * wpl * 8), dtype="<u8").reshape(count, wpl)
    labels = None
    if has_labels:
        labels = np.frombuffer(r._take(count * 8), dtype="<i8").copy()
    r.done()
    # PackedCodes copies the words out of the file's bytes
    return PackedCodes(words=words, length=length), labels
