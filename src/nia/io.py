"""File formats: dataset binary, graph JSON, trace/scan CSV, logit dumps.

Dataset binary layout: magic "NIA1", u64 n, u64 d (little endian), n*d
row-major float64 feature values, then n label bytes (0/1). Datasets keep
their features column-major, so the features are written and read in row
blocks of at most ``BLOCK_BYTES``. All files are written atomically (temp
file + rename).
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import os
import struct
import tempfile
from typing import Iterable

import numpy as np

from .data import Dataset
from .errors import InvalidGraph, NiaError
from .graph import AgentGraph, build_agent_graph, checked_int
from .protocol import ProtocolTrace

DATASET_MAGIC = b"NIA1"

# Bytes per block buffer of the dataset reader and writer and of the logit
# dump (it holds two), so their memory does not grow with the data's width.
BLOCK_BYTES = 1 << 20

TRACE_FIELDS = ("agent_id", "topo_pos", "loss", "grad_norm", "converged", "l1_weight_norm")

SCAN_FIELDS = (
    "config_hash",
    "k",
    "D",
    "M",
    "p",
    "seed",
    "n",
    "sink_loss",
    "global_loss",
    "excess",
    "upper_bound",
    "lower_shape",
    "error",
)


def _fmt(x) -> str:
    """Round-trippable text for floats; plain str otherwise."""
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def atomic_write_bytes(path: str, parts: Iterable) -> None:
    """Write the buffers ``parts`` one after another to ``path``, atomically;
    each part is anything ``write`` accepts (bytes, a contiguous array).
    ``parts`` is consumed lazily, so a generator holds one part at a time.
    A missing parent directory is created."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "wb") as fh:
            for part in parts:
                fh.write(part)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path: str, obj) -> None:
    atomic_write_bytes(path, ((json.dumps(obj, indent=2, sort_keys=True) + "\n").encode("utf-8"),))


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _block_rows(n: int, d: int) -> int:
    """Rows per block of an n x d float64 matrix: at most ``BLOCK_BYTES``,
    or one row when a row is larger."""
    return max(1, min(n, BLOCK_BYTES // (8 * max(d, 1))))


def write_dataset_file(path: str, dataset: Dataset) -> str:
    """Write ``dataset`` to a binary dataset file, its features in row
    blocks copied to one buffer; returns the sha256 hex digest of the bytes
    written, which ``sha256_file(path)`` would give."""
    n, d = dataset.n, dataset.d
    rows = _block_rows(n, d)
    buf = np.empty((rows, d), dtype="<f8")
    digest = hashlib.sha256()

    def parts():
        # Each part is hashed and written before the next one overwrites buf.
        yield DATASET_MAGIC + struct.pack("<QQ", n, d)
        for start in range(0, n, rows):
            block = dataset.features[start : start + rows]
            buf[: len(block)] = block
            yield buf[: len(block)]
        yield dataset.labels.astype(np.uint8)

    def hashed(parts):
        for part in parts:
            digest.update(part)
            yield part

    atomic_write_bytes(path, hashed(parts()))
    return digest.hexdigest()


def read_dataset_file(path: str) -> Dataset:
    """Dataset of a binary dataset file; the header and the file size are
    checked before anything is allocated, and the row-major features are
    read in row blocks into the column-major array the dataset keeps."""
    offset = 4 + 16
    with open(path, "rb") as fh:
        head = fh.read(offset)
        if head[:4] != DATASET_MAGIC:
            raise NiaError(f"{path}: bad magic, not a dataset file")
        size = os.fstat(fh.fileno()).st_size
        if len(head) < offset:
            raise NiaError(f"{path}: truncated dataset file ({size} bytes, expected at least {offset})")
        n, d = struct.unpack_from("<QQ", head, 4)
        expected = offset + 8 * n * d + n
        if size != expected:
            raise NiaError(f"{path}: truncated dataset file ({size} bytes, expected {expected})")
        feats = np.empty((n, d), order="F")
        rows = _block_rows(n, d)
        buf = np.empty((rows, d), dtype="<f8")
        labels = np.empty(n, dtype=np.uint8)
        for start in range(0, n, rows):
            block = feats[start : start + rows]
            part = buf[: len(block)]
            if fh.readinto(part) != part.nbytes:
                raise NiaError(f"{path}: dataset file shrank while it was read")
            block[...] = part
        if fh.readinto(labels) != n:
            raise NiaError(f"{path}: dataset file shrank while it was read")
    return Dataset(features=feats, labels=labels)


def _json_ints(value, where: str) -> list[int]:
    if not isinstance(value, list):
        raise InvalidGraph(f"{where} must be a JSON list, got {value!r}")
    return [checked_int(x, where) for x in value]


def write_graph_file(path: str, graph: AgentGraph, d: int) -> None:
    agents = [
        {"id": a, "features": sorted(graph.feature_set(a)), "parents": list(graph.parents_of(a))}
        for a in range(1, graph.num_agents + 1)
    ]
    write_json(path, {"d": d, "agents": agents})


def read_graph_file(path: str) -> tuple[AgentGraph, int]:
    """Graph and feature count ``d`` of a graph file; a malformed file raises
    a NiaError (InvalidGraph, or the graph checks' own errors)."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except ValueError as exc:  # not JSON, or not UTF-8
            raise InvalidGraph(f"{path}: {exc}") from exc
    try:
        d = checked_int(obj["d"], "d")
        agents = obj["agents"]
        by_id = {checked_int(a["id"], "agent id"): a for a in agents}
        n = len(agents)
        if sorted(by_id) != list(range(1, n + 1)):
            raise InvalidGraph("graph file must use consecutive agent ids 1..N")
        feature_sets = [_json_ints(by_id[i]["features"], f"agent {i} features") for i in range(1, n + 1)]
        edges = [
            (p, i) for i in range(1, n + 1) for p in _json_ints(by_id[i]["parents"], f"agent {i} parents")
        ]
    except (KeyError, TypeError) as exc:
        raise InvalidGraph(f"malformed graph description: {exc}") from exc
    return build_agent_graph(edges, feature_sets, d), d


def write_csv(path: str, rows: Iterable[dict], fields: tuple[str, ...]) -> None:
    import io as _io

    buf = _io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fields, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: _fmt(row[k]) if row[k] is not None else "" for k in fields})
    atomic_write_bytes(path, (buf.getvalue().encode("utf-8"),))


def write_trace_csv(path: str, trace: ProtocolTrace) -> None:
    rows = []
    for pos, agent_id in enumerate(trace.order, start=1):
        model = trace.models[agent_id]
        rows.append(
            {
                "agent_id": agent_id,
                "topo_pos": pos,
                "loss": model.loss,
                "grad_norm": model.grad_norm,
                "converged": model.converged,
                "l1_weight_norm": model.l1_norm,
            }
        )
    write_csv(path, rows, TRACE_FIELDS)


class LogitSpill:
    """Logit columns appended, in the order written, to an unnamed temporary
    file as raw little-endian float64, for ``write_logit_dump``.

    ``write`` has the signature of ``run_protocol``'s ``publish``. The first
    ``write`` creates ``directory`` if needed and opens the file there. The
    file has no name, so nothing is left behind even if the process dies;
    close the spill (or use it in a ``with`` statement) to free its disk space.
    """

    def __init__(self, directory: str) -> None:
        self.directory = directory
        self.file = None
        self.lengths: list[int] = []

    def write(self, agent_id: int, column: np.ndarray) -> None:
        if self.file is None:
            os.makedirs(self.directory, exist_ok=True)
            self.file = tempfile.TemporaryFile(dir=self.directory)
        column = np.ascontiguousarray(column, dtype="<f8")
        self.file.write(column)
        self.lengths.append(column.size)

    def close(self) -> None:
        if self.file is not None:
            self.file.close()

    def __enter__(self) -> LogitSpill:
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def write_logit_dump(path: str, spill: LogitSpill) -> None:
    """Flat binary dump of the spilled logit columns: u64 n, u64 D, then the
    n x D matrix with one column per spilled column (in spill order, which a
    protocol run makes topological) row-major as little-endian float64.

    The matrix is built in row blocks read back from the spill with one
    ``os.preadv`` per column segment, so the dump holds two block buffers of
    at most ``BLOCK_BYTES`` each (more only when one row is larger),
    whatever n and D are. Until the spill is closed, disk holds the
    columns twice.
    """
    lengths = spill.lengths
    if not lengths:
        raise NiaError("logit dump needs at least one column")
    n, depth = lengths[0], len(lengths)
    if any(length != n for length in lengths):
        raise NiaError(f"logit dump needs columns of one length, got lengths {sorted(set(lengths))}")
    spill.file.flush()
    fd = spill.file.fileno()
    rows = _block_rows(n, depth)
    segments = np.empty((depth, rows), dtype="<f8")  # one column's rows each
    block = np.empty((rows, depth), dtype="<f8")

    def blocks():
        # Each yielded block is written before the next one overwrites it.
        for start in range(0, n, rows):
            m = min(rows, n - start)
            for j in range(depth):
                os.preadv(fd, [segments[j, :m]], 8 * (j * n + start))
            block[:m] = segments[:, :m].T
            yield block[:m]

    atomic_write_bytes(path, itertools.chain([struct.pack("<QQ", n, depth)], blocks()))


def read_logit_dump(path: str) -> np.ndarray:
    """n x D matrix of a logit dump; the header and the file size are checked
    before the matrix is read straight into the array returned."""
    with open(path, "rb") as fh:
        head = fh.read(16)
        size = os.fstat(fh.fileno()).st_size
        if len(head) < 16:
            raise NiaError(f"{path}: logit dump has {size} bytes, expected at least 16")
        n, depth = struct.unpack("<QQ", head)
        expected = 16 + 8 * n * depth
        if size != expected:
            raise NiaError(f"{path}: logit dump has {size} bytes, expected {expected}")
        return np.fromfile(fh, dtype="<f8", count=n * depth).reshape(n, depth)
