"""File formats: dataset binary, graph JSON, trace/scan CSV, logit dumps.

Dataset binary layout: magic "NIA1", u64 n, u64 d (little endian), n*d
row-major float64 feature values, then n label bytes (0/1). All files are
written atomically (temp file + rename).
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

# Rows per block of the logit dump: 0.5 MB per column, so a block stays small
# next to the columns it is cut from.
LOGIT_DUMP_BLOCK_ROWS = 1 << 16

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
    ``parts`` is consumed lazily, so a generator holds one part at a time."""
    directory = os.path.dirname(os.path.abspath(path))
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


def atomic_write_text(path: str, text: str) -> None:
    atomic_write_bytes(path, (text.encode("utf-8"),))


def write_json(path: str, obj) -> None:
    atomic_write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def write_dataset_file(path: str, dataset: Dataset) -> None:
    atomic_write_bytes(
        path,
        (
            DATASET_MAGIC + struct.pack("<QQ", dataset.n, dataset.d),
            np.ascontiguousarray(dataset.features, dtype="<f8"),
            dataset.labels.astype(np.uint8),
        ),
    )


def read_dataset_file(path: str) -> Dataset:
    """Dataset of a binary dataset file; the header and the file size are
    checked before anything is allocated, and the features are read straight
    into the array the dataset keeps."""
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
        feats = np.fromfile(fh, dtype="<f8", count=n * d).reshape(n, d)
        labels = np.fromfile(fh, dtype=np.uint8, count=n)
    return Dataset(features=feats, labels=labels)


def graph_to_json_obj(graph: AgentGraph, d: int) -> dict:
    return {
        "d": d,
        "agents": [
            {
                "id": a,
                "features": sorted(graph.feature_set(a)),
                "parents": list(graph.parents_of(a)),
            }
            for a in range(1, graph.num_agents + 1)
        ],
    }


def _json_ints(value, where: str) -> list[int]:
    if not isinstance(value, list):
        raise InvalidGraph(f"{where} must be a JSON list, got {value!r}")
    return [checked_int(x, where) for x in value]


def graph_from_json_obj(obj: dict) -> tuple[AgentGraph, int]:
    """Graph and feature count ``d`` from a parsed graph file; a malformed
    description raises a NiaError (InvalidGraph, or the graph checks' own
    errors)."""
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


def write_graph_file(path: str, graph: AgentGraph, d: int) -> None:
    write_json(path, graph_to_json_obj(graph, d))


def read_graph_file(path: str) -> tuple[AgentGraph, int]:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except ValueError as exc:  # not JSON, or not UTF-8
            raise InvalidGraph(f"{path}: {exc}") from exc
    return graph_from_json_obj(obj)


def trace_csv_rows(trace: ProtocolTrace) -> list[dict]:
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
    return rows


def write_csv(path: str, rows: Iterable[dict], fields: tuple[str, ...]) -> None:
    import io as _io

    buf = _io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fields, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: _fmt(row[k]) if row[k] is not None else "" for k in fields})
    atomic_write_text(path, buf.getvalue())


def write_trace_csv(path: str, trace: ProtocolTrace) -> None:
    write_csv(path, trace_csv_rows(trace), TRACE_FIELDS)


def write_logit_dump(path: str, trace: ProtocolTrace) -> None:
    """Flat binary dump of all logit columns: u64 n, u64 D, then the n x D
    column-per-agent matrix (topological order) row-major as little-endian
    float64.

    The matrix is written in row blocks cut from the columns, so the dump
    never holds an n x D copy. The trace must come from a run that kept its
    columns (``run_protocol(..., keep_logits=True)``).
    """
    if len(trace.logits) != len(trace.order):
        raise NiaError("logit dump needs every column; run the protocol with keep_logits=True")
    columns = [trace.logits[a] for a in trace.order]
    n = columns[0].shape[0]

    def blocks():
        for start in range(0, n, LOGIT_DUMP_BLOCK_ROWS):
            rows = slice(start, start + LOGIT_DUMP_BLOCK_ROWS)
            yield np.stack([col[rows] for col in columns], axis=1).astype("<f8", copy=False)

    atomic_write_bytes(path, itertools.chain([struct.pack("<QQ", n, len(columns))], blocks()))


def read_logit_dump(path: str) -> np.ndarray:
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 16:
        raise NiaError(f"{path}: logit dump has {len(raw)} bytes, expected at least 16")
    n, depth = struct.unpack_from("<QQ", raw, 0)
    expected = 16 + 8 * n * depth
    if len(raw) != expected:
        raise NiaError(f"{path}: logit dump has {len(raw)} bytes, expected {expected}")
    return np.frombuffer(raw, dtype="<f8", count=n * depth, offset=16).reshape(n, depth)
