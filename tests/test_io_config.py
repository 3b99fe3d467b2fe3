"""File formats and configuration validation."""

import json
import tracemalloc
import types
import typing
from dataclasses import fields, is_dataclass, replace

import numpy as np
import pytest

import nia.data
from nia import (
    HardInstanceSpec,
    InvalidConfig,
    InvalidGraph,
    NiaError,
    cyclic_path_assignment,
    generate_hard_instance,
    run_protocol,
)
from nia.cli import main
from nia.config import (
    ExperimentConfig,
    GraphConfig,
    InstanceConfig,
    ScanConfig,
    VerifyConfig,
    load_config,
    parse_config,
)
from nia.io import (
    SCAN_FIELDS,
    TRACE_FIELDS,
    LogitSpill,
    read_dataset_file,
    read_graph_file,
    read_logit_dump,
    sha256_file,
    write_csv,
    write_dataset_file,
    write_graph_file,
    write_logit_dump,
    write_trace_csv,
)


@pytest.fixture()
def small_dataset():
    return generate_hard_instance(HardInstanceSpec(k=3, n=64, seed=1))


def _dump_streaming_run(path, dataset, graph):
    """Write the logit dump of a run through a spill; return the columns a
    second run published, stacked in topological order."""
    with LogitSpill(str(path.parent)) as spill:
        run_protocol(dataset, graph, publish=spill.write)
        write_logit_dump(str(path), spill)
    columns = {}
    order = run_protocol(dataset, graph, publish=columns.__setitem__).order
    return np.column_stack([columns[a] for a in order])


class TestDatasetFormat:
    def test_roundtrip(self, small_dataset, tmp_path):
        path = str(tmp_path / "data.nia")
        write_dataset_file(path, small_dataset)
        loaded = read_dataset_file(path)
        assert np.array_equal(loaded.features, small_dataset.features)
        assert np.array_equal(loaded.labels, small_dataset.labels)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_write_read_write_gives_identical_bytes(self, tmp_path, order, monkeypatch):
        # Row blocks of 1000 rows leave a short last block.
        monkeypatch.setattr(nia.data, "BLOCK_BYTES", 8 * 3 * 1000)
        ds = generate_hard_instance(HardInstanceSpec(k=3, n=2_500, seed=7))
        ds = nia.Dataset(features=np.asarray(ds.features, order=order), labels=ds.labels)
        first, second = tmp_path / "a.nia", tmp_path / "b.nia"
        digest = write_dataset_file(str(first), ds)
        loaded = read_dataset_file(str(first))
        assert loaded.features.flags.f_contiguous
        assert digest == write_dataset_file(str(second), loaded)
        assert first.read_bytes() == second.read_bytes()
        assert digest == sha256_file(str(first))

    def test_empty_dataset_roundtrip(self, tmp_path):
        path = str(tmp_path / "empty.nia")
        write_dataset_file(path, nia.Dataset(features=np.zeros((0, 3)), labels=np.zeros(0)))
        loaded = read_dataset_file(path)
        assert loaded.features.shape == (0, 3) and loaded.labels.shape == (0,)

    def test_bytes_deterministic(self, small_dataset, tmp_path):
        paths = [tmp_path / "a.nia", tmp_path / "b.nia"]
        for path in paths:
            write_dataset_file(str(path), small_dataset)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_header_layout(self, small_dataset, tmp_path):
        path = tmp_path / "data.nia"
        write_dataset_file(str(path), small_dataset)
        raw = path.read_bytes()
        assert raw[:4] == b"NIA1"
        n = int.from_bytes(raw[4:12], "little")
        d = int.from_bytes(raw[12:20], "little")
        assert (n, d) == (small_dataset.n, small_dataset.d)
        assert len(raw) == 20 + 8 * n * d + n
        body = small_dataset.features.astype("<f8").tobytes() + small_dataset.labels.astype(np.uint8).tobytes()
        assert raw[20:] == body

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.nia"
        path.write_bytes(b"XXXX" + b"\0" * 32)
        with pytest.raises(NiaError):
            read_dataset_file(str(path))

    def test_truncated_rejected(self, small_dataset, tmp_path):
        path = tmp_path / "cut.nia"
        write_dataset_file(str(path), small_dataset)
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(NiaError):
            read_dataset_file(str(path))

    @pytest.mark.parametrize("length", [4, 12, 19])
    def test_shorter_than_header_rejected(self, small_dataset, tmp_path, length):
        path = tmp_path / "cut.nia"
        write_dataset_file(str(path), small_dataset)
        path.write_bytes(path.read_bytes()[:length])
        with pytest.raises(NiaError, match="truncated dataset file"):
            read_dataset_file(str(path))

    def test_read_holds_one_copy_of_the_data(self, tmp_path):
        path = str(tmp_path / "data.nia")
        write_dataset_file(path, generate_hard_instance(HardInstanceSpec(k=8, n=100_000, seed=1)))
        tracemalloc.start()
        try:
            ds = read_dataset_file(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Reading the whole file first, or copying the features out of it,
        # would hold the features twice.
        assert peak <= 1.25 * (ds.features.nbytes + ds.labels.nbytes)

    def test_sha256_matches_content(self, small_dataset, tmp_path):
        import hashlib

        path = tmp_path / "data.nia"
        write_dataset_file(str(path), small_dataset)
        assert sha256_file(str(path)) == hashlib.sha256(path.read_bytes()).hexdigest()


class TestGraphFormat:
    def test_roundtrip(self, tmp_path):
        g = cyclic_path_assignment(3, 5)
        path = str(tmp_path / "graph.json")
        write_graph_file(path, g, d=3)
        loaded, d = read_graph_file(path)
        assert d == 3
        assert loaded.topo_order == g.topo_order
        assert loaded.feature_sets == g.feature_sets
        assert loaded.parents == g.parents

    def test_indices_are_one_based_on_disk(self, tmp_path):
        g = cyclic_path_assignment(2, 2)
        path = tmp_path / "graph.json"
        write_graph_file(str(path), g, d=2)
        obj = json.loads(path.read_text())
        assert obj["agents"][0] == {"id": 1, "features": [1], "parents": []}
        assert obj["agents"][1] == {"id": 2, "features": [2], "parents": [1]}

    def test_malformed_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"agents": []}))
        with pytest.raises(NiaError):
            read_graph_file(str(path))

    def test_non_consecutive_ids_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps({"d": 1, "agents": [{"id": 2, "features": [1], "parents": []}]})
        )
        with pytest.raises(NiaError):
            read_graph_file(str(path))

    @pytest.mark.parametrize(
        "obj",
        [
            {"d": 2, "agents": [{"id": True, "features": [True], "parents": []}]},
            {"d": 2, "agents": [{"id": 1, "features": [True], "parents": []}]},
            {"d": True, "agents": [{"id": 1, "features": [1], "parents": []}]},
            {"d": 2, "agents": [{"id": 1, "features": [1], "parents": []},
                                {"id": 2, "features": [2], "parents": [True]}]},
        ],
        ids=["id", "feature", "d", "parent"],
    )
    def test_booleans_rejected(self, tmp_path, obj):
        # JSON true is not agent or feature 1.
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        with pytest.raises(InvalidGraph, match="must be an integer, got True"):
            read_graph_file(str(path))


class TestTraceAndScanCsv:
    def test_trace_columns_and_rows(self, small_dataset, tmp_path):
        trace = run_protocol(small_dataset, cyclic_path_assignment(3, 4))
        path = tmp_path / "trace.csv"
        write_trace_csv(str(path), trace)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == ",".join(TRACE_FIELDS)
        assert len(lines) == 5
        first = lines[1].split(",")
        assert first[0] == "1" and first[1] == "1"

    def test_float_fields_roundtrip(self, tmp_path):
        rows = [{k: None for k in SCAN_FIELDS}]
        rows[0].update(config_hash="abc", k=2, D=4, M=2, p=2, seed=1, n=10,
                       sink_loss=0.1234567890123456789, global_loss=0.1,
                       excess=2.34e-17, upper_bound=1.0, lower_shape=1 / 3)
        path = tmp_path / "scan.csv"
        write_csv(str(path), rows, SCAN_FIELDS)
        header, row = path.read_text().strip().splitlines()
        values = dict(zip(header.split(","), row.split(",")))
        assert float(values["sink_loss"]) == 0.1234567890123456789
        assert float(values["excess"]) == 2.34e-17
        assert values["error"] == ""

    def test_logit_dump_layout(self, small_dataset, tmp_path):
        path = tmp_path / "logits.bin"
        matrix = _dump_streaming_run(path, small_dataset, cyclic_path_assignment(3, 4))
        raw = path.read_bytes()
        n = int.from_bytes(raw[:8], "little")
        depth = int.from_bytes(raw[8:16], "little")
        assert (n, depth) == (small_dataset.n, 4)
        assert raw[16:] == np.ascontiguousarray(matrix, dtype="<f8").tobytes()
        assert np.array_equal(read_logit_dump(str(path)), matrix)

    def test_logit_dump_bytes_do_not_depend_on_block_rows(self, tmp_path, monkeypatch):
        # 20000 rows of 4 columns in blocks of one row (a block buffer of
        # fewer bytes than a row still takes one), of 8192 rows (two full
        # ones and a partial last one) and of more rows than the columns.
        # Only the dump runs under each budget; the run's fits keep theirs.
        n, depth = 20_000, 4
        ds = generate_hard_instance(HardInstanceSpec(k=3, n=n, seed=1))
        graph = cyclic_path_assignment(3, depth)
        path = tmp_path / "logits.bin"
        columns = {}
        with LogitSpill(str(tmp_path)) as spill:

            def publish(agent, column):
                spill.write(agent, column)
                columns[agent] = column

            order = run_protocol(ds, graph, publish=publish).order
            matrix = np.column_stack([columns[a] for a in order])
            want = n.to_bytes(8, "little") + depth.to_bytes(8, "little") + matrix.astype("<f8").tobytes()
            for block_bytes in (1, 8 * depth * 8192, 8 * depth * (n + 1)):
                monkeypatch.setattr(nia.data, "BLOCK_BYTES", block_bytes)
                write_logit_dump(str(path), spill)
                assert path.read_bytes() == want, block_bytes

    @pytest.mark.parametrize(
        "cut",
        [lambda raw: raw[:0], lambda raw: raw[:15], lambda raw: raw[:-3], lambda raw: raw + b"\0"],
        ids=["empty", "inside-header", "inside-matrix", "extra-byte"],
    )
    def test_logit_dump_of_wrong_length_rejected(self, small_dataset, tmp_path, cut):
        path = tmp_path / "logits.bin"
        _dump_streaming_run(path, small_dataset, cyclic_path_assignment(3, 4))
        path.write_bytes(cut(path.read_bytes()))
        with pytest.raises(NiaError, match="logit dump has"):
            read_logit_dump(str(path))

    @pytest.mark.parametrize(
        "lengths, message",
        [((), "at least one column"), ((5, 5, 4), "columns of one length")],
        ids=["no-columns", "unequal-lengths"],
    )
    def test_logit_dump_of_malformed_spill_rejected(self, tmp_path, lengths, message):
        with LogitSpill(str(tmp_path)) as spill:
            for agent, length in enumerate(lengths, start=1):
                spill.write(agent, np.zeros(length))
            with pytest.raises(NiaError, match=message):
                write_logit_dump(str(tmp_path / "logits.bin"), spill)
        assert list(tmp_path.iterdir()) == []


class TestConfig:
    def test_defaults(self):
        cfg = parse_config({})
        assert cfg.instance.kind == "hard"
        assert cfg.solver.grad_tol == 1e-10
        assert cfg.dump_logits is False

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(InvalidConfig):
            parse_config({"instancee": {}})

    def test_threads_is_an_unknown_key(self, tmp_path, capsys):
        # The worker count is the scan command's --threads flag only.
        with pytest.raises(InvalidConfig, match=r"unknown key\(s\) in config: \['threads'\]"):
            parse_config({"threads": 2})
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"threads": 2, "scan": {"depths": [2]}}))
        assert main(["scan", "--config", str(path)]) == 2
        assert "unknown key(s) in config: ['threads']" in capsys.readouterr().err

    def test_unknown_nested_key_rejected(self):
        with pytest.raises(InvalidConfig):
            parse_config({"solver": {"gradtol": 1e-6}})

    @pytest.mark.parametrize(
        "section, key",
        [("verify", "decomposition_grad_tol"), ("verify", "decomposition_perturbations"),
         ("verify", "noise_scale"), ("scan", "passes")],
    )
    def test_removed_key_is_unknown(self, section, key):
        # Constants of the verify suites now, and a second spelling of scan.depths.
        with pytest.raises(InvalidConfig) as info:
            parse_config({section: {key: 1}})
        assert str(info.value) == f"unknown key(s) in {section}: ['{key}']"

    def test_settable_keys_are_listed(self):
        # Every config value callers may set; a new key is an edit here.
        listed = {
            "instance.kind", "instance.k", "instance.n", "instance.seeds", "instance.dataset",
            "graph.cyclic_depth", "graph.file", "graph.m",
            "solver.grad_tol", "solver.max_iters",
            "scan.depths", "scan.windows",
            "verify.seed", "verify.k", "verify.depth", "verify.n_protocol",
            "verify.n_decomposition", "verify.pinsker_trials", "verify.noise_samples",
            "out_dir", "dump_logits",
        }

        def keys(cls, prefix=""):
            hints = typing.get_type_hints(cls)
            for f in fields(cls):
                tp = hints[f.name]
                if typing.get_origin(tp) is types.UnionType:  # X | None
                    tp = typing.get_args(tp)[0]
                if is_dataclass(tp):
                    yield from keys(tp, f"{prefix}{f.name}.")
                else:
                    yield prefix + f.name

        assert len(listed) == 21
        assert set(keys(ExperimentConfig)) == listed

    def test_k_below_two_rejected(self):
        with pytest.raises(InvalidConfig):
            parse_config({"instance": {"kind": "hard", "k": 1}})

    def test_duplicate_seeds_rejected(self):
        with pytest.raises(InvalidConfig):
            parse_config({"instance": {"seeds": [1, 1]}})

    def test_empty_scan_grids_rejected(self):
        with pytest.raises(InvalidConfig):
            parse_config({"scan": {}})
        with pytest.raises(InvalidConfig):
            parse_config({"scan": {"depths": []}})

    def test_graph_needs_exactly_one_source(self):
        with pytest.raises(InvalidConfig):
            parse_config({"graph": {}})
        with pytest.raises(InvalidConfig):
            parse_config({"graph": {"cyclic_depth": 4, "file": "g.json"}})

    def test_missing_graph_file_rejected(self, tmp_path):
        with pytest.raises(InvalidConfig):
            parse_config({"graph": {"file": str(tmp_path / "absent.json")}})

    def test_relative_paths_resolve_against_config_dir(self, tmp_path):
        g = cyclic_path_assignment(2, 2)
        write_graph_file(str(tmp_path / "g.json"), g, d=2)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"graph": {"file": "g.json"}}))
        cfg = load_config(str(cfg_path))
        assert cfg.graph.file == str(tmp_path / "g.json")
        assert cfg.out_dir == str(tmp_path / "out")

    def test_config_hash_stable_under_key_order(self):
        a = parse_config({"instance": {"k": 4, "n": 10}, "dump_logits": True})
        b = parse_config({"dump_logits": True, "instance": {"n": 10, "k": 4}})
        assert a.config_hash() == b.config_hash()

    def test_config_hash_changes_with_content(self):
        a = parse_config({"instance": {"k": 4}})
        b = parse_config({"instance": {"k": 5}})
        assert a.config_hash() != b.config_hash()

    def test_malformed_json_reported(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{not json")
        with pytest.raises(InvalidConfig):
            load_config(str(path))

    def test_negative_seed_rejected(self):
        with pytest.raises(InvalidConfig):
            parse_config({"instance": {"seeds": [-1]}})

    def test_seed_above_128_bits_rejected(self):
        top = 2**128 - 1
        cfg = parse_config({"instance": {"seeds": [top]}, "verify": {"seed": top}})
        assert cfg.instance.seeds == (top,) and cfg.verify.seed == top
        with pytest.raises(InvalidConfig, match="instance.seeds"):
            parse_config({"instance": {"seeds": [1, top + 1]}})
        with pytest.raises(InvalidConfig, match="verify.seed"):
            parse_config({"verify": {"seed": top + 1}})

    @pytest.mark.parametrize(
        "obj, key",
        [
            ({"instance": {"k": "abc"}}, "instance.k"),
            ({"instance": {"seeds": 5}}, "instance.seeds"),
            ({"instance": 5}, "instance"),
            ({"scan": {"depths": 8}}, "scan.depths"),
            ({"graph": {"cyclic_depth": "x"}}, "graph.cyclic_depth"),
            ({"verify": {"k": "x"}}, "verify.k"),
            ({"threads": "two"}, "threads"),
            ({"solver": {"max_iters": 0}}, "solver"),
            ({"solver": {"grad_tol": float("nan")}}, "solver"),
            ({"instance": {"k": 4.7}}, "instance.k"),
            ({"instance": {"seeds": [1.5]}}, "instance.seeds"),
            ({"scan": {"depths": [8.9]}}, "scan.depths"),
            ({"solver": {"grad_tol": "nan"}}, "solver.grad_tol"),
            ({"solver": {"grad_tol": 0}}, "solver: grad_tol"),
            ({"solver": {"grad_tol": -float("inf")}}, "solver: grad_tol"),
            ({"instance": {"n": "100"}}, "instance.n"),
            ({"instance": {"n": True}}, "instance.n"),
            ({"solver": {"grad_tol": "1e-3"}}, "solver.grad_tol"),
            ({"scan": {"depths": ["4"]}}, "scan.depths"),
            ({"threads": True}, "threads"),
            ({"solver": {"grad_tol": float("inf")}}, "solver: grad_tol"),
            ({"instance": {"kind": "hard", "dataset": "x.nia"}}, "instance.dataset"),
        ],
    )
    def test_malformed_value_is_invalid_config(self, tmp_path, capsys, obj, key):
        with pytest.raises(InvalidConfig, match=key):
            parse_config(obj)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(obj))
        assert main(["verify", "--config", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["false", "true", 0, 1, None])
    def test_dump_logits_takes_json_booleans_only(self, flag):
        with pytest.raises(InvalidConfig, match="dump_logits"):
            parse_config({"dump_logits": flag})

    @pytest.mark.parametrize(
        "obj",
        [
            {},
            {"solver": {"grad_tol": 1e-10, "max_iters": 100}},
            {"instance": {"kind": "hard", "k": 4, "n": 100000, "seeds": [1]},
             "dump_logits": False, "out_dir": "elsewhere"},
            {"instance": {"k": 4.0}},
        ],
    )
    def test_default_config_hash_pinned(self, obj):
        # Written defaults hash like absent ones; a change to the hash breaks
        # the comparison of reports with earlier runs.
        assert parse_config(obj).config_hash() == "7d3c20c2237c"
        assert ExperimentConfig().config_hash() == "7d3c20c2237c"

    @pytest.mark.parametrize(
        "build",
        [
            lambda: InstanceConfig(seeds=(1, 1)),
            lambda: InstanceConfig(kind="file"),
            lambda: GraphConfig(),
            lambda: ScanConfig(depths=(0,)),
            lambda: replace(InstanceConfig(), seeds=(-1,)),
            lambda: replace(VerifyConfig(), noise_samples=1),
        ],
        ids=["duplicate_seeds", "file_without_dataset", "no_graph_source", "zero_depth",
             "replace_negative_seed", "replace_single_noise_sample"],
    )
    def test_programmatic_construction_is_checked(self, build):
        with pytest.raises(InvalidConfig):
            build()
