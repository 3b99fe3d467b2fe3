"""File formats and configuration validation."""

import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import nia.io
from nia import (
    HardInstanceSpec,
    InvalidConfig,
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


class TestDatasetFormat:
    def test_roundtrip(self, small_dataset, tmp_path):
        path = str(tmp_path / "data.nia")
        write_dataset_file(path, small_dataset)
        loaded = read_dataset_file(path)
        assert np.array_equal(loaded.features, small_dataset.features)
        assert np.array_equal(loaded.labels, small_dataset.labels)

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
        trace = run_protocol(small_dataset, cyclic_path_assignment(3, 4))
        path = str(tmp_path / "logits.bin")
        write_logit_dump(path, trace)
        raw = open(path, "rb").read()
        n = int.from_bytes(raw[:8], "little")
        depth = int.from_bytes(raw[8:16], "little")
        assert (n, depth) == (small_dataset.n, 4)
        matrix = np.column_stack([trace.logits[a] for a in trace.order])
        assert raw[16:] == np.ascontiguousarray(matrix, dtype="<f8").tobytes()
        assert np.array_equal(read_logit_dump(path), matrix)

    def test_logit_dump_bytes_do_not_depend_on_block_rows(self, small_dataset, tmp_path, monkeypatch):
        # 64 rows in 7-row blocks: nine full blocks and a partial last one.
        trace = run_protocol(small_dataset, cyclic_path_assignment(3, 4))
        write_logit_dump(str(tmp_path / "one_block.bin"), trace)
        monkeypatch.setattr(nia.io, "LOGIT_DUMP_BLOCK_ROWS", 7)
        write_logit_dump(str(tmp_path / "blocks.bin"), trace)
        assert (tmp_path / "blocks.bin").read_bytes() == (tmp_path / "one_block.bin").read_bytes()

    @pytest.mark.parametrize(
        "cut",
        [lambda raw: raw[:0], lambda raw: raw[:15], lambda raw: raw[:-3], lambda raw: raw + b"\0"],
        ids=["empty", "inside-header", "inside-matrix", "extra-byte"],
    )
    def test_logit_dump_of_wrong_length_rejected(self, small_dataset, tmp_path, cut):
        trace = run_protocol(small_dataset, cyclic_path_assignment(3, 4))
        path = tmp_path / "logits.bin"
        write_logit_dump(str(path), trace)
        path.write_bytes(cut(path.read_bytes()))
        with pytest.raises(NiaError, match="logit dump has"):
            read_logit_dump(str(path))

    def test_logit_dump_of_streaming_run_rejected(self, small_dataset, tmp_path):
        trace = run_protocol(small_dataset, cyclic_path_assignment(3, 4), keep_logits=False)
        with pytest.raises(NiaError, match="keep_logits"):
            write_logit_dump(str(tmp_path / "logits.bin"), trace)


class TestConfig:
    def test_defaults(self):
        cfg = parse_config({})
        assert cfg.instance.kind == "hard"
        assert cfg.solver.grad_tol == 1e-10
        assert cfg.threads == 1

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(InvalidConfig):
            parse_config({"instancee": {}})

    def test_unknown_nested_key_rejected(self):
        with pytest.raises(InvalidConfig):
            parse_config({"solver": {"gradtol": 1e-6}})

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
        a = parse_config({"instance": {"k": 4, "n": 10}, "threads": 2})
        b = parse_config({"threads": 2, "instance": {"n": 10, "k": 4}})
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
            ({"solver": {"ridge": "nan"}}, "solver"),
            ({"instance": {"k": 4.7}}, "instance.k"),
            ({"instance": {"seeds": [1.5]}}, "instance.seeds"),
            ({"scan": {"depths": [8.9]}}, "scan.depths"),
            ({"verify": {"noise_scale": "nan"}}, "verify.noise_scale"),
            ({"verify": {"decomposition_perturbations": 0}}, "verify.decomposition_perturbations"),
            ({"verify": {"decomposition_grad_tol": 0}}, "verify.decomposition_grad_tol"),
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
            {"solver": {"grad_tol": 1e-10, "max_iters": 100, "ridge": 0, "backtrack": 0.5,
                        "init_step": 1}},
            {"instance": {"kind": "hard", "k": 4, "n": 100000, "seeds": [1]},
             "threads": 1, "dump_logits": False},
            {"instance": {"k": 4.0}},
        ],
    )
    def test_default_config_hash_pinned(self, obj):
        # Written defaults hash like absent ones; a change to the hash breaks
        # the comparison of reports with earlier runs.
        assert parse_config(obj).config_hash() == "6e06e0204a88"
        assert ExperimentConfig().config_hash() == "6e06e0204a88"

    @pytest.mark.parametrize(
        "build",
        [
            lambda: InstanceConfig(seeds=(1, 1)),
            lambda: InstanceConfig(kind="file"),
            lambda: GraphConfig(),
            lambda: ScanConfig(depths=(0,)),
            lambda: ExperimentConfig(threads=0),
            lambda: replace(InstanceConfig(), seeds=(-1,)),
            lambda: replace(VerifyConfig(), noise_samples=1),
        ],
        ids=["duplicate_seeds", "file_without_dataset", "no_graph_source", "zero_depth",
             "zero_threads", "replace_negative_seed", "replace_single_noise_sample"],
    )
    def test_programmatic_construction_is_checked(self, build):
        with pytest.raises(InvalidConfig):
            build()
