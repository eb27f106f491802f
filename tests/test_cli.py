"""Tests for the command-line interface (python -m repro ...)."""

import json

import pytest

from repro.cli import main
from repro.generators import chain_graph, grid_graph
from repro.graph import load_json, save_json
from repro.graph.shortest_path import shortest_path_length


@pytest.fixture
def graph_file(tmp_path):
    """Generate a small transportation graph JSON via the CLI itself."""
    path = tmp_path / "graph.json"
    exit_code = main(
        [
            "generate", str(path),
            "--kind", "transportation",
            "--clusters", "3",
            "--nodes", "8",
            "--seed", "5",
        ]
    )
    assert exit_code == 0
    return path


class TestGenerate:
    def test_generate_transportation(self, graph_file, capsys):
        graph = load_json(graph_file)
        assert graph.node_count() == 24
        assert graph.has_coordinates()

    def test_generate_random(self, tmp_path, capsys):
        path = tmp_path / "random.json"
        exit_code = main(["generate", str(path), "--kind", "random", "--nodes", "30", "--seed", "1"])
        assert exit_code == 0
        assert load_json(path).node_count() == 30


class TestFragment:
    def test_fragment_with_named_algorithm(self, graph_file, capsys, tmp_path):
        output = tmp_path / "fragmentation.json"
        exit_code = main(
            ["fragment", str(graph_file), "--algorithm", "linear", "--fragments", "3",
             "--output", str(output)]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "linear" in captured.out
        document = json.loads(output.read_text())
        assert document["algorithm"] == "linear"
        assert len(document["fragments"]) >= 2

    def test_fragment_with_advisor(self, graph_file, capsys):
        exit_code = main(["fragment", str(graph_file), "--algorithm", "auto", "--fragments", "3"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "advisor" in captured.out
        assert "DS" in captured.out


class TestQuery:
    def test_query_cost(self, graph_file, capsys):
        exit_code = main(
            ["query", str(graph_file), "0", "20", "--algorithm", "center-distributed", "--fragments", "3"]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "cost:" in captured.out
        assert "fragment chain:" in captured.out

    def test_query_with_route(self, graph_file, capsys):
        exit_code = main(
            ["query", str(graph_file), "0", "20", "--algorithm", "linear", "--fragments", "3", "--route"]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "route:" in captured.out

    @pytest.mark.parametrize("extra", [[], ["--route"]], ids=["cost", "route"])
    def test_query_answers_a_pair_whose_chain_plan_is_cut(self, tmp_path, capsys, extra):
        # More than 32 fragment chains connect the corners: the border graph
        # plans none and answers exactly.
        graph = grid_graph(12, 12)
        path = tmp_path / "grid.json"
        save_json(graph, path)
        exit_code = main(
            ["query", str(path), "0", "143", "--algorithm", "center", "--fragments", "9"] + extra
        )
        captured = capsys.readouterr()
        assert exit_code == 0 and captured.err == ""
        assert f"cost: {shortest_path_length(graph, 0, 143)}" in captured.out

    @pytest.mark.parametrize("extra", [[], ["--route"]], ids=["cost", "route"])
    def test_an_unreachable_pair_prints_no_path(self, tmp_path, capsys, extra):
        path = tmp_path / "one-way.json"
        save_json(chain_graph(10, symmetric=False), path)
        exit_code = main(
            ["query", str(path), "9", "0", "--algorithm", "linear", "--fragments", "2"] + extra
        )
        captured = capsys.readouterr()
        assert exit_code == 1
        assert captured.out.strip() == "no path"
        assert captured.err == ""

    def test_query_unknown_node_reports_error(self, graph_file, capsys):
        exit_code = main(
            ["query", str(graph_file), "0", "no-such-node", "--algorithm", "linear", "--fragments", "2"]
        )
        assert exit_code == 2
        assert "error" in capsys.readouterr().err


class TestExperimentCommand:
    def test_experiment_table1(self, capsys):
        exit_code = main(["experiment", "table1", "--trials", "1", "--seed", "2"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "bond-energy" in captured.out


@pytest.fixture
def snapshot_dir(graph_file, tmp_path, capsys):
    """Prepare a snapshot of the generated graph via the CLI itself."""
    path = tmp_path / "snapshot"
    exit_code = main(
        ["snapshot", str(graph_file), str(path), "--algorithm", "linear", "--fragments", "3"]
    )
    capsys.readouterr()
    assert exit_code == 0
    return path


class TestSnapshotCommand:
    def test_snapshot_writes_manifest_and_payload(self, snapshot_dir, capsys):
        assert (snapshot_dir / "manifest.json").is_file()
        assert (snapshot_dir / "payload.bin").is_file()

    def test_snapshot_prints_characteristics(self, graph_file, tmp_path, capsys):
        exit_code = main(["snapshot", str(graph_file), str(tmp_path / "s"), "--algorithm", "linear"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "version:" in captured.out
        assert "complementary_facts:" in captured.out


class TestBatchQueryCommand:
    def test_batch_query_from_snapshot(self, snapshot_dir, capsys):
        exit_code = main(["batch-query", str(snapshot_dir), "0:20", "0:20", "1:15", "--stats"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "loaded snapshot" in captured.out
        assert "0 -> 20" in captured.out
        assert "duplicate_queries_saved: 1" in captured.out

    def test_batch_query_from_graph_json(self, graph_file, capsys):
        exit_code = main(
            ["batch-query", str(graph_file), "0:20", "--algorithm", "linear", "--fragments", "3"]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "0 -> 20" in captured.out

    def test_batch_query_from_queries_file(self, snapshot_dir, tmp_path, capsys):
        queries = tmp_path / "queries.json"
        queries.write_text(json.dumps([[0, 20], [1, 15]]))
        exit_code = main(["batch-query", str(snapshot_dir), "--queries", str(queries)])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "1 -> 15" in captured.out

    def test_batch_query_requires_queries(self, snapshot_dir, capsys):
        exit_code = main(["batch-query", str(snapshot_dir)])
        assert exit_code == 2
        assert "no queries" in capsys.readouterr().err


class TestWorkloadCommands:
    """``batch-query``, ``stats`` and ``profile`` load one workload one way."""

    @pytest.mark.parametrize("command", ["batch-query", "stats", "profile"])
    def test_pairs_and_queries_file_are_read_alike(self, command, snapshot_dir, tmp_path, capsys):
        queries = tmp_path / "queries.json"
        queries.write_text(json.dumps([[0, 20], ["1", 15]]))
        assert main([command, str(snapshot_dir), "--queries", str(queries)]) == 0
        from_file = capsys.readouterr().out
        assert main([command, str(snapshot_dir), "0:20", "1:15"]) == 0
        from_pairs = capsys.readouterr().out
        assert from_file and from_pairs
        if command == "batch-query":
            assert from_file == from_pairs and "1 -> 15: value" in from_pairs
        assert main([command, str(snapshot_dir), "0-20"]) == 2
        assert "not of the form SOURCE:TARGET" in capsys.readouterr().err

    def test_stats_renders_each_format(self, snapshot_dir, capsys):
        assert main(["stats", str(snapshot_dir), "0:20", "0:20"]) == 0
        text = capsys.readouterr().out
        assert "batched_queries: 2" in text and "evaluated_latency_p50: " in text
        assert main(["stats", str(snapshot_dir), "0:20", "--format", "json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["stats"]["queries"] == 1 and "metrics" in document
        assert main(["stats", str(snapshot_dir), "0:20", "--format", "prometheus"]) == 0
        assert "# TYPE repro_queries_total counter" in capsys.readouterr().out

    def test_stats_health_prints_what_the_healthz_verb_prints(
        self, snapshot_dir, monkeypatch, capsys
    ):
        import io

        assert main(["stats", str(snapshot_dir), "0:20", "--health"]) == 0
        one_shot = capsys.readouterr().out.splitlines()
        monkeypatch.setattr("sys.stdin", io.StringIO("query 0 20\nhealthz\nquit\n"))
        assert main(["serve", str(snapshot_dir)]) == 0
        served = capsys.readouterr().out.splitlines()
        served = served[served.index("ok") : served.index("# bye")]
        assert one_shot[:2] == ["ok", "pool: in-process (0/0 workers alive)"]
        # Same renderer: same lines, up to the error rates the two runs measured.
        assert [line.split(":")[0] for line in one_shot] == [
            line.split(":")[0] for line in served
        ]

    def test_profile_prints_the_report(self, snapshot_dir, capsys):
        assert main(["profile", str(snapshot_dir), "0:20", "--repeat", "2"]) == 0
        assert capsys.readouterr().out.startswith("samples: ")


class TestServeCommand:
    def _serve(self, monkeypatch, capsys, source, script):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(script))
        exit_code = main(["serve", str(source)])
        return exit_code, capsys.readouterr()

    def test_serve_query_loop(self, snapshot_dir, monkeypatch, capsys):
        exit_code, captured = self._serve(
            monkeypatch, capsys, snapshot_dir, "query 0 20\nquery 0 20\nstats\nquit\n"
        )
        assert exit_code == 0
        assert captured.out.count("0 -> 20") == 2
        assert "(cached)" in captured.out
        assert "hit_rate: 0.5" in captured.out

    def test_serve_update_invalidates(self, snapshot_dir, monkeypatch, capsys):
        script = "query 0 20\nupdate 0 20 2.5\nquery 0 20\nquit\n"
        exit_code, captured = self._serve(monkeypatch, capsys, snapshot_dir, script)
        assert exit_code == 0
        assert "updated; fragment" in captured.out
        assert "value 2.5" in captured.out

    def test_serve_snapshot_command(self, snapshot_dir, tmp_path, monkeypatch, capsys):
        target = tmp_path / "resnap"
        exit_code, captured = self._serve(
            monkeypatch, capsys, snapshot_dir, f"snapshot {target}\nquit\n"
        )
        assert exit_code == 0
        assert (target / "manifest.json").is_file()

    def test_serve_refuses_a_v1_snapshot_by_its_format_tag(self, snapshot_dir, monkeypatch, capsys):
        import pickle

        def no_unpickling(*args, **kwargs):  # pragma: no cover - the point is it never runs
            raise AssertionError("a snapshot load must never unpickle")

        # A directory as the pickle-based format wrote it.
        manifest = json.loads((snapshot_dir / "manifest.json").read_text())
        manifest["format"] = "repro-snapshot-v1"
        (snapshot_dir / "manifest.json").write_text(json.dumps(manifest))
        (snapshot_dir / "payload.bin").unlink()
        (snapshot_dir / "payload.pkl").write_bytes(pickle.dumps({"nodes": [0, 1]}))
        monkeypatch.setattr(pickle, "loads", no_unpickling)
        exit_code, captured = self._serve(monkeypatch, capsys, snapshot_dir, "quit\n")
        assert exit_code == 2
        assert "repro-snapshot-v1" in captured.err and "Traceback" not in captured.err

    def test_serve_placement_names_an_in_process_service_for_what_it_is(
        self, snapshot_dir, monkeypatch, capsys
    ):
        exit_code, captured = self._serve(monkeypatch, capsys, snapshot_dir, "placement\nquit\n")
        assert exit_code == 0
        assert "placement: in-process" in captured.out
        assert "replicated" not in captured.out

    def test_serve_reports_bad_commands(self, snapshot_dir, monkeypatch, capsys):
        # Bad lines (unknown commands, bad weights, unknown nodes) must not
        # take the long-lived server down.
        script = "bogus\nupdate 0 20 notanumber\nquery 0 no-such-node\nquery 0 20\nquit\n"
        exit_code, captured = self._serve(monkeypatch, capsys, snapshot_dir, script)
        assert exit_code == 0
        assert "unrecognised command" in captured.out
        assert "could not convert" in captured.out
        assert "0 -> 20: value" in captured.out

    def test_batch_query_rejects_non_snapshot_directory(self, tmp_path, capsys):
        exit_code = main(["batch-query", str(tmp_path), "0:20"])
        assert exit_code == 2
        assert "not a snapshot" in capsys.readouterr().err

    def test_batch_query_rejects_missing_source(self, tmp_path, capsys):
        exit_code = main(["batch-query", str(tmp_path / "nowhere.json"), "0:20"])
        assert exit_code == 2
        assert "does not exist" in capsys.readouterr().err
