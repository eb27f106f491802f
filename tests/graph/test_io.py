"""Unit tests for graph serialisation."""

import pytest

from repro.graph import DiGraph, Point, from_dict, load_json, save_json, to_dict


class TestDictAndJson:
    def test_dict_roundtrip_with_coordinates(self):
        graph = DiGraph([(1, 2, 3.0)])
        graph.set_coordinate(1, Point(0.5, 1.5))
        graph.set_coordinate(2, Point(2.0, 0.0))
        rebuilt = from_dict(to_dict(graph))
        assert rebuilt == graph
        assert rebuilt.coordinate(1) == Point(0.5, 1.5)

    def test_integer_nodes_survive_roundtrip(self):
        graph = DiGraph([(10, 20, 1.0)])
        rebuilt = from_dict(to_dict(graph))
        assert rebuilt.has_edge(10, 20)

    def test_json_file_roundtrip(self, tmp_path):
        graph = DiGraph([("amsterdam", "utrecht", 4.0)])
        graph.set_coordinate("amsterdam", Point(4.9, 52.4))
        graph.set_coordinate("utrecht", Point(5.1, 52.1))
        path = tmp_path / "graph.json"
        save_json(graph, path)
        assert load_json(path) == graph

    def test_isolated_nodes_survive(self):
        graph = DiGraph(nodes=["only"])
        rebuilt = from_dict(to_dict(graph))
        assert rebuilt.has_node("only")
        assert rebuilt.edge_count() == 0
