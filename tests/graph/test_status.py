"""Unit tests for the center (status) score of Sec. 3.1."""

import pytest

from repro.generators import chain_graph, star_graph
from repro.graph import DiGraph, rank_by_status, status_scores, top_candidates


class TestStatusScore:
    def test_star_center_scores_highest(self):
        graph = star_graph(6)
        ranking = rank_by_status(graph)
        assert ranking[0] == 0

    def test_chain_middle_scores_higher_than_end(self):
        graph = chain_graph(7)
        scores = status_scores(graph)
        assert scores[3] > scores[0]
        assert scores[3] > scores[6]

    def test_star_scores_follow_the_paper_formula(self):
        # a = 0.5: the center sees five leaves of grade 1 one ring out; a leaf
        # sees the center (grade 5) one ring out and four leaves two out.
        scores = status_scores(star_graph(5))
        assert scores[0] == 5 + 0.5 * 5
        assert scores[1] == 1 + 0.5 * 5 + 0.25 * 4

    def test_rings_beyond_the_third_do_not_count(self):
        # On a chain, node 0 sees nodes 1-3 (grades 2, 2, 2) and not node 4.
        scores = status_scores(chain_graph(9))
        assert scores[0] == 1 + 0.5 * 2 + 0.25 * 2 + 0.125 * 2

    def test_isolated_node_scores_zero(self):
        graph = DiGraph(nodes=["lonely"])
        assert status_scores(graph)["lonely"] == 0.0

    def test_scores_cover_every_node(self):
        graph = chain_graph(5)
        assert set(status_scores(graph)) == set(graph.nodes())


class TestRankingAndCandidates:
    def test_ranking_is_deterministic(self):
        graph = chain_graph(9)
        assert rank_by_status(graph) == rank_by_status(graph)

    def test_top_candidates_size(self):
        graph = chain_graph(20)
        pool = top_candidates(graph, 2, pool_factor=3.0)
        assert len(pool) == 6

    def test_top_candidates_zero_count(self):
        graph = chain_graph(5)
        assert list(top_candidates(graph, 0)) == []

    def test_top_candidates_contains_best_node(self):
        graph = star_graph(8)
        assert 0 in top_candidates(graph, 1)
