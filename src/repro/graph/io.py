"""Serialisation of graphs to and from edge lists and JSON documents.

The base relation of the disconnection set approach is, at the database level,
just a table of ``(source, target, weight)`` tuples; these helpers move a
:class:`~repro.graph.digraph.DiGraph` between that tabular form, JSON files on
disk, and the in-memory object.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Hashable, Union

from .coordinates import Point
from .digraph import DiGraph

Node = Hashable
PathLike = Union[str, Path]


def to_dict(graph: DiGraph) -> Dict[str, object]:
    """Return a JSON-serialisable dictionary describing the graph.

    Node identities are preserved as-is when they are strings or integers and
    stringified otherwise.
    """
    def encode(node: Node) -> object:
        return node if isinstance(node, (str, int)) else repr(node)

    return {
        "nodes": [encode(node) for node in graph.nodes()],
        "edges": [
            {"source": encode(s), "target": encode(t), "weight": w}
            for s, t, w in graph.weighted_edges()
        ],
        "coordinates": {
            str(encode(node)): [point.x, point.y] for node, point in graph.coordinates().items()
        },
    }


def from_dict(document: Dict[str, object]) -> DiGraph:
    """Rebuild a graph from the dictionary produced by :func:`to_dict`.

    Integer-looking string node names are restored to integers so that a
    round trip through JSON (whose object keys are always strings) preserves
    integer node identities.
    """
    def decode(value: object) -> Node:
        if isinstance(value, str) and value.lstrip("-").isdigit():
            return int(value)
        return value  # type: ignore[return-value]

    graph = DiGraph()
    for node in document.get("nodes", []):  # type: ignore[union-attr]
        graph.add_node(decode(node))
    for edge in document.get("edges", []):  # type: ignore[union-attr]
        graph.add_edge(decode(edge["source"]), decode(edge["target"]), float(edge.get("weight", 1.0)))
    for name, xy in document.get("coordinates", {}).items():  # type: ignore[union-attr]
        graph.set_coordinate(decode(name), Point(float(xy[0]), float(xy[1])))
    return graph


def save_json(graph: DiGraph, path: PathLike) -> None:
    """Write the graph to ``path`` as a JSON document."""
    Path(path).write_text(json.dumps(to_dict(graph), indent=2, sort_keys=True))


def load_json(path: PathLike) -> DiGraph:
    """Read a graph previously written by :func:`save_json`."""
    return from_dict(json.loads(Path(path).read_text()))
