"""Graphviz (DOT) export with stable, reproducible naming.

Vertex names: "v{i}" on a base complex, "v{state}_{vertex}" on a covering,
"p{vertex}_{element}" on a derived bundle.  Edges are labeled by base edge
id, plus the voltage label where one applies.
"""

from __future__ import annotations

from typing import Optional

from .bundles import DerivedBundle
from .complexes import BaseComplex
from .connections import Voltage
from .covers import CoveringComplex


def _quote(s: str) -> str:
    return '"' + s.replace('"', '\\"') + '"'


def _digraph(name: str, nodes: list[str], edges: list[tuple[str, str, str]]) -> str:
    lines = [f"digraph {name} {{"]
    for n in nodes:
        lines.append(f"  {_quote(n)};")
    for tail, head, label in edges:
        lines.append(f"  {_quote(tail)} -> {_quote(head)} [label={_quote(label)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def complex_dot(c: BaseComplex, voltage: Optional[Voltage] = None, name: str = "base") -> str:
    nodes = [f"v{i}" for i in range(c.vertex_count)]
    edges = []
    for e in c.edges:
        label = f"e{e.id}"
        if voltage is not None:
            label += f" {voltage.group.label(voltage.on_edge(e.id))}"
        edges.append((f"v{e.tail}", f"v{e.head}", label))
    return _digraph(name, nodes, edges)


def cover_dot(cov: CoveringComplex, name: str = "cover") -> str:
    V = cov.base.vertex_count
    nodes = [f"v{idx // V}_{idx % V}" for idx in range(cov.total.vertex_count)]
    edges = []
    for e in cov.total.edges:
        label = f"e{cov.edge_to_base[e.id]}"
        edges.append((nodes[e.tail], nodes[e.head], label))
    return _digraph(name, nodes, edges)


def _lift_label(d: DerivedBundle, eid: int) -> str:
    base_edge = d.base.edges[d.edge_pair(eid)[0]]
    return f"e{base_edge.id} {d.group.label(d.voltage.on_edge(base_edge.id))}"


def _bundle_digraph(d: DerivedBundle, name: str, vertices) -> str:
    """The given bundle vertices (ascending) and the lifts whose tail lies
    among them, in lifted-edge id order."""
    n = d.group.order
    nodes = {idx: f"p{idx // n}_{idx % n}" for idx in vertices}
    edges = [(nodes[e.tail], nodes[e.head], _lift_label(d, e.id)) for e in d.graph.edges if e.tail in nodes]
    return _digraph(name, list(nodes.values()), edges)


def bundle_dot(d: DerivedBundle, name: str = "bundle") -> str:
    return _bundle_digraph(d, name, range(d.graph.vertex_count))


def holonomy_bundle_dot(d: DerivedBundle, name: str = "holonomy_bundle") -> str:
    """The component of the basepoint lift: the holonomy bundle."""
    return _bundle_digraph(d, name, d.components[d._sheet_component[0]])
