"""Graphviz (DOT) export with stable, reproducible naming.

Vertex names: "v{i}" on a base complex, "v{state}_{vertex}" on a covering,
"p{vertex}_{element}" on a derived bundle.  Edges are labeled by base edge
id, plus the voltage label where one applies.
"""

from __future__ import annotations

from .bundles import DerivedBundle
from .connections import Voltage
from .covers import CoveringComplex


def _quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _digraph(name: str, nodes: list[str], edges: list[tuple[str, str, str]]) -> str:
    lines = [f"digraph {name} {{"]
    for n in nodes:
        lines.append(f"  {_quote(n)};")
    for tail, head, label in edges:
        lines.append(f"  {_quote(tail)} -> {_quote(head)} [label={_quote(label)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def complex_dot(v: Voltage) -> str:
    """The voltage's complex, each edge labeled with its voltage value."""
    c, label = v.complex, v.group.label
    nodes = [f"v{i}" for i in range(c.vertex_count)]
    edges = [(f"v{e.tail}", f"v{e.head}", f"e{e.id} {label(v.on_edge(e.id))}") for e in c.edges]
    return _digraph("base", nodes, edges)


def cover_dot(cov: CoveringComplex) -> str:
    base = cov.base
    V, E = base.vertex_count, len(base.edges)
    nodes = [f"v{idx // V}_{idx % V}" for idx in range(cov.total.vertex_count)]
    edges = [(nodes[e.tail], nodes[e.head], f"e{base.edges[e.id % E].id}") for e in cov.total.edges]
    return _digraph("cover", nodes, edges)


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


def bundle_dot(d: DerivedBundle) -> str:
    return _bundle_digraph(d, "bundle", range(d.graph.vertex_count))


def holonomy_bundle_dot(d: DerivedBundle) -> str:
    """The component of the basepoint lift: the holonomy bundle."""
    return _bundle_digraph(d, "holonomy_bundle", d.components[d._sheet_component[0]])
