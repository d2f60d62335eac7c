"""Graph helpers that only the tests use.

They are written against the public complex and map interfaces and share no
lookup structure with the library, so the tests that use them stay
independent oracles.
"""

from flatconn.errors import ComplexError


def lift_path(m, w, start):
    """The unique lift of a target path starting at a given source vertex,
    read through a per-vertex end index built here."""
    end_index = [dict() for _ in range(m.source.vertex_count)]
    for e in m.source.edges:
        end_index[e.tail][(m.edge_map[e.id], 1)] = e.id
        end_index[e.head][(m.edge_map[e.id], -1)] = e.id
    cur = start
    lifted = []
    for eid, sign in w:
        try:
            src_edge = end_index[cur][(eid, sign)]
        except KeyError:
            raise ComplexError(f"no lift of edge {eid} (sign {sign}) at source vertex {cur}") from None
        lifted.append((src_edge, sign))
        cur = m.source.step_endpoints((src_edge, sign))[1]
    return tuple(lifted)


def covering_degree(m):
    """Number of sheets: the size of the fiber over the target basepoint."""
    return sum(1 for v in m.vertex_map if v == m.target.basepoint)


def left_translation(d, g):
    """Vertex permutation (v, x) -> (v, g * x) of a derived bundle; an
    automorphism over the base."""
    n = d.group.order
    row = d.group.product[g]
    return tuple((idx // n) * n + row[idx % n] for idx in range(d.graph.vertex_count))


def graph_diameter(c):
    """Diameter of the underlying undirected graph of a connected complex."""
    neighbors = [set() for _ in range(c.vertex_count)]
    for e in c.edges:
        neighbors[e.tail].add(e.head)
        neighbors[e.head].add(e.tail)
    diameter = 0
    for start in range(c.vertex_count):
        dist = {start: 0}
        frontier = [start]
        while frontier:
            nxt = []
            for v in frontier:
                for u in neighbors[v]:
                    if u not in dist:
                        dist[u] = dist[v] + 1
                        nxt.append(u)
            frontier = nxt
        diameter = max(diameter, max(dist.values()))
    return diameter
