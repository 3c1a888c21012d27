"""Graph families, edge-averaged Hamiltonians, matchings."""

from __future__ import annotations

import json
import math
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction

from .diagrams import SiteOperator, pair_sum

FAMILY_TAGS = ("complete", "star", "cycle", "path", "complete_bipartite", "custom")


@dataclass(frozen=True)
class Graph:
    vertex_count: int
    edges: tuple[tuple[int, int], ...]
    family_tag: str = "custom"

    def __post_init__(self):
        if self.family_tag not in FAMILY_TAGS:
            raise ValueError(f"unknown family tag {self.family_tag!r}")
        if self.vertex_count < 0:
            raise ValueError(f"graph needs n >= 0 vertices, got n={self.vertex_count}")
        seen = set()
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < v < self.vertex_count):
                raise ValueError(f"edge ({u},{v}) out of range or not u < v")
            if (u, v) in seen:
                raise ValueError(f"duplicate edge ({u},{v})")
            seen.add((u, v))

    @property
    def edge_count(self) -> int:
        return len(self.edges)


def make_family(tag: str, n: int, m: int | None = None) -> Graph:
    """Build a named graph family: K_n, K_{1,n}, C_n, P_n, or K_{n,m}."""
    if n < 1:
        raise ValueError("need n >= 1")
    if tag == "complete":
        edges = tuple((u, v) for u in range(n) for v in range(u + 1, n))
        return Graph(n, edges, "complete")
    if tag == "star":
        # K_{1,n}: hub vertex 0 plus n leaves
        edges = tuple((0, v) for v in range(1, n + 1))
        return Graph(n + 1, edges, "star")
    if tag == "cycle":
        if n < 3:
            raise ValueError("cycle needs n >= 3")
        edges = tuple(sorted((tuple(sorted((v, (v + 1) % n))) for v in range(n))))
        return Graph(n, edges, "cycle")
    if tag == "path":
        if n < 2:
            raise ValueError("path needs n >= 2")
        edges = tuple((v, v + 1) for v in range(n - 1))
        return Graph(n, edges, "path")
    if tag == "complete_bipartite":
        if m is None or m < 1:
            raise ValueError("complete_bipartite needs m >= 1")
        edges = tuple((u, v) for u in range(n) for v in range(n, n + m))
        return Graph(n + m, edges, "complete_bipartite")
    raise ValueError(f"unknown family tag {tag!r}")


def graph_to_json(g: Graph) -> str:
    return json.dumps(
        {"n": g.vertex_count, "edges": [list(e) for e in g.edges], "family": g.family_tag}
    )


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def graph_from_json(text: str) -> Graph:
    """Parse {"n": int, "edges": [[u, v], ...], "family": tag}; ValueError on schema errors."""
    obj = json.loads(text)
    if not isinstance(obj, dict) or not _is_int(obj.get("n")):
        raise ValueError('graph JSON needs an integer "n"')
    edges = obj.get("edges")
    if not isinstance(edges, list) or not all(
        isinstance(e, list) and len(e) == 2 and all(_is_int(v) for v in e) for e in edges
    ):
        raise ValueError('graph JSON needs "edges" as a list of [u, v] integer pairs')
    return Graph(obj["n"], tuple(tuple(sorted(e)) for e in edges), obj.get("family", "custom"))


def edge_average_hamiltonian(g: Graph, op: SiteOperator) -> SiteOperator:
    """(1/|E|) sum over edges of the two-qudit op on the edge's sites, exact.

    op must be a I + b F + c W with rational a, b, c, so that edge
    orientation does not matter: a, b and c are its entries <01|op|01>,
    <01|op|10> and <00|op|11>, and any other op raises ValueError. The sum
    is one integer pair_sum, scaled once by 1/(lcm |E|), lcm the least common
    denominator of a, b and c.
    """
    if not g.edges:
        raise ValueError("graph has no edges")
    if op.n != 2:
        raise ValueError(f"need a two-qudit operator (n=2), got n={op.n}")
    d = op.d
    abc = [op.data.get(key, 0) for key in ((1, 1), (1, d), (0, d + 1))]
    lcm = math.lcm(*(x.denominator for x in abc))
    coeffs = tuple(int(x * lcm) for x in abc)
    if pair_sum([(0, 1)], 2, d, coeffs) != op * lcm:
        raise ValueError("operator is not a I + b F + c W on the pair")
    return pair_sum(g.edges, g.vertex_count, d, coeffs) * Fraction(1, lcm * g.edge_count)


Matching = tuple[tuple[int, int], ...]


def iter_perfect_matchings(g: Graph) -> Iterator[Matching]:
    """Perfect matchings one at a time, each as its (min, max) pairs in increasing order.

    Each step takes the uncovered vertex with the fewest uncovered
    neighbours, the lowest such index on a tie, and matches it to each of
    those neighbours in increasing order; a vertex with none ends its
    branch at once. On a complete graph every uncovered vertex ties, so
    the lowest is always taken; on other graphs the listing order follows
    the choices. A graph with a connected component of odd size has none
    and yields nothing, found before any search.
    """
    n = g.vertex_count
    adj = {v: set() for v in range(n)}
    for u, v in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    # the search alone would meet an odd component once per partial matching before it
    unseen = set(range(n))
    while unseen:
        stack = [unseen.pop()]
        size = 1
        while stack:
            for w in adj[stack.pop()] & unseen:
                unseen.remove(w)
                stack.append(w)
                size += 1
        if size % 2:
            return

    # free[v]: how many neighbours of v are uncovered
    free = [len(adj[v]) for v in range(n)]
    covered = [False] * n

    def set_covered(pair: tuple[int, int], flag: bool):
        for v in pair:
            covered[v] = flag
            for w in adj[v]:
                free[w] += -1 if flag else 1

    def recurse(acc: list) -> Iterator[Matching]:
        if len(acc) * 2 == n:
            yield tuple(sorted(acc))
            return
        u = min((v for v in range(n) if not covered[v]), key=free.__getitem__)
        for v in sorted(adj[u]):
            if not covered[v]:
                pair = (min(u, v), max(u, v))
                set_covered(pair, True)
                acc.append(pair)
                yield from recurse(acc)
                acc.pop()
                set_covered(pair, False)

    yield from recurse([])


def perfect_matchings(g: Graph) -> list[Matching]:
    """All perfect matchings, in the order of `iter_perfect_matchings`."""
    return list(iter_perfect_matchings(g))
