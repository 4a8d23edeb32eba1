"""Directed multigraph networks with enumerated source-sink paths.

Paths are enumerated exhaustively at construction by DFS with cycle
rejection; instances in this problem class are tiny, so the constant
``PATH_CAP`` (1e5 paths) guards against accidental blowups.  Networks are
immutable after construction and safe to share across workers.

Every sum over paths or edges is a ``math.fsum``, so edge flows, path costs
and social costs do not depend on the order of the edges or paths.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

from .costs import CostFunction, cost_from_spec, cost_to_spec
from .errors import DomainError, GameError

PATH_CAP = 100_000

FEASIBILITY_RTOL = 1e-12


class Edge(NamedTuple):
    id: str
    tail: str
    head: str


@dataclass(frozen=True)
class Network:
    """Single source-destination multigraph with per-edge cost functions."""

    vertices: tuple[str, ...]
    edges: tuple[Edge, ...]
    costs: tuple[CostFunction, ...]
    source: str
    sink: str
    paths: tuple[tuple[int, ...], ...] = field(default=())

    def __post_init__(self):
        if len(self.edges) != len(self.costs):
            raise DomainError("one cost function per edge is required")
        if self.source not in self.vertices or self.sink not in self.vertices:
            raise DomainError("source and sink must be listed vertices")
        for e in self.edges:
            if e.tail not in self.vertices or e.head not in self.vertices:
                raise DomainError(f"edge {e.id} references unknown vertices")
        if not self.paths:
            object.__setattr__(self, "paths", _enumerate_paths(self))
        if not self.paths:
            raise GameError(f"no {self.source}->{self.sink} path exists")

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @property
    def n_paths(self) -> int:
        return len(self.paths)

    def is_parallel(self) -> bool:
        """Every edge runs from the source to the sink (decided once)."""
        return self._parallel

    @cached_property
    def _parallel(self) -> bool:
        return all(e.tail == self.source and e.head == self.sink for e in self.edges)

    @cached_property
    def _links_are_paths(self) -> bool:
        """Path i is edge i alone, as ``build_parallel`` lists them: a sum over a
        path or an edge has one term v, whose fsum is float(v) + 0.0 (-0.0
        reads 0.0).  Paths listed in another order are summed over ``through``."""
        return self.paths == tuple((e,) for e in range(self.n_edges))

    @cached_property
    def through(self) -> tuple[tuple[int, ...], ...]:
        """For each edge, the indices of the paths that use it."""
        through = [[] for _ in self.edges]
        for i, p in enumerate(self.paths):
            for e in p:
                through[e].append(i)
        return tuple(map(tuple, through))

    @cached_property
    def canonical(self) -> tuple[tuple[int, ...], Network]:
        """The order of the paths by their (tail, head, id) edge sequences,
        and a copy of the network that lists its paths in that order: an
        iteration over it does not depend on the order of the edges."""
        edges = self.edges
        order = tuple(sorted(range(self.n_paths),
                             key=lambda i: [(edges[e].tail, edges[e].head, edges[e].id) for e in self.paths[i]]))
        return order, Network(self.vertices, edges, self.costs, self.source, self.sink,
                              paths=tuple(self.paths[i] for i in order))

    @cached_property
    def marginal(self) -> Network:
        """The network whose edge costs are the marginals (x c(x))', with the
        same paths; UnsupportedCostError where a cost has no marginal."""
        return Network(self.vertices, self.edges, tuple(c.marginal_function() for c in self.costs),
                       self.source, self.sink, paths=self.paths)

    def edge_sums(self, path_values) -> list[float]:
        """For each edge, the sum of ``path_values`` over the paths through it."""
        if self._links_are_paths:
            return [float(v) + 0.0 for v in path_values]
        return [math.fsum(map(path_values.__getitem__, t)) for t in self.through]

    def path_cost(self, path_index: int, edge_flow) -> float:
        return math.fsum(self.costs[e].eval(edge_flow[e]) for e in self.paths[path_index])

    def path_entry_cost(self, path_index: int, edge_flow) -> float:
        """Cost faced by an infinitesimal player joining the path (right limits)."""
        return math.fsum(self.costs[e].eval_right(edge_flow[e]) for e in self.paths[path_index])


def _enumerate_paths(net: Network) -> tuple[tuple[int, ...], ...]:
    out_edges: dict[str, list[int]] = {v: [] for v in net.vertices}
    for i, e in enumerate(net.edges):
        out_edges[e.tail].append(i)

    paths: list[tuple[int, ...]] = []
    stack: list[int] = []
    visited: set[str] = {net.source}

    def walk(v: str) -> None:
        if v == net.sink:
            paths.append(tuple(stack))
            if len(paths) > PATH_CAP:
                raise GameError(
                    f"path enumeration exceeded cap of {PATH_CAP}; "
                    "this solver targets small instances"
                )
            return
        for i in out_edges[v]:
            head = net.edges[i].head
            if head in visited:
                continue  # cycle rejection
            visited.add(head)
            stack.append(i)
            walk(head)
            stack.pop()
            visited.remove(head)

    walk(net.source)
    return tuple(paths)


def build_parallel(costs: list[CostFunction] | tuple[CostFunction, ...]) -> Network:
    """Two-vertex network with one parallel edge per cost function."""
    costs = tuple(costs)
    if not costs:
        raise DomainError("a parallel network needs at least one edge")
    edges = tuple(Edge(f"e{i + 1}", "s", "t") for i in range(len(costs)))
    return Network(("s", "t"), edges, costs, "s", "t")


@dataclass(frozen=True)
class FlowProfile:
    """Per-path flows summing to the total demand M."""

    path_flows: tuple[float, ...]
    total: float

    def __post_init__(self):
        flows = tuple(float(f) for f in self.path_flows)
        object.__setattr__(self, "path_flows", flows)
        if any(f < 0 for f in flows):
            raise DomainError("path flows must be nonnegative")
        s = math.fsum(flows)
        if abs(s - self.total) > FEASIBILITY_RTOL * abs(self.total):
            raise DomainError(
                f"infeasible flow: sum {s!r} != total {self.total!r}"
            )


def edge_flows(net: Network, flow: FlowProfile) -> list[float]:
    """x_e as the sum of flows of the paths through e."""
    if len(flow.path_flows) != net.n_paths:
        raise DomainError(
            f"flow has {len(flow.path_flows)} entries for {net.n_paths} paths"
        )
    return net.edge_sums(flow.path_flows)


def social_cost(net: Network, flow: FlowProfile) -> float:
    """Total travel cost sum_e x_e c_e(x_e) of a feasible flow."""
    x = edge_flows(net, flow)
    return math.fsum(xe * c.eval(xe) for c, xe in zip(net.costs, x))


# ---------------------------------------------------------------------------
# JSON wire format
# ---------------------------------------------------------------------------


def network_from_spec(spec: dict) -> Network:
    try:
        vertices = tuple(str(v) for v in spec["vertices"])
        edges = []
        costs = []
        for e in spec["edges"]:
            edges.append(Edge(str(e["id"]), str(e["tail"]), str(e["head"])))
            costs.append(cost_from_spec(e["cost"]))
        return Network(
            vertices, tuple(edges), tuple(costs), str(spec["source"]), str(spec["sink"])
        )
    except KeyError as exc:
        raise DomainError(f"network spec missing field {exc}") from None
    except GameError:
        raise
    except (TypeError, ValueError, AttributeError) as exc:
        raise DomainError(f"malformed network spec: {exc}") from None


def network_to_spec(net: Network) -> dict:
    return {
        "vertices": list(net.vertices),
        "edges": [
            {"id": e.id, "tail": e.tail, "head": e.head, "cost": cost_to_spec(c)}
            for e, c in zip(net.edges, net.costs)
        ],
        "source": net.source,
        "sink": net.sink,
    }


def load_network(path: str) -> Network:
    with open(path, "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    return network_from_spec(spec)
