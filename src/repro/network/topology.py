"""Grid topologies.

The paper assumes "a hierarchical network topology much like that envisioned
by the GriPhyN project" (§5.1): a tier-0 root (CERN in the HEP picture),
regional centers below it, and leaf sites (universities/labs) below those.
Only leaf sites host users, processors, and storage in the paper's
configuration; interior nodes are pure routers.

:class:`Topology` wraps a :mod:`networkx` graph whose edges carry
:class:`~repro.network.link.Link` objects, and exposes builders for the
hierarchical layout plus flat (star) and random layouts used in extension
experiments.
"""

from __future__ import annotations

import itertools
import random
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

import networkx as nx

from repro.network.link import Link


class Topology:
    """An undirected graph of sites and routers joined by links.

    Node names are strings.  *Site* nodes (``is_site=True``) can host
    storage/compute; router nodes only forward traffic.
    """

    def __init__(self) -> None:
        self.graph = nx.Graph()
        self._links: Dict[FrozenSet[str], Link] = {}
        #: ``neighbors_of_site`` answers per (site, max_hops); cleared
        #: whenever a node or link is added.
        self._neighbors: Dict[Tuple[str, int], List[str]] = {}

    # -- construction --------------------------------------------------------

    def add_node(self, name: str, is_site: bool = True) -> None:
        """Add a site or router node."""
        if name in self.graph:
            raise ValueError(f"duplicate node {name!r}")
        self.graph.add_node(name, is_site=is_site)
        self._neighbors.clear()

    def add_link(self, a: str, b: str, capacity_mbps: float) -> Link:
        """Connect two existing nodes with a link of the given capacity."""
        for n in (a, b):
            if n not in self.graph:
                raise ValueError(f"unknown node {n!r}")
        if a == b:
            raise ValueError(f"self-link on {a!r}")
        key = frozenset((a, b))
        if key in self._links:
            raise ValueError(f"duplicate link {a!r}-{b!r}")
        link = Link(a, b, capacity_mbps)
        self._links[key] = link
        self.graph.add_edge(a, b, link=link)
        self._neighbors.clear()
        return link

    # -- queries -------------------------------------------------------------

    @property
    def nodes(self) -> List[str]:
        """All node names."""
        return list(self.graph.nodes)

    @property
    def sites(self) -> List[str]:
        """Names of site (non-router) nodes, in insertion order."""
        return [n for n, d in self.graph.nodes(data=True) if d["is_site"]]

    @property
    def links(self) -> List[Link]:
        """All links."""
        return list(self._links.values())

    def link_between(self, a: str, b: str) -> Link:
        """The link joining two adjacent nodes."""
        try:
            return self._links[frozenset((a, b))]
        except KeyError:
            raise KeyError(f"no link between {a!r} and {b!r}") from None

    def is_site(self, name: str) -> bool:
        """Whether ``name`` is a site node."""
        return bool(self.graph.nodes[name]["is_site"])

    def degree(self, name: str) -> int:
        """Number of links incident to ``name``."""
        return self.graph.degree[name]

    def validate(self) -> None:
        """Check the topology is connected and has at least one site."""
        if self.graph.number_of_nodes() == 0:
            raise ValueError("empty topology")
        if not nx.is_connected(self.graph):
            raise ValueError("topology is not connected")
        if not self.sites:
            raise ValueError("topology has no site nodes")

    # -- builders ------------------------------------------------------------

    @classmethod
    def hierarchical(
        cls,
        n_sites: int,
        bandwidth_mbps: float,
        branching: int = 6,
        backbone_multiplier: float = 1.0,
    ) -> "Topology":
        """Build the GriPhyN-style tree the paper assumes.

        A tier-0 root router, ``ceil(n_sites / branching)`` tier-1 regional
        routers, and ``n_sites`` leaf sites distributed round-robin under the
        regionals.  Every link has ``bandwidth_mbps`` capacity; backbone
        (root–regional) links may be scaled by ``backbone_multiplier`` to
        model a fatter core (1.0 reproduces the paper's single "connectivity
        bandwidth" parameter).

        With the Table-1 parameters (30 sites, branching 6), this yields a
        root, 5 regional centers, and 6 leaf sites per region.
        """
        if n_sites < 1:
            raise ValueError(f"need at least one site, got {n_sites}")
        if branching < 1:
            raise ValueError(f"branching must be >=1, got {branching}")
        topo = cls()
        topo.add_node("tier0", is_site=False)
        n_regions = -(-n_sites // branching)  # ceil division
        for r in range(n_regions):
            region = f"tier1-{r}"
            topo.add_node(region, is_site=False)
            topo.add_link("tier0", region,
                          bandwidth_mbps * backbone_multiplier)
        for s in range(n_sites):
            site = f"site{s:02d}"
            topo.add_node(site, is_site=True)
            topo.add_link(site, f"tier1-{s % n_regions}", bandwidth_mbps)
        return topo

    @classmethod
    def star(cls, n_sites: int, bandwidth_mbps: float) -> "Topology":
        """All sites hang off one central switch (flat topology)."""
        if n_sites < 1:
            raise ValueError(f"need at least one site, got {n_sites}")
        topo = cls()
        topo.add_node("hub", is_site=False)
        for s in range(n_sites):
            site = f"site{s:02d}"
            topo.add_node(site, is_site=True)
            topo.add_link(site, "hub", bandwidth_mbps)
        return topo

    @classmethod
    def ring(cls, n_sites: int, bandwidth_mbps: float) -> "Topology":
        """Sites arranged in a cycle (stress-test for multi-hop routes)."""
        if n_sites < 3:
            raise ValueError(f"a ring needs >=3 sites, got {n_sites}")
        topo = cls()
        for s in range(n_sites):
            topo.add_node(f"site{s:02d}", is_site=True)
        for s in range(n_sites):
            topo.add_link(f"site{s:02d}", f"site{(s + 1) % n_sites:02d}",
                          bandwidth_mbps)
        return topo

    @classmethod
    def random_geometric(
        cls,
        n_sites: int,
        bandwidth_mbps: float,
        rng: Optional[random.Random] = None,
        extra_edge_fraction: float = 0.3,
    ) -> "Topology":
        """A random connected topology (spanning tree + extra edges)."""
        if n_sites < 1:
            raise ValueError(f"need at least one site, got {n_sites}")
        rng = rng or random.Random(0)
        topo = cls()
        names = [f"site{s:02d}" for s in range(n_sites)]
        for name in names:
            topo.add_node(name, is_site=True)
        # Random spanning tree (random attachment) guarantees connectivity.
        for i in range(1, n_sites):
            j = rng.randrange(i)
            topo.add_link(names[i], names[j], bandwidth_mbps)
        # Extra shortcut edges.
        n_extra = int(extra_edge_fraction * n_sites)
        candidates = [
            (a, b) for a, b in itertools.combinations(names, 2)
            if not topo.graph.has_edge(a, b)
        ]
        rng.shuffle(candidates)
        for a, b in candidates[:n_extra]:
            topo.add_link(a, b, bandwidth_mbps)
        return topo

    def neighbors_of_site(self, site: str, max_hops: int = 2) -> List[str]:
        """Sites within ``max_hops`` links of ``site`` (excluding itself).

        This is the Dataset Scheduler's "list of known sites (we define this
        as neighbors)".  In the hierarchical paper topology, 2 hops reaches
        the sibling sites under the same regional center.  Returns a new
        list on every call.
        """
        key = (site, max_hops)
        neighbors = self._neighbors.get(key)
        if neighbors is None:
            lengths = nx.single_source_shortest_path_length(
                self.graph, site, cutoff=max_hops)
            neighbors = self._neighbors[key] = [
                n for n, d in sorted(lengths.items())
                if n != site and self.is_site(n)]
        return list(neighbors)
