"""Unit tests for grid topologies."""

import random

import pytest

from repro.network import Topology


class TestConstruction:
    def test_add_node_and_link(self):
        topo = Topology()
        topo.add_node("a")
        topo.add_node("b")
        link = topo.add_link("a", "b", 10)
        assert link.capacity_mbps == 10
        assert topo.link_between("a", "b") is link
        assert topo.link_between("b", "a") is link

    def test_duplicate_node_rejected(self):
        topo = Topology()
        topo.add_node("a")
        with pytest.raises(ValueError):
            topo.add_node("a")

    def test_duplicate_link_rejected(self):
        topo = Topology()
        topo.add_node("a")
        topo.add_node("b")
        topo.add_link("a", "b", 10)
        with pytest.raises(ValueError):
            topo.add_link("b", "a", 10)

    def test_self_link_rejected(self):
        topo = Topology()
        topo.add_node("a")
        with pytest.raises(ValueError):
            topo.add_link("a", "a", 10)

    def test_link_to_unknown_node_rejected(self):
        topo = Topology()
        topo.add_node("a")
        with pytest.raises(ValueError):
            topo.add_link("a", "ghost", 10)

    def test_missing_link_lookup(self):
        topo = Topology()
        topo.add_node("a")
        topo.add_node("b")
        with pytest.raises(KeyError):
            topo.link_between("a", "b")

    def test_sites_excludes_routers(self):
        topo = Topology()
        topo.add_node("router", is_site=False)
        topo.add_node("site")
        assert topo.sites == ["site"]
        assert not topo.is_site("router")
        assert topo.is_site("site")


class TestValidation:
    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            Topology().validate()

    def test_disconnected_rejected(self):
        topo = Topology()
        topo.add_node("a")
        topo.add_node("b")
        with pytest.raises(ValueError, match="not connected"):
            topo.validate()

    def test_router_only_rejected(self):
        topo = Topology()
        topo.add_node("r", is_site=False)
        with pytest.raises(ValueError, match="no site"):
            topo.validate()


class TestHierarchical:
    def test_paper_shape(self):
        topo = Topology.hierarchical(30, 10, branching=6)
        topo.validate()
        assert len(topo.sites) == 30
        # 1 root + 5 regionals + 30 leaves
        assert len(topo.nodes) == 36
        assert len(topo.links) == 35  # a tree

    def test_every_site_is_a_leaf(self):
        topo = Topology.hierarchical(30, 10, branching=6)
        for site in topo.sites:
            assert topo.degree(site) == 1

    def test_backbone_multiplier(self):
        topo = Topology.hierarchical(6, 10, branching=3,
                                     backbone_multiplier=4.0)
        backbone = topo.link_between("tier0", "tier1-0")
        leaf = topo.link_between("site00", "tier1-0")
        assert backbone.capacity_mbps == 40
        assert leaf.capacity_mbps == 10

    def test_single_site(self):
        topo = Topology.hierarchical(1, 10)
        topo.validate()
        assert topo.sites == ["site00"]

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            Topology.hierarchical(0, 10)
        with pytest.raises(ValueError):
            Topology.hierarchical(5, 10, branching=0)


class TestOtherBuilders:
    def test_star(self):
        topo = Topology.star(5, 10)
        topo.validate()
        assert len(topo.sites) == 5
        assert all(topo.degree(s) == 1 for s in topo.sites)
        assert topo.degree("hub") == 5

    def test_ring(self):
        topo = Topology.ring(6, 10)
        topo.validate()
        assert all(topo.degree(s) == 2 for s in topo.sites)
        assert len(topo.links) == 6

    def test_ring_needs_three(self):
        with pytest.raises(ValueError):
            Topology.ring(2, 10)

    def test_random_connected(self):
        topo = Topology.random_geometric(20, 10, rng=random.Random(1))
        topo.validate()
        assert len(topo.sites) == 20

    def test_random_deterministic_for_seed(self):
        t1 = Topology.random_geometric(15, 10, rng=random.Random(3))
        t2 = Topology.random_geometric(15, 10, rng=random.Random(3))
        assert sorted(l.endpoints for l in t1.links) == sorted(
            l.endpoints for l in t2.links)


class TestNeighbors:
    def test_two_hops_reaches_siblings(self):
        topo = Topology.hierarchical(12, 10, branching=4)
        neighbors = topo.neighbors_of_site("site00", max_hops=2)
        # site00 is under tier1-0 with site03, site06, site09 (round robin
        # over 3 regions).
        assert "site03" in neighbors
        assert "site01" not in neighbors  # different region

    def test_four_hops_reaches_everyone(self):
        topo = Topology.hierarchical(12, 10, branching=4)
        neighbors = topo.neighbors_of_site("site00", max_hops=4)
        assert len(neighbors) == 11

    def test_excludes_self_and_routers(self):
        topo = Topology.hierarchical(6, 10, branching=6)
        neighbors = topo.neighbors_of_site("site00", max_hops=4)
        assert "site00" not in neighbors
        assert all(n.startswith("site") for n in neighbors)

    def test_answer_is_a_fresh_list_each_call(self):
        topo = Topology.ring(6, 10)
        first = topo.neighbors_of_site("site00", max_hops=1)
        first.append("mutated")
        assert topo.neighbors_of_site("site00", max_hops=1) == [
            "site01", "site05"]

    def test_new_node_or_link_refreshes_the_answer(self):
        topo = Topology.ring(6, 10)
        assert topo.neighbors_of_site("site00", max_hops=1) == [
            "site01", "site05"]
        topo.add_link("site00", "site03", 10)
        assert topo.neighbors_of_site("site00", max_hops=1) == [
            "site01", "site03", "site05"]
        topo.add_node("site06")
        topo.add_link("site06", "site00", 10)
        assert topo.neighbors_of_site("site00", max_hops=1) == [
            "site01", "site03", "site05", "site06"]
