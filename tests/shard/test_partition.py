"""Partitioner properties and the lookahead contract (docs/SHARDING.md).

The partition must be a pure function of ``(topology, shards)``, keep
every host with its attachment switch, cut only switch-switch links,
refuse any cut whose lookahead would be zero, and balance cells by the
flow endpoints under each switch (host count when there are no flows).
"""

import pytest

from repro.scenario import build_topology, template, validate
from repro.scenario.schema import flow_source
from repro.topo import leaf_spine, partition, star
from repro.topo.builders import fat_tree
from repro.workloads.topo_scenario import TopoScenario


def test_partition_is_deterministic():
    for shards in (2, 3, 4):
        a = partition(leaf_spine(4, 2, 4), shards)
        b = partition(leaf_spine(4, 2, 4), shards)
        assert a == b


def test_every_switch_in_exactly_one_cell():
    topo = leaf_spine(4, 2, 4)
    plan = partition(topo, 3)
    seen = [sw for cell in plan.cells for sw in cell]
    assert sorted(seen) == sorted(topo.switches)
    assert len(seen) == len(set(seen))


def test_every_host_follows_its_attachment_switch():
    topo = fat_tree(4, hosts_per_edge=2)
    plan = partition(topo, 4)
    assert sorted(plan.shard_of_host) == sorted(topo.hosts)
    for host in topo.hosts:
        attach, _link = topo.attachment(host)
        assert plan.shard_of_host[host] == plan.shard_of_switch[attach]


def test_cut_links_join_switches_only():
    topo = leaf_spine(4, 2, 4)
    plan = partition(topo, 4)
    assert plan.cut_links  # a 4-way split of 6 switches must cut
    switches = set(topo.switches)
    for link in plan.cut_links:
        assert link.a in switches and link.b in switches


def test_cells_are_connected_subgraphs():
    topo = fat_tree(4, hosts_per_edge=1)
    for shards in (2, 3, 4, 5):
        plan = partition(topo, shards)
        for cell in plan.cells:
            members = set(cell)
            frontier = {cell[0]}
            reached = set()
            while frontier:
                sw = frontier.pop()
                reached.add(sw)
                frontier.update(n for n in topo.switch_neighbors(sw)
                                if n in members and n not in reached)
            assert reached == members


def test_shard_count_clamps_to_switch_count():
    assert partition(star(8), 8).n_shards == 1
    assert partition(leaf_spine(2, 2, 4), 16).n_shards == 4


def test_single_switch_topology_is_one_cell_with_infinite_lookahead():
    plan = partition(star(4), 4)
    assert plan.cells == (("tor",),)
    assert plan.cut_links == ()
    assert plan.lookahead == float("inf")


def test_lookahead_is_the_minimum_cut_delay():
    plan = partition(leaf_spine(2, 2, 4, delay=600.0), 2)
    assert plan.lookahead == 600.0


def test_invalid_shard_count_rejected():
    with pytest.raises(ValueError):
        partition(star(2), 0)


def test_zero_delay_switch_link_rejected_at_validation():
    # Satellite fix: the topology itself refuses a degenerate-lookahead
    # inter-switch link, path-addressed like a scenario error.
    with pytest.raises(ValueError, match=r"topology\.links\["):
        leaf_spine(2, 1, 2, delay=0.0)


def test_zero_reverse_delay_cut_rejected_by_partition():
    topo = leaf_spine(2, 1, 2, ack_delay=0.0)  # forward delay is fine
    with pytest.raises(ValueError, match="zero-delay"):
        partition(topo, 2)
    with pytest.raises(ValueError, match="ack_delay"):
        topo.lookahead()


def _incast64():
    """The 64-host incast: 48 KV flows from the clients of all four
    leaves into ``l0s0``."""
    return {
        "version": 1, "name": "incast-64host", "seed": 0,
        "topology": {"kind": "leaf_spine",
                     "params": {"leaves": 4, "spines": 2,
                                "hosts_per_leaf": 16,
                                "servers_per_leaf": 1}},
        "hosts": {"*": {"arch": "ceio", "cores": 50}},
        "tenants": [{"name": "kv", "workload": "kvstore", "host": "l0s0",
                     "flows": 48, "payload": 144, "outstanding": 8}],
        "measure": {"warmup_us": 20.0, "duration_us": 30.0},
    }


def _no_clients():
    """Every host is a server, so flows come from every other host."""
    return {
        "version": 1, "name": "servers-only", "seed": 0,
        "topology": {"kind": "leaf_spine",
                     "params": {"leaves": 2, "spines": 1,
                                "hosts_per_leaf": 2,
                                "servers_per_leaf": 2}},
        "tenants": [{"name": "kv", "workload": "kvstore", "host": "l0s0",
                     "flows": 5}],
    }


def _explicit_sources():
    spec = template("all-to-all-storage")
    spec["tenants"][2]["sources"] = ["l1c3", "l0c1"]
    spec["tenants"][2]["flows"] = 3
    return spec


def _plan_of(spec, shards):
    return partition(build_topology(validate(spec)), shards)


def test_incast64_isolates_the_receiver_leaf():
    for shards in (2, 4):
        plan = _plan_of(_incast64(), shards)
        assert plan.cells[plan.heaviest] == ("leaf0",), shards
    assert _plan_of(_incast64(), 2).loads == (63, 33)


def test_all_to_all_storage_splits_by_flow_endpoints():
    plan = _plan_of(template("all-to-all-storage"), 2)
    assert plan.cells == (("leaf0",), ("leaf1", "spine0", "spine1"))
    assert plan.loads == (16, 12)


def test_topology_without_flows_weighs_hosts():
    topo = leaf_spine(4, 2, 4)
    assert topo.flow_endpoints == {}
    assert partition(topo, 2).loads == (8, 8)
    # A bare topology section (as validate() builds it) carries no flows.
    section = {"topology": template("all-to-all-storage")["topology"]}
    assert build_topology(section).flow_endpoints == {}


def test_describe_carries_the_cell_loads():
    plan = _plan_of(_incast64(), 4)
    summary = plan.describe()
    assert summary["loads"] == [63, 15, 15, 3]
    assert len(summary["loads"]) == len(summary["cells"])
    assert sum(plan.loads) == 2 * 48


@pytest.mark.parametrize("make_spec", [
    lambda: template("all-to-all-storage"), _explicit_sources,
    _no_clients, _incast64])
def test_source_rule_matches_the_wired_flows(make_spec):
    scenario = TopoScenario(make_spec()).build()
    topology = scenario.topology
    fabric = scenario.fabric
    tenants = scenario.normal["tenants"]
    want = [flow_source(topology, tenant, i)
            for tenant in tenants for i in range(tenant["flows"])]
    got = [fabric.flow_sources[flow.flow_id]
           for flow in fabric.flows_by_ordinal]
    assert got == want
    endpoints = {}
    for host in fabric.endpoints:
        for rec in scenario.involved[host] + scenario.bypass[host]:
            for end in (host, rec.src):
                endpoints[end] = endpoints.get(end, 0) + 1
    assert topology.flow_endpoints == endpoints
