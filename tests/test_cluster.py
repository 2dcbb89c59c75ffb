"""Unit tests for the cluster layer (gpu, node, topology, inventory)."""

import pytest

from repro.cluster.gpu import (
    A100_SPARE_ROWS,
    PCI_ADDRESSES,
    GpuHealth,
    GpuState,
)
from repro.cluster.inventory import Inventory
from repro.cluster.node import Node, NodeKind, NodeState
from repro.cluster.topology import (
    DELTA_A100_GPUS,
    DELTA_A100_NODES,
    Cluster,
    ClusterShape,
)
from repro.core.exceptions import TopologyError


class TestGpuState:
    def _gpu(self) -> GpuState:
        return GpuState(node="gpua001", index=2, serial="gpua001-u2-r0")

    def test_pci_address_by_index(self):
        assert self._gpu().pci_address == PCI_ADDRESSES[2]

    def test_name(self):
        assert self._gpu().name == "gpua001/gpu2"

    def test_spare_row_consumption(self):
        gpu = self._gpu()
        assert gpu.can_remap()
        gpu.consume_spare_row()
        assert gpu.spare_rows_left == A100_SPARE_ROWS - 1
        assert gpu.remapped_rows == 1

    def test_exhausted_pool_cannot_remap(self):
        gpu = self._gpu()
        gpu.spare_rows_left = 0
        assert not gpu.can_remap()
        with pytest.raises(RuntimeError, match="exhausted"):
            gpu.consume_spare_row()

    def test_offline_page_idempotent(self):
        gpu = self._gpu()
        assert gpu.offline_page(42)
        assert not gpu.offline_page(42)
        assert gpu.offlined_pages == {42}

    def test_reset_clears_health_keeps_remaps(self):
        gpu = self._gpu()
        gpu.consume_spare_row()
        gpu.health = GpuHealth.FAILED
        gpu.reset()
        assert gpu.health is GpuHealth.HEALTHY
        assert gpu.remapped_rows == 1  # remaps survive resets (InfoROM)

    def test_replace_restores_everything(self):
        gpu = self._gpu()
        gpu.consume_spare_row()
        gpu.offline_page(1)
        gpu.health = GpuHealth.FAILED
        gpu.replace("gpua001-u2-r1")
        assert gpu.serial == "gpua001-u2-r1"
        assert gpu.spare_rows_left == A100_SPARE_ROWS
        assert gpu.remapped_rows == 0
        assert gpu.offlined_pages == set()
        assert gpu.health is GpuHealth.HEALTHY


class TestNode:
    def test_gpu_lookup(self, small_cluster):
        node = small_cluster.gpu_nodes()[0]
        assert node.gpu(0).index == 0
        with pytest.raises(TopologyError, match="no GPU index"):
            node.gpu(99)

    def test_gpu_by_pci(self, small_cluster):
        node = small_cluster.gpu_nodes()[0]
        gpu = node.gpu(1)
        assert node.gpu_by_pci(gpu.pci_address) is gpu
        assert node.gpu_by_pci("0000:FF:00") is None

    def test_schedulable_states(self):
        node = Node(name="cn001", kind=NodeKind.CPU)
        assert node.schedulable
        node.state = NodeState.DRAINING
        assert not node.schedulable
        node.state = NodeState.DOWN
        assert not node.schedulable
        node.state = NodeState.ALLOCATED
        assert node.schedulable

    def test_free_gpu_indices(self, small_cluster):
        node = small_cluster.gpu_nodes()[0]
        node.gpu(1).busy = True
        assert node.free_gpu_indices() == [0, 2, 3]
        node.gpu(1).busy = False


class TestClusterShape:
    def test_delta_counts(self):
        shape = ClusterShape()
        assert shape.gpu_node_count == DELTA_A100_NODES == 106
        assert shape.gpu_count == DELTA_A100_GPUS == 448

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            ClusterShape(four_way_nodes=-1)

    def test_no_gpu_nodes_rejected(self):
        with pytest.raises(ValueError, match="GPU node"):
            ClusterShape(four_way_nodes=0, eight_way_nodes=0)


class TestCluster:
    def test_delta_construction(self):
        cluster = Cluster.delta()
        cluster.validate()
        assert len(cluster.gpu_nodes()) == 106
        assert len(cluster.cpu_nodes()) == 132
        assert len(cluster.gpus()) == 448

    def test_node_names(self):
        cluster = Cluster.small(four_way=2, eight_way=1, cpu=1)
        names = [n.name for n in cluster.nodes()]
        assert "gpua001" in names
        assert "gpuc001" in names
        assert "cn001" in names

    def test_node_flavours(self):
        cluster = Cluster.small(four_way=2, eight_way=1, cpu=1)
        assert cluster.node("gpua001").gpu_count == 4
        assert cluster.node("gpuc001").gpu_count == 8
        assert cluster.node("cn001").gpu_count == 0

    def test_unknown_node_raises(self, small_cluster):
        with pytest.raises(TopologyError, match="unknown node"):
            small_cluster.node("gpua999")

    def test_gpu_by_name(self, small_cluster):
        gpu = small_cluster.gpu_by_name("gpua002/gpu3")
        assert gpu.node == "gpua002"
        assert gpu.index == 3

    def test_gpu_by_name_malformed(self, small_cluster):
        with pytest.raises(TopologyError, match="malformed"):
            small_cluster.gpu_by_name("not-a-gpu-name")

    def test_nvlink_complete_within_node(self, small_cluster):
        # 4-way: each GPU has 3 peers; 8-way: 7 peers.
        assert small_cluster.nvlink_peers("gpua001", 0) == [1, 2, 3]
        assert len(small_cluster.nvlink_peers("gpuc001", 0)) == 7

    def test_nvlink_no_cross_node_edges(self, small_cluster):
        for gpu, peers in small_cluster.nvlink.items():
            for peer in peers:
                assert gpu.split("/")[0] == peer.split("/")[0]

    def test_nvlink_link_lookup(self, small_cluster):
        assert small_cluster.nvlink_link("gpua001", 0, 3) is not None

    def test_validate_passes_on_small(self, small_cluster):
        small_cluster.validate()


class TestInventory:
    def test_roundtrip(self, small_cluster, tmp_path):
        inventory = Inventory.from_cluster(small_cluster)
        path = tmp_path / "inventory.json"
        inventory.save(path)
        loaded = Inventory.load(path)
        assert len(loaded) == len(inventory)
        assert loaded.entries() == inventory.entries()

    def test_resolve(self, small_cluster):
        inventory = Inventory.from_cluster(small_cluster)
        gpu = small_cluster.node("gpua001").gpu(2)
        assert inventory.resolve("gpua001", gpu.pci_address) == 2

    def test_resolve_unknown_returns_none(self, small_cluster):
        inventory = Inventory.from_cluster(small_cluster)
        assert inventory.resolve("gpua001", "0000:FF:00") is None
        assert inventory.resolve("nonexistent", PCI_ADDRESSES[0]) is None

    def test_covers_every_gpu(self, small_cluster):
        inventory = Inventory.from_cluster(small_cluster)
        assert len(inventory) == len(small_cluster.gpus())
