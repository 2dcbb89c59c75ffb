"""Cluster topology: the Delta machine and its NVLink fabric.

Delta (paper Section II-A) comprises 132 CPU-only nodes and 358
GPU-accelerated nodes; the study covers the **106 A100 nodes**: 100 with
4-way A100s and 6 with 8-way A100s (448 A100 GPUs total).  Within a
node, GPUs are joined by NVLink — direct point-to-point bridges on the
4-way boards and an NVSwitch plane on the 8-way HGX boards; either way
every GPU pair can exchange traffic, which we model as a complete graph
per node: an adjacency map from each global GPU name to its peers' names.

The NVLink graph drives the error-propagation model of Section IV(v):
42% of NVLink errors manifest on two or more GPUs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from ..core.arch import Architecture
from ..core.exceptions import TopologyError
from .gpu import GpuState
from .node import Node, NodeKind

#: Delta's A100 fleet shape (paper Section II-A).
DELTA_4WAY_NODES = 100
DELTA_8WAY_NODES = 6
DELTA_CPU_NODES = 132
DELTA_A100_NODES = DELTA_4WAY_NODES + DELTA_8WAY_NODES
DELTA_A100_GPUS = DELTA_4WAY_NODES * 4 + DELTA_8WAY_NODES * 8

#: GPUs per node for each GPU node kind.
GPUS_PER_NODE = {
    NodeKind.GPU_A100_4WAY: 4,
    NodeKind.GPU_A100_8WAY: 8,
    NodeKind.GPU_GH200_4WAY: 4,
}

#: Node-name prefix per GPU node kind (Delta/DeltaAI conventions).
NODE_PREFIX = {
    NodeKind.GPU_A100_4WAY: "gpua",
    NodeKind.GPU_A100_8WAY: "gpuc",
    NodeKind.GPU_GH200_4WAY: "gh",
}


def _gpu_node(name: str, kind: NodeKind) -> Node:
    gpus = [
        GpuState(node=name, index=i, serial=f"{name}-u{i}-r0")
        for i in range(GPUS_PER_NODE[kind])
    ]
    return Node(name=name, kind=kind, gpus=gpus, cpu_cores=64)


def _a100_node(name: str, gpu_count: int) -> Node:
    kind = NodeKind.GPU_A100_4WAY if gpu_count == 4 else NodeKind.GPU_A100_8WAY
    return _gpu_node(name, kind)


@dataclass(frozen=True)
class ClusterShape:
    """Sizing knobs for building a cluster.

    The defaults reproduce Delta; tests shrink these to run fast while
    keeping both node flavours present.
    """

    four_way_nodes: int = DELTA_4WAY_NODES
    eight_way_nodes: int = DELTA_8WAY_NODES
    cpu_nodes: int = DELTA_CPU_NODES
    gh200_nodes: int = 0

    def __post_init__(self) -> None:
        if (
            self.four_way_nodes < 0
            or self.eight_way_nodes < 0
            or self.cpu_nodes < 0
            or self.gh200_nodes < 0
        ):
            raise ValueError("node counts must be non-negative")
        if self.four_way_nodes + self.eight_way_nodes + self.gh200_nodes == 0:
            raise ValueError("cluster needs at least one GPU node")

    @property
    def gpu_node_count(self) -> int:
        """Total GPU nodes (the per-node-MTBE multiplier in Table I)."""
        return self.four_way_nodes + self.eight_way_nodes + self.gh200_nodes

    @property
    def gpu_count(self) -> int:
        """Total GPUs across all architectures."""
        return (
            self.four_way_nodes * 4
            + self.eight_way_nodes * 8
            + self.gh200_nodes * 4
        )

    def node_count_for(self, arch: Architecture) -> int:
        """GPU nodes belonging to one architecture."""
        if arch is Architecture.A100:
            return self.four_way_nodes + self.eight_way_nodes
        return self.gh200_nodes

    def gpu_count_for(self, arch: Architecture) -> int:
        """GPUs belonging to one architecture."""
        if arch is Architecture.A100:
            return self.four_way_nodes * 4 + self.eight_way_nodes * 8
        return self.gh200_nodes * 4

    @property
    def architectures(self) -> Tuple[Architecture, ...]:
        """Architectures present, in stable reporting order."""
        return tuple(
            arch for arch in Architecture if self.node_count_for(arch) > 0
        )

    @property
    def heterogeneous(self) -> bool:
        """True when more than one GPU architecture is present."""
        return len(self.architectures) > 1


class Cluster:
    """The machine under study: nodes, GPUs, and the NVLink graph.

    Node naming follows Delta conventions: ``gpuaNNN`` for 4-way A100
    nodes, ``gpucNNN`` for 8-way A100 nodes, ``ghNNN`` for GH200 nodes
    (DeltaAI convention), and ``cnNNN`` for CPU-only nodes.
    """

    def __init__(self, shape: ClusterShape = ClusterShape()) -> None:
        self._shape = shape
        self._nodes: Dict[str, Node] = {}
        for kind, count in (
            (NodeKind.GPU_A100_4WAY, shape.four_way_nodes),
            (NodeKind.GPU_A100_8WAY, shape.eight_way_nodes),
            (NodeKind.GPU_GH200_4WAY, shape.gh200_nodes),
        ):
            prefix = NODE_PREFIX[kind]
            for i in range(1, count + 1):
                node = _gpu_node(f"{prefix}{i:03d}", kind)
                self._nodes[node.name] = node
        for i in range(1, shape.cpu_nodes + 1):
            name = f"cn{i:03d}"
            self._nodes[name] = Node(name=name, kind=NodeKind.CPU, cpu_cores=128)
        self._nvlink = self._build_nvlink_graph()

    def _build_nvlink_graph(self) -> Dict[str, Tuple[str, ...]]:
        graph: Dict[str, Tuple[str, ...]] = {}
        for node in self.gpu_nodes():
            names = [g.name for g in node.gpus]
            # Complete graph within the node: direct bridges (4-way) or
            # the NVSwitch plane (8-way) give all-to-all reachability.
            for name in names:
                graph[name] = tuple(peer for peer in names if peer != name)
        return graph

    @property
    def shape(self) -> ClusterShape:
        """The sizing this cluster was built with."""
        return self._shape

    @property
    def nvlink(self) -> Dict[str, Tuple[str, ...]]:
        """Intra-node NVLink adjacency: each GPU name to its peers' names."""
        return self._nvlink

    def node(self, name: str) -> Node:
        """Look up a node by name; raises TopologyError if unknown."""
        try:
            return self._nodes[name]
        except KeyError:
            raise TopologyError(f"unknown node {name!r}") from None

    def nodes(self) -> Iterable[Node]:
        """All nodes, GPU nodes first, in stable name order."""
        return list(self._nodes.values())

    def gpu_nodes(self) -> List[Node]:
        """All GPU nodes in stable order."""
        return [n for n in self._nodes.values() if n.is_gpu_node]

    def gpu_nodes_for(self, arch: Architecture) -> List[Node]:
        """GPU nodes belonging to one architecture, in stable order."""
        return [n for n in self.gpu_nodes() if n.architecture is arch]

    def cpu_nodes(self) -> List[Node]:
        """All CPU-only nodes in stable order."""
        return [n for n in self._nodes.values() if not n.is_gpu_node]

    def gpus(self) -> List[GpuState]:
        """Every A100 in the cluster, node order then index order."""
        return [g for n in self.gpu_nodes() for g in n.gpus]

    def gpu_by_name(self, name: str) -> GpuState:
        """Resolve ``"gpua042/gpu2"`` back to its GPU state."""
        try:
            node_name, gpu_part = name.split("/")
            index = int(gpu_part.removeprefix("gpu"))
        except ValueError:
            raise TopologyError(f"malformed GPU name {name!r}") from None
        return self.node(node_name).gpu(index)

    def nvlink_peers(self, node: str, gpu_index: int) -> List[int]:
        """GPU indices sharing NVLink connectivity with the given GPU."""
        name = f"{node}/gpu{gpu_index}"
        if name not in self._nvlink:
            raise TopologyError(f"{name} has no NVLink presence")
        return sorted(int(peer.split("/gpu")[1]) for peer in self._nvlink[name])

    def nvlink_link(
        self, node: str, a: int, b: int
    ) -> Optional[Tuple[str, str]]:
        """The NVLink edge between two GPUs of a node, or ``None``."""
        na, nb = f"{node}/gpu{a}", f"{node}/gpu{b}"
        if nb in self._nvlink.get(na, ()):
            return (na, nb)
        return None

    def validate(self) -> None:
        """Internal consistency checks; raises TopologyError on failure."""
        for node in self.gpu_nodes():
            expected = GPUS_PER_NODE[node.kind]
            if node.gpu_count != expected:
                raise TopologyError(
                    f"{node.name}: expected {expected} GPUs, has {node.gpu_count}"
                )
            for gpu in node.gpus:
                peers = self.nvlink_peers(node.name, gpu.index)
                if len(peers) != expected - 1:
                    raise TopologyError(
                        f"{gpu.name}: NVLink degree {len(peers)}, "
                        f"expected {expected - 1}"
                    )

    @classmethod
    def delta(cls) -> "Cluster":
        """The full Delta machine (106 A100 nodes, 132 CPU nodes)."""
        return cls(ClusterShape())

    @classmethod
    def small(cls, four_way: int = 4, eight_way: int = 1, cpu: int = 2) -> "Cluster":
        """A scaled-down cluster for tests and quick examples."""
        return cls(ClusterShape(four_way, eight_way, cpu))
