"""n-dimensional mesh and torus topologies.

Port-numbering convention (used by every other module in the library):

* port ``0`` is the **local** port connecting the router to its node's
  network interface (the paper's "exit port 0");
* for dimension ``d`` (dimension 0 is X, dimension 1 is Y, ...), the port
  toward the **positive** direction is ``1 + 2*d`` and the port toward the
  **negative** direction is ``2 + 2*d``.

For a 2-D mesh this yields the paper's five-port router: 0 = local,
1 = +X (East), 2 = -X (West), 3 = +Y (North), 4 = -Y (South).
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "LOCAL_PORT",
    "MeshTopology",
    "Topology",
    "TorusTopology",
    "port_direction",
    "port_for",
    "productive_ports",
]

#: The router port connected to the local network interface.
LOCAL_PORT = 0


def port_for(dimension: int, positive: bool) -> int:
    """Return the output-port index for travelling along ``dimension``.

    ``positive`` selects the +direction port (East/North/Up...), otherwise
    the -direction port is returned.
    """
    if dimension < 0:
        raise ValueError(f"dimension must be non-negative, got {dimension}")
    return 1 + 2 * dimension + (0 if positive else 1)


def port_direction(port: int) -> Tuple[int, int]:
    """Inverse of :func:`port_for`: return ``(dimension, sign)`` for a port.

    ``sign`` is +1 for the positive-direction port and -1 for the negative
    one.  Raises ``ValueError`` for the local port, which has no direction.
    """
    if port == LOCAL_PORT:
        raise ValueError("the local port has no direction")
    if port < 0:
        raise ValueError(f"invalid port {port}")
    dimension, offset = divmod(port - 1, 2)
    return dimension, (1 if offset == 0 else -1)


def productive_ports(signs: Sequence[int]) -> Tuple[int, ...]:
    """The productive output ports implied by a per-dimension sign pattern.

    One port per non-zero sign, lowest dimension first; ``(LOCAL_PORT,)``
    when every sign is zero (the message has arrived).  This is the
    geometric content of a sign pattern: the minimal-adaptive routing
    relation, and the default of economical-table entries that no
    destination reaches.
    """
    ports = []
    for dimension, sign in enumerate(signs):
        if sign > 0:
            ports.append(port_for(dimension, positive=True))
        elif sign < 0:
            ports.append(port_for(dimension, positive=False))
    return tuple(ports) if ports else (LOCAL_PORT,)


class Topology:
    """Base class for regular point-to-point topologies.

    Nodes are numbered 0..N-1.  Coordinates are tuples with the dimension-0
    coordinate varying fastest (node 1 is the +X neighbor of node 0).
    """

    #: Subclasses set this to True when links wrap around (tori).
    wraps = False

    def __init__(self, dims: Sequence[int]) -> None:
        dims = tuple(int(k) for k in dims)
        if not dims:
            raise ValueError("topology needs at least one dimension")
        if any(k < 2 for k in dims):
            raise ValueError(f"every dimension must have at least 2 nodes, got {dims}")
        self._dims = dims
        self._num_nodes = 1
        for k in dims:
            self._num_nodes *= k
        # Pre-compute the coordinate <-> id maps once; they are consulted in
        # the routers' inner loops.
        self._coords: List[Tuple[int, ...]] = [
            self._id_to_coords(node) for node in range(self._num_nodes)
        ]
        self._neighbor_table: List[List[Optional[int]]] = [
            [None] * self.radix for _ in range(self._num_nodes)
        ]
        for node in range(self._num_nodes):
            for port in range(1, self.radix):
                self._neighbor_table[node][port] = self._compute_neighbor(node, port)
        self._average_distance: Optional[float] = None

    # -- geometry ----------------------------------------------------------

    @property
    def dims(self) -> Tuple[int, ...]:
        """Extent of each dimension, e.g. ``(16, 16)`` for the paper's mesh."""
        return self._dims

    @property
    def n_dims(self) -> int:
        """Number of dimensions."""
        return len(self._dims)

    @property
    def num_nodes(self) -> int:
        """Total number of nodes."""
        return self._num_nodes

    @property
    def radix(self) -> int:
        """Number of router ports: one local port plus two per dimension."""
        return 1 + 2 * self.n_dims

    def coordinates(self, node: int) -> Tuple[int, ...]:
        """Cartesian coordinates of ``node``."""
        return self._coords[node]

    def node_id(self, coords: Sequence[int]) -> int:
        """Node identifier for a coordinate tuple."""
        if len(coords) != self.n_dims:
            raise ValueError(
                f"expected {self.n_dims} coordinates, got {len(coords)}"
            )
        node = 0
        stride = 1
        for coordinate, extent in zip(coords, self._dims):
            if not 0 <= coordinate < extent:
                raise ValueError(f"coordinate {coords} outside mesh {self._dims}")
            node += coordinate * stride
            stride *= extent
        return node

    def _id_to_coords(self, node: int) -> Tuple[int, ...]:
        coords = []
        remainder = node
        for extent in self._dims:
            remainder, coordinate = divmod(remainder, extent)
            coords.append(coordinate)
        # note: divmod order -- coordinate is remainder % extent
        return tuple(coords)

    # -- connectivity ------------------------------------------------------

    def neighbor(self, node: int, port: int) -> Optional[int]:
        """Node reached by leaving ``node`` through ``port`` (None at edges)."""
        if port == LOCAL_PORT:
            return None
        return self._neighbor_table[node][port]

    def _compute_neighbor(self, node: int, port: int) -> Optional[int]:
        raise NotImplementedError

    def reverse_port(self, port: int) -> int:
        """The input port at the neighbor that a link through ``port`` feeds."""
        dimension, sign = port_direction(port)
        return port_for(dimension, positive=(sign < 0))

    def links(self) -> Iterator[Tuple[int, int, int, int]]:
        """Iterate over unidirectional links.

        Yields ``(node, out_port, neighbor, neighbor_in_port)`` for every
        connected non-local port of every node.
        """
        for node in range(self._num_nodes):
            for port in range(1, self.radix):
                neighbor = self.neighbor(node, port)
                if neighbor is not None:
                    yield node, port, neighbor, self.reverse_port(port)

    def dateline_bits(self, node: int, port: int) -> int:
        """Dateline-crossing mask contribution of forwarding through ``port``.

        Non-zero only on wrapping topologies, where the dateline of
        dimension ``d`` sits on the wraparound links (coordinate ``k-1 ->
        0`` in the positive direction, ``0 -> k-1`` in the negative one);
        crossing either sets bit ``1 << d`` in a message's accumulated
        dateline mask.  The dateline virtual-channel discipline (see
        :mod:`repro.routing.duato`) reads the mask to pick the escape
        class; meshes have no datelines, so the base implementation
        returns 0 for every link.
        """
        return 0

    # -- routing geometry ---------------------------------------------------

    def relative_signs(self, current: int, destination: int) -> Tuple[int, ...]:
        """Sign of the minimal travel direction per dimension.

        This is the (s_x, s_y, ...) tuple the economical-storage table is
        indexed by (Section 5.2.1 of the paper): +1, -1 or 0 per dimension.
        """
        raise NotImplementedError

    def minimal_ports(self, current: int, destination: int) -> Tuple[int, ...]:
        """Productive (minimal-path) output ports from ``current`` toward
        ``destination``.

        Returns ``(LOCAL_PORT,)`` when ``current`` is the destination.
        """
        return productive_ports(self.relative_signs(current, destination))

    def dimension_order_port(self, current: int, destination: int) -> int:
        """Deterministic dimension-order (XY) routing decision.

        Corrects the lowest dimension whose offset is non-zero first; this
        is the escape-channel route used by Duato's algorithm and the
        STATIC-XY preference order.
        """
        return self.minimal_ports(current, destination)[0]

    def distance(self, source: int, destination: int) -> int:
        """Minimal hop count between two nodes."""
        raise NotImplementedError

    def average_distance(self) -> float:
        """Average minimal hop count over all ordered source/dest pairs.

        Distance is a sum of per-dimension terms, and each coordinate pair
        ``(a, b)`` of dimension ``d`` occurs in ``(N / k_d)^2`` node pairs.
        So the exact integer total is, summed over ``d``, ``(N / k_d)^2``
        times the summed distances between the nodes at coordinates ``a``
        and ``b`` of axis ``d`` (all other coordinates zero): O(sum k_d^2)
        instead of O(N^2).  A topology never changes, so the value is
        computed once per instance.
        """
        if self._average_distance is not None:
            return self._average_distance
        total = 0
        stride = 1  # node ids vary fastest along dimension 0
        for extent in self._dims:
            axis_total = sum(
                self.distance(a * stride, b * stride)
                for a in range(extent)
                for b in range(extent)
            )
            total += (self._num_nodes // extent) ** 2 * axis_total
            stride *= extent
        self._average_distance = total / (self._num_nodes * (self._num_nodes - 1))
        return self._average_distance

    # -- capacity ----------------------------------------------------------

    def bisection_channels(self) -> int:
        """Unidirectional channels crossing the worst-case mid bisection."""
        raise NotImplementedError

    def saturation_flit_rate(self) -> float:
        """Per-node flit injection rate that saturates the bisection under
        node-uniform traffic.

        Normalized load 1.0 in the paper corresponds to this rate (Section
        2.2): the injection rate at which uniform traffic fully loads the
        network bisection.
        """
        raise NotImplementedError

    def __repr__(self) -> str:
        kind = type(self).__name__
        dims = "x".join(str(k) for k in self._dims)
        return f"{kind}({dims}, nodes={self._num_nodes})"


class MeshTopology(Topology):
    """k-ary n-dimensional mesh (no wraparound links)."""

    wraps = False

    def _compute_neighbor(self, node: int, port: int) -> Optional[int]:
        dimension, sign = port_direction(port)
        coords = list(self.coordinates(node))
        coords[dimension] += sign
        if not 0 <= coords[dimension] < self._dims[dimension]:
            return None
        return self.node_id(coords)

    def relative_signs(self, current: int, destination: int) -> Tuple[int, ...]:
        current_coords = self.coordinates(current)
        destination_coords = self.coordinates(destination)
        signs = []
        for here, there in zip(current_coords, destination_coords):
            offset = there - here
            signs.append(0 if offset == 0 else (1 if offset > 0 else -1))
        return tuple(signs)

    def distance(self, source: int, destination: int) -> int:
        source_coords = self.coordinates(source)
        destination_coords = self.coordinates(destination)
        return sum(abs(a - b) for a, b in zip(source_coords, destination_coords))

    def bisection_channels(self) -> int:
        # Cutting the largest dimension in half severs one bidirectional
        # link per node in the cut plane; the cut plane has N / k_max nodes.
        k_max = max(self._dims)
        return 2 * (self._num_nodes // k_max)

    def saturation_flit_rate(self) -> float:
        # Under uniform traffic a quarter of all injected flits cross the
        # mid bisection in each direction, so the per-node rate that loads
        # the (N / k_max) same-direction crossing channels to capacity is
        # 4 / k_max flits per cycle per node.
        return 4.0 / max(self._dims)


class TorusTopology(Topology):
    """k-ary n-dimensional torus (wraparound links in every dimension)."""

    wraps = True

    def _compute_neighbor(self, node: int, port: int) -> Optional[int]:
        dimension, sign = port_direction(port)
        coords = list(self.coordinates(node))
        coords[dimension] = (coords[dimension] + sign) % self._dims[dimension]
        return self.node_id(coords)

    def relative_signs(self, current: int, destination: int) -> Tuple[int, ...]:
        current_coords = self.coordinates(current)
        destination_coords = self.coordinates(destination)
        signs = []
        for here, there, extent in zip(current_coords, destination_coords, self._dims):
            offset = (there - here) % extent
            if offset == 0:
                signs.append(0)
            elif offset <= extent - offset:
                # Going in the positive direction is minimal (ties break
                # toward the positive direction for determinism).
                signs.append(1)
            else:
                signs.append(-1)
        return tuple(signs)

    def distance(self, source: int, destination: int) -> int:
        source_coords = self.coordinates(source)
        destination_coords = self.coordinates(destination)
        total = 0
        for here, there, extent in zip(source_coords, destination_coords, self._dims):
            offset = abs(there - here)
            total += min(offset, extent - offset)
        return total

    def bisection_channels(self) -> int:
        # The wrap links double the number of channels crossing the cut.
        k_max = max(self._dims)
        return 4 * (self._num_nodes // k_max)

    def saturation_flit_rate(self) -> float:
        return 8.0 / max(self._dims)

    def dateline_bits(self, node: int, port: int) -> int:
        if port == LOCAL_PORT:
            return 0
        dimension, sign = port_direction(port)
        coordinate = self.coordinates(node)[dimension]
        extent = self._dims[dimension]
        if sign > 0:
            crosses = coordinate == extent - 1
        else:
            crosses = coordinate == 0
        return (1 << dimension) if crosses else 0


# -- registry factories --------------------------------------------------------------

from repro.registry import register as _register  # noqa: E402  (leaf import)


@_register("topology", "mesh")
def _make_mesh(config) -> MeshTopology:
    """n-dimensional mesh (no wraparound links)."""
    return MeshTopology(config.mesh_dims)


_make_mesh.wraps = False


@_register("topology", "torus")
def _make_torus(config) -> TorusTopology:
    """n-dimensional torus (wraparound links in every dimension)."""
    return TorusTopology(config.mesh_dims)


_make_torus.wraps = True
