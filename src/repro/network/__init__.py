"""Network substrate: topologies, interfaces and assembly.

The LAPSES evaluation uses a 16x16 two-dimensional mesh of 5-port routers
(four neighbor ports plus one local port).  This subpackage provides:

* :mod:`repro.network.topology` -- n-dimensional mesh and torus
  topologies with the port-numbering convention shared by the whole
  library.
* :mod:`repro.network.interface` -- per-node network interfaces holding
  the source queues and recording delivered messages.
* :mod:`repro.network.network` -- assembly of routers and interfaces
  into a simulatable object network.
* :mod:`repro.network.flatcore` -- the default flat struct-of-arrays
  core, built straight from topology and config without the objects.
"""

from repro.network.interface import NetworkInterface
from repro.network.network import Network
from repro.network.topology import (
    LOCAL_PORT,
    MeshTopology,
    Topology,
    TorusTopology,
    port_for,
    port_direction,
)

__all__ = [
    "LOCAL_PORT",
    "MeshTopology",
    "Network",
    "NetworkInterface",
    "Topology",
    "TorusTopology",
    "port_direction",
    "port_for",
]
