"""Wormhole router microarchitecture.

The paper's router model (PROUD, "Pipelined ROUter Design") is an
input-buffered wormhole router with virtual channels, credit-based flow
control, a crossbar with per-port arbitration and a table-driven routing
decision block.  This subpackage implements that microarchitecture at the
flit level:

* :mod:`repro.router.pipeline` -- the PROUD (5-stage) and LA-PROUD
  (4-stage) pipeline timing models.
* :mod:`repro.router.channels` -- input/output virtual-channel state
  (buffers, allocation, credits).
* :mod:`repro.router.arbiter` -- round-robin arbiters used for the
  crossbar's input and output stages.
* :mod:`repro.router.router` -- the router itself, tying routing tables,
  the routing algorithm, path selection and the switch together.
"""

from repro.router.arbiter import RoundRobinArbiter
from repro.router.channels import InputVirtualChannel, OutputPort, OutputVirtualChannel, VCState
from repro.router.pipeline import LA_PROUD, PROUD, PipelineTiming
from repro.router.router import Router

__all__ = [
    "InputVirtualChannel",
    "LA_PROUD",
    "OutputPort",
    "OutputVirtualChannel",
    "PROUD",
    "PipelineTiming",
    "RoundRobinArbiter",
    "Router",
    "VCState",
]
