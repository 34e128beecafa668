"""The switch-allocation schedule selector is gone.

The object core's per-channel switch pass is the one reference
implementation of VC and switch allocation, and the flat C core is the
fast path checked against it in ``tests/test_link_equivalence.py``.
The configuration does not accept the removed ``switch_mode`` field.
"""

from __future__ import annotations

import pytest

from repro.core.config import SimulationConfig


def test_config_rejects_unknown_switch_mode():
    with pytest.raises(TypeError, match="switch_mode"):
        SimulationConfig.tiny(switch_mode="warp-speed")
