"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.network.topology import MeshTopology, TorusTopology


@pytest.fixture
def mesh4x4() -> MeshTopology:
    """A 4x4 mesh, the workhorse topology of the unit tests."""
    return MeshTopology((4, 4))


@pytest.fixture
def mesh3x3() -> MeshTopology:
    """The 3x3 mesh used by the paper's Figure 7 example."""
    return MeshTopology((3, 3))


@pytest.fixture
def mesh8x8() -> MeshTopology:
    """An 8x8 mesh for the scaled-down experiment shapes."""
    return MeshTopology((8, 8))


@pytest.fixture
def torus4x4() -> TorusTopology:
    """A 4x4 torus for wraparound-specific tests."""
    return TorusTopology((4, 4))
