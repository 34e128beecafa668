"""Host-speed benchmark of the simulator: see perfbench/README.md."""
