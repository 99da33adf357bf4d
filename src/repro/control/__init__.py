"""The remote-control baseline (Mantis-style) used by the stateful-firewall
case study (Section 7.4)."""

from repro.control.remote_controller import remote_install_latencies

__all__ = ["remote_install_latencies"]
