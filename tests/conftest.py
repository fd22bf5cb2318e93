"""Shared test helpers."""

from repro.topo import Fabric, two_host


def host_endpoint(host_config=None, seed=0, **link):
    """The paper's two-server testbed: the ``"host"`` endpoint of a
    :func:`repro.topo.two_host` fabric. ``link`` overrides the testbed
    link's attributes (``ack_delay=...`` etc.)."""
    return Fabric(two_host(**link), host_config=host_config,
                  seed=seed).endpoints["host"]
