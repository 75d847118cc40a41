"""The names a config's ``backend`` field may take, and what each allows.

A module of its own that imports nothing else from :mod:`repro`, so that
checking a config's ``backend`` does not load the substrates behind the
names: :mod:`repro.experiments.backends` brings in the fluid plan
executors, FCT analysis and the leaf-spine fabric, which a packet-level
run never uses.
"""

BACKENDS = ("packet", "fluid", "hybrid")
"""The simulation substrates a config's ``backend`` field may name."""


def check_backend(backend: str, *, packet_window: bool,
                  packet_state: bool) -> None:
    """Validate a config's ``backend`` against what the run asks of it:
    per-packet vantage points (``packet_window``: telemetry, flow
    sampling) need packet or hybrid, a mitigation scheme's per-packet
    state (``packet_state``) needs packet."""
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; "
                         f"choose from {sorted(BACKENDS)}")
    if backend == "fluid" and packet_window:
        raise ValueError("telemetry and flow sampling require a "
                         "backend with a packet window "
                         "(packet or hybrid), not fluid")
    if backend != "packet" and packet_state:
        raise ValueError("mitigation schemes wire into per-packet "
                         "state; they require the packet backend")
