"""The names a config's ``backend`` field may take.

A module of its own that imports nothing else from :mod:`repro`, so that
checking a config's ``backend`` does not load the substrates behind the
names: :mod:`repro.experiments.backends` brings in the fluid plan
executors, FCT analysis and the leaf-spine fabric, which a packet-level
run never uses.
"""

BACKENDS = ("packet", "fluid", "hybrid")
"""The simulation substrates a config's ``backend`` field may name."""
