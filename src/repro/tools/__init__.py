"""Command-line utilities built on the library.

- ``python -m repro.tools.trace_view`` — render a synthetic Millisampler
  capture as Figure 1-style terminal panels.
- ``python -m repro.tools.telemetry_view`` — render the in-sim telemetry
  captured by ``--telemetry`` runs (see :mod:`repro.telemetry`).
- ``python -m repro.tools.golden`` — regenerate the golden test fixtures.
- ``python -m repro.tools.docstrings`` — docstring coverage gate for the
  public API (interrogate-style ``--fail-under``).
- ``python -m repro.tools.worker`` — distributed campaign worker: connects
  to a ``--backend distributed`` coordinator, pulls work units and streams
  back checksummed result payloads (see
  :mod:`repro.experiments.engine.distributed`).
- ``python -m repro.tools.cacheserver`` — shared result-cache server: a
  content-addressed HTTP blob store that campaigns and workers read
  through and write behind with ``--cache-server HOST:PORT`` (see
  :mod:`repro.experiments.engine.remote_cache`).
"""
