"""The repository's one benchmark (see ``bench/README.md``).

``python3 -m bench --seed 0`` runs six named workloads end to end, checks
their outputs, and writes one JSON document; ``python3 -m bench --workload
NAME --seed N --seconds S --trace 0|1`` is the single-run form the
``BENCHMARK.json`` contract drives. The package imports nothing from
``repro`` at import time: only ``bench.worker`` subprocesses touch the
program, and only through ``run_incast_sim`` and ``runner.main``.
"""
