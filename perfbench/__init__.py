"""End-to-end service benchmark with a traced per-stage ladder.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` launches ``repro serve`` from the checkout's ``src/``,
drives it through :class:`repro.service.client.ServiceClient`, checks
every answer against exact counts, and prints one JSON result line.
See ``perfbench/README.md`` for the workloads, metrics and the
metric-to-layer map.
"""
