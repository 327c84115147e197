"""The repository benchmark: four seeded workloads, one command.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one workload against ``src/repro`` of the checkout
it sits in. See ``perfbench/README.md`` for the workloads, the metrics
and the compare mode.
"""
