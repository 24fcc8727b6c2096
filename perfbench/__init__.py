"""The repository's benchmark: five workloads, chunk-minimum CPU rates,
and a traced pass that splits CPU time by layer.

Run it with ``python3 perfbench/run.py`` (see ``perfbench/README.md``).
"""
