"""The layered benchmark: four workloads, end-to-end and per-layer metrics.

One command runs one workload from a ``--seed``, untraced for the end-to-end
metrics or traced for the per-layer ones, checks every answer bit-for-bit
against a fresh uncached solver, and prints every metric by name with its
unit.  See ``README.md`` in this directory for the glossary, the workload and
interaction tables, and how to read the trace files.

The package imports :mod:`repro` and is run with ``src`` on the path::

    python3 benchmarks/layered/run.py --workload hot_http --seed 1 --seconds 15 --trace 0
    PYTHONPATH=src python -m benchmarks.layered            # all four, both modes
    PYTHONPATH=src python -m benchmarks.layered compare A.json B.json
"""
