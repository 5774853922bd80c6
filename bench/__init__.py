"""End-to-end benchmark of the reproduction: five paper workloads timed
through the public API and CLI, plus a traced per-layer run.

Entry point: ``python bench/run.py`` (see ``bench/README.md``).
"""
