"""Differential equivalence checking for the simulator's fast-forward
engine (:mod:`repro.perf.diffcheck`, ``python -m repro diffcheck``) and
the parent-identity gate that compares this source tree with a git
revision's (:mod:`repro.perf.against`, ``diffcheck --against REF``).

End-to-end performance is measured by the repository's ``bench/``
harness, which drives the program only through its public API and CLI.
"""
