"""End-to-end and per-layer benchmark of SLIDE training and serving.

Run ``python3 -m perfbench --help`` from the repository root; ``README.md``
in this directory describes the workloads, the metrics and how to read them.
Importing this package imports neither numpy nor ``repro``: the runner pins
the BLAS thread count before either is loaded.
"""
