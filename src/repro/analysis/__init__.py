"""Ensemble experiments and reporting over the core checker.

The modules here are the measurement layer the benchmark harness is
built on: criteria-hierarchy acceptance rates (H1, ``hierarchy``),
empirical theorem validation (T1–T4, ``theorems``), protocol evaluation
via simulation (P1, ``protocols``) and checker cost scaling (P2,
``scaling``); the one table of paper experiments that ``experiment``
and ``report`` both render (``experiments``); the batch runner and its
supervision layer (``batch``, ``supervise``), plus table formatting
(``tables``).

The package re-exports nothing: import each name from its submodule, so
that a leaf such as ``repro.analysis.tables`` does not pull in the
simulator behind the experiments.
"""
