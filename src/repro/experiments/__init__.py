"""Experiment harness: one module per table / theorem reproduced.

Each experiment module exposes a ``run_*`` function that returns a list of
result rows (plain dataclasses), plus a ``format_table`` helper that renders
them the way the paper reports its results.  The pytest benchmarks under
``benchmarks/`` call these functions, assert the paper's qualitative claims
(the bound holds, the expected algorithm wins, ...), and time them; the
``repro.experiments.runner`` module runs everything and prints a combined
report.
"""

from repro.experiments.runner import run_all_experiments

__all__ = ["run_all_experiments"]
