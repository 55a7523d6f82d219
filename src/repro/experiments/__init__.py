"""Reproduction harness for every table and figure of the paper's evaluation.

Each experiment module exposes a ``run_*`` function returning plain Python
data structures plus a ``main()`` that prints the same rows/series the paper
reports.  The pytest-benchmark targets under ``benchmarks/`` call the same
functions, so ``pytest benchmarks/ --benchmark-only`` regenerates everything.

Mapping to the paper:

=============  ==========================================  =======================
Artefact       Function                                    Module
=============  ==========================================  =======================
Table II       :func:`run_table2`                          ``repro.experiments.table2``
Table III      :func:`run_table3`                          ``repro.experiments.table3``
Table IV       :func:`run_table4`                          ``repro.experiments.table4``
Fig. 4         :func:`run_fig4`                            ``repro.experiments.fig4``
Fig. 5         :func:`run_fig5`                            ``repro.experiments.fig5``
Fig. 6         :func:`run_fig6`                            ``repro.experiments.fig6``
=============  ==========================================  =======================
"""

from repro.experiments.config import ExperimentConfig, FAST_CONFIG, PAPER_CONFIG
from repro.experiments.runner import (
    make_paper_method,
    method_names,
    run_method_on_dataset,
)
from repro.experiments.table2 import run_table2
from repro.experiments.table3 import run_table3
from repro.experiments.table4 import run_table4
from repro.experiments.fig4 import run_fig4
from repro.experiments.fig5 import run_fig5
from repro.experiments.fig6 import run_fig6

__all__ = [
    "ExperimentConfig",
    "FAST_CONFIG",
    "PAPER_CONFIG",
    "make_paper_method",
    "method_names",
    "run_method_on_dataset",
    "run_table2",
    "run_table3",
    "run_table4",
    "run_fig4",
    "run_fig5",
    "run_fig6",
]
