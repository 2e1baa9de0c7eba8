"""Metric-learning lab for equivalent-mutant detection.

Trains a desk-scale pair classifier jointly with cluster purge loss, a
per-class hinge objective over EMA verges of origin-mutant distances, and
ships the corpus tooling, baselines, sweep engine, and diagnostics around it.
The submodules are the library surface: import each name from the module
that defines it, such as ``purgelab.data`` or ``purgelab.trainer``.
"""

__version__ = "0.1.0"
