"""LbChat reproduction: coreset-sharing collaborative model training
among peer vehicles (Zheng et al., ICDCS 2024).

Public API layout:

* :mod:`repro.core` — LbChat itself (value assessment, Eq. 5/7/8, the
  chat protocol, the Algorithm 2 trainer).
* :mod:`repro.coreset` — layered-sampling coresets (Algorithm 1),
  merge-and-reduce, the Eq. 6 penalized loss.
* :mod:`repro.baselines` — ProxSkip, RSU-L, DFL-DDS, DP, SCO, ablations.
* :mod:`repro.sim` — the 2-D driving world (CARLA substitute), BEV
  rasterization, datasets, online success-rate evaluation, mobility
  traces.
* :mod:`repro.net` — V2V wireless loss, packet-level transfers, §III-A
  contact estimation.
* :mod:`repro.nn` — the from-scratch numpy neural network substrate.
* :mod:`repro.compression` — top-k sparsification and quantization.
* :mod:`repro.engine` — the deterministic discrete-event simulator.
* :mod:`repro.experiments` — per-table/figure reproduction harness.

Importing the package first pins BLAS to one thread
(:mod:`repro._numenv`), so seeded results do not depend on the host's
core count.
"""

from repro import _numenv  # noqa: F401  (must run before numpy loads)

__version__ = "1.0.0"
