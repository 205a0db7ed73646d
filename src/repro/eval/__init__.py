"""Evaluation harness: reproduce every panel of the paper's Fig. 10.

Import from the submodules; the package itself exports nothing.

* :mod:`repro.eval.experiments` -- scenario sweeps over network sizes with
  all five algorithms (sFlow, fixed, random, service path, global optimal),
  producing tidy per-trial records, and the one cell runner (``sweep``)
  every campaign fans out through.
* :mod:`repro.eval.figures` -- regenerates each figure panel as a printed
  table / CSV (``python -m repro.eval.figures all``).
* :mod:`repro.eval.campaign` -- the whole evaluation in one results
  directory with a manifest (``python -m repro.eval.campaign --out DIR``).
* :mod:`repro.eval.robustness` -- the crash-tolerance and gray-failure
  sweeps: fault level x network size under mid-protocol chaos plans.
* :mod:`repro.eval.stats` -- tiny statistics helpers (means, confidence
  intervals) so the harness has no plotting dependencies.
"""
