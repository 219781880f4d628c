"""Machine-speed calibration (:func:`calibrate`).

Wall times from different machines, or from one machine under load, are
not directly comparable.  :func:`calibrate` times a fixed pure-Python
loop so an end-to-end measurement (``bench/run.py``) can report the
machine speed it was taken at.
"""

from repro.perf.calibrate import calibrate

__all__ = ["calibrate"]
