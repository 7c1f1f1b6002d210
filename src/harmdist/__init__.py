"""harmdist: distortion operators, univalence criteria and two-point
distortion bounds for planar harmonic mappings on the unit disc, plus a
numerical harness that certifies every bound on sampled point pairs.

The package itself holds only ``__version__``: importing it loads no
submodule and not numpy.  The API is the submodules (``harmdist.catalog``,
``harmdist.operators``, ``harmdist.verifier``, ...), each imported on its own.
"""

__version__ = "0.1.0"
