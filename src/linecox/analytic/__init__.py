"""Analytic distance distributions and bounds.

Closed forms live in ``closed_forms``; the quadrature-backed one-turn
distribution seen from a typical intersection in ``intersection``; the
directed two-turn upper bound in ``twoturn``. Every curve checks its t
with ``model._check_t``. The public names are listed once, in each of
these modules' ``__all__``, and re-exported here.
"""

from . import closed_forms, intersection, twoturn
from .closed_forms import *
from .intersection import *
from .twoturn import *

__all__ = [*closed_forms.__all__, *intersection.__all__, *twoturn.__all__]
