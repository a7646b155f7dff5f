"""Exact rigidity checks, Chern numbers and exhaustive searches for
circle-action fixed-point weight data.

The package decides, in exact integer arithmetic, whether the rational
function attached to a matrix of weights and signs is constant; computes
Chern numbers of such data by the Bott residue formula; classifies the
two-fixed-point families; and exhaustively searches bounded weight spaces
with canonical-form enumeration and a sound sample-point pre-filter.

The top level exports the names of the README example; everything else is
imported from its module (``rigidpow.rigidity``, ``rigidpow.search``, ...).
"""

from .rigidity import is_rigid, quasilinear
from .search import SearchSpec, sweep

__version__ = "0.1.0"

__all__ = ["SearchSpec", "is_rigid", "quasilinear", "sweep"]
