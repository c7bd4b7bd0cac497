"""Low-rank approximation and learning with indefinite (Krein) kernels.

The package factors a symmetric but possibly indefinite similarity matrix
through a small set of landmark columns, turns the factorization into an
approximate eigendecomposition in a single pass over the landmark columns,
and trains regularized learners directly in the resulting signed coordinate
system -- without ever flipping or clipping negative spectrum away.
"""

from . import errors, linalg, kernels, nystroem, landmarks, learners, data
from .errors import *
from .linalg import *
from .kernels import *
from .nystroem import *
from .landmarks import *
from .learners import *
from .data import *

__version__ = "0.1.0"

__all__ = [*errors.__all__, *linalg.__all__, *kernels.__all__, *nystroem.__all__,
           *landmarks.__all__, *learners.__all__, *data.__all__]
