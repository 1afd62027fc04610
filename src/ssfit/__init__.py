"""Constrained maximum-likelihood identification of innovation-form models.

The package identifies linear state-space models driven by their innovation
errors, including the integrating-disturbance structure used for offset-free
control, subject to eigenvalue constraints expressed as matrix-inequality
regions.  Semidefinite constraints are converted to smooth nonlinear
programs through a sparse Cholesky-factor substitution, solved by a
self-contained augmented-Lagrangian method.
"""

# each name in a module's ``__all__`` is ``ssfit.<name>``; io and cli load apart
from .indexsets import *  # noqa: F401,F403
from .regions import *  # noqa: F401,F403
from .transform import *  # noqa: F401,F403
from .statespace import *  # noqa: F401,F403
from .nlp import *  # noqa: F401,F403
from .oracle import *  # noqa: F401,F403
from .identify import *  # noqa: F401,F403

__version__ = "0.1.0"
