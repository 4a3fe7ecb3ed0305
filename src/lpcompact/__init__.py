"""Constructive compactness toolkit for weighted Lp spaces on dyadic grids.

The library measures the three Riesz-Kolmogorov moduli of a finite family of
grid functions (uniform bound, vanishing tail, translation equicontinuity) and
turns quantitative smallness of those moduli into an explicit, machine-checkable
epsilon-net certificate.  Exponents below one are handled by a power transfer
to a companion Banach space.

Each submodule's ``__all__`` is the one declaration of its public names; the
package re-exports them all, plus the three error types.
"""

from .errors import HypothesisError, ModelError, SpecFileError
from .grid import *  # noqa: F401,F403
from .profiles import *  # noqa: F401,F403
from .spaces import *  # noqa: F401,F403
from .moduli import *  # noqa: F401,F403
from .netbuilder import *  # noqa: F401,F403
from .quasi import *  # noqa: F401,F403
from .experiments import *  # noqa: F401,F403
from .specfile import *  # noqa: F401,F403
from . import experiments, grid, moduli, netbuilder, profiles, quasi, spaces, specfile

__version__ = "0.1.0"

__all__ = sorted(
    ["HypothesisError", "ModelError", "SpecFileError"]
    + [
        name
        for module in (grid, profiles, spaces, moduli, netbuilder, quasi, experiments, specfile)
        for name in module.__all__
    ]
)
