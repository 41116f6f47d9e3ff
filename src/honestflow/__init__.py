"""honestflow: boundary-interaction expansions and honesty diagnostics for
collisionless transport.

The package evolves densities under free drift with re-entry through a
positive norm-one boundary rule, splits the evolution by the number of
boundary crossings, and measures whether the total mass is fully accounted
for (honesty) or leaks at the boundary (a positive defect).  Two geometry
families are built in: 1D interval unions with unit drift (exact
piecewise-constant evolution) and 2D convex billiards (weighted particle
ensembles, specular reflection).
"""

from . import boundary, densities, expansion, geometry, honesty, scenarios, steps
from .boundary import *
from .densities import *
from .expansion import *
from .geometry import *
from .honesty import *
from .scenarios import *
from .steps import *

# the __all__ of each defining module is the one declaration of its public
# names; tests/public_api.txt pins them, with every signature
__all__ = [name for module in (boundary, densities, expansion, geometry, honesty, scenarios, steps)
           for name in module.__all__]

__version__ = "0.1.0"
