"""Low-rank matrix completion with the transformed Schatten-1 penalty.

The penalty sums a linear-to-linear rational function of the singular
values, interpolating between rank and the nuclear norm.  Its proximal
operator has a closed form, which the iterative solvers here exploit:
a basic fixed-parameter scheme, two adaptive schemes that re-derive the
threshold from the spectrum every step, and a nuclear-norm baseline.
A benchmark harness generates synthetic Gaussian problems and grayscale
inpainting instances and serializes results as CSV.
"""

from .scalar import *  # noqa: F401,F403
from .matrix import *  # noqa: F401,F403
from .sampling import *  # noqa: F401,F403
from .problems import *  # noqa: F401,F403
from .metrics import *  # noqa: F401,F403
from .matrixio import *  # noqa: F401,F403
from .solvers import *  # noqa: F401,F403
from .bench import *  # noqa: F401,F403

__version__ = "0.1.0"
