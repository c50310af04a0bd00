"""Average consensus and distributed optimization over lossy directed networks.

The package simulates push-sum style protocols whose broadcasts may be
dropped, rebuilds the same dynamics as products of row-stochastic matrices
over an augmented node set (one buffer node per link), and certifies the
worst-case guarantees of both the consensus error and the optimality gap of
dual averaging driven by the robust protocol.

The public names are those each module lists in its ``__all__``.
"""

from . import consensus, dual_averaging, errors, graphs, harness, mixing, problems, schedules
from .consensus import *  # noqa: F403
from .dual_averaging import *  # noqa: F403
from .errors import *  # noqa: F403
from .graphs import *  # noqa: F403
from .harness import *  # noqa: F403
from .mixing import *  # noqa: F403
from .problems import *  # noqa: F403
from .schedules import *  # noqa: F403

__version__ = "0.1.0"

__all__ = sorted(
    {
        name
        for module in (consensus, dual_averaging, errors, graphs, harness, mixing, problems, schedules)
        for name in module.__all__
    }
)
