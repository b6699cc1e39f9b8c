"""Single-layer graph attention with hand-derived gradients.

The package evaluates one attention layer with full intermediate caching,
computes all parameter gradients analytically along two independent routes,
verifies them against a complex-step oracle, and diagnoses the structural
gradient pathologies the closed forms expose.
"""

from . import diagnostics, fdcheck, gen, grads, graph, layer
from .diagnostics import *  # noqa: F403
from .fdcheck import *  # noqa: F403
from .gen import *  # noqa: F403
from .grads import *  # noqa: F403
from .graph import *  # noqa: F403
from .layer import *  # noqa: F403

__version__ = "0.1.0"

# The public surface is each module's own __all__.
__all__ = [name for m in (graph, layer, grads, fdcheck, diagnostics, gen) for name in m.__all__]
