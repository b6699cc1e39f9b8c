"""Single-layer graph attention with hand-derived gradients.

The package evaluates one attention layer with full intermediate caching,
computes all parameter gradients analytically along two independent routes,
verifies them against a complex-step oracle, and diagnoses the structural
gradient pathologies the closed forms expose.
"""

from .diagnostics import closed_form_gap, diagnose
from .fdcheck import compare_gradients, fd_gradient
from .gen import generate_instance
from .grads import (
    GradientSet,
    backward_chain,
    grad_bias,
    grad_theta_l,
    grad_theta_r_pairwise,
    grad_theta_r_sum,
)
from .graph import Graph, load_graph, save_graph
from .layer import (
    ForwardTrace,
    LayerParams,
    forward_graph,
    forward_with_trace,
    leaky_relu,
    load_params,
    save_params,
)

__version__ = "0.1.0"

__all__ = [
    "Graph",
    "load_graph",
    "save_graph",
    "LayerParams",
    "ForwardTrace",
    "leaky_relu",
    "forward_with_trace",
    "forward_graph",
    "load_params",
    "save_params",
    "GradientSet",
    "grad_theta_r_sum",
    "grad_theta_r_pairwise",
    "grad_theta_l",
    "grad_bias",
    "backward_chain",
    "fd_gradient",
    "compare_gradients",
    "closed_form_gap",
    "diagnose",
    "generate_instance",
]
