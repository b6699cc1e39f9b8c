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
    grad_att,
    grad_bias,
    grad_theta_l,
    grad_theta_r_pairwise,
    grad_theta_r_sum,
    gradient_set_to_json_dict,
    leaky_relu_slopes,
    projection_totals,
    relative_error,
    softmax_jacobian,
)
from .graph import Graph, load_graph, save_graph
from .layer import (
    ForwardTrace,
    LayerParams,
    forward_graph,
    forward_with_trace,
    leaky_relu,
    load_params,
    neighbor_softmax,
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
    "neighbor_softmax",
    "forward_with_trace",
    "forward_graph",
    "load_params",
    "save_params",
    "GradientSet",
    "relative_error",
    "leaky_relu_slopes",
    "softmax_jacobian",
    "projection_totals",
    "grad_theta_r_sum",
    "grad_theta_r_pairwise",
    "grad_theta_l",
    "grad_bias",
    "grad_att",
    "backward_chain",
    "gradient_set_to_json_dict",
    "fd_gradient",
    "compare_gradients",
    "closed_form_gap",
    "diagnose",
    "generate_instance",
]
