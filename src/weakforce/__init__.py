"""Numerical toolkit for the N-body problem with weak-force potential.

The interaction is U = sum m_i m_j / r_ij^alpha with 0 < alpha < 1. The
package computes free-time action minimizers, estimates the minimal-action
distance between configurations, constructs approximate hyperbolic motions
with a prescribed limit shape, and validates a family of explicit
configuration-space inequalities by randomized testing.
"""

from .action import (
    ActionValue,
    DiscretePath,
    MinimizeResult,
    SolverSettings,
    el_residual,
    energy_profile,
    maupertuis_lower_bound,
    minimize_fixed_time,
    minimize_free_time,
    path_action,
    path_action_gradient,
    straight_path,
)
from .configspace import (
    angle,
    is_collision_free,
    mass_vector,
    max_separation,
    min_separation,
    normalize_to_sphere,
    pair_distances,
    weighted_distance,
    weighted_inner,
    weighted_norm,
)
from .dynamics import (
    CollisionError,
    IntegrationError,
    PhasePoint,
    PotentialParams,
    ToleranceSettings,
    Trajectory,
    acceleration,
    angular_momentum,
    integrate,
    integrate_leapfrog,
    kinetic_energy,
    lagrangian,
    potential,
    potential_gradient,
    total_energy,
    total_momentum,
)
from .hyperbolic import HyperbolicRun, asymptotic_report, construct, default_radii
from .metric import (
    MetricSuiteConfig,
    check_lower_bounds,
    check_symmetry,
    check_triangle,
    run_metric_suite,
)
from .presets import circular_two_body, shape_preset
from .seeding import substream
from .validators import (
    SuiteConfig,
    check_norm_bounds,
    check_perturbation_estimates,
    check_ray_estimates,
    run_all_suites,
)

__version__ = "0.1.0"
