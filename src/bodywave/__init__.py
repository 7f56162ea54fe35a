"""Added-mass-stable partitioned fluid/rigid-body coupling toolkit.

The package couples 1D acoustic half-lines to a rigid body through an
impedance-weighted interface projection, predicts the stability of the
traditional and projected couplings by normal-mode analysis, evaluates the
exact solution of the model problem, builds added-mass tensors for 2D/3D
shapes, and integrates the implicit Newton-Euler equations that use them.
"""

from .addedmass import (
    AddedMassTensors,
    Ellipse,
    Ellipsoid,
    Starfish,
    added_mass_analytic,
    added_mass_tensors,
    sample_surface,
)
from .coupling import (
    CoupledState,
    SingularBodyUpdate,
    step_algorithm1,
    step_algorithm2,
)
from .exact import (
    ModelProblem,
    body_displacement_exact,
    body_velocity_exact,
    field_exact,
)
from .harness import RunConfig, run_mode
from .materials import FluidField1D, FluidMaterial, Grid1D
from .rigidbody3d import (
    BodyInertia,
    DIRKTableau,
    PartialForcing,
    RigidBodyState3D,
    dirk_step,
    project_surface_state,
)
from .schemes import CflViolation, lax_wendroff_step, upwind_step
from .stability import (
    GrowthConfig,
    StabilityQuery,
    count_unstable_modes,
    empirical_growth_rate,
    growth_rates,
    max_stable_dt_traditional,
    roots_first_order_projection,
    roots_first_order_traditional,
    second_order_determinant,
)

__version__ = "0.1.0"

__all__ = [
    "AddedMassTensors",
    "BodyInertia",
    "CflViolation",
    "CoupledState",
    "DIRKTableau",
    "Ellipse",
    "Ellipsoid",
    "FluidField1D",
    "FluidMaterial",
    "Grid1D",
    "GrowthConfig",
    "ModelProblem",
    "PartialForcing",
    "RigidBodyState3D",
    "RunConfig",
    "SingularBodyUpdate",
    "StabilityQuery",
    "Starfish",
    "added_mass_analytic",
    "added_mass_tensors",
    "body_displacement_exact",
    "body_velocity_exact",
    "count_unstable_modes",
    "dirk_step",
    "empirical_growth_rate",
    "field_exact",
    "growth_rates",
    "lax_wendroff_step",
    "max_stable_dt_traditional",
    "project_surface_state",
    "roots_first_order_projection",
    "roots_first_order_traditional",
    "run_mode",
    "sample_surface",
    "second_order_determinant",
    "step_algorithm1",
    "step_algorithm2",
    "upwind_step",
]
