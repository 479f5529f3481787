"""Nonlocal nonlinear integral operators with Orlicz-type growth.

Evaluates the discrete modular and interaction energies of operators of
fractional p-Laplacian type with general convex nonlinearities and general
singular radial kernels, solves the associated Dirichlet, reaction, and
eigenvalue problems variationally, and property-tests the functional
inequalities the calculus rests on (Poincare, Sobolev embedding, Kato,
Stroock-Varopoulos, Clarkson, symmetrization, rescaling nonexistence).
"""

__version__ = "0.1.0"

from .energy import (
    EnergyAssembly,
    E_value,
    F_value,
    apply_operator,
    assemble,
    gradient_E,
    interaction,
    luxemburg_norm_of,
)
from .errors import (
    BracketingError,
    BudgetExceededError,
    NlorliczError,
    ValidationError,
)
from .grid import (
    DomainGrid,
    GridFunction,
    bump,
    decreasing_rearrangement,
    indicator_function,
    make_grid,
    random_function,
)
from .harness import (
    BATTERY_MANIFEST,
    CorpusSpec,
    PropertyResult,
    battery_csv,
    run_battery,
    sobolev_embedding_check,
)
from .kernels import (
    Kernel,
    ScalingProfile,
    estimate_singularity_order,
    exterior_weights,
    lambda_exterior,
    make_kernel,
    poincare_constant,
    scaling_profile,
    tail_integral,
)
from .solvers import (
    PohozaevReport,
    ReactionSpec,
    SolveReport,
    check_reaction_conditions,
    mountain_pass_search,
    pohozaev_check,
    power_reaction,
    solve_dirichlet,
    solve_eigen,
    solve_sublinear,
)
from .young import (
    ClarksonReport,
    ComplementaryFunction,
    YoungFunction,
    clarkson_gap,
    complementary,
    gamma_bounds,
    gamma_bounds_deriv,
    luxemburg_norm,
    make_young,
    sv_delta,
)
