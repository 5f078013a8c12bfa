"""Archetype pursuit: extreme points of a data cloud via random linear functionals.

Finding the rows of X that are extreme points of the convex hull of all rows
gives the archetypes of an archetypal analysis and the H factor of a
separable non-negative matrix factorization; the weights follow from a single
non-negative least squares solve.  The package provides the randomized
pursuit (fixed-budget and adaptive), a simulated distributed variant that
reads the data once per pursuit round, majority-vote and non-negative
group-lasso selection for noisy data, and geometric condition-number
diagnostics.
"""

from types import ModuleType as _ModuleType

from .distributed import (
    ExecutionTrace,
    Partition,
    distributed_weights,
    run_distributed,
)
from .experiments import (
    FactorizeResult,
    NoiseSpec,
    SweepSpec,
    classify_rows,
    factorize,
    run_noise,
    run_scree,
    run_sweep,
)
from .extreme_points import (
    BlockOptima,
    ExtremeSet,
    PursuitConfig,
    block_optima,
    linear_scores,
    posterior_missed_mass,
    pursue,
    select_top_voted,
)
from .geometry import (
    GeometryReport,
    condition_kappa,
    estimate_solid_angles,
    geometry_report,
    required_m,
    simplicial_constant,
)
from .glasso import (
    GroupLassoProblem,
    LassoPath,
    default_lambda_grid,
    lambda_max,
    select_by_persistence,
    solve_path,
)
from .matrix_io import (
    SeparableInstance,
    gen_hilbert_separable,
    gen_noisy_pairs,
    gen_uniform_separable,
    load_binary,
    load_csv,
    save_binary,
    save_csv,
)
from .nnls import NnlsSolution, nnls_fit

__version__ = "0.1.0"

# The public names imported above; deriving the list keeps it from drifting.
__all__ = sorted(
    name
    for name, value in globals().items()
    if not (name.startswith("_") or isinstance(value, _ModuleType))
)
