"""The public surface: what the pipeline runs and its entry points, no paper checks."""

import archpursuit
import paper_checks as checks
from archpursuit import geometry, glasso


def test_public_names_are_pinned_and_the_paper_checks_live_in_tests():
    assert archpursuit.__all__ == [
        "ExecutionTrace", "ExtremeSet", "FactorizeResult", "GeometryReport",
        "GroupLassoProblem", "LassoPath", "NnlsSolution", "NoiseSpec", "Partition", "PursuitConfig",
        "SeparableInstance", "SweepSpec", "classify_rows", "condition_kappa",
        "default_lambda_grid", "distributed_weights", "estimate_solid_angles", "factorize",
        "gen_hilbert_separable", "gen_noisy_pairs", "gen_uniform_separable", "geometry_report",
        "lambda_max", "load_binary", "load_csv", "nnls_fit",
        "posterior_missed_mass", "pursue", "required_m", "run_distributed", "run_noise",
        "run_scree", "run_sweep", "save_binary", "save_csv", "select_by_persistence",
        "select_top_voted", "simplicial_constant", "solve_path",
    ]
    own = [n for n, v in vars(checks).items() if getattr(v, "__module__", None) == checks.__name__]
    assert len(own) == 15 and [n for n in own if hasattr(geometry, n) or hasattr(glasso, n)] == []
