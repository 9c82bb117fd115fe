"""Metric Fourier approximation of set-valued functions of bounded variation."""

from .geometry import (CHAIN_LIMIT, DEDUP_TOL, TIE_TOL, ChainExplosion,
                       DimensionMismatch, PointSet, convex_hull,
                       dist_point_set, enumerate_metric_chains,
                       hausdorff, hull_contains, is_metric_pair,
                       metric_average, metric_linear_combination, metric_pairs,
                       minkowski_combination, project, row_norms, set_norm,
                       vec_norm)
from .svf import (LocalModuli, MetricChain, MetricSelection, Partition,
                  SetValuedFunction, approximate_selection,
                  exhaustive_chain_family, greedy_chain, local_moduli,
                  one_sided_moduli, one_sided_value, selection_family,
                  total_variation, variation_function_samples,
                  variation_on_partition)
from .metric_integral import (InclusionReport, WeightFunction,
                              aumann_integral_convex, inclusion_check,
                              integrate_weight,
                              right_weighted_metric_riemann_sum,
                              weighted_metric_integral,
                              weighted_metric_riemann_sum)
from .fourier import (ClassReport, chain_coefficients, class_membership,
                      delta_grid, dirichlet, dirichlet_antiderivative,
                      dirichlet_cos_sum, djordan_bound_rhs,
                      family_coefficients, fit_K,
                      fourier_coefficients, limit_set_AF, metric_fourier,
                      min_djordan_bound, modified_dirichlet,
                      modified_dirichlet_antiderivative, partial_sum_of_chain,
                      partial_sum_of_selection, selection_coefficients,
                      svf_bound_rhs, svf_jump_omega, trig_eval)

__version__ = "0.1.0"
