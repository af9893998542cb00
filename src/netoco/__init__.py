"""Networked online convex optimization with long-term constraints.

Simulation library and benchmark harness for units that share a time-varying
communication graph, run consensus primal-dual updates under full-information
or one-point bandit feedback, and are scored by system regret and cumulative
absolute constraint violation.
"""

from .algorithm import HyperSchedule, make_schedule
from .bench import ScenarioConfig, list_presets, load_config, preset_config, run_suite
from .metrics import (
    BoundConstants,
    ConvergenceError,
    MetricSeries,
    averaged_metrics,
    bound_constants,
    checkpoint_grid,
    checkpoint_series,
    communication_cost,
    offline_comparators,
)
from .network import Graph, TopologySchedule, default_ring_6, max_degree_weights, verify_window_connectivity
from .problems import (
    BoxConstraintSet,
    DatasetTable,
    RegressionStream,
    dataset_stream,
    parse_libsvm,
    serialize_libsvm,
    synthetic_stream,
)
from .reference import (
    ConstraintSet,
    LossOracle,
    cacv,
    clipped_subgradient,
    consensus_mix,
    offline_comparator,
    one_point_estimator,
    product_deviation,
    project_ball,
    regression_loss,
    regret,
    sample_unit_sphere,
    sreg,
)

__version__ = "0.1.0"
