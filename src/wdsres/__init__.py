"""Resilience metrics, failure scenarios, and a metric meta-analysis for
water distribution systems."""

from .catalog import (
    CLUSTER_FEATURES,
    FLAG_COLUMNS,
    CatalogSummary,
    ClusteringResult,
    CorrelationMatrix,
    MetricRecord,
    dendrogram_export,
    load_catalog,
    pearson_matrix,
    reference_agreement,
    summary_counts,
    ward_clustering,
)
from .errors import (
    BaselineInfeasibleError,
    ComputationError,
    InfeasibleDesignError,
    InfiniteResilienceError,
    ResilienceError,
    UndefinedInputError,
    ValidationError,
)
from .graphmetrics import (
    WeightedPath,
    demand_weighted_index,
    k_shortest_paths,
    node_index_table,
    node_resilience_index,
    trimmed_mean_index,
)
from .hydraulics import (
    BinaryStateSeries,
    FlowAllocation,
    HydraulicSeries,
    allocate_flows,
    classify_states,
    load_series,
    save_series,
    surrogate_allocation,
)
from .network import (
    Junction,
    Network,
    Pipe,
    Pump,
    Source,
    load_network,
    network_from_dict,
    pipe_resistance,
    save_network,
)
from .performance import (
    GAMMA_W,
    MetricValue,
    buffering_capacity,
    connectivity_buffering,
    connectivity_feasibility,
    flow_based_resilience,
    hashimoto_recovery,
    pipe_fragility,
    supply_buffering,
    supply_feasibility,
    todini_index,
    user_functionality,
    user_severity,
    zhuang_availability,
)
from .scenario import (
    MC_METRICS,
    Event,
    MonteCarloResult,
    ScenarioSpec,
    apply_scenario,
    load_scenario,
    monte_carlo,
    scenario_from_dict,
)
from .scoremetrics import (
    Indicator,
    WprChecklist,
    balaei_aggregate,
    load_answers,
    load_checklist,
    load_indicators,
    wpr_score,
)
from .wardclust import Merge, cut_clusters, partition_agreement, ward_linkage

__version__ = "0.1.0"
