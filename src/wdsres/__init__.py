"""Resilience metrics, failure scenarios, and a metric meta-analysis for
water distribution systems.

Each exported name loads its defining module on first use, so a fresh
``import wdsres`` loads no submodule, and ``import wdsres;
wdsres.load_network(path)`` loads only ``wdsres.errors``, ``wdsres.inputs``
and ``wdsres.network``: not numpy, ``hashlib`` or ``logging``.
"""

__version__ = "0.1.0"

# exported name -> the submodule that defines it
_EXPORTS = {
    **dict.fromkeys((
        "CLUSTER_FEATURES", "FLAG_COLUMNS", "CatalogSummary", "ClusteringResult",
        "CorrelationMatrix", "MetricRecord", "dendrogram_export", "load_catalog",
        "pearson_matrix", "reference_agreement", "summary_counts", "ward_clustering",
    ), "catalog"),
    **dict.fromkeys((
        "BaselineInfeasibleError", "ComputationError", "InfeasibleDesignError",
        "InfiniteResilienceError", "ResilienceError", "UndefinedInputError",
        "ValidationError",
    ), "errors"),
    **dict.fromkeys((
        "WeightedPath", "demand_weighted_index", "k_shortest_paths", "node_index_table",
        "node_resilience_index", "trimmed_mean_index",
    ), "graphmetrics"),
    **dict.fromkeys((
        "BinaryStateSeries", "FlowAllocation", "HydraulicSeries", "allocate_flows",
        "classify_states", "load_series", "save_series", "surrogate_allocation",
    ), "hydraulics"),
    **dict.fromkeys((
        "Junction", "Network", "Pipe", "Pump", "Source", "load_network",
        "network_from_dict", "pipe_resistance", "save_network",
    ), "network"),
    **dict.fromkeys((
        "GAMMA_W", "MetricValue", "buffering_capacity", "connectivity_buffering",
        "connectivity_feasibility", "flow_based_resilience", "hashimoto_recovery",
        "pipe_fragility", "supply_buffering", "supply_feasibility", "todini_index",
        "user_functionality", "user_severity", "zhuang_availability",
    ), "performance"),
    **dict.fromkeys((
        "MC_METRICS", "Event", "MonteCarloResult", "ScenarioSpec", "apply_scenario",
        "load_scenario", "monte_carlo", "scenario_from_dict",
    ), "scenario"),
    **dict.fromkeys((
        "Indicator", "WprChecklist", "balaei_aggregate", "load_answers", "load_checklist",
        "load_indicators", "wpr_score",
    ), "scoremetrics"),
    **dict.fromkeys(("Merge", "cut_clusters", "partition_agreement", "ward_linkage"),
                    "wardclust"),
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    """Load an exported name from its module and keep it here (PEP 562)."""
    if name not in _EXPORTS:
        # the standard error, so ``from . import <submodule>`` falls back to importing it
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
