"""Command-line front end.

Exit codes: 0 on success, 1 for input problems (missing or malformed
files, unknown names, bad parameters), 2 when a metric is mathematically
undefined on valid input (for example a non-positive available-power
balance).  All outputs are deterministic for fixed inputs and seed; no
timestamps are written.
"""

from __future__ import annotations

import errno
import functools
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

import click

from . import graphmetrics, hydraulics, performance, scoremetrics
from .errors import ComputationError, ValidationError
from .hydraulics import classify_states, load_series, save_series
from .inputs import DATA_DIR, check_integer, write_csv, write_text
from .network import load_network
from .performance import MetricValue
from .scenario import MC_METRICS, apply_scenario, load_scenario, monte_carlo

DEFAULT_THRESHOLD = 1.0


def _guarded(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except ValidationError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(1)
        except ComputationError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)
        except OSError as exc:
            # inputs.py maps every read error, so this is an output path
            click.echo(f"error: cannot write {exc.filename}: {exc.strerror}", err=True)
            sys.exit(1)

    return wrapper


def _check_writable(*paths, inputs=()) -> None:
    """Refuse each given output path that is a directory or whose parent is not
    one, two given paths that resolve to one file, where one output would
    overwrite the other, an output that resolves to one of the command's
    ``inputs``, which it would overwrite, and an output inside the package's
    data directory, whose files other commands read by default.  ``inputs``
    are the files the command reads; a bundled default is in that directory.

    Commands call this before any work, so a bad path costs no computation
    and leaves no partial output; ``_guarded`` reports the error.
    """
    read = {Path(path).resolve() for path in inputs if path}
    data = DATA_DIR.resolve()
    seen = set()
    for path in paths:
        if not path:  # unset, or "" which every command treats as unset
            continue
        path = Path(path)
        if path.is_dir():
            code = errno.EISDIR
        elif not path.parent.is_dir():
            code = errno.ENOTDIR if path.parent.exists() else errno.ENOENT
        else:
            target = path.resolve()
            if target in seen:
                raise ValidationError(f"two outputs name the same file: {path}")
            if target in read:
                raise ValidationError(f"an output names an input file: {path}")
            if data in target.parents:
                raise ValidationError(f"an output names a bundled data file: {path}")
            seen.add(target)
            continue
        raise OSError(code, os.strerror(code), str(path))


def _need(value, flag: str):
    if value is None:
        raise ValidationError(f"this metric requires {flag}")
    return value


def _write_json(payload: dict, out: str | None):
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if out:
        write_text(out, text)
    else:
        click.echo(text, nl=False)


@click.group()
def main():
    """Resilience analytics for water distribution networks."""


# ---------------------------------------------------------------------------
# metric
# ---------------------------------------------------------------------------

def _metric_todini(opts) -> dict:
    net = load_network(_need(opts["network"], "--network"))
    series = load_series(_need(opts["series"], "--series"))
    return performance.todini_index(net, series).to_dict()


def _metric_zhuang(opts) -> dict:
    series = load_series(_need(opts["series"], "--series"))
    return performance.zhuang_availability(series).to_dict()


def _metric_hashimoto(opts) -> dict:
    series = load_series(_need(opts["series"], "--series"))
    states = classify_states(series, opts["threshold"], per_node=opts["per_node"])
    result = performance.hashimoto_recovery(states).to_dict()
    result["states"] = "".join(states.states)
    return result


def _metric_flow_resilience(opts) -> dict:
    net = load_network(_need(opts["network"], "--network"))
    series = load_series(_need(opts["series"], "--series"))
    return performance.flow_based_resilience(net, series).to_dict()


def _metric_user_severity(opts) -> dict:
    series = load_series(_need(opts["series"], "--series"))
    node = _need(opts["node"], "--node")
    return performance.user_severity(series, node).to_dict()


def _metric_herrera(opts) -> dict:
    net = load_network(_need(opts["network"], "--network"))
    # the aggregate checks --trim only after the path search; reject it before
    check_integer(opts["k"], "k", 1)
    graphmetrics._check_trim(opts["trim"])
    rows = graphmetrics.node_index_table(net, k=opts["k"])
    # the aggregate can still overflow: compute it before writing anything
    aggregate = graphmetrics.trimmed_mean_index(
        [index for _, index, _ in rows], opts["trim"]
    )
    if opts["nodes_out"]:
        write_csv(opts["nodes_out"], ("node_id", "I", "weighted_I"), rows)
    report = MetricValue("herrera_trimmed_index", aggregate, None, inputs_digest=net.digest())
    return report.to_dict() | {
        "k": opts["k"],
        "trim_fraction": opts["trim"],
        "nodes": {node_id: index for node_id, index, _ in rows},
    }


def _metric_buffering(opts) -> dict:
    net = load_network(_need(opts["network"], "--network"))
    if opts["threshold_given"]:
        criterion = f"supply ratio >= {opts['threshold']}"
        k = performance.supply_buffering(net, opts["threshold"], max_k=opts["max_k"])
    else:
        criterion = "all junctions connected to a source"
        k = performance.connectivity_buffering(net, max_k=opts["max_k"])
    report = MetricValue("buffering_capacity", k, (0, opts["max_k"]), inputs_digest=net.digest())
    return report.to_dict() | {"feasibility": criterion}


def _metric_balaei(opts) -> dict:
    indicators = scoremetrics.load_indicators(_need(opts["indicators"], "--indicators"))
    report = MetricValue("balaei_aggregate", scoremetrics.balaei_aggregate(indicators), (0.0, 1.0))
    return report.to_dict() | {"indicators": [i.name for i in indicators]}


def _metric_wpr(opts) -> dict:
    checklist = scoremetrics.load_checklist(opts["checklist"])
    answers = scoremetrics.load_answers(_need(opts["answers"], "--answers"))
    score = scoremetrics.wpr_score(checklist, answers)
    report = MetricValue("wpr_score", score, (0, checklist.total))
    return report.to_dict() | {"total_criteria": checklist.total}


# implemented metric -> (report builder, catalog record name, citation key)
METRICS = {
    "todini": (_metric_todini, "resilience index", "Todini 2000"),
    "zhuang": (_metric_zhuang, "integral waterservice availability", "Zhuang 2013"),
    "hashimoto": (_metric_hashimoto, "system's average recovery rate", "Hashimoto 1982"),
    "flow_resilience": (_metric_flow_resilience, "Flow-Based Resilience Metric",
                        "Farahmandfar 2018"),
    "user_severity": (_metric_user_severity, "user severity", "Huizar 2018"),
    "herrera": (_metric_herrera, "resilience index", "Herrera 2016"),
    "buffering": (_metric_buffering, "buffering capacity", "Altherr 2018"),
    "balaei": (_metric_balaei, "water supply system seismic resilience indicator",
               "Balaei 2018"),
    "wpr": (_metric_wpr, "water provision resilience", "Milman 2008"),
}


@main.command(name="metric")
@click.argument("name")
@click.option("--network", help="Network JSON file.")
@click.option("--series", help="Hydraulic series CSV file.")
@click.option("--node", help="Node id (user_severity).")
@click.option("--threshold", type=float, default=None,
              help=f"Service threshold in (0, 1]; default {DEFAULT_THRESHOLD}.")
@click.option("--per-node", is_flag=True, help="Per-node thresholding (hashimoto).")
@click.option("--K", "k", type=int, default=graphmetrics.DEFAULT_K,
              help="Number of shortest paths (herrera).")
@click.option("--trim", type=float, default=graphmetrics.DEFAULT_TRIM,
              help="Trim fraction per tail for the aggregate (herrera).")
@click.option("--max-k", type=int, default=2, help="Search depth (buffering).")
@click.option("--indicators", help="Indicator CSV (balaei).")
@click.option("--checklist", help="Checklist JSON (wpr); defaults to the bundled file.")
@click.option("--answers", help="Answers JSON (wpr).")
@click.option("--nodes-out", help="Per-node index CSV output (herrera only).")
@click.option("--out", help="Write the JSON report here instead of stdout.")
@_guarded
def metric_cmd(name, **opts):
    """Compute one named metric and emit a JSON report."""
    _check_writable(opts["out"], opts["nodes_out"], inputs=[
        opts[flag] for flag in ("network", "series", "indicators", "checklist", "answers")
    ])
    if name not in METRICS:
        raise ValidationError(
            f"unknown metric {name!r}; valid names: {', '.join(sorted(METRICS))}"
        )
    if opts["nodes_out"] and name != "herrera":
        raise ValidationError("--nodes-out applies to the herrera metric only")
    opts["threshold_given"] = opts["threshold"] is not None
    if opts["threshold"] is None:
        opts["threshold"] = DEFAULT_THRESHOLD
    hydraulics._check_threshold(opts["threshold"])
    payload = METRICS[name][0](opts)
    _write_json(payload, opts["out"])
    if opts["out"]:
        click.echo(f"{payload['name']} = {payload['value']}")


# ---------------------------------------------------------------------------
# scenario
# ---------------------------------------------------------------------------

@main.group()
def scenario():
    """Run critical-event scenarios against a network."""


def _load_spec(path: str, seed: int | None, horizon: int | None):
    """The scenario file with the command line's seed and horizon, where given."""
    spec = load_scenario(path)
    if seed is not None:
        spec = replace(spec, seed=seed)
    if horizon is not None:
        spec = replace(spec, horizon=horizon)
    return spec


@scenario.command(name="run")
@click.option("--network", required=True, help="Network JSON file.")
@click.option("--spec", "spec_path", required=True, help="Scenario JSON file.")
@click.option("--horizon", type=int, default=None, help="Timestep count override.")
@click.option("--seed", type=int, default=None, help="Seed override.")
@click.option("--out", help="Write the resulting series CSV here.")
@_guarded
def scenario_run(network, spec_path, horizon, seed, out):
    """Apply a scenario and print per-step supply ratios."""
    _check_writable(out, inputs=(network, spec_path))
    net = load_network(network)
    spec = _load_spec(spec_path, seed, horizon)
    series = apply_scenario(net, spec)
    if out:
        save_series(series, out)
    for t in range(series.n_steps):
        delivered = float(series.delivered[t].sum())
        demand = float(series.demand[t].sum())
        click.echo(f"t={t} delivered={delivered:.6g} demand={demand:.6g} "
                   f"ratio={series.system_ratio(t):.6g}")


@scenario.command(name="mc")
@click.option("--network", required=True, help="Network JSON file.")
@click.option("--spec", "spec_path", required=True, help="Scenario JSON file.")
@click.option("--n", type=int, required=True, help="Replicate count.")
@click.option("--metric", "metric_name", required=True,
              help=f"Metric per replicate: {', '.join(sorted(MC_METRICS))}.")
@click.option("--horizon", type=int, default=None)
@click.option("--seed", type=int, default=None, help="Seed override.")
@click.option("--threshold", type=float, default=DEFAULT_THRESHOLD,
              help="Service threshold for state-based metrics.")
@click.option("--workers", type=int, default=1,
              help="Accepted for compatibility (must be >= 1); replicates "
                   "always run serially, so it does not change the output.")
@click.option("--exhaustive", is_flag=True,
              help="Enumerate failure sets in order instead of sampling.")
@click.option("--replicates-csv", help="Write per-replicate values here.")
@click.option("--out", help="Write the JSON report here instead of stdout.")
@_guarded
def scenario_mc(network, spec_path, n, metric_name, horizon, seed, threshold,
                workers, exhaustive, replicates_csv, out):
    """Monte Carlo evaluation of a metric over scenario replicates."""
    _check_writable(replicates_csv, out, inputs=(network, spec_path))
    if workers < 1:
        raise ValidationError("workers must be >= 1")
    hydraulics._check_threshold(threshold)
    net = load_network(network)
    spec = _load_spec(spec_path, seed, horizon)
    result = monte_carlo(net, spec, n, metric_name, exhaustive=exhaustive, threshold=threshold)
    if replicates_csv:
        write_csv(replicates_csv, ("replicate", "value"), enumerate(result.values))
    _write_json(result.to_dict(), out)
    if out:
        click.echo(f"{metric_name}: mean={result.summary['mean']:.6g} over n={result.n}")


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

# each catalog command imports ``catalog``, so a metric or scenario run never loads it
_catalog_option = click.option("--catalog", "catalog_path", help="Alternative catalog CSV.")


@main.group(name="catalog")
def catalog_group():
    """Meta-analysis of the bundled metric categorisation dataset."""


@catalog_group.command(name="counts")
@_catalog_option
@click.option("--out", help="Write the JSON summary here.")
@_guarded
def catalog_counts(catalog_path, out):
    """Per-category counts and multiplicity histograms."""
    from . import catalog as cat

    _check_writable(out, inputs=(catalog_path,))
    records = cat.load_catalog(catalog_path)
    summary = cat.summary_counts(records)
    click.echo(f"records: {summary.total}")
    for code in cat.FLAG_COLUMNS:
        share = summary.flag_shares[code]
        click.echo(f"  {code:>2}: {summary.flag_counts[code]:>3}  ({share:.0%})")
    click.echo("functions per metric: " + ", ".join(
        f"{k}->{v}" for k, v in summary.function_histogram.items()))
    click.echo("properties per metric: " + ", ".join(
        f"{k}->{v}" for k, v in summary.property_histogram.items()))
    if out:
        _write_json(summary.to_dict(), out)


@catalog_group.command(name="correlate")
@_catalog_option
@click.option("--out", help="Write the matrix CSV here.")
@_guarded
def catalog_correlate(catalog_path, out):
    """Pearson correlation matrix of the category flags."""
    from . import catalog as cat

    _check_writable(out, inputs=(catalog_path,))
    records = cat.load_catalog(catalog_path)
    matrix = cat.pearson_matrix(records)
    if out:
        write_csv(out, *matrix._table())
        click.echo(f"wrote {len(matrix.labels)}x{len(matrix.labels)} matrix to {out}")
    else:
        click.echo(matrix.to_csv(), nl=False)
    if matrix.undefined_labels:
        click.echo(
            f"warning: zero-variance columns {sorted(matrix.undefined_labels)}", err=True
        )


@catalog_group.command(name="cluster")
@_catalog_option
@click.option("--k", type=int, default=5, help="Cluster count.")
@click.option("--out", help="Write the label CSV here.")
@_guarded
def catalog_cluster(catalog_path, k, out):
    """Ward clustering of the catalog flags."""
    from . import catalog as cat

    _check_writable(out, inputs=(catalog_path,))
    records = cat.load_catalog(catalog_path)
    result = cat.ward_clustering(records, k=k)
    agreement = cat.reference_agreement(records, result)
    if out:
        rows = ((r.name, r.citation, label, r.cluster) for r, label in zip(records, result.labels))
        write_csv(out, ("metric", "citation", "cluster", "reference_cluster"), rows)
    else:
        for record, label in zip(records, result.labels):
            click.echo(f"{label}  {record.name}")
    click.echo(f"agreement with reference labels: {agreement:.4f}")


@catalog_group.command(name="dendrogram")
@_catalog_option
@click.option("--k", type=int, default=5, help="Cluster count for the flat labels.")
@click.option("--out", required=True, help="Write the JSON tree here.")
@click.option("--text", is_flag=True, help="Also write a plain-text render (.txt).")
@_guarded
def catalog_dendrogram(catalog_path, k, out, text):
    """Export the full merge tree."""
    from . import catalog as cat

    text_out = Path(out).with_suffix(".txt") if text else None
    _check_writable(out, text_out, inputs=(catalog_path,))
    records = cat.load_catalog(catalog_path)
    result = cat.ward_clustering(records, k=k)
    cat.dendrogram_export(result, out)
    if text_out:
        write_text(text_out, cat.dendrogram_text(result))
    click.echo(f"wrote {len(result.merges)} merges to {out}")


@main.command(name="list-metrics")
@_catalog_option
@_guarded
def list_metrics(catalog_path):
    """Implemented metrics with their catalog categorisation."""
    from . import catalog as cat

    records = cat.load_catalog(catalog_path)
    for name, (_, row_name, citation) in sorted(METRICS.items()):
        record = cat.find_record(records, row_name, citation)
        flags = ",".join(c for c in cat.FLAG_COLUMNS if record.flag(c))
        click.echo(f"{name:<16} {row_name} ({citation}): {flags}; cluster {record.cluster}")


if __name__ == "__main__":
    main()
