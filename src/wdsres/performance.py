"""Performance-based resilience metrics.

Each metric follows its published closed form.  Values that leave the
metric's nominal range are reported raw with a warning attached; nothing
is clamped, because estimator artifacts (for example a recovery rate above
one on a short state sequence) are information, not noise.
:meth:`MetricValue.to_dict` is the shape of every ``metric`` report; the
CLI adds only each metric's own extras to it.

Buffering capacity (k-resilience) comes three ways.  Under the
connectivity criterion :func:`connectivity_buffering` computes it exactly
in polynomial time from edge-disjoint paths (Menger's theorem), with one
local flow per edge of a spanning tree (Gomory & Hu 1961).  Under the
supply criterion :func:`supply_buffering` walks the failure sets but
solves only those that neither a smaller subset's flow, solved or
rerouted, nor a rerouting of the intact network's flow settles; most
reroutes need no push, since two that share no arc and cross neither's
failed pipes compose into one, and at the last level an index of the
arcs each pipe's own reroute crossed passes most such pairs with no
check of their own.  For any other criterion
:func:`buffering_capacity` enumerates every failure set of pipes and
pumps against a feasibility oracle; with :func:`connectivity_feasibility`
and :func:`supply_feasibility` it is also the test oracle for the two
fast paths.  All three run the same argument and baseline checks, in the
same order and with the same messages.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass
from itertools import combinations
from typing import Callable

# numpy is imported inside the one function that builds an array, so the
# structural metrics and the buffering searches run without loading it

from . import hydraulics
from .errors import (
    BaselineInfeasibleError,
    InfeasibleDesignError,
    UndefinedInputError,
    ValidationError,
)
from .hydraulics import FAILURE, SATISFACTORY, BinaryStateSeries, HydraulicSeries
from .inputs import check_integer
from .network import Network, Pipe

# specific weight of water, N/m3
GAMMA_W = 9810.0


@dataclass(frozen=True)
class MetricValue:
    """A computed metric with its nominal range and provenance digest.

    A value outside ``nominal_range`` gets one warning that says so, after
    the ``warnings`` it was given; a value without a range gets none.
    """

    name: str
    value: float
    nominal_range: tuple[float, float] | None
    warnings: tuple[str, ...] = ()
    inputs_digest: str = ""

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise ValidationError(f"metric {self.name!r} produced a non-finite value")
        warnings = tuple(self.warnings)
        if self.nominal_range is not None:
            lo, hi = self.nominal_range
            if not lo <= self.value <= hi:
                warnings += (f"value {self.value!r} outside nominal range [{lo}, {hi}]",)
        object.__setattr__(self, "warnings", warnings)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "value": self.value,
            "nominal_range": list(self.nominal_range) if self.nominal_range else None,
            "warnings": list(self.warnings),
            "inputs_digest": self.inputs_digest,
        }


def hashimoto_recovery(states: BinaryStateSeries) -> MetricValue:
    """Average recovery rate of a satisfactory/failure state sequence.

    Estimated from a single trajectory of T states: the share of
    satisfactory states and the share of S-to-F transition pairs (T-1 pairs)
    form the ratio rho / (1 - alpha).  Note the numerator is the joint
    S-then-F probability, not a conditional one, so short sequences can
    push the estimate above 1; such values are flagged, not clamped.
    """
    seq = states.states
    if len(seq) < 2:
        raise ValidationError("recovery rate needs at least two states")
    t = len(seq)
    n_s = sum(1 for s in seq if s == SATISFACTORY)
    warnings = []
    if n_s == t:
        # never failed: no recovery evidence, reported as perfect by convention
        value = 1.0
        warnings.append("no failure observed; value 1.0 by convention")
    else:
        alpha = n_s / t
        rho = sum(
            1 for a, b in zip(seq, seq[1:]) if a == SATISFACTORY and b == FAILURE
        ) / (t - 1)
        value = rho / (1.0 - alpha)
    return MetricValue("hashimoto_recovery", value, (0.0, 1.0), warnings, states.digest())


def zhuang_availability(series: HydraulicSeries) -> MetricValue:
    """Delivered over demanded volume, summed over nodes and every step."""
    total_demand = float(series.demand.sum())
    if total_demand <= 0:
        raise UndefinedInputError("availability is undefined at zero total demand")
    value = float(series.delivered.sum()) / total_demand
    return MetricValue("zhuang_availability", value, (0.0, 1.0), inputs_digest=series.digest())


def pipe_fragility(pipe: Pipe) -> float:
    """Failure probability 1 - exp(-repair_rate * length), in [0, 1)."""
    return -math.expm1(-pipe.repair_rate * pipe.length)


def flow_based_resilience(net: Network, series: HydraulicSeries) -> MetricValue:
    """Fragility-weighted surplus-head metric over a demand pattern.

    Per node and timestep the head surplus ``q*(h - h*)`` is weighted by the
    summed reliability ``(1 - Pf)`` of the incident pipes; the denominator
    carries a fixed factor of 4 on the demand-head product.  Both sums run
    over every node and step.
    """
    import numpy as np

    _check_series_nodes(net, series)
    reliability = {
        j.id: sum(1.0 - pipe_fragility(net.pipe(pid)) for pid in net.incident_pipes(j.id))
        for j in net.junctions
    }
    rel = np.array([reliability[nid] for nid in series.node_ids])
    demand = series.demand
    surplus = series.head - series.required_head
    numerator = float((rel * demand * surplus).sum())
    denominator = 4.0 * float((demand * series.required_head).sum())
    if denominator <= 0:
        raise UndefinedInputError("flow-based resilience needs a positive demand-head product")
    value = numerator / denominator
    return MetricValue("flow_based_resilience", value, (0.0, 1.0),
                       inputs_digest=f"{net.digest()}+{series.digest()}")


def user_functionality(supply: float, demand: float) -> float:
    """Supply over demand, uncapped; oversupply is reported as-is."""
    if demand <= 0:
        raise UndefinedInputError("user functionality is undefined at zero demand")
    return supply / demand


def user_severity(series: HydraulicSeries, node_id: str) -> MetricValue:
    """Minimum supply/demand ratio of one node over every step."""
    i = series.node_index(node_id)
    ratios = []
    for t in range(series.n_steps):
        demand = float(series.demand[t, i])
        if demand <= 0:
            raise UndefinedInputError(
                f"node {node_id!r} has zero demand at t={t}; severity undefined"
            )
        ratios.append(float(series.delivered[t, i]) / demand)
    value = min(ratios)
    return MetricValue("user_severity", value, (0.0, 1.0),
                       inputs_digest=f"{series.digest()}:{node_id}")


def todini_index(net: Network, state: HydraulicSeries) -> MetricValue:
    """Surplus power over the maximum dissipable power for one snapshot.

    Numerator: sum of ``q*(h - h*)`` over junctions.  Denominator: source
    flow-head products plus pump power over the specific weight of water,
    minus the demand-head requirement.  Head deficits contribute
    negatively; they are kept, not floored.
    """
    _check_series_nodes(net, state)
    if state.n_steps != 1:
        raise ValidationError("the resilience index expects a single-timestep series")
    demand = state.demand[0]
    surplus = state.head[0] - state.required_head[0]
    numerator = float((demand * surplus).sum())
    source_power = sum(s.outflow * s.total_head for s in net.sources)
    pump_power = sum(p.power / GAMMA_W for p in net.pumps)
    required = float((demand * state.required_head[0]).sum())
    denominator = source_power + pump_power - required
    if denominator <= 0:
        raise InfeasibleDesignError(
            "available power does not exceed the required power; index undefined"
        )
    value = numerator / denominator
    return MetricValue("todini_index", value, (0.0, 1.0),
                       inputs_digest=f"{net.digest()}+{state.digest()}")


def _check_buffering(net: Network, max_k: int) -> tuple:
    pool = tuple(sorted((*net.pipe_ids, *net.pump_ids)))  # every failable component
    check_integer(max_k, "max_k", 0)
    if max_k > len(pool):
        raise ValidationError(f"max_k={max_k} exceeds the {len(pool)} failable components")
    return pool


def _check_baseline(feasible: bool) -> None:
    if not feasible:
        raise BaselineInfeasibleError("the intact system already fails the feasibility check")


def buffering_capacity(
    net: Network, feasibility: Callable[[frozenset[str]], bool], max_k: int = 2
) -> int:
    """Largest k such that every failure set of at most k components passes.

    ``feasibility`` receives a frozenset of failed component ids (drawn
    from all pipes and pumps) and must be a pure predicate, so any criterion
    can be plugged in.  All subsets are enumerated exactly, which is
    exponential in ``max_k``; keep ``max_k`` small on anything beyond
    desk-scale networks.  For the connectivity criterion use
    :func:`connectivity_buffering`, which gives the same value in
    polynomial time, and for the supply criterion
    :func:`supply_buffering`, which gives it from far fewer solves.
    """
    pool = _check_buffering(net, max_k)
    _check_baseline(feasibility(frozenset()))
    for k in range(1, max_k + 1):
        for failed in combinations(pool, k):
            if not feasibility(frozenset(failed)):
                return k - 1
    return max_k


def connectivity_buffering(net: Network, max_k: int = 2) -> int:
    """Buffering capacity under the connectivity criterion, from local flows
    along a spanning tree.

    Returns ``buffering_capacity(net, connectivity_feasibility(net), max_k)``,
    with the same errors, without enumerating failure sets.  Merge every
    source into one node s*.  Parallel pipes count separately, pipes
    between two sources become loops at s* and cross no cut, and pumps
    carry no connectivity.  The fewest pipe failures that cut junction
    ``j`` off equal the number of edge-disjoint s*-to-``j`` paths,
    ``lambda(s*, j)`` (Menger 1927), and every set of at most k failures
    leaves all junctions connected iff k < lambda = min_j lambda(s*, j).
    Every node but s* is a junction, so a minimum cut of the merged
    multigraph separates s* from some junction, and lambda is its edge
    connectivity.  Edge connectivity obeys lambda(u, w) >= min(lambda(u, v),
    lambda(v, w)), so for any spanning tree, lambda is the least
    lambda(p, c) over the tree's edges (p, c) (Gomory & Hu 1961): some
    tree edge crosses a minimum cut, and none crosses less.  The answer is
    ``min(max_k, lambda - 1)``.

    The tree is a breadth-first walk of the pipes from the sources, which
    also answers the baseline check: it reaches every junction or not.  A
    junction reached from a source hangs from s*.  Each tree edge then
    gets one flow on the network's compiled flow model, with unit pipe
    capacities, ``max_k + 1`` on every arc between the super-source and a
    source, either way, so that a flow may pass through s*, and no demand
    arc open.  The kernel pushes at most the smallest lambda(p, c) found so
    far, at most ``max_k + 1``, from p to c; a flow that stops short gives
    lambda(p, c) exactly, and the bound drops to it.  Unit capacities keep
    every push an exact integer.  All flows run on one list of residuals,
    and after each one the arcs it crossed, the keys of its pushes, are set
    back.  Most flows find their paths next to their edge, and the search
    ends at the first tree edge that a single pipe failure cuts.  The
    flow per junction that this replaced is kept in the tests
    (``tests/reference_flow.py``) as a second oracle for networks where
    enumeration is out of reach.
    """
    model = hydraulics._model(net)
    _check_buffering(net, max_k)
    n_sources = len(model.source_ids)
    tree = []  # (p, c) in the flow model's numbering, with s* for a source
    seen = bytearray(len(model.index))
    seen[:n_sources] = b"\x01" * n_sources
    queue = list(range(n_sources))
    for node in queue:
        parent = model.super_source if node < n_sources else node
        for _, other in model.pipe_adjacency[node]:
            if not seen[other]:
                seen[other] = 1
                queue.append(other)
                tree.append((parent, other))
    _check_baseline(len(queue) == len(seen))

    # every junction is connected, so lambda >= 1 and at max_k = 0 the first flow ends the search
    lam = max_k + 1
    # the source arcs, then the pipe arcs, then the demand arcs
    n_pipe_arcs = model.first_demand_arc - 2 * n_sources
    base = ([float(lam)] * (2 * n_sources) + [1.0] * n_pipe_arcs
            + [0.0] * (len(model.heads) - model.first_demand_arc))
    caps = base.copy()
    for p, c in tree:
        sent = defaultdict(float)
        if not hydraulics._edmonds_karp(caps, model.heads, model.adjacency, p, c, lam, sent):
            # what reached c: each arc out of c gained what came in on its reverse
            lam = int(sum(caps[ai] - base[ai] for ai, _ in model.adjacency[c]))
        for ai in sent:
            caps[ai] = base[ai]
            caps[ai ^ 1] = base[ai ^ 1]
        if lam == 1:
            break
    return min(max_k, lam - 1)


def connectivity_feasibility(net: Network) -> Callable[[frozenset[str]], bool]:
    """Feasibility oracle: every junction keeps a path to some source.

    Failed pump ids in the set are accepted and ignored, since pumps do not
    carry connectivity.
    """
    pump_ids = set(net.pump_ids)

    def feasible(failed: frozenset[str]) -> bool:
        reachable = net.reachable_from_sources(failed - pump_ids)
        return all(j.id in reachable for j in net.junctions)

    return feasible


def supply_feasibility(net: Network, threshold: float) -> Callable[[frozenset[str]], bool]:
    """Feasibility oracle: allocated supply covers ``threshold`` of demand.

    Failed pump ids in the set are accepted and ignored, since the
    surrogate allocator has no pump model.
    """
    hydraulics._check_threshold(threshold)
    pump_ids = set(net.pump_ids)

    def feasible(failed: frozenset[str]) -> bool:
        alloc = hydraulics.allocate_flows(net, failed_pipes=failed - pump_ids)
        return alloc.total_delivered >= _needed(threshold, alloc.total_demand)

    return feasible


def _needed(threshold: float, total_demand: float) -> float:
    return threshold * total_demand - 1e-12  # the supply bound, met by 0.0 at zero demand


def supply_buffering(net: Network, threshold: float, max_k: int = 2) -> int:
    """Buffering capacity under the supply criterion, pruned by max-flow support
    and rerouting certificates.

    Returns ``buffering_capacity(net, supply_feasibility(net, threshold), max_k)``,
    with the same errors, from far fewer max-flow solves.  Levels k =
    1..``max_k`` are walked in the enumerator's order, and three rules,
    tried in this order, settle a failure set without a solve of its own.

    The support lemma: if some max flow of ``G - F'`` sends nothing through
    pipe ``q``, that flow is still a max flow of ``G - F' - q``, so both
    deliver the same total.  Each failure set of the previous level keeps
    one entry: its delivered total and its support, which for a solved set
    are the pipes whose net flow, summed from the kernel's pushes, is not
    zero.  A set of level k reuses the entry object of a (k - 1)-subset
    when the remaining component is outside that subset's support and the
    subset's total clears the threshold by ``1e-9`` of the total demand,
    since a fresh solve can differ from it in the last bits.  A pump
    changes no capacity of the surrogate, so it is in no support and a set
    with a pump always reuses the entry of the set without it.

    Composition: each certificate below is a flow on the intact network's
    residuals, so two of them that cross no arc in common add up to one,
    and if neither crosses a pipe that the other fails, the sum is a flow
    of the network without both sets that delivers the intact total
    (:func:`_composes`).  A set ``F`` is certified with no push when, for
    a component ``c`` tried in ascending order, ``F - c`` holds a
    certificate, ``c`` alone was certified by its pushes at level 1, and
    the two compose.
    The composed entry crossed the arcs of both and touched the pipes of
    both.  No set passes this way below ``max_k = 3``.  At level 1 a set's
    own pipe holds no certificate yet.  At a last level of 2, the split
    that ends in the new pipe is the arc index's own conflict test, which
    sent the set here, and the other split is the same test mirrored; a
    base without a certificate has nothing to compose.

    The rerouting certificate (Wollmer 1963; Ratliff, Sicilia & Lubore
    1975): on the residuals of the intact network's max flow, zero both
    arcs of every failed pipe, then push each failed pipe's net flow from
    its upstream end to its downstream end (:func:`_reroutes`).  If every
    push goes through, ``G - F`` carries the intact total, and the set
    passes when that total clears the threshold by the same margin.  The
    rerouted flow is the intact flow but on the failed pipes and the pipes
    the pushes crossed, so a pipe ``q`` outside the intact support and
    those pipes carries no net flow in it, and the support lemma settles
    ``F + q`` as it would from a solved set.  A certified set's entry
    holds the intact total and, as its support, the intact support, shared
    by every certified set, plus a tuple of the pipes the pushes crossed
    and a tuple of the crossed arcs; its failed pipes need no place there,
    since a set of the next level adds a pipe outside them.  The pushes of
    every search run on one list of residuals, which :func:`_reroutes`
    sets back after each set.

    Every other set gets its own solve and the oracle's exact comparison;
    the first one that fails ends the search.  The rules only ever pass a
    set, so that one always gets its solve.  Only the previous level's
    entries are kept, and only the sets below ``max_k`` build one.  Each
    set ``S + (q,)`` of a level is built from an entry ``S`` of the level
    before, with ``q`` after ``S``'s last component in pool order, which is
    the enumerator's order.  At ``max_k`` no entry is kept, so where ``S``'s
    total clears the margin only its support and touched pipes are tried as
    ``q``: the support lemma settles every other ``q`` from ``S``.

    The arc index: after level 1, each arc maps to the pipes whose level-1
    certificate crossed it.  The baseline's entry holds the empty
    certificate, since the intact flow crosses no arc.  At ``max_k``, take
    a base ``S`` whose entry clears the margin and holds a certificate
    that crossed arcs ``A``.  A certified pipe ``q`` fails to compose with
    ``S`` only if its certificate crossed an arc of ``A`` or an arc of a
    pipe of ``S``, or ``A`` crossed ``q`` (:func:`_conflicts`), and every
    other certified ``q`` passes with no check of its own.  So only those
    conflicts and the intact support's pipes that hold no level-1
    certificate go through the rules above; a solved base tries its whole
    support.  The index only passes sets, so the first failing set still
    gets its solve.

    Finding the fewest failures that cut the flow below the threshold is
    max-flow interdiction, NP-hard in general, so the search stays
    exponential in ``max_k``: the rules make each failure set cheaper, and
    the index makes fewer sets of the last level need any work.  On a
    5 x 5 torus at ``max_k=2`` the intact network's is the only solve,
    where the enumeration makes 1486 and the support lemma alone 351, the
    certificates take 209 pushes, 701 without composition, and the last
    level checks 146 pairs for composition, 354 without the index.
    """
    hydraulics._check_threshold(threshold)
    pool = _check_buffering(net, max_k)
    baseline = hydraulics.allocate_flows(net)
    needed = _needed(threshold, baseline.total_demand)
    _check_baseline(baseline.total_delivered >= needed)
    model = hydraulics._model(net)
    # the baseline's flow, kept before any fresh solve replaces the memo
    _, residual, sent = model.last_solve
    clears = needed + 1e-9 * baseline.total_demand
    pump_ids = frozenset(net.pump_ids)
    # pipe arcs follow the source arcs, one pair per pipe in pipe order
    first_pipe_arc = 2 * len(model.source_ids)

    # an entry is (total, support, touched pipes, crossed arcs), with None
    # for the arcs of a solved set
    def entry(alloc: hydraulics.FlowAllocation) -> tuple:
        support = frozenset(p for p, flow in alloc.pipe_flows.items() if flow != 0.0)
        return alloc.total_delivered, support, (), None

    def rerouted_entry(arcs: tuple[int, ...]) -> tuple:
        return intact_total, intact_support, tuple({
            model.pipe_ids[(ai - first_pipe_arc) >> 1] for ai in arcs
            if first_pipe_arc <= ai < model.first_demand_arc
        }), arcs

    def composition(failed: tuple[str, ...]) -> tuple | None:
        # the entries of a subset and of the remaining pipe alone whose
        # certificates add up to one of failed
        for i, component in enumerate(failed):
            if component in singles:
                rest = failed[:i] + failed[i + 1:]
                rest_entry = previous[rest]
                crossed, single = singles[component]
                if rest_entry[3] is not None and _composes(model, rest, rest_entry[3],
                                                           component, crossed):
                    return rest_entry, single
        return None

    rank = {component: j for j, component in enumerate(pool)}
    intact_total, intact_support, _, _ = entry(baseline)
    # the intact flow crosses no arc, so it certifies the empty set
    previous = {(): (intact_total, intact_support, (), ())}
    rerouting = intact_total >= clears
    caps = list(residual)
    singles = {}  # the level-1 certificates, by pipe: crossed arcs and entry
    inv = {}  # arc -> the pipes whose level-1 certificate crossed it
    for k in range(1, max_k + 1):
        last = k == max_k
        current = {}
        # read at the last level, when singles holds every level-1 certificate
        uncertified = sorted(rank[p] for p in intact_support if p not in singles)
        for base, base_entry in previous.items():
            start = rank[base[-1]] + 1 if base else 0
            if not last or base_entry[0] < clears:
                tails = range(start, len(pool))
            elif base_entry[3] is None:
                # base settles every set that adds a component outside its support
                tails = sorted(j for j in map(rank.__getitem__, base_entry[1]) if j >= start)
            else:
                # and every certified pipe outside its conflicts composes with it
                conflicts = _conflicts(model, inv, base, base_entry[3], base_entry[2])
                tails = sorted({*uncertified[bisect_left(uncertified, start):],
                                *(j for j in map(rank.__getitem__, conflicts) if j >= start)})
            for j in tails:
                failed = base + (pool[j],)
                for i, component in enumerate(failed):
                    parent = previous[failed[:i] + failed[i + 1:]]
                    if component in pump_ids or (
                        parent[0] >= clears and component not in parent[1]
                        and component not in parent[2]
                    ):
                        break
                else:
                    # a set gets here only when it holds no pump
                    pair = composition(failed)
                    if pair is not None:
                        rest_entry, single = pair
                        parent = None if last else (
                            intact_total, intact_support, tuple({*rest_entry[2], *single[2]}),
                            rest_entry[3] + single[3])
                    else:
                        pushes = defaultdict(float)
                        if rerouting and _reroutes(model, caps, residual, sent, failed, pushes):
                            parent = rerouted_entry(tuple(pushes))
                            if k == 1 and not last:
                                singles[failed[0]] = frozenset(pushes), parent
                                for ai in pushes:
                                    inv.setdefault(ai, []).append(failed[0])
                        else:
                            alloc = hydraulics.allocate_flows(net, failed_pipes=failed)
                            if alloc.total_delivered < needed:
                                return k - 1
                            parent = entry(alloc)
                if not last:  # the last level keeps no entry
                    current[failed] = parent
        previous = current
    return max_k


def _conflicts(model: hydraulics._Model, inv: dict[int, list[str]], failed: tuple[str, ...],
               arcs: tuple[int, ...], touched: tuple[str, ...]) -> set[str]:
    """The pipes whose level-1 certificates may not compose with a certificate
    of ``failed`` that crossed ``arcs`` and touched the pipes ``touched``.

    ``inv`` maps each arc to the pipes whose own certificate crossed it.
    A certified pipe outside the returned set crosses no arc in ``arcs``
    and neither arc of a pipe of ``failed``, and is not itself crossed by
    ``arcs``, so :func:`_composes` accepts it with ``failed``.
    """
    conflicts = set(touched)
    for ai in arcs:
        conflicts.update(inv.get(ai, ()))
    for component in failed:
        ai = model.pipe_arcs.get(component)  # a pump has no arc
        if ai is not None:
            conflicts.update(inv.get(ai, ()), inv.get(ai ^ 1, ()))
    return conflicts


def _composes(model: hydraulics._Model, rest: tuple[str, ...], arcs: tuple[int, ...],
              pipe_id: str, single: frozenset[int]) -> bool:
    """Whether a certificate of ``rest`` that crossed ``arcs`` and ``pipe_id``'s
    own certificate, which crossed ``single``, add up to one of ``rest`` and
    ``pipe_id`` together.

    Each rerouting is a flow on the intact network's residuals.  If they
    cross no arc in common, their sum respects every residual, and if
    neither crosses a pipe that the other fails, it is a flow of the
    network without both that delivers the intact total.
    """
    ai = model.pipe_arcs[pipe_id]
    if ai in arcs or ai ^ 1 in arcs or not single.isdisjoint(arcs):
        return False
    for other in rest:
        bi = model.pipe_arcs[other]
        if bi in single or bi ^ 1 in single:
            return False
    return True


def _reroutes(model: hydraulics._Model, caps: list[float], residual: tuple,
              sent: list[float], failed: tuple[str, ...], pushes: dict[int, float]) -> bool:
    """Whether the baseline flow of every pipe in ``failed`` reroutes around them all.

    ``residual`` and ``sent`` are the residuals and per-arc pushes of the
    baseline solve, and ``caps`` is a list equal to ``residual`` that the
    pushes run on.  Both arcs of every failed pipe are zeroed first; then
    each pipe's net flow, read from the pushes (a residual can swallow a
    small one), is pushed from its upstream end to its downstream end.  If
    every push goes through, the rerouted flow is a flow of the network
    without ``failed`` that delivers the baseline total.  It equals the
    baseline flow but on the failed pipes' arcs and the arcs the pushes
    crossed, which :func:`hydraulics._edmonds_karp` keeps as the keys of
    ``pushes``.  Those arcs, their reverses and the failed pipes' arcs are
    the only entries of ``caps`` a push changes, so before it returns, it
    sets them back from ``residual`` and ``caps`` equals it again.
    """
    arcs = [model.pipe_arcs[pipe_id] for pipe_id in failed]
    for ai in arcs:
        caps[ai] = caps[ai ^ 1] = 0.0
    rerouted = True
    for ai in arcs:
        flow = sent[ai] - sent[ai ^ 1]
        tail, head = model.heads[ai ^ 1], model.heads[ai]
        if flow < 0.0:
            flow, tail, head = -flow, head, tail
        if not hydraulics._edmonds_karp(caps, model.heads, model.adjacency,
                                        tail, head, flow, pushes):
            rerouted = False
            break
    for ai in (*arcs, *pushes):
        caps[ai] = residual[ai]
        caps[ai ^ 1] = residual[ai ^ 1]
    return rerouted


def _check_series_nodes(net: Network, series: HydraulicSeries) -> None:
    junction_ids = set(net.junction_ids)
    series_ids = set(series.node_ids)
    if junction_ids != series_ids:
        missing = sorted(junction_ids - series_ids)
        extra = sorted(series_ids - junction_ids)
        raise ValidationError(
            f"series nodes do not match network junctions (missing {missing}, extra {extra})"
        )
