"""The one-shot reproduction campaign.

``run_campaign()`` executes every experiment in EXPERIMENTS.md that runs
a grid -- Table I's four rows, Figures 1-4, and the extra experiments
E1, E3-E9 and the Section VIII scheduler models -- and returns a
structured report renderable as markdown or plain text.  It is what
``repro-dispersion campaign`` prints, and doubles as the library's
self-check: every section carries a pass/fail verdict against the paper's
expected shape.

Every section is a *build-specs / interpret* pair: it declares its runs as
:class:`~repro.sim.spec.RunSpec` s, executes them through the campaign's
:class:`~repro.sim.runner.Runner` (pass ``runner=ProcessPoolRunner(...)``
or ``repro-dispersion campaign --jobs N`` to fan sections across cores),
and turns the results into a verdict.  The report records per-section
wall-clock and run counts; ``CampaignReport.to_dict()`` is the
machine-readable form ``repro-dispersion campaign --json`` writes.

Campaigns are *resumable*: pass ``store=RunStore(...)`` (or let the CLI
default to the user cache dir) and every run is keyed by its spec's
content hash -- an interrupted or repeated campaign re-executes only the
specs that are not already stored, and the report's ``cache`` block
says how many runs were served from disk versus recomputed (plus how
many stored entries failed integrity validation and were quarantined).

Campaigns *degrade gracefully*: when the runner stack tolerates faults
(worker crashes, timeouts, corrupt store entries -- see
:mod:`repro.chaos`), the structured
:class:`~repro.chaos.failures.FailureRecord` s are attached to the
report's ``failures`` list instead of aborting the campaign; the
section verdicts then tell whether the recovered results still match
the paper.

Scales: ``"quick"`` (about a second; k up to 64) and ``"full"`` (the
sizes EXPERIMENTS.md quotes, k up to 512).
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.analysis.bounds import check_rounds_upper_bound
from repro.analysis.experiments import (
    faults_specs,
    rounds_vs_k_specs,
    summarize,
)
from repro.analysis.statistics import fit_line, is_monotone_decreasing
from repro.analysis.tables import format_table
from repro.robots.faults import CrashPhase
from repro.robots.memory import bound_bits
from repro.sim.invariants import PotentialViolation, check_potential_round
from repro.sim.metrics import RunResult
from repro.sim.runner import Runner, SerialRunner
from repro.sim.spec import ComponentSpec, PlacementSpec, RunSpec
from repro.sim.store import CachingRunner, RunStore


@dataclass
class CampaignSection:
    """One experiment's rendered table plus its verdict."""

    title: str
    body: str
    passed: bool
    seconds: float = 0.0
    runs: int = 0
    data: Optional[Dict[str, Any]] = None
    """Optional structured payload for the section (beyond the rendered
    table); included in ``to_dict`` when set, e.g. the per-scheduler
    degradation numbers of the scheduler-models section."""

    def render(self) -> str:
        """The section as '[PASS/FAIL] title' plus its table."""
        verdict = "PASS" if self.passed else "FAIL"
        return f"[{verdict}] {self.title}\n{self.body}"

    def to_dict(self) -> Dict[str, Any]:
        """Machine-readable form: title, verdict, timing, run count."""
        entry: Dict[str, Any] = {
            "title": self.title,
            "passed": self.passed,
            "seconds": round(self.seconds, 6),
            "runs": self.runs,
        }
        if self.data is not None:
            entry["data"] = self.data
        return entry


@dataclass
class CampaignReport:
    """All sections of one campaign run."""

    scale: str
    sections: List[CampaignSection] = field(default_factory=list)
    backend: str = "reference"
    """The engine backend pinned on every run (the engine's default when
    none is pinned)."""
    runner: str = "serial"
    """Name of the runner chain that executed the spec grids."""
    total_seconds: float = 0.0
    cache: Optional[Dict[str, int]] = None
    failures: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        """Whether every experiment matched the paper's expected shape."""
        return all(section.passed for section in self.sections)

    def render(self) -> str:
        """The whole campaign report as plain text."""
        header = (
            f"reproduction campaign ({self.scale} scale): "
            f"{sum(s.passed for s in self.sections)}/{len(self.sections)} "
            "experiments match the paper's shape"
        )
        blocks = [header, "=" * len(header)]
        blocks += [section.render() for section in self.sections]
        if self.cache is not None:
            blocks.append(
                f"cache: {self.cache['hits']} hits, "
                f"{self.cache['recomputed']} recomputed, "
                f"{self.cache.get('corrupt_entries', 0)} corrupt entries "
                "quarantined"
            )
        if self.failures:
            blocks.append(
                f"faults tolerated: {len(self.failures)} "
                "(see --json for the structured records)"
            )
        return "\n\n".join(blocks)

    def to_dict(self) -> Dict[str, Any]:
        """Machine-readable form (what ``campaign --json`` writes)."""
        return {
            "kind": "campaign_report",
            "scale": self.scale,
            "backend": self.backend,
            "runner": self.runner,
            "all_passed": self.all_passed,
            "total_seconds": round(self.total_seconds, 6),
            "total_runs": sum(s.runs for s in self.sections),
            "cache": self.cache,
            "failures": list(self.failures),
            "sections": [section.to_dict() for section in self.sections],
        }


class _CountingRunner(Runner):
    """Wraps the campaign's runner to count runs per section."""

    name = "counting"

    def __init__(self, inner: Runner) -> None:
        self.inner = inner
        self.count = 0

    def run(self, specs: Sequence[RunSpec]) -> List[RunResult]:
        """Delegate to the wrapped backend, tallying spec counts."""
        self.count += len(specs)
        return self.inner.run(specs)


class _BackendPinningRunner(Runner):
    """Pins an engine backend on every spec before delegation.

    Wrapping *outside* any :class:`CachingRunner` means the pinned spec
    is what gets content-hashed, so each engine backend caches under
    its own digest and never serves the other's entries.
    """

    name = "backend-pinning"

    def __init__(self, inner: Runner, backend: str) -> None:
        self.inner = inner
        self.engine_backend = backend

    def run(self, specs: Sequence[RunSpec]) -> List[RunResult]:
        """Delegate with ``backend=`` pinned on every spec."""
        pinned = [
            spec.with_(backend=ComponentSpec(self.engine_backend))
            for spec in specs
        ]
        return self.inner.run(pinned)


def _runner_chain(runner: Runner) -> List[Runner]:
    """The runner plus every backend it wraps, outermost first."""
    chain: List[Runner] = []
    node: Optional[Runner] = runner
    while node is not None and not any(node is seen for seen in chain):
        chain.append(node)
        node = getattr(node, "inner", None)
    return chain


def _find_caching_runner(runner: Runner) -> Optional[CachingRunner]:
    """The first :class:`CachingRunner` in the wrapper chain, if any."""
    for node in _runner_chain(runner):
        if isinstance(node, CachingRunner):
            return node
    return None


def _collect_failure_records(runner: Runner) -> List[Any]:
    """Every structured failure record held anywhere in the chain.

    Duck-typed: any chain node -- or its ``store`` -- exposing a
    ``failure_records`` sequence (the :mod:`repro.chaos` runners and
    stores do) contributes, so the campaign needs no import of the
    chaos package to surface tolerated faults.
    """
    records: List[Any] = []
    for node in _runner_chain(runner):
        for source in (node, getattr(node, "store", None)):
            found = getattr(source, "failure_records", None)
            if found:
                records.extend(found)
    return records


_CHURN = lambda n, seed: ComponentSpec(  # noqa: E731
    "random_churn", {"n": n, "extra_edges": n // 2, "seed": seed}
)


def _rooted_spec(
    graph: str, params: Dict[str, Any], k: int, **fields: Any
) -> RunSpec:
    """``k`` robots on node 0 of registered graph ``graph``."""
    fields.setdefault("collect_records", False)
    return RunSpec(
        graph=ComponentSpec(graph, params),
        placement=PlacementSpec(kind="rooted", k=k),
        **fields,
    )


def _chunks(results: Sequence[RunResult], size: int) -> List[Sequence[RunResult]]:
    """``results`` cut into consecutive groups of ``size``."""
    return [results[i:i + size] for i in range(0, len(results), size)]


def _k_values(scale: str) -> List[int]:
    return [8, 16, 32, 64] if scale == "quick" else [8, 16, 32, 64, 128, 256]


def _section_algorithm(scale: str, runner: Runner) -> CampaignSection:
    k_values = _k_values(scale)
    seeds = (0, 1)
    specs = rounds_vs_k_specs(k_values, seeds=seeds)
    rows = []
    means = []
    ok = True
    for k, group in zip(k_values, _chunks(runner.run(specs), len(seeds))):
        stats = summarize(group)
        means.append(stats["mean_rounds"])
        within = stats["max_rounds"] <= k - 1
        ok &= within and stats["all_dispersed"] == 1.0
        rows.append((k, stats["mean_rounds"], k - 1, within))
    fit = fit_line([float(k) for k in k_values], means)
    ok &= 0.05 < fit.slope <= 1.0
    body = format_table(("k", "mean rounds", "bound k-1", "within"), rows)
    body += f"\nlinear fit slope {fit.slope:.3f} (Theta(k) shape)"
    return CampaignSection(
        "Table I row 3 -- O(k) rounds on random churn", body, ok
    )


def _section_lower_bound(scale: str, runner: Runner) -> CampaignSection:
    k_values = _k_values(scale)
    specs = [
        RunSpec(
            graph=ComponentSpec(
                "star_star", {"n": k + 6, "initial_occupied": [0], "seed": k}
            ),
            placement=PlacementSpec(kind="rooted", k=k),
            seed=k,
            max_rounds=2 * k,
            collect_records=False,
            label=f"star_star k={k}",
        )
        for k in k_values
    ]
    rows = []
    ok = True
    for k, result in zip(k_values, runner.run(specs)):
        tight = result.dispersed and result.rounds == k - 1
        ok &= tight
        rows.append((k, result.rounds, k - 1, tight))
    return CampaignSection(
        "Figure 2 / Theorem 3 -- the Omega(k) bound is met exactly",
        format_table(("k", "rounds", "k-1", "tight"), rows),
        ok,
    )


def _section_memory(scale: str, runner: Runner) -> CampaignSection:
    k_values = _k_values(scale)
    specs = [
        RunSpec(
            graph=_CHURN(k + 8, 1),
            placement=PlacementSpec(kind="rooted", k=k),
            collect_records=False,
            label=f"memory k={k}",
        )
        for k in k_values
    ]
    rows = []
    ok = True
    for k, result in zip(k_values, runner.run(specs)):
        expected = bound_bits(k)
        ok &= result.max_persistent_bits == expected
        rows.append((k, result.max_persistent_bits, expected))
    return CampaignSection(
        "Lemma 8 -- Theta(log k) persistent bits",
        format_table(("k", "measured bits", "ceil(log2(k+1))"), rows),
        ok,
    )


def _section_faults(scale: str, runner: Runner) -> CampaignSection:
    k = 32 if scale == "quick" else 64
    f_values = [0, k // 4, k // 2, (3 * k) // 4]
    seeds = (0, 1)
    specs = faults_specs(
        k,
        f_values,
        seeds=seeds,
        crash_window=2,
        phases=[CrashPhase.BEFORE_COMMUNICATE],
    )
    rows = []
    means = []
    ok = True
    for f, group in zip(f_values, _chunks(runner.run(specs), len(seeds))):
        stats = summarize(group)
        means.append(stats["mean_rounds"])
        ok &= stats["all_dispersed"] == 1.0
        # Theorem 5 per run: the potential bound rounds <= k - alpha_0,
        # which holds with or without crashes (docs/model.md).
        ok &= all(check_rounds_upper_bound(r) for r in group)
        rows.append((f, k - f, stats["mean_rounds"]))
    ok &= means[-1] < means[0]
    return CampaignSection(
        f"Table I row 4 -- O(k-f) rounds under crashes (k={k})",
        format_table(("f", "k-f", "mean rounds"), rows),
        ok,
    )


def _section_impossibility_local(scale: str, runner: Runner) -> CampaignSection:
    from repro.adversary.local_impossibility import (
        build_fig1_instance,
        interior_views_are_symmetric,
    )
    from repro.baselines.local_candidates import LOCAL_CANDIDATES

    rounds = 100 if scale == "quick" else 400
    instance = build_fig1_instance(6, 9)
    specs = [
        RunSpec(
            graph=ComponentSpec("local_stall", {"n": 9, "seed": 1}),
            placement=PlacementSpec(
                kind="explicit", positions=dict(instance.positions)
            ),
            algorithm=ComponentSpec(candidate_cls.name),
            communication="local",
            max_rounds=rounds,
            label=f"local_stall {candidate_cls.name}",
        )
        for candidate_cls in LOCAL_CANDIDATES
    ]
    rows = []
    ok = interior_views_are_symmetric(instance)
    for candidate_cls, result in zip(LOCAL_CANDIDATES, runner.run(specs)):
        ok &= not result.dispersed
        rows.append((candidate_cls.name, rounds, result.dispersed))
    return CampaignSection(
        "Table I row 1 / Figure 1 -- local-model candidates stall",
        format_table(("candidate", "rounds given", "dispersed"), rows),
        ok,
    )


def _section_impossibility_global(scale: str, runner: Runner) -> CampaignSection:
    from repro.baselines.global_candidates import GLOBAL_NO1NK_CANDIDATES

    rounds = 100 if scale == "quick" else 400
    k, n = 8, 14
    positions = {i: i - 1 for i in range(1, k)}
    positions[k] = 0
    specs = [
        RunSpec(
            graph=ComponentSpec("clique_rewiring", {"n": n, "seed": 1}),
            placement=PlacementSpec(kind="explicit", positions=dict(positions)),
            algorithm=ComponentSpec(candidate_cls.name),
            neighborhood_knowledge=False,
            max_rounds=rounds,
            label=f"clique_rewiring {candidate_cls.name}",
        )
        for candidate_cls in GLOBAL_NO1NK_CANDIDATES
    ]
    rows = []
    ok = True
    for candidate_cls, result in zip(
        GLOBAL_NO1NK_CANDIDATES, runner.run(specs)
    ):
        visited = set()
        for record in result.records:
            visited |= record.occupied_after
        new_nodes = len(visited) - (k - 1) if result.records else 0
        ok &= (not result.dispersed) and new_nodes == 0
        rows.append((candidate_cls.name, rounds, new_nodes))
    return CampaignSection(
        "Table I row 2 -- no-1-NK candidates make zero progress",
        format_table(("candidate", "rounds given", "new nodes visited"), rows),
        ok,
    )


def _section_figure34(scale: str, runner: Runner) -> CampaignSection:
    from repro.analysis.figures import build_fig3_instance
    from repro.core.components import partition_into_components
    from repro.core.spanning_tree import build_spanning_tree
    from repro.sim.observation import build_info_packets

    instance = build_fig3_instance()
    packets = list(
        build_info_packets(instance.snapshot, instance.positions).values()
    )
    components = partition_into_components(packets)
    roots = sorted(
        build_spanning_tree(c).root for c in components
    )
    (result,) = runner.run(
        [
            RunSpec(
                graph=ComponentSpec("fig3_static", {"n": instance.snapshot.n}),
                placement=PlacementSpec(
                    kind="explicit", positions=dict(instance.positions)
                ),
                label="fig3 worked example",
            )
        ]
    )
    first = result.records[0]
    ok = (
        {tuple(c.representatives) for c in components}
        == {tuple(c) for c in instance.expected_components}
        and tuple(roots) == tuple(sorted(instance.expected_roots))
        and result.dispersed
        # Figure 4(b): the sliding round keeps every occupied node
        # occupied and settles at least one new one (Lemma 7).
        and check_potential_round(first) == PotentialViolation.NONE
    )
    rows = [
        (str([list(c.representatives) for c in components]), str(roots),
         result.rounds, result.dispersed)
    ]
    return CampaignSection(
        "Figures 3 & 4 -- the worked example (15 nodes / 17 edges / "
        "14 robots)",
        format_table(("components", "roots", "rounds", "dispersed"), rows),
        ok,
    )


def _section_ring(scale: str, runner: Runner) -> CampaignSection:
    n, k = 12, 8
    blocked, paper = runner.run(
        [
            RunSpec(
                graph=ComponentSpec(
                    "ring", {"n": n, "mode": "blocking", "seed": 1}
                ),
                placement=PlacementSpec(kind="rooted", k=k),
                algorithm=ComponentSpec("ring_walk_dispersion"),
                communication="local",
                max_rounds=150 if scale == "quick" else 400,
                label="ring walker (local)",
            ),
            RunSpec(
                graph=ComponentSpec(
                    "ring",
                    {
                        "n": n,
                        "mode": "blocking",
                        "seed": 1,
                        "communication": "global",
                    },
                ),
                placement=PlacementSpec(kind="rooted", k=k),
                label="ring paper algorithm",
            ),
        ]
    )
    ok = (not blocked.dispersed) and paper.dispersed and paper.rounds <= k - 1
    rows = [
        ("ring walker (local)", blocked.dispersed, blocked.rounds),
        ("paper algorithm (global+1NK)", paper.dispersed, paper.rounds),
    ]
    return CampaignSection(
        "E6 -- dynamic rings: blocking adversary vs both algorithms",
        format_table(("algorithm", "dispersed", "rounds"), rows),
        ok,
    )


def _section_byzantine(scale: str, runner: Runner) -> CampaignSection:
    n, k = 20, 12
    budget = 120 if scale == "quick" else 300
    base = RunSpec(
        graph=_CHURN(n, 2),
        placement=PlacementSpec(kind="rooted", k=k),
        max_rounds=budget,
        label="byzantine honest",
    )
    honest, attacked = runner.run(
        [
            base,
            base.with_(
                byzantine={1: ComponentSpec("hide_multiplicity")},
                label="byzantine 1 liar",
            ),
        ]
    )
    ok = honest.dispersed and not attacked.dispersed and (
        attacked.total_moves == 0
    )
    rows = [
        ("honest", honest.dispersed, honest.rounds, honest.total_moves),
        ("1 liar (hide multiplicity)", attacked.dispersed,
         attacked.rounds, attacked.total_moves),
    ]
    return CampaignSection(
        "E7 -- byzantine: one packet-forging robot livelocks Algorithm 4",
        format_table(("fleet", "dispersed", "rounds", "moves"), rows),
        ok,
    )


def _section_schedulers(scale: str, runner: Runner) -> CampaignSection:
    """Section VIII -- where Algorithm 4 degrades beyond FSYNC.

    The paper proves the k-1 round bound in the fully synchronous model
    and names ssync/async as open; this section runs the same churn
    instance under all three scheduler models and charts the
    degradation: dispersion is still reached (the algorithm is safe --
    every reachable configuration keeps making progress on fully-active
    steps), but only FSYNC keeps the k-1 bound.
    """
    n, k = (18, 12) if scale == "quick" else (28, 20)
    budget = 4000
    base = RunSpec(
        graph=_CHURN(n, 3),
        placement=PlacementSpec(kind="rooted", k=k),
        max_rounds=budget,
        collect_records=False,
        label="schedulers fsync",
    )
    fsync, ssync, async_ = runner.run(
        [
            base,
            base.with_(
                scheduler=ComponentSpec(
                    "ssync",
                    {"policy": "random_subset", "p": 0.6, "seed": 5},
                ),
                label="schedulers ssync",
            ),
            base.with_(
                scheduler=ComponentSpec(
                    "async",
                    {"seed": 5, "distribution": "uniform", "max_delay": 3},
                ),
                label="schedulers async",
            ),
        ]
    )
    bound = k - 1
    rows = [
        ("fsync", fsync.dispersed, fsync.rounds, fsync.rounds <= bound),
        ("ssync p=0.6", ssync.dispersed, ssync.rounds,
         ssync.rounds <= bound),
        ("async uniform<=3", async_.dispersed, async_.rounds,
         async_.rounds <= bound),
    ]
    ok = (
        fsync.dispersed and ssync.dispersed and async_.dispersed
        and fsync.rounds <= bound
        and ssync.rounds >= fsync.rounds
        and async_.rounds >= fsync.rounds
    )
    body = format_table(
        ("scheduler", "dispersed", "steps", f"within k-1={bound}"), rows
    )
    return CampaignSection(
        "Section VIII -- scheduler models: Algorithm 4 degradation "
        "under ssync/async",
        body,
        ok,
        data={
            "algorithm": "dispersion_dynamic",
            "bound": bound,
            "degradation": {
                "fsync": {"dispersed": fsync.dispersed,
                          "steps": fsync.rounds},
                "ssync": {"dispersed": ssync.dispersed,
                          "steps": ssync.rounds},
                "async": {"dispersed": async_.dispersed,
                          "steps": async_.rounds,
                          "final_epoch": async_.final_epoch},
            },
        },
    )


def _section_baselines(scale: str, runner: Runner) -> CampaignSection:
    """E1 -- a local DFS disperses a static graph but under churn fails
    or is slower than Algorithm 4; a random walk survives churn but
    needs at least k-1 rounds against the worst-case adversary."""
    n, k, seeds = (24, 18, (0, 1, 2)) if scale == "full" else (12, 8, (0, 1))
    walk_k, walk_seeds = (16, (0, 1)) if scale == "full" else (8, (0,))
    walk_n = walk_k + 6
    dfs = ComponentSpec("dfs_dispersion_local")
    specs = [
        _rooted_spec(graph, {"n": n, **params, "seed": seed}, k,
                     algorithm=algorithm, communication=communication,
                     max_rounds=12 * k)
        for seed in seeds
        for graph, params, algorithm, communication in (
            ("static_family", {"family": "random_sparse"}, dfs, "local"),
            ("random_churn", {"extra_edges": 3}, dfs, "local"),
            ("random_churn", {"extra_edges": 3},
             ComponentSpec("dispersion_dynamic"), "global"),
        )
    ]
    dynamics = (
        ("benign churn", "random_churn", {"extra_edges": walk_n // 2}),
        ("worst case (Thm 3)", "star_star", {"initial_occupied": [0]}),
    )
    specs += [
        spec
        for _, graph, params in dynamics
        for seed in walk_seeds
        for spec in (
            _rooted_spec(
                graph, {"n": walk_n, **params, "seed": seed}, walk_k,
                algorithm=ComponentSpec(
                    "random_walk_dispersion", {"seed": seed}
                ),
                communication="local", max_rounds=30000,
            ),
            _rooted_spec(graph, {"n": walk_n, **params, "seed": seed + 100},
                         walk_k, max_rounds=4 * walk_k),
        )
    ]
    results = runner.run(specs)
    ok = True
    dfs_rows = []
    for seed, (static, churn, paper) in zip(seeds, _chunks(results, 3)):
        ok &= static.dispersed and paper.dispersed and paper.rounds <= k - 1
        ok &= not churn.dispersed or churn.rounds > paper.rounds
        dfs_rows.append((seed, static.dispersed, static.rounds,
                         churn.dispersed, churn.rounds, paper.rounds))
    walk_rows = []
    pairs = iter(_chunks(results[3 * len(seeds):], 2))
    for label, graph, _ in dynamics:
        for seed in walk_seeds:
            walk, paper = next(pairs)
            ok &= walk.dispersed and paper.dispersed
            if graph == "star_star":
                ok &= walk.rounds >= walk_k - 1 == paper.rounds
            walk_rows.append((label, seed, walk.rounds, walk.total_moves,
                              paper.rounds, paper.total_moves))
    body = format_table(
        ("seed", "DFS static ok", "rounds", "DFS churn ok", "rounds ",
         "paper churn rounds"),
        dfs_rows,
    ) + "\n\n" + format_table(
        ("dynamics", "seed", "walk rounds", "walk moves", "paper rounds",
         "paper moves"),
        walk_rows,
    )
    return CampaignSection(
        f"E1 -- baseline contrast: static-graph DFS and a random walk "
        f"vs Algorithm 4 (k={k}, walk k={walk_k})",
        body,
        ok,
    )


_ABLATIONS = (
    ("canonical (paper)", "dispersion_dynamic"),
    ("descending leaf order", "ablation_descending_leaf_order"),
    ("BFS spanning tree", "ablation_bfs_tree"),
    ("no truncation", "ablation_no_truncation"),
    ("no disjointness", "ablation_no_disjointness"),
)


def _section_ablations(scale: str, runner: Runner) -> CampaignSection:
    """E3 -- leaf order and tree shape are conventions that keep every
    guarantee (dispersed within k-1, Lemma 7's monotone progress);
    dropping the ``count(v_root) - 1`` truncation loses one."""
    n, k, seeds = (32, 24, range(6)) if scale == "full" else (16, 12, range(3))
    specs = [
        _rooted_spec("random_churn",
                     {"n": n, "extra_edges": n // 2, "seed": seed}, k,
                     algorithm=ComponentSpec(algorithm), max_rounds=20 * k,
                     collect_records=True)
        for _, algorithm in _ABLATIONS
        for seed in seeds
    ]
    rows = []
    ok = True
    groups = _chunks(runner.run(specs), len(seeds))
    for (label, _), runs in zip(_ABLATIONS, groups):
        records = [record for result in runs for record in result.records]
        dispersed = [r.rounds for r in runs if r.dispersed]
        found = [check_potential_round(r) for r in records]
        stalls = sum(PotentialViolation.NO_PROGRESS in f for f in found)
        vacating = sum(PotentialViolation.VACATED in f for f in found)
        keeps_guarantees = (
            len(dispersed) == len(seeds) and stalls == vacating == 0
            and all(rounds <= k - 1 for rounds in dispersed)
        )
        if label == "no truncation":
            ok &= not keeps_guarantees
        elif label != "no disjointness":
            ok &= keeps_guarantees
        rows.append((
            label,
            f"{len(dispersed)}/{len(seeds)}",
            sum(dispersed) / len(dispersed) if dispersed else float("nan"),
            stalls,
            vacating,
            sum(len(r.newly_occupied) for r in records)
            / max(1, sum(r.rounds for r in runs)),
        ))
    return CampaignSection(
        f"E3 -- ablations: truncation is load-bearing, leaf order and "
        f"tree shape are conventions (k={k}, n={n})",
        format_table(
            ("variant", "dispersed", "mean rounds", "zero-progress rounds",
             "monotonicity violations", "new nodes per round"),
            rows,
        ),
        ok,
    )


def _section_t_interval(scale: str, runner: Runner) -> CampaignSection:
    """E4 -- Algorithm 4 needs only per-round connectivity, which
    T-interval connectivity implies: every run stays within k-1."""
    n, k, seeds = (40, 30, (0, 1, 2, 3)) if scale == "full" else (20, 14, (0, 1))
    graphs = [
        (f"T={interval}", "t_interval_churn",
         {"interval": interval, "extra_edges": n // 2})
        for interval in (1, 2, 4, 8)
    ] + [("static (control)", "static_family", {"family": "random_sparse"})]
    specs = [
        _rooted_spec(graph, {"n": n, **params}, k, seed=seed)
        for _, graph, params in graphs
        for seed in seeds
    ]
    rows = []
    ok = True
    groups = _chunks(runner.run(specs), len(seeds))
    for (label, graph, _), runs in zip(graphs, groups):
        ok &= all(r.dispersed for r in runs)
        if graph == "t_interval_churn":
            ok &= all(check_rounds_upper_bound(r) for r in runs)
        rounds = [r.rounds for r in runs]
        rows.append((label, sum(rounds) / len(rounds), max(rounds), k - 1))
    return CampaignSection(
        f"E4 -- T-interval connected churn keeps the k-1 bound (k={k}, n={n})",
        format_table(("dynamics", "mean rounds", "max rounds", "bound k-1"),
                     rows),
        ok,
    )


def _section_semisync(scale: str, runner: Runner) -> CampaignSection:
    """E5 -- under partial activation every run still disperses and
    rounds grow as p drops; full activation keeps both synchronous
    guarantees and the sparsest activation loses one."""
    if scale == "full":
        n, k, seeds, p_values = 24, 16, range(5), (1.0, 0.9, 0.7, 0.5, 0.3)
    else:
        n, k, seeds, p_values = 16, 10, range(3), (1.0, 0.7, 0.3)
    specs = [
        _rooted_spec(
            "random_churn", {"n": n, "extra_edges": n // 2, "seed": seed}, k,
            activation=None if p >= 1.0 else ComponentSpec(
                "random_subset", {"p": p, "seed": seed * 13 + 1}
            ),
            max_rounds=4000,
            collect_records=True,
        )
        for p in p_values
        for seed in seeds
    ]
    rows = []
    means = []
    ok = True
    for p, runs in zip(p_values, _chunks(runner.run(specs), len(seeds))):
        ok &= all(r.dispersed for r in runs)
        stalls = sum(
            PotentialViolation.NO_PROGRESS in check_potential_round(record)
            for r in runs
            for record in r.records
        )
        rounds = [r.rounds for r in runs]
        means.append(sum(rounds) / len(rounds))
        rows.append((f"p={p}", means[-1], max(rounds), k - 1,
                     sum(r > k - 1 for r in rounds), stalls))
    ok &= is_monotone_decreasing(list(reversed(means)), tolerance=2.0)
    ok &= rows[0][4] == rows[0][5] == 0
    ok &= rows[-1][4] > 0 or rows[-1][5] > 0
    return CampaignSection(
        f"E5 -- semi-synchronous activation: dispersion survives, the "
        f"bounds do not (k={k}, n={n})",
        format_table(
            ("activation", "mean rounds", "max rounds", "sync bound k-1",
             "runs beyond bound", "zero-progress rounds"),
            rows,
        ),
        ok,
    )


def _section_scalability(scale: str, runner: Runner) -> CampaignSection:
    """E8 -- every size disperses within k-1 and packet deliveries per
    round grow as Theta(alpha * k); perfbench owns the wall-clock."""
    k_values = [16, 32, 64, 128, 256, 512] if scale == "full" else [16, 32, 64]
    specs = [
        _rooted_spec(
            "random_churn", {"n": 2 * k, "extra_edges": k, "seed": k}, k
        )
        for k in k_values
    ]
    rows = []
    ok = True
    for k, result in zip(k_values, runner.run(specs)):
        ok &= result.dispersed and result.rounds <= k - 1
        rows.append((k, 2 * k, result.rounds, result.total_packets_broadcast,
                     result.total_packet_deliveries,
                     result.total_packet_deliveries / (result.rounds + 1)))
    ok &= rows[-1][5] > 8 * rows[0][5]
    return CampaignSection(
        f"E8 -- scalability: dispersion within k-1 up to k={k_values[-1]}, "
        "Theta(alpha*k) deliveries per round",
        format_table(
            ("k", "n", "rounds", "packets broadcast", "packet deliveries",
             "deliveries / round"),
            rows,
        ),
        ok,
    )


def _section_sensitivity(scale: str, runner: Runner) -> CampaignSection:
    """E9 -- at fixed k, sweeps of graph size, edge density and churn
    persistence all stay within k-1, and the size and persistence sweeps
    move the mean by less than 1.8x."""
    k, seeds = (32, (0, 1, 2, 3)) if scale == "full" else (16, (0, 1))
    n = 2 * k
    sweeps = (
        ("n", [(size, {"n": size, "extra_edges": size // 2})
               for size in (k + 1, 2 * k, 4 * k, 16 * k)]),
        ("extra edges", [(extra, {"n": n, "extra_edges": extra})
                         for extra in (0, n // 2, 2 * n, 8 * n)]),
        ("persistence", [(persistence,
                          {"n": n, "extra_edges": n,
                           "persistence": persistence})
                         for persistence in (0.0, 0.5, 0.9, 1.0)]),
    )
    specs = [
        _rooted_spec("random_churn", {**params, "seed": seed}, k)
        for _, points in sweeps
        for _, params in points
        for seed in seeds
    ]
    groups = iter(_chunks(runner.run(specs), len(seeds)))
    rows = []
    ok = True
    for name, points in sweeps:
        means = []
        for (value, _), runs in zip(points, groups):
            ok &= all(r.dispersed and r.rounds <= k - 1 for r in runs)
            rounds = [r.rounds for r in runs]
            means.append(sum(rounds) / len(rounds))
            rows.append((name, value, means[-1], max(rounds)))
        if name != "extra edges":
            ok &= max(means) <= 1.8 * min(means)
    return CampaignSection(
        f"E9 -- sensitivity: rounds depend on k only (k={k}, bound k-1={k - 1})",
        format_table(("swept", "value", "mean rounds", "max rounds"), rows),
        ok,
    )


def _section_figure1(scale: str, runner: Runner) -> CampaignSection:
    """Figure 1 -- no run needed: the two mid-path robots have identical
    ID-oblivious views under the mirrored port labelling, and exactly one
    occupied node (y) borders the empty region."""
    from repro.adversary.local_impossibility import (
        build_fig1_instance,
        interior_views_are_symmetric,
    )

    k_values = (6, 7, 8) if scale == "quick" else (6, 7, 8, 10, 12, 14, 16)
    rows = []
    ok = True
    for k in k_values:
        instance = build_fig1_instance(k)
        occupied = set(instance.positions.values())
        frontier = sorted(
            node for node in occupied
            if not occupied.issuperset(instance.snapshot.neighbors(node))
        )
        symmetric = interior_views_are_symmetric(instance)
        ok &= symmetric and frontier == [instance.frontier_node]
        rows.append((k, len(instance.path_nodes), symmetric, str(frontier),
                     instance.frontier_node))
    return CampaignSection(
        "Figure 1 -- identical mid-path views and a single frontier node",
        format_table(
            ("k", "occupied path length", "mid-path views identical",
             "occupied nodes with an empty neighbor", "y"),
            rows,
        ),
        ok,
    )


_SECTIONS = (
    _section_algorithm,
    _section_lower_bound,
    _section_memory,
    _section_faults,
    _section_impossibility_local,
    _section_impossibility_global,
    _section_figure34,
    _section_ring,
    _section_byzantine,
    _section_schedulers,
    _section_baselines,
    _section_ablations,
    _section_t_interval,
    _section_semisync,
    _section_scalability,
    _section_sensitivity,
    _section_figure1,
)


def run_campaign(
    scale: str = "quick",
    *,
    runner: Optional[Runner] = None,
    store: Optional[RunStore] = None,
    backend: Optional[str] = None,
) -> CampaignReport:
    """Execute every experiment at the given scale; see module docstring.

    ``runner`` is the execution backend the sections' spec grids go
    through; omitted, everything runs serially in-process.  ``store``
    caches every run by content hash, making the campaign resumable;
    the report then carries a ``cache`` block with hit/miss/recomputed
    counts for this invocation.  (A ``runner`` that is already a
    :class:`CachingRunner` is introspected instead of re-wrapped.)
    ``backend`` pins an *engine* backend (``"reference"`` or
    ``"vectorized"``) on every campaign spec; the pinning happens
    before content hashing, so each engine backend has its own cache
    namespace.  The report's ``backend`` names it (``"reference"``, the
    engine's default, when none is pinned) and its ``runner`` names the
    runner chain.
    """
    if scale not in ("quick", "full"):
        raise ValueError(f"scale must be 'quick' or 'full', got {scale!r}")
    base_runner = runner or SerialRunner()
    caching = _find_caching_runner(base_runner)
    if store is not None and not (
        caching is not None and caching.store.same_target(store)
    ):
        base_runner = CachingRunner(base_runner, store)
        caching = base_runner
    runner_name = base_runner.name
    if backend is not None:
        base_runner = _BackendPinningRunner(base_runner, backend)
    cache_store = caching.store if caching is not None else None
    hits_before = cache_store.hits if cache_store is not None else 0
    misses_before = cache_store.misses if cache_store is not None else 0
    corrupt_before = cache_store.corrupt if cache_store is not None else 0
    failures_before = Counter(_collect_failure_records(base_runner))
    report = CampaignReport(
        scale=scale, backend=backend or "reference", runner=runner_name
    )
    t_campaign = time.perf_counter()
    for build_section in _SECTIONS:
        counting = _CountingRunner(base_runner)
        t_section = time.perf_counter()
        section = build_section(scale, counting)
        section.seconds = time.perf_counter() - t_section
        section.runs = counting.count
        report.sections.append(section)
    report.total_seconds = time.perf_counter() - t_campaign
    if cache_store is not None:
        misses = cache_store.misses - misses_before
        report.cache = {
            "hits": cache_store.hits - hits_before,
            "misses": misses,
            "recomputed": misses,
            "corrupt_entries": cache_store.corrupt - corrupt_before,
        }
    # Only the records new since this invocation started: a reused
    # runner (e.g. a chaos replay's warm pass) keeps accumulating.
    new_records = Counter(_collect_failure_records(base_runner)) - failures_before
    report.failures = [
        record.to_dict() for record in sorted(new_records.elements())
    ]
    return report
