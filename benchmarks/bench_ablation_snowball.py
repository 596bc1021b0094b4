"""Ablation — snowball depth vs. ground-truth recall.

Not in the paper as a table, but implied by §5.2's discussion: how much of
the ecosystem does each expansion hop recover, and what stays invisible
when a family has no transaction path to the seed?  Hop *k* is round *k*
of the expander's semi-naive fixpoint: the contracts admitted once the
accounts of hop *k−1* are known (``repro.core.snowball``).

Timed section: one full expansion (measures convergence cost).
"""

from __future__ import annotations

from conftest import BENCH_SEED

from repro.analysis.reporting import render_table
from repro.core import ContractAnalyzer, SeedBuilder, SnowballExpander
from repro.simulation import SimulationParams, build_world


def test_ablation_snowball_depth_vs_recall(benchmark, bench_world, record_table):
    world = bench_world
    truth_contracts = world.truth.all_contracts

    def seed_and_expand():
        analyzer = ContractAnalyzer(world.rpc, world.explorer, world.oracle)
        dataset, _ = SeedBuilder(analyzer, world.feeds).build()
        recalls = [len(dataset.contracts & truth_contracts) / len(truth_contracts)]
        report = SnowballExpander(analyzer).expand(dataset)
        running = recalls[0] * len(truth_contracts)
        for stats in report.iterations:
            running += stats.new_contracts
            recalls.append(running / len(truth_contracts))
        return recalls, report

    recalls, report = benchmark.pedantic(seed_and_expand, rounds=1, iterations=1)

    rows = [["seed (hop 0)", f"{recalls[0]:.1%}"]]
    for i, recall in enumerate(recalls[1:], start=1):
        rows.append([f"after hop {i}", f"{recall:.1%}"])
    table = render_table(
        ["expansion depth", "contract recall"],
        rows,
        title="Ablation — snowball depth vs. ground-truth contract recall",
    )
    record_table("ablation_snowball", table)

    assert recalls[-1] == 1.0  # connected families fully recovered
    assert recalls[0] < 0.5    # ...from a minority seed
    assert report.converged


def test_ablation_isolated_family_stays_invisible(benchmark, record_table):
    """§5.2's limitation, quantified: a family with no transaction path to
    the seed is never discovered, regardless of expansion depth."""
    params = SimulationParams(scale=0.02, seed=BENCH_SEED, include_isolated_family=True)
    world = build_world(params)

    def build_and_expand():
        analyzer = ContractAnalyzer(world.rpc, world.explorer, world.oracle)
        dataset, _ = SeedBuilder(analyzer, world.feeds).build()
        SnowballExpander(analyzer).expand(dataset)
        return dataset

    dataset = benchmark.pedantic(build_and_expand, rounds=1, iterations=1)

    isolated = world.truth.families["Isolated"]
    connected_contracts = {
        c for name, fam in world.truth.families.items()
        if name != "Isolated" for c in fam.contracts
    }
    found_isolated = len(dataset.contracts & set(isolated.contracts))
    rows = [
        ["connected families", f"{len(dataset.contracts & connected_contracts)}"
         f"/{len(connected_contracts)}"],
        ["isolated family", f"{found_isolated}/{len(isolated.contracts)}"],
    ]
    record_table(
        "ablation_isolated_family",
        render_table(["population", "contracts recovered"], rows,
                     title="Ablation — the snowball coverage limitation (§5.2)"),
    )
    assert found_isolated == 0
    assert dataset.contracts == connected_contracts
