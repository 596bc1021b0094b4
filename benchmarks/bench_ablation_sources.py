"""Ablation — number of public label feeds vs. final coverage.

The paper leans on four label sources to mitigate seed incompleteness
(§5.2).  This ablation seeds from every prefix of the source list and
measures seed size and post-expansion recall (the snowball rule's least
fixpoint from that seed): snowball sampling largely compensates for
missing feeds, *as long as* every family keeps at least one labeled
contract somewhere.

Timed section: seeding + expansion from the single richest feed.
"""

from __future__ import annotations

from repro.analysis.reporting import render_table
from repro.core import ContractAnalyzer, SeedBuilder, SnowballExpander
from repro.simulation.labels import LabelFeeds

_SOURCE_ORDER = ["chainabuse", "etherscan", "scamsniffer", "txphishscope"]


def _restricted_feeds(feeds: LabelFeeds, sources: list[str]) -> LabelFeeds:
    return LabelFeeds(
        chainabuse_reports=feeds.chainabuse_reports if "chainabuse" in sources else [],
        etherscan_phish_labels=(
            feeds.etherscan_phish_labels if "etherscan" in sources else []
        ),
        scamsniffer_addresses=(
            feeds.scamsniffer_addresses if "scamsniffer" in sources else []
        ),
        txphishscope_addresses=(
            feeds.txphishscope_addresses if "txphishscope" in sources else []
        ),
    )


def test_ablation_label_sources(benchmark, bench_world, record_table):
    world = bench_world
    truth_contracts = world.truth.all_contracts

    def run_with(sources: list[str]) -> tuple[int, float]:
        analyzer = ContractAnalyzer(world.rpc, world.explorer, world.oracle)
        feeds = _restricted_feeds(world.feeds, sources)
        dataset, _ = SeedBuilder(analyzer, feeds).build()
        seed_contracts = len(dataset.contracts)
        SnowballExpander(analyzer).expand(dataset)
        recall = len(dataset.contracts & truth_contracts) / len(truth_contracts)
        return seed_contracts, recall

    benchmark.pedantic(lambda: run_with(["chainabuse"]), rounds=1, iterations=1)

    rows = []
    for k in range(1, len(_SOURCE_ORDER) + 1):
        sources = _SOURCE_ORDER[:k]
        seed_contracts, recall = run_with(sources)
        rows.append([
            " + ".join(sources),
            str(seed_contracts),
            f"{recall:.1%}",
        ])
    table = render_table(
        ["feeds used", "seed contracts", "final contract recall"],
        rows,
        title="Ablation — label-source count vs. post-expansion coverage",
    )
    record_table("ablation_sources", table)

    _, full_recall = run_with(_SOURCE_ORDER)
    assert full_recall == 1.0
    _, single_recall = run_with(["chainabuse"])
    # Fewer feeds can lose whole families (no path from the seed).
    assert single_recall <= full_recall
