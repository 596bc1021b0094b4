"""The one snowball rule on a hand-built chain where knowledge arrives late.

Chain (every address fixed, one block per transaction):

* seed contract ``S`` (operator ``OP1``) pays affiliate ``A1``;
* contract ``Y`` (operator ``OP1``) pays ``A1`` and then a fresh
  affiliate ``B`` — walking ``A1`` discovers ``Y``, whose known
  counterparties ``OP1`` and ``A1`` admit it in round 1, and its
  matches make ``B`` known at the end of round 1;
* contract ``X`` (operator ``OPX``) pays ``A1`` — walking ``A1``
  discovers ``X`` in round 1 too, but its only known counterparty then
  is ``A1``.  ``B`` touches ``X`` only through a reverted transaction,
  so walking ``B`` in round 2 never rediscovers ``X``.

``X``'s second known counterparty (``B``) thus becomes known one round
after ``X`` was discovered.  A round walk that evaluates the guard only
when it meets a candidate misses ``X`` for good; the monotone closure
re-checks pending candidates whenever the known set grows and admits it
in round 2.  Delta batching cannot change that outcome.
"""

from __future__ import annotations

import sys
import time

import pytest

from repro.chain.chain import Blockchain
from repro.chain.contracts.drainers import make_drainer_factory
from repro.chain.explorer import Explorer
from repro.chain.prices import PriceOracle
from repro.chain.rpc import EthereumRPC
from repro.chain.types import eth_to_wei
from repro.core import ContractAnalyzer, DaaSDataset, SeedBuilder, SnowballExpander, split_roles
from repro.runtime import ExecutionEngine, ParallelExecutor
from repro.simulation import SimulationParams, build_world
from repro.stream import DeltaSource, IncrementalExpander, StreamCursor

GENESIS = 1_700_000_000
SLOT = 12
VICTIM = "0x" + "33" * 20
OP1 = "0x" + "11" * 20
OPX = "0x" + "12" * 20
A1 = "0x" + "44" * 20
B = "0x" + "45" * 20
EXEC_S, EXEC_Y, EXEC_X = ("0x" + h * 20 for h in ("21", "22", "23"))


def late_counterparty_chain():
    """``(chain, S, Y, X)`` for the scenario in the module docstring."""
    chain = Blockchain(genesis_timestamp=GENESIS)
    chain.fund(VICTIM, eth_to_wei(100))
    slot = iter(range(GENESIS, GENESIS + 100 * SLOT, SLOT))

    def deploy(operator, executor):
        factory = make_drainer_factory("claim", operator, executor, 2000)
        return chain.deploy_contract(executor, factory, timestamp=next(slot))

    def claim(contract, affiliate):
        chain.send_transaction(
            VICTIM, contract.address, value=eth_to_wei(1), func="Claim",
            args={"affiliate": affiliate}, timestamp=next(slot),
        )

    s, y, x = deploy(OP1, EXEC_S), deploy(OP1, EXEC_Y), deploy(OPX, EXEC_X)
    claim(s, A1)
    claim(x, A1)
    # B is unfunded: the transfer reverts, so B is X's counterparty
    # without any profit-sharing transaction pointing from B to X.
    chain.send_transaction(B, x.address, value=eth_to_wei(1), timestamp=next(slot))
    claim(y, A1)
    claim(y, B)
    return chain, s.address, y.address, x.address


def analyzer_for(chain) -> ContractAnalyzer:
    return ContractAnalyzer(EthereumRPC(chain), Explorer(chain), PriceOracle())


def seed_dataset(analyzer, contract: str) -> DaaSDataset:
    """A one-contract seed, assembled the way the seed stage does."""
    dataset = DaaSDataset()
    dataset.add_contract(contract, stage="seed", source="hand")
    matches = analyzer.analyze(contract).matches
    operators, affiliates = split_roles(matches)
    for operator in sorted(operators):
        dataset.add_operator(operator, stage="seed", source="hand")
    for affiliate in sorted(affiliates):
        dataset.add_affiliate(affiliate, stage="seed", source="hand")
    for record in analyzer.to_records(matches):
        dataset.add_transaction(record)
    return dataset


@pytest.fixture()
def scenario():
    chain, s, y, x = late_counterparty_chain()
    analyzer = analyzer_for(chain)
    return chain, analyzer, seed_dataset(analyzer, s), (s, y, x)


class TestLateCounterparty:
    def test_batch_expand_admits_the_late_candidate(self, scenario):
        _, analyzer, dataset, (s, y, x) = scenario
        report = SnowballExpander(analyzer).expand(dataset)
        assert dataset.contracts == {s, y, x}
        assert {OP1, OPX} <= dataset.operators
        assert {A1, B} <= dataset.affiliates
        # Y is hop 1; X clears the guard one round later, when B is known.
        assert [r.new_contracts for r in report.iterations] == [1, 1, 0]
        assert report.converged
        assert dataset.provenance[x].source == "snowball"

    @pytest.mark.parametrize("delta_blocks", [1, None], ids=["batch-1", "batch-all"])
    def test_delta_batching_does_not_change_admission(self, scenario, delta_blocks):
        chain, analyzer, seeds, (s, y, x) = scenario
        source = DeltaSource(chain)
        expander = IncrementalExpander(analyzer, seeds)
        if delta_blocks is None:
            expander.advance(source.drained_watermark_ts())
        else:
            cursor = StreamCursor()
            while (polled := source.poll(cursor, max_blocks=delta_blocks)) is not None:
                delta, cursor = polled
                expander.advance(delta.watermark_ts, touched=set(delta.touched))
        assert expander.contracts == {s, y, x}
        batch = seed_dataset(analyzer, s)
        SnowballExpander(analyzer).expand(batch)
        assert expander.derive_dataset().to_json() == batch.to_json()


def test_threaded_rounds_match_serial_under_fast_switching():
    """A round's walks and counterparty refreshes run on worker threads
    that share the expander; with more workers than cores and a tiny
    switch interval, a lost update would change the derived bytes."""
    world = build_world(SimulationParams(scale=0.005, seed=7))

    def expand(engine):
        analyzer = ContractAnalyzer(world.rpc, world.explorer, world.oracle, engine=engine)
        dataset, _ = SeedBuilder(analyzer, world.feeds).build()
        report = SnowballExpander(analyzer).expand(dataset)
        return dataset.to_json(), [(s.iteration, s.new_contracts) for s in report.iterations]

    serial = expand(ExecutionEngine())
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    started = time.monotonic()
    try:
        for _ in range(3):
            assert expand(ExecutionEngine(ParallelExecutor(workers=8))) == serial
    finally:
        sys.setswitchinterval(interval)
    assert time.monotonic() - started < 120
