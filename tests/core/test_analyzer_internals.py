"""ContractAnalyzer / RPCClassifier internals: memoization, transaction counts."""

from __future__ import annotations

import pytest

from repro.chain.chain import Blockchain
from repro.chain.contracts.drainers import make_drainer_factory
from repro.chain.explorer import Explorer
from repro.chain.prices import PriceOracle
from repro.chain.rpc import EthereumRPC
from repro.chain.types import eth_to_wei
from repro.core import ContractAnalyzer, ProfitSharingClassifier, RPCClassifier

OP = "0x" + "11" * 20
EXEC = "0x" + "22" * 20
VICTIM = "0x" + "33" * 20
AFF = "0x" + "44" * 20
GENESIS = 1_700_000_000


@pytest.fixture()
def env():
    chain = Blockchain(genesis_timestamp=GENESIS)
    chain.fund(VICTIM, eth_to_wei(100))
    drainer = chain.deploy_contract(
        EXEC, make_drainer_factory("claim", OP, EXEC, 2000), timestamp=GENESIS
    )
    rpc = EthereumRPC(chain)
    analyzer = ContractAnalyzer(rpc, Explorer(chain), PriceOracle())
    return chain, drainer, rpc, analyzer


def claim(chain, drainer, eth=1):
    return chain.send_transaction(
        VICTIM, drainer.address, value=eth_to_wei(eth),
        func="Claim", args={"affiliate": AFF}, timestamp=GENESIS + 12,
    )


class TestMemoization:
    def test_rpc_classifier_memoizes(self, env):
        chain, drainer, rpc, _ = env
        tx, _ = claim(chain, drainer)
        classifier = RPCClassifier(rpc)
        first = classifier.classify_hash(tx.hash)
        second = classifier.classify_hash(tx.hash)
        assert first is second  # same list object, not recomputed

    def test_analyzer_caches_analyses(self, env):
        chain, drainer, _, analyzer = env
        claim(chain, drainer)
        first = analyzer.analyze(drainer.address)
        second = analyzer.analyze(drainer.address)
        assert first is second


class TestThreshold:
    def test_analysis_counts_total_txs(self, env):
        chain, drainer, _, analyzer = env
        claim(chain, drainer)
        claim(chain, drainer)
        analysis = analyzer.analyze(drainer.address)
        # creation tx + 2 claims appear in the contract's history
        assert analysis.total_txs == 3
        assert len(analysis.matches) == 2


class TestCallerSideFiltering:
    def test_only_invocations_of_the_contract_count(self, env):
        """Transactions where the contract merely appears in a trace (e.g.
        as a transfer party of someone else's call) are not classified as
        its own profit-sharing activity."""
        chain, drainer, _, analyzer = env
        claim(chain, drainer)
        # a plain transfer TO the drainer (no function) adds history but
        # no matches
        chain.send_transaction(VICTIM, drainer.address, value=eth_to_wei(1),
                               timestamp=GENESIS + 24)
        analysis = analyzer.analyze(drainer.address)
        assert len(analysis.matches) == 1


class TestRecordConversion:
    def test_usd_valuation_uses_timestamp(self, env):
        chain, drainer, _, analyzer = env
        claim(chain, drainer, eth=2)
        analysis = analyzer.analyze(drainer.address)
        records = analyzer.to_records(analysis.matches)
        assert len(records) == 1
        oracle = analyzer.oracle
        expected = oracle.value_usd("ETH", eth_to_wei(2), records[0].timestamp)
        assert records[0].total_usd == pytest.approx(expected, rel=1e-9)

    def test_classifier_override_respected(self, env):
        chain, drainer, rpc, _ = env
        tx, receipt = claim(chain, drainer)
        # Zero tolerance still matches splits whose integer division is
        # exact — 2 ETH at 20 % divides without remainder.
        narrow = ProfitSharingClassifier(tolerance=0.0)
        assert narrow.classify(tx, receipt)
