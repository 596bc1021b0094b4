"""Shared analysis machinery for the seed and expansion stages.

:class:`ContractAnalyzer` implements the per-contract work both stages
share: classify every historical transaction of a contract (§5.1 Step 2),
convert matches into dataset records with USD valuation, and split the
recipients into operator and affiliate roles by share size (Step 3 —
"operators receive the smaller share").

All per-contract analysis is routed through an
:class:`~repro.runtime.engine.ExecutionEngine`, which memoizes results
across stages (a snowball round never re-classifies a contract the seed
stage or an earlier round already analyzed), caches chain reads, and
fans batch work out over its executor.  The engine's
:class:`~repro.obs.Observability` handle (``analyzer.obs``) carries the
trace spans, metrics, and structured log events every stage reports
through; see ``docs/observability.md`` for the event catalogue.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.chain.explorer import Explorer
from repro.chain.prices import PriceOracle
from repro.chain.rpc import EthereumRPC
from repro.core.dataset import PSTransactionRecord
from repro.core.profit_sharing import ProfitShareMatch, ProfitSharingClassifier, RPCClassifier
from repro.runtime.engine import ExecutionEngine

__all__ = ["ContractAnalysis", "ContractAnalyzer", "split_roles"]


@dataclass
class ContractAnalysis:
    """Result of analyzing one candidate contract."""

    contract: str
    matches: list[ProfitShareMatch] = field(default_factory=list)
    total_txs: int = 0

    @property
    def is_profit_sharing(self) -> bool:
        return bool(self.matches)


def split_roles(matches: list[ProfitShareMatch]) -> tuple[set[str], set[str]]:
    """Split match recipients into (operators, affiliates) by majority vote.

    Every match names the smaller-share recipient as operator and the
    larger-share one as affiliate.  An address that somehow appears on
    both sides is resolved by majority, operator winning ties (a single
    mislabeled operator pollutes clustering more than a mislabeled
    affiliate, so the conservative tie-break is operator).
    """
    op_votes: dict[str, int] = {}
    aff_votes: dict[str, int] = {}
    for match in matches:
        op_votes[match.operator] = op_votes.get(match.operator, 0) + 1
        aff_votes[match.affiliate] = aff_votes.get(match.affiliate, 0) + 1
    operators: set[str] = set()
    affiliates: set[str] = set()
    for address in set(op_votes) | set(aff_votes):
        if op_votes.get(address, 0) >= aff_votes.get(address, 0):
            operators.add(address)
        else:
            affiliates.add(address)
    return operators, affiliates


class ContractAnalyzer:
    """Per-contract classification, routed through an execution engine."""

    def __init__(
        self,
        rpc: EthereumRPC,
        explorer: Explorer,
        oracle: PriceOracle,
        classifier: ProfitSharingClassifier | None = None,
        engine: ExecutionEngine | None = None,
    ) -> None:
        self.rpc = rpc
        self.explorer = explorer
        self.oracle = oracle
        self.engine = engine if engine is not None else ExecutionEngine()
        self.reads = self.engine.bind_reads(rpc, explorer)
        self.rpc_classifier = RPCClassifier(
            self.reads, classifier, cache=self.engine.match_cache
        )

    @property
    def obs(self):
        """The engine's :class:`~repro.obs.Observability` handle, so stages
        holding only an analyzer can trace/log without reaching through
        ``analyzer.engine.obs`` everywhere."""
        return self.engine.obs

    # -- cached views used by every construction stage ----------------------

    def analyze(self, contract: str) -> ContractAnalysis:
        """Classify every historical transaction of ``contract`` (cached)."""
        return self.engine.analyze(self, contract)

    def analyze_many(self, contracts: list[str]) -> dict[str, ContractAnalysis]:
        """Batch classification; cache misses fan out over the engine."""
        return self.engine.analyze_many(self, contracts)

    def invalidate(self, contract: str) -> bool:
        """Drop cached state for ``contract`` (monitor backfill hook)."""
        return self.engine.invalidate_contract(contract)

    def transactions_of(self, address: str):
        return self.reads.transactions_of(address)

    def is_contract(self, address: str) -> bool:
        return self.reads.is_contract(address)

    # -- the uncached Step 2 work (called by the engine) ---------------------

    def compute_analysis(self, contract: str) -> ContractAnalysis:
        analysis = ContractAnalysis(contract=contract)
        for tx in self.reads.transactions_of(contract):
            analysis.total_txs += 1
            if tx.to != contract:
                # The contract merely appeared in someone else's trace; the
                # split must be performed by the invoked contract itself.
                continue
            analysis.matches.extend(self.rpc_classifier.classify_hash(tx.hash))
        if analysis.is_profit_sharing:
            self.obs.event(
                "classify.profit_sharing", level="debug", contract=contract,
                matches=len(analysis.matches), total_txs=analysis.total_txs,
            )
        return analysis

    def to_records(self, matches: list[ProfitShareMatch]) -> list[PSTransactionRecord]:
        """Convert matches to dataset records, valuing them in USD."""
        records = []
        for match in matches:
            total_usd = self.oracle.value_usd(
                match.token, match.total_amount, match.timestamp
            )
            records.append(PSTransactionRecord.from_match(match, total_usd=total_usd))
        return records
