"""Snowball expansion of the DaaS dataset (paper §5.1, Step 4) — the one rule.

Starting from the seed operators and affiliates, walk each known
account's transaction history.  A contract invoked by a
profit-sharing transaction in such a history is a *candidate*; it is
admitted once its counterparty set contains at least two known
entities besides itself (the paper's guard against pulling in
unrelated contracts).  An admitted contract's profit-sharing matches
make their recipients known, their histories are walked in turn, and
the expansion repeats until a fixpoint.

Both conditions are monotone in the known set and the watermark, so
the admitted set at watermark ``W`` is the unique least fixpoint of
the rule — independent of how the chain prefix was sliced into deltas,
of arrival order and of worker count.  The batch build folds the whole
chain in one :meth:`SnowballExpander.advance`; the stream
(:mod:`repro.stream`) folds it delta by delta; both build their
dataset through :meth:`SnowballExpander.derive_dataset`.

``advance`` computes the fixpoint as semi-naive rounds: round *k*
walks the accounts that became known in round *k−1* (the seed
accounts in round 1), admits the pending candidates that now pass the
guard, and scans the new contracts' matches for the accounts round
*k+1* walks.  Round *k*'s new contracts are hop *k* of the expansion
(:class:`IterationStats`, the convergence ablation).

Incrementality is cursor-based: per-account walk cursors,
per-candidate counterparty cursors and per-contract match cursors each
consume only transactions newly under the watermark, and a delta's
*touched set* limits the first round to addresses whose histories
grew.  All reads go through the analyzer's caches (``runtime.cache``).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from repro.core.dataset import DaaSDataset
from repro.core.pipeline import ContractAnalyzer, split_roles

__all__ = [
    "ExpansionReport",
    "IterationStats",
    "SnowballExpander",
    "TickReport",
    "walk_account",
]

#: The batch build's watermark: every transaction on the chain is under it.
END_OF_CHAIN = 2**63 - 1


def walk_account(
    analyzer: ContractAnalyzer, account: str, start: int, watermark_ts: int, skip
) -> tuple[int, list[str]]:
    """Walk ``account``'s history from offset ``start`` up to the watermark.

    Returns the new cursor and the contracts invoked by profit-sharing
    transactions in the walked slice, first-seen order, leaving out
    ``skip``.  Pure in its arguments, so it runs identically on the
    calling thread, a worker thread, or a shard worker process
    (``repro.runtime.sharding``)."""
    txs = analyzer.transactions_of(account)
    i = start
    found: list[str] = []
    seen: set[str] = set()
    while i < len(txs) and txs[i].timestamp <= watermark_ts:
        tx = txs[i]
        i += 1
        candidate = tx.to
        if candidate is None or candidate in skip or candidate in seen:
            continue
        if not analyzer.rpc_classifier.classify_hash(tx.hash):
            continue
        if not analyzer.is_contract(candidate):
            continue
        seen.add(candidate)
        found.append(candidate)
    return i, found


@dataclass(slots=True)
class IterationStats:
    """One snowball round's yield."""

    iteration: int
    accounts_scanned: int = 0
    #: Candidates first discovered this round.
    candidates_seen: int = 0
    #: Of those, the ones still short of the guard at the round's end.
    candidates_rejected: int = 0
    new_contracts: int = 0
    #: Accounts first known this round, by their role in the match
    #: that introduced them.
    new_operators: int = 0
    new_affiliates: int = 0
    #: Profit-sharing matches of this round's new contracts.
    new_transactions: int = 0


@dataclass
class ExpansionReport:
    """Per-round statistics of one batch expansion."""

    iterations: list[IterationStats] = field(default_factory=list)

    @property
    def total_new_contracts(self) -> int:
        return sum(s.new_contracts for s in self.iterations)

    @property
    def converged(self) -> bool:
        return not self.iterations or self.iterations[-1].new_contracts == 0


@dataclass(slots=True)
class TickReport:
    """What one ``advance`` call changed (feeds metrics + clustering)."""

    watermark_ts: int = 0
    rounds: list[IterationStats] = field(default_factory=list)
    admitted: list[str] = field(default_factory=list)
    #: Contracts whose watermarked match list grew — the clusterer
    #: unions exactly these contracts' new edges.
    contracts_with_new_matches: list[str] = field(default_factory=list)

    @property
    def new_accounts(self) -> int:
        return sum(s.new_operators + s.new_affiliates for s in self.rounds)


@dataclass(slots=True)
class _PendingCandidate:
    """A discovered contract not yet past the counterparty guard."""

    parties: set[str] = field(default_factory=set)
    #: Consumed prefix of the candidate's transaction history.
    cursor: int = 0


def _seed_copy(dataset: DaaSDataset) -> DaaSDataset:
    """The entities and provenance of ``dataset`` (its records are
    re-derived from matches, so they are not needed)."""
    return DaaSDataset(
        contracts=set(dataset.contracts),
        operators=set(dataset.operators),
        affiliates=set(dataset.affiliates),
        provenance=dict(dataset.provenance),
    )


class SnowballExpander:
    """Watermarked snowball state over one analyzer.

    ``seeds`` anchors the known sets: its contracts, operators and
    affiliates are trusted from the start (they are feed-derived
    inputs, not watermark-derived facts).  Everything else — admissions,
    roles, records — is a pure function of ``(seeds, watermark)``,
    which is what gives the batch build, the incremental stream and
    its cold rebuild byte-identical datasets.
    """

    def __init__(self, analyzer: ContractAnalyzer, seeds: DaaSDataset | None = None) -> None:
        self.analyzer = analyzer
        self._bind(seeds if seeds is not None else DaaSDataset())

    def _bind(self, seeds: DaaSDataset) -> None:
        self.seeds = seeds
        self.watermark_ts: int | None = None
        #: Admitted contracts (seed contracts included from the start).
        self.contracts: set[str] = set(seeds.contracts)
        #: Known operator/affiliate accounts (role-free union — roles are
        #: derived at snapshot time, because the majority vote can flip).
        self.accounts: set[str] = set(seeds.operators) | set(seeds.affiliates)
        self._account_cursor: dict[str, int] = {}
        self._match_cursor: dict[str, int] = {}
        self._pending: dict[str, _PendingCandidate] = {}
        #: The next round's work while an ``advance`` is under way
        #: (checkpointed between rounds); ``None`` between advances.
        self._worklist: dict | None = None

    # -- batch entry point ---------------------------------------------------

    def expand(self, dataset: DaaSDataset, report: ExpansionReport | None = None,
               on_round=None) -> ExpansionReport:
        """Expand ``dataset`` in place to the fixpoint over the whole chain.

        A fresh expander takes ``dataset`` as its seeds.  One decoded
        from a snowball checkpoint finishes its interrupted ``advance``
        and appends to ``report``, the rounds completed before the
        interruption.  ``on_round(report)`` fires after every round,
        when :meth:`encode` captures a resumable state.
        """
        if self.watermark_ts is None:
            self._bind(_seed_copy(dataset))
        report = report if report is not None else ExpansionReport()

        def round_done(stats: IterationStats) -> None:
            report.iterations.append(stats)
            if on_round is not None:
                on_round(report)

        engine = self.analyzer.engine
        with engine.stage("snowball"):
            self.advance(END_OF_CHAIN, on_round=round_done)
            derived = self.derive_dataset()
        for f in fields(DaaSDataset):
            setattr(dataset, f.name, getattr(derived, f.name))
        engine.obs.event(
            "snowball.done",
            iterations=len(report.iterations),
            converged=report.converged,
            new_contracts=report.total_new_contracts,
        )
        return report

    # -- the fixpoint --------------------------------------------------------

    def advance(self, watermark_ts: int, touched=None, on_round=None) -> TickReport:
        """Fold everything at or under ``watermark_ts`` into the state.

        ``touched`` (a delta's grown-history address set) restricts the
        first round; ``None`` means examine everything — the cold path.
        The admitted set after the call is the rule's least fixpoint at
        the watermark, however the prefix was batched.  ``on_round``
        is called with each round's :class:`IterationStats`.
        """
        if self._worklist is None:
            if self.watermark_ts is not None and watermark_ts < self.watermark_ts:
                raise ValueError(
                    f"watermark moved backwards: {watermark_ts} < {self.watermark_ts}"
                )
            self.watermark_ts = watermark_ts
            # A pending candidate or account *not* in the touched set has
            # no new transactions under the new watermark — its cursor
            # already consumed everything — so skipping it is exact.
            walk, refresh, scan = self.accounts, set(self._pending), self.contracts
            if touched is not None:
                walk, refresh, scan = walk & touched, refresh & touched, scan & touched
            self._worklist = {
                "round": 1, "walk": sorted(walk), "refresh": sorted(refresh),
                "scan": sorted(scan), "recheck": False,
            }
        elif watermark_ts != self.watermark_ts:
            raise ValueError(
                f"an interrupted advance to {self.watermark_ts} cannot resume at {watermark_ts}"
            )
        report = TickReport(watermark_ts=watermark_ts)
        new_matches: set[str] = set()
        work = self._worklist
        while work["walk"] or work["refresh"] or work["scan"] or work["recheck"]:
            stats = IterationStats(iteration=work["round"])
            with self.analyzer.obs.span("snowball.round", round=stats.iteration) as span:
                work = self._worklist = self._round(work, stats, report, new_matches)
                span.set(frontier=stats.accounts_scanned, discovered=stats.candidates_seen,
                         new_contracts=stats.new_contracts)
            report.rounds.append(stats)
            if on_round is not None:
                on_round(stats)
        self._worklist = None
        report.contracts_with_new_matches = sorted(new_matches)
        return report

    def _round(self, work: dict, stats: IterationStats, report: TickReport,
               new_matches: set[str]) -> dict:
        """One semi-naive round; returns the next round's worklist."""
        engine = self.analyzer.engine
        # 1. Walk the round's accounts; their new candidates go pending.
        fresh = self._walk(work["walk"], stats)

        # 2. Admission: refresh the counterparty sets that grew, then
        # evaluate the guard against the known set as the round found
        # it — for every pending candidate once the known set has grown.
        refresh = sorted(set(work["refresh"]) | set(fresh))
        if refresh:
            engine.map(lambda c: self._advance_parties(c, self._pending[c]), refresh)
        to_check = sorted(self._pending) if work["recheck"] else refresh
        admitted = [c for c in to_check if self._admissible(c, self._pending[c].parties)]
        for candidate in admitted:
            del self._pending[candidate]
            self.contracts.add(candidate)
        report.admitted.extend(admitted)
        stats.new_contracts = len(admitted)
        stats.candidates_rejected = sum(1 for c in fresh if c in self._pending)

        # 3. Scan grown match lists; their new recipients are walked next
        # round.  Classification of the new contracts fans out first.
        self.analyzer.analyze_many(admitted)
        new_accounts: list[str] = []
        is_new = set(admitted)
        for contract in sorted(set(work["scan"]) | is_new):
            matches = self._advance_matches(contract)
            if not matches:
                continue
            new_matches.add(contract)
            if contract in is_new:
                stats.new_transactions += len(matches)
            for match in matches:
                if match.operator not in self.accounts:
                    self.accounts.add(match.operator)
                    new_accounts.append(match.operator)
                    stats.new_operators += 1
                if match.affiliate not in self.accounts:
                    self.accounts.add(match.affiliate)
                    new_accounts.append(match.affiliate)
                    stats.new_affiliates += 1
        return {
            "round": stats.iteration + 1, "walk": sorted(new_accounts),
            "refresh": [], "scan": [], "recheck": bool(admitted or new_accounts),
        }

    def _walk(self, accounts: list[str], stats: IterationStats) -> list[str]:
        """Walk ``accounts`` (fanned out over threads or shard processes,
        merged back in input order); returns the new candidates."""
        if not accounts:
            return []
        engine = self.analyzer.engine
        starts = [self._account_cursor.get(a, 0) for a in accounts]
        skip = self.contracts | self._pending.keys()
        sharding = engine.sharding
        if sharding is not None and sharding.active:
            walked = sharding.discover(
                self.analyzer, accounts, starts, self.watermark_ts, skip,
                round_no=stats.iteration,
            )
        else:
            walked = engine.map(
                lambda item: walk_account(self.analyzer, *item, self.watermark_ts, skip),
                list(zip(accounts, starts)),
            )
        fresh: list[str] = []
        for account, (cursor, candidates) in zip(accounts, walked):
            self._account_cursor[account] = cursor
            for candidate in candidates:
                if candidate not in self._pending:
                    self._pending[candidate] = _PendingCandidate()
                    fresh.append(candidate)
        stats.accounts_scanned = len(accounts)
        stats.candidates_seen = len(fresh)
        return fresh

    def _advance_parties(self, candidate: str, pending: _PendingCandidate) -> None:
        """Extend the candidate's watermarked counterparty set."""
        txs = self.analyzer.transactions_of(candidate)
        i = pending.cursor
        parties = pending.parties
        while i < len(txs) and txs[i].timestamp <= self.watermark_ts:
            tx = txs[i]
            i += 1
            parties.add(tx.sender)
            if tx.to:
                parties.add(tx.to)
            for match in self.analyzer.rpc_classifier.classify_hash(tx.hash):
                parties.add(match.operator)
                parties.add(match.affiliate)
                parties.add(match.source)
        parties.discard(candidate)
        pending.cursor = i

    def _admissible(self, candidate: str, parties: set[str]) -> bool:
        known = 0
        for party in parties:
            if party in self.contracts or party in self.accounts:
                known += 1
                if known >= 2:
                    return True
        return False

    def _advance_matches(self, contract: str):
        """Consume the contract's newly watermarked profit-sharing matches."""
        matches = self.analyzer.analyze(contract).matches
        start = i = self._match_cursor.get(contract, 0)
        while i < len(matches) and matches[i].timestamp <= self.watermark_ts:
            i += 1
        self._match_cursor[contract] = i
        return matches[start:i]

    # -- snapshot-time derivation --------------------------------------------

    def matches_of(self, contract: str):
        """The contract's profit-sharing matches at the watermark (the
        consumed prefix of its cached full-history analysis)."""
        cursor = self._match_cursor.get(contract, 0)
        if cursor == 0:
            return []
        return self.analyzer.analyze(contract).matches[:cursor]

    def derive_dataset(self) -> DaaSDataset:
        """The §5.1 dataset as of the watermark — a pure function of the
        admitted/known state, shared by the batch build, the incremental
        stream and its cold rebuild.

        Roles are recomputed from the watermarked matches on every
        snapshot (never accumulated) because the operator/affiliate
        majority vote is not monotone; expansion-admitted entities carry
        the constant provenance ``("expansion", "snowball")`` so the
        record cannot depend on rounds or delta batching.
        """
        dataset = DaaSDataset()
        seeds = self.seeds
        for address in sorted(seeds.contracts):
            prov = seeds.provenance[address]
            dataset.add_contract(address, stage=prov.stage, source=prov.source)
        for address in sorted(seeds.operators):
            prov = seeds.provenance[address]
            dataset.add_operator(address, stage=prov.stage, source=prov.source)
        for address in sorted(seeds.affiliates):
            prov = seeds.provenance[address]
            dataset.add_affiliate(address, stage=prov.stage, source=prov.source)

        for contract in sorted(self.contracts):
            matches = self.matches_of(contract)
            dataset.add_contract(contract, stage="expansion", source="snowball")
            if not matches:
                continue
            operators, affiliates = split_roles(matches)
            for operator in sorted(operators):
                dataset.add_operator(operator, stage="expansion", source="snowball")
            for affiliate in sorted(affiliates):
                dataset.add_affiliate(affiliate, stage="expansion", source="snowball")
            for record in self.analyzer.to_records(matches):
                dataset.add_transaction(record)
        return dataset

    def derive_edges(self) -> list[tuple[str, str]]:
        """Every ``(contract, recipient)`` profit-sharing edge at the
        watermark, in deterministic order — the clustering input."""
        edges: list[tuple[str, str]] = []
        for contract in sorted(self.contracts):
            for match in self.matches_of(contract):
                edges.append((contract, match.operator))
                edges.append((contract, match.affiliate))
        return edges

    # -- checkpoint codec ----------------------------------------------------

    def encode(self) -> dict:
        """JSON-safe resume state (sets, cursors and — mid-advance — the
        next round's worklist; matches rehydrate from the analyzer's
        cached histories on decode)."""
        return {
            "watermark_ts": self.watermark_ts,
            "contracts": sorted(self.contracts),
            "accounts": sorted(self.accounts),
            "account_cursor": dict(sorted(self._account_cursor.items())),
            "match_cursor": dict(sorted(self._match_cursor.items())),
            "pending": {
                c: {"cursor": p.cursor, "parties": sorted(p.parties)}
                for c, p in sorted(self._pending.items())
            },
            "worklist": self._worklist,
        }

    @classmethod
    def decode(
        cls, payload: dict, analyzer: ContractAnalyzer, seeds: DaaSDataset
    ) -> "SnowballExpander":
        expander = cls(analyzer, seeds)
        expander.watermark_ts = payload.get("watermark_ts")
        expander.contracts = set(payload.get("contracts", []))
        expander.accounts = set(payload.get("accounts", []))
        expander._account_cursor = {
            a: int(i) for a, i in payload.get("account_cursor", {}).items()
        }
        expander._match_cursor = {
            c: int(i) for c, i in payload.get("match_cursor", {}).items()
        }
        expander._pending = {
            c: _PendingCandidate(
                parties=set(p.get("parties", [])), cursor=int(p.get("cursor", 0))
            )
            for c, p in payload.get("pending", {}).items()
        }
        expander._worklist = payload.get("worklist")
        return expander
