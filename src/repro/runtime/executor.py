"""Pluggable execution strategies for per-contract analysis.

An :class:`Executor` maps a function over a batch of items.
``map_unordered`` yields ``(index, result)`` pairs as they complete;
``map_merged`` performs the deterministic merge — results in input
order regardless of completion order — which is what makes parallel
dataset construction byte-identical to serial (the parity guarantee
tested in ``tests/runtime/test_parity.py``).

:class:`ParallelExecutor` runs on a thread pool: the simulated chain is
a shared in-memory object, and threads earn their place on I/O-shaped
upstreams (``benchmarks/bench_perf_parallel.py``'s latency rows).  The
process path is :class:`~repro.runtime.sharding.ShardingRuntime`.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor, as_completed
from typing import Any, Callable, Iterable, Iterator

__all__ = ["Executor", "SerialExecutor", "ParallelExecutor", "make_executor"]


def _run_chunk(fn: Callable[[Any], Any], start: int, chunk: list) -> list[tuple[int, Any]]:
    return [(start + offset, fn(item)) for offset, item in enumerate(chunk)]


class Executor:
    """Maps work over item batches; subclasses choose the strategy."""

    workers: int = 1

    def map_unordered(
        self, fn: Callable[[Any], Any], items: Iterable[Any]
    ) -> Iterator[tuple[int, Any]]:
        """Yield ``(input_index, result)`` pairs in completion order."""
        raise NotImplementedError

    def map_merged(self, fn: Callable[[Any], Any], items: Iterable[Any]) -> list[Any]:
        """Results in input order, regardless of completion order."""
        items = list(items)
        results: list[Any] = [None] * len(items)
        for index, value in self.map_unordered(fn, items):
            results[index] = value
        return results


class SerialExecutor(Executor):
    """In-order execution on the calling thread (the default)."""

    workers = 1

    def map_unordered(
        self, fn: Callable[[Any], Any], items: Iterable[Any]
    ) -> Iterator[tuple[int, Any]]:
        for index, item in enumerate(items):
            yield index, fn(item)


class ParallelExecutor(Executor):
    """Thread-pooled execution over item chunks.

    ``chunk_size`` trades scheduling overhead against load balance:
    1 (the default) gives best balance for heterogeneous contracts,
    larger chunks amortize submission cost on huge uniform batches.
    """

    def __init__(self, workers: int | None = None, chunk_size: int = 1) -> None:
        if workers is not None and workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        self.workers = workers if workers is not None else (os.cpu_count() or 2)
        self.chunk_size = chunk_size

    def map_unordered(
        self, fn: Callable[[Any], Any], items: Iterable[Any]
    ) -> Iterator[tuple[int, Any]]:
        items = list(items)
        if not items:
            return
        chunks = [
            (start, items[start : start + self.chunk_size])
            for start in range(0, len(items), self.chunk_size)
        ]
        with ThreadPoolExecutor(max_workers=min(self.workers, len(chunks))) as pool:
            futures = [pool.submit(_run_chunk, fn, start, chunk) for start, chunk in chunks]
            for future in as_completed(futures):
                yield from future.result()


def make_executor(workers: int | None = 1, chunk_size: int = 1) -> Executor:
    """``workers <= 1`` (or None) selects the serial strategy."""
    if workers is None or workers <= 1:
        return SerialExecutor()
    return ParallelExecutor(workers=workers, chunk_size=chunk_size)
