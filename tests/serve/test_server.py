"""The /v1 HTTP service, endpoint by endpoint, through a stdlib client.

Every operator/affiliate/contract in the fixture dataset answers with
the correct role and family, the domain/families/index endpoints answer,
the error surface (404 unknown entity or route, 405 wrong method, 400
bad screen body or batch) behaves, conditional requests hit 304,
admission control answers 429/503 and recovers, a hot reload under
concurrent load drops zero in-flight requests, and requests are counted
in ``daas_serve_requests_total``.  Unlike ``test_aserver.py``, which
speaks raw keep-alive sockets, every request here is a fresh urllib
connection.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
import urllib.error
import urllib.request
from urllib.parse import quote

import pytest

from repro.obs import Observability
from repro.serve import AsyncIntelServer, build_index


class FakeClock:
    def __init__(self, now: float = 1000.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def get(url: str, headers: dict | None = None):
    request = urllib.request.Request(url, headers=headers or {})
    try:
        with urllib.request.urlopen(request, timeout=5.0) as response:
            return response.status, response.read().decode(), response.headers
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read().decode(), exc.headers


def post(url: str, doc, headers: dict | None = None):
    request = urllib.request.Request(
        url, data=json.dumps(doc).encode(), method="POST",
        headers={"Content-Type": "application/json", **(headers or {})},
    )
    try:
        with urllib.request.urlopen(request, timeout=5.0) as response:
            return response.status, response.read().decode(), response.headers
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read().decode(), exc.headers


@pytest.fixture()
def server(intel_index):
    srv = AsyncIntelServer(index=intel_index,
                           obs=Observability(run_id="servetest"))
    srv.start()
    yield srv
    srv.stop()


class TestAddressEndpoint:
    def test_every_dataset_entity_answers_correctly(
        self, pipeline, intel_index, server
    ):
        """The acceptance check: correct role/family for every operator,
        affiliate, and contract of the tier-1 fixture dataset."""
        for role, members in (
            ("contract", pipeline.dataset.contracts),
            ("operator", pipeline.dataset.operators),
            ("affiliate", pipeline.dataset.affiliates),
        ):
            for address in sorted(members):
                code, body, headers = get(f"{server.url}/v1/address/{address}")
                assert code == 200
                doc = json.loads(body)
                assert doc["role"] == role
                expected = intel_index.lookup_address(address)
                assert doc["family"] == expected.family
                assert doc["risk"] > 0
                assert headers["X-Index-Version"] == intel_index.version

    def test_unknown_address_404(self, server):
        code, body, _ = get(f"{server.url}/v1/address/0x{'00' * 20}")
        assert code == 404
        assert json.loads(body)["flagged"] is False

    def test_etag_roundtrip_304(self, pipeline, server, intel_index):
        address = sorted(pipeline.dataset.operators)[0]
        code, _, headers = get(f"{server.url}/v1/address/{address}")
        assert code == 200
        assert headers["ETag"] == f'"{intel_index.version}"'
        code, body, _ = get(
            f"{server.url}/v1/address/{address}",
            {"If-None-Match": headers["ETag"]},
        )
        assert code == 304 and body == ""


class TestOtherEndpoints:
    def test_domain_lookup_and_404(self, pipeline, server):
        reports = [
            type("R", (), {"domain": "fake-claim.xyz", "family": "Angel Drainer",
                           "detected_at": 5, "matched_keyword": "claim"})()
        ]
        index = build_index(pipeline.dataset, site_reports=reports)
        server.load_index(index)
        code, body, _ = get(f"{server.url}/v1/domain/fake-claim.xyz")
        assert code == 200
        doc = json.loads(body)
        assert doc["verdict"] == "phishing" and doc["family"] == "Angel Drainer"
        code, _, _ = get(f"{server.url}/v1/domain/benign.example")
        assert code == 404

    def test_families_listing_and_detail(self, pipeline, server):
        code, body, _ = get(f"{server.url}/v1/families")
        assert code == 200
        families = json.loads(body)["families"]
        assert len(families) == pipeline.clustering.family_count
        name = families[0]["name"]
        code, body, _ = get(f"{server.url}/v1/families/{quote(name)}")
        assert code == 200 and json.loads(body)["name"] == name
        code, _, _ = get(f"{server.url}/v1/families/NoSuchFamily")
        assert code == 404

    def test_index_metadata(self, server, intel_index):
        code, body, _ = get(f"{server.url}/v1/index")
        assert code == 200
        doc = json.loads(body)
        assert doc["index_version"] == intel_index.version
        assert doc["counts"]["addresses"] == len(intel_index)

    def test_screen_batch(self, pipeline, server):
        known = sorted(pipeline.dataset.contracts)[0]
        code, body, _ = post(f"{server.url}/v1/screen",
                             {"addresses": [known, "0x" + "11" * 20]})
        assert code == 200
        doc = json.loads(body)
        assert doc["flagged"] == 1
        assert [v["flagged"] for v in doc["verdicts"]] == [True, False]

    def test_screen_rejects_bad_bodies(self, server):
        code, _, _ = post(f"{server.url}/v1/screen", {"addresses": "not-a-list"})
        assert code == 400
        code, _, _ = post(f"{server.url}/v1/screen", {"addresses": [1, 2]})
        assert code == 400
        request = urllib.request.Request(
            f"{server.url}/v1/screen", data=b"{broken", method="POST")
        try:
            with urllib.request.urlopen(request, timeout=5.0) as response:
                code = response.status
        except urllib.error.HTTPError as exc:
            code = exc.code
        assert code == 400

    def test_screen_batch_cap(self, intel_index):
        server = AsyncIntelServer(index=intel_index, max_batch=2).start()
        try:
            code, body, _ = post(f"{server.url}/v1/screen",
                                 {"addresses": ["0x1", "0x2", "0x3"]})
            assert code == 400 and "exceeds max 2" in body
        finally:
            server.stop()

    def test_screen_requires_post(self, server):
        code, _, _ = get(f"{server.url}/v1/screen")
        assert code == 405

    def test_unknown_route_404(self, server):
        code, body, _ = get(f"{server.url}/v1/nope")
        assert code == 404
        assert "endpoints" in json.loads(body)


class TestAdmissionControl:
    def test_rate_limit_429_and_recovery(self, intel_index):
        clock = FakeClock()
        server = AsyncIntelServer(
            index=intel_index, rate_limit=1.0, burst=2.0, clock=clock,
        ).start()
        try:
            url = f"{server.url}/healthz"
            headers = {"X-Client-Id": "wallet-a"}
            assert get(url, headers)[0] == 200
            assert get(url, headers)[0] == 200
            code, body, response_headers = get(url, headers)
            assert code == 429
            assert int(response_headers["Retry-After"]) >= 1
            assert "retry_after_s" in json.loads(body)
            # An unrelated client has its own bucket.
            assert get(url, {"X-Client-Id": "wallet-b"})[0] == 200
            clock.advance(5.0)
            assert get(url, headers)[0] == 200
        finally:
            server.stop()

    def test_concurrency_gate_503(self, intel_index):
        server = AsyncIntelServer(
            index=intel_index, max_concurrency=1, busy_timeout_s=0.01,
        ).start()
        try:
            acquired = asyncio.run_coroutine_threadsafe(
                server._gate.acquire(), server.loop)  # saturate the gate
            assert acquired.result(timeout=2.0) is True
            try:
                code, body, _ = get(f"{server.url}/v1/index")
                assert code == 503
                assert "saturated" in json.loads(body)["error"]
            finally:
                server.loop.call_soon_threadsafe(server._gate.release)
            time.sleep(0.05)
            assert get(f"{server.url}/v1/index")[0] == 200
        finally:
            server.stop()

    def test_no_index_503_until_loaded(self, intel_index):
        server = AsyncIntelServer(obs=Observability(run_id="noindex")).start()
        try:
            code, body, _ = get(f"{server.url}/healthz")
            assert code == 503 and json.loads(body)["status"] == "no-index"
            code, body, _ = get(f"{server.url}/v1/address/0xabc")
            assert code == 503
            assert "no intelligence index" in json.loads(body)["error"]
            server.load_index(intel_index)
            code, body, _ = get(f"{server.url}/healthz")
            assert code == 200
            assert json.loads(body)["index_version"] == intel_index.version
            assert get(f"{server.url}/v1/families")[0] == 200
        finally:
            server.stop()


class TestHotReload:
    def test_hot_reload_drops_no_inflight_requests(self, pipeline, intel_index):
        """Swap index versions repeatedly while clients hammer lookups,
        one connection per request: every response must succeed against
        one coherent version."""
        other = build_index(pipeline.dataset)  # different version (no families)
        assert other.version != intel_index.version
        server = AsyncIntelServer(index=intel_index).start()
        addresses = sorted(pipeline.dataset.contracts)[:8]
        versions = {intel_index.version, other.version}
        failures: list = []
        stop = threading.Event()

        def hammer() -> None:
            i = 0
            while not stop.is_set():
                address = addresses[i % len(addresses)]
                try:
                    code, _, headers = get(f"{server.url}/v1/address/{address}")
                except Exception as exc:  # noqa: BLE001 - any failure counts
                    failures.append(repr(exc))
                    continue
                if code != 200 or headers["X-Index-Version"] not in versions:
                    failures.append((code, headers.get("X-Index-Version")))
                i += 1

        workers = [threading.Thread(target=hammer) for _ in range(4)]
        for worker in workers:
            worker.start()
        try:
            for flip in range(6):
                server.load_index(other if flip % 2 == 0 else intel_index)
        finally:
            stop.set()
            for worker in workers:
                worker.join(timeout=10.0)
            server.stop()
        assert failures == []

    def test_reload_from_file_and_bad_file_keeps_serving(
        self, pipeline, intel_index, tmp_path
    ):
        server = AsyncIntelServer(index=intel_index,
                                  obs=Observability(run_id="reload")).start()
        try:
            other = build_index(pipeline.dataset)
            path = tmp_path / "next.json"
            other.save(path)
            assert server.reload(str(path)) == other.version
            assert server.index_version == other.version
            # A corrupt file must not take the service down.
            bad = tmp_path / "bad.json"
            bad.write_text("{nope")
            assert server.reload(str(bad)) is None
            assert server.index_version == other.version
            assert get(f"{server.url}/healthz")[0] == 200
        finally:
            server.stop()


class TestObservability:
    def test_requests_and_latency_are_counted(self, intel_index):
        obs = Observability(run_id="metrics")
        server = AsyncIntelServer(index=intel_index, obs=obs).start()
        try:
            get(f"{server.url}/healthz")
            get(f"{server.url}/v1/index")
            get(f"{server.url}/v1/index")
        finally:
            server.stop()
        exported = obs.metrics.to_prometheus()
        assert 'daas_serve_requests_total{endpoint="/healthz"} 1' in exported
        assert 'daas_serve_requests_total{endpoint="/v1/index"} 2' in exported
        assert "daas_serve_request_seconds" in exported
        assert "daas_serve_index_loaded 1" in exported
