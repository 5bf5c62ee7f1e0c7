"""The ``service_mixed`` workload: a closed loop against ``repro serve``.

The server runs in a child process (``serve.py``) with a fresh dedup cache
under the run's work directory; its temporary spool directories go there
too (``TMPDIR``).  Two client threads each send one request at a time and
wait for the reply.  Each client draws its own seeded request sequence:
~60% repeat ``/v1/compress`` of a hot body (a dedup hit), ~15% fresh
``/v1/compress`` (a miss: encode and cache commit) and ~25%
``/v1/decompress`` of a hot container.
"""

from __future__ import annotations

import http.client
import io
import json
import os
import signal
import subprocess
import sys
import tarfile
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import repro.traces.filter as filt
from tracer import now

BODY_ADDRESSES = 32_768
HOT_BODIES = 8
CLIENTS = 2
#: Fresh offsets reserved per client; far more than a run can use.
FRESH_PER_CLIENT = 4_000
HIT, FRESH, DECOMPRESS = "hit", "fresh", "decompress"
STARTUP_TIMEOUT = 60.0
DRAIN_TIMEOUT = 60.0


@dataclass
class Request:
    kind: str
    latency_s: float
    error: str = ""


class Server:
    """One ``serve.py`` child process and its files."""

    def __init__(self, workdir: Path, tag: str, trace_out=None) -> None:
        self.log = workdir / f"serve-{tag}.log"
        tmp = workdir / "tmp"
        tmp.mkdir(exist_ok=True)
        env = dict(os.environ, TMPDIR=str(tmp), PYTHONDONTWRITEBYTECODE="1")
        command = [sys.executable, str(Path(__file__).resolve().parent / "serve.py")]
        if trace_out is not None:
            command += ["--trace-out", str(trace_out)]
        command += ["--", "--port", "0", "--cache-dir", str(workdir / f"cache-{tag}")]
        with open(self.log, "wb") as log:
            self.process = subprocess.Popen(command, stdout=log, stderr=subprocess.STDOUT, env=env)
        self.port = self._wait_ready()

    def _wait_ready(self) -> int:
        deadline = now() + STARTUP_TIMEOUT
        while now() < deadline:
            text = self.log.read_text(errors="replace")
            marker = "listening on http://"
            if marker in text:
                line = text.split(marker, 1)[1].split()[0]
                return int(line.rsplit(":", 1)[1])
            if self.process.poll() is not None:
                break
            threading.Event().wait(0.01)
        self.stop()
        raise RuntimeError(f"server did not become ready:\n{self.log.read_text(errors='replace')}")

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.process.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self):
        """SIGTERM, wait for the drain; returns the exit code."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            return self.process.wait(timeout=DRAIN_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
            return None


def post(port: int, path: str, body: bytes):
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    try:
        connection.request("POST", path, body=body, headers={"Content-Type": "application/octet-stream"})
        response = connection.getresponse()
        return response.status, dict(response.getheaders()), response.read()
    finally:
        connection.close()


def get_json(port: int, path: str):
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        connection.request("GET", path)
        return json.loads(connection.getresponse().read())
    finally:
        connection.close()


class ServiceMixed:
    def __init__(self, scale: float = 1.0) -> None:
        self.references = max(int(300_000 * scale), 2 * BODY_ADDRESSES)
        self.servers = []

    def shutdown(self) -> list:
        """Stop any server still running; returns the pids still alive."""
        for server in self.servers:
            if server.process.poll() is None:
                server.stop()
        return [s.process.pid for s in self.servers if Path(f"/proc/{s.process.pid}").exists()]

    def inputs(self, seed: int):
        """Seeded request bodies: the hot set and per-client fresh offsets."""
        addresses = filt.filtered_spec_like_trace("403.gcc", self.references, seed=seed).addresses
        rng = np.random.default_rng([seed, 9])
        span = int(addresses.size) - BODY_ADDRESSES
        wanted = min(HOT_BODIES + CLIENTS * FRESH_PER_CLIENT, span)
        offsets = rng.choice(span, size=wanted, replace=False)
        hot = [addresses[o : o + BODY_ADDRESSES].tobytes() for o in offsets[:HOT_BODIES]]
        fresh = [offsets[HOT_BODIES + client :: CLIENTS] for client in range(CLIENTS)]
        return addresses, hot, fresh

    def start(self, workdir: Path, tag: str, hot, trace_out=None):
        """Start a server and prime the hot set; returns (server, containers)."""
        server = Server(workdir, tag, trace_out)
        self.servers.append(server)
        containers = []
        for body in hot:
            status, headers, payload = post(server.port, "/v1/compress", body)
            if status != 200 or headers.get("X-Atc-Cache") != "miss":
                server.stop()
                raise RuntimeError(f"priming compress answered {status} {headers}")
            containers.append(payload)
        return server, containers

    def load(self, seed: int, port: int, inputs, containers, seconds: float, minimum: int = 0):
        """Run the closed loop for ``seconds``, and on until ``minimum``
        requests completed (at most three times as long); returns the
        request records."""
        addresses, hot, fresh = inputs
        records = [[] for _ in range(CLIENTS)]
        started = now()
        deadline, cutoff = started + seconds, started + 3 * seconds

        def running() -> bool:
            clock = now()
            return clock < deadline or (sum(map(len, records)) < minimum and clock < cutoff)

        def client(index: int) -> None:
            rng = np.random.default_rng([seed, 17, index])
            fresh_offsets = iter(fresh[index])
            while running():
                records[index].append(one_request(rng, fresh_offsets))

        def one_request(rng, fresh_offsets) -> Request:
            draw = rng.random()
            pick = int(rng.integers(len(hot)))
            if draw < 0.60:
                kind, path, body = HIT, "/v1/compress", hot[pick]
            elif draw < 0.75:
                offset = int(next(fresh_offsets))
                kind, path = FRESH, "/v1/compress"
                body = addresses[offset : offset + BODY_ADDRESSES].tobytes()
            else:
                kind, path, body = DECOMPRESS, "/v1/decompress", containers[pick]
            start = now()
            try:
                status, headers, payload = post(port, path, body)
            except Exception as error:  # a failed request, counted and reported
                return Request(kind, now() - start, f"{kind}: {error!r}")
            latency = now() - start
            problem = check(kind, status, headers, payload, hot[pick], containers[pick])
            return Request(kind, latency, problem)

        threads = [threading.Thread(target=client, args=(index,)) for index in range(CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return [request for per_client in records for request in per_client]


def container_bytes(archive: bytes) -> int:
    """Bytes of the container files inside a served tar (not tar padding)."""
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        return sum(member.size for member in tar.getmembers() if member.isfile())


def check(kind, status, headers, payload, hot_body, hot_container) -> str:
    """Empty string when the response is correct, else what is wrong."""
    if status != 200:
        return f"{kind}: HTTP {status}"
    if kind == HIT:
        if headers.get("X-Atc-Cache") != "hit":
            return "repeat compress was not a dedup hit"
        if payload != hot_container:
            return "repeat compress differs from the first response"
    elif kind == FRESH:
        if headers.get("X-Atc-Cache") != "miss":
            return "fresh compress was not a miss"
        if headers.get("X-Atc-Addresses") != str(BODY_ADDRESSES):
            return f"fresh compress coded {headers.get('X-Atc-Addresses')} addresses"
    elif payload != hot_body:
        return "decompress did not return the input body"
    return ""
