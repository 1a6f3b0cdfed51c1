"""An open-loop HTTP load generator for the ``serve-dashboard`` workload.

Requests are due on a Poisson schedule drawn from the workload seed,
whatever the server is doing: independent dashboard users, not callers
that wait for each other.  One process, one event loop, and at most
``nproc`` keep-alive connections; a due request waits in a queue until
a connection is free.  Each request records four clock readings:

- ``due``: when the schedule says it should be sent;
- ``released``: when the generator queued it (``released - due`` is the
  generator's own lateness, ``loadgen.late_*``);
- ``sent``: when a connection took it (``sent - released`` is the wait
  for a free connection, the backlog, ``serve.conn_wait_*``);
- ``done``: when the response was read.

Latency is ``done - due``, so a stalled server is charged for every
later request it delays, not just the one it was serving.  Response
bodies are hashed and checked after the schedule ends, so that work is
outside every request's clock readings.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import random
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, \
    Sequence, Tuple

__all__ = ["Connection", "OpenLoop", "Request", "dashboard_schedule",
           "parse_openmetrics", "verify_bodies"]

_EVENT_LIMIT = 25


@dataclass
class Request:
    """One scheduled request and what happened to it."""

    due: float
    target: str
    revalidate: bool = False
    released: float = 0.0
    sent: float = 0.0
    done: float = 0.0
    status: int = 0
    etag: str = ""
    error: str = ""

    @property
    def latency(self) -> float:
        return self.done - self.due


class Connection:
    """One keep-alive HTTP/1.1 connection.

    This is a copy of the package's own ``repro.serve.loadgen`` client,
    not an import of it: the load generator is the measuring instrument,
    so it must stay the same when a change to the package's client would
    otherwise move the server's numbers.
    """

    def __init__(self, host: str, port: int):
        self._host, self._port = host, port
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    async def open(self) -> None:
        self._reader, self._writer = await asyncio.open_connection(
            self._host, self._port)

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
            self._writer = None

    async def request(self, target: str, headers: Mapping[str, str]
                      ) -> Tuple[int, Dict[str, str], bytes]:
        assert self._reader is not None and self._writer is not None
        lines = [f"GET {target} HTTP/1.1", f"Host: {self._host}"]
        lines.extend(f"{name}: {value}" for name, value in headers.items())
        self._writer.write(
            ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1"))
        status_line = await self._reader.readline()
        if not status_line:
            raise ConnectionError("server closed the connection")
        status = int(status_line.split(b" ", 2)[1])
        response_headers: Dict[str, str] = {}
        while True:
            line = await self._reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            response_headers[name.strip().lower()] = value.strip()
        length = int(response_headers.get("content-length", "0"))
        body = await self._reader.readexactly(length) if length else b""
        return status, response_headers, body


def dashboard_schedule(rng: random.Random, index: Mapping[str, Any],
                       rate: float, duration: float) -> List[Request]:
    """The ``dashboard`` mix, due on a Poisson schedule at ``rate``/s.

    Half the requests pan signal tiles, a quarter open a country's (or,
    one time in five, the global) event page, and a quarter revalidate
    a URL fetched earlier with ``If-None-Match`` (the 304 path).
    ``index`` is the store's ``/v1/tiles`` body.
    """
    countries = list(index["countries"])
    kinds = list(index["kinds"])
    zooms = list(index["zooms"])
    base = int(index["zoom_base"])
    planned: List[Request] = []
    due = 0.0
    while True:
        due += rng.expovariate(rate)
        if due >= duration:
            return planned
        roll = rng.random()
        if roll < 0.50:
            zoom = rng.choice(zooms)
            target = (f"/v1/tiles/{rng.choice(countries)}/"
                      f"{rng.choice(kinds)}/{zoom}/"
                      f"{rng.randrange(base ** zoom)}")
        elif roll < 0.75:
            target = f"/v1/events?limit={_EVENT_LIMIT}"
            if rng.random() >= 0.2:
                target += f"&country={rng.choice(countries)}"
        elif planned:
            target = rng.choice(planned).target
            planned.append(Request(due, target, revalidate=True))
            continue
        else:
            target = "/v1/summary"
        planned.append(Request(due, target))


class OpenLoop:
    """Drives schedules over the connections each run is given.

    ``etags`` remembers the last ETag per URL across runs, so a
    revalidation carries ``If-None-Match`` once the URL has been
    fetched; ``bodies`` keeps the first 200 body per URL and
    ``digests`` its hash, for :func:`verify_bodies`.  Bodies wait in
    ``_unchecked`` until the schedule has ended.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self.etags: Dict[str, str] = {}
        self.bodies: Dict[str, Tuple[str, bytes]] = {}
        self.digests: Dict[str, str] = {}
        self._unchecked: List[Tuple[Request, bytes]] = []

    async def run(self, schedule: Sequence[Request],
                  connections: Sequence[Any]) -> List[Request]:
        """Send ``schedule`` (due times relative to now) over
        ``connections``; return it with every clock reading filled in."""
        clock = self._clock
        queue: asyncio.Queue = asyncio.Queue()
        origin = clock() + 0.005
        for request in schedule:
            request.due += origin

        async def release() -> None:
            for request in schedule:
                # Sleeping (not spinning) leaves the CPU to the server;
                # the loop's timer has millisecond granularity, and any
                # slip shows as released - due.
                delay = request.due - clock()
                if delay > 0:
                    await asyncio.sleep(delay)
                request.released = clock()
                queue.put_nowait(request)
            for _ in connections:
                queue.put_nowait(None)

        async def drive(connection: Any) -> None:
            while True:
                request = await queue.get()
                if request is None:
                    return
                await self._send(connection, request)

        await asyncio.gather(release(),
                             *(drive(c) for c in connections))
        for request, body in self._unchecked:
            self._check_body(request, body)
        self._unchecked.clear()
        return list(schedule)

    async def _send(self, connection: Any, request: Request) -> None:
        headers = {}
        known = self.etags.get(request.target)
        if request.revalidate and known:
            headers["If-None-Match"] = f'"{known}"'
        request.sent = self._clock()
        try:
            status, response_headers, body = await connection.request(
                request.target, headers)
        except (OSError, asyncio.IncompleteReadError, ValueError,
                IndexError) as exc:
            request.done = self._clock()
            request.error = f"{type(exc).__name__}: {exc}"
            return
        request.done = self._clock()
        request.status = status
        request.etag = response_headers.get("etag", "").strip('"')
        if status == 304 and not headers:
            request.error = "304 to an unconditional request"
        elif status == 304 and request.etag != known:
            request.error = "304 with a different ETag"
        elif status == 200:
            self.etags[request.target] = request.etag
            self._unchecked.append((request, body))
        elif status != 304:
            request.error = f"status {status}"

    def _check_body(self, request: Request, body: bytes) -> None:
        digest = hashlib.blake2b(body, digest_size=16).hexdigest()
        seen = self.digests.get(request.etag)
        if seen is None:
            self.digests[request.etag] = digest
            self.bodies.setdefault(request.target, (request.etag, body))
        elif seen != digest:
            request.error = "one ETag, two bodies"


def verify_bodies(bodies: Mapping[str, Tuple[str, bytes]],
                  store: Any) -> List[str]:
    """Check every distinct 200 body against the artifact store.

    Artifact routes must return a body whose content address
    (:func:`repro.exec.cachestore.fingerprint`) is its ETag.  An event
    page's ETag addresses the page (the artifact's address plus the
    query), so its body must equal that slice of the stored feed and
    its ETag the route's page address.  Returns one message per
    mismatch.
    """
    from urllib.parse import parse_qs, urlsplit

    from repro.exec.cachestore import fingerprint

    problems: List[str] = []
    for target, (etag, body) in sorted(bodies.items()):
        split = urlsplit(target)
        if split.path != "/v1/events":
            if fingerprint(body.decode("utf-8")) != etag:
                problems.append(f"{target}: body does not hash to its ETag")
            continue
        query = parse_qs(split.query)
        country = query.get("country", [None])[-1]
        limit = int(query["limit"][-1])
        resource = (f"events/country/{country.upper()}" if country
                    else "events/all")
        records = store.read_json(resource)["records"]
        expected = fingerprint(store.etag(resource), country, None, None,
                               0, limit)
        page = json.loads(body)
        if etag != expected or page["events"] != records[:limit] \
                or page["total"] != len(records):
            problems.append(f"{target}: page does not match the store")
    return problems


def parse_openmetrics(text: str) -> Dict[str, float]:
    """``{"name{labels}": value}`` for every sample line."""
    samples: Dict[str, float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        key, _, value = line.rpartition(" ")
        samples[key] = float(value)
    return samples
