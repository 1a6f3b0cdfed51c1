"""Due-time accounting of the open-loop generator."""

import asyncio

import pytest

from loadgen import OpenLoop, Request

#: Timer slack allowed on a loaded machine, in seconds.
SLACK = 0.010


class SlowConnection:
    """Serves each request in ``service`` seconds; request number
    ``stall_at`` takes ``stall`` seconds longer."""

    def __init__(self, service, stall_at=None, stall=0.0):
        self._service, self._stall_at, self._stall = service, stall_at, stall
        self.served = 0

    async def request(self, target, headers):
        cost = self._service
        if self.served == self._stall_at:
            cost += self._stall
        self.served += 1
        await asyncio.sleep(cost)
        return 200, {"etag": '"e"'}, b"{}"


def drive(connection, n=5, spacing=0.050):
    schedule = [Request(i * spacing, f"/r{i}") for i in range(n)]
    return asyncio.run(OpenLoop().run(schedule, [connection]))


def test_latency_runs_from_the_due_time():
    done = drive(SlowConnection(service=0.005))
    for request in done:
        assert request.latency == pytest.approx(0.005, abs=SLACK)
        assert request.released - request.due < SLACK


def test_a_stalled_server_adds_wait_to_later_requests():
    done = drive(SlowConnection(service=0.005, stall_at=1, stall=0.120))
    origin = done[0].due
    # Request 1 (due at +50 ms) takes 125 ms: done near +175 ms.
    assert done[1].done - origin == pytest.approx(0.175, abs=SLACK)
    # Request 2 was due at +100 ms but waited for the only connection
    # until +175 ms: its latency counts that wait, not just its 5 ms.
    assert done[2].sent - done[2].released == pytest.approx(0.075, abs=SLACK)
    assert done[2].latency == pytest.approx(0.080, abs=SLACK)
    # Request 3 (due +150 ms) is still behind the backlog.
    assert done[3].latency == pytest.approx(0.035, abs=SLACK)
    # By request 4 (due +200 ms) the backlog has drained.
    assert done[4].latency == pytest.approx(0.005, abs=SLACK)
    # The generator itself released every request on time.
    assert all(r.released - r.due < SLACK for r in done)


def test_a_304_to_an_unconditional_request_is_an_error():
    class NotModified:
        async def request(self, target, headers):
            return 304, {"etag": '"e"'}, b""

    done = asyncio.run(OpenLoop().run([Request(0.0, "/a")], [NotModified()]))
    assert done[0].error


def test_bodies_are_checked_after_the_schedule():
    class TwoBodies:
        def __init__(self):
            self.served = 0

        async def request(self, target, headers):
            self.served += 1
            return 200, {"etag": '"e"'}, b"%d" % self.served

    openloop = OpenLoop()
    schedule = [Request(0.0, "/a"), Request(0.001, "/b")]
    done = asyncio.run(openloop.run(schedule, [TwoBodies()]))
    assert not done[0].error
    assert done[1].error == "one ETag, two bodies"
    assert openloop.etags == {"/a": "e", "/b": "e"}
