"""Serve an artifact store in its own process for the benchmark.

Usage: ``python3 perfbench/server.py STORE_DIR`` (with the package's
``src`` on ``PYTHONPATH``).  Prints the bound port on one line, then
serves on 127.0.0.1 until standard input closes or SIGTERM arrives.
"""

from __future__ import annotations

import asyncio
import os
import signal
import sys


async def _serve(root: str) -> None:
    from repro.serve.artifacts import ArtifactStore
    from repro.serve.http import ServeServer
    from repro.serve.routes import ServeApp

    server = await ServeServer(ServeApp(ArtifactStore.open(root))).start()
    print(server.address[1], flush=True)
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    loop.add_signal_handler(signal.SIGTERM, stop.set)
    stdin = sys.stdin.fileno()

    def on_stdin() -> None:
        if not os.read(stdin, 4096):
            stop.set()

    loop.add_reader(stdin, on_stdin)
    try:
        await stop.wait()
    finally:
        loop.remove_reader(stdin)
        await server.stop()


if __name__ == "__main__":
    asyncio.run(_serve(sys.argv[1]))
