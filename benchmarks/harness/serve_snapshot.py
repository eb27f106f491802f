#!/usr/bin/env python3
"""Harness-owned launcher: serve one snapshot over TCP until told to stop.

``serve_snapshot.py DIRECTORY`` restores an in-process ``QueryService`` from
the snapshot, starts a ``ClosureServer`` on an ephemeral port, prints
``PORT <n>`` and serves until SIGTERM.  The admission rate is raised so far
that the per-client token bucket never fires: the harness measures the
serving path, and any rejection it sees is counted as a failure.

The two vCPUs of the box do not slow down together, the server is pinned to
one and the load generator to the other, and what a client waits for is this
process.  So the launcher runs the harness's calibration kernel
(``measure.py``) on the server's own event loop, one ~0.4 ms sample every
50 ms (under 1 % of the loop's time), and prints the samples as one
``CALIBRATION <json>`` line when it is told to stop; the client brings the
latencies it saw to reference speed with them.
"""

from __future__ import annotations

import asyncio
import json
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

from repro.service.server import QueryService  # noqa: E402
from repro.serving import AdmissionConfig, ClosureServer, ServingConfig  # noqa: E402

import measure  # noqa: E402

UNLIMITED = 1e9
CALIBRATE_EVERY_SECONDS = 0.05


def main(argv) -> int:
    if len(argv) != 2:
        print("usage: serve_snapshot.py DIRECTORY", file=sys.stderr)
        return 2
    # placement=None: serve in-process whatever pool the snapshot was taken from.
    service = QueryService.from_snapshot(argv[1], placement=None)
    config = ServingConfig(
        port=0, admission=AdmissionConfig(client_rate=UNLIMITED, client_burst=UNLIMITED)
    )

    calibrator = measure.Calibrator()

    async def calibrate() -> None:
        while True:
            await asyncio.sleep(CALIBRATE_EVERY_SECONDS)
            calibrator.sample()

    async def serve() -> None:
        server = ClosureServer(service, config)
        _, port = await server.start()
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(signum, stop.set)
        print(f"PORT {port}", flush=True)
        sampling = asyncio.ensure_future(calibrate())
        await stop.wait()
        sampling.cancel()
        await server.aclose()
        # perf_counter is CLOCK_MONOTONIC: the client's timestamps are on the same clock.
        print("CALIBRATION", json.dumps([calibrator.times, calibrator.durations]), flush=True)

    try:
        asyncio.run(serve())
    finally:
        service.close()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
