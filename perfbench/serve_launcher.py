"""Traced ``archline serve``: wrap the serving layers, then run the CLI.

    python perfbench/serve_launcher.py OUT.json [serve arguments ...]

Runs ``archline serve`` in this process with spans around the protocol,
HTTP-encoding and engine functions the server calls, and with batcher
queue-wait accounting (submit to dispatch, per request).  On SIGINT the
server shuts down as usual and the per-layer figures are written to
``OUT.json``.
"""

from __future__ import annotations

import json
import sys
import time

from layers import install
from tracer import Tracer


def main(argv: list[str]) -> int:
    out_path, serve_args = argv[0], argv[1:]
    import repro.cli
    from repro.serve.batcher import Batcher

    tracer = Tracer()
    install(tracer, "serve")
    submitted: dict[int, float] = {}
    submit, execute = Batcher.submit, Batcher._execute

    async def timed_submit(self, engine, kernel):
        submitted[id(kernel)] = time.perf_counter()
        return await submit(self, engine, kernel)

    def timed_execute(self, batch):
        now = time.perf_counter()
        for item in batch:
            tracer.add("serve.batcher.queue_wait_s", now - submitted.pop(id(item.kernel), now))
        return execute(self, batch)

    Batcher.submit, Batcher._execute = timed_submit, timed_execute
    started = time.perf_counter()
    try:
        code = repro.cli.main(["serve", *serve_args])
    finally:
        Batcher.submit, Batcher._execute = submit, execute
        tracer.restore()
    wall = time.perf_counter() - started
    with open(out_path, "w") as f:
        json.dump({**tracer.layer_metrics(wall), "trace.wall_s": wall}, f)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
