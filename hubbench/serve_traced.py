"""``gitcite serve`` with layer spans and a trace endpoint, for traced benchmark runs.

Usage::

    PYTHONPATH=src python3 hubbench/serve_traced.py serve -C <dir> --port 0 ...

The arguments are passed to the ``gitcite`` command line unchanged.  Before
it runs, every layer in :data:`spans.SERVER_LAYERS` is wrapped in a span, and
``GET /__bench/trace`` answers with the span aggregates and the process CPU
time (``?reset=1`` also clears the aggregates).
"""

from __future__ import annotations

import sys

from spans import Tracer, install_server

TRACE_ROUTE = "/__bench/trace"


def main(argv: list[str]) -> int:
    tracer = Tracer()
    install_server(tracer)

    from repro.cli.main import main as gitcite
    from repro.hub.api import ApiResponse
    from repro.hub.lifecycle import GuardedApi

    guarded = GuardedApi.request

    def request(self, method, url, token=None, payload=None):
        if url.startswith(TRACE_ROUTE):
            return ApiResponse(status=200, json=tracer.snapshot(reset="reset=1" in url))
        return guarded(self, method, url, token=token, payload=payload)

    GuardedApi.request = request
    return gitcite(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
