"""Run ``repro serve`` with the benchmark's span wrappers installed.

Usage::

    python3 perfbench/serve_launcher.py TRACE_OUT serve --from-index ...

Everything after ``TRACE_OUT`` is passed to ``repro.cli.main``
unchanged. The wrappers go in before the CLI imports the server, so
every request the server handles is traced; when the server has
drained (SIGTERM) the span totals are written to ``TRACE_OUT``.
"""

from __future__ import annotations

import sys
import time

from tracer import ENGINE_LAYERS, Tracer, install

SERVE_LAYERS: list[tuple[str, list[str]]] = [
    ("serve.handle", ["repro.serve.app:ReproServer._route"]),
    ("serve.write", ["repro.serve.app:_write_response"]),
    ("serve.dispatch", [
        "repro.serve.app:ReproServer._run_batched",
        "repro.serve.app:ReproServer._run_direct",
    ]),
    ("serve.protocol", [
        "repro.serve.protocol:parse_query_request",
        "repro.serve.protocol:query_response",
    ]),
    ("query.parse", [
        "repro.query.parser:parse_query",
        "repro.serve.app:parse_query",
    ]),
    ("cache.probe", ["repro.cache.store:QueryCache.probe"]),
    ("cache.fill", ["repro.cache.store:QueryCache.fill"]),
    ("cache.canonicalize", ["repro.cache.store:canonicalize"]),
    ("parallel.warmup", ["repro.parallel.scheduler:QueryScheduler.warmup"]),
    ("parallel.run_batch", [
        "repro.parallel.scheduler:QueryScheduler.run_batch",
    ]),
    ("parallel.classify", [
        "repro.parallel.scheduler:QueryScheduler.classify",
    ]),
    ("store.load", ["repro.store.io:load", "repro.store:load"]),
] + ENGINE_LAYERS


def serve_hooks(tracer: Tracer, caches: list) -> dict[str, tuple]:
    """Counters taken at the wrapped calls' arguments and results."""

    def on_route(response, _duration, args) -> None:
        if args[2].partition("?")[0] == "/query":
            tracer.count("serve.requests")
            if response.code == 429:
                tracer.count("serve.shed")

    def on_batched(args) -> None:
        now = time.monotonic()
        for item in args[1]:
            tracer.count("serve.queue_wait_s", now - item.admitted_at)

    def on_direct(args) -> None:
        tracer.count("serve.queue_wait_s", time.monotonic() - args[1].admitted_at)

    def on_probe_call(args) -> None:
        if not any(cache is args[0] for cache in caches):
            caches.append(args[0])

    def on_probe(result, _duration, _args) -> None:
        tracer.count("cache.misses" if result is None else "cache.hits")

    def on_fill(stored, _duration, _args) -> None:
        if stored:
            tracer.count("cache.fills")

    def on_classify(plan, _duration, _args) -> None:
        tracer.count(f"parallel.{plan.route}_queries")

    def on_run_batch(results, duration, args) -> None:
        # Time not explained by evaluation: the batch could at best
        # take its longest query, or its total engine time spread over
        # every worker, whichever is larger.
        elapsed = [float(r.elapsed) for r in results]
        if elapsed:
            workers = max(1, int(args[0].workers))
            ideal = max(max(elapsed), sum(elapsed) / workers)
            tracer.count("parallel.overhead_s", duration - ideal)

    return {
        "repro.serve.app:ReproServer._route": (None, on_route),
        "repro.serve.app:ReproServer._run_batched": (on_batched, None),
        "repro.serve.app:ReproServer._run_direct": (on_direct, None),
        "repro.cache.store:QueryCache.probe": (on_probe_call, on_probe),
        "repro.cache.store:QueryCache.fill": (None, on_fill),
        "repro.parallel.scheduler:QueryScheduler.classify": (None, on_classify),
        "repro.parallel.scheduler:QueryScheduler.run_batch": (None, on_run_batch),
    }


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    out, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    caches: list = []
    install(tracer, SERVE_LAYERS, serve_hooks(tracer, caches))
    from repro.cli import main as cli_main

    code = cli_main(cli_args)
    tracer.enabled = False
    tracer.write(out, extra={"cache": [cache.stats() for cache in caches]})
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
