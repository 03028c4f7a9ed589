"""Traced `python -m zenopath <argv>`.

Runs `zenopath.cli.main(argv)` with the span recorder installed and writes
the spans as JSON to the path in PERFBENCH_SPANS.  Besides the layer
wrappers of `tracing.Tracer.install`, the stages of `main` are timed by
patching the module attributes it calls: `build_parser` and
`resolve_config` (cli.config), the `DISPATCH` entries (cli.compute) and
`ResultTable.render` (cli.render).  The rest of `main`'s span is its write
(see `tracing.layer_metrics`).  The exit code is `main`'s.
"""

import functools
import json
import os
import sys

from tracing import Tracer


def _staged(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name, "cli"):
            return fn(*args, **kwargs)
    return wrapper


def main(argv: list[str]) -> int:
    tracer = Tracer()
    tracer.active = True
    with tracer.span("cli.import", "cli"):
        import zenopath.cli as cli

    tracer.install()
    cli.build_parser = _staged(tracer, "cli.config", cli.build_parser)
    cli.resolve_config = _staged(tracer, "cli.config", cli.resolve_config)
    for command, fn in cli.DISPATCH.items():
        cli.DISPATCH[command] = _staged(tracer, "cli.compute", fn)
    cli.ResultTable.render = _staged(tracer, "cli.render",
                                     cli.ResultTable.render)
    try:
        with tracer.span("cli.main", "cli"):
            return cli.main(argv)
    finally:
        with open(os.environ["PERFBENCH_SPANS"], "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
