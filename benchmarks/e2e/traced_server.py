"""``python -m repro.server`` with the benchmark's span wrappers installed.

The traced ``served_push`` run starts the server through this script:
it installs the same :data:`tracer.LAYER_BOUNDARIES` wrappers the
in-process workloads use, hands the remaining arguments to
``repro.server.__main__.main`` and, once SIGTERM has shut the server
down gracefully, dumps the spans for the load generator to read.
"""

from __future__ import annotations

import argparse
import sys

from tracer import Tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--spans-out", required=True,
                        help="where to dump the span list on exit")
    args, server_args = parser.parse_known_args(argv)
    tracer = Tracer().install()
    from repro.server.__main__ import main as serve
    try:
        return serve(server_args)
    finally:
        tracer.dump(args.spans_out)


if __name__ == "__main__":
    sys.exit(main())
