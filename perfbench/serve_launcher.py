"""Start ``repro serve`` with its default config, optionally traced.

Usage: ``python3 perfbench/serve_launcher.py [--spans FILE] -- <repro args>``

With ``--spans`` the layer wrappers of :mod:`perfbench.layers` are
installed before the server starts, and the recorded spans are written
to FILE after the server has drained (SIGTERM drains it). Without it
the server runs untouched.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--spans", default=None)
    parser.add_argument("repro_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    repro_args = args.repro_args
    if repro_args[:1] == ["--"]:
        repro_args = repro_args[1:]
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))
    from repro import cli

    if args.spans is None:
        return cli.main(repro_args)

    from perfbench import layers
    from perfbench.tracing import Tracer, install

    tracer = Tracer()
    restore = install(layers.patches(tracer, service=True))
    try:
        return cli.main(repro_args)
    finally:
        restore()
        tracer.dump(args.spans)


if __name__ == "__main__":
    sys.exit(main())
