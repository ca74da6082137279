"""Child process of the benchmark: runs one operation against src/fanog2.

    python3 bench/launch.py import
        import fanog2.cli and exit (the verify-cold set-up probe)
    python3 bench/launch.py cli [--trace FILE --op N] -- ARGV...
        call fanog2.cli.main(ARGV), as the installed `fanog2` script does
    python3 bench/launch.py kernels --seed N --seconds S [--setup-only] [--trace FILE]
        run seeded kernel batches in this process (see kernels.py)

With --trace, the tracer is installed after the import and the spans and
counts are written as JSON to FILE when the operation ends.
"""

import argparse
import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))


def count_cache_misses(lifting, tracer):
    """Wrap lifting.enumerate_aug_group to count the calls that ran `lifts`."""
    inner = lifting.enumerate_aug_group
    misses = [0]

    def enumerate_aug_group(*args, **kwargs):
        before = tracer.calls["lifting.lifts"]
        try:
            return inner(*args, **kwargs)
        finally:
            if tracer.calls["lifting.lifts"] != before:
                misses[0] += 1

    lifting.enumerate_aug_group = enumerate_aug_group
    return misses


def run_cli(opts):
    argv = opts.argv[1:] if opts.argv[:1] == ["--"] else opts.argv
    if not opts.trace:
        from fanog2.cli import main

        return main(argv)
    import tracer as tracing

    t0 = time.perf_counter()
    import fanog2.cli

    import_s = time.perf_counter() - t0
    tracer = tracing.Tracer(opts.op)
    tracer.install()
    misses = count_cache_misses(sys.modules["fanog2.lifting"], tracer)
    try:
        return fanog2.cli.main(argv)
    finally:
        tracer.uninstall()
        data = {"calls": tracer.calls, "spans": tracer.finish(), "import_s": import_s, "cache_misses": misses[0]}
        with open(opts.trace, "w") as fh:
            json.dump(data, fh)


def main(argv=None):
    parser = argparse.ArgumentParser(prog="launch.py")
    sub = parser.add_subparsers(dest="mode", required=True)
    sub.add_parser("import")
    pc = sub.add_parser("cli")
    pc.add_argument("--trace")
    pc.add_argument("--op", type=int, default=0)
    pc.add_argument("argv", nargs=argparse.REMAINDER)
    pk = sub.add_parser("kernels")
    pk.add_argument("--seed", type=int, required=True)
    pk.add_argument("--seconds", type=float, default=0.0)
    pk.add_argument("--setup-only", action="store_true")
    pk.add_argument("--trace")
    opts = parser.parse_args(argv)
    if opts.mode == "import":
        import fanog2.cli  # noqa: F401

        return 0
    if opts.mode == "cli":
        return run_cli(opts)
    import kernels

    return kernels.worker(opts)


if __name__ == "__main__":
    sys.exit(main())
