"""Memory measurements for the memory tests and the CI memory gates.

:func:`traced_peak` gives what a call allocated at its ``tracemalloc``
peak; the tier-1 memory tests bound it.

Run as a script, it measures one CLI run in a process of its own::

    python tests/memory.py [--preload MODULE] [--max MIB] -- ARGV...

It imports every ``postsamp`` submodule and each ``--preload`` module, so
that their imports do not count (the CLI imports a command's modules only
when it runs it), runs ``postsamp ARGV...`` with the CLI's own output
sent to stderr, and prints how far the process's max RSS grew over the
imports, in MiB (Linux reports ``ru_maxrss`` in KiB).  It exits 1 if the
CLI run fails or the growth exceeds ``--max``.
"""

import argparse
import contextlib
import importlib
import pkgutil
import sys
import tracemalloc


def traced_peak(call):
    """``call()``'s result, and the bytes it allocated at its traced peak above
    what it started with."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = call()
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description="Max RSS growth of one postsamp CLI run, in MiB.")
    parser.add_argument("--preload", action="append", default=[], metavar="MODULE",
                        help="import MODULE before the baseline is read")
    parser.add_argument("--max", type=float, metavar="MIB", help="fail if the growth exceeds MIB")
    parser.add_argument("argv", nargs="+", help="the CLI arguments, after --")
    args = parser.parse_args(argv)

    import resource

    import postsamp

    submodules = [f"postsamp.{m.name}" for m in pkgutil.iter_modules(postsamp.__path__)]
    for name in submodules + args.preload:
        importlib.import_module(name)
    cli = sys.modules["postsamp.cli"]
    base = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with contextlib.redirect_stdout(sys.stderr):
        code = cli.main(args.argv)
    if code != 0:
        sys.exit(f"postsamp {args.argv[0]} exited {code}")
    grew = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - base) / 1024
    print(grew)
    if args.max is not None and grew > args.max:
        sys.exit(f"max RSS grew {grew:.1f} MiB, more than {args.max:g}")


if __name__ == "__main__":
    main()
