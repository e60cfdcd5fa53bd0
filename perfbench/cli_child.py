"""Run one mechlift command with spans, for the traced cli-cold round.

Usage: python cli_child.py SNAPSHOT_JSON COMMAND [ARGS...]

Installs the span wrappers, runs ``mechlift.cli.main`` on the
arguments, writes the span aggregates to SNAPSHOT_JSON and exits with
the command's exit code.
"""

import sys

import tracing


def main():
    snapshot, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    tracing.install(tracer)
    import mechlift.cli

    tracer.enabled = True
    with tracer.op("cli " + " ".join(argv)):
        code = mechlift.cli.main(argv)
    tracer.enabled = False
    tracer.dump(snapshot)
    return code


if __name__ == "__main__":
    sys.exit(main())
