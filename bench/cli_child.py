"""Run one qitools CLI command with span recording (traced cli-batch calls).

Usage: ``python cli_child.py SPANS_FILE ARG...`` with ``src`` on PYTHONPATH.
Times ``import qitools.cli``, records spans around ``qitools.cli.run(ARGS)``,
writes them to SPANS_FILE and exits with the command's exit code.  stdout
and stderr are exactly those of ``python -m qitools.cli ARG...``.
"""

import sys
import time

if __name__ == "__main__":
    t0 = time.perf_counter()
    import qitools.cli

    import_s = time.perf_counter() - t0
    from spans import SpanRecorder

    recorder = SpanRecorder()
    recorder.install()
    try:
        code = qitools.cli.run(sys.argv[2:])
    finally:
        recorder.uninstall()
        sys.stdout.flush()
        recorder.save(sys.argv[1], extra={"import_s": import_s})
    sys.exit(code)
