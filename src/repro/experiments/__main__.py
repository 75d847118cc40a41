"""``python -m repro.experiments`` dispatches to the CLI runner."""

import os
import signal
import sys

from repro.experiments.runner import main

if __name__ == "__main__":
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader went away (``... | head``): exit as SIGPIPE would
        # have ended the process, 128 + signum, without a traceback.
        # stdout now points at /dev/null, so the interpreter's final
        # flush of what is still buffered cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 128 + signal.SIGPIPE
    sys.exit(code)
