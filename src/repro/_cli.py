"""What every ``python -m repro...`` command does around its ``main``."""

from __future__ import annotations

import os
import signal
import sys
from typing import Callable, NoReturn


def exit_after(main: Callable[[], int]) -> NoReturn:
    """Run ``main()`` and exit with its code.

    If the reader of stdout went away (``... | head``), exit as SIGPIPE
    would have ended the process, 128 + signum, without a traceback,
    whether the write that found the pipe closed was a ``print`` or the
    final flush.
    """
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # stdout now points at /dev/null, so the interpreter's final
        # flush of what is still buffered cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 128 + signal.SIGPIPE
    sys.exit(code)
