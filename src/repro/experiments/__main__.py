"""``python -m repro.experiments`` dispatches to the CLI runner."""

from repro._cli import exit_after
from repro.experiments.runner import main

if __name__ == "__main__":
    exit_after(main)
