"""``python -m repro.experiments`` dispatches to the CLI runner."""

from repro.experiments.runner import cli

if __name__ == "__main__":
    cli()
