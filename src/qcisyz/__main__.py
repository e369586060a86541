"""`python -m qcisyz`: the command line of `qcisyz.cli`."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
