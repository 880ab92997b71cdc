"""``python -m mvfrac``: the command line of mvfrac.cli."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
