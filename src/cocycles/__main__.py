"""`python -m cocycles`: the command line tool without an installed script."""

from .cli import entry

if __name__ == "__main__":
    entry()
