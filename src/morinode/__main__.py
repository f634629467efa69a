"""``python -m morinode``: the command-line interface of ``morinode.cli``."""
from .cli import main

if __name__ == "__main__":
    main()
