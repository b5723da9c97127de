"""``python -m sparse_lab``: the command-line interface of ``sparse_lab.cli``."""

from .cli import main

if __name__ == "__main__":
    main()
