"""``python -m sp4q``: the ``sp4q`` command line."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
