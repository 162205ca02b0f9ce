"""``python -m qmock``: the command-line front end, as the ``qmock`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
