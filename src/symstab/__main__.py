"""`python -m symstab ...`: the same front end as the `symstab` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
