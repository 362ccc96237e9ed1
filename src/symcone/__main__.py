"""`python -m symcone`: the `symcone` command line."""

import sys

from .cli import main

sys.exit(main())
