"""`python -m stochopt ...` runs the `optimize` command line."""

import sys

from .cli import main

sys.exit(main())
