"""``python -m holderpo``: the command-line interface."""

import sys

from holderpo.cli import main

sys.exit(main())
