"""``python -m photonlab``: the same command line as the ``photonlab`` script."""

import sys

from .cli import main

sys.exit(main())
