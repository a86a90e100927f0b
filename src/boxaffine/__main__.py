"""``python -m boxaffine``: the ``boxaffine`` command without an install."""

import sys

from .cli import main

sys.exit(main())
