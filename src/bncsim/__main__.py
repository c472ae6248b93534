"""``python -m bncsim``: the ``bncsim`` command without an install."""

import sys

from .cli import main

sys.exit(main())
