"""Pytest bootstrap.

Puts the ``src`` layout on ``sys.path``, so ``pytest`` runs straight
from a fresh checkout; nothing is installed.
"""

import sys
from pathlib import Path

_SRC = Path(__file__).resolve().parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))
