"""One benchmark for the whole pipeline (see ``bench/README.md``).

The benchmark measures the program in ``src/`` from outside; importing it
makes that program importable, so ``python3 -m bench`` needs no
``PYTHONPATH``.
"""

import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
_SRC = str(ROOT / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)
