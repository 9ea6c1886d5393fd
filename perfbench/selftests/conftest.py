"""Make the benchmark package and the program under test importable.

Appended, not prepended: the repository's own ``tests`` directory must
keep resolving first for ``from tests.conftest import ...``.
"""

import pathlib
import sys

_BENCH = pathlib.Path(__file__).resolve().parents[1]
for path in (_BENCH.parent / "src", _BENCH):
    if str(path) not in sys.path:
        sys.path.append(str(path))
