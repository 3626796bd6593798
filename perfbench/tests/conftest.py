import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
SRC = BENCH.parent / "src"

sys.path[:0] = [str(BENCH), str(SRC)]
# cells run ``python -m sparkbench._runner`` in a child, which needs the sources too
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
