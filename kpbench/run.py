"""Benchmark entry point.

    python3 kpbench/run.py --workload {build,read,write} --seed N \
        --seconds S --trace {0,1}

Run from the repository root.  The package under ``src/`` runs straight
from the tree (there is no build step).  The last stdout line is the JSON
result; the exit code is 1 when any answer was wrong, 2 when the
repository sources are missing.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

if __name__ == "__main__":
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from kpbench.harness import main

    sys.exit(main())
