"""Entry point for both ``python3 benchmarks/harness`` (the form
``BENCHMARK.json`` names) and ``python -m benchmarks.harness``.

Run as a directory, Python puts only ``benchmarks/harness`` on the path,
so the repository root (for the ``benchmarks`` package) and ``src`` (for
``repro``) are added here before anything of either is imported.
"""

import pathlib
import sys

_ROOT = pathlib.Path(__file__).resolve().parents[2]
if not (_ROOT / "src" / "repro").is_dir():
    sys.exit(f"benchmarks/harness: no program to measure under {_ROOT / 'src'}")
for _path in (_ROOT, _ROOT / "src"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

from benchmarks.harness.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
