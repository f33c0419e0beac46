"""Rewrite the golden files of tests/test_golden.py from the current code.

    PYTHONPATH=src python tests/golden/regenerate.py

Each case's directory is emptied and filled with what the case writes now.
"""

import shutil
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from test_golden import CASES, GOLDEN_DIR, produce  # noqa: E402


def main() -> None:
    for case in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            files = produce(case, Path(tmp))
        target = GOLDEN_DIR / case
        shutil.rmtree(target, ignore_errors=True)
        target.mkdir(parents=True)
        for name, data in files.items():
            (target / name).write_bytes(data)
        print(f"{case}: {', '.join(files)}")


if __name__ == "__main__":
    main()
