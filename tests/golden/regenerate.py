"""Rewrite the golden files of tests/test_golden.py from the current code.

    PYTHONPATH=src python tests/golden/regenerate.py

Each case's directory is emptied and filled with what the case writes now.
For every file whose bytes changed it prints what moved; for a CSV, the
number of moved cells, the largest |delta| among cells below FLOOR_DB
(240 dB) and each moved cell at or above it, on the float64 floor.
"""

import csv
import io
import shutil
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from test_golden import CASES, FLOOR_DB, GOLDEN_DIR, produce  # noqa: E402


def _number(text: str):
    try:
        return float(text)
    except ValueError:
        return None


def csv_delta(old: bytes, new: bytes) -> str:
    """Moved cells, the largest |delta| below FLOOR_DB and the moved cells at or above it."""
    old_rows = list(csv.reader(io.StringIO(old.decode())))
    new_rows = list(csv.reader(io.StringIO(new.decode())))
    if [len(r) for r in old_rows] != [len(r) for r in new_rows] or old_rows[:1] != new_rows[:1]:
        return "rows or columns changed"
    header = new_rows[0]
    moved, largest, floor = 0, 0.0, []
    for line, (old_row, new_row) in enumerate(zip(old_rows[1:], new_rows[1:]), start=2):
        for column, a, b in zip(header, old_row, new_row):
            if a == b:
                continue
            moved += 1
            x, y = _number(a), _number(b)
            if x is None or y is None:
                continue
            if x >= FLOOR_DB or y >= FLOOR_DB:
                floor.append(f"line {line} {column} {a} -> {b}")
            else:
                largest = max(largest, abs(x - y))
    return (
        f"{moved} cells moved, largest |delta| of cells under {FLOOR_DB:g}: {largest:.3g}, "
        f"cells at or above it: {'; '.join(floor) or 'none'}"
    )


def main() -> None:
    for case in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            files = produce(case, Path(tmp))
        target = GOLDEN_DIR / case
        old = {p.name: p.read_bytes() for p in target.iterdir()} if target.is_dir() else {}
        shutil.rmtree(target, ignore_errors=True)
        target.mkdir(parents=True)
        for name, data in files.items():
            (target / name).write_bytes(data)
        print(f"{case}: {', '.join(files)}")
        for name, data in files.items():
            if name not in old:
                print(f"  {name}: new")
            elif old[name] != data:
                delta = csv_delta(old[name], data) if name.endswith(".csv") else "bytes changed"
                print(f"  {name}: {delta}")
        for name in sorted(set(old) - set(files)):
            print(f"  {name}: removed")


if __name__ == "__main__":
    main()
