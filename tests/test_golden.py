"""Golden outputs: the files every CLI subcommand writes, compared byte for byte.

Each case runs one subcommand at a small size and compares every file it
writes with the copy under ``tests/golden/<case>/``.  A change that alters
output on purpose regenerates the copies with

    PYTHONPATH=src python tests/golden/regenerate.py

and the diff shows which numbers moved.

Every case that solves is also checked against the same run on the
fine-grid reference solve.  An SNR cell, or an average of SNR cells, agrees
under the benchmark's output rule: to ``SNR_TOL_DB``, or both values sit at
or above ``FLOOR_DB``, on the float64 floor, where rounding alone moves a
cell by whole dB.  A PSNR cell agrees to ``PSNR_TOL_DB``; every other cell,
and every image, is equal.
"""

import contextlib
import csv
import io
from pathlib import Path

import pytest

from fine_reference import fine_cosine_solve, fine_traces
from interpcomp import cli, imagebench
from interpcomp.cli import main
from interpcomp.imagebench import synthetic_scene, write_pgm

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
SNR_TOL_DB = 1e-3
PSNR_TOL_DB = 1e-4
FLOOR_DB = 240.0
# column -> tolerance of the cells checked against the fine-grid reference
TOLERANCE_DB = {
    "mean_snr_db": SNR_TOL_DB,
    "db_per_iteration": SNR_TOL_DB,
    "psnr_db": PSNR_TOL_DB,
}

SMALL_1D = ["--trials", "3", "--n-coarse", "32", "--seed", "5"]
SMALL_2D = ["--dims", "2", "--trials", "2", "--n-coarse", "8", "--ticks", "4", "--seed", "5"]

# case -> CLI arguments; "{out}" is the case's output directory and
# "{scene}" a 64x64 ASCII PGM of synthetic_scene(seed=2).  A case without
# --out or --out-dir writes its standard output to "{out}/stdout.csv".
CASES = {
    "convergence_1d": [
        "convergence", *SMALL_1D, "--methods", "iterative:4,hybrid:4:1,hybrid:4:2",
        "--out", "{out}/convergence.csv",
    ],
    "convergence_2d": [
        "convergence", *SMALL_2D, "--methods", "iterative:3,hybrid:3:1,hybrid:3:2",
        "--out", "{out}/convergence.csv",
    ],
    "lambda_sweep": [
        "convergence", *SMALL_1D, "--methods", "hybrid:4:1", "--lambda", "0.5,1.0,1.5",
        "--out", "{out}/lambda_sweep.csv",
    ],
    "noise_1d": [
        "convergence", *SMALL_1D, "--kind", "li", "--methods", "iterative:4,hybrid:4:1,hybrid:4:2",
        "--noise-power-db=-20", "--out", "{out}/noise.csv",
    ],
    "noise_2d": [
        "convergence", *SMALL_2D, "--methods", "iterative:3,hybrid:3:1", "--noise-power-db=-20",
        "--out", "{out}/noise.csv",
    ],
    "rate": [
        "convergence", *SMALL_1D, "--methods", "hybrid:4:1", "--k-rate", "1,2",
        "--out", "{out}/rate.csv",
    ],
    "analyze_sh1": ["analyze", "--kind", "sh", "--methods", "hybrid:10:1", "--csv"],
    "analyze_li0": [
        "analyze", "--kind", "li", "--methods", "iterative:10", "--lambda", "1.2", "--csv",
    ],
    "image": ["image", "{scene}", "--out-dir", "{out}"],
    "image_accelerate": [
        "image", "{scene}", "--methods", "chebyshev:3,chebyshev:3:1",
        "--frame-a", "0.9", "--frame-b", "1.1", "--out-dir", "{out}",
    ],
}


def produce(case: str, workdir: Path) -> dict:
    """Run one case in ``workdir``; returns {file name: bytes} of what it wrote."""
    out = workdir / "out"
    out.mkdir()
    scene = workdir / "scene.pgm"
    write_pgm(synthetic_scene(64, 64, seed=2), scene, ascii_format=True)
    argv = [a.format(out=out, scene=scene) for a in CASES[case]]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(argv)
    if code != 0:
        raise RuntimeError(f"interpcomp {' '.join(argv)} exited with {code}")
    if not any(a in ("--out", "--out-dir") for a in argv):
        (out / "stdout.csv").write_text(stdout.getvalue())
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


@pytest.mark.parametrize("case", list(CASES))
def test_output_bytes_match_golden(case, tmp_path):
    got = produce(case, tmp_path)
    golden = {p.name: p.read_bytes() for p in sorted((GOLDEN_DIR / case).iterdir())}
    assert sorted(got) == sorted(golden)
    changed = [name for name in golden if got[name] != golden[name]]
    assert changed == [], f"{case}: output differs from tests/golden/{case}/ in {changed}"


def read_table(data: bytes) -> list:
    return list(csv.DictReader(io.StringIO(data.decode())))


@pytest.mark.parametrize("case", [c for c in CASES if not c.startswith("analyze")])
def test_snr_cells_match_fine_reference(case, tmp_path, monkeypatch):
    (tmp_path / "band").mkdir()
    (tmp_path / "fine").mkdir()
    got = produce(case, tmp_path / "band")
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(cli, "_traces", counted("_traces", fine_traces))
    monkeypatch.setattr(imagebench, "_cosine_solve", counted("_cosine_solve", fine_cosine_solve))
    want = produce(case, tmp_path / "fine")
    # a patch of a name the program no longer calls would check nothing
    assert calls and set(calls) == {"_cosine_solve" if case.startswith("image") else "_traces"}
    assert sorted(got) == sorted(want)
    for name in want:
        if not name.endswith(".csv"):
            assert got[name] == want[name], name
            continue
        got_rows, want_rows = read_table(got[name]), read_table(want[name])
        assert len(got_rows) == len(want_rows) > 0
        for g, w in zip(got_rows, want_rows):
            for column, tol in TOLERANCE_DB.items():
                if column not in w:
                    continue
                a, b = float(g.pop(column)), float(w.pop(column))
                on_floor = a >= FLOOR_DB and b >= FLOOR_DB
                assert on_floor or abs(a - b) <= tol, (name, column, w, a, b)
            assert g == w
