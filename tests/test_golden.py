"""Golden outputs: the files every CLI subcommand writes, compared byte for byte.

Each case runs one subcommand at a small size and compares every file it
writes with the copy under ``tests/golden/<case>/``.  A change that alters
output on purpose regenerates the copies with

    PYTHONPATH=src python tests/golden/regenerate.py

and the diff shows which numbers moved.
"""

import contextlib
import io
from pathlib import Path

import pytest

from interpcomp.cli import main
from interpcomp.imagebench import synthetic_scene, write_pgm

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

SMALL_1D = ["--trials", "3", "--iterations", "4", "--n-coarse", "32", "--seed", "5"]
SMALL_2D = [
    "--dims", "2", "--trials", "2", "--iterations", "3",
    "--n-coarse-2d", "8", "--ticks-2d", "4", "--seed", "5",
]

# case -> CLI arguments; "{out}" is the case's output directory and
# "{scene}" a 64x64 ASCII PGM of synthetic_scene(seed=2).  A case without
# --out or --out-dir writes its standard output to "{out}/stdout.csv".
CASES = {
    "convergence_1d": ["convergence", *SMALL_1D, "--out", "{out}/convergence.csv"],
    "convergence_2d": ["convergence", *SMALL_2D, "--out", "{out}/convergence.csv"],
    "lambda_sweep": [
        "lambda-sweep", *SMALL_1D, "--lambda-grid", "0.5,1.0,1.5",
        "--out", "{out}/lambda_sweep.csv",
    ],
    "noise_1d": [
        "noise", *SMALL_1D, "--kind", "li", "--modules", "0,1,2",
        "--out", "{out}/noise.csv",
    ],
    "noise_2d": ["noise", *SMALL_2D, "--modules", "0,1", "--out", "{out}/noise.csv"],
    "rate": ["rate", *SMALL_1D, "--k-rates", "1,2", "--out", "{out}/rate.csv"],
    "analyze_sh1": ["analyze", "--kind", "sh", "--modules", "1", "--csv"],
    "analyze_li0": ["analyze", "--kind", "li", "--modules", "0", "--lambda", "1.2", "--csv"],
    "image": ["image", "{scene}", "--out-dir", "{out}"],
    "image_accelerate": [
        "image", "{scene}", "--methods", "iterative:3,hybrid:3:1", "--accelerate",
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
