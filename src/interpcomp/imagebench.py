"""Grayscale image ingestion, decimation, and enlargement benchmarking.

Low-resolution pixels are treated as rectangular-lattice samples at the
Nyquist rate of the target grid (one sampling interval = ``factor`` output
pixels), so the enlargement fine grid coincides with the output resolution.
Images are mirror-extended before the periodic reconstruction and cropped
afterwards, which suppresses wrap-around ringing at the borders; pixel math
stays in floating point throughout and is clamped/rounded only on output.

The iterative and hybrid methods solve with
:func:`~interpcomp.solver.iterate`, which runs the loop on the band's DFT
coefficients, since G is diagonal in the DFT on the band.  It starts from
the spectrum of the low-resolution pixels and never interpolates on the
fine grid; with no reference to trace, its only fine-grid work is the
inverse FFT that returns the enlarged image.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .samplers import CoarseSamples, InterpKind, interpolate
from .signal_core import ConfigurationError, GridSpec, UsageError, psnr_db
from .solver import ChebyshevAccel, ReconConfig, ReconOperator, iterate

__all__ = [
    "PgmError",
    "GrayImage",
    "EnlargeConfig",
    "read_pgm",
    "write_pgm",
    "decimate",
    "enlarge",
    "enlarge_dense",
    "psnr_benchmark",
    "synthetic_scene",
]


class PgmError(IOError):
    """Malformed netpbm data; carries the byte offset of the failure."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


@dataclass(frozen=True)
class GrayImage:
    """8-bit grayscale image, pixels[row, col] in 0..255."""

    pixels: np.ndarray = field(repr=False)

    def __post_init__(self):
        arr = np.asarray(self.pixels)
        if arr.ndim != 2 or arr.shape[0] < 2 or arr.shape[1] < 2:
            raise ConfigurationError(
                f"GrayImage needs at least 2x2 pixels, got shape {arr.shape}"
            )
        if arr.dtype != np.uint8:
            if np.any(arr < 0) or np.any(arr > 255):
                raise ConfigurationError("pixel values must be within 0..255")
            arr = arr.astype(np.uint8)
        object.__setattr__(self, "pixels", arr)

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]


class _PgmReader:
    """Token scanner for the netpbm header; keeps the byte offset for errors."""

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def fail(self, message: str):
        raise PgmError(message, self.pos)

    def _skip_space_and_comments(self):
        while self.pos < len(self.data):
            c = self.data[self.pos : self.pos + 1]
            if c.isspace():
                self.pos += 1
            elif c == b"#":
                nl = self.data.find(b"\n", self.pos)
                self.pos = len(self.data) if nl < 0 else nl + 1
            else:
                return

    def token(self) -> bytes:
        self._skip_space_and_comments()
        if self.pos >= len(self.data):
            self.fail("unexpected end of file in header")
        start = self.pos
        while self.pos < len(self.data) and not self.data[self.pos : self.pos + 1].isspace():
            self.pos += 1
        return self.data[start : self.pos]

    def int_token(self, what: str) -> int:
        start = self.pos
        tok = self.token()
        try:
            return int(tok)
        except ValueError:
            self.pos = start
            self.fail(f"expected integer {what}, got {tok!r}")


def read_pgm(path) -> GrayImage:
    """Read a binary (P5) or ASCII (P2) grayscale netpbm file with maxval 255."""
    with open(path, "rb") as fh:
        data = fh.read()
    rd = _PgmReader(data)
    magic = rd.token()
    if magic not in (b"P2", b"P5"):
        rd.pos = 0
        rd.fail(f"not a PGM file (magic {magic!r})")
    width = rd.int_token("width")
    height = rd.int_token("height")
    if width < 1 or height < 1:
        rd.fail(f"image size must be positive, got {width}x{height}")
    maxval = rd.int_token("maxval")
    if maxval != 255:
        rd.fail(f"unsupported maxval {maxval}, only 255 is handled")
    count = width * height
    if magic == b"P5":
        rd.pos += 1  # single whitespace byte after maxval
        need = count
    else:
        need = 2 * count - 1  # one digit per pixel, one separator between pixels
    # checked before any array is made, so a huge header cannot allocate
    left = len(data) - rd.pos
    if left < need:
        rd.pos = len(data)
        rd.fail(f"truncated raster: {count} pixels need at least {need} bytes, got {left}")
    if magic == b"P5":
        pixels = np.frombuffer(data, dtype=np.uint8, count=count, offset=rd.pos)
    else:
        # pgm(5) allows comments only up to the maxval, so the raster is bare tokens
        tokens = data[rd.pos :].split()
        if len(tokens) < count:
            rd.pos = len(data)
            rd.fail(f"truncated raster: {count} pixels, got {len(tokens)} values")
        try:
            values = np.array(list(map(int, tokens[:count])), dtype=np.int64)
        except (ValueError, OverflowError):
            rd.fail("pixel values must be integers")
        if np.any(values < 0) or np.any(values > 255):
            rd.fail("pixel value out of 0..255")
        pixels = values.astype(np.uint8)
    return GrayImage(pixels.reshape(height, width))


def write_pgm(img: GrayImage, path, ascii_format: bool = False) -> None:
    """Write an image as P5 (default) or P2; round-trips bit exactly."""
    header = f"{'P2' if ascii_format else 'P5'}\n{img.width} {img.height}\n255\n"
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        if ascii_format:
            lines = "\n".join(
                " ".join(str(v) for v in row) for row in img.pixels.tolist()
            )
            fh.write(lines.encode("ascii"))
            fh.write(b"\n")
        else:
            fh.write(img.pixels.tobytes())


def decimate(img: GrayImage, factor: int) -> GrayImage:
    """Direct subsampling: keep every ``factor``-th pixel, no prefilter."""
    if factor < 1:
        raise UsageError(f"factor must be >= 1, got {factor}")
    if img.height % factor or img.width % factor:
        raise UsageError(
            f"dimensions {img.height}x{img.width} not divisible by {factor}"
        )
    return GrayImage(img.pixels[::factor, ::factor].copy())


@dataclass(frozen=True)
class EnlargeConfig:
    """How to blow a low-resolution image up by an integer factor per axis."""

    factor: int = 2
    method: str = "hybrid"  # bilinear | iterative | hybrid
    iterations: int = 2
    modules: int = 1
    relax: float = 1.0
    acceleration: Optional[ChebyshevAccel] = None

    def __post_init__(self):
        if self.factor < 2:
            raise ConfigurationError(f"factor must be >= 2, got {self.factor}")
        if self.factor % 2:
            raise ConfigurationError(
                f"factor must be even (centered-hold grid), got {self.factor}"
            )
        if self.method not in ("bilinear", "iterative", "hybrid"):
            raise ConfigurationError(f"unknown method {self.method!r}")
        if self.method != "hybrid":
            object.__setattr__(self, "modules", 0)  # only the hybrid mixes
        if self.method == "bilinear":
            object.__setattr__(self, "iterations", 0)  # and bilinear does not iterate
        elif self.iterations < 1:
            raise ConfigurationError(
                f"iterations must be >= 1, got {self.iterations}"
            )
        if 2 * self.modules > self.factor:
            raise ConfigurationError(
                f"{self.modules} modules need an enlargement factor >= "
                f"{2 * self.modules}; the fine grid is the output grid"
            )

    @property
    def label(self) -> str:
        if self.method == "bilinear":
            return "bilinear"
        if self.method == "iterative":
            return f"iterative({self.iterations})"
        return f"hybrid({self.iterations},{self.modules})"


def _mirror_extend(values: np.ndarray) -> np.ndarray:
    ext = np.concatenate([values, values[::-1, :]], axis=0)
    return np.concatenate([ext, ext[:, ::-1]], axis=1)


def enlarge_dense(low: GrayImage, cfg: EnlargeConfig) -> np.ndarray:
    """Float-valued enlargement (no clamping); shape (h*factor, w*factor)."""
    ext = _mirror_extend(low.pixels.astype(np.float64))
    grids = (GridSpec(ext.shape[0], cfg.factor), GridSpec(ext.shape[1], cfg.factor))
    samples = CoarseSamples(grids, ext)
    if cfg.method == "bilinear":
        dense = interpolate(samples, InterpKind.LINEAR).values
    else:
        op = ReconOperator(grids, InterpKind.SAMPLE_AND_HOLD, cfg.modules)
        run = ReconConfig(
            op,
            relax=cfg.relax,
            iterations=cfg.iterations,
            acceleration=cfg.acceleration,
        )
        dense = iterate(samples, run).estimate.values
    return dense[: low.height * cfg.factor, : low.width * cfg.factor]


def enlarge(low: GrayImage, cfg: EnlargeConfig) -> GrayImage:
    """Enlarged 8-bit image; clamping and rounding happen only here."""
    dense = enlarge_dense(low, cfg)
    return GrayImage(np.clip(np.rint(dense), 0, 255).astype(np.uint8))


def psnr_benchmark(
    original: GrayImage, methods: Sequence[EnlargeConfig]
) -> List[Tuple[EnlargeConfig, float, GrayImage]]:
    """Decimate, enlarge with each method, and score PSNR against the original.

    Each row is (method, PSNR, the enlarged image that was scored); rows
    come back in the order the methods were given.
    """
    rows = []
    for cfg in methods:
        low = decimate(original, cfg.factor)
        recon = enlarge(low, cfg)
        rows.append((cfg, psnr_db(original.pixels, recon.pixels), recon))
    return rows


def synthetic_scene(width: int = 512, height: int = 512, seed: int = 0) -> GrayImage:
    """Deterministic natural-looking grayscale test scene.

    A power-law random field (roughly 1/f^1.7, the slope of typical
    photographic spectra) plus a handful of soft-edged disks and an
    illumination gradient.  The composition passes through a mild Gaussian
    blur playing the role of a camera PSF, so the spectrum rolls off toward
    the pixel Nyquist the way scanned photographs do.
    """
    rng = np.random.default_rng(seed)
    fy = np.fft.fftfreq(height)[:, None]
    fx = np.fft.fftfreq(width)[None, :]
    radius = np.hypot(fy, fx)
    envelope = 1.0 / (radius + 1.0 / max(width, height)) ** 1.2
    envelope[0, 0] = 0.0
    spectrum = np.fft.fft2(rng.standard_normal((height, width))) * envelope
    base = np.real(np.fft.ifft2(spectrum))
    base /= np.std(base)

    yy, xx = np.mgrid[0:height, 0:width].astype(np.float64)
    scene = base + 0.8 * (xx / width - 0.5) + 0.5 * (yy / height - 0.5)
    for _ in range(6):
        cy, cx = rng.uniform(0.15, 0.85) * height, rng.uniform(0.15, 0.85) * width
        rad = rng.uniform(0.05, 0.18) * min(width, height)
        dist = np.hypot(yy - cy, xx - cx)
        scene += rng.uniform(-1.2, 1.2) * 0.5 * (1.0 - np.tanh((dist - rad) / 2.0))

    # separable super-Gaussian MTF: full contrast through mid frequencies,
    # sharp roll-off toward the pixel Nyquist
    cutoff = 0.19
    mtf = np.exp(-((np.abs(fx) / cutoff) ** 4)) * np.exp(-((np.abs(fy) / cutoff) ** 4))
    scene = np.real(np.fft.ifft2(np.fft.fft2(scene) * mtf))

    lo, hi = np.percentile(scene, [1.0, 99.0])
    pixels = np.clip((scene - lo) / (hi - lo) * 215.0 + 20.0, 0, 255)
    return GrayImage(np.rint(pixels).astype(np.uint8))
