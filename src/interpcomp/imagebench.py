"""Grayscale image ingestion, decimation and enlargement.

Low-resolution pixels are treated as rectangular-lattice samples at the
Nyquist rate of the target grid (one sampling interval = ``factor`` output
pixels), so the enlargement fine grid coincides with the output resolution.
The periodic reconstruction runs on the image's 2x mirror extension, which
suppresses wrap-around ringing at the borders, and keeps the image's span;
pixel math stays in floating point and is clamped/rounded only on output.

The iterative and hybrid methods solve as :func:`~interpcomp.solver.iterate`
does, per band bin in closed form, by cosine transforms of the image itself
(:func:`~interpcomp.solver._cosine_solve`), never building the extension.
Bilinear interpolates the image padded by one mirrored row and column.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .samplers import CoarseSamples, InterpKind, interpolate
from .signal_core import ConfigurationError, GridSpec, _check_count
from .solver import ChebyshevAccel, ReconConfig, ReconOperator, _check_relax, _cosine_solve

__all__ = [
    "PgmError",
    "GrayImage",
    "EnlargeConfig",
    "read_pgm",
    "write_pgm",
    "decimate",
    "enlarge",
    "enlarge_dense",
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
            raise ConfigurationError(f"GrayImage needs at least 2x2 pixels, got shape {arr.shape}")
        if arr.dtype != np.uint8:
            # NaN, a fraction and a bool fail too, rather than truncate to a pixel
            if arr.dtype == bool or not np.all((arr >= 0) & (arr <= 255) & (np.rint(arr) == arr)):
                raise ConfigurationError("pixel values must be integers within 0..255")
            arr = arr.astype(np.uint8)
        object.__setattr__(self, "pixels", arr)

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]


# a header token after whitespace and comments; a comment runs to a newline or the
# end, and no token starts with "#", so backtracking never reads a comment's tail
_HEADER_TOKEN = re.compile(rb"(?:\s|#[^\n]*(?:\n|\Z))*([^\s#]\S*)")

# P2 raster bytes by class: ASCII whitespace (the set bytes.split() splits on), and
# every byte that is neither whitespace nor a digit
_RASTER_SPACE = np.zeros(256, dtype=bool)
_RASTER_SPACE[list(b" \t\n\r\x0b\x0c")] = True
_RASTER_BAD = ~_RASTER_SPACE
_RASTER_BAD[ord("0") : ord("9") + 1] = False

# row v: the decimal digits of v and a space, padded with zero bytes to 4
_P2_TOKENS = np.frombuffer(
    b"".join((b"%d " % v).ljust(4, b"\0") for v in range(256)), dtype=np.uint8
).reshape(256, 4)


def read_pgm(path) -> GrayImage:
    """Read a binary (P5) or ASCII (P2) grayscale netpbm file with maxval 255.

    A P2 raster is parsed as bytes, never one Python object per pixel.  Its
    tokens are separated by runs of ASCII whitespace (space, tab, newline,
    carriage return, vertical tab, form feed), and each of the first
    width*height tokens must be ASCII digits only, leading zeros allowed, of
    value at most 255; a sign, an underscore, a decimal point or a ``#`` is
    rejected, since pgm(5) allows comments only up to the maxval.  Whatever
    follows the last pixel's token is ignored.

    Malformed data raises :class:`PgmError` with the byte offset of the
    fault: a bad header integer reports the offset of its own token, a
    non-digit raster byte its own offset, and a raster value above 255 the
    offset of its token.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    pos = 0

    def token(what: str = ""):
        """The next header token, as an int when ``what`` names one; moves ``pos`` past it."""
        nonlocal pos
        found = _HEADER_TOKEN.match(data, pos)
        if found is None:
            raise PgmError("unexpected end of file in header", len(data))
        pos, tok = found.end(), found.group(1)
        if not what:
            return tok
        try:
            return int(tok)
        except ValueError:
            raise PgmError(f"expected integer {what}, got {tok!r}", found.start(1)) from None

    magic = token()
    if magic not in (b"P2", b"P5"):
        raise PgmError(f"not a PGM file (magic {magic!r})", 0)
    width = token("width")
    height = token("height")
    if width < 1 or height < 1:
        raise PgmError(f"image size must be positive, got {width}x{height}", pos)
    maxval = token("maxval")
    if maxval != 255:
        raise PgmError(f"unsupported maxval {maxval}, only 255 is handled", pos)
    count = width * height
    if magic == b"P5":
        pos += 1  # single whitespace byte after maxval
        need = count
    else:
        need = 2 * count - 1  # one digit per pixel, one separator between pixels
    # checked before any array is made, so a huge header cannot allocate
    left = len(data) - pos
    if left < need:
        message = f"truncated raster: {count} pixels need at least {need} bytes, got {left}"
        raise PgmError(message, len(data))
    if magic == b"P5":
        pixels = np.frombuffer(data, dtype=np.uint8, count=count, offset=pos)
    else:
        raster = np.frombuffer(data, dtype=np.uint8, offset=pos)
        space = _RASTER_SPACE.take(raster)  # take beats [] indexing 2x here
        # the maxval token ends at whitespace, so raster[0] is a space and every
        # token starts at a non-space byte right after a space
        starts = np.flatnonzero(space[:-1] & ~space[1:]) + 1
        if len(starts) < count:
            raise PgmError(f"truncated raster: {count} pixels, got {len(starts)} values", len(data))
        stop = starts[count] if len(starts) > count else len(raster)  # the pixels' bytes
        bad = np.flatnonzero(_RASTER_BAD.take(raster[:stop]))
        if bad.size:
            raise PgmError("pixel values must be integers", pos + int(bad[0]))
        # exactly count digit tokens, so fromstring parses each of them in C (it
        # would also read "3x" as 3, "+5" as 5, and past the end with a count)
        values = np.fromstring(data[pos : pos + stop], dtype=np.int64, sep=" ")
        high = np.flatnonzero(values > 255)  # an overlong token saturates at int64 max
        if high.size:
            raise PgmError("pixel value out of 0..255", pos + int(starts[high[0]]))
        pixels = values.astype(np.uint8)
    return GrayImage(pixels.reshape(height, width))


def write_pgm(img: GrayImage, path, ascii_format: bool = False) -> None:
    """Write an image as P5 (default) or P2; round-trips bit exactly.

    A P2 raster has one line per image row, its values in decimal without
    leading zeros, separated by single spaces, each line ending in a newline.
    It is formatted by gathering each pixel's digits from a byte table, not
    one Python string per pixel.
    """
    header = f"{'P2' if ascii_format else 'P5'}\n{img.width} {img.height}\n255\n"
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        if ascii_format:
            tokens = _P2_TOKENS.take(img.pixels, axis=0)  # (height, width, 4)
            ends = tokens[:, -1]
            ends[ends == ord(" ")] = ord("\n")  # each row's last separator
            fh.write(tokens[tokens != 0].tobytes())
        else:
            fh.write(img.pixels.tobytes())


def decimate(img: GrayImage, factor: int) -> GrayImage:
    """Direct subsampling: keep every ``factor``-th pixel (an integer >= 1), no prefilter."""
    _check_count(factor, "factor", 1)
    if img.height % factor or img.width % factor:
        raise ConfigurationError(
            f"dimensions {img.height}x{img.width} not divisible by {factor}"
        )
    return GrayImage(img.pixels[::factor, ::factor].copy())


@dataclass(frozen=True)
class EnlargeConfig:
    """How to blow a low-resolution image up by ``factor`` per axis; every count is an integer."""

    factor: int = 2
    method: str = "hybrid"  # bilinear | iterative | hybrid
    iterations: int = 2
    modules: int = 1
    relax: float = 1.0
    acceleration: Optional[ChebyshevAccel] = None

    def __post_init__(self):
        _check_count(self.factor, "factor", 2)
        if self.factor % 2:
            raise ConfigurationError(
                f"factor must be even (centered-hold grid), got {self.factor}"
            )
        if self.method not in ("bilinear", "iterative", "hybrid"):
            raise ConfigurationError(f"unknown method {self.method!r}")
        _check_relax(self.relax)  # for bilinear too, so a bad value never passes
        _check_count(self.modules, "modules", 0)  # likewise for the methods that do not mix
        if self.method != "hybrid":
            object.__setattr__(self, "modules", 0)  # only the hybrid mixes
        if self.method == "bilinear":
            object.__setattr__(self, "iterations", 0)  # and bilinear does not iterate
        else:
            _check_count(self.iterations, "iterations", 1)
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


def enlarge_dense(low: GrayImage, cfg: EnlargeConfig) -> np.ndarray:
    """Float-valued enlargement (no clamping); shape (h*factor, w*factor)."""
    pixels = low.pixels.astype(np.float64)
    if cfg.method == "bilinear":
        # samples 0..n of the mirror extension; a 2-pixel axis pads to a grid's 4
        ext = np.pad(pixels, [(0, max(1, 4 - n)) for n in pixels.shape], mode="symmetric")
        grids = tuple([GridSpec(n, cfg.factor) for n in ext.shape])
        full = interpolate(CoarseSamples(grids, ext), InterpKind.LINEAR).values
        return full[: low.height * cfg.factor, : low.width * cfg.factor]
    grids = tuple([GridSpec(2 * n, cfg.factor) for n in pixels.shape])
    op = ReconOperator(grids, InterpKind.SAMPLE_AND_HOLD, cfg.modules)
    return _cosine_solve(pixels, ReconConfig(op, cfg.relax, cfg.iterations, cfg.acceleration))


def enlarge(low: GrayImage, cfg: EnlargeConfig) -> GrayImage:
    """Enlarged 8-bit image; clamping and rounding happen only here."""
    dense = enlarge_dense(low, cfg)
    return GrayImage(np.clip(np.rint(dense), 0, 255).astype(np.uint8))


def synthetic_scene(width: int = 512, height: int = 512, seed: int = 0) -> GrayImage:
    """Deterministic natural-looking grayscale test scene.

    A power-law random field (roughly 1/f^1.7, the slope of typical
    photographic spectra) plus a handful of soft-edged disks and an
    illumination gradient.  The composition passes through a mild Gaussian
    blur playing the role of a camera PSF, so the spectrum rolls off toward
    the pixel Nyquist the way scanned photographs do.  The 1st to 99th
    percentile of the scene maps onto gray levels 20..235; a scene whose two
    percentiles coincide, such as a 2x2 one, comes out flat at 128.
    ``width`` and ``height`` are integers >= 2 and ``seed`` one >= 0.
    """
    _check_count(width, "width", 2)
    _check_count(height, "height", 2)
    _check_count(seed, "seed", 0)
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
    if hi > lo:
        pixels = np.clip((scene - lo) / (hi - lo) * 215.0 + 20.0, 0, 255)
    else:  # no span to stretch: the middle of 20..235, 127.5, rounds to 128
        pixels = np.full(scene.shape, 127.5)
    return GrayImage(np.rint(pixels).astype(np.uint8))
