import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis.extra import numpy as hnp

from interpcomp import (
    CoarseSamples,
    ConfigurationError,
    DenseSignal,
    EnlargeConfig,
    GrayImage,
    GridSpec,
    InterpKind,
    ReconConfig,
    ReconOperator,
    decimate,
    enlarge,
    enlarge_dense,
    iterate,
    psnr_db,
    read_pgm,
    synthetic_scene,
    write_pgm,
)
from interpcomp import imagebench
from interpcomp.imagebench import PgmError
from interpcomp.samplers import interpolate
from fine_reference import cosine_factor


@pytest.fixture(scope="module")
def scene256():
    return synthetic_scene(256, 256, seed=0)


class TestPgmIO:
    def test_roundtrip_2x2(self, tmp_path):
        img = GrayImage(np.array([[0, 255], [128, 64]], dtype=np.uint8))
        path = tmp_path / "tiny.pgm"
        write_pgm(img, path)
        back = read_pgm(path)
        assert np.array_equal(back.pixels, img.pixels)

    def test_p2_p5_identical(self, tmp_path, rng):
        img = GrayImage(rng.integers(0, 256, size=(9, 7)).astype(np.uint8))
        write_pgm(img, tmp_path / "b.pgm")
        write_pgm(img, tmp_path / "a.pgm", ascii_format=True)
        assert np.array_equal(
            read_pgm(tmp_path / "a.pgm").pixels, read_pgm(tmp_path / "b.pgm").pixels
        )

    def test_comments_in_header(self, tmp_path):
        raw = b"P2\n# a comment\n2 2\n# another\n255\n0 1\n2 3\n"
        path = tmp_path / "c.pgm"
        path.write_bytes(raw)
        assert np.array_equal(read_pgm(path).pixels, [[0, 1], [2, 3]])

    def test_maxval_rejected_with_offset(self, tmp_path):
        path = tmp_path / "deep.pgm"
        path.write_bytes(b"P5\n2 2\n65535\n" + bytes(8))
        with pytest.raises(PgmError) as err:
            read_pgm(path)
        assert "65535" in str(err.value)
        assert err.value.offset > 0

    def test_truncated_raster(self, tmp_path):
        path = tmp_path / "short.pgm"
        path.write_bytes(b"P5\n4 4\n255\n" + bytes(7))
        with pytest.raises(PgmError) as err:
            read_pgm(path)
        assert "truncated" in str(err.value)

    def test_too_few_p2_values(self, tmp_path):
        # 32 bytes pass the 2*count-1 byte check, but hold only 8 of 16 values
        path = tmp_path / "short.pgm"
        path.write_bytes(b"P2\n4 4\n255\n" + b"100 " * 8)
        with pytest.raises(PgmError) as err:
            read_pgm(path)
        assert "truncated" in str(err.value)

    @pytest.mark.parametrize("token", [b"ab", b"1.5", b"#", b"+5", b"-0", b"1_0"])
    def test_non_integer_p2_value(self, tmp_path, token):
        # pgm(5) allows comments only in the header, so "#" in the raster is an
        # error; a sign or an underscore, which int() accepts, is not a digit
        raw = b"P2\n2 2\n255\n0 1 " + token + b" 3\n"
        path = tmp_path / "bad.pgm"
        path.write_bytes(raw)
        with pytest.raises(PgmError) as err:
            read_pgm(path)
        assert "integers" in str(err.value)
        first_bad = re.search(rb"[^0-9]", token).start()
        assert err.value.offset == raw.index(token) + first_bad

    def test_p2_value_out_of_range(self, tmp_path):
        raw = b"P2\n2 2\n255\n0 1 256 3\n"
        path = tmp_path / "big.pgm"
        path.write_bytes(raw)
        with pytest.raises(PgmError) as err:
            read_pgm(path)
        assert "0..255" in str(err.value)
        assert err.value.offset == raw.index(b"256")

    def test_p2_overlong_value_out_of_range(self, tmp_path):
        # a value past int64 is out of range at its own token, not a wrapped pixel
        raw = b"P2\n2 2\n255\n0 1 3 " + b"9" * 25 + b"\n"
        path = tmp_path / "big.pgm"
        path.write_bytes(raw)
        with pytest.raises(PgmError) as err:
            read_pgm(path)
        assert "0..255" in str(err.value)
        assert err.value.offset == raw.index(b"999")

    def test_p2_leading_zeros(self, tmp_path):
        path = tmp_path / "zeros.pgm"
        path.write_bytes(b"P2\n2 2\n255\n007 0255 00 0000000000000000000000001\n")
        assert np.array_equal(read_pgm(path).pixels, [[7, 255], [0, 1]])

    @pytest.mark.parametrize("sep", [b" ", b"\t", b"\n", b"\r", b"\x0b", b"\x0c"])
    def test_p2_each_whitespace_separates(self, tmp_path, sep):
        path = tmp_path / "sep.pgm"
        path.write_bytes(b"P2\n2 2\n255" + sep + sep.join([b"9", b"8", b"70", b"255"]) + sep)
        assert np.array_equal(read_pgm(path).pixels, [[9, 8], [70, 255]])

    @pytest.mark.parametrize("lead", [b"", b" \t\r\n\x0b\x0c  "])
    def test_p2_whitespace_runs(self, tmp_path, lead):
        # the raster may start right after the maxval's one separator, or after a run
        path = tmp_path / "runs.pgm"
        path.write_bytes(b"P2\n2 2\n255\n" + lead + b"1  \t 2\r\n\n3\x0b\x0c 4")
        assert np.array_equal(read_pgm(path).pixels, [[1, 2], [3, 4]])

    def test_p2_trailing_data_ignored(self, tmp_path):
        # only the width*height pixel tokens are parsed; pgm(5) allows no more
        path = tmp_path / "tail.pgm"
        path.write_bytes(b"P2\n2 2\n255\n1 2\n3 4\n# not a pixel +5 1_0 -0 x")
        assert np.array_equal(read_pgm(path).pixels, [[1, 2], [3, 4]])

    def test_p2_short_raster_reads_no_made_up_values(self, tmp_path):
        # 15 values are enough bytes for 16 pixels; none may be invented for the 16th
        path = tmp_path / "short.pgm"
        path.write_bytes(b"P2\n4 4\n255\n" + b" ".join(b"%d" % v for v in range(15)))
        with pytest.raises(PgmError) as err:
            read_pgm(path)
        assert "truncated raster: 16 pixels, got 15 values" in str(err.value)
        assert err.value.offset == path.stat().st_size

    def test_p2_p5_identical_300x200(self, tmp_path):
        img = GrayImage(np.random.default_rng(20).integers(0, 256, (200, 300), dtype=np.uint8))
        write_pgm(img, tmp_path / "b.pgm")
        write_pgm(img, tmp_path / "a.pgm", ascii_format=True)
        ascii_back = read_pgm(tmp_path / "a.pgm").pixels
        assert np.array_equal(ascii_back, read_pgm(tmp_path / "b.pgm").pixels)
        assert np.array_equal(ascii_back, img.pixels)

    @given(
        hnp.arrays(
            np.uint8,
            hnp.array_shapes(min_dims=2, max_dims=2, min_side=2, max_side=24),
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_p2_writer_matches_text_join(self, tmp_path_factory, pixels):
        # the string join is the slow reference for the byte-table writer
        img = GrayImage(pixels)
        path = tmp_path_factory.mktemp("p2") / "w.pgm"
        write_pgm(img, path, ascii_format=True)
        text = "\n".join(" ".join(str(v) for v in row) for row in pixels.tolist()) + "\n"
        header = f"P2\n{img.width} {img.height}\n255\n"
        assert path.read_bytes() == (header + text).encode("ascii")
        assert np.array_equal(read_pgm(path).pixels, pixels)

    def test_nonpositive_size_p2(self, tmp_path):
        path = tmp_path / "neg.pgm"
        path.write_bytes(b"P2\n-4 4\n255\n" + b"0 " * 16)
        with pytest.raises(PgmError) as err:
            read_pgm(path)
        assert "-4x4" in str(err.value)

    def test_nonpositive_size_p5(self, tmp_path):
        # 16 raster bytes used to pass as a 4x3 image
        path = tmp_path / "neg.pgm"
        path.write_bytes(b"P5\n-4 4\n255\n" + bytes(16))
        with pytest.raises(PgmError) as err:
            read_pgm(path)
        assert "-4x4" in str(err.value)

    def test_huge_size_rejected_before_allocating(self, tmp_path):
        path = tmp_path / "huge.pgm"
        path.write_bytes(b"P2\n4000000 4000000\n255\n0 1 2 3\n")
        with pytest.raises(PgmError) as err:
            read_pgm(path)
        assert "truncated" in str(err.value)
        assert err.value.offset == path.stat().st_size

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P6\n2 2\n255\n" + bytes(12))
        with pytest.raises(PgmError):
            read_pgm(path)

    def test_header_ends_early(self, tmp_path):
        # a trailing comment holds no token, even one that reads as the maxval
        path = tmp_path / "short.pgm"
        path.write_bytes(b"P2\n2 2\n# 255")
        with pytest.raises(PgmError) as err:
            read_pgm(path)
        assert "unexpected end of file in header" in str(err.value)
        assert err.value.offset == path.stat().st_size

    def test_non_integer_header_token(self, tmp_path):
        # the offset is the bad token's own, not that of the whitespace before it
        raw = b"P2\n2 \t# note\n x2\n255\n0 1 2 3\n"
        path = tmp_path / "bad.pgm"
        path.write_bytes(raw)
        with pytest.raises(PgmError) as err:
            read_pgm(path)
        assert "expected integer height, got b'x2'" in str(err.value)
        assert err.value.offset == raw.index(b"x2")


class TestGrayImage:
    @pytest.mark.parametrize("shape", [(4,), (1, 4), (4, 1), (2, 2, 2)])
    def test_shape_rejected(self, shape):
        with pytest.raises(ConfigurationError, match="at least 2x2"):
            GrayImage(np.zeros(shape, dtype=np.uint8))

    @pytest.mark.parametrize("bad", [-1.0, 255.5, math.nan])
    def test_float_pixels_outside_range_rejected(self, bad):
        with pytest.raises(ConfigurationError, match="0..255"):
            GrayImage(np.array([[0.0, bad], [1.0, 2.0]]))

    @pytest.mark.parametrize(
        "pixels",
        [np.array([[0.0, 3.7], [1.0, 2.0]]), np.full((2, 2), True)],
        ids=["fraction", "bool"],
    )
    def test_non_integral_pixels_rejected(self, pixels):
        # neither is truncated to a pixel value: 3.7 is no 8-bit level, True is no count
        with pytest.raises(ConfigurationError, match="integers within 0..255"):
            GrayImage(pixels)

    def test_float_pixels_inside_range_converted(self):
        img = GrayImage(np.array([[0.0, 255.0], [1.0, 2.0]]))
        assert img.pixels.dtype == np.uint8
        assert img.pixels.tolist() == [[0, 255], [1, 2]]


class TestSyntheticScene:
    @pytest.mark.parametrize(
        "args,message",
        [
            ((0, 4), "width must be >= 2, got 0"),
            ((1, 4), "width must be >= 2, got 1"),
            ((4.0, 4), "width must be an integer, got 4.0"),
            ((True, 4), "width must be an integer, got True"),
            ((4, 1), "height must be >= 2, got 1"),
            ((4, 4, -1), "seed must be >= 0, got -1"),
            ((4, 4, 1.5), "seed must be an integer, got 1.5"),
        ],
    )
    def test_counts_checked(self, args, message):
        with pytest.raises(ConfigurationError, match=re.escape(message)):
            synthetic_scene(*args)

    @pytest.mark.parametrize("seed", [0, 1, 4])
    def test_flat_scene_is_mid_gray(self, seed):
        # a 2x2 scene's 1st and 99th percentiles coincide: no stretch, no NaN
        # (a RuntimeWarning fails the test)
        assert np.array_equal(synthetic_scene(2, 2, seed).pixels, np.full((2, 2), 128, np.uint8))

    def test_numpy_counts_accepted(self):
        pixels = synthetic_scene(np.int64(6), 3, np.int64(2)).pixels
        assert pixels.shape == (3, 6) and pixels.min() < pixels.max()


class TestDecimate:
    def test_identity(self, scene256):
        assert np.array_equal(decimate(scene256, 1).pixels, scene256.pixels)

    def test_index_arithmetic(self):
        ramp = GrayImage(np.arange(16, dtype=np.uint8).reshape(4, 4))
        out = decimate(ramp, 2)
        assert np.array_equal(out.pixels, [[0, 2], [8, 10]])

    def test_indivisible_rejected(self):
        img = GrayImage(np.zeros((6, 6), dtype=np.uint8))
        with pytest.raises(ConfigurationError):
            decimate(img, 4)

    def test_factor_below_one_rejected(self):
        img = GrayImage(np.zeros((6, 6), dtype=np.uint8))
        with pytest.raises(ConfigurationError, match="factor must be >= 1"):
            decimate(img, 0)

    def test_enlarge_then_decimate_recovers(self):
        # the converged reconstruction interpolates the low-res samples, so
        # sampling it back recovers the input up to rounding
        scene = synthetic_scene(128, 128, seed=3)
        low = decimate(scene, 2)
        recon = enlarge(low, EnlargeConfig(2, "iterative", iterations=40))
        back = decimate(recon, 2)
        diff = np.abs(back.pixels.astype(int) - low.pixels.astype(int))
        assert diff.max() <= 1


class TestEnlarge:
    def test_constant_all_methods(self):
        img = GrayImage(np.full((16, 16), 77, dtype=np.uint8))
        for method, kwargs in (
            ("bilinear", {}),
            ("iterative", dict(iterations=3)),
            ("hybrid", dict(iterations=3, modules=1)),
        ):
            out = enlarge(img, EnlargeConfig(2, method, **kwargs))
            assert out.pixels.shape == (32, 32)
            assert np.all(out.pixels == 77)

    def test_contracting_applied_bins_converge(self):
        # at relax 0.9 with one module only the extension's coarse-Nyquist
        # bins fail to contract (max |1 - s*gain| = 1.025 there), and the
        # cosine solve never computes them: 40000 iterations return, and the
        # factor the solve applies, which its overflow error would name, is
        # below 1
        low = decimate(synthetic_scene(64, 64, 2), 2)
        out = enlarge(low, EnlargeConfig(2, "hybrid", iterations=40000, modules=1, relax=0.9))
        assert out.pixels.shape == (64, 64)
        grids = tuple([GridSpec(2 * n, 2) for n in low.pixels.shape])
        op = ReconOperator(grids, InterpKind.SAMPLE_AND_HOLD, 1)
        assert cosine_factor(ReconConfig(op, relax=0.9, iterations=40000)) < 1.0
        # iterate on the extension's whole band flags it as not contracting
        ext = CoarseSamples(grids, np.zeros(tuple([g.n_coarse for g in grids])))
        assert iterate(ext, ReconConfig(op, relax=0.9, iterations=1)).non_contraction

    def test_dc_preserved(self, scene256):
        low = decimate(scene256, 2)
        dense = enlarge_dense(low, EnlargeConfig(2, "hybrid", iterations=2, modules=1))
        assert abs(dense.mean() - low.pixels.mean()) < 0.5

    def test_clamping_is_final_stage_only(self):
        # hard black/white blocks make the compensated reconstruction ring
        # past the 8-bit range internally; only the output is clamped
        px = np.full((32, 32), 128, dtype=np.uint8)
        px[8:16, 8:16] = 255
        px[16:24, 8:16] = 0
        img = GrayImage(px)
        cfg = EnlargeConfig(2, "hybrid", iterations=3, modules=1)
        dense = enlarge_dense(img, cfg)
        out = enlarge(img, cfg)
        assert dense.max() > 255.0 and dense.min() < 0.0
        assert out.pixels.max() <= 255 and out.pixels.min() >= 0

    @pytest.mark.parametrize("shape", [(9, 7), (8, 8), (6, 11), (2, 5), (3, 2)])
    def test_bilinear_matches_mirror_extension(self, shape, rng):
        # the crop of bilinear on the 4x mirror extension, bit for bit
        px = rng.integers(0, 256, size=shape).astype(np.uint8)
        ext = np.pad(px.astype(np.float64), [(0, n) for n in shape], mode="symmetric")
        for factor in (2, 4):
            grids = tuple([GridSpec(n, factor) for n in ext.shape])
            full = interpolate(CoarseSamples(grids, ext), InterpKind.LINEAR).values
            want = full[: shape[0] * factor, : shape[1] * factor]
            got = enlarge_dense(GrayImage(px), EnlargeConfig(factor, "bilinear"))
            assert np.array_equal(got, want)

    def test_enlarge_computes_the_crop(self, monkeypatch):
        # an iterative enlarge transforms the image's lines, each with its
        # mirror image, along one axis after the other, and inverts each axis
        # onto twice the crop's length, the image's rows last, so the result is
        # never transposed: no transform covers the extension's grid;
        # bilinear interpolates the image padded by one row and column
        img = GrayImage(np.arange(24 * 20, dtype=np.uint8).reshape(24, 20))
        calls = []

        def shape(a):
            return np.shape(getattr(a, "values", a))

        def recorded(name, fn):
            def wrapper(a, *args, **kwargs):
                out = fn(a, *args, **kwargs)
                calls.append((name, shape(a), shape(out)))
                return out

            return wrapper

        for name in ("fft", "ifft", "rfft", "irfft", "rfftn", "irfftn", "fftn", "ifftn"):
            monkeypatch.setattr(np.fft, name, recorded(name, getattr(np.fft, name)))
        monkeypatch.setattr(imagebench, "interpolate", recorded("interpolate", interpolate))
        for method in ("iterative", "hybrid"):
            calls.clear()
            assert enlarge_dense(img, EnlargeConfig(2, method, iterations=3)).shape == (48, 40)
            assert calls == [
                ("rfft", (24, 40), (24, 21)), ("rfft", (20, 48), (20, 25)),
                ("irfft", (20, 24), (20, 96)), ("irfft", (48, 20), (48, 80)),
            ]
        calls.clear()
        enlarge_dense(img, EnlargeConfig(2, "bilinear"))
        assert calls == [("interpolate", (25, 21), (50, 42))]

    @pytest.mark.parametrize("method", ["iterative", "hybrid"])
    def test_dense_estimate_owns_its_pixels(self, method):
        # C-contiguous, and not a view of the cosine solve's 2M-wide irfft output
        img = GrayImage(np.arange(24 * 20, dtype=np.uint8).reshape(24, 20))
        dense = enlarge_dense(img, EnlargeConfig(2, method, iterations=3))
        assert dense.flags.c_contiguous and dense.base is None

    def test_modules_capped_by_factor(self):
        with pytest.raises(ConfigurationError):
            EnlargeConfig(2, "hybrid", modules=2)

    @pytest.mark.parametrize(
        "kwargs,message",
        [
            (dict(factor=1), "factor must be >= 2"),
            (dict(factor=3), "factor must be even"),
            (dict(method="bicubic"), "unknown method"),
            (dict(method="iterative", iterations=0), "iterations must be >= 1"),
        ],
        ids=["factor-1", "odd-factor", "unknown-method", "no-iterations"],
    )
    def test_invalid_config(self, kwargs, message):
        with pytest.raises(ConfigurationError, match=message):
            EnlargeConfig(**kwargs)

    def test_monotone_psnr_model_class(self):
        # for a periodic band-limited field (with the module harmonic strictly
        # inside the fine-grid band) the per-bin error contracts, so the PSNR
        # trace is non-decreasing by construction
        gy = gx = GridSpec(32, 4)
        rng = np.random.default_rng(8)
        spec = np.fft.fft2(rng.standard_normal((128, 128)))
        fy = np.fft.fftfreq(128)[:, None]
        fx = np.fft.fftfreq(128)[None, :]
        spec[(np.abs(fx) >= 0.125 - 1e-12) | (np.abs(fy) >= 0.125 - 1e-12)] = 0.0
        field = np.real(np.fft.ifft2(spec))
        field = 128.0 + 100.0 * field / np.max(np.abs(field))
        img = DenseSignal((gy, gx), field)
        samples = CoarseSamples((gy, gx), field[::4, ::4])
        prev = -math.inf
        for iters in range(1, 11):
            op = ReconOperator((gy, gx), InterpKind.SAMPLE_AND_HOLD, 1)
            rep = iterate(samples, ReconConfig(op, iterations=iters))
            p = psnr_db(img.values, rep.estimate.values)
            assert p >= prev - 1e-9
            prev = p

    def test_monotone_psnr_through_pipeline(self, scene256):
        # the mirrored pipeline has a border/alias floor; past saturation the
        # trace may wiggle within measurement noise but never drops visibly
        low = decimate(scene256, 2)
        psnrs = [
            psnr_db(
                scene256.pixels,
                enlarge(low, EnlargeConfig(2, "iterative", iterations=it)).pixels,
            )
            for it in range(1, 11)
        ]
        for a, b in zip(psnrs, psnrs[1:]):
            assert b >= a - 0.1
        assert psnrs[-1] > psnrs[0] + 1.0
        # the hybrid reaches the same floor within ~3 iterations and then
        # wiggles inside measurement noise (alternating-sign contraction)
        hybrid = [
            psnr_db(
                scene256.pixels,
                enlarge(low, EnlargeConfig(2, "hybrid", iterations=it, modules=1)).pixels,
            )
            for it in range(1, 6)
        ]
        for a, b in zip(hybrid, hybrid[1:]):
            assert b >= a - 0.1
        assert hybrid[-1] > hybrid[0] + 1.0


class TestBenchmark:
    def test_constant_image_inf(self):
        img = GrayImage(np.full((16, 16), 50, dtype=np.uint8))
        recon = enlarge(decimate(img, 2), EnlargeConfig(2, "bilinear"))
        assert math.isinf(psnr_db(img.pixels, recon.pixels))

    def test_hybrid_error_image_smaller_than_bilinear(self, scene256):
        low = decimate(scene256, 2)
        err = {}
        for cfg in (
            EnlargeConfig(2, "bilinear"),
            EnlargeConfig(2, "hybrid", iterations=2, modules=1),
        ):
            recon = enlarge(low, cfg)
            err[cfg.method] = np.mean(
                np.abs(
                    recon.pixels.astype(np.float64)
                    - scene256.pixels.astype(np.float64)
                )
            )
        assert err["hybrid"] < err["bilinear"]
