"""Multimodal (image/audio/video) column plumbing.

Binary payloads are opaque ``binary`` columns with typed metadata columns
(``mm_kind``, ``mm_format``, width/height/duration).  Decode / resize /
frame-sample are actor-pool ``map_batches`` stages with REAL Ray plumbing
(schema, batch sizing, actor signature, output layout) and a STUBBED codec:
the container has no image/audio libraries, so the default codec is a
deterministic fake; installing Pillow/soundfile later means swapping one
callable, not re-architecting.

Batch-size note: payloads dominate memory, so these stages use small
``batch_size`` (payload_bytes × batch_size × concurrency must fit the worker
heap) — the caller passes ``batch_size`` accordingly.
"""

from __future__ import annotations

import io
from typing import Callable, Optional

import numpy as np
import pyarrow as pa


def _try_import_pillow():
    try:
        from PIL import Image  # noqa: F401

        return Image
    except ImportError:
        return None


def fake_decode(payload: bytes) -> np.ndarray:
    """Deterministic stand-in decoder: interprets the payload bytes
    DIRECTLY as an 8×8×3 pixel block, repeating the payload to fill 192
    bytes.  Marked fake; replace with a real codec when available.  Pure
    byte arithmetic (no RNG) so an independent implementation — the q27
    fixture oracle — can replay the downstream feature math exactly."""
    need = 8 * 8 * 3
    if not payload:
        payload = b"\x00"
    reps = -(-need // len(payload))
    buf = (payload * reps)[:need]
    return np.frombuffer(buf, dtype=np.uint8).reshape(8, 8, 3).copy()


class ImageFeatureExtractor:
    """Actor-pool stage: decode binary image payloads and append per-image
    features (mean/std per channel, entropy proxy).  ``codec=None`` uses
    Pillow when importable, else the deterministic fake (``is_fake`` column
    records which)."""

    def __init__(self, payload_col: str = "payload", codec: Optional[Callable] = None):
        self.payload_col = payload_col
        if codec is not None:
            self.codec, self.fake = codec, codec is fake_decode
        else:
            pil = _try_import_pillow()
            if pil is not None:
                def real(b: bytes) -> np.ndarray:
                    return np.asarray(pil.open(io.BytesIO(b)).convert("RGB"))

                self.codec, self.fake = real, False
            else:
                self.codec, self.fake = fake_decode, True

    def __call__(self, batch: pa.Table) -> pa.Table:
        payloads = batch[self.payload_col].to_pylist()
        n = len(payloads)
        mean = np.full((n, 3), np.nan)
        std = np.full((n, 3), np.nan)
        ent = np.full(n, np.nan)
        missing = np.zeros(n, bool)
        for i, b in enumerate(payloads):
            if b is None:
                # a null payload has no decodable content under ANY codec
                # — emit null features, never fabricate stats from b""
                missing[i] = True
                continue
            img = self.codec(b)
            f = img.reshape(-1, img.shape[-1]).astype(np.float64)
            mean[i] = f.mean(axis=0)
            std[i] = f.std(axis=0)
            hist, _ = np.histogram(f[:, 0], bins=16, range=(0, 256))
            p = hist / max(1, hist.sum())
            ent[i] = -np.sum(p[p > 0] * np.log2(p[p > 0]))
        out = batch
        for c, arr in [("img_mean_r", mean[:, 0]), ("img_mean_g", mean[:, 1]),
                       ("img_mean_b", mean[:, 2]), ("img_std_r", std[:, 0]),
                       ("img_std_g", std[:, 1]), ("img_std_b", std[:, 2]),
                       ("img_entropy", ent)]:
            out = out.append_column(c, pa.array(arr, mask=missing))
        out = out.append_column(
            "img_decoder_is_fake", pa.array(np.full(n, self.fake, dtype=bool))
        )
        return out


def add_image_features(ds, *, payload_col: str = "payload",
                       codec: Optional[Callable] = None,
                       batch_size: int = 64, concurrency=(2, 8), num_cpus=1):
    """Small batches: payload × batch × actors sized to worker heap.
    ``codec`` pins a specific decoder (e.g. ``fake_decode`` for
    fixture-checked runs); default auto-selects Pillow when importable."""
    return ds.map_batches(
        ImageFeatureExtractor,
        fn_constructor_kwargs={"payload_col": payload_col, "codec": codec},
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=batch_size,
        concurrency=concurrency,
        num_cpus=num_cpus,
    )


def make_fake_media_table(n: int = 64, seed: int = 0) -> pa.Table:
    """Deterministic opaque-binary media table for plumbing tests."""
    rng = np.random.default_rng(seed)
    payloads = [rng.integers(0, 256, rng.integers(64, 512), dtype=np.uint8).tobytes()
                for _ in range(n)]
    return pa.table({
        "media_id": pa.array(np.arange(n, dtype=np.int64)),
        "mm_kind": pa.array(["image"] * n),
        "mm_format": pa.array(["fake"] * n),
        "payload": pa.array(payloads, pa.binary()),
    })


class ImageResizer:
    """Actor-pool stage: decode → nearest-neighbor resize → re-emit the
    payload as raw RGB bytes (``mm_format='raw_rgb'``) with
    ``mm_width``/``mm_height`` metadata.  Same codec contract as
    :class:`ImageFeatureExtractor` (stub decode unless Pillow is
    importable or a codec is pinned); the resize math itself is real
    vectorized numpy per image."""

    def __init__(self, payload_col: str = "payload",
                 size: tuple = (4, 4), codec: Optional[Callable] = None):
        self.payload_col = payload_col
        self.h, self.w = int(size[0]), int(size[1])
        if self.h < 1 or self.w < 1:
            raise ValueError("size must be >= 1 in both dimensions")
        proto = ImageFeatureExtractor(payload_col, codec)
        self.codec, self.fake = proto.codec, proto.fake

    def __call__(self, batch: pa.Table) -> pa.Table:
        payloads = batch[self.payload_col].to_pylist()
        out_payloads = []
        missing = np.zeros(batch.num_rows, bool)
        for i, b in enumerate(payloads):
            if b is None:
                # null payload was never decoded: payload AND metadata
                # stay null (the ImageFeatureExtractor precedent — never
                # fabricate provenance for undecodable media)
                out_payloads.append(None)
                missing[i] = True
                continue
            img = self.codec(b)
            ih, iw = img.shape[0], img.shape[1]
            # nearest-neighbor: one fancy-index gather per image
            ri = (np.arange(self.h) * ih) // self.h
            ci = (np.arange(self.w) * iw) // self.w
            out_payloads.append(img[ri][:, ci].tobytes())
        n = batch.num_rows
        out = batch.drop_columns([self.payload_col])
        out = out.append_column(self.payload_col,
                                pa.array(out_payloads, pa.binary()))
        names = set(out.column_names)
        for c, v in [("mm_width", self.w), ("mm_height", self.h)]:
            arr = pa.array(np.full(n, v, np.int64), mask=missing)
            out = (out.set_column(out.column_names.index(c), c, arr)
                   if c in names else out.append_column(c, arr))
        if "mm_format" in names:
            fmt = pa.array([None if m else "raw_rgb" for m in missing],
                           pa.string())
            out = out.set_column(out.column_names.index("mm_format"),
                                 "mm_format", fmt)
        return out.append_column(
            "img_decoder_is_fake",
            pa.array(np.full(n, self.fake, dtype=bool), mask=missing))


def resize_images(ds, *, payload_col: str = "payload", size=(4, 4),
                  codec: Optional[Callable] = None, batch_size: int = 64,
                  concurrency=(2, 8), num_cpus=1):
    """Actor-pool resize stage (small batches — payloads dominate
    memory, same sizing note as :func:`add_image_features`)."""
    return ds.map_batches(
        ImageResizer,
        fn_constructor_kwargs={"payload_col": payload_col, "size": size,
                               "codec": codec},
        batch_format="pyarrow", zero_copy_batch=True,
        batch_size=batch_size, concurrency=concurrency, num_cpus=num_cpus)


def sample_frames(ds, *, payload_col: str = "payload", n_frames: int = 4,
                  frame_bytes: int = 192, batch_size: int = 32,
                  concurrency=(2, 8)):
    """Video frame sampling — FLAT-MAP: one output row per sampled
    frame, payload replaced by the frame's bytes plus ``frame_idx`` /
    ``n_frames_total`` columns.

    Stub container format (deterministic, like ``fake_decode``): the
    payload is treated as consecutive ``frame_bytes``-sized frames;
    rows shorter than one frame emit zero rows.  Sampling picks
    ``k = min(n_frames, F)`` evenly spaced frames at indices
    ``floor(j*F/k)`` for ``j in [0, k)`` (distinct because F/k >= 1) —
    a pure function of the payload length, so runs and replays agree.  A real demuxer later replaces only the
    slicing, not the Ray plumbing (row expansion, schema, sizing)."""
    if n_frames < 1 or frame_bytes < 1:
        raise ValueError("n_frames and frame_bytes must be >= 1")

    def fn(batch: pa.Table) -> pa.Table:
        payloads = batch[payload_col].to_pylist()
        keep_rows = []
        frames = []
        fidx = []
        ftot = []
        for i, b in enumerate(payloads):
            if b is None:
                continue
            F = len(b) // frame_bytes
            if F == 0:
                continue
            k = min(n_frames, F)
            for j in range(k):
                t = (j * F) // k
                keep_rows.append(i)
                frames.append(b[t * frame_bytes:(t + 1) * frame_bytes])
                fidx.append(t)
                ftot.append(F)
        base = (batch.drop_columns([payload_col])
                .take(pa.array(keep_rows, pa.int64())))
        base = base.append_column(payload_col,
                                  pa.array(frames, pa.binary()))
        base = base.append_column("frame_idx",
                                  pa.array(fidx, pa.int64()))
        return base.append_column("n_frames_total",
                                  pa.array(ftot, pa.int64()))

    return ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True,
                          batch_size=batch_size)
