"""Rotated-plane slicing of a 3-D array — analog of the reference's
``rotatespilt`` (featurebox/data/array_extract.py:18-125): sweep a plane
through a 3-D volume around one axis in fixed angle increments and emit,
per angle, a 2-D slice whose columns are the mean of the 3 grid fibers
nearest each unit step along the rotated line.

Semantics preserved from the reference (so downstream CAM-style feature
extraction sees identical slices):

* the sweep covers ``arange(0, pi, radians(angle))``; an exact ``pi/2``
  draw short-circuits to a plain axis-aligned slice at the rotate center;
* the in-plane line is ``u - u0 = tan(theta) * (v - v0)`` over the two
  non-rotation axes (meshgrid 'xy' point order), points within grid
  distance 2 of the line participate;
* the line is walked in unit steps from its min corner (min/max corner
  for obtuse angles), each step averaging the 3 points whose distance
  from the corner is nearest the step index (``argpartition`` selection);
* a draw whose line clips a corner with <= 3 candidate points is skipped
  with a warning (reference raises/catches ``UserWarning``).

Implementation differs from the reference (which loops Python-level per
step and gathers fibers one at a time): the step/candidate distance
matrix is built once and ``argpartition``-ed along its axis, and all
fibers are gathered with one fancy index + one mean reduction per angle.

For Ray pipelines, ``rotate_slices_fn`` wraps the kernel as a
``map_batches``-compatible transform over a table of flattened volumes
(``tensor`` list<float> + ``shape`` list<int>), emitting one row per
(volume, angle) with the flattened slice — each volume is independent,
so blocks scale out with no shuffle.
"""

from __future__ import annotations

import math
import warnings
from typing import List, Optional, Tuple

import numpy as np
import pyarrow as pa

__all__ = ["rotate_slice", "rotate_slices", "rotatespilt", "rotate_slices_fn"]


def _plane_axes(shape: Tuple[int, ...], axis: int) -> Tuple[int, ...]:
    """Dims of the two non-rotation axes, in axis order."""
    return tuple(s for a, s in enumerate(shape) if a != axis)


def _gather_fibers(vol: np.ndarray, axis: int, uu: np.ndarray,
                   vv: np.ndarray) -> np.ndarray:
    """Fibers along ``axis`` at in-plane coords (uu, vv) → (len_axis, *uu.shape)."""
    if axis == 0:
        return vol[:, uu, vv]
    if axis == 1:
        # reference quirk preserved: the (u, v) point indexes (axis0, axis2)
        return np.moveaxis(vol[uu, :, vv], -1, 0)
    return np.moveaxis(vol[uu, vv, :], -1, 0)


def rotate_slice(vol: np.ndarray, theta: float, axis: int = 0,
                 axis_site: Optional[Tuple[float, float]] = None) -> np.ndarray:
    """One rotated-plane slice of ``vol`` at angle ``theta`` (radians).

    Raises ``UserWarning`` when the line clips a corner with too few
    candidate points (caller decides whether to skip, as the sweep does).
    """
    if vol.ndim != 3:
        raise ValueError("rotate_slice expects a 3-D array")
    if axis_site is None:
        axis_site = (0.0, 0.0)
    dims = _plane_axes(vol.shape, axis)
    u0 = int(axis_site[0] * dims[0])
    v0 = int(axis_site[1] * dims[1])

    if theta == np.pi / 2:
        # axis-aligned short-circuit (reference array_extract.py:62-70,
        # including the axis==1 branch slicing axis 0 at the center)
        if axis == 0:
            return np.squeeze(vol[:, [u0], :])
        if axis == 1:
            return np.squeeze(vol[[u0], :, :])
        return np.squeeze(vol[:, :, [u0]])

    # candidate points within grid distance 2 of the in-plane line
    vv, uu = np.meshgrid(np.arange(dims[1]), np.arange(dims[0]))
    uu = uu.ravel(order="F")  # meshgrid('xy') ravel order: v-major
    vv = vv.ravel(order="F")
    line_gap = np.abs((uu - u0) - math.tan(theta) * (vv - v0))
    keep = line_gap < 2
    pu, pv = uu[keep], vv[keep]
    if pu.size <= 3:
        raise UserWarning(
            "slice clips a corner with too few points; change axis_site "
            "or the angle")

    span = np.array([pu.max() - pu.min(), pv.max() - pv.min()], np.float64)
    n_steps = int(math.sqrt(float(span @ span))) + 1
    if theta < 1.57:
        corner = (pu.min(), pv.min())
    else:
        corner = (pu.min(), pv.max())
    dist = np.sqrt((pu - corner[0]) ** 2.0 + (pv - corner[1]) ** 2.0)

    # 3 nearest candidates per unit step, selected in one partition pass
    gap = np.abs(dist[None, :] - np.arange(n_steps, dtype=np.float64)[:, None])
    near = np.argpartition(gap, 3, axis=1)[:, :3]          # (n_steps, 3)
    fibers = _gather_fibers(vol, axis, pu[near], pv[near])  # (L, n_steps, 3)
    return fibers.mean(axis=2)


def rotate_slices(vol: np.ndarray, angle: float = 10, axis: int = 0,
                  axis_site: Optional[Tuple[float, float]] = None,
                  resize: bool = False) -> List[np.ndarray]:
    """Angle sweep: one 2-D slice per ``theta in arange(0, pi, radians(angle))``,
    skipping (with a warning) draws that clip a corner.  ``resize`` is
    accepted for signature parity and is a no-op (reference's
    ``data_resize`` is the identity, array_extract.py:14-15)."""
    step = np.pi / 180.0 * angle
    out: List[np.ndarray] = []
    for theta in np.arange(0, np.pi, step):
        try:
            out.append(rotate_slice(vol, theta, axis=axis,
                                    axis_site=axis_site))
        except UserWarning:
            with warnings.catch_warnings():
                # local 'always' filter: the skip notice must not itself
                # raise under -W error / pytest filterwarnings=error
                warnings.simplefilter("always")
                warnings.warn(f"skipped angle {theta / np.pi * 180:.1f} deg "
                              "(corner clip)")
    return out


# reference-spelled alias (array_extract.py:18)
rotatespilt = rotate_slices


def rotate_slices_fn(batch, *, angle: float = 30, axis: int = 0,
                     tensor_col: str = "tensor", shape_col: str = "shape",
                     id_col: str = "vol_id"):
    """``map_batches`` wrapper: rows of flattened volumes → one row per
    (volume, angle) with the flattened slice + its 2-D shape.  Pure
    per-row fan-out (no state, no shuffle) — volumes of 100 TB corpora
    scale out block-parallel."""
    tensors = batch[tensor_col].to_pylist()
    shapes = batch[shape_col].to_pylist()
    ids = batch[id_col].to_pylist()
    out_id, out_angle, out_slice, out_shape = [], [], [], []
    for vid, flat, shp in zip(ids, tensors, shapes):
        vol = np.asarray(flat, np.float64).reshape(shp)
        step = np.pi / 180.0 * angle
        for theta in np.arange(0, np.pi, step):
            try:
                sl = rotate_slice(vol, theta, axis=axis)
            except UserWarning:
                continue
            out_id.append(vid)
            out_angle.append(round(theta / np.pi * 180.0, 6))
            out_slice.append(sl.ravel().tolist())
            out_shape.append(list(sl.shape))
    return pa.table({
        # explicit type: an all-clipped/empty batch must not emit a
        # null-typed id column that can't unify with sibling blocks
        id_col: pa.array(out_id, type=batch[id_col].type),
        "angle_deg": pa.array(out_angle, pa.float64()),
        "slice": pa.array(out_slice, pa.list_(pa.float64())),
        "slice_shape": pa.array(out_shape, pa.list_(pa.int64())),
    })
