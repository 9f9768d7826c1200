"""Distributed file-tree discovery, filtering, staging and VASP-text
ingest — the Ray-native analog of the reference's batch file tooling
(``featurebox/tools/imports.py:206-344`` ``check_file``/``BatchFile``:
recursive walk → ``[dir_segments, name]`` records, substring filters on
file name / joined dir layers, merge-path naming, parallel copy) and of
``data/fetcher_vasp.py`` (BatchFile + a VASP input reader — pymatgen
there; a stdlib POSCAR text parser here, the format is public).

Design: discovery fans the FIRST-LEVEL subtrees out as Ray tasks (one
``os.walk`` per subtree — the driver never walks the whole tree), and
everything downstream is an ordinary Dataset of file-metadata rows
``(path, dirs:list<string>, name, size)``, so filters are vectorized
batch ops and the copy/parse stages are ``map_batches`` tasks.  File
metadata is ~100 bytes/row: a billion-file tree is a ~100 GB dataset —
stream it, never collect it.

Cluster note: paths must resolve on every node (shared filesystem /
mounted object store); single-node semantics are identical.
"""

from __future__ import annotations

import os
from typing import Optional, Sequence

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

_META_SCHEMA = pa.schema([
    ("path", pa.string()),
    ("dirs", pa.list_(pa.string())),
    ("name", pa.string()),
    ("size", pa.int64()),
])


def _walk_subtree(root: str, rel_prefix: list, suffix: Optional[str]):
    rows = []
    for dirpath, _dirnames, filenames in os.walk(root):
        rel = os.path.relpath(dirpath, root)
        segs = list(rel_prefix) + ([] if rel == "." else rel.split(os.sep))
        for f in sorted(filenames):
            if suffix is not None:
                want = ("." + suffix) if suffix else ""
                if os.path.splitext(f)[1] != want:
                    continue
            p = os.path.join(dirpath, f)
            try:
                size = os.path.getsize(p)
            except OSError:
                size = -1
            rows.append((p, segs, f, size))
    return rows


def _rows_to_table(rows) -> pa.Table:
    if not rows:
        return _META_SCHEMA.empty_table()
    return pa.table({
        "path": pa.array([r[0] for r in rows], pa.string()),
        "dirs": pa.array([r[1] for r in rows], pa.list_(pa.string())),
        "name": pa.array([r[2] for r in rows], pa.string()),
        "size": pa.array([r[3] for r in rows], pa.int64()),
    })


def discover_files(root: str, *, suffix: Optional[str] = None):
    """Recursive parallel file discovery → Dataset of metadata rows.

    ``suffix`` mirrors the reference's ``check_file``: ``None`` keeps
    every file, ``""`` keeps extension-less files, ``"xml"`` keeps
    ``*.xml``.  ``dirs`` holds the dir segments relative to ``root``
    (empty list for files directly under it).
    """
    import ray

    root = os.path.abspath(root)
    try:
        entries = sorted(os.listdir(root))
    except FileNotFoundError:
        raise FileNotFoundError(f"discover_files root {root!r} not found")
    subtrees = []           # (abs_path, rel_prefix_segments)
    top_rows = []
    for e in entries:
        p = os.path.join(root, e)
        if os.path.isdir(p):
            subtrees.append((p, [e]))
        else:
            top_rows.extend(_walk_subtree_filelike(p, e, suffix))
    if not subtrees:
        return ray.data.from_arrow(_rows_to_table(top_rows))

    def walk(batch: pa.Table) -> pa.Table:
        rows = []
        for p, seg in zip(batch["sub"].to_pylist(),
                          batch["seg"].to_pylist()):
            rows.extend(_walk_subtree(p, seg, suffix))
        return _rows_to_table(rows)

    sub_ds = ray.data.from_arrow(pa.table({
        "sub": pa.array([s for s, _ in subtrees], pa.string()),
        "seg": pa.array([g for _, g in subtrees], pa.list_(pa.string())),
    })).repartition(min(len(subtrees), 16))
    out = sub_ds.map_batches(walk, batch_format="pyarrow")
    if top_rows:
        out = out.union(
            ray.data.from_arrow(_rows_to_table(top_rows)))
    return out


def _walk_subtree_filelike(path: str, name: str, suffix: Optional[str]):
    if suffix is not None:
        want = ("." + suffix) if suffix else ""
        if os.path.splitext(name)[1] != want:
            return []
    try:
        size = os.path.getsize(path)
    except OSError:
        size = -1
    return [(path, [], name, size)]


def _layer_join(dirs_col: pa.ChunkedArray, layer) -> pa.Array:
    """Join the dir segments at ``layer`` (int or list of ints, python
    negative indexing like the reference) into one string per row;
    out-of-range layers contribute ''."""
    if isinstance(layer, int):
        layer = [layer]
    arr = dirs_col.combine_chunks()
    off = np.asarray(arr.offsets, dtype=np.int64)
    base, off = off[0], None
    off = np.asarray(arr.offsets, dtype=np.int64) - base
    flat = arr.values.slice(base)  # rebase like split_tokens
    lens = np.diff(off)
    n = len(lens)
    if len(flat) == 0:
        # every row has an empty dirs list -> every layer joins to ""
        return pa.array([""] * n, pa.string())
    parts = []
    for li in layer:
        idx = np.where(li < 0, off[1:] + li, off[:-1] + li)
        ok = (li < 0) & (lens + li >= 0) | (li >= 0) & (li < lens)
        safe = np.where(ok, idx, 0)
        vals = flat.take(pa.array(safe, pa.int64()))
        vals = pc.if_else(pa.array(ok), vals, pa.scalar("", pa.string()))
        parts.append(vals)
    out = parts[0]
    for p in parts[1:]:
        out = pc.binary_join_element_wise(out, p, "")
    return out


def filter_files(ds, *, name_include: Optional[str] = None,
                 name_exclude: Optional[str] = None,
                 dir_include: Optional[str] = None,
                 dir_exclude: Optional[str] = None,
                 layer=-1):
    """Substring filters with the reference's semantics
    (``BatchFile.filter_file_name`` / ``filter_dir_name``): include and
    exclude may combine; dir matching joins the segments at ``layer``."""
    if (name_include is None and name_exclude is None
            and dir_include is None and dir_exclude is None):
        raise TypeError("one of the include/exclude filters must be set")

    def f(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return batch
        mask = np.ones(batch.num_rows, bool)
        if name_include is not None or name_exclude is not None:
            name = batch["name"]
            if name_include is not None:
                mask &= np.asarray(
                    pc.match_substring(name, name_include))
            if name_exclude is not None:
                mask &= ~np.asarray(
                    pc.match_substring(name, name_exclude))
        if dir_include is not None or dir_exclude is not None:
            joined = _layer_join(batch["dirs"], layer)
            if dir_include is not None:
                mask &= np.asarray(
                    pc.match_substring(joined, dir_include))
            if dir_exclude is not None:
                mask &= ~np.asarray(
                    pc.match_substring(joined, dir_exclude))
        return batch.filter(pa.array(mask))

    return ds.map_batches(f, batch_format="pyarrow", zero_copy_batch=True)


def merge_paths(batch: pa.Table, new_root: str, *, flatten: bool = True,
                add_dir: Sequence[int] = (-3, -2, -1)) -> list:
    """Destination path per row (reference ``BatchFile.merge``):
    ``flatten=True`` joins the ``add_dir`` segments + name with ``_`` in
    one directory; ``flatten=False`` keeps them as sub-directories."""
    dests = []
    for dirs, name in zip(batch["dirs"].to_pylist(),
                          batch["name"].to_pylist()):
        segs = [dirs[i] if -len(dirs) <= i < len(dirs) else ""
                for i in add_dir]
        if flatten:
            dests.append(os.path.join(new_root, "_".join(segs + [name])))
        else:
            dests.append(os.path.join(new_root, *segs, name))
    return dests


def stage_files(ds, new_root: str, *, flatten: bool = True,
                add_dir: Sequence[int] = (-3, -2, -1)):
    """Distributed copy into ``new_root`` (reference
    ``BatchFile.to_path``), returning a Dataset of ``(src, dest)``.
    Raises on destination collisions like the reference (detected
    distributed: per-destination count via the keyed exchange, no
    driver-side set)."""
    import shutil

    from ..stages.partition import partitioned_map

    def add_dest(batch: pa.Table) -> pa.Table:
        dests = merge_paths(batch, new_root, flatten=flatten,
                            add_dir=add_dir)
        return pa.table({"src": batch["path"],
                         "dest": pa.array(dests, pa.string())})

    planned = ds.map_batches(add_dest, batch_format="pyarrow",
                             zero_copy_batch=True)

    def check_and_copy(t: pa.Table) -> pa.Table:
        dest = t["dest"]
        uniq = pc.unique(dest)
        if len(uniq) < t.num_rows:
            counts = pa.table({"d": dest}).group_by("d").aggregate(
                [("d", "count")])
            dup = counts.filter(
                pc.greater(counts["d_count"], 1))["d"].to_pylist()
            raise ValueError(
                "stage_files: destination collisions after flatten "
                f"(first: {dup[:3]}); widen add_dir like the reference "
                "suggests")
        for s, d in zip(t["src"].to_pylist(), dest.to_pylist()):
            os.makedirs(os.path.dirname(d), exist_ok=True)
            shutil.copy(s, d)
        return t

    # keyed on dest so every copy of a colliding name lands in ONE kernel
    return partitioned_map(planned, check_and_copy, key="dest",
                           sort_keys=["dest"], num_partitions=8)


# ------------------------------------------------------------ POSCAR ----

def parse_poscar_text(text: str) -> dict:
    """Minimal VASP-5 POSCAR parser (public text format): comment, scale,
    3 lattice rows, species names, species counts, coordinate mode +
    coords.  Returns plain scalars/lists; volume uses the explicit
    cofactor determinant (stable op order for oracle replay)."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    comment = lines[0]
    scale = float(lines[1])
    lat = [[float(x) for x in lines[2 + i].split()[:3]] for i in range(3)]
    species = lines[5].split()
    counts = [int(x) for x in lines[6].split()]
    mode = lines[7].lower()
    n_atoms = int(sum(counts))
    coords = []
    for ln in lines[8:8 + n_atoms]:
        xs = ln.split()
        coords.append((float(xs[0]), float(xs[1]), float(xs[2])))
    (a, b, c), (d, e, f), (g, h, i) = lat
    det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    return {"comment": comment, "scale": scale, "lattice": lat,
            "species": species, "counts": counts,
            "cartesian": mode.startswith(("c", "k")),
            "n_atoms": n_atoms, "coords": coords,
            "volume": (scale * scale * scale) * det}


def read_poscar_fn(batch: pa.Table) -> pa.Table:
    """Batch kernel: read+parse each row's ``path`` (a POSCAR file) and
    emit flat scalars — the fetcher_vasp ingest shape (one task per
    metadata block; file IO inside the task, never on the driver)."""
    paths = batch["path"].to_pylist()
    rows = {"path": paths, "comment": [], "scale": [], "n_atoms": [],
            "volume": [], "x_sum": []}
    for p in paths:
        with open(p, "r", encoding="utf-8") as fh:
            rec = parse_poscar_text(fh.read())
        rows["comment"].append(rec["comment"])
        rows["scale"].append(rec["scale"])
        rows["n_atoms"].append(rec["n_atoms"])
        rows["volume"].append(rec["volume"])
        # exact binary fractions -> order-independent exact sum
        rows["x_sum"].append(float(np.sum([c[0] for c in rec["coords"]])))
    return pa.table({
        "path": pa.array(rows["path"], pa.string()),
        "comment": pa.array(rows["comment"], pa.string()),
        "scale": pa.array(rows["scale"], pa.float64()),
        "n_atoms": pa.array(rows["n_atoms"], pa.int64()),
        "volume": pa.array(rows["volume"], pa.float64()),
        "x_sum": pa.array(rows["x_sum"], pa.float64()),
    })
