"""Distributed HTTP-JSON record ingest — analog of the reference's
``data_fetcher`` / ``get_ids`` (featurebox/data/fetcher_pymatgen.py:22-74),
which chunk an id list into groups of 20, query a REST endpoint per chunk
(``{"material_id": {"$in": [...]}}`` + a property list), flatten the nested
``elasticity`` record into top-level columns, and assemble an id-indexed,
column-sorted, transposed DataFrame.

The reference talks to one hard-coded external service through a client
library; here the endpoint is a parameter and the fetch fans out as a Ray
Data stage, so a 10⁸-id ingest is block-parallel with bounded request
sizes instead of a serial driver loop:

    ids → ray.data.from_arrow → map_batches(JsonApiFetcher, concurrency=N)

Each task POSTs ``{"criteria": {id_field: {"$in": [ids...]}},
"properties": [...]}`` per ``chunk_size`` ids and emits one row per
returned record.  Declared-numeric properties become float64 columns;
everything else is JSON-encoded text (nested spacegroup / composition
dicts survive any Arrow schema), so blocks from different tasks always
unify.  ``data_fetcher`` is the small-result driver convenience with the
reference's exact frame shape (id index, ``composition`` rename, sorted
columns, transposed).
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from typing import Iterable, List, Optional, Sequence

import numpy as np
import pyarrow as pa
import ray

# the reference's default property list (fetcher_pymatgen.py:35-49)
MP_PROPS = [
    "band_gap", "density", "volume", "material_id", "pretty_formula",
    "elements", "efermi", "e_above_hull", "formation_energy_per_atom",
    "final_energy_per_atom", "unit_cell_formula", "spacegroup", "nelements",
]
MP_NUMERIC = (
    "band_gap", "density", "volume", "efermi", "e_above_hull",
    "formation_energy_per_atom", "final_energy_per_atom", "nelements",
)


def _post_json(url: str, payload: dict, timeout: float, retries: int) -> list:
    body = json.dumps(payload).encode()
    last: Optional[Exception] = None
    for attempt in range(retries + 1):
        try:
            req = urllib.request.Request(
                url, data=body, headers={"Content-Type": "application/json"})
            with urllib.request.urlopen(req, timeout=timeout) as resp:
                return json.loads(resp.read().decode())
        except urllib.error.HTTPError as exc:
            if 400 <= exc.code < 500:  # deterministic client error: no retry
                raise RuntimeError(f"fetch rejected ({exc.code}) for {url}")
            last = exc
        except Exception as exc:  # noqa: BLE001 — transient transport error
            last = exc
        if attempt < retries:
            time.sleep(0.2 * (2 ** attempt))
    raise RuntimeError(f"fetch failed after {retries + 1} attempts: {last}")


class JsonApiFetcher:
    """Stateful ``map_batches`` stage: ids in, fetched records out.

    One instance per actor/worker; the urllib opener and the resolved
    column plan live across batches.  ``flatten`` names a nested-record
    property whose DECLARED keys (``flatten_keys``) are promoted to
    top-level float64 columns, null-filled when absent — declared, not
    discovered, so every block emits the identical schema (the
    reference's dynamic elasticity update, fetcher_pymatgen.py:60-64,
    happens at the driver in ``data_fetcher``).
    """

    def __init__(self, endpoint: str, props: Sequence[str] = tuple(MP_PROPS),
                 *, id_field: str = "material_id", chunk_size: int = 20,
                 numeric_props: Sequence[str] = MP_NUMERIC,
                 flatten: Optional[str] = None,
                 flatten_keys: Sequence[str] = (),
                 timeout: float = 30.0, retries: int = 2):
        self.endpoint = endpoint
        self.props = list(props)
        if id_field not in self.props:
            self.props.append(id_field)
        if flatten and flatten not in self.props:
            self.props.append(flatten)
        self.id_field = id_field
        self.chunk_size = max(1, int(chunk_size))
        self.numeric = set(numeric_props)
        self.flatten = flatten
        self.flatten_keys = list(flatten_keys)
        self.timeout = timeout
        self.retries = retries

    def _fetch(self, ids: List) -> List[dict]:
        out: List[dict] = []
        for lo in range(0, len(ids), self.chunk_size):
            chunk = ids[lo:lo + self.chunk_size]
            payload = {"criteria": {self.id_field: {"$in": chunk}},
                       "properties": self.props}
            out.extend(_post_json(self.endpoint, payload,
                                  self.timeout, self.retries))
        if self.flatten and self.flatten_keys:
            for rec in out:
                nested = rec.get(self.flatten)
                if isinstance(nested, dict):
                    for k in self.flatten_keys:
                        rec.setdefault(k, nested.get(k))
        return out

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch[self.id_field].to_pylist()
        recs = self._fetch(ids)
        arrays, names = [], []
        for c in self.props + [k for k in self.flatten_keys
                               if k not in self.props]:
            vals = [r.get(c) for r in recs]
            if c == self.id_field:
                arr = pa.array([None if v is None else str(v) for v in vals],
                               pa.string())
            elif c in self.numeric or c in self.flatten_keys:
                arr = pa.array(
                    np.array([np.nan if v is None else float(v)
                              for v in vals], np.float64),
                    pa.float64())
            else:
                arr = pa.array(
                    [None if v is None else json.dumps(v, sort_keys=True)
                     for v in vals], pa.string())
            arrays.append(arr)
            names.append(c)
        return pa.table(dict(zip(names, arrays)))


def fetch_records(endpoint: str, ids: Iterable, *,
                  props: Sequence[str] = tuple(MP_PROPS),
                  id_field: str = "material_id",
                  chunk_size: int = 20,
                  numeric_props: Sequence[str] = MP_NUMERIC,
                  flatten: Optional[str] = None,
                  flatten_keys: Sequence[str] = (),
                  concurrency: Optional[int] = None,
                  rows_per_task: int = 200,
                  timeout: float = 30.0, retries: int = 2):
    """Fan the id list out as a Dataset and fetch block-parallel.

    Schema-stable across blocks: id column string, declared numerics and
    ``flatten_keys`` float64, everything else JSON text.  Blocks carry
    ``rows_per_task`` ids each (= ``rows_per_task / chunk_size`` requests
    per task) so request-level parallelism is ``concurrency``-bounded,
    polite to the endpoint, and resumable at block granularity.

    ``ids`` may be a ``ray.data.Dataset`` carrying an ``id_field`` string
    column — the at-scale path: a 10⁸-id table never touches the driver,
    the fetch rides the Dataset's own blocks.
    """
    if hasattr(ids, "map_batches"):  # already a Dataset of ids
        ds = ids
    else:
        id_list = list(ids)
        tbl = pa.table({id_field: pa.array([str(i) for i in id_list])})
        n_blocks = max(1, (len(id_list) + rows_per_task - 1) // rows_per_task)
        ds = ray.data.from_arrow(tbl).repartition(n_blocks)
    fetcher = JsonApiFetcher(
        endpoint, props, id_field=id_field, chunk_size=chunk_size,
        numeric_props=numeric_props, flatten=flatten,
        flatten_keys=flatten_keys, timeout=timeout, retries=retries)
    kw = {"concurrency": concurrency} if concurrency else {}
    return ds.map_batches(fetcher, batch_format="pyarrow",
                          batch_size=rows_per_task, **kw)


def data_fetcher(endpoint: str, mp_ids: Iterable, *, elasticity: bool = True,
                 chunk_size: int = 20, timeout: float = 30.0,
                 retries: int = 2):
    """Reference-parity convenience (fetcher_pymatgen.py:22-74): fetch the
    default property set for ``mp_ids`` and return the id-indexed,
    column-sorted, TRANSPOSED pandas frame (properties as rows), with
    ``unit_cell_formula`` renamed ``composition`` and nested JSON decoded
    back to Python objects.  Small results only — the Dataset from
    ``fetch_records`` is the at-scale surface."""
    props = list(MP_PROPS) + (["elasticity"] if elasticity else [])
    ds = fetch_records(endpoint, mp_ids, props=props,
                       chunk_size=chunk_size, timeout=timeout,
                       retries=retries)
    df = ds.to_pandas()

    def _maybe_json(v):
        if not (isinstance(v, str) and v and v[0] in "[{\"-0123456789tfn"):
            return v
        try:
            return json.loads(v)
        except ValueError:
            return v

    for c in df.columns:  # decode JSON text columns back to objects
        if df[c].dtype == object and c != "material_id":
            df[c] = df[c].map(_maybe_json)
    if elasticity and "elasticity" in df.columns:
        # reference's dynamic flatten (fetcher_pymatgen.py:60-64) — at the
        # driver, where per-record key discovery can't skew block schemas
        nested = df.pop("elasticity")
        extra = {}
        for idx, rec in nested.items():
            if isinstance(rec, dict):
                for k, v in rec.items():
                    extra.setdefault(k, {})[idx] = v
        for k, col in extra.items():
            if k not in df.columns:
                df[k] = df.index.to_series().map(
                    lambda i: col.get(i, np.nan)).astype(object)
        df["elasticity"] = nested
    df.index = df["material_id"]
    df = df.rename(columns={"unit_cell_formula": "composition"})
    df = df.reindex(columns=sorted(df.columns))
    return df.T


def get_ids(endpoint: str, criteria: dict, *, id_field: str = "material_id",
            timeout: float = 30.0, retries: int = 2) -> List[str]:
    """Query the endpoint for the ids matching ``criteria`` (reference
    ``get_ids``, fetcher_pymatgen.py:77-105 — criteria use the Mongo-style
    operators documented there)."""
    recs = _post_json(endpoint, {"criteria": criteria,
                                 "properties": [id_field]},
                      timeout, retries)
    return [str(r[id_field]) for r in recs if id_field in r]
