"""Adversarial keys through the per-input gather: ``hash_join``,
``cogroup``, ``asof_join`` and ``fused_features_backfill`` against DuckDB
(and ``tests/oracle.py`` for the window features), at 1, 3 and 8
partitions over 1 or 8 blocks per input.

Keys: NULL next to ``""`` and a string spelled like a NULL stand-in; a
``large_string`` right key against a ``string`` left key; an ``int32``
right key against an ``int64`` left key; int64 values above 2^53 that
differ only past float64 precision.  Timestamps tie at equal ``(key,
ts)`` on both sides, some are NULL, and tied right rows carry NULL
values, so the as-of tie rule (largest value tuple, NULL largest) is
exercised.
"""

import duckdb
import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest
import ray

from featurebox_ray.pipelines.transcript import fused_features_backfill
from featurebox_ray.stages.asof import asof_join
from featurebox_ray.stages.join import cogroup, hash_join
from featurebox_ray.stages.partition import materialized_block_refs
from featurebox_ray.stages.scalar import add_scalar_features
from featurebox_ray.stages.window import WindowSpec

from .oracle import oracle_features

LAYOUTS = [(1, 1), (1, 8), (3, 1), (3, 8), (8, 1), (8, 8)]
KINDS = ["str", "i32", "big"]
# the ts order the engine documents: NULL after every non-NULL ts of its
# key, NULLs tied with each other
BIG = 2 ** 62


def _key_arrays(kind, rng, nl, nr):
    if kind == "str":
        pool = [None, "", "a", "\x00null", "k1", "k2"]
        ltype, rtype = pa.string(), pa.large_string()
    elif kind == "i32":
        pool = [None, -3, 0, 7, 2 ** 31 - 1]
        ltype, rtype = pa.int64(), pa.int32()
    else:
        pool = [None, 2 ** 53 + 1, 2 ** 53 + 2, 2 ** 62, -(2 ** 60)]
        ltype, rtype = pa.int64(), pa.int64()
    return (pa.array([pool[i] for i in rng.integers(0, len(pool), nl)], ltype),
            pa.array([pool[i] for i in rng.integers(0, len(pool), nr)], rtype))


def _maybe_null(rng, values, p):
    return [None if rng.random() < p else v for v in values]


def _sides(kind, seed=7, null_ts=True):
    rng = np.random.default_rng(seed)
    nl, nr = 240, 160
    lk, rk = _key_arrays(kind, rng, nl, nr)

    def ts(n):
        v = (rng.integers(0, 8, n) * 1_000_000).tolist()
        return pa.array(_maybe_null(rng, v, 0.1 if null_ts else 0.0),
                        pa.timestamp("us"))

    left = pa.table({"k": lk, "ts": ts(nl),
                     "id": pa.array(np.arange(nl), pa.int64()),
                     "lv": pa.array(rng.integers(-9, 9, nl), pa.int64())})
    right = pa.table({
        "rk": rk, "rts": ts(nr),
        "rid": pa.array(np.arange(nr), pa.int64()),
        "val": pa.array(_maybe_null(rng, rng.integers(0, 3, nr).tolist(),
                                    0.25), pa.int64()),
        "lab": pa.array(_maybe_null(rng, rng.choice(["x", "y"], nr).tolist(),
                                    0.25), pa.string())})
    return left, right


def _ds(table, blocks):
    ds = ray.data.from_arrow(table)
    return ds.repartition(blocks) if blocks > 1 else ds


def _table(ds) -> pa.Table:
    return pa.concat_tables(ray.get(materialized_block_refs(ds)),
                            promote_options="default")


def _rows(table: pa.Table, cols):
    """Rows of ``cols`` as a sorted list (exact Python values)."""
    rows = zip(*(table[c].to_pylist() for c in cols))
    return sorted(rows, key=lambda r: tuple((v is None, v) for v in r))


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("num_partitions,blocks", LAYOUTS)
def test_hash_join_adversarial_keys(kind, num_partitions, blocks):
    left, right = _sides(kind)
    con = duckdb.connect()
    con.register("l", left)
    con.register("r", right)
    cols = ["k", "ts", "id", "lv", "rts", "rid", "val", "lab"]
    for how, sql in (("inner", "JOIN"), ("left", "LEFT JOIN"),
                     ("full", "FULL JOIN")):
        got = _table(hash_join(_ds(left, blocks), _ds(right, blocks), on="k",
                               right_on="rk", how=how,
                               num_partitions=num_partitions))
        assert got.column_names == cols
        assert got.schema.field("k").type == left.schema.field("k").type
        want = con.sql(
            "SELECT CAST(coalesce(l.k, r.rk) AS "
            f"{'VARCHAR' if kind == 'str' else 'BIGINT'}) AS k, l.ts, l.id, "
            f"l.lv, r.rts, r.rid, r.val, r.lab FROM l {sql} r ON l.k = r.rk"
        ).arrow()
        assert _rows(got, cols) == _rows(want, cols), how


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("num_partitions,blocks", LAYOUTS)
def test_cogroup_adversarial_keys(kind, num_partitions, blocks):
    """Per key (NULL one key of its own) each side's rows reach exactly
    one kernel call, each side sorted by (key, its sort keys)."""
    left, right = _sides(kind)

    def per_key(lt: pa.Table, rt: pa.Table) -> pa.Table:
        out = []
        for side, t, ts in ((0, lt, "ts"), (1, rt, "rts")):
            order = pc.sort_indices(t, sort_keys=[("k", "ascending"),
                                                  (ts, "ascending")])
            ok = np.array_equal(order.to_numpy(), np.arange(t.num_rows))
            n = t.group_by("k").aggregate(
                [("id" if side == 0 else "rid", "count")])
            out.append(pa.table({
                "k": n["k"], "side": pa.array([side] * n.num_rows, pa.int8()),
                "n": n.column(1),
                "sorted": pa.array([ok] * n.num_rows, pa.bool_())}))
        return pa.concat_tables(out)

    got = _table(cogroup(_ds(left, blocks), _ds(right, blocks), on="k",
                         right_on="rk", kernel=per_key,
                         sort_keys=("ts", "rts"),
                         num_partitions=num_partitions))
    assert all(got["sorted"].to_pylist())
    con = duckdb.connect()
    con.register("l", left)
    con.register("r", right)
    want = con.sql(
        "SELECT k, 0::TINYINT AS side, count(*) AS n FROM l GROUP BY k "
        "UNION ALL SELECT rk, 1::TINYINT, count(*) FROM r GROUP BY rk"
    ).arrow()
    assert _rows(got, ["k", "side", "n"]) == _rows(want, ["k", "side", "n"])


def _asof_oracle(left, right, direction, strict, tol_us=None):
    """``{id: (val, lab)}`` of the engine's documented as-of rule, with
    the candidates and the tie order taken from DuckDB."""
    con = duckdb.connect()
    con.register("l", left)
    con.register("r", right)

    def pick(cond, order):
        got = con.sql(f"""
            SELECT id, val, lab, rt FROM (
              SELECT l.id, r.val, r.lab, epoch_us(r.rts) AS rt,
                     row_number() OVER (PARTITION BY l.id ORDER BY {order})
                       AS rn
              FROM (SELECT *, coalesce(epoch_us(ts), {BIG}) AS lx FROM l) l
              JOIN (SELECT *, coalesce(epoch_us(rts), {BIG}) AS rx FROM r) r
                ON l.k = r.rk
              WHERE {cond}) WHERE rn = 1""").fetchall()
        return {i: (v, lab, rt) for i, v, lab, rt in got}

    back_order = "rx DESC, val DESC NULLS FIRST, lab DESC NULLS FIRST"
    fwd_order = "rx ASC, val ASC NULLS LAST, lab ASC NULLS LAST"
    lts = dict(zip(left["id"].to_pylist(),
                   pc.cast(left["ts"], pa.int64()).to_pylist()))
    if direction == "backward":
        match = pick("rx < lx" if strict else "rx <= lx", back_order)
    elif direction == "forward":
        match = pick("rx > lx" if strict else "rx >= lx", fwd_order)
    else:
        # the backward candidate unless the forward one is strictly
        # closer; a gap to or from a NULL ts is undefined and leaves
        # the forward candidate
        back = pick("rx <= lx", back_order)
        fwd = pick("rx > lx", fwd_order)
        match = {}
        for i, t in lts.items():
            b, f = back.get(i), fwd.get(i)
            undefined = ((b is not None and (t is None or b[2] is None))
                         or (f is not None and (t is None or f[2] is None)))
            gb = BIG if b is None else (0 if undefined else t - b[2])
            gf = BIG if f is None else (0 if undefined else f[2] - t)
            m = f if undefined or gb > gf else b
            if m is not None:
                match[i] = m
    out = {}
    for i, t in lts.items():
        m = match.get(i)
        if m is not None and tol_us is not None and (
                t is None or m[2] is None or abs(t - m[2]) > tol_us):
            m = None
        out[i] = (None, None) if m is None else m[:2]
    return out


ASOF_CASES = [("backward", False, None), ("backward", True, None),
              ("forward", False, None), ("forward", True, None),
              ("nearest", False, None), ("backward", False, 2.0),
              ("nearest", False, 1.0)]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("num_partitions,blocks", LAYOUTS)
def test_asof_join_adversarial_keys(kind, num_partitions, blocks):
    left, right = _sides(kind)
    right_ds = _ds(right.rename_columns(["k", "ts", "rid", "val", "lab"]),
                   blocks)
    for direction, strict, tol in ASOF_CASES:
        got = _table(asof_join(_ds(left, blocks), right_ds, key="k",
                               ts_col="ts", right_cols=["val", "lab"],
                               strict=strict, direction=direction,
                               tolerance_s=tol, order_col="id",
                               num_partitions=num_partitions))
        assert got.column_names == ["k", "ts", "id", "lv", "val", "lab"]
        assert got.num_rows == left.num_rows
        want = _asof_oracle(left, right, direction, strict,
                            None if tol is None else int(tol * 1_000_000))
        have = dict(zip(got["id"].to_pylist(),
                        zip(got["val"].to_pylist(), got["lab"].to_pylist())))
        assert have == want, (direction, strict, tol)


def _transcripts(kind, seed=11):
    """Transcript-shaped left side (unique ts per key, so the window
    oracle's time frames are unambiguous) and a feature table whose
    timestamps hit the left ones exactly half the time."""
    rng = np.random.default_rng(seed)
    nl, nr = 240, 120
    lk, rk = _key_arrays(kind, rng, nl, nr)
    ts = (np.arange(nl) * 60 + rng.integers(0, 30, nl)) * 1_000_000
    words = np.array(["tool", "ok", "the", "run", "a", "fails"])
    texts = [" ".join(rng.choice(words, rng.integers(0, 6)))
             for _ in range(nl)]
    left = pa.table({
        "conv_id": lk, "ts": pa.array(ts, pa.timestamp("us")),
        "turn_idx": pa.array(np.arange(nl), pa.int64()),
        "role": pa.array(rng.choice(["user", "assistant", "tool"], nl)),
        "text": pa.array(texts),
        "tool": pa.array(_maybe_null(rng, ["search"] * nl, 0.7),
                         pa.string())})
    rts = np.where(rng.random(nr) < 0.5, rng.choice(ts, nr),
                   rng.integers(0, nl * 60, nr) * 1_000_000)
    right = pa.table({
        "conv_id": rk, "ts": pa.array(rts, pa.timestamp("us")),
        "f_score": pa.array(_maybe_null(rng, rng.integers(0, 3, nr)
                                        .astype(float).tolist(), 0.25),
                            pa.float64()),
        "f_label": pa.array(_maybe_null(rng, rng.choice(["x", "y"], nr)
                                        .tolist(), 0.25), pa.string())})
    return left, right


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("num_partitions,blocks", LAYOUTS)
def test_fused_backfill_adversarial_keys(kind, num_partitions, blocks):
    """The backfilled columns match the DuckDB as-of rule; the window
    features match the pandas oracle on every non-NULL key."""
    left, right = _transcripts(kind)
    got = _table(fused_features_backfill(
        add_scalar_features(_ds(left, blocks)), _ds(right, blocks),
        WindowSpec(), num_partitions=num_partitions))
    assert got.num_rows == left.num_rows
    want = _asof_oracle(
        left.rename_columns(["k", "ts", "id", "role", "text", "tool"]),
        right.rename_columns(["rk", "rts", "val", "lab"]),
        "backward", False)
    have = dict(zip(got["turn_idx"].to_pylist(),
                    zip(got["f_score"].to_pylist(),
                        got["f_label"].to_pylist())))
    assert have == want

    keyed = left.filter(pc.is_valid(left["conv_id"]))
    # pandas' string hash table stops at an embedded NUL, so "" and
    # "\x00null" would be one group: the oracle groups on key codes
    keyed = keyed.set_column(0, "conv_id", pc.dictionary_encode(
        keyed["conv_id"]).combine_chunks().indices.cast(pa.int64()))
    oracle = oracle_features(keyed.to_pandas().sort_values(
        ["conv_id", "ts", "turn_idx"]).reset_index(drop=True))
    oracle = oracle.sort_values("turn_idx").reset_index(drop=True)
    mine = (got.filter(pc.is_valid(got["conv_id"])).to_pandas()
            .sort_values("turn_idx").reset_index(drop=True))
    assert mine["turn_idx"].tolist() == oracle["turn_idx"].tolist()
    feats = [c for c in oracle.columns if c in mine.columns
             and c not in left.column_names]
    assert len(feats) > 10
    for c in feats:
        assert np.allclose(mine[c].astype(float), oracle[c].astype(float),
                           equal_nan=True), c
