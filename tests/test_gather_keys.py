"""Adversarial keys through the per-input gather: ``hash_join``,
``cogroup``, ``asof_join`` and ``fused_features_backfill`` against DuckDB
(and ``tests/oracle.py`` for the window features), then ``snapshot_diff``,
``cdc_compact``, ``rrf_fuse``, ``asof_leakage_audit`` and
``refresh_agg_state``, at 1, 3 and 8 partitions over 1 or 8 blocks per
input.  An operator that refuses NULL keys is checked to refuse them.

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
from featurebox_ray.stages.asof import asof_join, asof_leakage_audit
from featurebox_ray.stages.cdc import cdc_compact
from featurebox_ray.stages.diff import snapshot_diff
from featurebox_ray.stages.incremental import (group_agg_state,
                                               refresh_agg_state)
from featurebox_ray.stages.join import cogroup, hash_join
from featurebox_ray.stages.partition import materialized_block_refs
from featurebox_ray.stages.rank import rrf_fuse
from featurebox_ray.stages.scalar import add_scalar_features
from featurebox_ray.stages.substr import ngram_novelty
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
        # closer; a gap to or from a NULL ts is undefined: the one
        # candidate with a defined gap wins, and with none the forward
        back = pick("rx <= lx", back_order)
        fwd = pick("rx > lx", fwd_order)
        match = {}
        for i, t in lts.items():
            b, f = back.get(i), fwd.get(i)
            db = b is not None and t is not None and b[2] is not None
            df = f is not None and t is not None and f[2] is not None
            if db and df:
                m = f if f[2] - t < t - b[2] else b
            else:
                m = b if db else f
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


ID_KINDS = ["str", "large", "big"]


def _ids(kind, n, second=False):
    """``n`` distinct ids and their type: strings with ``""`` and a NULL
    stand-in (``large_string`` on the second input for "large"), or
    int64 ids above 2^53 that differ only past float64 precision."""
    if kind == "big":
        return [2 ** 53 + i for i in range(n)], pa.int64()
    return (["", "\x00null"] + [f"k{i}" for i in range(n - 2)],
            pa.large_string() if kind == "large" and second
            else pa.string())


def _with_null_key(t: pa.Table, col: str) -> pa.Table:
    vals = t[col].to_pylist()
    return t.set_column(t.schema.get_field_index(col), col,
                        pa.array([None] + vals[1:], t[col].type))


def _sql(sql, **tables):
    con = duckdb.connect()
    for name, t in tables.items():
        con.register(name, t)
    return con.sql(sql).arrow()


@pytest.mark.parametrize("kind", ID_KINDS)
@pytest.mark.parametrize("num_partitions,blocks", LAYOUTS)
def test_snapshot_diff_adversarial_keys(kind, num_partitions, blocks):
    rng = np.random.default_rng(3)
    ids, _ = _ids(kind, 60)

    def side(second):
        pick = sorted(rng.choice(len(ids), 45, replace=False))
        return pa.table({
            "id": pa.array([ids[i] for i in pick], _ids(kind, 1, second)[1]),
            "v": pa.array(_maybe_null(rng, rng.integers(0, 2, 45).tolist(),
                                      0.2), pa.int64())})

    old, new = side(False), side(True)

    def diff(o, n):
        return _table(snapshot_diff(_ds(o, blocks), _ds(n, blocks),
                                    id_col="id", cmp_cols=["v"],
                                    num_partitions=num_partitions))

    want = _sql("""
        SELECT coalesce(o.id, n.id) AS id,
               CASE WHEN n.id IS NULL THEN 'removed'
                    WHEN o.id IS NULL THEN 'added' ELSE 'changed' END
                 AS status
        FROM o FULL JOIN n ON o.id = n.id
        WHERE o.id IS NULL OR n.id IS NULL OR o.v IS DISTINCT FROM n.v""",
                o=old, n=new)
    cols = ["id", "status"]
    assert _rows(diff(old, new), cols) == _rows(want, cols)
    if blocks > 1:
        with pytest.raises(ValueError, match="NULL id in snapshot side 1"):
            diff(old, _with_null_key(new, "id"))


@pytest.mark.parametrize("kind", ID_KINDS)
@pytest.mark.parametrize("num_partitions,blocks", LAYOUTS)
def test_cdc_compact_adversarial_keys(kind, num_partitions, blocks):
    rng = np.random.default_rng(5)
    ids, _ = _ids(kind, 50)
    pick = sorted(rng.choice(50, 30, replace=False))
    base = pa.table({
        "key": pa.array([ids[i] for i in pick], _ids(kind, 1)[1]),
        "name": pa.array([f"n{i}" for i in pick]),
        "cents": pa.array(rng.integers(0, 99, 30), pa.int64())})
    n = 80
    log = pa.table({
        "key": pa.array([ids[i] for i in rng.integers(0, 50, n)],
                        _ids(kind, 1, True)[1]),
        "seq": pa.array(rng.permutation(n), pa.int64()),
        "cents": pa.array(_maybe_null(rng, rng.integers(0, 99, n).tolist(),
                                      0.1), pa.int64()),
        "del": pa.array(_maybe_null(rng, (rng.random(n) < 0.3).tolist(),
                                    0.1), pa.bool_())})

    def compact(b, lg):
        return _table(cdc_compact(_ds(b, blocks), _ds(lg, blocks),
                                  key_col="key", order_cols=["seq"],
                                  value_col="cents", delete_col="del",
                                  payload_cols=["name"],
                                  num_partitions=num_partitions))

    want = _sql("""
        WITH last AS (SELECT * FROM (
            SELECT *, row_number() OVER (PARTITION BY key ORDER BY seq DESC)
              AS rn FROM lg) WHERE rn = 1)
        SELECT coalesce(b.key, last.key) AS key, b.name,
               CASE WHEN last.key IS NULL THEN b.cents ELSE last.cents END
                 AS cents,
               CASE WHEN last.key IS NULL THEN 'keep'
                    WHEN b.key IS NULL THEN 'insert' ELSE 'update' END AS op
        FROM b FULL JOIN last ON b.key = last.key
        WHERE last.key IS NULL OR NOT coalesce(last.del, false)""",
                b=base, lg=log)
    cols = ["key", "name", "cents", "op"]
    assert _rows(compact(base, log), cols) == _rows(want, cols)
    if blocks > 1:
        with pytest.raises(ValueError, match="NULL key in base snapshot"):
            compact(_with_null_key(base, "key"), log)
        with pytest.raises(ValueError, match="NULL key in changelog"):
            compact(base, _with_null_key(log, "key"))


@pytest.mark.parametrize("kind", ID_KINDS)
@pytest.mark.parametrize("num_partitions,blocks", LAYOUTS)
def test_rrf_fuse_adversarial_keys(kind, num_partitions, blocks):
    rng = np.random.default_rng(9)
    ids, _ = _ids(kind, 40)
    ranks = [pa.table({
        "id": pa.array([ids[i] for i in rng.permutation(40)],
                       _ids(kind, 1, i > 0)[1]),
        f"r{i}": pa.array(np.arange(1, 41), pa.int64())}) for i in range(3)]

    def fuse(tables):
        return _table(rrf_fuse([_ds(t, blocks) for t in tables],
                               id_col="id", rank_cols=["r0", "r1", "r2"],
                               k=60, num_partitions=num_partitions))

    want = _sql("""
        SELECT a.id, r0, r1, r2,
               1.0::DOUBLE / (60 + r0) + 1.0::DOUBLE / (60 + r1)
                 + 1.0::DOUBLE / (60 + r2) AS rrf
        FROM a JOIN b ON a.id = b.id JOIN c ON a.id = c.id""",
                a=ranks[0], b=ranks[1], c=ranks[2])
    cols = ["id", "r0", "r1", "r2", "rrf"]
    assert _rows(fuse(ranks), cols) == _rows(want, cols)
    if blocks > 1:
        # NULL ids are never equal: each is missing from the others
        with pytest.raises(ValueError, match="missing from some ranking"):
            fuse([_with_null_key(t, "id") for t in ranks])


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("num_partitions,blocks", LAYOUTS)
def test_asof_leakage_audit_adversarial_keys(kind, num_partitions, blocks):
    """NULL keys and NULL ts drop on both sides; every other row's
    matched ts is checked against the latest right ts at or before it."""
    left, right = _sides(kind)
    rng = np.random.default_rng(13)
    right = pa.table({"k": right["rk"], "ts": right["rts"]})
    exp = _sql("""
        SELECT l.id, (SELECT max(r.ts) FROM r
                      WHERE r.k = l.k AND r.ts <= l.ts) AS mts
        FROM l""", l=left, r=right)
    exp = dict(zip(exp["id"].to_pylist(), exp["mts"].to_pylist()))
    # plant errors: a third of the rows lose their match or get a
    # right ts that is not the latest eligible one
    pool = [t for t in right["ts"].to_pylist() if t is not None]
    mts = [exp[i] if rng.random() < 0.67 else
           (None if rng.random() < 0.5 else pool[rng.integers(len(pool))])
           for i in left["id"].to_pylist()]
    joined = left.append_column("mts", pa.array(mts, pa.timestamp("us")))
    got = _table(asof_leakage_audit(
        _ds(joined, blocks), _ds(right, blocks), key="k", ts_col="ts",
        matched_ts_col="mts", num_partitions=num_partitions))
    want = _sql("""
        WITH l AS (SELECT * FROM j WHERE k IS NOT NULL AND ts IS NOT NULL),
             e AS (SELECT l.k, l.mts, (SELECT max(r.ts) FROM r
                   WHERE r.k = l.k AND r.ts <= l.ts) AS exp FROM l)
        SELECT k, count(*) AS n_rows, count(mts) AS n_matched,
               sum(CASE WHEN (mts IS NULL) <> (exp IS NULL) OR mts <> exp
                        THEN 1 ELSE 0 END) AS n_mismatch
        FROM e GROUP BY k""", j=joined, r=right)
    cols = ["k", "n_rows", "n_matched", "n_mismatch"]
    assert _rows(got, cols) == _rows(want, cols)
    assert sum(got["n_mismatch"].to_pylist()) > 0


@pytest.mark.parametrize("kind", ID_KINDS)
@pytest.mark.parametrize("num_partitions,blocks", LAYOUTS)
def test_refresh_agg_state_adversarial_keys(kind, num_partitions, blocks):
    """NULL keys drop; the refreshed state equals a GROUP BY over the
    base rows and the delta rows together.  Both inputs carry one key
    type: the merge concatenates them."""
    rng = np.random.default_rng(17)
    ids, typ = _ids(kind, 12, second=True)

    def rows(n):
        return pa.table({
            "k": pa.array(_maybe_null(rng, [ids[i] for i in
                                            rng.integers(0, 12, n)], 0.1),
                          typ),
            "v": pa.array(np.round(rng.uniform(-50, 50, n), 2))})

    base, delta = rows(150), rows(90)
    state = group_agg_state(_ds(base, blocks), key_cols=["k"],
                            value_col="v", num_partitions=num_partitions)
    got = _table(refresh_agg_state(state, _ds(delta, blocks),
                                   key_cols=["k"], value_col="v",
                                   num_partitions=num_partitions))
    want = _sql("""
        WITH e AS (SELECT k, CAST(round(coalesce(v, 0) * 100) AS BIGINT)
                     AS c FROM (SELECT * FROM b UNION ALL SELECT * FROM d)
                   WHERE k IS NOT NULL)
        SELECT k, count(*) AS n, sum(c) AS sum_c, min(c) AS min_c,
               max(c) AS max_c FROM e GROUP BY k""", b=base, d=delta)
    cols = ["k", "n", "sum_c", "min_c", "max_c"]
    assert _rows(got, cols) == _rows(want, cols)


@pytest.mark.parametrize("types", [(pa.string(), pa.large_string()),
                                   (pa.int64(), pa.int32())],
                         ids=["large_string", "int32"])
@pytest.mark.parametrize("num_partitions,blocks", LAYOUTS)
def test_refresh_agg_state_mixed_key_types(types, num_partitions, blocks):
    """A state and a delta whose keys differ in type merge: the delta's
    keys take the state's type, and the refreshed state equals a GROUP BY
    over the base rows and the delta rows together."""
    rng = np.random.default_rng(23)
    pool = ["", "\x00null", "k1", "k2", "k3"] if pa.types.is_string(
        types[0]) else [-3, 0, 7, 2 ** 31 - 1, 11]

    def rows(n, typ):
        return pa.table({
            "k": pa.array([pool[i] for i in rng.integers(0, 5, n)], typ),
            "v": pa.array(np.round(rng.uniform(-50, 50, n), 2))})

    base, delta = rows(150, types[0]), rows(90, types[1])
    state = group_agg_state(_ds(base, blocks), key_cols=["k"],
                            value_col="v", num_partitions=num_partitions)
    got = _table(refresh_agg_state(state, _ds(delta, blocks),
                                   key_cols=["k"], value_col="v",
                                   num_partitions=num_partitions))
    assert got.schema.field("k").type == types[0]
    want = _sql("""
        WITH e AS (SELECT k, CAST(round(v * 100) AS BIGINT) AS c
                   FROM (SELECT * FROM b UNION ALL SELECT * FROM d))
        SELECT k, count(*) AS n, sum(c) AS sum_c, min(c) AS min_c,
               max(c) AS max_c FROM e GROUP BY k""", b=base, d=delta)
    cols = ["k", "n", "sum_c", "min_c", "max_c"]
    assert _rows(got, cols) == _rows(want, cols)


@pytest.mark.parametrize("num_partitions,blocks", LAYOUTS)
def test_ngram_novelty_int32_ids(num_partitions, blocks):
    """int32 document ids give the rows of the same ids as int64: the
    zero-gram marker rows are int64 like the gram partials they meet."""
    texts = ["a b c d", "a b c e", "x y", "b c d e f", "a b c d", None]
    docs = pa.table({"doc_id": pa.array(range(len(texts)), pa.int32()),
                     "text": pa.array(texts, pa.string())})
    got = _table(ngram_novelty(_ds(docs, blocks),
                               num_partitions=num_partitions))
    want = _table(ngram_novelty(
        _ds(docs.set_column(0, "doc_id", docs["doc_id"].cast(pa.int64())),
            blocks), num_partitions=num_partitions))
    cols = ["doc_id", "n_grams", "n_novel", "novelty"]
    assert _rows(got, cols) == _rows(want, cols)
    assert len(got) == len(texts)
