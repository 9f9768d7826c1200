"""Driver-checked transcript-engine queries over the ``events`` table
(user_id ↔ conv_id).  Each function returns a Dataset whose columns match
the DuckDB oracle SQL in ``__ray_entry__.oracle_sql`` exactly (names and
rounding), so the driver's order-insensitive value-hash comparison holds.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..stages.asof import asof_join
from ..stages.window import WindowSpec, add_window_features
from .events_features import session_stats
from .relational import read

ROUND = 6


def _finish(ds, keep: list, round_cols: list, int_cols: list = (), nd: int = ROUND):
    def fix(batch: pa.Table) -> pa.Table:
        cols = {}
        for c in keep:
            col = batch[c]
            if c in round_cols:
                # numpy round (pc.round disagrees with DuckDB at large
                # magnitudes); NaN -> null to match SQL NULL semantics
                v = np.round(
                    col.to_numpy(zero_copy_only=False).astype(np.float64), nd
                )
                col = pa.array(v, pa.float64(), mask=np.isnan(v))
            elif c in int_cols:
                col = pc.cast(col, pa.int64())
            cols[c] = col
        return pa.table(cols)

    return ds.map_batches(fix, batch_format="pyarrow", zero_copy_batch=True)


def sessionized(sf_dir: str, gap_s: float = 1800.0):
    """(event_id, session_id): 0-based session index per user, 30-min gap."""
    ev = read(sf_dir, "events", ["event_id", "user_id", "ts"])
    spec = WindowSpec(key_col="user_id", ts_col="ts", value_col="event_id",
                      lags=(), rolling_rows=(), time_windows_s=(),
                      session_gap_s=gap_s, add_delta_ts=False,
                      add_turn_number=False)
    out = add_window_features(ev, spec, order_col="event_id", num_partitions=16)
    return _finish(out, ["event_id", "session_id"], [], ["event_id", "session_id"])


def lag_delta(sf_dir: str):
    """(event_id, lag1_value, delta_ts_s) per user by (ts, event_id)."""
    ev = read(sf_dir, "events", ["event_id", "user_id", "ts", "value"])
    spec = WindowSpec(key_col="user_id", ts_col="ts", value_col="value",
                      lags=(1,), rolling_rows=(), time_windows_s=(),
                      add_session=False, add_turn_number=False)
    out = add_window_features(ev, spec, order_col="event_id", num_partitions=16)
    out = _finish(out, ["event_id", "lag1_value", "delta_ts_s"],
                  ["lag1_value", "delta_ts_s"], ["event_id"])
    return out


def rolling_window(sf_dir: str, k: int = 5):
    """Trailing k-row count/sum/mean/std (sample std) of value per user."""
    ev = read(sf_dir, "events", ["event_id", "user_id", "ts", "value"])
    spec = WindowSpec(key_col="user_id", ts_col="ts", value_col="value",
                      lags=(), rolling_rows=(k,), time_windows_s=(),
                      add_session=False, add_turn_number=False,
                      add_delta_ts=False)
    out = add_window_features(ev, spec, order_col="event_id", num_partitions=16)
    names = {f"roll{k}_{s}_value": f"roll_{s}" for s in
             ("count", "sum", "mean", "std", "min", "max")}

    def ren(batch: pa.Table) -> pa.Table:
        return batch.rename_columns([names.get(c, c) for c in batch.column_names])

    out = out.map_batches(ren, batch_format="pyarrow")
    return _finish(out, ["event_id", "roll_count", "roll_sum", "roll_mean",
                         "roll_std", "roll_min", "roll_max"],
                   ["roll_sum", "roll_mean", "roll_std", "roll_min", "roll_max"],
                   ["event_id", "roll_count"])


def time_window(sf_dir: str, window_s: float = 3600.0):
    """Trailing [ts-1h, ts] count/sum/mean of value per user."""
    ev = read(sf_dir, "events", ["event_id", "user_id", "ts", "value"])
    spec = WindowSpec(key_col="user_id", ts_col="ts", value_col="value",
                      lags=(), rolling_rows=(), time_windows_s=(window_s,),
                      add_session=False, add_turn_number=False,
                      add_delta_ts=False)
    out = add_window_features(ev, spec, order_col="event_id", num_partitions=16)
    tag = f"t{int(window_s)}s"
    names = {f"win_{tag}_{s}_value": f"w_{s}" for s in ("count", "sum", "mean")}

    def ren(batch: pa.Table) -> pa.Table:
        return batch.rename_columns([names.get(c, c) for c in batch.column_names])

    out = out.map_batches(ren, batch_format="pyarrow")
    return _finish(out, ["event_id", "w_count", "w_sum", "w_mean"],
                   ["w_sum", "w_mean"], ["event_id", "w_count"])


def asof_backfill(sf_dir: str):
    """Backfill: latest 'error' event value at-or-before each event, per
    user (the as-of join on the real table)."""
    ev = read(sf_dir, "events", ["event_id", "user_id", "ts", "event_type", "value"])

    def right_side(batch: pa.Table) -> pa.Table:
        m = pc.equal(batch["event_type"], pa.scalar("error"))
        b = batch.filter(m)
        return pa.table({
            "user_id": b["user_id"],
            "ts": b["ts"],
            "err_value": b["value"],
        })

    right = ev.map_batches(right_side, batch_format="pyarrow", zero_copy_batch=True)
    left = _finish(ev, ["event_id", "user_id", "ts"], [], ["event_id"])
    out = asof_join(left, right, key="user_id", ts_col="ts",
                    right_cols=["err_value"], num_partitions=16)
    return _finish(out, ["event_id", "err_value"], ["err_value"], ["event_id"])


def session_aggregate(sf_dir: str, gap_s: float = 1800.0):
    """Per (user_id, session_id): n_events, duration_s, mean_value."""
    ev = read(sf_dir, "events", ["event_id", "user_id", "ts", "value"])
    out = session_stats(ev, gap_s=gap_s, num_partitions=16)
    return _finish(out, ["user_id", "session_id", "n_events", "duration_s",
                         "mean_value"],
                   ["duration_s", "mean_value"],
                   ["user_id", "session_id", "n_events"])


def normalized_value(sf_dir: str):
    """MagnitudeTransformer analog on events.value: two-pass (global mean →
    scale 10^floor(log10|mean|) → divide)."""
    from ..stages.normalize import MagnitudeNormalizer

    ev = read(sf_dir, "events", ["event_id", "value"])
    norm = MagnitudeNormalizer(["value"]).fit(ev)
    out = norm.transform(ev)

    def fin(batch: pa.Table) -> pa.Table:
        v = batch["value"].to_numpy(zero_copy_only=False).astype(np.float64)
        return pa.table({
            "event_id": batch["event_id"].cast(pa.int64()),
            "value_scaled": pa.array(np.round(v, ROUND)),
        })

    return out.map_batches(fin, batch_format="pyarrow")


def event_type_lookup(sf_dir: str):
    """Broadcast dim-table depart lookup on event_type (DepartElement
    analog): constants table joined per row without a shuffle."""
    from ..stages.lookup import add_depart_lookup

    dim = event_type_props()
    ev = read(sf_dir, "events", ["event_id", "event_type"])
    out = add_depart_lookup(ev, dim, key_col="event_type", prefix="et",
                            concurrency=(1, 4))
    return _finish(out, ["event_id", "et_p0", "et_p1", "et_p2", "et_p3"],
                   ["et_p0", "et_p1", "et_p2", "et_p3"], ["event_id"])


def turn_context(sf_dir: str):
    """(event_id, prev_event_type, next_event_type) within user timeline —
    the +-1 turn-context lookup (Neighborizer transcript analog)."""
    ev = read(sf_dir, "events", ["event_id", "user_id", "ts", "event_type"])
    spec = WindowSpec(key_col="user_id", ts_col="ts", value_col="event_id",
                      lags=(), rolling_rows=(), time_windows_s=(),
                      add_session=False, add_turn_number=False,
                      add_delta_ts=False, context_cols=("event_type",))
    out = add_window_features(ev, spec, order_col="event_id", num_partitions=16)
    return _finish(out, ["event_id", "prev_event_type", "next_event_type"],
                   [], ["event_id"])


def tool_usage_rate(sf_dir: str, k: int = 10):
    """Trailing k-row error rate per user (north_star tool-usage-rate
    analog): rolling mean of an 0/1 indicator."""
    ev = read(sf_dir, "events", ["event_id", "user_id", "ts", "event_type"])

    def ind(batch: pa.Table) -> pa.Table:
        is_err = pc.equal(batch["event_type"], pa.scalar("error"))
        return batch.append_column("err01", pc.cast(is_err, pa.float64()))

    ev = ev.map_batches(ind, batch_format="pyarrow", zero_copy_batch=True)
    spec = WindowSpec(key_col="user_id", ts_col="ts", value_col="err01",
                      lags=(), rolling_rows=(), time_windows_s=(),
                      add_session=False, add_turn_number=False,
                      add_delta_ts=False, rate_cols=("err01",), rate_window=k)
    out = add_window_features(ev, spec, order_col="event_id", num_partitions=16)

    def ren(batch: pa.Table) -> pa.Table:
        return batch.rename_columns(
            [c if c != f"rate{k}_err01" else "err_rate" for c in batch.column_names])

    out = out.map_batches(ren, batch_format="pyarrow")
    return _finish(out, ["event_id", "err_rate"], ["err_rate"], ["event_id"])


def event_type_props() -> pa.Table:
    """Deterministic 4-property constants per event_type (mirrors FIXTURES
    F3 role_props; hard-coded so the SQL oracle can inline it as VALUES)."""
    types = ["click", "view", "purchase", "signup", "error"]
    rows = []
    for i, t in enumerate(types):
        rows.append((t, float(i + 1), float((i + 1) ** 2),
                     round(1.0 / (i + 1), 6), float(10 - i)))
    return pa.table({
        "key": pa.array([r[0] for r in rows]),
        "p0": pa.array([r[1] for r in rows]),
        "p1": pa.array([r[2] for r in rows]),
        "p2": pa.array([r[3] for r in rows]),
        "p3": pa.array([r[4] for r in rows]),
    })


def poly_lineitem(sf_dir: str):
    """PolyFeaturizer analog: degree-2 crossings of quantity & discount."""
    from ..stages.poly import add_poly_features

    li = read(sf_dir, "lineitem",
              ["l_orderkey", "l_linenumber", "l_quantity", "l_discount"])
    out = add_poly_features(li, ["l_quantity", "l_discount"], degrees=(0, 1, 2))
    mapping = {
        "poly:l_quantity": "q1", "poly:l_quantity^2": "q2",
        "poly:l_discount": "d1", "poly:l_discount^2": "d2",
        "poly:l_quantity*l_discount": "qd",
        "poly:l_quantity*l_discount^2": "qd2",
        "poly:l_quantity^2*l_discount": "q2d",
        "poly:l_quantity^2*l_discount^2": "q2d2",
    }

    def ren(batch: pa.Table) -> pa.Table:
        return batch.rename_columns([mapping.get(c, c) for c in batch.column_names])

    out = out.map_batches(ren, batch_format="pyarrow")
    return _finish(out, ["l_orderkey", "l_linenumber", "q1", "q2", "d1", "d2",
                         "qd", "qd2", "q2d", "q2d2"],
                   ["q1", "q2", "d1", "d2", "qd", "qd2", "q2d", "q2d2"],
                   ["l_orderkey", "l_linenumber"])


def token_counts(sf_dir: str):
    """documents: whitespace token count + char len (text op w/ oracle)."""
    from ..stages.text import add_text_features

    docs = read(sf_dir, "documents", ["doc_id", "text"])
    out = add_text_features(docs, concurrency=(1, 4))
    return _finish(out, ["doc_id", "ta_n_chars", "ta_n_tokens"], [],
                   ["doc_id", "ta_n_chars", "ta_n_tokens"])


def exact_dedup_docs(sf_dir: str):
    from ..stages.dedup import exact_dedup

    docs = read(sf_dir, "documents", ["doc_id", "text", "lang", "source", "n_chars"])
    out = exact_dedup(docs)
    return _finish(out, ["doc_id", "lang", "source", "n_chars"], [],
                   ["doc_id", "n_chars"])


def ann_topk(sf_dir: str, k: int = 5, n_queries: int = 3):
    """Brute-force cosine top-k; queries = the first ``n_queries`` corpus
    vectors (deterministic).  Ties broken by vec_id asc in both engine and
    oracle."""
    from ..stages.ann import brute_force_topk

    emb = read(sf_dir, "embeddings", ["vec_id", "embedding"])
    qrows = (emb.filter(expr=f"vec_id < {n_queries}").take(n_queries))
    qrows.sort(key=lambda r: r["vec_id"])
    Q = np.stack([r["embedding"] for r in qrows]).astype(np.float64)
    out = brute_force_topk(emb, Q, k=k)
    # 4 dp: DuckDB's list_cosine_similarity computes in float32 (~1e-7
    # relative error); 4 dp absorbs it
    return _finish(out, ["query_id", "vec_id", "cosine"], ["cosine"],
                   ["query_id", "vec_id"], nd=4)


def tumbling_stats(sf_dir: str, width_s: float = 6 * 3600.0):
    """Fixed 6-hour tumbling windows per user: one row per occupied
    (user, window) bucket with order-independent-exact aggregates."""
    from ..stages.window import tumbling_window_stats

    ev = read(sf_dir, "events", ["event_id", "user_id", "ts", "value"])
    out = tumbling_window_stats(ev, key_col="user_id", ts_col="ts",
                                value_col="value", id_col="event_id",
                                width_s=width_s)
    return _finish(out, ["user_id", "w_start", "n_events", "id_sum",
                         "v_min", "v_max"],
                   ["v_min", "v_max"],
                   ["user_id", "w_start", "n_events", "id_sum"])


def finalized_tumbling_stats(sf_dir: str, width_s: float = 6 * 3600.0,
                             watermark_s: float = 24 * 3600.0):
    """q312: watermark-finalized tumbling windows — the q52 aggregate
    emitted only for windows closed by max_ts - watermark (still-open
    windows held back; re-runs never re-emit a mutable window)."""
    from ..stages.window import finalized_tumbling

    ev = read(sf_dir, "events", ["event_id", "user_id", "ts", "value"])
    out = finalized_tumbling(ev, key_col="user_id", ts_col="ts",
                             value_col="value", id_col="event_id",
                             width_s=width_s, watermark_s=watermark_s)
    return _finish(out, ["user_id", "w_start", "n_events", "id_sum",
                         "v_min", "v_max"],
                   ["v_min", "v_max"],
                   ["user_id", "w_start", "n_events", "id_sum"])


def asof_next_event(sf_dir: str):
    """Forward as-of: EARLIEST 'error' value at-or-after each event per
    user (next-event lookup; DuckDB ASOF r.ts >= l.ts semantics)."""
    ev = read(sf_dir, "events", ["event_id", "user_id", "ts", "event_type",
                                 "value"])

    def right_side(batch: pa.Table) -> pa.Table:
        m = pc.equal(batch["event_type"], pa.scalar("error"))
        b = batch.filter(m)
        return pa.table({
            "user_id": b["user_id"],
            "ts": b["ts"],
            "next_err": b["value"],
        })

    right = ev.map_batches(right_side, batch_format="pyarrow",
                           zero_copy_batch=True)
    left = _finish(ev, ["event_id", "user_id", "ts"], [], ["event_id"])
    out = asof_join(left, right, key="user_id", ts_col="ts",
                    right_cols=["next_err"], num_partitions=16,
                    direction="forward")
    return _finish(out, ["event_id", "next_err"], ["next_err"],
                   ["event_id"])
