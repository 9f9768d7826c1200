"""Stateless per-turn scalar features (SURVEY.md §7.2 minimum slice).

Pure per-batch Arrow/numpy transforms — no shuffle, no state, runs as plain
``map_batches`` tasks with ``batch_format="pyarrow"`` / ``zero_copy_batch``.

Reference analog: the per-record map harness ``BaseFeaturizer.transform``
(featurebox/featurizers/base.py:165-249) with its error policy, collapsed to
vectorized kernels (no per-row Python).
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from .text import TOKEN_PATTERN, count_matches

ROLE_CODES = {"user": 0, "assistant": 1, "system": 2, "tool": 3}


def turn_scalar_features(batch: pa.Table) -> pa.Table:
    """Append ``text_len``, ``n_tokens``, ``is_tool_turn``, ``role_code``."""
    text = batch["text"]
    text_len = pc.utf8_length(text)
    # token count = number of RE2 ``\S+`` runs, whitespace being
    # [\t\n\f\r ]: leading, trailing and repeated whitespace count as
    # Python's str.split() does, but "\v" and non-ASCII spaces sit inside
    # a token ("a\vb" is 1 token here, 2 under str.split())
    (n_tokens,) = count_matches(text, TOKEN_PATTERN)
    is_tool = pc.is_valid(batch["tool"])
    # unknown roles code as -1 (visible sentinel) rather than null — a
    # null would silently NaN every downstream numeric feature, and the
    # pandas oracle maps the same way (tests/oracle.py)
    role_idx = pc.fill_null(pc.index_in(
        batch["role"], value_set=pa.array(list(ROLE_CODES), pa.string())
    ), -1)
    out = batch.append_column("text_len", pc.cast(text_len, pa.int64()))
    out = out.append_column("n_tokens", pc.cast(n_tokens, pa.int64()))
    out = out.append_column("is_tool_turn", is_tool)
    out = out.append_column("role_code", pc.cast(role_idx, pa.int32()))
    return out


def add_scalar_features(ds, *, batch_size: int = 65536):
    return ds.map_batches(
        turn_scalar_features,
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=batch_size,
    )


def extract_json_fields(ds, *, json_col: str, fields: dict):
    """Vectorized typed-field extraction from a flat-JSON string column
    (the props/payload pre-parse ETL stage) — ZERO per-row Python:
    one Arrow RE2 ``extract_regex`` pass per requested field, so the
    same regex replays in SQL (DuckDB ``regexp_extract`` is RE2 too).

    ``fields`` maps output column name → ``(json_key, type)`` with type
    in ``{"int", "float", "str"}``; int/float match bare JSON numbers,
    str matches a double-quoted string (no escape handling — flat
    machine-generated JSON; reach for a real parser stage when payloads
    nest).  Missing keys / non-matching values yield NULL.

    Reference analog: the declarative ``flatten_keys`` of
    ``sources/fetch.py`` applied to an existing column instead of an
    HTTP response.
    """
    # Arrow extract_regex needs a NAMED group; DuckDB regexp_extract
    # replays the same RE2 with the plain group + index 1
    num_pat = r'"%s"\s*:\s*(?P<v>-?\d+(?:\.\d+)?)'
    str_pat = r'"%s"\s*:\s*"(?P<v>[^"]*)"'

    specs = []
    for name, (key, typ) in fields.items():
        if typ not in ("int", "float", "str"):
            raise ValueError(f"unsupported type {typ!r} for {name!r}")
        pat = (str_pat if typ == "str" else num_pat) % key
        specs.append((name, pat, typ))

    def extract(b: pa.Table) -> pa.Table:
        col = pc.fill_null(b[json_col].combine_chunks(), "")
        out = b
        for name, pat, typ in specs:
            m = pc.extract_regex(col, pat)  # struct<v> or null
            vals = pc.struct_field(m, "v")
            if typ == "int":
                # a fractional value ("k": 1.25) matched the number
                # pattern; an int cast would CRASH the task — null it
                # out instead ("non-matching values yield NULL", and
                # SQL TRY_CAST does the same)
                integral = pc.match_substring_regex(
                    pc.fill_null(vals, ""), r"^-?\d+$")
                vals = pc.if_else(integral, vals,
                                  pa.nulls(len(col), pa.string()))
                vals = pc.cast(vals, pa.int64())
            elif typ == "float":
                vals = pc.cast(vals, pa.float64())
            out = out.append_column(name, vals)
        return out

    return ds.map_batches(extract, batch_format="pyarrow",
                          zero_copy_batch=True)
