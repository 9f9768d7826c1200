"""Feature registry — the engine's declared-schema counterpart of the
reference's implicit pandas column handling (SURVEY.md §1.2): every
generated feature records its name, dtype, unit (Dim), group and producing
stage, and the group fold/unfold index arithmetic of
``selection/mutibase.py:45-67`` becomes registry operations (no shuffle).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import pyarrow as pa

from .functions.dims import Dim


@dataclass
class FeatureSpec:
    name: str
    dtype: pa.DataType = pa.float64()
    dim: Optional[Dim] = None
    group: Optional[str] = None   # group label, e.g. "roll5_text_len"
    stage: str = ""               # producing stage, for lineage
    description: str = ""


class FeatureRegistry:
    def __init__(self):
        self._specs: Dict[str, FeatureSpec] = {}
        self._order: List[str] = []

    def add(self, spec: FeatureSpec) -> None:
        if spec.name in self._specs:
            raise ValueError(f"duplicate feature {spec.name!r}")
        self._specs[spec.name] = spec
        self._order.append(spec.name)

    def add_many(self, names: Sequence[str], *, group: Optional[str] = None,
                 stage: str = "", dim: Optional[Dim] = None) -> None:
        for n in names:
            self.add(FeatureSpec(n, group=group, stage=stage, dim=dim))

    def __contains__(self, name: str) -> bool:
        return name in self._specs

    def __getitem__(self, name: str) -> FeatureSpec:
        return self._specs[name]

    @property
    def names(self) -> List[str]:
        return list(self._order)

    # ---- group fold/unfold (mutibase.py:45-67 analog) -----------------
    def groups(self) -> Dict[str, List[str]]:
        out: Dict[str, List[str]] = {}
        for n in self._order:
            g = self._specs[n].group
            if g is not None:
                out.setdefault(g, []).append(n)
        return out

    def fold(self) -> List[str]:
        """Logical feature list: one entry per group (its label) plus each
        ungrouped feature — the reference's ``feature_fold``."""
        seen = set()
        out = []
        for n in self._order:
            g = self._specs[n].group
            if g is None:
                out.append(n)
            elif g not in seen:
                seen.add(g)
                out.append(g)
        return out

    def unfold(self, logical: Sequence[str]) -> List[str]:
        """Expand group labels back to their member columns
        (``feature_unfold``)."""
        gmap = self.groups()
        out: List[str] = []
        for item in logical:
            out.extend(gmap.get(item, [item]))
        return out

    def arrow_schema(self, key_fields: Sequence[pa.Field] = ()) -> pa.Schema:
        return pa.schema(list(key_fields) +
                         [pa.field(n, self._specs[n].dtype) for n in self._order])

    def align_names(self, wanted: Sequence[str]) -> List[Optional[str]]:
        """Reference ``name_to_name`` (tools/tool.py:171-239) analog: align
        a requested name list against the registry, returning the matching
        registered name (exact, else unique case-insensitive prefix) or
        None per entry."""
        lowered: dict = {}
        for n in self._order:  # first registration wins on case collisions
            lowered.setdefault(n.lower(), n)
        out: List[Optional[str]] = []
        for w in wanted:
            if w in self._specs:
                out.append(w)
                continue
            lw = w.lower()
            if lw in lowered:
                # exact case-insensitive match beats the prefix scan —
                # 'TEXT_LEN' must resolve even when 'text_len_sq' exists
                out.append(lowered[lw])
                continue
            cand = [n for low, n in lowered.items() if low.startswith(lw)]
            out.append(cand[0] if len(cand) == 1 else None)
        return out

    def validate_table(self, table: pa.Table, *, strict: bool = False) -> List[str]:
        """Missing/mistyped feature columns (strict also flags extras)."""
        problems = []
        for n in self._order:
            if n not in table.column_names:
                problems.append(f"missing column {n}")
            elif table.schema.field(n).type != self._specs[n].dtype:
                problems.append(
                    f"{n}: {table.schema.field(n).type} != {self._specs[n].dtype}")
        if strict:
            known = set(self._order)
            for c in table.column_names:
                if c not in known:
                    problems.append(f"unexpected column {c}")
        return problems
