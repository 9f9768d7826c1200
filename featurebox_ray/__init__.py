"""featurebox_ray — a from-scratch Ray-Data-native feature-engineering engine.

Re-expresses the capabilities of the reference ``Weiren1996/featurebox``
(descriptor computation + feature selection; see SURVEY.md) as a
point-in-time-correct as-of-join + windowed-transform library over Parquet
transcript tables ``(conv_id, turn_idx, role, text, tool, ts)`` built on
``ray.data.Dataset`` + ``map_batches`` over zero-copy Arrow batches.

Layout:
    functions/   stat-kernel library (PropertyStats parity) + window kernels
    stages/      partition/sort shuffle, scalar maps, window, sessionize,
                 as-of join, broadcast lookup join, normalization, dedup,
                 text analysis, ANN
    sources/     parquet IO + deterministic synthetic generators
    pipelines/   end-to-end flagship pipelines
    selection/   feature-selection layer (corr prune, subset search)
    state/       per-partition checkpoints + lineage manifests
"""

import importlib

__version__ = "0.1.0"


def __getattr__(name):
    """Lazy top-level API (keeps `import featurebox_ray` light)."""
    _API = {
        "partitioned_map": ("featurebox_ray.stages.partition", "partitioned_map"),
        "asof_join": ("featurebox_ray.stages.asof", "asof_join"),
        "hash_join": ("featurebox_ray.stages.join", "hash_join"),
        "broadcast_join": ("featurebox_ray.stages.join", "broadcast_join"),
        "WindowSpec": ("featurebox_ray.stages.window", "WindowSpec"),
        "add_window_features": ("featurebox_ray.stages.window", "add_window_features"),
        "add_scalar_features": ("featurebox_ray.stages.scalar", "add_scalar_features"),
        "add_text_features": ("featurebox_ray.stages.text", "add_text_features"),
        "exact_dedup": ("featurebox_ray.stages.dedup", "exact_dedup"),
        "minhash_lsh_dedup": ("featurebox_ray.stages.dedup", "minhash_lsh_dedup"),
        "brute_force_topk": ("featurebox_ray.stages.ann", "brute_force_topk"),
        "fused_features_backfill": ("featurebox_ray.pipelines.transcript",
                                    "fused_features_backfill"),
        "MagnitudeNormalizer": ("featurebox_ray.stages.normalize",
                                "MagnitudeNormalizer"),
        "FeatureRegistry": ("featurebox_ray.registry", "FeatureRegistry"),
        "Catalog": ("featurebox_ray.sources.io", "Catalog"),
        "simhash_dedup": ("featurebox_ray.stages.dedup", "simhash_dedup"),
        "ngram_jaccard_join": ("featurebox_ray.stages.dedup",
                               "ngram_jaccard_join"),
        "GridSearchCV": ("featurebox_ray.selection.grid", "GridSearchCV"),
        "fetch_records": ("featurebox_ray.sources.fetch", "fetch_records"),
        "data_fetcher": ("featurebox_ray.sources.fetch", "data_fetcher"),
        "get_ids": ("featurebox_ray.sources.fetch", "get_ids"),
        "rotate_slices": ("featurebox_ray.functions.tensor", "rotate_slices"),
        "rotatespilt": ("featurebox_ray.functions.tensor", "rotatespilt"),
        "rotate_slices_fn": ("featurebox_ray.functions.tensor",
                             "rotate_slices_fn"),
        "method_pack": ("featurebox_ray.selection.grid", "method_pack"),
        "embedding_neardup": ("featurebox_ray.stages.dedup",
                              "embedding_neardup"),
        "ivf_topk": ("featurebox_ray.stages.ann", "ivf_topk"),
        "add_voronoi_features": ("featurebox_ray.stages.voronoi",
                                 "add_voronoi_features"),
        "expand_composition": ("featurebox_ray.stages.parse",
                               "expand_composition"),
        "parse_composition": ("featurebox_ray.stages.parse",
                              "parse_composition"),
        "apply_expression": ("featurebox_ray.functions.expr",
                             "apply_expression"),
        "pack_groups": ("featurebox_ray.functions.expr", "pack_groups"),
        "fit_inner_coefficients": ("featurebox_ray.functions.expr",
                                   "fit_inner_coefficients"),
        "MultiEgo": ("featurebox_ray.selection.search", "MultiEgo"),
        "BackForwardCV": ("featurebox_ray.selection.search",
                          "BackForwardCV"),
        "iter_feature_batches": ("featurebox_ray.pipelines.streaming",
                                 "iter_feature_batches"),
        "add_image_features": ("featurebox_ray.stages.multimodal",
                               "add_image_features"),
        "run_partitioned_checkpointed": ("featurebox_ray.state.checkpoint",
                                         "run_partitioned_checkpointed"),
        "Pipeline": ("featurebox_ray.functions.pipeline", "Pipeline"),
        "StandardScaler": ("featurebox_ray.functions.pipeline",
                           "StandardScaler"),
        "SymbolLearning": ("featurebox_ray.functions.skflow",
                           "SymbolLearning"),
        "verify_jaccard_pairs": ("featurebox_ray.stages.dedup",
                                 "verify_jaccard_pairs"),
    }
    if name in _API:
        mod, attr = _API[name]
        return getattr(importlib.import_module(mod), attr)
    raise AttributeError(name)
