"""Driver contract for the graft builder (Ray Data target).

``entry()`` runs the flagship transcript-shaped feature pipeline on
sf0.001; ``queries()``/``oracle_sql()`` expose one entry per implemented
operator family (SURVEY.md §2) with DuckDB-checkable SQL where the op is
SQL-expressible (rows-only checks otherwise).

Ray is initialised by the driver BEFORE this module is imported; nothing
here calls ray.init()/ray.shutdown().
"""

from __future__ import annotations

import os as _os

from collections.abc import Callable
from typing import Any

SF0001 = "/root/testdata/sf0.001"

# Fixture-oracle scratch dir, namespaced PER PROCESS so two concurrent
# gate/bench runs never clobber each other's fixtures.  queries() and
# oracle_sql() run in the same driver process, so the pid is consistent
# between the writer (query callable) and the reader (oracle SQL).
_ORACLE_DIR = f"/tmp/fbr_oracle_{_os.getpid()}"

# Session gap used by sessionize queries (seconds)
GAP_S = 1800


def entry() -> Any:
    """Flagship: events → user-hash partition + ts sort → sessionize +
    lag/lead + rolling + time windows → as-of backfill of latest error."""
    import ray

    from featurebox_ray.pipelines.events_features import event_features
    from featurebox_ray.pipelines.events_queries import asof_backfill

    ds = ray.data.read_parquet(f"{SF0001}/events.parquet")
    feats = event_features(ds, num_partitions=8)
    backfill = asof_backfill(SF0001)
    joined = feats  # window features are the primary output
    _ = backfill.count()  # exercise the as-of path too
    return joined


def queries() -> dict[str, Callable[[str], Any]]:
    from featurebox_ray.pipelines import events_queries as eq
    from featurebox_ray.pipelines import relational as rel

    def _dedup_pairs_minhash(sf_dir: str):
        """MinHash-LSH candidates + EXACT shingle-Jaccard verification;
        the DuckDB oracle computes all-pairs exact 3-gram Jaccard, so both
        recall (banding found every true pair) and precision (verification
        dropped every sub-threshold candidate) are value-hash-checked."""
        import ray

        from featurebox_ray.stages.dedup import minhash_lsh_dedup

        docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                     columns=["doc_id", "text"])
        return minhash_lsh_dedup(docs, jaccard_threshold=0.8)

    def _ngram_jaccard(sf_dir: str):
        """EXACT n-gram Jaccard similarity self-join via prefix
        filtering (All-Pairs/PPJoin candidate scheme) — no MinHash, so
        the all-pairs DuckDB oracle checks recall=1.0 of the prefix
        filter itself, not a probabilistic banding.  Lower threshold
        than q22 (0.7) exercises pairs the LSH path never reports."""
        import ray

        from featurebox_ray.stages.dedup import ngram_jaccard_join

        docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                     columns=["doc_id", "text"])
        return ngram_jaccard_join(docs, jaccard_threshold=0.7)

    def _dedup_pairs_simhash(sf_dir: str):
        """Banded SimHash near-dup vs a brute-force all-pairs Hamming
        fixture: an independent O(n²) numpy pass over the same simhashes
        writes the ground-truth pair list to a parquet the oracle reads —
        checking the 4×16 pigeonhole banding is a complete cover."""
        import os

        import numpy as np
        import pyarrow as pa
        import pyarrow.parquet as pq
        import ray

        from featurebox_ray.stages.dedup import SimHasher, simhash_dedup

        docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet")

        # independent brute-force ground truth (all pairs, no banding) —
        # chunked XOR + byte-LUT popcount so the n^2 pass stays in-cache
        tbl = pq.read_table(f"{sf_dir}/documents.parquet",
                            columns=["doc_id", "text"])
        ids = tbl["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        h, ntok = SimHasher.batch_simhash(tbl["text"].combine_chunks(),
                                          return_counts=True)
        # spec: zero-token docs are outside simhash near-dup semantics
        # (engine drops them pre-banding; mirror it here)
        ids, h = ids[ntok > 0], h[ntok > 0]
        order = np.argsort(ids)
        ids, h = ids[order], h[order]
        pop = np.array([bin(v).count("1") for v in range(256)], np.uint8)
        n = len(ids)
        # mirror the engine's bucket_cap skip (default 4000): a pair is
        # reported only when SOME shared 16-bit band bucket is under the
        # cap — without this the capless all-pairs truth would fail a
        # correct engine on duplicate-heavy corpora (q39/q42 mirror
        # their caps the same way)
        CAP = 4000
        shifts = np.array([0, 16, 32, 48], np.uint64)
        bands = ((h[:, None] >> shifts[None, :])
                 & np.uint64(0xFFFF)).astype(np.int64)  # (n, 4)
        bucket_sz = np.empty((n, 4), np.int64)
        for b in range(4):
            _, inv, c = np.unique(bands[:, b], return_inverse=True,
                                  return_counts=True)
            bucket_sz[:, b] = c[inv]
        out_a, out_b, out_d = [], [], []
        for s in range(0, n, 256):
            e = min(s + 256, n)
            x = h[s:e, None] ^ h[None, :]  # (chunk, n)
            d = np.zeros(x.shape, np.int64)
            for byte in range(8):
                d += pop[((x >> np.uint64(8 * byte))
                          & np.uint64(0xFF)).astype(np.uint8)]
            ci, cj = np.nonzero(d <= 3)
            keep = (ci + s) < cj  # upper triangle only
            gi, gj = ci[keep] + s, cj[keep]
            covered = ((bands[gi] == bands[gj])
                       & (bucket_sz[gi] <= CAP)).any(axis=1)
            gi, gj = gi[covered], gj[covered]
            out_a.append(ids[gi])
            out_b.append(ids[gj])
            out_d.append(d[gi - s, gj])
        os.makedirs(_ORACLE_DIR, exist_ok=True)
        pq.write_table(pa.table({
            "id_a": pa.array(np.concatenate(out_a), pa.int64()),
            "id_b": pa.array(np.concatenate(out_b), pa.int64()),
            "hamming": pa.array(np.concatenate(out_d), pa.int64()),
        }), f"{_ORACLE_DIR}/simhash_pairs.parquet.tmp")
        os.replace(f"{_ORACLE_DIR}/simhash_pairs.parquet.tmp",
                   f"{_ORACLE_DIR}/simhash_pairs.parquet")

        out = simhash_dedup(docs, max_hamming=3)

        def fin(batch: pa.Table) -> pa.Table:
            return pa.table({
                "id_a": batch["id_a"].cast(pa.int64()),
                "id_b": batch["id_b"].cast(pa.int64()),
                "hamming": batch["hamming"].cast(pa.int64()),
            })

        return out.map_batches(fin, batch_format="pyarrow")

    def _embedding_neardup(sf_dir: str):
        """Banded hyperplane-LSH cosine near-dup; oracle = DuckDB all-pairs
        cosine (DOUBLE[]) at the same threshold.  At t=0.45 with r=2, b=48
        the banding miss probability per true pair is ~4e-12, so the LSH
        path must reproduce the exact all-pairs answer."""
        import ray

        from featurebox_ray.stages.dedup import embedding_neardup

        emb = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet")
        return embedding_neardup(emb, threshold=0.45, bands=48,
                                 planes_per_band=2)

    def _ivf_ann(sf_dir: str):
        """IVF ANN with deterministic first-C centroids (zero training
        iterations) so the DuckDB oracle can replay the exact
        assignment → probe → in-bucket search → global merge.  The
        kmeans-trained variant is covered by tests/test_dedup_text_ann."""
        import numpy as np
        import pyarrow as pa
        import ray

        from featurebox_ray.stages.ann import ivf_topk

        emb = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet")
        q = [r["embedding"] for r in sorted(
            emb.filter(expr="vec_id < 3").take(6), key=lambda r: r["vec_id"])]
        out = ivf_topk(emb, np.stack(q), k=10, n_centroids=8, nprobe=4,
                       centroid_init="first")

        def fin(batch: pa.Table) -> pa.Table:
            import numpy as np
            v = batch["cosine"].to_numpy(zero_copy_only=False)
            return pa.table({
                "query_id": batch["query_id"].cast(pa.int64()),
                "vec_id": batch["vec_id"].cast(pa.int64()),
                "cosine": pa.array(np.round(v, 4)),
            })

        return out.map_batches(fin, batch_format="pyarrow")

    def _text_analysis(sf_dir: str):
        """Full text-analysis surface (lang-ID, quality, stopword ratio,
        BPE-ish token count, md5 winnowing fingerprint) — every column is
        replayed by the DuckDB oracle (same RE2 regexes, same stopword
        lists, min(md5(5-gram)) fingerprint)."""
        import numpy as np
        import pyarrow as pa
        import ray

        from featurebox_ray.stages.text import text_features_fn

        docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                     columns=["doc_id", "text"])
        # stateless-task variant: per-worker cached featurizer, no
        # actor-pool spin-up (the pool's cold start was ~half the query)
        out = docs.map_batches(text_features_fn, batch_format="pyarrow",
                               zero_copy_batch=True, batch_size=2048)

        def fin(batch: pa.Table) -> pa.Table:
            return pa.table({
                "doc_id": batch["doc_id"].cast(pa.int64()),
                "ta_lang": batch["ta_lang"],
                "ta_quality": pa.array(np.round(
                    batch["ta_quality"].to_numpy(zero_copy_only=False), 6)),
                "ta_stopword_ratio": pa.array(np.round(
                    batch["ta_stopword_ratio"].to_numpy(zero_copy_only=False), 6)),
                "ta_n_bpe_tokens": batch["ta_n_bpe_tokens"].cast(pa.int64()),
                "ta_fingerprint": batch["ta_fingerprint"],
            })

        return out.map_batches(fin, batch_format="pyarrow")

    def _multimodal(sf_dir: str):
        """Image-feature plumbing over the deterministic raw-byte fake
        codec; the oracle is an INDEPENDENT pure-Python (math/statistics,
        no numpy) replay of decode+features written to a fixture parquet —
        a dual-implementation check on the vectorized path."""
        import math
        import os

        import numpy as np
        import pyarrow as pa
        import pyarrow.parquet as pq
        import ray

        from featurebox_ray.stages.multimodal import (
            add_image_features, fake_decode, make_fake_media_table)

        t = make_fake_media_table(256)

        # independent scalar-Python feature computation (fixture oracle)
        ids, means, stds, ents = [], [], [], []
        for mid, payload in zip(t["media_id"].to_pylist(),
                                t["payload"].to_pylist()):
            payload = payload or b"\x00"  # same guard as fake_decode
            need = 8 * 8 * 3
            buf = (payload * (-(-need // len(payload))))[:need]
            r = list(buf[0::3])
            g = list(buf[1::3])
            mean_r = sum(r) / len(r)
            mean_g = sum(g) / len(g)
            var_g = sum((v - mean_g) ** 2 for v in g) / len(g)
            hist = [0] * 16
            for v in r:
                hist[v // 16] += 1
            total = sum(hist)
            ent = -sum((c / total) * math.log2(c / total)
                       for c in hist if c)
            ids.append(mid)
            means.append(round(mean_r, 6))
            stds.append(round(math.sqrt(var_g), 6))
            ents.append(round(ent, 6))
        os.makedirs(_ORACLE_DIR, exist_ok=True)
        pq.write_table(pa.table({
            "media_id": pa.array(ids, pa.int64()),
            "img_mean_r": pa.array(means),
            "img_std_g": pa.array(stds),
            "img_entropy": pa.array(ents),
            "img_decoder_is_fake": pa.array([True] * len(ids)),
        }), f"{_ORACLE_DIR}/multimodal_features.parquet.tmp")
        os.replace(f"{_ORACLE_DIR}/multimodal_features.parquet.tmp",
                   f"{_ORACLE_DIR}/multimodal_features.parquet")

        ds = ray.data.from_arrow(t)
        # pin the fake codec: the fixture replays ITS math, and this keeps
        # q27 stable even if a real image library becomes importable
        out = add_image_features(ds, batch_size=32, codec=fake_decode)

        def fin(batch: pa.Table) -> pa.Table:
            def r6(c):
                return pa.array(np.round(
                    batch[c].to_numpy(zero_copy_only=False), 6))

            return pa.table({
                "media_id": batch["media_id"].cast(pa.int64()),
                "img_mean_r": r6("img_mean_r"),
                "img_std_g": r6("img_std_g"),
                "img_entropy": r6("img_entropy"),
                "img_decoder_is_fake": batch["img_decoder_is_fake"],
            })

        return out.map_batches(fin, batch_format="pyarrow")

    return {
        # relational coverage (sources, filter/project, aggregate, join,
        # top-k, distinct, union)
        "q01_pricing_summary": rel.pricing_summary,
        "q02_filter_project": rel.filter_project_revenue,
        "q03_top_customers": rel.top_customers,
        "q04_priority_revenue": rel.order_priority_revenue,
        "q05_distinct_users": rel.distinct_users_per_type,
        "q15_group_stats": rel.group_stats_kernels,
        "q16_corr_matrix": rel.corr_matrix,
        # transcript-engine operators over events
        "q06_sessionize": eq.sessionized,
        "q07_lag_delta": eq.lag_delta,
        "q08_rolling_window": eq.rolling_window,
        "q09_time_window": eq.time_window,
        "q10_asof_backfill": eq.asof_backfill,
        "q11_session_stats": eq.session_aggregate,
        "q12_normalize": eq.normalized_value,
        "q13_poly": eq.poly_lineitem,
        "q14_broadcast_lookup": eq.event_type_lookup,
        # documents / embeddings operators
        "q31_turn_context": eq.turn_context,
        "q17_exact_dedup": eq.exact_dedup_docs,
        "q18_token_counts": eq.token_counts,
        "q20_ann_topk": eq.ann_topk,
        # non-SQL-expressible (rows-only checks)
        "q22_minhash_neardup": _dedup_pairs_minhash,
        "q23_simhash_neardup": _dedup_pairs_simhash,
        "q24_embedding_neardup": _embedding_neardup,
        "q25_ivf_ann": _ivf_ann,
        "q26_text_analysis": _text_analysis,
        "q27_multimodal": _multimodal,
        "q28_subset_select": _subset_select,
        "q29_symbolic_golden": _symbolic_golden,
        "q30_ego_rank": _ego_rank,
        "q33_expression_feature": _expression_feature,
        "q34_group_select": _group_select,
        "q36_consensus_rank": _consensus_rank,
        "q37_bpe_tokens": _bpe_tokens,
        "q38_group_dispose": _group_dispose_feature,
        "q39_voronoi_neighbors": _voronoi_stats,
        "q40_multi_ego": _multi_ego_rank,
        "q41_composition_parse": _composition_parse,
        "q43_clf_select": _clf_select,
        "q44_grid_search": _grid_search_cv,
        "q45_ngram_jaccard": _ngram_jaccard,
        "q47_http_fetch": _http_fetch_q,
        # 100-TB-family representatives promoted into the first-50
        # prefix (the driver gate checks the first 50 queries() entries
        # in insertion order — CORRECTNESS_r04 rule): tfidf exchange,
        # exact-substring dup spans, global rank, edit-distance join,
        # retention cohorts, pagerank
        "q53_tfidf": _tfidf_q,
        "q84_dup_spans": _dup_spans_q,
        "q85_global_rank": _global_rank_q,
        "q107_editdist_join": _editdist_join_q,
        "q121_retention": _retention_q,
        "q187_pagerank": _pagerank_q,
        "q48_kmv_distinct": _kmv_distinct_q,
        "q49_interval_join": _interval_join_q,
        "q50_hash_sample": _hash_sample_q,
        # displaced from the checked prefix (families still anchored
        # there: top-k by q03, windows by q08/q11, neighbors by q39,
        # diagnostics by q302); all remain value-oracled below
        "q19_top_docs": rel.top_docs_by_len,
        "q21_union": rel.union_all_keys,
        "q32_usage_rate": eq.tool_usage_rate,
        "q35_skew_probe": _skew_probe,
        "q42_radius_neighbors": _radius_neighbors,
        "q46_rotate_slices": _rotate_slices_q,
        "q51_group_quantiles": _group_quantiles_q,
        "q52_tumbling_window": eq.tumbling_stats,
        "q54_batch_files": _batch_files_q,
        "q55_cap_per_group": _cap_per_group_q,
        "q56_asof_forward": eq.asof_next_event,
        "q57_kmeans": _kmeans_q,
        "q58_bloom_semi": _bloom_semi_q,
        "q59_bloom_anti": _bloom_anti_q,
        "q60_rank_family": _rank_family_q,
        "q61_hist_quantiles": _hist_quantiles_q,
        "q62_top_terms": _top_terms_q,
        "q63_stratified_sample": _stratified_sample_q,
        "q64_cont_quantiles": _cont_quantiles_q,
        "q65_rollup": _rollup_q,
        "q66_pivot": _pivot_q,
        "q67_weighted_sample": _weighted_sample_q,
        "q68_chunk_docs": _chunk_docs_q,
        "q69_pack_sequences": _pack_sequences_q,
        "q70_llm_prep": _llm_prep_q,
        "q71_quantile_bin": _quantile_bin_q,
        "q72_decontaminate": _decontaminate_q,
        "q73_repetition": _repetition_q,
        "q74_semantic_dedup": _semantic_dedup_q,
        "q75_bpe_train": _bpe_train_q,
        "q76_dup_components": _dup_components_q,
        "q77_clean_corpus": _clean_corpus_q,
        "q78_inverted_index": _inverted_index_q,
        "q79_group_split": _group_split_q,
        "q80_redact": _redact_q,
        "q81_full_join": _full_join_q,
        "q82_winsorize": _winsorize_q,
        "q83_cube": _cube_q,
        "q86_corpus_freq": _corpus_freq_q,
        "q87_hopping_window": _hopping_window_q,
        "q88_cms_counts": _cms_counts_q,
        "q89_dup_fraction": _dup_fraction_q,
        "q90_group_mode": _group_mode_q,
        "q91_asof_tolerance": _asof_tolerance_q,
        "q92_pca": _pca_q,
        "q93_json_extract": _json_extract_q,
        "q94_canon_dedup": _canon_dedup_q,
        "q95_ewm": _ewm_q,
        "q96_running_total": _running_total_q,
        "q97_profile": _profile_q,
        "q98_group_norm": _group_norm_q,
        "q99_group_topk": _group_topk_q,
        "q100_event_chain": _event_chain_q,
        "q101_hll_distinct": _hll_distinct_q,
        "q102_group_linfit": _group_linfit_q,
        "q103_unpivot": _unpivot_q,
        "q104_asof_nearest": _asof_nearest_q,
        "q105_rolling_median": _rolling_median_q,
        "q106_transitions": _transitions_q,
        "q108_jsonl_roundtrip": _jsonl_roundtrip_q,
        "q109_robust_zscore": _robust_zscore_q,
        "q110_group_corr": _group_corr_q,
        "q111_centered_window": _centered_window_q,
        "q112_lm_perplexity": _lm_perplexity_q,
        "q113_bucketed_interval": _bucketed_interval_q,
        "q114_funnel": _funnel_q,
        "q115_group_moments": _group_moments_q,
        "q116_centroid_distance": _centroid_distance_q,
        "q117_script_profile": _script_profile_q,
        "q118_windowed_distinct": _windowed_distinct_q,
        "q119_top_bigrams": _top_bigrams_q,
        "q120_snapshot_diff": _snapshot_diff_q,
        "q122_group_auc": _group_auc_q,
        "q123_lift_table": _lift_table_q,
        "q124_weighted_stats": _weighted_stats_q,
        "q125_throttle": _throttle_q,
        "q126_cusum": _cusum_q,
        "q127_semantic_decontam": _semantic_decontam_q,
        "q128_session_cooccurrence": _session_cooccurrence_q,
        "q129_session_journeys": _session_journeys_q,
        "q130_time_weighted_avg": _time_weighted_avg_q,
        "q131_mmr_select": _mmr_select_q,
        "q132_group_spearman": _group_spearman_q,
        "q133_category_drift": _category_drift_q,
        "q134_incremental_neardup": _incremental_neardup_q,
        "q135_drawdown": _drawdown_q,
        "q136_target_encode": _target_encode_q,
        "q137_snm_neardup": _snm_neardup_q,
        "q138_group_gini": _group_gini_q,
        "q139_line_dedup": _line_dedup_q,
        "q140_forward_fill": _forward_fill_q,
        "q141_rolling_distinct": _rolling_distinct_q,
        "q142_collocation_pmi": _collocation_pmi_q,
        "q143_ab_test": _ab_test_q,
        "q144_balance_corpus": _balance_corpus_q,
        "q145_knn_join": _knn_join_q,
        "q146_keep_best_dedup": _keep_best_dedup_q,
        "q147_latest_event": _latest_event_q,
        "q148_vocab_overlap": _vocab_overlap_q,
        "q149_diversified_topk": _diversified_topk_q,
        "q150_temperature_mix": _temperature_mix_q,
        "q151_ecdf_encode": _ecdf_encode_q,
        "q152_skipgram_pairs": _skipgram_pairs_q,
        "q153_naive_bayes": _naive_bayes_q,
        "q154_isotonic": _isotonic_q,
        "q155_ngram_novelty": _ngram_novelty_q,
        "q156_gopher_rules": _gopher_rules_q,
        "q157_budget_select": _budget_select_q,
        "q158_collapse_rare": _collapse_rare_q,
        "q159_busy_overlap": _busy_overlap_q,
        "q160_calibration": _calibration_q,
        "q161_resample": _resample_q,
        "q162_weighted_quantiles": _weighted_quantiles_q,
        "q163_trimmed_mean": _trimmed_mean_q,
        "q164_hard_negatives": _hard_negatives_q,
        "q165_crosstab_chi2": _crosstab_chi2_q,
        "q166_stratified_folds": _stratified_folds_q,
        "q167_rolling_slope": _rolling_slope_q,
        "q168_curate_corpus": _curate_corpus_q,
        "q169_ridge_fit": _ridge_fit_q,
        "q170_burstiness": _burstiness_q,
        "q171_concurrency": _concurrency_q,
        "q172_rising_terms": _rising_terms_q,
        "q173_k_anonymity": _k_anonymity_q,
        "q174_label_prototypes": _label_prototypes_q,
        "q175_wilson_rates": _wilson_rates_q,
        "q176_lexical_diversity": _lexical_diversity_q,
        "q177_group_top_terms": _group_top_terms_q,
        "q178_compression_ratio": _compression_ratio_q,
        "q179_ks_drift": _ks_drift_q,
        "q180_rfm_segments": _rfm_segments_q,
        "q181_cohort_value": _cohort_value_q,
        "q182_longest_streak": _longest_streak_q,
        "q183_order_violations": _order_violations_q,
        "q184_cdc_compact": _cdc_compact_q,
        "q185_zorder_layout": _zorder_layout_q,
        "q186_theil_sen": _theil_sen_q,
        "q188_attribution": _attribution_q,
        "q189_scd2_intervals": _scd2_q,
        "q190_pq_codes": _pq_codes_q,
        "q191_funnel_path": _funnel_path_q,
        "q192_novelty_curve": _novelty_curve_q,
        "q193_soundex_block": _soundex_q,
        "q194_context_trim": _context_trim_q,
        "q195_feature_hash": _feature_hash_q,
        "q196_seasonal_peak": _seasonal_peak_q,
        "q197_lag_autocov": _lag_autocov_q,
        "q198_containment_join": _containment_q,
        "q199_benford_digits": _benford_q,
        "q200_triangle_census": _triangle_census_q,
        "q201_rolling_rank": _rolling_rank_q,
        "q202_er_match": _er_match_q,
        "q203_rrf_fusion": _rrf_fusion_q,
        "q204_table_checksum": _table_checksum_q,
        "q205_kappa_agreement": _kappa_q,
        "q206_association_rules": _assoc_rules_q,
        "q207_prefix_dedup": _prefix_dedup_q,
        "q208_weighted_interleave": _interleave_q,
        "q209_silhouette": _silhouette_q,
        "q210_k_center": _k_center_q,
        "q211_changepoint": _changepoint_q,
        "q212_vocab_coverage": _vocab_coverage_q,
        "q213_loo_encode": _loo_encode_q,
        "q214_mann_whitney": _mann_whitney_q,
        "q215_kaplan_meier": _kaplan_meier_q,
        "q216_cross_source": _cross_source_q,
        "q217_split_audit": _split_audit_q,
        "q218_set_cover": _set_cover_q,
        "q219_prep_corpus": _prep_corpus_q,
        "q220_pareto_front": _pareto_q,
        "q221_quota_allocate": _quota_q,
        "q222_did_estimate": _did_q,
        "q223_shapley": _shapley_q,
        "q224_kmv_setops": _kmv_setops_q,
        "q225_fk_audit": _fk_audit_q,
        "q226_quota_sample": _quota_sample_q,
        "q227_encoding_audit": _encoding_audit_q,
        "q228_chi2_keyness": _chi2_keyness_q,
        "q229_kendall_tau": _kendall_tau_q,
        "q230_sax_symbols": _sax_q,
        "q231_churn_profile": _churn_profile_q,
        "q232_quantile_normalize": _quantile_normalize_q,
        "q233_kn_bigram": _kn_bigram_q,
        "q234_assortativity": _assortativity_q,
        "q235_bm25": _bm25_q,
        "q236_jenks_breaks": _jenks_q,
        "q237_wasserstein_drift": _wasserstein_q,
        "q238_haar_energy": _haar_q,
        "q239_k_core": _k_core_q,
        "q240_bfs_hops": _bfs_q,
        "q241_mahalanobis": _mahalanobis_q,
        "q242_ridge_influence": _ridge_influence_q,
        "q243_mutual_nn": _mutual_nn_q,
        "q244_randomization_test": _randomization_q,
        "q245_dbscan": _dbscan_q,
        "q246_label_prop": _label_prop_q,
        "q247_golden_records": _golden_q,
        "q248_knn_eval": _knn_eval_q,
        "q249_hour_profile": _hour_profile_q,
        "q250_asof_interpolate": _asof_interp_q,
        "q251_weak_label": _weak_label_q,
        "q252_ipc_roundtrip": _ipc_roundtrip_q,
        "q253_mmd_drift": _mmd_q,
        "q254_logrank": _logrank_q,
        "q255_readability": _readability_q,
        "q256_gk_tau": _gk_tau_q,
        "q257_decay_attribution": _decay_attr_q,
        "q258_bootstrap_ci": _bootstrap_ci_q,
        "q259_two_hop": _two_hop_q,
        "q260_scd2_apply": _scd2_apply_q,
        "q261_seasonal_anomaly": _seasonal_anomaly_q,
        "q262_ts_collisions": _ts_collision_q,
        "q263_eventually_follows": _eventually_q,
        "q264_next_latency": _next_latency_q,
        "q265_weighted_jaccard": _weighted_jaccard_q,
        "q266_activation": _activation_q,
        "q267_predictability": _predictability_q,
        "q268_bot_scorecard": _bot_scorecard_q,
        "q269_oscillation": _oscillation_q,
        "q270_coactivity": _coactivity_q,
        "q271_doc_scorecard": _doc_scorecard_q,
        "q272_csv_roundtrip": _csv_roundtrip_q,
        "q273_ridge_eval": _ridge_eval_q,
        "q274_pr_sweep": _pr_sweep_q,
        "q275_watermark_lateness": _watermark_q,
        "q276_grouped_ridge": _grouped_ridge_q,
        "q277_learning_curve": _learning_curve_q,
        "q278_conformal": _conformal_q,
        "q279_bucketed_join": _bucketed_join_q,
        "q280_incremental_agg": _incremental_agg_q,
        "q281_global_quantile": _global_quantile_q,
        "q282_topk_two_pass": _topk_two_pass_q,
        "q283_validate": _validate_q,
        "q284_compaction": _compaction_q,
        "q285_schema_evolution": _schema_evolution_q,
        "q286_outlier_explain": _outlier_explain_q,
        "q287_adaptive_sessionize": _adaptive_sessionize_q,
        "q288_qq_drift": _qq_drift_q,
        "q289_markov_attribution": _markov_attr_q,
        "q290_gini": _gini_q,
        "q291_range_pruned_read": _range_pruned_q,
        "q292_embed_diversity": _embed_diversity_q,
        "q293_l_diversity": _l_diversity_q,
        "q294_mixed_language": _mixed_language_q,
        "q295_release_gate": _release_gate_q,
        "q296_seasonal_backtest": _seasonal_backtest_q,
        "q297_split_contamination": _split_contamination_q,
        "q298_new_vs_returning": _new_vs_returning_q,
        "q299_double_charge": _double_charge_q,
        "q300_corpus_factory": _corpus_factory_q,
        "q301_redaction_audit": _redaction_audit_q,
        "q302_skew_report": _skew_report_q,
        "q303_components": _min_components_q,
        "q304_salted_join": _salted_join_q,
        "q305_rolling_extrema": _rolling_extrema_q,
        "q306_provenance_read": _provenance_read_q,
        "q307_impute_median": _impute_median_q,
        "q308_dialogue_profile": _dialogue_profile_q,
        "q309_delta_contributors": _delta_contributors_q,
        "q310_salted_running_total": _salted_running_total_q,
        "q311_salted_time_window": _salted_time_window_q,
        "q312_finalized_windows": eq.finalized_tumbling_stats,
        "q313_coverage_curve": _coverage_curve_q,
        "q314_latency_profile": _latency_profile_q,
        "q315_embedding_drift": _embedding_drift_q,
        "q316_cdc_chunks": _cdc_chunks_q,
        "q317_cdc_dup_share": _cdc_dup_share_q,
        "q318_event_spans": _event_spans_q,
        "q319_leakage_audit": _leakage_audit_q,
        "q320_dup_regions": _dup_regions_q,
        "q321_scrub_dedup": _scrub_dedup_q,
        "q322_group_completeness": _group_completeness_q,
    }


def _group_completeness_q(sf_dir: str):
    """q322: per-source column completeness matrix
    (stages/profile.py:group_completeness) — (source, column) row
    counts, missing counts (NULL or empty string), fill rate (one
    division of exact ints); per-block partials + the shared Arrow
    combine, no shuffle."""
    import ray

    from featurebox_ray.stages.profile import group_completeness

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet",
        columns=["source", "text", "lang", "n_chars"],
        override_num_blocks=8)
    return group_completeness(docs, group_col="source",
                              cols=["text", "lang", "n_chars"])


def _cdc_chunks_fixture(sf_dir: str) -> None:
    """Write the serial CDC replay fixture (window 16, mask bits 7, max
    length 800) that the q316/q317/q320/q321 oracles read, unless the
    copy on disk was already built from ``sf_dir`` (its ``.src`` file
    names the source directory).  The fixture is param-keyed and
    byte-deterministic, and the replay is the most expensive pure-Python
    loop in the suite, so it runs once per ``sf_dir``."""
    import os

    import pyarrow.parquet as pq

    from _oracle_replays import replay_cdc_chunks

    fpath = f"{_ORACLE_DIR}/cdc_chunks_w16m7l800.parquet"
    spath = f"{_ORACLE_DIR}/cdc_chunks_w16m7l800.src"
    if (os.path.exists(fpath) and os.path.exists(spath)
            and open(spath).read() == sf_dir):
        return
    t = pq.read_table(f"{sf_dir}/documents.parquet",
                      columns=["doc_id", "text"])
    rep = replay_cdc_chunks(t["doc_id"].to_pylist(),
                            t["text"].to_pylist(),
                            window=16, mask_bits=7, max_len=800)
    os.makedirs(_ORACLE_DIR, exist_ok=True)
    pq.write_table(rep, fpath + ".tmp")
    os.replace(fpath + ".tmp", fpath)
    with open(spath, "w") as fh:
        fh.write(sf_dir)


def _scrub_dedup_q(sf_dir: str):
    """q321: keep-first chunk-dedup scrub with byte accounting
    (stages/contentchunk.py:cdc_scrub) — REAL byte splicing of every
    non-first duplicate region, n_after measured from the scrubbed
    bytes (n_before − n_removed == n_after is an internal invariant).
    Oracle: per-doc removal sums over the shared serial CDC replay
    fixture joined to octet lengths."""
    import ray

    from featurebox_ray.stages.contentchunk import cdc_scrub

    W, MB, ML = 16, 7, 800
    _cdc_chunks_fixture(sf_dir)
    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["doc_id", "text"],
                                 override_num_blocks=8)
    return cdc_scrub(docs, window=W, mask_bits=MB, max_len=ML,
                     num_partitions=8)


def _dup_regions_q(sf_dir: str):
    """q320: duplicate text regions (stages/contentchunk.py:
    cdc_dup_regions) — every CDC chunk whose (hash, length) class
    repeats, with class size and first-seen doc: the keep-first
    removal plan behind q317's rates.  Oracle: SQL HAVING/JOIN over
    the same independent serial CDC replay fixture as q316/q317."""
    import ray

    from featurebox_ray.stages.contentchunk import cdc_dup_regions

    W, MB, ML = 16, 7, 800
    _cdc_chunks_fixture(sf_dir)
    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["doc_id", "text"],
                                 override_num_blocks=8)
    return cdc_dup_regions(docs, window=W, mask_bits=MB, max_len=ML,
                           num_partitions=8)


def _leakage_audit_q(sf_dir: str):
    """q319: temporal-leakage audit as an operator (stages/asof.py:
    asof_leakage_audit) — run the q10-shaped backfill with the
    matched right ts exposed as a value column, then recompute the
    correct backward as-of per row and count disagreements.  The
    oracle recomputes n_rows/n_matched per user with an independent
    inequality join and asserts n_mismatch = 0 — the engine's column
    must agree (a leaking or stale engine join would emit nonzero
    mismatches and/or different match counts)."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray

    from featurebox_ray.stages.asof import (asof_join,
                                            asof_leakage_audit)

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "ts", "user_id", "event_type"],
        override_num_blocks=8).materialize()

    def right_side(b: pa.Table) -> pa.Table:
        m = pc.fill_null(pc.equal(b["event_type"], "error"), False)
        b = b.filter(m)
        ts = b["ts"].combine_chunks().cast(pa.int64())
        return pa.table({"user_id": b["user_id"], "ts": b["ts"],
                         "rts": ts})

    def left_side(b: pa.Table) -> pa.Table:
        return b.select(["event_id", "user_id", "ts"])

    right = ev.map_batches(right_side, batch_format="pyarrow",
                           zero_copy_batch=True).materialize()
    left = ev.map_batches(left_side, batch_format="pyarrow",
                          zero_copy_batch=True)
    joined = asof_join(left, right, key="user_id", ts_col="ts",
                       right_cols=["rts"], num_partitions=8)
    return asof_leakage_audit(joined, right, key="user_id",
                              ts_col="ts", matched_ts_col="rts",
                              num_partitions=8)


def _event_spans_q(sf_dir: str):
    """q318: span reconstruction (stages/transitions.py:paired_spans)
    — n-th 'click' pairs with n-th 'purchase' per user (rank
    pairing in (ts, order) order); unmatched ranks NULL-sided,
    negative durations preserved as the audit signal.  SQL replays
    with a FULL JOIN of row_number-ranked sides."""
    import ray

    from featurebox_ray.stages.transitions import paired_spans

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "ts", "user_id", "event_type"],
        override_num_blocks=8)
    return paired_spans(ev, key_col="user_id", ts_col="ts",
                        order_col="event_id", type_col="event_type",
                        start_type="click", end_type="purchase",
                        num_partitions=8)


def _cdc_dup_share_q(sf_dir: str):
    """q317: chunk-level duplication rate per document
    (stages/contentchunk.py:cdc_dup_share) — CDC chunks, first-seen class =
    min doc id per (hash, length), per-doc dup share in two chunk-
    keyed exchanges.  Oracle: SQL OVER the independent serial CDC
    replay (the q316 fixture recomputed here), so the chunking AND
    the dedup rollup are both externally checked."""
    import ray

    from featurebox_ray.stages.contentchunk import cdc_dup_share

    W, MB, ML = 16, 7, 800
    _cdc_chunks_fixture(sf_dir)
    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["doc_id", "text"],
                                 override_num_blocks=8)
    return cdc_dup_share(docs, window=W, mask_bits=MB, max_len=ML,
                         num_partitions=8)


def _cdc_chunks_q(sf_dir: str):
    """q316: content-defined chunking (stages/contentchunk.py:cdc_chunk) —
    FastCDC-style predicate boundaries (rolling window hash low bits
    zero), max-len arithmetic splits, per-chunk polynomial content
    hash from prefix differences; boundaries re-synchronize after
    insertions (the dedup-friendly property fixed windows lack).
    Fixture oracle: INDEPENDENT per-doc serial rolling-hash replay
    (_oracle_replays.replay_cdc_chunks) — not SQL-expressible."""
    import ray

    from featurebox_ray.stages.contentchunk import cdc_chunk

    W, MB, ML = 16, 7, 800
    _cdc_chunks_fixture(sf_dir)
    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["doc_id", "text"],
                                 override_num_blocks=8)
    return cdc_chunk(docs, window=W, mask_bits=MB, max_len=ML)


def _embedding_drift_q(sf_dir: str):
    """q315: per-label embedding-centroid drift (stages/cohesion.py:
    embedding_period_drift) — signed squared cosine between the two
    id-halves' centroid sums; exact object-int dots/norms, ONE
    float64 division; HUGEINT unnest SQL oracle (q292 technique +
    q116 half-up quantizer)."""
    import ray

    from featurebox_ray.stages.cohesion import embedding_period_drift

    emb = ray.data.read_parquet(
        f"{sf_dir}/embeddings.parquet",
        columns=["vec_id", "embedding", "label"],
        override_num_blocks=8)
    return embedding_period_drift(emb, vec_col="embedding",
                                  id_col="vec_id",
                                  label_col="label", quant_bits=10)


def _latency_profile_q(sf_dir: str):
    """q314: per-conversation inter-turn latency profile
    (stages/transitions.py:latency_profile) — n_gaps, median/p90/max
    gap as exact quantile_disc order statistics (shared
    _disc_index_vec convention); single-event keys emit NULL stats.
    One keyed exchange, one lexsort + disc-rank gather."""
    import ray

    from featurebox_ray.stages.transitions import latency_profile

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "ts", "user_id"],
        override_num_blocks=8)
    return latency_profile(ev, key_col="user_id", ts_col="ts",
                           order_col="event_id", num_partitions=8)


def _coverage_curve_q(sf_dir: str):
    """q313: corpus concentration curve (stages/profile.py:
    coverage_curve) — min docs (largest-first) covering 50/80/90/95/99
    percent of total characters; sort-free exact ints from
    distinct-length value-count partials; SQL replays with a
    descending window cumsum + cross-multiplied threshold."""
    import ray

    from featurebox_ray.stages.profile import coverage_curve

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["n_chars"],
                                 override_num_blocks=8)
    return coverage_curve(docs, weight_col="n_chars")


def _salted_time_window_q(sf_dir: str):
    """q311: mega-key-safe trailing time-window sum (stages/window.py:
    salted_time_window_sum) — 10-minute RANGE window over cents,
    timeline range-split into 8 buckets with halo replication of
    window-reach rows; per-bucket local exact sums equal the plain
    RANGE window bit-exactly."""
    import pyarrow as pa
    import ray

    from featurebox_ray.stages.window import salted_time_window_sum

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "ts", "user_id", "value"],
        override_num_blocks=8)

    def cents(b: pa.Table) -> pa.Table:
        from featurebox_ray.functions.segments import cents_exact

        return pa.table({
            "event_id": b["event_id"], "ts": b["ts"],
            "user_id": b["user_id"],
            "c": pa.array(cents_exact(b["value"].combine_chunks()))})

    return salted_time_window_sum(
        ev.map_batches(cents, batch_format="pyarrow",
                       zero_copy_batch=True),
        key_col="user_id", ts_col="ts", order_col="event_id",
        int_value_col="c", window=600_000_000, n_buckets=8,
        num_partitions=8)


def _salted_running_total_q(sf_dir: str):
    """q310: mega-key-safe running total (stages/window.py:
    salted_running_total) — every key's timeline is range-split into
    8 time buckets that land in separate exchange partitions; bucket-
    local cumsums plus exact per-(key,bucket) offset totals (per-block
    partials, driver combine, broadcast) reproduce the plain windowed
    cumulative sum bit-exactly.  Values are cents (q96 convention)."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray

    from featurebox_ray.stages.window import salted_running_total

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "ts", "user_id", "value"],
        override_num_blocks=8)

    def cents(b: pa.Table) -> pa.Table:
        import numpy as np

        from featurebox_ray.functions.segments import cents_exact

        return pa.table({
            "event_id": b["event_id"], "ts": b["ts"],
            "user_id": b["user_id"],
            "c": pa.array(cents_exact(b["value"].combine_chunks()))})

    return salted_running_total(
        ev.map_batches(cents, batch_format="pyarrow",
                       zero_copy_batch=True),
        key_col="user_id", ts_col="ts", order_col="event_id",
        int_value_col="c", n_buckets=8, num_partitions=8)


def _delta_contributors_q(sf_dir: str):
    """q309: metric-delta drill-down (stages/diff.py:
    delta_contributors) — time span split at the q217 midpoint cut,
    per event_type exact cent sums before/after, delta, and share of
    the total delta (one float division of exact ints).  Per-block
    partials + the shared Arrow combine; no shuffle."""
    import ray  # noqa: F401

    from featurebox_ray.stages.diff import delta_contributors

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["ts", "event_type", "value"],
        override_num_blocks=8)
    return delta_contributors(ev, ts_col="ts", dim_col="event_type",
                              value_col="value")


def _dialogue_profile_q(sf_dir: str):
    """q308: per-conversation dialogue-structure profile
    (stages/transitions.py:dialogue_profile) — turns, same-type runs
    (role alternations + 1), longest run, distinct types; one keyed
    exchange, shifted compares + reduceat, all-int; SQL islands
    (row_number difference) replay exactly."""
    import ray

    from featurebox_ray.stages.transitions import dialogue_profile

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "ts", "user_id", "event_type"],
        override_num_blocks=8)
    return dialogue_profile(ev, key_col="user_id", ts_col="ts",
                            order_col="event_id",
                            type_col="event_type", num_partitions=8)


def _impute_median_q(sf_dir: str):
    """q307: grouped median imputation (stages/quantile.py:
    impute_group_median) — the synthetic corpus has zero NULLs, so
    the query injects them deterministically (event_id % 7 == 0) and
    fills each from its event_type's exact quantile_disc median (an
    element selection, q51 convention — bit-exact in SQL).  One
    group-keyed median exchange + a streaming broadcast-fill pass."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray

    from featurebox_ray.stages.quantile import impute_group_median

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "event_type", "value"],
        override_num_blocks=8)

    def inject(b: pa.Table) -> pa.Table:
        import numpy as np

        eid = b["event_id"].to_numpy(zero_copy_only=False)
        mask = (eid % 7 == 0)
        v = b["value"].to_numpy(zero_copy_only=False).copy()
        return pa.table({
            "event_id": b["event_id"],
            "event_type": b["event_type"],
            "value": pa.array(v, pa.float64(), mask=mask)})

    return impute_group_median(
        ev.map_batches(inject, batch_format="pyarrow",
                       zero_copy_batch=True),
        group_col="event_type", value_col="value",
        id_col="event_id", num_partitions=8)


def _provenance_read_q(sf_dir: str):
    """q306: provenance-stamped read (sources/io.py:
    read_with_provenance) — one Ray task per parquet ROW GROUP with
    the per-file row offset taken from the footer metadata (no data
    I/O for the stamps); every row carries (source basename, 0-based
    in-file row index), the record-level lineage a resumable run's
    partition manifests audit against.  DuckDB replays exactly via
    read_parquet(filename=true, file_row_number=true)."""
    import ray  # noqa: F401  (Dataset machinery)

    from featurebox_ray.sources.io import read_with_provenance

    return read_with_provenance(
        f"{sf_dir}/events.parquet",
        columns=["event_id"]).select_columns(
        ["event_id", "_file", "_row"])


def _rolling_extrema_q(sf_dir: str):
    """q305: trailing-5 rolling min/max envelope per user
    (stages/window.py:rolling_extrema) — one keyed exchange, bounded
    window expansion + minimum.at/maximum.at; min/max are selections
    of the stored doubles so the SQL ROWS-window replay is
    bit-exact."""
    import ray

    from featurebox_ray.stages.window import rolling_extrema

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "ts", "user_id", "value"],
        override_num_blocks=8)
    return rolling_extrema(ev, key_col="user_id", ts_col="ts",
                           seq_col="event_id", value_col="value",
                           k=5, num_partitions=8)


def _min_components_q(sf_dir: str):
    """q303: distributed connected components under a closed-form SQL
    oracle — a deterministic star+chain pair graph over doc ids
    (star: i — (i − i%5) for i%5≠0, some edges emitted twice; chain:
    head 5m — 5(m−1) unless m%8==0) whose components are exactly the
    40-id blocks, so the oracle is ``doc_id − doc_id % 40`` with NO
    recursion.  The engine runs the real multi-super-round min-label
    propagation (stages/components.py:min_label_components — edge-min
    supersteps + pointer jumping over 8 partitions; chain diameter ~16
    exercises the jumping), then labels the corpus via the broadcast
    apply.  Duplicate edges and the partial final block are covered
    by construction."""
    import numpy as np
    import pyarrow as pa
    import ray

    from featurebox_ray.stages.components import connected_components

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["doc_id"],
                                 override_num_blocks=8)

    def mk_pairs(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_numpy(zero_copy_only=False).astype(
            np.int64)
        m1 = ids % 5 != 0
        a1, b1 = ids[m1], ids[m1] - ids[m1] % 5
        dup = m1 & (ids % 2 == 0)          # duplicate-edge robustness
        a2, b2 = ids[dup], ids[dup] - ids[dup] % 5
        heads = ids[ids % 5 == 0]
        hm = (heads // 5) % 8 != 0
        a3, b3 = heads[hm], heads[hm] - 5
        return pa.table({
            "id_a": pa.array(np.concatenate([a1, a2, a3])),
            "id_b": pa.array(np.concatenate([b1, b2, b3]))})

    pairs = docs.map_batches(mk_pairs, batch_format="pyarrow",
                             zero_copy_batch=True)
    return connected_components(pairs, docs, id_col="doc_id",
                                num_partitions=8,
                                small_threshold=0)


def _salted_join_q(sf_dir: str):
    """q304: skew-adaptive salted join (stages/join.py:salted_join) —
    events ⋈ customer on user_id with hot keys (≥70 occurrences; the
    per-user average is ~67 at every SF, so roughly half the keys go
    hot and half cold — BOTH routing paths are live at every scale;
    probe_top=4096 keeps the per-block probe exact for this key
    cardinality).  Hot detection is approximate by design and only
    changes ROUTING — the result replays as a plain SQL inner join
    (exact rows, no tolerance)."""
    import ray

    from featurebox_ray.stages.join import salted_join

    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["event_id", "user_id"],
                               override_num_blocks=8)
    cust = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet",
        columns=["c_custkey", "c_mktsegment"])
    return salted_join(ev, cust, on="user_id", right_on="c_custkey",
                       right_cols=["c_mktsegment"],
                       hot_threshold=70, probe_top=4096,
                       max_hot_keys=4096, num_partitions=8)


def _skew_report_q(sf_dir: str):
    """q302: shuffle-skew report (stages/partition.py:key_histogram —
    the engine's own salting-decision probe surfaced as an audited
    operator) — top-10 hottest user keys with exact counts and share
    of all rows; GROUP BY + LIMIT SQL replay is exact."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray

    from featurebox_ray.stages.partition import (key_histogram,
                                                 materialized_block_refs,
                                                 sum_partials)

    ev = (ray.data.read_parquet(f"{sf_dir}/events.parquet",
                                columns=["user_id"])
          .map_batches(lambda b: b.filter(
              pc.fill_null(pc.is_valid(b["user_id"]), False)),
              batch_format="pyarrow", zero_copy_batch=True))
    rows = sum_partials(ray.get(materialized_block_refs(ev.map_batches(
        lambda b: pa.table({"n": pa.array([b.num_rows], pa.int64())}),
        batch_format="pyarrow", batch_size=None))), keys=[], vals=["n"])
    total = 0 if rows is None else rows["n"][0].as_py()
    top = key_histogram(ev, "user_id", top=10)
    n = top["count()"]
    return pa.table({
        "user_id": pa.array(top["user_id"], pa.int64()),
        "n": pa.array(n, pa.int64()),
        "share": pa.array([float(v) / float(total) for v in n],
                          pa.float64())})


def _redaction_audit_q(sf_dir: str):
    """q301: COMPOSED redaction completeness audit — run the q80 PII
    scrub, then PROVE it on the scrubbed output: marker insertions
    equal the original match count and ZERO residual matches remain.
    One summary row, every count an exact Arrow-RE2 integer; the
    regexp_replace SQL replay recomputes the same invariants."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray

    from featurebox_ray.stages.partition import (materialized_block_refs,
                                                 sum_partials)
    from featurebox_ray.stages.redact import pattern_redact

    PAT = r"\b(spark|hash|join)\b"

    docs = (ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                  columns=["doc_id", "text"],
                                  override_num_blocks=16)
            .map_batches(lambda b: b.filter(
                pc.fill_null(pc.is_valid(b["text"]), False)),
                batch_format="pyarrow", zero_copy_batch=True))
    red = pattern_redact(docs, pattern=PAT,
                         replacement="[REDACTED]")

    cols = ["n_docs", "n_redacted_docs", "n_markers", "n_residual"]

    def audit(b: pa.Table) -> pa.Table:
        if b.num_rows == 0 or "text" not in b.column_names:
            return pa.table({c: pa.array([], pa.int64())
                             for c in cols})
        txt = b["text"].combine_chunks()
        markers = pc.count_substring(txt, "[REDACTED]").cast(
            pa.int64())
        residual = pc.count_substring_regex(txt, PAT).cast(pa.int64())
        nred = b["n_redactions"].combine_chunks()
        return pa.table({
            "n_docs": pa.array([b.num_rows], pa.int64()),
            "n_redacted_docs": pa.array(
                [int(pc.sum(pc.cast(pc.greater(nred, 0),
                                    pa.int64())).as_py() or 0)],
                pa.int64()),
            "n_markers": pa.array(
                [int(pc.sum(markers).as_py() or 0)], pa.int64()),
            "n_residual": pa.array(
                [int(pc.sum(residual).as_py() or 0)], pa.int64())})

    return sum_partials(ray.get(materialized_block_refs(
        red.map_batches(audit, batch_format="pyarrow",
                        zero_copy_batch=True, batch_size=None))),
        keys=[], vals=cols) or pa.table(
        {c: pa.array([0], pa.int64()) for c in cols})


def _corpus_factory_q(sf_dir: str):
    """q300: COMPOSED corpus factory — the canonical training-data
    prep chain in one value-oracled pipeline: exact dedup (q17 first-
    per-text contract) → Gopher quality filter (q156 integer-rule
    contract) → per-language rollup (exact doc/token counts, one
    division).  The chained-CTE oracle replays every stage."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray

    from featurebox_ray.stages.dedup import exact_dedup
    from featurebox_ray.stages.partition import (materialized_block_refs,
                                                 sum_partials)
    from featurebox_ray.stages.text import gopher_quality_fn

    docs = (ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                  columns=["doc_id", "text", "lang"],
                                  override_num_blocks=16)
            .map_batches(lambda b: b.filter(pc.fill_null(pc.and_(
                pc.is_valid(b["text"]), pc.is_valid(b["lang"])),
                False)),
                batch_format="pyarrow", zero_copy_batch=True))
    dd = exact_dedup(docs, text_col="text", id_col="doc_id",
                     num_partitions=16)
    import functools

    gq = dd.map_batches(functools.partial(gopher_quality_fn,
                                          min_words=5,
                                          min_stop_hits=0),
                        batch_format="pyarrow", zero_copy_batch=True)

    def partial(b: pa.Table) -> pa.Table:
        if b.num_rows == 0 or "gq_keep" not in b.column_names:
            return pa.table({"lang": pa.array([], pa.string()),
                             "n": pa.array([], pa.int64()),
                             "tok": pa.array([], pa.int64())})
        b = b.filter(pc.fill_null(b["gq_keep"], False))
        enc = pc.dictionary_encode(b["lang"].combine_chunks())
        codes = enc.indices.to_numpy(zero_copy_only=False).astype(
            np.int64)
        w = b["gq_n_words"].to_numpy(zero_copy_only=False)
        g = len(enc.dictionary)
        n = np.bincount(codes, minlength=g).astype(np.int64)
        tok = np.zeros(g, np.int64)
        np.add.at(tok, codes, w)
        return pa.table({"lang": enc.dictionary,
                         "n": pa.array(n), "tok": pa.array(tok)})

    agg = sum_partials(ray.get(materialized_block_refs(
        gq.map_batches(partial, batch_format="pyarrow",
                       zero_copy_batch=True, batch_size=None))),
        keys=["lang"], vals=["n", "tok"])
    if agg is None:
        agg = partial(pa.table({}))
    return pa.table({
        "lang": agg["lang"].cast(pa.string()), "n_docs": agg["n"],
        "n_tokens": agg["tok"],
        "avg_tokens": pa.array(agg["tok"].to_numpy()
                               / agg["n"].to_numpy(), pa.float64())})


def _double_charge_q(sf_dir: str):
    """q299: double-charge audit (stages/interval.py:
    near_duplicate_events) — same user + same exact cents within 7
    days of a previous occurrence; lag-window SQL replay is exact."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray

    from featurebox_ray.stages.interval import near_duplicate_events

    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["event_id", "user_id", "ts",
                                        "value"])

    def prep(b: pa.Table) -> pa.Table:
        v = b["value"].combine_chunks()
        cents = np.round(np.nan_to_num(
            v.to_numpy(zero_copy_only=False)) * 100).astype(np.int64)
        c = pa.array(cents, pa.int64(),
                     mask=np.asarray(pc.is_null(v)))
        return pa.table({"event_id": b["event_id"],
                         "user_id": b["user_id"], "ts": b["ts"],
                         "cents": c})

    return near_duplicate_events(
        ev.map_batches(prep, batch_format="pyarrow",
                       zero_copy_batch=True),
        key_col="user_id", amount_col="cents", ts_col="ts",
        id_col="event_id", window_us=604_800_000_000)


def _new_vs_returning_q(sf_dir: str):
    """q298: daily new-vs-returning users (stages/retention.py:
    daily_new_vs_returning) — exact distinct-active and first-day
    counts per UTC day from one user-keyed exchange; DISTINCT +
    min-day-join SQL replay is exact."""
    import ray

    from featurebox_ray.stages.retention import daily_new_vs_returning

    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["user_id", "ts"])
    return daily_new_vs_returning(ev, key_col="user_id", ts_col="ts")


def _split_contamination_q(sf_dir: str):
    """q297: COMPOSED semantic split-contamination report — Knuth
    hash-split (test = bucket 3 of 4), test matrix broadcast once,
    exact int dot threshold join (stages/ann.py:
    threshold_similarity_join, q127 contract) against the TRAIN
    split, leaky test ids reduced distributively; one summary row.
    HUGEINT knuth + unnest-join SQL oracle replays the whole chain."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq
    import ray

    from featurebox_ray.stages.ann import threshold_similarity_join
    from featurebox_ray.stages.partition import materialized_block_refs
    from featurebox_ray.stages.sample import knuth_hash

    THR, QB = 18000, 8

    qt = pq.read_table(f"{sf_dir}/embeddings.parquet",
                       columns=["vec_id", "embedding"])
    m = pc.and_(pc.is_valid(qt["vec_id"]),
                pc.is_valid(qt["embedding"]))
    qt = qt.filter(m)
    ids = qt["vec_id"].to_numpy(zero_copy_only=False)
    bk = knuth_hash(ids.astype(np.int64)) % 4
    flat = qt["embedding"].combine_chunks().flatten().to_numpy(
        zero_copy_only=False)
    X = flat.reshape(len(ids), -1).astype(np.float64)
    test_sel = np.flatnonzero(bk == 3)
    n_test = len(test_sel)
    n_train = len(ids) - n_test
    Q = X[test_sel]
    qids = ids[test_sel].astype(np.int64)

    def keep_train(b: pa.Table) -> pa.Table:
        col = b["vec_id"].combine_chunks()
        v = pc.fill_null(col, 0).to_numpy(zero_copy_only=False)
        keep = (knuth_hash(v.astype(np.int64)) % 4 != 3) \
            & np.asarray(pc.is_valid(col)) \
            & np.asarray(pc.is_valid(b["embedding"]
                                     .combine_chunks()))
        return b.filter(pa.array(keep))

    train = (ray.data.read_parquet(f"{sf_dir}/embeddings.parquet",
                                   columns=["vec_id", "embedding"],
                                   override_num_blocks=8)
             .map_batches(keep_train, batch_format="pyarrow",
                          zero_copy_batch=True))
    pairs = threshold_similarity_join(train, Q, threshold_num=THR,
                                      quant_bits=QB, query_ids=qids)
    # leaky test ids: per-block unique qids -> driver set (bounded by
    # n_test, never the pair list)
    leaky: set = set()
    for blk in ray.get(materialized_block_refs(pairs.map_batches(
            lambda b: (pa.table({"q": pc.unique(b["query_id"])})
                       if b.num_rows and "query_id" in b.column_names
                       else pa.table({"q": pa.array([], pa.int64())})),
            batch_format="pyarrow", batch_size=None))):
        if "q" in blk.column_names:
            leaky.update(blk["q"].to_pylist())
    return pa.table({
        "n_train": pa.array([n_train], pa.int64()),
        "n_test": pa.array([n_test], pa.int64()),
        "n_leaky": pa.array([len(leaky)], pa.int64()),
        "leak_frac": pa.array(
            [float(len(leaky)) / float(n_test)], pa.float64())})


def _seasonal_backtest_q(sf_dir: str):
    """q296: seasonal-naive forecast backtest (stages/seasonal.py:
    seasonal_naive_backtest) — per-user MAE of the same-day-last-week
    daily-count predictor over the corpus tail; exact sparse integer
    errors (absent days are 0 both sides), one division; grid
    LEFT-JOIN SQL replay is exact."""
    import ray

    from featurebox_ray.stages.seasonal import seasonal_naive_backtest

    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["user_id", "ts"])
    return seasonal_naive_backtest(ev, key_col="user_id",
                                   ts_col="ts", period_days=7)


def _release_gate_q(sf_dir: str):
    """q295: COMPOSED governance release gate (pipelines/
    governance.py:release_gate) — the q283 constraint suite × q173
    k-anonymity × q293 l-diversity over the (lang, 500-char bucket)
    QI grid, summarized to three (check, units, violations, ok) rows;
    the chained-CTE oracle replays the whole composition."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray

    from featurebox_ray.pipelines.governance import release_gate

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["doc_id", "lang", "source",
                                          "n_chars"])

    def prep(b: pa.Table) -> pa.Table:
        nc = b["n_chars"].combine_chunks()
        v = pc.fill_null(nc, 0).to_numpy(zero_copy_only=False)
        bucket = pa.array((v // 500).astype(np.int64), pa.int64(),
                          mask=np.asarray(pc.is_null(nc)))
        return b.append_column("len_bucket", bucket)

    docs = docs.map_batches(prep, batch_format="pyarrow",
                            zero_copy_batch=True)
    return release_gate(
        docs,
        rules=[
            {"name": "r_doc_not_null", "kind": "not_null",
             "col": "doc_id"},
            {"name": "r_doc_unique", "kind": "unique",
             "col": "doc_id"},
            {"name": "r_lang_set", "kind": "in_set", "col": "lang",
             "values": ["en", "de", "zh"]},
        ],
        qi_cols=["lang", "len_bucket"], sensitive_col="source",
        k=10, l_threshold=3)


def _mixed_language_q(sf_dir: str):
    """q294: mixed-language audit (stages/text.py:mixed_language_fn)
    — language-ID each half of every document's token list (q26
    stopword-ratio contract), flag disagreeing halves; list_slice +
    list_filter SQL replay is exact."""
    import ray

    from featurebox_ray.stages.text import mixed_language_fn

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["doc_id", "text"],
                                 override_num_blocks=16)
    return docs.map_batches(mixed_language_fn,
                            batch_format="pyarrow",
                            zero_copy_batch=True)


def _l_diversity_q(sf_dir: str):
    """q293: l-diversity audit (stages/profile.py:l_diversity_audit)
    — (lang, 500-char length bucket) quasi groups × distinct sources;
    exact sizes and distinct counts on one quasi-keyed exchange;
    count(DISTINCT) SQL replay is exact."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray

    from featurebox_ray.stages.profile import l_diversity_audit

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["lang", "n_chars",
                                          "source"])

    def prep(b: pa.Table) -> pa.Table:
        nc = b["n_chars"].combine_chunks()
        v = pc.fill_null(nc, 0).to_numpy(zero_copy_only=False)
        bucket = pa.array((v // 500).astype(np.int64), pa.int64(),
                          mask=np.asarray(pc.is_null(nc)))
        return pa.table({"lang": b["lang"], "len_bucket": bucket,
                         "source": b["source"]})

    return l_diversity_audit(
        docs.map_batches(prep, batch_format="pyarrow",
                         zero_copy_batch=True),
        quasi_cols=["lang", "len_bucket"], sensitive_col="source",
        l_threshold=3)


def _embed_diversity_q(sf_dir: str):
    """q292: per-label embedding diversity (stages/cohesion.py:
    group_embedding_diversity) — mean pairwise squared distance via
    the Gram identity 2nΣ|x|² − 2|Σx|² (NO pair enumeration), exact
    int sufficient statistics, fixed two-division float; unnest +
    HUGEINT SQL replay is bit-exact."""
    import ray

    from featurebox_ray.stages.cohesion import group_embedding_diversity

    emb = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet",
                                columns=["label", "embedding"],
                                override_num_blocks=8)
    return group_embedding_diversity(emb, group_col="label",
                                     quant_bits=10)


def _range_pruned_q(sf_dir: str):
    """q291: range-partitioned layout + pruned scan (stages/
    bucketed.py:write_range_partitioned/read_range) — events laid out
    in 8 equal epoch-us ranges (cuts from a streaming min/max pass),
    then the middle half [mn+2w, mn+6w) read back touching ONLY the
    overlapping partition dirs (spec-file pruning) + exact residual
    filter.  WHERE-clause SQL oracle over the same integer cut
    arithmetic."""
    import os
    import shutil

    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray

    from featurebox_ray.stages.bucketed import (read_range,
                                                write_range_partitioned)

    def prep(b: pa.Table) -> pa.Table:
        m = pc.and_(pc.is_valid(b["event_id"]), pc.is_valid(b["ts"]))
        b = b.filter(pc.fill_null(m, False))
        return pa.table({
            "event_id": b["event_id"],
            "t": b["ts"].combine_chunks().cast(pa.int64())})

    ev = (ray.data.read_parquet(f"{sf_dir}/events.parquet",
                                columns=["event_id", "ts"])
          .map_batches(prep, batch_format="pyarrow",
                       zero_copy_batch=True))
    # streaming min/max pass (the global_quantile stats0 shape)
    mn = mx = None
    for blk in ray.get(
            __import__("featurebox_ray.stages.partition",
                       fromlist=["materialized_block_refs"])
            .materialized_block_refs(ev.map_batches(
                lambda b: pa.table(
                    {"mn": pa.array([pc.min(b["t"]).as_py()],
                                    pa.int64()),
                     "mx": pa.array([pc.max(b["t"]).as_py()],
                                    pa.int64())})
                if b.num_rows else
                pa.table({"mn": pa.array([], pa.int64()),
                          "mx": pa.array([], pa.int64())}),
                batch_format="pyarrow", batch_size=None))):
        if "mn" not in blk.column_names:
            continue
        for a, b_ in zip(blk["mn"].to_pylist(),
                         blk["mx"].to_pylist()):
            mn = a if mn is None else min(mn, a)
            mx = b_ if mx is None else max(mx, b_)
    w = (mx - mn + 8) // 8
    cuts = [mn + i * w for i in range(9)]
    root = f"/tmp/fbr_range_{os.getpid()}"
    shutil.rmtree(root, ignore_errors=True)
    write_range_partitioned(ev, f"{root}/events", key="t",
                            cuts=cuts)
    return read_range(f"{root}/events", lo=mn + 2 * w,
                      hi=mn + 6 * w, columns=["event_id", "t"])


def _gini_q(sf_dir: str):
    """q290: per-source document-length concentration (stages/
    profile.py:group_lorenz_gini) — exact integer Lorenz sums, one
    IEEE division; row_number()-window SQL replay is bit-exact."""
    import ray

    from featurebox_ray.stages.profile import group_lorenz_gini

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["source", "n_chars"])
    return group_lorenz_gini(docs, group_col="source",
                             value_col="n_chars")


def _markov_attr_q(sf_dir: str):
    """q289: Markov removal-effect attribution (stages/attribution.py:
    markov_attribution) — per-user journeys truncated at first
    'purchase', exact integer transition counts on one keyed
    exchange, tiny absorbing-chain solve + per-channel removal
    effects on the driver.  Fixture oracle: serial replay sharing the
    solve path, bit-identical."""
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray

    from _oracle_replays import replay_markov_attribution

    t = pq.read_table(f"{sf_dir}/events.parquet",
                      columns=["user_id", "ts", "event_id",
                               "event_type"])
    rep = replay_markov_attribution(
        t["user_id"].to_pylist(),
        t["ts"].cast(pa.int64()).to_pylist(),
        t["event_id"].to_pylist(), t["event_type"].to_pylist(),
        conv_type="purchase")
    os.makedirs(_ORACLE_DIR, exist_ok=True)
    pq.write_table(pa.table({
        "channel": pa.array([r[0] for r in rep], pa.string()),
        "removal_effect": pa.array([r[1] for r in rep],
                                   pa.float64()),
        "share": pa.array([r[2] for r in rep], pa.float64()),
    }), f"{_ORACLE_DIR}/markov_attr.parquet.tmp")
    os.replace(f"{_ORACLE_DIR}/markov_attr.parquet.tmp",
               f"{_ORACLE_DIR}/markov_attr.parquet")

    from featurebox_ray.stages.attribution import markov_attribution

    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["user_id", "ts", "event_id",
                                        "event_type"])
    return markov_attribution(ev, key_col="user_id", ts_col="ts",
                              order_col="event_id",
                              type_col="event_type",
                              conv_type="purchase")


def _qq_drift_q(sf_dir: str):
    """q288: per-event-type QQ drift between user cohorts (stages/
    diff.py:group_qq_drift) — max |decile element gap| between the
    user_id%2 cohorts' spend distributions, exact quantile_disc
    elements, integer max; quantile_disc + GREATEST SQL replay is
    exact."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray

    from featurebox_ray.stages.diff import group_qq_drift

    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["event_type", "user_id",
                                        "value"])

    def prep(b: pa.Table) -> pa.Table:
        uid = b["user_id"].combine_chunks()
        side = pa.array(
            pc.fill_null(uid, 0).to_numpy(zero_copy_only=False) % 2,
            pa.int64(), mask=np.asarray(pc.is_null(uid)))
        v = b["value"].combine_chunks()
        cents = np.round(np.nan_to_num(
            v.to_numpy(zero_copy_only=False)) * 100).astype(np.int64)
        c = pa.array(cents, pa.int64(), mask=np.asarray(pc.is_null(v)))
        return pa.table({"event_type": b["event_type"],
                         "side": side, "c": c})

    return group_qq_drift(
        ev.map_batches(prep, batch_format="pyarrow",
                       zero_copy_batch=True),
        group_col="event_type", side_col="side", value_col="c")


def _adaptive_sessionize_q(sf_dir: str):
    """q287: adaptive sessionization (stages/window.py:
    adaptive_sessionize) — per-user session breaks at gaps > 3× THAT
    user's median inter-event gap (exact quantile_disc element),
    integer gaps-and-islands; lag → per-key quantile_disc → islands
    SQL replay is bit-exact."""
    import ray

    from featurebox_ray.stages.window import adaptive_sessionize

    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["user_id", "event_id", "ts"])
    return adaptive_sessionize(ev, key_col="user_id", ts_col="ts",
                               order_col="event_id", k_num=3)


def _outlier_explain_q(sf_dir: str):
    """q286: per-row outlier explanation (stages/cohesion.py:
    outlier_explanation) — for every embedding, the dimension with the
    largest corpus z-score: |n·q − S| / sqrt(n·Q − S²) from exact int
    per-dim sufficient statistics, one IEEE division per (row, dim),
    argmax (z desc, dim asc).  Unnest + GROUP BY SQL replay is
    bit-exact."""
    import ray

    from featurebox_ray.stages.cohesion import outlier_explanation

    emb = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet",
                                columns=["vec_id", "embedding"],
                                override_num_blocks=8)
    return outlier_explanation(emb, quant_bits=10)


def _schema_evolution_q(sf_dir: str):
    """q285: schema-evolution read (sources/io.py:read_evolved) —
    events split into two fragment generations (old: no value/props,
    user_id narrowed to int32; new: no user_id), unioned under one
    target schema with footer-only planning, per-group column-pruned
    reads, safe-cast promotion and null-fill.  UNION-ALL SQL oracle
    over the same deterministic split."""
    import os
    import shutil

    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq
    import ray

    from featurebox_ray.sources.io import read_evolved

    root = f"/tmp/fbr_evolve_{os.getpid()}"
    shutil.rmtree(root, ignore_errors=True)
    os.makedirs(f"{root}/t", exist_ok=True)
    src = pq.read_table(f"{sf_dir}/events.parquet",
                        columns=["event_id", "user_id", "event_type",
                                 "value", "props"])
    ids = pc.fill_null(src["event_id"], 1)
    even = pc.equal(pc.bit_wise_and(ids, 1), 0)
    valid = pc.is_valid(src["event_id"])
    old = src.filter(pc.and_(even, valid)).select(
        ["event_id", "user_id", "event_type"])
    old = old.set_column(1, "user_id",
                         old["user_id"].cast(pa.int32()))
    new = src.filter(pc.and_(pc.invert(even), valid)).select(
        ["event_id", "event_type", "value", "props"])
    # two generations, two fragments each
    for i, half in enumerate(np.array_split(range(old.num_rows), 2)):
        pq.write_table(old.slice(half[0], len(half)),
                       f"{root}/t/old-{i}.parquet")
    for i, half in enumerate(np.array_split(range(new.num_rows), 2)):
        pq.write_table(new.slice(half[0], len(half)),
                       f"{root}/t/new-{i}.parquet")
    target = pa.schema([
        ("event_id", pa.int64()), ("user_id", pa.int64()),
        ("event_type", pa.string()), ("value", pa.float64()),
        ("props", pa.string())])
    return read_evolved(f"{root}/t", schema=target)


def _compaction_q(sf_dir: str):
    """q284: small-file compaction (stages/compact.py) — events
    shattered into 48 tiny fragments, re-planned from footer metadata
    only (order-preserving next-fit by bytes), merged one-task-per-output-file,
    then verified content-identical to the SOURCE table via the q204
    order-invariant checksum (same columns, same oracle SQL)."""
    import os
    import shutil

    import ray

    from featurebox_ray.stages.compact import compact_fragments
    from featurebox_ray.stages.profile import table_checksum

    root = f"/tmp/fbr_compact_{os.getpid()}"
    shutil.rmtree(root, ignore_errors=True)
    os.makedirs(root, exist_ok=True)
    cols = ["event_id", "user_id", "event_type", "props"]
    (ray.data.read_parquet(f"{sf_dir}/events.parquet", columns=cols)
     .repartition(48).write_parquet(f"{root}/shattered"))
    compact_fragments(f"{root}/shattered", f"{root}/compacted",
                      target_bytes=4 * 1024 * 1024)
    n_out = len([f for f in os.listdir(f"{root}/compacted")
                 if f.endswith(".parquet")])
    n_in = len([f for f in os.listdir(f"{root}/shattered")
                if f.endswith(".parquet")])
    assert n_out < n_in, (n_out, n_in)
    back = ray.data.read_parquet(f"{root}/compacted")
    return table_checksum(back, cols=cols)


def _validate_q(sf_dir: str):
    """q283: declarative data-quality gate (stages/validate.py:
    validate_constraints) — not_null/unique/range/in_set/regex rules
    over documents, exact violation counts from per-block partials
    (+ one keyed exchange for the uniqueness rule), one IEEE division
    per rule; UNION-of-checks SQL replay is exact."""
    import ray

    from featurebox_ray.stages.validate import validate_constraints

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet",
        columns=["doc_id", "lang", "source", "n_chars"],
        override_num_blocks=8)
    return validate_constraints(docs, [
        {"name": "r_doc_not_null", "kind": "not_null",
         "col": "doc_id"},
        {"name": "r_doc_unique", "kind": "unique", "col": "doc_id"},
        {"name": "r_chars_range", "kind": "range", "col": "n_chars",
         "lo": 100, "hi": 5000},
        {"name": "r_lang_set", "kind": "in_set", "col": "lang",
         "values": ["en", "de", "zh"]},
        {"name": "r_source_regex", "kind": "regex", "col": "source",
         "pattern": "^src[0-9]$"},
    ])


def _topk_two_pass_q(sf_dir: str):
    """q282: shuffle-free exact heavy hitters (stages/tfidf.py:
    topk_two_pass) — per-block truncated exact summaries with error
    bounds, provably-superset candidate set, broadcast exact-count
    verify pass; identical result and SQL oracle as the exchange-based
    top_terms, zero exchange."""
    import ray

    from featurebox_ray.stages.tfidf import topk_two_pass

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["text"],
                                 override_num_blocks=8)
    return topk_two_pass(docs, k=25, summary_width=8192)


def _global_quantile_q(sf_dir: str):
    """q281: exact GLOBAL order statistics (stages/quantile.py:
    global_quantile_element) — whole-corpus median and p90 of event
    value cents as true data elements via iterative range-narrowing
    counting passes (no shuffle, O(n_bins) driver state); DuckDB
    quantile_disc replay is element-exact."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray

    from featurebox_ray.stages.quantile import global_quantile_element

    def prep(b: pa.Table) -> pa.Table:
        col = b["value"].combine_chunks()
        m = pc.fill_null(pc.and_(pc.is_valid(col),
                                 pc.is_finite(col)), False)
        v = col.filter(m).to_numpy(zero_copy_only=False)
        return pa.table({"c": pa.array(
            np.round(v * 100).astype(np.int64))})

    ev = (ray.data.read_parquet(f"{sf_dir}/events.parquet",
                                columns=["value"],
                                override_num_blocks=8)
          .map_batches(prep, batch_format="pyarrow",
                       zero_copy_batch=True))
    out = {"pct": [], "n": [], "value_cents": []}
    for pct, q in ((50, 0.5), (90, 0.9)):
        r = global_quantile_element(ev, value_col="c", q=q,
                                    n_bins=1024)
        out["pct"].append(pct)
        out["n"].append(r["n"])
        out["value_cents"].append(r["value"])
    return pa.table({
        "pct": pa.array(out["pct"], pa.int64()),
        "n": pa.array(out["n"], pa.int64()),
        "value_cents": pa.array(out["value_cents"], pa.int64())})


def _incremental_agg_q(sf_dir: str):
    """q280: incremental aggregate refresh (stages/incremental.py) —
    a per-(user, event_type) n/sum/min/max/avg view built from 2/3 of
    events, PERSISTED, then refreshed with the remaining 1/3 as a
    delta WITHOUT re-reading the base (union of the old state with
    the delta's combiner-pushdown states, one keyed exchange).  The
    maintenance invariant IS the oracle: the refreshed view must
    bit-match the plain GROUP BY over base+delta together."""
    import os
    import shutil

    import pyarrow.compute as pc
    import ray

    from featurebox_ray.sources.io import write_table
    from featurebox_ray.stages.incremental import (finalize_agg,
                                                   group_agg_state,
                                                   refresh_agg_state)

    cols = ["event_id", "user_id", "event_type", "value"]
    KEYS = ["user_id", "event_type"]

    def keep(want_delta):
        def f(b):
            import numpy as np
            import pyarrow as pa

            col = b["event_id"].combine_chunks()
            ids = pc.fill_null(col, 1).to_numpy(zero_copy_only=False)
            is_delta = (ids % 3) == 0
            m = np.asarray(pc.is_valid(col)) & (
                is_delta if want_delta else ~is_delta)
            return b.filter(pa.array(m)).select(cols[1:])
        return f

    base = (ray.data.read_parquet(f"{sf_dir}/events.parquet",
                                  columns=cols,
                                  override_num_blocks=8)
            .map_batches(keep(False), batch_format="pyarrow",
                         zero_copy_batch=True))
    delta = (ray.data.read_parquet(f"{sf_dir}/events.parquet",
                                   columns=cols,
                                   override_num_blocks=8)
             .map_batches(keep(True), batch_format="pyarrow",
                          zero_copy_batch=True))
    root = f"/tmp/fbr_incr_{os.getpid()}"
    shutil.rmtree(root, ignore_errors=True)
    os.makedirs(root, exist_ok=True)
    st = group_agg_state(base, key_cols=KEYS, value_col="value")
    write_table(st, f"{root}/state")
    old = ray.data.read_parquet(f"{root}/state")
    return finalize_agg(refresh_agg_state(old, delta, key_cols=KEYS,
                                          value_col="value"))


def _bucketed_join_q(sf_dir: str):
    """q279: storage-partitioned join (stages/bucketed.py) — orders
    and customer written as co-bucketed Knuth-hash layouts (ONE keyed
    exchange each, paid at write), then joined bucket-by-bucket with
    ZERO shuffle: one Ray task per bucket reads only its own
    fragments from both sides and hash-joins in-task.  Plain SQL
    inner-join oracle."""
    import os
    import shutil

    import ray

    from featurebox_ray.stages.bucketed import (bucketed_join,
                                                write_bucketed)

    root = f"/tmp/fbr_bucketed_{os.getpid()}"
    shutil.rmtree(root, ignore_errors=True)
    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_totalprice"],
        override_num_blocks=8)
    cust = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet",
        columns=["c_custkey", "c_nationkey"],
        override_num_blocks=4)
    write_bucketed(orders, f"{root}/orders", key="o_custkey",
                   num_buckets=8)
    write_bucketed(cust, f"{root}/customer", key="c_custkey",
                   num_buckets=8)
    return bucketed_join(
        f"{root}/orders", f"{root}/customer",
        left_cols=["o_orderkey", "o_custkey", "o_totalprice"],
        right_cols=["c_nationkey"])


def _conformal_q(sf_dir: str):
    """q278: split-conformal prediction intervals (stages/regress.py:
    conformal_intervals) — Knuth train/cal/test split, exact integer
    residuals, order-statistic conformal threshold, integer coverage
    count; one IEEE division per reported float.  Fixture oracle:
    serial replay, bit-identical."""
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray

    from _oracle_replays import replay_conformal

    QB, LN, LD = 10, 1, 10

    t = pq.read_table(f"{sf_dir}/embeddings.parquet",
                      columns=["vec_id", "label", "embedding"])
    rep = replay_conformal(t["embedding"].to_pylist(),
                           t["label"].to_pylist(),
                           t["vec_id"].to_pylist(), quant_bits=QB,
                           lam_num=LN, lam_den=LD)
    os.makedirs(_ORACLE_DIR, exist_ok=True)
    r = rep[0]
    pq.write_table(pa.table({
        "n_train": pa.array([r[0]], pa.int64()),
        "n_cal": pa.array([r[1]], pa.int64()),
        "n_test": pa.array([r[2]], pa.int64()),
        "q_hat": pa.array([r[3]], pa.float64()),
        "coverage": pa.array([r[4]], pa.float64()),
        "target": pa.array([r[5]], pa.float64()),
    }), f"{_ORACLE_DIR}/conformal.parquet.tmp")
    os.replace(f"{_ORACLE_DIR}/conformal.parquet.tmp",
               f"{_ORACLE_DIR}/conformal.parquet")

    from featurebox_ray.stages.regress import conformal_intervals

    emb = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet",
                                columns=["vec_id", "label",
                                         "embedding"],
                                override_num_blocks=8)
    return conformal_intervals(emb, id_col="vec_id", quant_bits=QB,
                               lam_num=LN, lam_den=LD)


def _learning_curve_q(sf_dir: str):
    """q277: distributed learning curve (stages/regress.py:
    learning_curve) — Knuth-hash buckets, prefix-sum nested training
    sets (all K ridge fits from ONE statistics pass), holdout scored
    for all K models in one read via quantized-coefficient integer
    scoring.  Fixture oracle: serial replay, bit-identical."""
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray

    from _oracle_replays import replay_learning_curve

    KB, QB, LN, LD = 6, 10, 1, 10

    t = pq.read_table(f"{sf_dir}/embeddings.parquet",
                      columns=["vec_id", "label", "embedding"])
    rep = replay_learning_curve(t["embedding"].to_pylist(),
                                t["label"].to_pylist(),
                                t["vec_id"].to_pylist(),
                                n_train_buckets=KB, quant_bits=QB,
                                lam_num=LN, lam_den=LD)
    os.makedirs(_ORACLE_DIR, exist_ok=True)
    pq.write_table(pa.table({
        "k": pa.array([r[0] for r in rep], pa.int64()),
        "n_train": pa.array([r[1] for r in rep], pa.int64()),
        "n_test": pa.array([r[2] for r in rep], pa.int64()),
        "rmse": pa.array([r[3] for r in rep], pa.float64()),
        "r2": pa.array([r[4] for r in rep], pa.float64()),
    }), f"{_ORACLE_DIR}/learning_curve.parquet.tmp")
    os.replace(f"{_ORACLE_DIR}/learning_curve.parquet.tmp",
               f"{_ORACLE_DIR}/learning_curve.parquet")

    from featurebox_ray.stages.regress import learning_curve

    emb = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet",
                                columns=["vec_id", "label",
                                         "embedding"],
                                override_num_blocks=8)
    return learning_curve(emb, id_col="vec_id", n_train_buckets=KB,
                          quant_bits=QB, lam_num=LN, lam_den=LD)


def _grouped_ridge_q(sf_dir: str):
    """q276: many-model training — one independent ridge fit per
    cohort (vec_id % 5) in a single corpus pass (stages/regress.py:
    grouped_ridge); exact int64 per-group XᵀX/Xᵀy partials on one
    group-keyed exchange, shared ridge_solve per group.  Fixture
    oracle: serial replay, bit-identical (q169 contract)."""
    import os

    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray

    from _oracle_replays import replay_grouped_ridge

    QB, YS, LN, LD = 10, 1, 1, 10

    t = pq.read_table(f"{sf_dir}/embeddings.parquet",
                      columns=["vec_id", "label", "embedding"])
    grp = [None if i is None else i % 5
           for i in t["vec_id"].to_pylist()]
    rep = replay_grouped_ridge(t["embedding"].to_pylist(),
                               t["label"].to_pylist(), grp,
                               quant_bits=QB, y_scale=YS,
                               lam_num=LN, lam_den=LD)
    os.makedirs(_ORACLE_DIR, exist_ok=True)
    pq.write_table(pa.table({
        "group": pa.array([r[0] for r in rep], pa.int64()),
        "j": pa.array([r[1] for r in rep], pa.int64()),
        "coef": pa.array([r[2] for r in rep], pa.float64()),
    }), f"{_ORACLE_DIR}/grouped_ridge.parquet.tmp")
    os.replace(f"{_ORACLE_DIR}/grouped_ridge.parquet.tmp",
               f"{_ORACLE_DIR}/grouped_ridge.parquet")

    from featurebox_ray.stages.regress import grouped_ridge

    def add_grp(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        col = b["vec_id"].combine_chunks()
        ids = pc.fill_null(col, 0).to_numpy(zero_copy_only=False)
        return b.append_column(
            "grp", pa.array((ids % 5).astype(np.int64), pa.int64(),
                            mask=np.asarray(pc.is_null(col))))

    emb = (ray.data.read_parquet(f"{sf_dir}/embeddings.parquet",
                                 columns=["vec_id", "label",
                                          "embedding"],
                                 override_num_blocks=8)
           .map_batches(add_grp, batch_format="pyarrow",
                        zero_copy_batch=True))
    return grouped_ridge(emb, group_col="grp", lam_num=LN,
                         lam_den=LD, quant_bits=QB, y_scale=YS)


def _watermark_q(sf_dir: str):
    """q275: per-user out-of-order ingestion audit (stages/window.py:
    watermark_lateness) — replay each user's events in arrival order
    against an integer running event-time watermark; exact int64
    lateness sums/max, one IEEE division for late_frac; ROWS-frame
    window SQL replay is bit-exact.  The synthetic corpus's event_id
    order equals ts order (zero lateness — degenerate), so arrival is
    a deterministic local shuffle of it: each block of 4 global ids is
    reversed (arr = (id//4)*4 + 3 − id%4, a bijection), which injects
    genuine bounded out-of-orderness for the watermark to catch."""
    import numpy as np
    import pyarrow as pa
    import ray

    from featurebox_ray.stages.window import watermark_lateness

    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["user_id", "event_id", "ts"])

    def add_arrival(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        col = b["event_id"].combine_chunks()
        ids = pc.fill_null(col, 0).to_numpy(zero_copy_only=False)
        arr = (ids // 4) * 4 + 3 - (ids % 4)
        return b.append_column(
            "arrival", pa.array(arr.astype(np.int64), pa.int64(),
                                mask=np.asarray(pc.is_null(col))))

    ev = ev.map_batches(add_arrival, batch_format="pyarrow",
                        zero_copy_batch=True)
    return watermark_lateness(ev, key_col="user_id", ts_col="ts",
                              arrival_col="arrival")


def _pr_sweep_q(sf_dir: str):
    """q274: per-cohort best-F1 operating point (stages/regress.py:
    pr_threshold_sweep) — sweep every observed spend level as a
    'score >= t' purchase classifier, exact suffix confusion counts,
    FIXED IEEE P/R/F1 from ints, argmax (f1 desc, threshold asc);
    cumulative-window SQL replay is bit-exact.  Same (grp, y, cents)
    mapping as q122 so AUC and the operating point describe the same
    scorer."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray

    from featurebox_ray.stages.regress import pr_threshold_sweep

    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["user_id", "event_type",
                                        "value"])

    def prep(b: pa.Table) -> pa.Table:
        uid = b["user_id"].combine_chunks()
        grp = pa.array(
            uid.to_numpy(zero_copy_only=False) % 8, pa.int64(),
            mask=np.asarray(pc.is_null(uid)))
        y = pc.if_else(pc.is_valid(b["event_type"]),
                       pc.equal(b["event_type"], "purchase"),
                       pa.nulls(b.num_rows, pa.bool_())).cast(pa.int64())
        v = b["value"].combine_chunks()
        cents = np.round(np.nan_to_num(
            v.to_numpy(zero_copy_only=False)) * 100).astype(np.int64)
        s = pa.array(cents, pa.int64(), mask=np.asarray(pc.is_null(v)))
        return pa.table({"grp": grp, "y": y, "s": s})

    return pr_threshold_sweep(
        ev.map_batches(prep, batch_format="pyarrow",
                       zero_copy_batch=True),
        key_col="grp", label_col="y", score_col="s")


def _ridge_eval_q(sf_dir: str):
    """q273: distributed regression report (stages/regress.py:
    ridge_eval) — exact-int ridge fit + quantized-coefficient
    integer scoring, per-shard (vec_id % 7) n/mae/rmse/r2 from exact
    moment sums (split-word Σe²).  Fixture oracle: serial replay,
    bit-identical."""
    import os

    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray

    from _oracle_replays import replay_ridge_eval

    t = pq.read_table(f"{sf_dir}/embeddings.parquet",
                      columns=["vec_id", "label", "embedding"])
    grp = [None if i is None else i % 7
           for i in t["vec_id"].to_pylist()]
    exp = replay_ridge_eval(t["embedding"].to_pylist(),
                            t["label"].to_pylist(), grp)
    os.makedirs(_ORACLE_DIR, exist_ok=True)
    pq.write_table(pa.table({
        "group": pa.array([r[0] for r in exp], pa.int64()),
        "n": pa.array([r[1] for r in exp], pa.int64()),
        "mae": pa.array([r[2] for r in exp], pa.float64()),
        "rmse": pa.array([r[3] for r in exp], pa.float64()),
        "r2": pa.array([r[4] for r in exp], pa.float64()),
    }), f"{_ORACLE_DIR}/ridge_eval.parquet.tmp")
    os.replace(f"{_ORACLE_DIR}/ridge_eval.parquet.tmp",
               f"{_ORACLE_DIR}/ridge_eval.parquet")

    from featurebox_ray.stages.regress import ridge_eval

    def add_grp(b: pa.Table) -> pa.Table:
        ids = b["vec_id"].to_numpy(zero_copy_only=False)
        return b.append_column(
            "grp", pa.array((ids % 7).astype(np.int64)))

    emb = (ray.data.read_parquet(f"{sf_dir}/embeddings.parquet",
                                 columns=["vec_id", "label",
                                          "embedding"],
                                 override_num_blocks=8)
           .map_batches(add_grp, batch_format="pyarrow",
                        zero_copy_batch=True))
    return ridge_eval(emb, y_col="label", group_col="grp")


def _csv_roundtrip_q(sf_dir: str):
    """q272: CSV sink/source round trip (sources/io.py:write_table
    fmt=csv + Catalog fragment-format sniffing) — documents'
    int/categorical columns written as CSV shards, read back through
    the Catalog, verified by the q204 order-invariant checksum
    against the parquet truth (q108/q252 convention — completes the
    parquet/JSONL/IPC/CSV sink-source matrix)."""
    import os
    import shutil

    import pyarrow as pa
    import ray

    from featurebox_ray.sources.io import Catalog, write_table
    from featurebox_ray.stages.profile import table_checksum

    root = f"/tmp/fbr_csv_{os.getpid()}"
    shutil.rmtree(root, ignore_errors=True)
    os.makedirs(root, exist_ok=True)
    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["doc_id", "source",
                                          "n_chars"],
                                 override_num_blocks=8)
    write_table(docs, f"{root}/documents", fmt="csv")
    back = Catalog(root).read("documents")
    return table_checksum(back, cols=["doc_id", "source",
                                      "n_chars"])


def _doc_scorecard_q(sf_dir: str):
    """q271: COMPOSED document-quality scorecard — Gopher rules
    (q156) + Flesch readability (q255) + inverse-Simpson diversity
    (q176) fused in ONE stateless map (same-row-order column merge,
    no join); flags: gq_keep, 4·n_tokens ≥ sum_sq (effective vocab ≥
    len/4, exact ints), flesch ≥ −300; keep = flags ≥ 2.  Chained
    CTE oracle — the corpus-side sibling of the q268 bot
    scorecard."""
    import numpy as np
    import pyarrow as pa
    import ray

    from featurebox_ray.stages.text import (gopher_quality_fn,
                                            lexical_diversity_fn,
                                            readability_fn)

    rfn = readability_fn()

    def score(b: pa.Table) -> pa.Table:
        g = gopher_quality_fn(b, text_col="text", min_words=5,
                              min_stop_hits=0)
        r = rfn(b)
        d = lexical_diversity_fn(b)
        keep_g = g["gq_keep"].to_numpy(zero_copy_only=False)
        flesch = r["flesch"].to_numpy(zero_copy_only=False)
        nt = d["n_tokens"].to_numpy(zero_copy_only=False)
        ss = d["sum_sq"].to_numpy(zero_copy_only=False)
        f1 = keep_g.astype(np.int64)
        f2 = ((nt > 0) & (4 * nt >= ss)).astype(np.int64)
        f3 = (flesch >= -300.0).astype(np.int64)
        flags = f1 + f2 + f3
        return pa.table({
            "doc_id": b["doc_id"],
            "gq_keep": g["gq_keep"],
            "flesch": r["flesch"],
            "simpson_d": d["simpson_d"],
            "quality_flags": pa.array(flags),
            "keep": pa.array(flags >= 2)})

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["doc_id", "text"],
                                 override_num_blocks=16)
    return docs.map_batches(score, batch_format="pyarrow",
                            zero_copy_batch=True)


def _coactivity_q(sf_dir: str):
    """q270: session-start coactivity (stages/transitions.py:
    session_coactivity) — per user, how many OTHER users started a
    session within ±5 min of each of theirs (gap rule 1800s);
    coordination/raid signal.  Banded self-join SQL replay."""
    import ray

    from featurebox_ray.stages.transitions import session_coactivity

    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["user_id", "ts"],
                               override_num_blocks=16)
    return session_coactivity(ev, key_col="user_id", ts_col="ts",
                              gap_s=1800.0, window_s=300.0,
                              min_others=3, num_partitions=8)


def _oscillation_q(sf_dir: str):
    """q269: A-B-A-B oscillation audit per user
    (stages/transitions.py:oscillation_audit) — longest alternating
    type run (the stuck-agent/tool-loop signature); exact int run
    arithmetic; two-lag + gaps-and-islands SQL replay."""
    import ray

    from featurebox_ray.stages.transitions import oscillation_audit

    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["user_id", "ts", "event_id",
                                        "event_type"],
                               override_num_blocks=16)
    return oscillation_audit(ev, key_col="user_id", ts_col="ts",
                             seq_col="event_id",
                             type_col="event_type",
                             num_partitions=8)


def _bot_scorecard_q(sf_dir: str):
    """q268: COMPOSED behavioral-risk scorecard — phase conformity
    (q249) ⋈ same-instant collisions (q262) ⋈ transition
    predictability (q267) via two hash_joins, then integer flags
    (off-phase cos2 < 1/2, max_burst ≥ 3, predictability ≥ 1/2) and
    ``is_bot = flags ≥ 2``.  Every component is SQL-exact, so the
    whole chain value-hashes against ONE chained-CTE replay — the
    composition itself is checked (q168 convention)."""
    import numpy as np
    import pyarrow as pa
    import ray

    from featurebox_ray.stages.join import hash_join
    from featurebox_ray.stages.profile import ts_collision_audit
    from featurebox_ray.stages.seasonal import profile_similarity
    from featurebox_ray.stages.transitions import (
        transition_predictability)

    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["user_id", "ts", "event_id",
                                        "event_type"],
                               override_num_blocks=16)
    phase = profile_similarity(ev, key_col="user_id", ts_col="ts",
                               num_partitions=8)
    coll = ts_collision_audit(ev, key_col="user_id", ts_col="ts",
                              num_partitions=8)
    pred = transition_predictability(ev, key_col="user_id",
                                     ts_col="ts",
                                     seq_col="event_id",
                                     type_col="event_type",
                                     num_partitions=8)
    j1 = hash_join(phase, coll, on="user_id",
                   left_cols=["user_id", "cos2"],
                   right_cols=["max_burst"],
                   num_partitions=8)
    # materialize j1 once: hash_join probes left.schema(), which
    # would re-execute the lazy first join for its second consumer
    from featurebox_ray.stages.partition import (
        materialized_block_refs)

    j1m = ray.data.from_arrow_refs(
        list(materialized_block_refs(j1)))
    j2 = hash_join(j1m, pred, on="user_id",
                   right_cols=["n_trans", "predictability"],
                   num_partitions=8)

    def score(b: pa.Table) -> pa.Table:
        cos2 = b["cos2"].to_numpy(zero_copy_only=False)
        burst = b["max_burst"].to_numpy(zero_copy_only=False)
        pr = pa.compute.fill_null(
            b["predictability"].combine_chunks(),
            0.0).to_numpy(zero_copy_only=False)
        flags = ((cos2 < 0.5).astype(np.int64)
                 + (burst >= 3).astype(np.int64)
                 + (pr >= 0.5).astype(np.int64))
        return pa.table({
            "user_id": b["user_id"],
            "cos2": b["cos2"],
            "max_burst": b["max_burst"],
            "predictability": b["predictability"],
            "risk_flags": pa.array(flags),
            "is_bot": pa.array(flags >= 2)})

    return j2.map_batches(score, batch_format="pyarrow",
                          zero_copy_batch=True)


def _predictability_q(sf_dir: str):
    """q267: per-user transition predictability (stages/
    transitions.py:transition_predictability) — Simpson
    concentration Σc²/(Σc)² of adjacent type pairs; exact int
    sufficient stats + one division; lead()+GROUP BY SQL replay."""
    import ray

    from featurebox_ray.stages.transitions import (
        transition_predictability)

    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["user_id", "ts", "event_id",
                                        "event_type"],
                               override_num_blocks=16)
    return transition_predictability(ev, key_col="user_id",
                                     ts_col="ts",
                                     seq_col="event_id",
                                     type_col="event_type",
                                     num_partitions=8)


def _activation_q(sf_dir: str):
    """q266: time-to-5th-event activation latency per user
    (stages/retention.py:activation_latency) — exact int64 position
    picks in (ts, event_id) order; row_number pivot SQL replay."""
    import ray

    from featurebox_ray.stages.retention import activation_latency

    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["user_id", "ts",
                                        "event_id"],
                               override_num_blocks=16)
    return activation_latency(ev, key_col="user_id", ts_col="ts",
                              seq_col="event_id", k=5,
                              num_partitions=8)


def _weighted_jaccard_q(sf_dir: str):
    """q265: pairwise weighted-Jaccard corpus similarity over token
    bags (stages/tfidf.py:weighted_jaccard) — Σmin/Σmax of exact
    token counts via one token-keyed exchange (Σmax from the totals
    identity), one division per source pair."""
    import ray

    from featurebox_ray.stages.tfidf import weighted_jaccard

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["source", "text"],
                                 override_num_blocks=16)
    return weighted_jaccard(docs, group_col="source",
                            text_col="text", num_partitions=8)


def _next_latency_q(sf_dir: str):
    """q264: per-user click→next-purchase latency profile
    (stages/funnel.py:next_latency) — strict next-match searchsorted,
    exact int latencies, per-user discrete-quantile median; SQL
    replays with an ASOF join (a.t < b.t) + quantile_disc."""
    import ray

    from featurebox_ray.stages.funnel import next_latency

    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["user_id", "ts", "event_id",
                                        "event_type"],
                               override_num_blocks=16)
    return next_latency(ev, key_col="user_id", ts_col="ts",
                        seq_col="event_id", type_col="event_type",
                        a_type="click", b_type="purchase",
                        num_partitions=8)


def _eventually_q(sf_dir: str):
    """q263: eventually-follows support matrix
    (stages/transitions.py:eventually_follows) — per ordered type
    pair, users with some a strictly before some b (min_ts(a) <
    max_ts(b)); exact int supports, per-(user,type) min/max CTE +
    pair-join SQL replay."""
    import ray

    from featurebox_ray.stages.transitions import eventually_follows

    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["user_id", "ts",
                                        "event_type"],
                               override_num_blocks=16)
    return eventually_follows(ev, key_col="user_id", ts_col="ts",
                              type_col="event_type",
                              num_partitions=8)


def _ts_collision_q(sf_dir: str):
    """q262: exact-timestamp collision audit per user
    (stages/profile.py:ts_collision_audit) — same-instant burst
    detection; exact run-length counts, GROUP BY/HAVING SQL
    replay."""
    import ray

    from featurebox_ray.stages.profile import ts_collision_audit

    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["user_id", "ts"],
                               override_num_blocks=16)
    return ts_collision_audit(ev, key_col="user_id", ts_col="ts",
                              num_partitions=8)


def _seasonal_anomaly_q(sf_dir: str):
    """q261: phase-aware robust anomaly flags
    (stages/seasonal.py:seasonal_anomaly) — per hour-of-day bin
    median/MAD as exact quantile_disc ELEMENTS, flag = |c − med| >
    3·mad in pure integers."""
    import ray

    from featurebox_ray.stages.seasonal import seasonal_anomaly

    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["event_id", "ts", "value"],
                               override_num_blocks=16)
    return seasonal_anomaly(ev, ts_col="ts", id_col="event_id",
                            value_col="value", k=3,
                            num_partitions=8)


def _scd2_apply_q(sf_dir: str):
    """q260: SCD-2 MERGE (stages/scd.py:scd2_apply) — the dim built
    from the first 20 days (q189 machinery), a full per-user
    last-state snapshot from the remainder, applied at global_max+1:
    unchanged opens pass, changed/deleted opens close, changed/new
    keys open.  SQL replays the whole chain (gaps-and-islands dim +
    QUALIFY snapshot + FULL-JOIN merge)."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray

    from featurebox_ray.stages.scd import scd2_apply, scd2_intervals

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "ts", "event_id", "event_type"],
        override_num_blocks=16)
    mn = ev.min("ts")
    mx = ev.max("ts")
    to_us = (lambda x: int(pa.scalar(x).cast(pa.int64()).as_py())
             if not isinstance(x, int) else x)
    t0 = to_us(mn) + 20 * 86_400_000_000
    ts_snap = to_us(mx) + 1

    def before(b: pa.Table) -> pa.Table:
        ts = b["ts"].combine_chunks().cast(pa.int64())
        return b.filter(pc.fill_null(pc.less(ts, t0), False))

    def after(b: pa.Table) -> pa.Table:
        ts = b["ts"].combine_chunks().cast(pa.int64())
        keep = pc.and_(pc.greater_equal(ts, t0),
                       pc.and_(pc.is_valid(b["event_id"]),
                               pc.is_valid(b["event_type"])))
        return b.filter(pc.fill_null(keep, False))

    dim = scd2_intervals(
        ev.map_batches(before, batch_format="pyarrow",
                       zero_copy_batch=True),
        key_col="user_id", ts_col="ts", seq_col="event_id",
        state_col="event_type", num_partitions=8)

    from featurebox_ray.stages.rank import last_row_per_key

    latest = last_row_per_key(
        ev.map_batches(after, batch_format="pyarrow",
                       zero_copy_batch=True),
        key_col="user_id", order_cols=["ts", "event_id"],
        num_partitions=8)

    def snap_cols(b: pa.Table) -> pa.Table:
        return b.select(["user_id", "event_type"])

    snap = latest.map_batches(snap_cols, batch_format="pyarrow",
                              zero_copy_batch=True)
    import pyarrow as _pa

    return scd2_apply(dim, snap, key_col="user_id",
                      state_col="event_type", snap_ts=ts_snap,
                      num_partitions=8, key_type=_pa.int64())


def _two_hop_q(sf_dir: str):
    """q259: two-hop reach over the hourly co-occurrence graph
    (stages/graph.py:two_hop_reach) — wedges at the mid node
    (degree-capped, q234 hub rule), then dedup and subtract at the
    source over one sorted input of direct and wedge rows.  SQL
    replays with a DISTINCT wedge self-join + NOT EXISTS anti-join."""
    import ray

    from featurebox_ray.stages.graph import (two_hop_reach,
                                             window_cooccurrence_edges)

    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["ts", "user_id"],
                               override_num_blocks=16)
    edges = window_cooccurrence_edges(ev, ts_col="ts",
                                      actor_col="user_id",
                                      num_partitions=8)
    return two_hop_reach(edges, max_mid_degree=1024,
                         num_partitions=8)


def _bootstrap_ci_q(sf_dir: str):
    """q258: deterministic half-sample CI for per-type mean value
    (stages/regress.py:bootstrap_group_ci) — 32 Knuth-bit bags,
    exact (n, Σcents) cells, one division per bag mean, dyadic
    quantile_disc element picks (1/16, 15/16)."""
    import ray

    from featurebox_ray.stages.regress import bootstrap_group_ci

    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["event_id", "event_type",
                                        "value"],
                               override_num_blocks=16)
    return bootstrap_group_ci(ev, key_col="event_type",
                              id_col="event_id",
                              value_col="value", n_bags=32)


def _decay_attr_q(sf_dir: str):
    """q257: time-decay multi-touch attribution
    (stages/attribution.py:linear_attribution(time_decay=True)) —
    1-day-half-life weights 2^(7−Δdays) are INTEGER powers of two,
    split by the weighted largest-remainder method ((rem desc, touch
    order) ties), credits reconcile to the cent.  SQL replays with
    bit-shift weights + // / % + window ranks."""
    import ray

    from featurebox_ray.stages.attribution import linear_attribution

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "ts", "event_id", "event_type", "value"])
    return linear_attribution(ev, key_col="user_id", ts_col="ts",
                              seq_col="event_id",
                              type_col="event_type",
                              value_col="value",
                              conv_type="purchase",
                              horizon=7 * 86400000000,
                              time_decay=True, num_partitions=16)


def _gk_tau_q(sf_dir: str):
    """q256: Goodman–Kruskal tau soft-FD profile
    (stages/profile.py:gk_tau) — directed predictive strength for
    three column pairs over derived categoricals (user bucket, value
    sign); exact int contingency cells + exact-Fraction tau.
    Fixture oracle: independent Counter/Fraction replay."""
    import os

    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray

    from _oracle_replays import replay_gk_tau

    PAIRS = [("user_bucket", "event_type"),
             ("event_type", "val_sign"),
             ("event_type", "user_bucket")]

    def derive(tbl: pa.Table) -> pa.Table:
        ub = [None if x is None else str(int(x) % 5)
              for x in tbl["user_id"].to_pylist()]
        vs = [None if v is None
              else ("pos" if v > 0 else ("neg" if v < 0
                                         else "zero"))
              for v in tbl["value"].to_pylist()]
        return pa.table({
            "event_type": tbl["event_type"],
            "user_bucket": pa.array(ub, pa.string()),
            "val_sign": pa.array(vs, pa.string())})

    t = pq.read_table(f"{sf_dir}/events.parquet",
                      columns=["user_id", "event_type", "value"])
    dt = derive(t)
    exp = replay_gk_tau({c: dt[c].to_pylist()
                         for c in dt.column_names}, PAIRS)
    os.makedirs(_ORACLE_DIR, exist_ok=True)
    pq.write_table(pa.table({
        "x_col": pa.array([r[0] for r in exp], pa.string()),
        "y_col": pa.array([r[1] for r in exp], pa.string()),
        "n": pa.array([r[2] for r in exp], pa.int64()),
        "tau": pa.array([r[3] for r in exp], pa.float64()),
    }), f"{_ORACLE_DIR}/gk_tau.parquet.tmp")
    os.replace(f"{_ORACLE_DIR}/gk_tau.parquet.tmp",
               f"{_ORACLE_DIR}/gk_tau.parquet")

    from featurebox_ray.stages.profile import gk_tau

    def derive_batch(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        u = b["user_id"].combine_chunks()
        uvalid = pc.is_valid(u).to_numpy(zero_copy_only=False)
        un = (pc.fill_null(u, 0).to_numpy(zero_copy_only=False)
              .astype(np.int64) % 5)           # no pc.mod kernel
        ub = pa.array(un.astype("U1"), pa.string(),
                      mask=~uvalid)
        v = b["value"].combine_chunks()
        vvalid = pc.is_valid(v).to_numpy(zero_copy_only=False)
        vn = pc.fill_null(v, 0.0).to_numpy(zero_copy_only=False)
        sign = np.where(vn > 0, "pos",
                        np.where(vn < 0, "neg", "zero"))
        vs = pa.array(sign, pa.string(), mask=~vvalid)
        return pa.table({"event_type": b["event_type"],
                         "user_bucket": ub,
                         "val_sign": vs})

    ev = (ray.data.read_parquet(f"{sf_dir}/events.parquet",
                                columns=["user_id", "event_type",
                                         "value"],
                                override_num_blocks=16)
          .map_batches(derive_batch, batch_format="pyarrow",
                       zero_copy_batch=True))
    return gk_tau(ev, PAIRS)


def _readability_q(sf_dir: str):
    """q255: Flesch readability (stages/text.py:readability_fn) —
    RE2 word/sentence/vowel-group counts, fixed IEEE expression
    (literals CAST AS DOUBLE — the q64 decimal-literal trap)."""
    import ray

    from featurebox_ray.stages.text import readability_fn

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["doc_id", "text"],
                                 override_num_blocks=16)
    return docs.map_batches(readability_fn(),
                            batch_format="pyarrow",
                            zero_copy_batch=True)


def _logrank_q(sf_dir: str):
    """q254: pairwise log-rank churn test between birth cohorts
    (stages/retention.py:logrank_test) — shared _survival_cells with
    q215 (12h censor window), exact-Fraction U/V over pooled death
    times, z = u/sqrt(v).  Fixture oracle: independent serial replay
    (_oracle_replays.replay_logrank), bit-identical."""
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray

    from _oracle_replays import replay_logrank
    from featurebox_ray.stages.retention import logrank_test

    t = pq.read_table(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "ts", "event_id", "event_type"])
    exp = replay_logrank(t["user_id"].to_pylist(),
                         t["ts"].cast(pa.int64()).to_pylist(),
                         t["event_id"].to_pylist(),
                         t["event_type"].to_pylist(),
                         censor_window_us=43_200_000_000)
    os.makedirs(_ORACLE_DIR, exist_ok=True)
    pq.write_table(pa.table({
        "cohort_a": pa.array([r[0] for r in exp], pa.string()),
        "cohort_b": pa.array([r[1] for r in exp], pa.string()),
        "n_a": pa.array([r[2] for r in exp], pa.int64()),
        "n_b": pa.array([r[3] for r in exp], pa.int64()),
        "u": pa.array([r[4] for r in exp], pa.float64()),
        "v": pa.array([r[5] for r in exp], pa.float64()),
        "z": pa.array([r[6] for r in exp], pa.float64()),
    }), f"{_ORACLE_DIR}/logrank.parquet.tmp")
    os.replace(f"{_ORACLE_DIR}/logrank.parquet.tmp",
               f"{_ORACLE_DIR}/logrank.parquet")

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "ts", "event_id", "event_type"])
    return logrank_test(ev, censor_window_us=43_200_000_000,
                        num_partitions=8)


def _mmd_q(sf_dir: str):
    """q253: pairwise quadratic-kernel MMD² between label groups
    (stages/cohesion.py:mmd_drift) — Σ(xᵀy)² = Gram-trace identities
    make the whole two-sample statistic a function of per-group int
    sufficient statistics (G, s4, n): one pass, no pair enumeration.
    SQL replays the traces via an unnest Gram build + (i,j) join +
    the identical cast/divide/2·exy−exx−eyy sequence."""
    import ray

    from featurebox_ray.stages.cohesion import mmd_drift

    emb = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet",
                                columns=["vec_id", "label",
                                         "embedding"],
                                override_num_blocks=8)
    return mmd_drift(emb)


def _ipc_roundtrip_q(sf_dir: str):
    """q252: Arrow IPC sink/source round trip (sources/io.py:
    write_ipc/read_ipc) — documents written as one Feather-V2 shard
    per block, read back via read_binary_files + zero-copy decode,
    verified by the q204 order-invariant checksum; the oracle
    computes the same checksum straight off the parquet table, so
    any corruption/row loss in the IPC path hash-mismatches."""
    import os
    import shutil

    import ray

    from featurebox_ray.sources.io import read_ipc, write_ipc
    from featurebox_ray.stages.profile import table_checksum

    out = f"/tmp/fbr_ipc_{os.getpid()}"
    shutil.rmtree(out, ignore_errors=True)
    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["doc_id", "text",
                                          "source"],
                                 override_num_blocks=8)
    write_ipc(docs, out)
    back = read_ipc(out)
    return table_checksum(back, cols=["doc_id", "text", "source"])


def _weak_label_q(sf_dir: str):
    """q251: keyword-rule weak labeling (stages/text.py:
    rule_label_fn) — three topic keyword sets scored by
    word-boundary RE2 occurrence counts, argmax topic with (score
    desc, topic asc) ties, NULL when nothing hits.  SQL replays via
    len(regexp_extract_all) sums + a CASE argmax."""
    import ray

    from featurebox_ray.stages.text import rule_label_fn

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["doc_id", "text"],
                                 override_num_blocks=16)
    fn = rule_label_fn({
        "exec": ["scan", "join", "hash"],
        "plan": ["order", "sort", "merge"],
        "stream": ["window", "batch", "stream"],
    })
    return docs.map_batches(fn, batch_format="pyarrow",
                            zero_copy_batch=True)


def _asof_interp_q(sf_dir: str):
    """q250: interpolating as-of join (stages/asof.py:
    asof_interpolate) — per user, the 'purchase' value series
    linearly interpolated at each 'click' timestamp (bracketing
    rows, last-write-wins right dedup, fixed IEEE lerp); NULL
    outside the right span.  SQL replays with two DuckDB ASOF
    joins + the identical expression."""
    import pyarrow.compute as pc
    import ray

    from featurebox_ray.stages.asof import asof_interpolate

    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["user_id", "ts", "event_id",
                                        "event_type", "value"],
                               override_num_blocks=16)
    def only(kind):
        def fn(b: "pa.Table") -> "pa.Table":
            import pyarrow as pa

            return b.filter(pc.fill_null(
                pc.equal(b["event_type"], kind), False))
        return fn

    left = ev.map_batches(only("click"), batch_format="pyarrow",
                          zero_copy_batch=True)
    right = ev.map_batches(only("purchase"), batch_format="pyarrow",
                           zero_copy_batch=True)
    import pyarrow.parquet as _pq

    return asof_interpolate(left, right, key="user_id",
                            ts_col="ts", left_id="event_id",
                            right_id="event_id",
                            value_col="value", num_partitions=8,
                            left_schema=_pq.read_schema(
                                f"{sf_dir}/events.parquet"))


def _hour_profile_q(sf_dir: str):
    """q249: per-user hour-of-day phase conformity
    (stages/seasonal.py:profile_similarity) — cos² between the
    user's 24-bin histogram and the corpus histogram; exact int64
    dot/u2/v2, final value = fixed (d·d)/(d·d) IEEE sequence (exact
    both sides even past 2^53, q234 convention)."""
    import ray

    from featurebox_ray.stages.seasonal import profile_similarity

    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["user_id", "ts"],
                               override_num_blocks=16)
    return profile_similarity(ev, key_col="user_id", ts_col="ts",
                              num_partitions=8)


def _knn_eval_q(sf_dir: str):
    """q248: leave-one-out 5-NN classification report over embeddings
    (stages/knn.py:knn_classifier_eval) — exact int dots, boundary
    ties filled in ascending id order, (count desc, label asc)
    votes, per-class tp/fp/fn + one-division P/R/F1.  SQL replays
    with the q164 unnest self-join + two QUALIFYs + identical
    divisions."""
    import ray

    from featurebox_ray.stages.knn import knn_classifier_eval

    emb = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet",
                                columns=["vec_id", "label",
                                         "embedding"],
                                override_num_blocks=8)
    return knn_classifier_eval(emb, k=5)


def _golden_q(sf_dir: str):
    """q247: MDM golden-record election (stages/linkage.py:
    golden_records) — q202's soundex-blocked matched pairs →
    min-id components (driver union-find over matches) → per-field
    mode with (count desc, value asc) ties over ONE entity-keyed
    exchange; singletons elect themselves.  SQL replays the whole
    chain (recursive-CTE closure + QUALIFY modes)."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray

    from featurebox_ray.stages.linkage import (blocked_pair_score,
                                               golden_records)
    from featurebox_ray.stages.phonetic import soundex_key

    part = ray.data.read_parquet(f"{sf_dir}/part.parquet",
                                 columns=["p_partkey", "p_name",
                                          "p_brand", "p_type",
                                          "p_size"])

    def blk(b: pa.Table) -> pa.Table:
        last = pc.replace_substring_regex(
            pc.fill_null(b["p_name"], ""), r"^.*\s", "")
        return b.append_column("blk", soundex_key(last))

    keyed = part.map_batches(blk, batch_format="pyarrow",
                             zero_copy_batch=True)
    pairs = blocked_pair_score(keyed, key_col="blk",
                               id_col="p_partkey",
                               fields={"p_brand": 3, "p_type": 2,
                                       "p_size": 2}, threshold=5)
    return golden_records(part, pairs, id_col="p_partkey",
                          fields=["p_brand", "p_type", "p_size"])


def _label_prop_q(sf_dir: str):
    """q246: sticky label propagation over the embedding similarity
    graph (stages/labelprop.py:label_propagation) — seeds = rows with
    vec_id % 3 == 0 (others' labels hidden), dot ≥ 20000 neighbors,
    5 frontier rounds, (count desc, label asc) majority.  Fixture
    oracle: independent O(n²) serial replay."""
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray

    from _oracle_replays import replay_label_propagation

    t = pq.read_table(f"{sf_dir}/embeddings.parquet",
                      columns=["vec_id", "label", "embedding"])
    ids = t["vec_id"].to_pylist()
    labs = [l if i is not None and i % 3 == 0 else None
            for i, l in zip(ids, t["label"].to_pylist())]
    exp = replay_label_propagation(ids, labs,
                                   t["embedding"].to_pylist(),
                                   threshold_num=20000, n_rounds=5)
    os.makedirs(_ORACLE_DIR, exist_ok=True)
    pq.write_table(pa.table({
        "vec_id": pa.array([r[0] for r in exp], pa.int64()),
        "label_out": pa.array([r[1] for r in exp], pa.int64()),
        "is_seed": pa.array([r[2] for r in exp], pa.int64()),
        "round_labeled": pa.array([r[3] for r in exp], pa.int64()),
    }), f"{_ORACLE_DIR}/label_prop.parquet.tmp")
    os.replace(f"{_ORACLE_DIR}/label_prop.parquet.tmp",
               f"{_ORACLE_DIR}/label_prop.parquet")

    from featurebox_ray.stages.labelprop import label_propagation

    def hide(b: pa.Table) -> pa.Table:
        import numpy as np
        import pyarrow.compute as pc

        ids_ = b["vec_id"].to_numpy(zero_copy_only=False)
        keep = pa.array(ids_ % 3 == 0)
        lab = pc.if_else(keep, pc.cast(b["label"].combine_chunks(),
                                       pa.int64()),
                         pa.nulls(b.num_rows, pa.int64()))
        return pa.table({"vec_id": b["vec_id"], "label": lab,
                         "embedding": b["embedding"]})

    emb = (ray.data.read_parquet(f"{sf_dir}/embeddings.parquet",
                                 columns=["vec_id", "label",
                                          "embedding"],
                                 override_num_blocks=8)
           .map_batches(hide, batch_format="pyarrow",
                        zero_copy_batch=True))
    return label_propagation(emb, threshold_num=20000, n_rounds=5)


def _dbscan_q(sf_dir: str):
    """q245: integer-exact DBSCAN over embeddings
    (stages/dbscan.py:dbscan_embed) — neighbor = quantized dot ≥
    20000, core = ≥4 neighbors, clusters = min-core-id components,
    border = min neighbor label, noise = NULL.  Fixture oracle:
    INDEPENDENT serial replay (_oracle_replays.replay_dbscan —
    O(n²) BFS expansion)."""
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray

    from _oracle_replays import replay_dbscan

    t = pq.read_table(f"{sf_dir}/embeddings.parquet",
                      columns=["vec_id", "embedding"])
    exp = replay_dbscan(t["vec_id"].to_pylist(),
                        t["embedding"].to_pylist(),
                        threshold_num=20000, min_pts=4)
    os.makedirs(_ORACLE_DIR, exist_ok=True)
    pq.write_table(pa.table({
        "vec_id": pa.array([r[0] for r in exp], pa.int64()),
        "cluster": pa.array([r[1] for r in exp], pa.int64()),
        "is_core": pa.array([r[2] for r in exp], pa.int64()),
    }), f"{_ORACLE_DIR}/dbscan.parquet.tmp")
    os.replace(f"{_ORACLE_DIR}/dbscan.parquet.tmp",
               f"{_ORACLE_DIR}/dbscan.parquet")

    from featurebox_ray.stages.dbscan import dbscan_embed

    emb = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet",
                                columns=["vec_id", "embedding"],
                                override_num_blocks=8)
    return dbscan_embed(emb, threshold_num=20000, min_pts=4,
                        num_partitions=8)


def _randomization_q(sf_dir: str):
    """q244: per-event-type approximate randomization test of the
    user-parity mean gap (stages/regress.py:randomization_test) —
    64 deterministic Knuth-bit pseudo-permutations, every rational
    comparison cross-multiplied to exact ints (Python ints; HUGEINT
    in SQL), p = (n_ge+1)/65."""
    import numpy as np
    import pyarrow as pa
    import ray

    from featurebox_ray.stages.regress import randomization_test

    def prep(b: pa.Table) -> pa.Table:
        b = b.filter(pa.compute.is_valid(b["user_id"]))
        u = b["user_id"].to_numpy(zero_copy_only=False)
        return b.append_column(
            "obs_side", pa.array((u % 2).astype(np.int64)))

    ev = (ray.data.read_parquet(f"{sf_dir}/events.parquet",
                                columns=["event_id", "user_id",
                                         "event_type", "value"],
                                override_num_blocks=16)
          .map_batches(prep, batch_format="pyarrow",
                       zero_copy_batch=True))
    return randomization_test(ev, key_col="event_type",
                              id_col="event_id",
                              side_col="obs_side",
                              value_col="value", n_perms=64)


def _mutual_nn_q(sf_dir: str):
    """q243: reciprocal-best-match pairs over embeddings
    (stages/knn.py:mutual_nn_pairs) — exact int64 dots, (dot desc,
    id asc) NN per row, mutuality via a lo-keyed run-length check.
    SQL replays with the q164 unnest self-join + QUALIFY + a
    reciprocal self-join of the NN table."""
    import ray

    from featurebox_ray.stages.knn import mutual_nn_pairs

    emb = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet",
                                columns=["vec_id", "embedding"],
                                override_num_blocks=8)
    return mutual_nn_pairs(emb, num_partitions=8)


def _ridge_influence_q(sf_dir: str):
    """q242: leave-one-shard-out ridge influence (stages/regress.py:
    ridge_influence) — per-shard integer XᵀX/Xᵀy partials, exact
    total−group subtraction, shared ridge_solve per complement;
    shard = vec_id % 7.  Fixture oracle: serial replay
    (_oracle_replays.replay_ridge_influence), bit-identical."""
    import os

    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq
    import ray

    from _oracle_replays import replay_ridge_influence

    t = pq.read_table(f"{sf_dir}/embeddings.parquet",
                      columns=["vec_id", "label", "embedding"])
    grp = [None if i is None else i % 7
           for i in t["vec_id"].to_pylist()]
    exp = replay_ridge_influence(t["embedding"].to_pylist(),
                                 t["label"].to_pylist(), grp)
    os.makedirs(_ORACLE_DIR, exist_ok=True)
    pq.write_table(pa.table({
        "grp": pa.array([r[0] for r in exp], pa.int64()),
        "j": pa.array([r[1] for r in exp], pa.int64()),
        "coef_loo": pa.array([r[2] for r in exp], pa.float64()),
        "delta": pa.array([r[3] for r in exp], pa.float64()),
    }), f"{_ORACLE_DIR}/ridge_influence.parquet.tmp")
    os.replace(f"{_ORACLE_DIR}/ridge_influence.parquet.tmp",
               f"{_ORACLE_DIR}/ridge_influence.parquet")

    from featurebox_ray.stages.regress import ridge_influence

    def add_grp(b: pa.Table) -> pa.Table:
        ids = b["vec_id"].to_numpy(zero_copy_only=False)
        return b.append_column(
            "grp", pa.array((ids % 7).astype(np.int64)))

    emb = (ray.data.read_parquet(f"{sf_dir}/embeddings.parquet",
                                 columns=["vec_id", "label",
                                          "embedding"],
                                 override_num_blocks=8)
           .map_batches(add_grp, batch_format="pyarrow",
                        zero_copy_batch=True))
    return ridge_influence(emb, group_col="grp", y_col="label")


def _mahalanobis_q(sf_dir: str):
    """q241: per-label Mahalanobis outlier distances over embeddings
    (stages/cohesion.py:mahalanobis_outliers) — int64 sufficient
    stats, driver eigh whitening, integer projections, fixed-order
    d2 chain.  Fixture oracle: serial replay
    (_oracle_replays.replay_mahalanobis), bit-identical — shared
    mahalanobis_params, integer matmuls, elementwise float chain."""
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray

    from _oracle_replays import replay_mahalanobis

    t = pq.read_table(f"{sf_dir}/embeddings.parquet",
                      columns=["vec_id", "label", "embedding"])
    exp = replay_mahalanobis(t["vec_id"].to_pylist(),
                             t["label"].to_pylist(),
                             t["embedding"].to_pylist())
    os.makedirs(_ORACLE_DIR, exist_ok=True)
    pq.write_table(pa.table({
        "vec_id": pa.array([r[0] for r in exp], pa.int64()),
        "label": pa.array([r[1] for r in exp], pa.int64()),
        "maha2": pa.array([r[2] for r in exp], pa.float64()),
    }), f"{_ORACLE_DIR}/mahalanobis.parquet.tmp")
    os.replace(f"{_ORACLE_DIR}/mahalanobis.parquet.tmp",
               f"{_ORACLE_DIR}/mahalanobis.parquet")

    from featurebox_ray.stages.cohesion import mahalanobis_outliers

    emb = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet",
                                columns=["vec_id", "label",
                                         "embedding"],
                                override_num_blocks=8)
    return mahalanobis_outliers(emb)


def _bfs_q(sf_dir: str):
    """q240: multi-source BFS hop distance from seed users
    (user_id % 17 == 0) over the hourly co-occurrence graph
    (stages/graph.py:bfs_hops) — frontier-bounded min-fold rounds,
    each one vertex-program superstep, all-int, capped at 4 hops.  SQL
    replays with a recursive CTE (UNION-dedup on (node, d)) +
    min(d) per node."""
    import ray

    from featurebox_ray.stages.graph import (bfs_hops,
                                             window_cooccurrence_edges)

    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["ts", "user_id"],
                               override_num_blocks=16)
    edges = window_cooccurrence_edges(ev, ts_col="ts",
                                      actor_col="user_id",
                                      num_partitions=8)
    return bfs_hops(edges, seed_mod=17, max_hops=4,
                    num_partitions=8)


def _k_core_q(sf_dir: str):
    """q239: core-number decomposition of the hourly user
    co-occurrence graph (stages/graph.py:k_core) — h-index fixed
    point, one vertex-program superstep (two node-keyed exchanges) per
    round, all-int, order-independent invariant.  Fixture oracle:
    INDEPENDENT serial replay (_oracle_replays.replay_k_core — dict/set
    edge build + Batagelj–Zaveršnik bucket peeling)."""
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray

    from _oracle_replays import replay_k_core
    from featurebox_ray.stages.graph import (k_core,
                                             window_cooccurrence_edges)

    t = pq.read_table(f"{sf_dir}/events.parquet",
                      columns=["ts", "user_id"])
    ts_us = pa.compute.cast(t["ts"].combine_chunks(),
                            pa.int64()).to_pylist()
    exp = replay_k_core(ts_us, t["user_id"].to_pylist())
    os.makedirs(_ORACLE_DIR, exist_ok=True)
    pq.write_table(pa.table({
        "node": pa.array([r[0] for r in exp], pa.int64()),
        "degree": pa.array([r[1] for r in exp], pa.int64()),
        "core": pa.array([r[2] for r in exp], pa.int64()),
    }), f"{_ORACLE_DIR}/k_core.parquet.tmp")
    os.replace(f"{_ORACLE_DIR}/k_core.parquet.tmp",
               f"{_ORACLE_DIR}/k_core.parquet")

    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["ts", "user_id"],
                               override_num_blocks=16)
    edges = window_cooccurrence_edges(ev, ts_col="ts",
                                      actor_col="user_id",
                                      num_partitions=8)
    return k_core(edges, num_partitions=8)


def _haar_q(sf_dir: str):
    """q238: per-user Haar wavelet energy by level over the
    time-ordered cents series (stages/wavelet.py:haar_energy) —
    detail D = S_left − S_right per complete 2^j bucket, energy =
    ΣD²/2^j (exact dyadic); one user-keyed exchange.  SQL replays
    via sign-by-bit bucket sums + HUGEINT sum(d*d) + the identical
    CAST + power-of-two division."""
    import ray

    from featurebox_ray.stages.wavelet import haar_energy

    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["user_id", "ts", "event_id",
                                        "value"],
                               override_num_blocks=16)
    return haar_energy(ev, key_col="user_id", ts_col="ts",
                       order_col="event_id", value_col="value",
                       max_level=3, num_partitions=8)


def _wasserstein_q(sf_dir: str):
    """q237: per-source W1 (earth-mover) drift of the document-length
    distribution vs the pooled rest (stages/diff.py:wasserstein_drift)
    — exact int64 cross-multiplied CDF gaps × value gaps summed over
    the merged support, one correctly-rounded cast+division; per-block
    histogram partials, driver-tiny combine, NO shuffle.  SQL replays
    with HUGEINT window sums + the identical CAST/division."""
    import ray

    from featurebox_ray.stages.diff import wasserstein_drift

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["source", "n_chars"],
                                 override_num_blocks=16)
    return wasserstein_drift(docs, group_col="source",
                             value_col="n_chars")


def _jenks_q(sf_dir: str):
    """q236: per-source optimal 1-D length classes (stages/binning.py:
    jenks_breaks) — Fisher DP maximizing Σ S1²/W, float prune +
    exact-Fraction refine (q211 convention), ties to smallest split.
    Fixture oracle: serial FULL-Fraction DP replay
    (_oracle_replays.replay_jenks) — both land on the exact optimum,
    bit-identical outputs."""
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray

    from _oracle_replays import replay_jenks
    from featurebox_ray.stages.binning import jenks_breaks

    t = pq.read_table(f"{sf_dir}/documents.parquet",
                      columns=["source", "n_chars"])
    exp = replay_jenks(t["source"].to_pylist(),
                       t["n_chars"].to_pylist(), k=4)
    os.makedirs(_ORACLE_DIR, exist_ok=True)
    pq.write_table(pa.table({
        "source": pa.array([r[0] for r in exp], pa.string()),
        "cls": pa.array([r[1] for r in exp], pa.int64()),
        "lo": pa.array([r[2] for r in exp], pa.int64()),
        "hi": pa.array([r[3] for r in exp], pa.int64()),
        "n_rows": pa.array([r[4] for r in exp], pa.int64()),
        "mean": pa.array([r[5] for r in exp], pa.float64()),
        "within_ss": pa.array([r[6] for r in exp], pa.float64()),
    }), f"{_ORACLE_DIR}/jenks.parquet.tmp")
    os.replace(f"{_ORACLE_DIR}/jenks.parquet.tmp",
               f"{_ORACLE_DIR}/jenks.parquet")

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["source", "n_chars"],
                                 override_num_blocks=16)
    return jenks_breaks(docs, group_col="source",
                        value_col="n_chars", k=4, num_partitions=8)


def _bm25_q(sf_dir: str):
    """q235: BM25 scoring of a fixed 3-term query over documents
    (stages/tfidf.py:bm25_topk) — k1=6/5, b=3/4 multiplied through by
    10S clear every denominator; raw-odds idf (no ln, q53
    convention); two streaming passes, driver-tiny global combine +
    per-block local top-k merge, NO exchange."""
    import ray

    from featurebox_ray.stages.tfidf import bm25_topk

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["doc_id", "text"],
                                 override_num_blocks=16)
    return bm25_topk(docs, id_col="doc_id", text_col="text",
                     query_terms=["table", "query", "spark"], k=10)


def _assortativity_q(sf_dir: str):
    """q234: degree assortativity of the hourly user co-occurrence
    graph (stages/graph.py:window_cooccurrence_edges +
    degree_assortativity) — distinct user pairs sharing a 1h tumbling
    window; exact int64 sufficient statistics (M, Σjk, Σ(j+k),
    Σ(j²+k²)) each guarded < 2^53, r from the fixed double op
    sequence (q228 convention); two keyed exchanges build the edge
    set, degrees broadcast once."""
    import ray

    from featurebox_ray.stages.graph import (degree_assortativity,
                                             window_cooccurrence_edges)

    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["ts", "user_id"],
                               override_num_blocks=16)
    edges = window_cooccurrence_edges(ev, ts_col="ts",
                                      actor_col="user_id",
                                      width_us=3_600_000_000,
                                      num_partitions=8)
    return degree_assortativity(edges)


def _kn_bigram_q(sf_dir: str):
    """q233: per-source interpolated Kneser-Ney bigram table
    (stages/lm.py:kn_bigram_topk) — d=3/4 clears denominators so
    p = ((4c−3)·T + 3·F·B)/(4·tot·T) is ONE exact-int division both
    sides (guarded < 2^53); per-block Arrow group_by partials, ONE
    source-keyed exchange derives tot/F/B/T by run-length; top-15
    per source with total (p desc, w1, w2) tie-break."""
    import ray

    from featurebox_ray.stages.lm import kn_bigram_topk

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["source", "text"],
                                 override_num_blocks=16)
    return kn_bigram_topk(docs, group_col="source", text_col="text",
                          k=15, num_partitions=8)


def _quantile_normalize_q(sf_dir: str):
    """q232: cross-source quantile normalization of document lengths
    (stages/encode.py:quantile_normalize) — every doc's n_chars mapped
    onto the pooled length distribution at its within-source rank;
    pure integer rank arithmetic + positional gather (bit-exact SQL
    window replay); pooled histogram reduced from per-block partials
    and broadcast once, ONE source-keyed exchange."""
    import ray

    from featurebox_ray.stages.encode import quantile_normalize

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet",
        columns=["doc_id", "source", "n_chars"],
        override_num_blocks=16)
    return quantile_normalize(docs, id_col="doc_id",
                              group_col="source",
                              value_col="n_chars", num_partitions=8)


def _churn_profile_q(sf_dir: str):
    """q231: consecutive-record edit-distance churn profile per source
    (stages/editdist.py:consecutive_editdist) — every doc paired with
    its doc_id successor inside its source, exact batch-vectorized
    Levenshtein DP (DuckDB ``levenshtein`` parity on the ASCII corpus;
    non-ASCII and >4096-byte rows excluded by contract, mirrored in
    the oracle); ONE source-keyed exchange, one O(max_len) vectorized
    DP over all pairs of a partition."""
    import ray

    from featurebox_ray.stages.editdist import consecutive_editdist

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet",
        columns=["source", "doc_id", "text"],
        override_num_blocks=16)
    return consecutive_editdist(docs, key_col="source",
                                order_col="doc_id", text_col="text",
                                num_partitions=8)


def _sax_q(sf_dir: str):
    """q230: PAA+SAX symbolic encoding of per-user spend series
    (stages/window.py:sax_encode) — 8-event windows, exact int64
    window sums, global quartile breakpoints via the q51 exact
    quantile_disc selection, strict-compare symbols 0-3; one
    user-keyed exchange + a tiny quantile exchange, sums
    materialized once for both consumers."""
    import ray

    from featurebox_ray.stages.window import sax_encode

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "ts", "event_id", "value"])
    return sax_encode(ev, key_col="user_id", ts_col="ts",
                      order_col="event_id", value_col="value",
                      window=8, num_partitions=16)


def _kendall_tau_q(sf_dir: str):
    """q229: per-user Kendall tau-b between time and spend (stages/
    regress.py:kendall_tau) — exact integer concordant/discordant/
    tie pair counts (cents tie classes), tau = double(cd)/
    sqrt(double((n0−n1)(n0−n2))) with the product < 2^53 (exact
    BIGINT→DOUBLE both sides); one user-keyed exchange, vectorized
    pair-triangle kernel; the DuckDB oracle is the all-pairs
    self-join."""
    import ray

    from featurebox_ray.stages.regress import kendall_tau

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "ts", "value"])
    return kendall_tau(ev, key_col="user_id", x_col="ts",
                       y_col="value", num_partitions=16)


def _chi2_keyness_q(sf_dir: str):
    """q228: per-source chi-square term keyness (stages/tfidf.py:
    chi2_keyness) — top-15 over-represented terms per source; exact
    integer contingency, chi2 as a fixed <2^53 double op sequence
    (DuckDB HUGEINT→DOUBLE is not correctly rounded — measured — so
    the single-division form is avoided); one term-keyed exchange,
    driver merges ≤ partitions×groups×k rows."""
    import ray

    from featurebox_ray.stages.tfidf import chi2_keyness

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["source", "text"],
                                 override_num_blocks=16)
    return chi2_keyness(docs, group_col="source", text_col="text",
                        k=15, min_count=5, num_partitions=8)


def _encoding_audit_q(sf_dir: str):
    """q227: mojibake/encoding-artifact audit per source (stages/
    text.py:encoding_audit) — U+FFFD, Latin-1 lead-byte artifacts and
    stray C0 controls counted with Arrow RE2 (DuckDB RE2 parity);
    per-block partials, driver combine."""
    import ray

    from featurebox_ray.stages.text import encoding_audit

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["source", "text"],
                                 override_num_blocks=16)
    return encoding_audit(docs, group_col="source", text_col="text")


def _quota_sample_q(sf_dir: str):
    """q226: stratified FIXED-SIZE sample of documents by source
    (stages/sample.py:quota_sample) — Hamilton quotas + per-group
    Knuth-hash rank; exactly 300 rows, fully integer decision
    path."""
    import ray

    from featurebox_ray.stages.sample import quota_sample

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["source", "doc_id"])
    return quota_sample(docs, group_col="source", key_col="doc_id",
                        total=300, num_partitions=8)


def _fk_audit_q(sf_dir: str):
    """q225: referential-integrity audit over the relational tables
    (stages/profile.py:fk_audit) — exact bloom-anti orphan counts for
    lineitem->orders and orders->customer; orphan_share one
    division."""
    import pyarrow as pa
    import ray

    from featurebox_ray.stages.profile import fk_audit

    li = ray.data.read_parquet(f"{sf_dir}/lineitem.parquet",
                               columns=["l_orderkey"])
    od = ray.data.read_parquet(f"{sf_dir}/orders.parquet",
                               columns=["o_orderkey"])
    od2 = ray.data.read_parquet(f"{sf_dir}/orders.parquet",
                                columns=["o_custkey"])
    cu = ray.data.read_parquet(f"{sf_dir}/customer.parquet",
                               columns=["c_custkey"])
    a = fk_audit(li, od, child_key="l_orderkey",
                 parent_key="o_orderkey",
                 relation="lineitem->orders", num_partitions=8)
    b = fk_audit(od2, cu, child_key="o_custkey",
                 parent_key="c_custkey",
                 relation="orders->customer", num_partitions=8)
    return pa.concat_tables([a, b])


def _kmv_setops_q(sf_dir: str):
    """q224: KMV sketch set algebra (stages/sketch.py:kmv_set_ops) —
    distinct-user union/intersection estimates between the first and
    last event types from two mergeable k-min sketches; the q48
    md5-prefix contract makes the whole decision SQL-replayable."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq
    import ray

    from featurebox_ray.stages.sketch import kmv_set_ops

    types = pq.read_table(f"{sf_dir}/events.parquet",
                          columns=["event_type"])["event_type"]
    u = pc.unique(types.combine_chunks()).drop_null().to_pylist()
    a, b = min(u), max(u)
    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["event_type", "user_id"])
    return kmv_set_ops(ev, group_col="event_type",
                       value_col="user_id", group_a=a, group_b=b,
                       k=64)


def _shapley_q(sf_dir: str):
    """q223: Shapley channel attribution (stages/attribution.py:
    shapley_attribution) — conversion = lexicographically last event
    type, channels = the rest; exact-set coalition values as
    rationals, one user-keyed exchange + 2^k driver cells.  Fixture
    oracle: serial exact-rational replay (bit-identical)."""
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray

    from _oracle_replays import replay_shapley
    from featurebox_ray.stages.attribution import shapley_attribution

    t = pq.read_table(f"{sf_dir}/events.parquet",
                      columns=["user_id", "event_type"])
    exp = replay_shapley(t["user_id"].to_pylist(),
                         t["event_type"].to_pylist())
    os.makedirs(_ORACLE_DIR, exist_ok=True)
    pq.write_table(pa.table({
        "channel": pa.array([r[0] for r in exp], pa.string()),
        "n_users_with": pa.array([r[1] for r in exp], pa.int64()),
        "shapley": pa.array([r[2] for r in exp], pa.float64()),
    }), f"{_ORACLE_DIR}/shapley.parquet.tmp")
    os.replace(f"{_ORACLE_DIR}/shapley.parquet.tmp",
               f"{_ORACLE_DIR}/shapley.parquet")

    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["user_id", "event_type"])
    return shapley_attribution(ev, key_col="user_id",
                               type_col="event_type",
                               num_partitions=16)


def _did_q(sf_dir: str):
    """q222: difference-in-differences per event type (stages/
    regress.py:did_estimate) — user-parity sides, 80/20 temporal cut
    (q217 convention), four exact int64 cell means, fixed-order
    subtraction."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray

    from featurebox_ray.stages.regress import did_estimate

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_type", "user_id", "ts", "value"])

    def side(b: pa.Table) -> pa.Table:
        keep = pc.fill_null(pc.is_valid(b["user_id"]), False)
        if not pc.all(keep).as_py():
            b = b.filter(keep)
        u = b["user_id"].to_numpy(zero_copy_only=False)
        return pa.table({"event_type": b["event_type"],
                         "a": pa.array(u % 2, pa.int64()),
                         "ts": b["ts"], "value": b["value"]})

    sided = ev.map_batches(side, batch_format="pyarrow",
                           zero_copy_batch=True)
    return did_estimate(sided, group_col="event_type", side_col="a",
                        ts_col="ts", value_col="value")


def _quota_q(sf_dir: str):
    """q221: Hamilton largest-remainder labeling-budget allocation
    across sources (stages/sample.py:quota_allocate) — integer floor
    shares + remainder-ranked top-up, never over/under-allocates;
    per-block count partials, driver combine."""
    import ray

    from featurebox_ray.stages.sample import quota_allocate

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["source"])
    return quota_allocate(docs, group_col="source", total=1000)


def _pareto_q(sf_dir: str):
    """q220: per-type Pareto frontier of (spend cents, recency)
    (stages/rank.py:pareto_front) — non-dominated rows under
    maximize-both; ONE group-keyed exchange, run arithmetic + grouped
    suffix cummax, pure integer domination."""
    import pyarrow as pa
    import ray

    from featurebox_ray.stages.rank import pareto_front

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_type", "event_id", "value", "ts"])

    def quantize(b: pa.Table) -> pa.Table:
        from featurebox_ray.functions.segments import cents_exact

        ts = b["ts"].combine_chunks()
        if pa.types.is_timestamp(ts.type):
            ts = ts.cast(pa.int64())
        return pa.table({
            "event_type": b["event_type"],
            "event_id": b["event_id"],
            "xc": pa.array(cents_exact(b["value"].combine_chunks(),
                                       col="value")),
            "yt": ts})

    q = ev.map_batches(quantize, batch_format="pyarrow",
                       zero_copy_batch=True)
    return pareto_front(q, group_col="event_type",
                        id_col="event_id", x_col="xc", y_col="yt",
                        num_partitions=8)


def _prep_corpus_q(sf_dir: str):
    """q219: COMPOSED corpus-prep pipeline (pipelines/cleaning.py:
    prep_corpus) — prefix_dedup → bloom semi join → Gopher rules →
    weighted interleave; the composition itself is value-checked as
    one chained-CTE SQL replay (the q168 convention)."""
    import ray

    from featurebox_ray.pipelines.cleaning import prep_corpus

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet",
        columns=["doc_id", "text", "source"],
        override_num_blocks=16)
    return prep_corpus(docs, limit=300, num_partitions=16)


def _set_cover_q(sf_dir: str):
    """q218: greedy max-coverage corpus selection (stages/tfidf.py:
    set_cover_select) — k=16 rounds of one task per block against
    the broadcast covered-set; BIGRAM coverage units (the synthetic
    corpus has a 31-word unigram vocab — unigram cover is vacuous);
    exact integer gains, (gain desc, id asc) ties.  Fixture oracle:
    serial replay is bit-identical."""
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray

    from _oracle_replays import replay_set_cover
    from featurebox_ray.stages.tfidf import set_cover_select

    t = pq.read_table(f"{sf_dir}/documents.parquet",
                      columns=["doc_id", "text"])
    exp = replay_set_cover(t["doc_id"].to_pylist(),
                           t["text"].to_pylist(), k=16, ngram=2)
    os.makedirs(_ORACLE_DIR, exist_ok=True)
    pq.write_table(pa.table({
        "sel_ord": pa.array([r[0] for r in exp], pa.int64()),
        "doc_id": pa.array([r[1] for r in exp], pa.int64()),
        "gain": pa.array([r[2] for r in exp], pa.int64()),
        "covered_total": pa.array([r[3] for r in exp], pa.int64()),
    }), f"{_ORACLE_DIR}/set_cover.parquet.tmp")
    os.replace(f"{_ORACLE_DIR}/set_cover.parquet.tmp",
               f"{_ORACLE_DIR}/set_cover.parquet")

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["doc_id", "text"],
                                 override_num_blocks=16)
    return set_cover_select(docs, k=16, ngram=2)


def _split_audit_q(sf_dir: str):
    """q217: temporal train/test split leakage audit (stages/
    profile.py:temporal_split_audit) — 80/20 cut at
    min + (max−min)·4//5 epoch-us, exact side/user counts, one
    user-keyed distinct exchange; leak_share = ONE division."""
    import ray

    from featurebox_ray.stages.profile import temporal_split_audit

    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["user_id", "ts"])
    return temporal_split_audit(ev, user_col="user_id", ts_col="ts",
                                num_partitions=16)


def _cross_source_q(sf_dir: str):
    """q216: cross-source shared 8-gram contamination matrix
    (stages/substr.py:cross_source_grams) — locally-deduped
    (gram-md5, source) rows, ONE gram-keyed exchange, pair expansion
    via triangular_pairs, driver combine over <= |sources|^2
    cells."""
    import ray

    from featurebox_ray.stages.substr import cross_source_grams

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["source", "text"],
                                 override_num_blocks=16)
    return cross_source_grams(docs, group_col="source",
                              text_col="text", k=8,
                              num_partitions=16)


def _kaplan_meier_q(sf_dir: str):
    """q215: right-censored Kaplan-Meier user survival per birth
    cohort (stages/retention.py:kaplan_meier) — one user-keyed
    exchange of per-block (min, max) partials, censor cutoff from
    the same partials, tiny (cohort, dur) cells; survival kept as an
    exact rational, ONE float division emitted.  Fixture oracle:
    serial replay (identical int arithmetic)."""
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray

    from _oracle_replays import replay_kaplan_meier
    from featurebox_ray.stages.retention import kaplan_meier

    t = pq.read_table(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "ts", "event_id", "event_type"])
    exp = replay_kaplan_meier(t["user_id"].to_pylist(),
                              t["ts"].cast(pa.int64()).to_pylist(),
                              t["event_id"].to_pylist(),
                              t["event_type"].to_pylist(),
                              censor_window_us=43_200_000_000)
    os.makedirs(_ORACLE_DIR, exist_ok=True)
    pq.write_table(pa.table({
        "cohort": pa.array([r[0] for r in exp], pa.string()),
        "dur_days": pa.array([r[1] for r in exp], pa.int64()),
        "at_risk": pa.array([r[2] for r in exp], pa.int64()),
        "deaths": pa.array([r[3] for r in exp], pa.int64()),
        "censored": pa.array([r[4] for r in exp], pa.int64()),
        "surv": pa.array([r[5] for r in exp], pa.float64()),
    }), f"{_ORACLE_DIR}/kaplan_meier.parquet.tmp")
    os.replace(f"{_ORACLE_DIR}/kaplan_meier.parquet.tmp",
               f"{_ORACLE_DIR}/kaplan_meier.parquet")

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "ts", "event_id", "event_type"])
    return kaplan_meier(ev, censor_window_us=43_200_000_000,
                        num_partitions=16)


def _mann_whitney_q(sf_dir: str):
    """q214: Mann-Whitney U shift test per event type (stages/
    regress.py:mann_whitney) — sides = user_id parity; doubled
    tie-averaged integer ranks (the q122 trick), tie-corrected
    normal z from exact ints; one group-keyed exchange."""
    import numpy as np
    import pyarrow as pa
    import ray

    from featurebox_ray.stages.regress import mann_whitney

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_type", "user_id", "value"])

    def side(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        keep = pc.fill_null(pc.is_valid(b["user_id"]), False)
        if not pc.all(keep).as_py():
            b = b.filter(keep)
        u = b["user_id"].to_numpy(zero_copy_only=False)
        return pa.table({"event_type": b["event_type"],
                         "a": pa.array(u % 2, pa.int64()),
                         "value": b["value"]})

    sided = ev.map_batches(side, batch_format="pyarrow",
                           zero_copy_batch=True)
    return mann_whitney(sided, group_col="event_type", side_col="a",
                        value_col="value", num_partitions=8)


def _loo_encode_q(sf_dir: str):
    """q213: leave-one-out target encoding of event_type by spend
    (stages/encode.py:loo_target_encode) — one category-keyed
    exchange, run sums broadcast back by segment arithmetic;
    loo = ONE division of exact int64 cents."""
    import ray

    from featurebox_ray.stages.encode import loo_target_encode

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "event_type", "value"])
    return loo_target_encode(ev, id_col="event_id",
                             cat_col="event_type",
                             value_col="value", num_partitions=16)


def _vocab_coverage_q(sf_dir: str):
    """q212: Good-Turing / Chao1 vocabulary-coverage audit per source
    (stages/tfidf.py:vocab_coverage) — one term-keyed exchange of
    (source, term, cnt) partials, per-group sufficient stats combined
    on the driver; unseen_mass and chao1 are single divisions of
    exact integer counts."""
    import ray

    from featurebox_ray.stages.tfidf import vocab_coverage

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["source", "text"],
                                 override_num_blocks=16)
    return vocab_coverage(docs, group_col="source", text_col="text",
                          num_partitions=16)


def _changepoint_q(sf_dir: str):
    """q211: per-user spend-level changepoint (stages/changepoint.py:
    group_changepoint) — binary segmentation over the (ts, event_id)-
    ordered cents series; float prune + exact Python-int
    cross-mult argmax, ties to the smallest split.  Fixture oracle:
    serial exact replay (pure int compares -> bit-identical)."""
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray

    from _oracle_replays import replay_changepoint
    from featurebox_ray.stages.changepoint import group_changepoint

    t = pq.read_table(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "ts", "event_id", "value"])
    ts_us = t["ts"].cast(pa.int64()).to_pylist()  # exact epoch-us
    exp = replay_changepoint(t["user_id"].to_pylist(), ts_us,
                             t["event_id"].to_pylist(),
                             t["value"].to_pylist())
    os.makedirs(_ORACLE_DIR, exist_ok=True)
    pq.write_table(pa.table({
        "user_id": pa.array([r[0] for r in exp], pa.int64()),
        "n": pa.array([r[1] for r in exp], pa.int64()),
        "split_i": pa.array([r[2] for r in exp], pa.int64()),
        "ts_split": pa.array([r[3] for r in exp], pa.int64()),
        "gain_cents2": pa.array([r[4] for r in exp], pa.float64()),
        "mean_l": pa.array([r[5] for r in exp], pa.float64()),
        "mean_r": pa.array([r[6] for r in exp], pa.float64()),
    }), f"{_ORACLE_DIR}/changepoint.parquet.tmp")
    os.replace(f"{_ORACLE_DIR}/changepoint.parquet.tmp",
               f"{_ORACLE_DIR}/changepoint.parquet")

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "ts", "event_id", "value"])
    return group_changepoint(ev, key_col="user_id", ts_col="ts",
                             seq_col="event_id", value_col="value",
                             num_partitions=16)


def _k_center_q(sf_dir: str):
    """q210: greedy k-center coreset selection (stages/cohesion.py:
    k_center_select) — deterministic farthest-point diversity
    sampling over exact quantized-int distances; k rounds of one tiny
    task per block, vectors never reshuffle.  Fixture oracle: the
    serial integer replay is bit-identical (pure int compares)."""
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray

    from _oracle_replays import replay_k_center
    from featurebox_ray.stages.cohesion import k_center_select

    t = pq.read_table(f"{sf_dir}/embeddings.parquet",
                      columns=["vec_id", "embedding"])
    ids = t["vec_id"].to_pylist()
    X = [v for v in t["embedding"].to_pylist()]
    keep = [(i, v) for i, v in zip(ids, X)
            if i is not None and v is not None]
    import numpy as np

    exp = replay_k_center(np.array([i for i, _ in keep], np.int64),
                          np.array([v for _, v in keep], np.float64),
                          k=16)
    os.makedirs(_ORACLE_DIR, exist_ok=True)
    pq.write_table(pa.table({
        "sel_ord": pa.array([r for r, _, _ in exp], pa.int64()),
        "vec_id": pa.array([i for _, i, _ in exp], pa.int64()),
        "radius2": pa.array([d for _, _, d in exp], pa.int64()),
    }), f"{_ORACLE_DIR}/k_center.parquet.tmp")
    os.replace(f"{_ORACLE_DIR}/k_center.parquet.tmp",
               f"{_ORACLE_DIR}/k_center.parquet")

    emb = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet",
                                columns=["vec_id", "embedding"],
                                override_num_blocks=8)
    return k_center_select(emb, vec_col="embedding",
                           id_col="vec_id", k=16)


def _silhouette_q(sf_dir: str):
    """q209: simplified-silhouette label audit (stages/cohesion.py:
    simplified_silhouette) — exact quantized-integer distances to
    every label centroid from one sufficient-stats pass + broadcast;
    sil = (b−a)/max(a,b) over identically-computed doubles."""
    import ray

    from featurebox_ray.stages.cohesion import simplified_silhouette

    emb = ray.data.read_parquet(
        f"{sf_dir}/embeddings.parquet",
        columns=["vec_id", "label", "embedding"])
    return simplified_silhouette(emb, vec_col="embedding",
                                 id_col="vec_id", group_col="label",
                                 quant_bits=8)


def _interleave_q(sf_dir: str):
    """q208: deterministic corpus-mixing schedule (stages/sample.py:
    weighted_interleave) — stride-scheduling positions rn/w per
    source (w = length(source) %% 3 + 1), one source-keyed rank
    exchange + the global_row_number range sort, first 500 rows of
    the training order."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray

    from featurebox_ray.stages.sample import weighted_interleave

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["doc_id", "source"])

    def with_weight(b: pa.Table) -> pa.Table:
        import numpy as np

        lens = pc.utf8_length(pc.fill_null(b["source"], "")).cast(
            pa.int64()).to_numpy(zero_copy_only=False)
        return b.append_column(
            "w", pa.array(lens % 3 + 1, pa.int64()))

    wd = docs.map_batches(with_weight, batch_format="pyarrow",
                          zero_copy_batch=True)
    return weighted_interleave(wd, source_col="source",
                               id_col="doc_id", weight_col="w",
                               limit=500, num_partitions=16)


def _prefix_dedup_q(sf_dir: str):
    """q207: truncation-duplicate removal (stages/substr.py:
    prefix_dedup) — documents unioned with 100-codepoint truncated
    recrawl copies (id + 10^9); one range sort by (text, id), then a
    single vectorized adjacent byte-compare per row with
    content-ordered block boundaries.  Arrow utf8_slice_codeunits ==
    SQL substr (both codepoint-based); byte-prefix == codepoint-prefix
    on valid UTF-8."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray

    from featurebox_ray.stages.substr import prefix_dedup

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["doc_id", "text"])

    def with_truncated(b: pa.Table) -> pa.Table:
        txt = b["text"].combine_chunks()
        ids = b["doc_id"].combine_chunks()
        trunc = pc.utf8_slice_codeunits(txt, 0, 100)
        return pa.table({
            "doc_id": pa.concat_arrays(
                [ids, pc.add(ids, 1_000_000_000)]),
            "text": pa.concat_arrays([txt, trunc])})

    both = docs.map_batches(with_truncated, batch_format="pyarrow",
                            zero_copy_batch=True)
    return prefix_dedup(both, id_col="doc_id", text_col="text")


def _assoc_rules_q(sf_dir: str):
    """q206: market-basket association rules over user event-type
    baskets (stages/rules.py:association_rules) — one basket-keyed
    exchange of deduped (user, type) rows, tiny |types|^2 pair
    partials combined on the driver; support/confidence/lift each ONE
    division of exact integers."""
    import ray

    from featurebox_ray.stages.rules import association_rules

    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["user_id", "event_type"])
    return association_rules(ev, basket_col="user_id",
                             item_col="event_type", min_count=5,
                             num_partitions=16)


def _kappa_q(sf_dir: str):
    """q205: labeler-agreement audit (stages/regress.py:cohen_kappa)
    — two heuristic binary quality raters (n_chars >= 500; whitespace
    tokens >= 80, both RE2-parity with DuckDB) scored per source;
    exact int64 2x2 partials, driver combine, ONE division."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray

    from featurebox_ray.stages.regress import cohen_kappa

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet",
        columns=["source", "text", "n_chars"])

    def raters(b: pa.Table) -> pa.Table:
        a = pc.greater_equal(pc.fill_null(b["n_chars"], 0), 500)
        n_tok = pc.count_substring_regex(
            pc.fill_null(b["text"], ""), r"\S+")
        r = pc.greater_equal(n_tok, 80)
        return pa.table({"source": b["source"],
                         "a": a.cast(pa.int64()),
                         "b": r.cast(pa.int64())})

    rated = docs.map_batches(raters, batch_format="pyarrow",
                             zero_copy_batch=True)
    return cohen_kappa(rated, group_col="source", rater_a_col="a",
                       rater_b_col="b")


def _context_trim_q(sf_dir: str):
    """q194: token-budget context-window trim (stages/context.py) —
    per event, how many immediately preceding same-user events fit in
    a 25-token budget (greedy suffix of history) + the exact kept
    total; one keyed exchange, one global searchsorted kernel."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray

    from featurebox_ray.stages.context import context_trim

    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["user_id", "event_id", "ts",
                                        "props"])

    def tok(b: pa.Table) -> pa.Table:
        return b.append_column("n_tok", pc.cast(
            pc.utf8_length(pc.fill_null(b["props"], "")), pa.int64()))

    ev = ev.map_batches(tok, batch_format="pyarrow",
                        zero_copy_batch=True)
    return context_trim(ev, key_col="user_id", ts_col="ts",
                        seq_col="event_id", tokens_col="n_tok",
                        budget=25, num_partitions=16)


def _feature_hash_q(sf_dir: str):
    """q195: hashing-trick vectorizer (stages/encode.py:
    hashing_vectorizer) — signed 64-dim md5 feature hashing of
    document tokens, sparse (doc_id, dim, weight) output; map-only,
    no vocabulary, no shuffle."""
    import ray

    from featurebox_ray.stages.encode import hashing_vectorizer

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["doc_id", "text"])
    return hashing_vectorizer(docs, id_col="doc_id", text_col="text",
                              n_dims=64)


def _seasonal_peak_q(sf_dir: str):
    """q196: hour-of-day seasonal profile + peak election
    (stages/seasonal.py) — phase-folded (ts//1h)%24 cents profile per
    event type, peak bin by one IEEE mean division with lowest-bin
    ties; block partials + one tiny group exchange."""
    import ray

    from featurebox_ray.stages.seasonal import seasonal_peak

    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["event_type", "ts", "value"])
    return seasonal_peak(ev, group_col="event_type", ts_col="ts",
                         value_col="value", bin_width_s=3600,
                         n_bins=24, num_partitions=4)


def _lag_autocov_q(sf_dir: str):
    """q197: per-user lag-2 autocovariance sufficient statistics
    (stages/window.py:lag_autocov) — integer-exact Σx·x₊₂ / head /
    tail / total sums over the (ts, event_id)-ordered cents series;
    one keyed exchange, shifted-product kernel."""
    import ray

    from featurebox_ray.stages.window import lag_autocov

    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["user_id", "event_id", "ts",
                                        "value"])
    return lag_autocov(ev, key_col="user_id", ts_col="ts",
                       seq_col="event_id", value_col="value", lag=2,
                       num_partitions=16)


def _containment_q(sf_dir: str):
    """q198: set-containment similarity join (stages/containment.py)
    — inverted-index large×large join: query docs (doc_id % 31 == 0)
    vs the rest, containment = |A∩B|/|A| ≥ 0.6 over tokens with
    corpus df ≤ 1000; two keyed exchanges, integer cross-mult filter."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray

    from featurebox_ray.stages.containment import containment_join

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["doc_id", "text"])

    def side(is_query: bool):
        def fn(b: pa.Table) -> pa.Table:
            import numpy as np

            ids = b["doc_id"].combine_chunks().to_numpy(
                zero_copy_only=False)
            m = pa.array(ids % 31 == 0)
            return b.filter(m if is_query else pc.invert(m))

        return docs.map_batches(fn, batch_format="pyarrow",
                                zero_copy_batch=True)

    return containment_join(side(True), side(False), id_col="doc_id",
                            text_col="text", threshold=0.6,
                            max_df=1000, num_partitions=8)


def _benford_q(sf_dir: str):
    """q199: Benford first-digit audit (stages/profile.py:
    benford_digits) — per event type, count/share of each first
    significant cents digit; integer power-of-ten searchsorted, block
    partials + one tiny exchange."""
    import ray

    from featurebox_ray.stages.profile import benford_digits

    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["event_type", "value"])
    return benford_digits(ev, group_col="event_type",
                          value_col="value", num_partitions=4)


def _triangle_census_q(sf_dir: str):
    """q200: triangle census of the embedding similarity graph
    (stages/graph.py:triangle_count) — edges where the quantized
    integer dot (2^10 half-up grid, the q116 quantizer) clears
    330000; exact wedge-closure count over two keyed exchanges; the
    at-scale edge builder is the LSH path (q24), the gate substrate
    broadcasts the quantized matrix once (q20/q127 shape)."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray

    from featurebox_ray.stages.cohesion import _batch_mat
    from featurebox_ray.stages.graph import triangle_count

    qt = pq.read_table(f"{sf_dir}/embeddings.parquet",
                       columns=["vec_id", "embedding"])
    Q, _dim = _batch_mat(qt, "embedding", 10)
    qids = qt["vec_id"].to_numpy(zero_copy_only=False)
    qref = ray.put((Q, qids))

    corpus = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet",
                                   columns=["vec_id", "embedding"],
                                   override_num_blocks=8)

    def edges(b: pa.Table) -> pa.Table:
        Qm, qi = ray.get(qref)
        xq, _d = _batch_mat(b, "embedding", 10)
        ids = b["vec_id"].to_numpy(zero_copy_only=False)
        if len(ids) == 0:
            return pa.table({"src": pa.array([], pa.int64()),
                             "dst": pa.array([], pa.int64())})
        dots = xq @ Qm.T
        hit = (dots >= 330000) & (ids[:, None] < qi[None, :])
        r, c = np.nonzero(hit)
        return pa.table({"src": pa.array(ids[r], pa.int64()),
                         "dst": pa.array(qi[c], pa.int64())})

    e = corpus.map_batches(edges, batch_format="pyarrow",
                           zero_copy_batch=True)
    return triangle_count(e, num_partitions=8)


def _rolling_rank_q(sf_dir: str):
    """q201: trailing-window rolling rank (stages/window.py:
    rolling_rank) — per event, how many of the previous 10 same-user
    events had strictly smaller value + the window size; bounded
    span-walk kernel, raw IEEE compares, SQL bounded self-join."""
    import ray

    from featurebox_ray.stages.window import rolling_rank

    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["user_id", "event_id", "ts",
                                        "value"])
    return rolling_rank(ev, key_col="user_id", ts_col="ts",
                        seq_col="event_id", value_col="value", k=10,
                        num_partitions=16)


def _rrf_fusion_q(sf_dir: str):
    """q203: reciprocal-rank fusion (stages/rank.py:rrf_fuse) — three
    exact global rankings of documents (chars, tokens, distinct
    tokens; negated-signal ascending row_number) fused by
    1/(60+r1)+1/(60+r2)+1/(60+r3) in fixed IEEE order; top 50."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray

    from featurebox_ray.stages.dedup import split_tokens
    from featurebox_ray.stages.partition import materialized_block_refs
    from featurebox_ray.stages.rank import (global_row_number, range_top,
                                            rrf_fuse)

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["doc_id", "text", "n_chars"])

    def sig(b: pa.Table) -> pa.Table:
        keep = pc.is_valid(b["doc_id"])
        if not pc.all(pc.fill_null(keep, False)).as_py():
            b = b.filter(keep)
        texts = pc.fill_null(b["text"].combine_chunks(), "")
        flat, off = split_tokens(texts)
        n_tok = np.diff(off).astype(np.int64)
        n_dis = np.zeros(b.num_rows, np.int64)
        if len(flat):
            codes = pc.dictionary_encode(flat).indices.to_numpy(
                zero_copy_only=False).astype(np.int64)
            row_ids = np.repeat(np.arange(b.num_rows), np.diff(off))
            v = int(codes.max()) + 1
            pair = np.unique(row_ids * v + codes)
            n_dis = np.bincount((pair // v).astype(np.int64),
                                minlength=b.num_rows).astype(np.int64)
        nc = pc.fill_null(b["n_chars"], 0).combine_chunks().cast(
            pa.int64()).to_numpy(zero_copy_only=False)
        return pa.table({
            "doc_id": b["doc_id"].combine_chunks().cast(pa.int64()),
            "__n1": pa.array(-nc), "__n2": pa.array(-n_tok),
            "__n3": pa.array(-n_dis)})

    sigs = docs.map_batches(sig, batch_format="pyarrow",
                            zero_copy_batch=True)
    refs = materialized_block_refs(sigs)

    ranks = []
    for i in (1, 2, 3):
        s = ray.data.from_arrow_refs(list(refs)).select_columns(
            ["doc_id", f"__n{i}"])
        ranks.append(global_row_number(
            s, order_cols=[f"__n{i}", "doc_id"], rank_col=f"r{i}"))
    fused = rrf_fuse(ranks, id_col="doc_id",
                     rank_cols=["r1", "r2", "r3"], k=60,
                     num_partitions=8)
    return range_top(fused, ["rrf", "doc_id"], [True, False], 50)


def _table_checksum_q(sf_dir: str):
    """q204: order-invariant table checksum (stages/profile.py:
    table_checksum) — 60-bit md5 row hashes (md5 once per distinct
    row string), commutative int sum mod 2^61-1; per-block partials,
    driver merges exact Python ints.  The queryable variant of the
    checkpoint manifests' feature hashes."""
    import ray

    from featurebox_ray.stages.profile import table_checksum

    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["event_id", "user_id",
                                        "event_type", "props"])
    return table_checksum(ev, cols=["event_id", "user_id",
                                    "event_type", "props"])


def _er_match_q(sf_dir: str):
    """q202: blocked record-linkage scoring (stages/linkage.py) —
    candidate part pairs blocked on the soundex of the last name word
    (stages/phonetic.py), scored by integer agreement weights
    (brand 3, type 2, size 2), kept at score >= 5; one block-keyed
    exchange, vectorized triangular pair scoring."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray

    from featurebox_ray.stages.linkage import blocked_pair_score
    from featurebox_ray.stages.phonetic import soundex_key

    part = ray.data.read_parquet(f"{sf_dir}/part.parquet",
                                 columns=["p_partkey", "p_name",
                                          "p_brand", "p_type",
                                          "p_size"])

    def blk(b: pa.Table) -> pa.Table:
        last = pc.replace_substring_regex(
            pc.fill_null(b["p_name"], ""), r"^.*\s", "")
        return b.append_column("blk", soundex_key(last))

    keyed = part.map_batches(blk, batch_format="pyarrow",
                             zero_copy_batch=True)
    return blocked_pair_score(keyed, key_col="blk",
                              id_col="p_partkey",
                              fields={"p_brand": 3, "p_type": 2,
                                      "p_size": 2},
                              threshold=5, max_block=4096,
                              num_partitions=8)


def _soundex_q(sf_dir: str):
    """q193: phonetic blocking keys (stages/phonetic.py) — simplified
    Soundex over part names as pure RE2 substitution chains (Arrow and
    DuckDB run the same regex program); map-only, no shuffle."""
    import ray

    from featurebox_ray.stages.phonetic import add_soundex_key

    part = ray.data.read_parquet(f"{sf_dir}/part.parquet",
                                 columns=["p_partkey", "p_name"])
    return add_soundex_key(part, name_col="p_name").select_columns(
        ["p_partkey", "soundex"])


def _novelty_curve_q(sf_dir: str):
    """q192: corpus marginal-novelty curve (stages/tfidf.py:
    novelty_curve) — per doc-id bucket, how many vocabulary terms
    first appear there + running total; term-keyed min exchange,
    driver combines tiny bucket partials."""
    import ray

    from featurebox_ray.stages.tfidf import novelty_curve

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["doc_id", "text"])
    return novelty_curve(docs, id_col="doc_id", text_col="text",
                         bucket_size=2, num_partitions=8)


def _funnel_path_q(sf_dir: str):
    """q191: 3-step sequential funnel view→click→purchase within 3
    days (stages/funnel.py:funnel_path) — greedy earliest chain, one
    keyed exchange, one masked reduceat per step; int64-exact."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray

    from featurebox_ray.stages.funnel import funnel_path

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "ts", "event_type"])

    def drop_null_keys(b: pa.Table) -> pa.Table:
        keep = pc.is_valid(b["user_id"])
        return b.filter(keep) if not pc.all(keep).as_py() else b

    ev = ev.map_batches(drop_null_keys, batch_format="pyarrow",
                        zero_copy_batch=True)
    return funnel_path(ev, key_col="user_id", ts_col="ts",
                       type_col="event_type",
                       steps=["view", "click", "purchase"],
                       horizon_s=3 * 86400, num_partitions=16)


def _pq_codes_q(sf_dir: str):
    """q190: product-quantization encoding (stages/pq.py:pq_encode) —
    4 subspaces x 16 centroids (k lowest-id vectors, half-up 2^10
    grid), integer squared distances, first-min ties; stateless
    map_batches encode, codebook broadcast via closure."""
    import ray

    from featurebox_ray.stages.pq import pq_encode

    emb = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet",
                                columns=["vec_id", "embedding"])
    return pq_encode(emb, vec_col="embedding", id_col="vec_id",
                     m=4, k=16, quant_bits=10)


def _scd2_q(sf_dir: str):
    """q189: SCD-2 validity intervals (stages/scd.py:scd2_intervals)
    — per-user event_type state runs → [valid_from, valid_to) rows;
    one keyed exchange, vectorized run-length pass, gaps-and-islands
    SQL replay."""
    import ray

    from featurebox_ray.stages.scd import scd2_intervals

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "ts", "event_id", "event_type"])
    return scd2_intervals(ev, key_col="user_id", ts_col="ts",
                          seq_col="event_id", state_col="event_type",
                          num_partitions=16)


def _attribution_q(sf_dir: str):
    """q188: linear multi-touch attribution (stages/attribution.py) —
    each positive-value purchase splits its cents across the touches
    in the preceding 7 days via largest-remainder integer division;
    one user-keyed exchange + driver combine of per-type partials."""
    import ray

    from featurebox_ray.stages.attribution import linear_attribution

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "ts", "event_id", "event_type", "value"])
    return linear_attribution(ev, key_col="user_id", ts_col="ts",
                              seq_col="event_id", type_col="event_type",
                              value_col="value", conv_type="purchase",
                              horizon=7 * 86400000000,
                              num_partitions=16)


def _pagerank_q(sf_dir: str):
    """q187: fixed-point PageRank (stages/graph.py:pagerank) over the
    part↔supplier co-purchase graph (distinct lineitem pairs, both
    directions).  Three iterations, ranks int64 in 2^-40 units, every
    update (3S)//20 + (17·Σ(r//outdeg))//20 — pure integer arithmetic,
    order-free, replayed by three chained SQL iterations."""
    import numpy as np
    import pyarrow as pa
    import ray

    from featurebox_ray.stages.graph import pagerank
    from featurebox_ray.stages.partition import partitioned_map

    li = ray.data.read_parquet(f"{sf_dir}/lineitem.parquet",
                               columns=["l_partkey", "l_suppkey"])

    def pair_partial(b: pa.Table) -> pa.Table:
        p = b["l_partkey"].to_numpy(zero_copy_only=False)
        s = b["l_suppkey"].to_numpy(zero_copy_only=False)
        u = np.unique(p * (1 << 32) + s)
        return pa.table({"__c": pa.array(u, pa.int64())})

    pairs = li.map_batches(pair_partial, batch_format="pyarrow",
                           zero_copy_batch=True)

    def edge_kernel(t: pa.Table) -> pa.Table:
        empty = pa.table({"src": pa.array([], pa.int64()),
                          "dst": pa.array([], pa.int64())})
        if t.num_rows == 0 or "__c" not in t.column_names:
            return empty
        c = np.unique(t["__c"].to_numpy(zero_copy_only=False))
        p, s = c >> 32, c & ((1 << 32) - 1)
        return pa.table({
            "src": pa.array(np.concatenate([2 * p, 2 * s + 1]),
                            pa.int64()),
            "dst": pa.array(np.concatenate([2 * s + 1, 2 * p]),
                            pa.int64())})

    edges = partitioned_map(pairs, edge_kernel, key="__c",
                            sort_keys=["__c"], num_partitions=16)
    ranks = pagerank(edges, iters=3, scale_bits=40, num_partitions=16)

    def present(b: pa.Table) -> pa.Table:
        node = b["node"].to_numpy(zero_copy_only=False)
        kind = np.where(node % 2 == 0, "part", "supplier")
        return pa.table({"kind": pa.array(kind, pa.string()),
                         "key": pa.array(node // 2, pa.int64()),
                         "rank": b["rank"]})

    return ranks.map_batches(present, batch_format="pyarrow",
                             zero_copy_batch=True)


def _theil_sen_q(sf_dir: str):
    """q186: per-user Theil–Sen robust value trend (stages/regress.py:
    group_theil_sen) — median of pairwise slopes over (epoch_us,
    value), one keyed exchange, vectorized triangular pair decode;
    every slope and the discrete-median pick replay bit-exactly."""
    import ray

    from featurebox_ray.stages.regress import group_theil_sen

    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["user_id", "ts", "value"])
    return group_theil_sen(ev, key_col="user_id", x_col="ts",
                           y_col="value", max_group=2048,
                           num_partitions=16)


def _zorder_layout_q(sf_dir: str):
    """q185: Z-order layout rank (stages/zorder.py:zorder_layout) —
    orders quantized on (o_custkey, o_orderdate-in-days) to 16-bit
    levels, Morton-interleaved, exact global rank via the
    metadata-only range-sort offsets; all arithmetic integer-exact in
    SQL.  The µs timestamp pre-scales to days so range x 2^16 stays
    inside int64 (the engine's overflow guard rejects raw µs)."""
    import pyarrow as pa
    import ray

    from featurebox_ray.stages.zorder import zorder_layout

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderdate"])

    def prep(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        days = pc.divide(b["o_orderdate"].combine_chunks().cast(
            pa.int64()), 86400000000)
        return pa.table({"o_orderkey": b["o_orderkey"],
                         "o_custkey": b["o_custkey"],
                         "o_days": days})

    orders = orders.map_batches(prep, batch_format="pyarrow",
                                zero_copy_batch=True)
    return zorder_layout(orders, x_col="o_custkey", y_col="o_days",
                         tie_cols=["o_orderkey"], bits=16,
                         num_partitions=16)


def _cdc_compact_q(sf_dir: str):
    """q184: CDC changelog compaction (stages/cdc.py:cdc_compact) —
    base snapshot = customer balances in exact cents, changelog =
    events as ordered upserts (value → cents) with 'error' rows as
    deletes, keyed on user_id*13 so the log exercises updates,
    inserts (keys past the customer range) and deletes; one
    tagged-union keyed exchange, latest-per-key by (ts, event_id)."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import numpy as np
    import ray

    from featurebox_ray.stages.cdc import cdc_compact

    base = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet",
        columns=["c_custkey", "c_name", "c_acctbal"])

    def prep_base(b: pa.Table) -> pa.Table:
        cents = np.round(b["c_acctbal"].combine_chunks().to_numpy(
            zero_copy_only=False) * 100).astype(np.int64)
        return pa.table({"key": b["c_custkey"], "name": b["c_name"],
                         "cents": pa.array(cents)})

    base = base.map_batches(prep_base, batch_format="pyarrow",
                            zero_copy_batch=True)

    log = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "ts", "event_id", "event_type", "value"])

    def prep_log(b: pa.Table) -> pa.Table:
        keep = pc.and_(pc.and_(pc.is_valid(b["user_id"]),
                               pc.is_valid(b["ts"])),
                       pc.is_valid(b["event_id"]))
        if not pc.all(keep).as_py():
            b = b.filter(keep)
        cents = np.round(pc.fill_null(
            b["value"].combine_chunks(), 0.0).to_numpy(
            zero_copy_only=False).astype(np.float64) * 100).astype(
            np.int64)
        return pa.table({
            "key": pc.multiply(b["user_id"], 13),
            "t": b["ts"].combine_chunks().cast(pa.int64()),
            "event_id": b["event_id"],
            "cents": pa.array(cents),
            "is_del": pc.fill_null(
                pc.equal(b["event_type"], "error"), False)})

    log = log.map_batches(prep_log, batch_format="pyarrow",
                          zero_copy_batch=True)
    return cdc_compact(base, log, key_col="key",
                       order_cols=["t", "event_id"], value_col="cents",
                       delete_col="is_del", payload_cols=["name"],
                       num_partitions=16)


def _order_violations_q(sf_dir: str):
    """q183: per-user timestamp-monotonicity audit (stages/profile.py:
    order_violations) — walking events in event_id order, count ts
    going backwards; one key-keyed exchange, exact counts + one
    division."""
    import ray

    from featurebox_ray.stages.profile import order_violations

    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["user_id", "event_id", "ts"])
    return order_violations(ev, key_col="user_id", seq_col="event_id",
                            ts_col="ts", num_partitions=16)


def _longest_streak_q(sf_dir: str):
    """q182: per-user longest consecutive-day activity streak
    (stages/retention.py:longest_streak) — gaps-and-islands maximum,
    one key-keyed exchange, exact run-length ints."""
    import ray

    from featurebox_ray.stages.retention import longest_streak

    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["user_id", "ts"])
    return longest_streak(ev, period="day", num_partitions=16)


def _cohort_value_q(sf_dir: str):
    """q181: weekly cohort value (LTV) curve (stages/retention.py:
    cohort_value_curve) — exact int64 cents per (cohort, offset) on
    the retention two-exchange shape."""
    import ray

    from featurebox_ray.stages.retention import cohort_value_curve

    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["user_id", "ts", "value"])
    return cohort_value_curve(ev, period="week", num_partitions=16)


def _rfm_segments_q(sf_dir: str):
    """q180: RFM behavioral segmentation (pipelines/events_features.py:
    rfm_segments) — one user-keyed combiner exchange, exact int64
    (last_ts, n, cents), three ANSI NTILE(5) passes with deterministic
    tie-breaks."""
    import ray

    from featurebox_ray.pipelines.events_features import rfm_segments

    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["user_id", "ts", "value"])
    return rfm_segments(ev, n_tiles=5, num_partitions=16)


def _ks_drift_q(sf_dir: str):
    """q179: per-event-type two-sample KS drift between the early and
    late halves of the time range (stages/regress.py:group_ks_drift)
    — run-end cumulative counts, exact int64 cross-multiplied
    maximand, one division."""
    import datetime as _dt

    import pyarrow as pa
    import pyarrow.compute as pc
    import ray

    from featurebox_ray.stages.regress import group_ks_drift

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_type", "ts", "value"])
    lohi = ev.aggregate(ray.data.aggregate.Min("ts"),
                        ray.data.aggregate.Max("ts"))

    def _us(v) -> int:
        if hasattr(v, "value"):
            return int(v.value) // 1000
        epoch = _dt.datetime(1970, 1, 1, tzinfo=v.tzinfo)
        return (v - epoch) // _dt.timedelta(microseconds=1)

    lo, hi = _us(lohi["min(ts)"]), _us(lohi["max(ts)"])
    mid = lo + (hi - lo) // 2

    def prep(b: pa.Table) -> pa.Table:
        ts = b["ts"].combine_chunks()
        ok = pc.is_valid(ts)
        t_us = pc.cast(pc.if_else(ok, ts, pa.scalar(0, ts.type)),
                       pa.int64())
        side = pc.if_else(ok, pc.cast(pc.greater(t_us, mid),
                                      pa.int64()),
                          pa.scalar(None, pa.int64()))
        return pa.table({"event_type": b["event_type"],
                         "side": side, "value": b["value"]})

    prepped = ev.map_batches(prep, batch_format="pyarrow",
                             zero_copy_batch=True)
    return group_ks_drift(prepped, key_col="event_type",
                          side_col="side", value_col="value",
                          num_partitions=8)


def _compression_ratio_q(sf_dir: str):
    """q178: per-doc zlib compression ratio (stages/text.py:
    compression_ratio_fn) — the Gopher redundancy signal; one
    deterministic C zlib call per doc.  Fixture oracle: identical
    zlib calls replayed serially."""
    import os
    import zlib

    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray

    from featurebox_ray.stages.text import compression_ratio_fn

    t = pq.read_table(f"{sf_dir}/documents.parquet",
                      columns=["doc_id", "text"])
    rows = []
    for i, v in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
        if v is None:
            rows.append((i, None, None, None))
            continue
        b = v.encode("utf-8")
        c = len(zlib.compress(b, 6))
        rows.append((i, len(b), c,
                     float(np.float64(c) / np.float64(len(b)))
                     if len(b) else None))
    os.makedirs(_ORACLE_DIR, exist_ok=True)
    pq.write_table(
        pa.table({
            "doc_id": pa.array([r[0] for r in rows], pa.int64()),
            "raw_len": pa.array([r[1] for r in rows], pa.int64()),
            "comp_len": pa.array([r[2] for r in rows], pa.int64()),
            "ratio": pa.array([r[3] for r in rows], pa.float64()),
        }), f"{_ORACLE_DIR}/comp_ratio.parquet.tmp")
    os.replace(f"{_ORACLE_DIR}/comp_ratio.parquet.tmp",
               f"{_ORACLE_DIR}/comp_ratio.parquet")

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["doc_id", "text"],
                                 override_num_blocks=32)
    return docs.map_batches(compression_ratio_fn,
                            batch_format="pyarrow",
                            zero_copy_batch=True)


def _group_top_terms_q(sf_dir: str):
    """q177: per-source top terms (stages/tfidf.py:
    top_terms_per_group) — grouped heavy hitters: composite
    (group·V+term) partial counts, one group-keyed exchange, per-group
    (cnt desc, term asc) top-k."""
    import ray

    from featurebox_ray.stages.tfidf import top_terms_per_group

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["doc_id", "source", "text"],
                                 override_num_blocks=32)
    return top_terms_per_group(docs, group_col="source", k=5,
                               num_partitions=8)


def _lexical_diversity_q(sf_dir: str):
    """q176: per-doc inverse-Simpson lexical diversity (stages/text.py:
    lexical_diversity_fn) — rational-exact type-token measure (no
    logs), one stateless vectorized pass."""
    import ray

    from featurebox_ray.stages.text import lexical_diversity_fn

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["doc_id", "text"],
                                 override_num_blocks=32)
    return docs.map_batches(lexical_diversity_fn,
                            batch_format="pyarrow",
                            zero_copy_batch=True)


def _wilson_rates_q(sf_dir: str):
    """q175: per-event-type success rate with the Wilson lower bound
    (stages/regress.py:wilson_rates) — success = value > 0; exact
    (n, k) combiner partials, one fixed IEEE expression."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray

    from featurebox_ray.stages.regress import wilson_rates

    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["event_type", "value"])

    def prep(b: pa.Table) -> pa.Table:
        v = b["value"].combine_chunks()
        # isfinite on BOTH sides: numpy NaN>0 is False while DuckDB
        # orders NaN above everything (the q151/q158 lesson)
        ok = pc.and_(pc.is_valid(v), pc.is_finite(v))
        succ = pc.if_else(ok, pc.cast(pc.greater(
            pc.fill_null(v, 0.0), 0.0), pa.int64()),
            pa.scalar(None, pa.int64()))
        return pa.table({"event_type": b["event_type"],
                         "success": succ})

    prepped = ev.map_batches(prep, batch_format="pyarrow",
                             zero_copy_batch=True)
    return wilson_rates(prepped, key_col="event_type",
                        success_col="success")


def _label_prototypes_q(sf_dir: str):
    """q174: per-label mean embeddings (stages/cohesion.py:
    label_prototypes) — half-up quantized int64 (Σxq, n) cell partials
    on one keyed exchange; mean = two exact divisions (second by a
    power of two)."""
    import ray

    from featurebox_ray.stages.cohesion import label_prototypes

    emb = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet",
                                columns=["embedding", "label"],
                                override_num_blocks=8)
    return label_prototypes(emb, quant_bits=8, num_partitions=8)


def _k_anonymity_q(sf_dir: str):
    """q173: k-anonymity audit over (source, lang, length-bucket)
    quasi-identifiers (stages/profile.py:k_anonymity) — per-block
    combo partials, one combo-keyed exchange, exact counts + below-k
    flag."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray

    from featurebox_ray.stages.profile import k_anonymity

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet",
        columns=["source", "lang", "n_chars"])

    def prep(b: pa.Table) -> pa.Table:
        lb = pc.divide(b["n_chars"].combine_chunks(), 500)
        return pa.table({"source": b["source"], "lang": b["lang"],
                         "len_bucket": pc.cast(lb, pa.int64())})

    prepped = docs.map_batches(prep, batch_format="pyarrow",
                               zero_copy_batch=True)
    return k_anonymity(prepped, cols=["source", "lang", "len_bucket"],
                       k=5, num_partitions=8)


def _rising_terms_q(sf_dir: str):
    """q172: rising-term corpus drift (stages/tfidf.py:rising_terms) —
    late-vs-early halves by doc_id midpoint, add-one-smoothed DOUBLE
    ratio ranking identical on both engines; one term-keyed exchange +
    local/global top-k."""
    import ray

    from featurebox_ray.stages.tfidf import rising_terms

    ids = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                columns=["doc_id"])
    agg = ids.aggregate(ray.data.aggregate.Min("doc_id"),
                        ray.data.aggregate.Max("doc_id"))
    mid = (int(agg["min(doc_id)"]) + int(agg["max(doc_id)"])) // 2
    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["doc_id", "text"],
                                 override_num_blocks=32)
    return rising_terms(docs, split_id=mid, k=25, num_partitions=8)


def _concurrency_q(sf_dir: str):
    """q171: concurrent-session profile per hour
    (stages/interval.py:session_concurrency) — sessionize + bounded
    window expansion collapsed to partials before one tiny
    window-keyed exchange; exact int counts."""
    import ray

    from featurebox_ray.stages.interval import session_concurrency

    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["event_id", "user_id", "ts"])
    return session_concurrency(ev, key_col="user_id", ts_col="ts",
                               id_col="event_id", gap_s=1800.0,
                               width_s=3600.0, num_partitions=16)


def _burstiness_q(sf_dir: str):
    """q170: per-user inter-arrival burstiness B = (σ−μ)/(σ+μ)
    (stages/window.py:group_burstiness) — exact int gap sums (Σg² via
    a vectorized split-word decomposition, no int64 overflow, no
    per-gap Python), one fixed IEEE float sequence; keys with <2 gaps
    NULL."""
    import ray

    from featurebox_ray.stages.window import group_burstiness

    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["event_id", "user_id", "ts"])
    return group_burstiness(ev, key_col="user_id", ts_col="ts",
                            id_col="event_id", num_partitions=16)


def _ridge_fit_q(sf_dir: str):
    """q169: distributed ridge regression of label on embedding
    (stages/regress.py:fit_ridge) — exact int64 XᵀX/Xᵀy partials on
    one cell-keyed exchange (d²-sized shuffle), driver solve; the
    fixture replays the identical arithmetic serially (bit-exact
    because the reconstructed float matrices are identical)."""
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray

    from _oracle_replays import replay_ridge
    from featurebox_ray.stages.regress import fit_ridge

    QB, YS, LN, LD = 10, 1, 1, 10

    t = pq.read_table(f"{sf_dir}/embeddings.parquet",
                      columns=["embedding", "label"])
    flat = t["embedding"].combine_chunks().flatten().to_numpy(
        zero_copy_only=False)
    X = flat.reshape(t.num_rows, -1)
    y = t["label"].to_numpy(zero_copy_only=False)
    rep = replay_ridge(X, y, quant_bits=QB, y_scale=YS, lam_num=LN,
                       lam_den=LD)
    os.makedirs(_ORACLE_DIR, exist_ok=True)
    pq.write_table(pa.table({"j": pa.array(rep["j"], pa.int64()),
                             "coef": pa.array(rep["coef"],
                                              pa.float64())}),
                   f"{_ORACLE_DIR}/ridge.parquet.tmp")
    os.replace(f"{_ORACLE_DIR}/ridge.parquet.tmp",
               f"{_ORACLE_DIR}/ridge.parquet")

    emb = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet",
                                columns=["embedding", "label"],
                                override_num_blocks=8)
    return fit_ridge(emb, lam_num=LN, lam_den=LD, quant_bits=QB,
                     y_scale=YS)


def _curate_corpus_q(sf_dir: str):
    """q168: composed corpus-curation pipeline (pipelines/cleaning.py:
    curate_corpus) — Gopher rules → temperature rebalance (α=0.5) →
    token-budget selection, every stage integer/IEEE-exact so the
    WHOLE chain replays as one SQL query of chained CTEs."""
    import ray

    from featurebox_ray.pipelines.cleaning import curate_corpus

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet",
        columns=["doc_id", "source", "text"],
        override_num_blocks=16)
    return curate_corpus(docs, min_words=5, min_stop_hits=0,
                         alpha=0.5, token_budget=10000)


def _rolling_slope_q(sf_dir: str):
    """q167: per-user trailing-10-row value trend (stages/window.py:
    rolling_slope) — exact int64 prefix-sum sufficient statistics
    (Σy, Σj·y; Σx/Σx² closed-form in m), ONE division; single-row
    windows NULL."""
    import numpy as np
    import pyarrow as pa
    import ray

    from featurebox_ray.stages.window import rolling_slope

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "ts", "value"])

    def prep(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        keep = pc.is_valid(b["value"])
        if not pc.all(keep).as_py():
            b = b.filter(keep)
        y = np.round(b["value"].to_numpy(
            zero_copy_only=False).astype(np.float64) * 100).astype(
            np.int64)
        return pa.table({"event_id": b["event_id"],
                         "user_id": b["user_id"], "ts": b["ts"],
                         "y": pa.array(y)})

    prepped = ev.map_batches(prep, batch_format="pyarrow",
                             zero_copy_batch=True)
    return rolling_slope(prepped, key_col="user_id", ts_col="ts",
                         id_col="event_id", value_col="y", k=10,
                         num_partitions=16)


def _stratified_folds_q(sf_dir: str):
    """q166: exact stratified 5-fold assignment per source
    (stages/sample.py:stratified_folds) — fold sizes within every
    group differ by ≤1 (rank-mod-K over the deterministic Knuth-hash
    order); one group-keyed exchange."""
    import ray

    from featurebox_ray.stages.sample import stratified_folds

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["doc_id", "source"])
    return stratified_folds(docs, group_col="source",
                            key_col="doc_id", n_folds=5,
                            num_partitions=8)


def _crosstab_chi2_q(sf_dir: str):
    """q165: chi-square cross-tab of documents (source × lang)
    (stages/regress.py:crosstab_chi2) — combiner count pass,
    unbounded-int margins, exact diff² and two correctly-rounded
    divisions per cell."""
    import ray

    from featurebox_ray.stages.regress import crosstab_chi2

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["source", "lang"])
    return crosstab_chi2(docs, row_col="source", col_col="lang")


def _hard_negatives_q(sf_dir: str):
    """q164: hard-negative mining (stages/ann.py:hard_negatives) —
    for every embedding, the most-similar vector with a DIFFERENT
    label (contrastive-pair miner): catalog built once per actor from
    materialized refs, one exact int64 matmul per batch with
    same-label/self masking, (dot desc, id asc) argmax."""
    import ray

    from featurebox_ray.stages.ann import hard_negatives

    emb = ray.data.read_parquet(
        f"{sf_dir}/embeddings.parquet",
        columns=["vec_id", "embedding", "label"],
        override_num_blocks=8)
    return hard_negatives(emb, quant_bits=8)


def _trimmed_mean_q(sf_dir: str):
    """q163: per-flag 10%-trimmed mean price (stages/quantile.py:
    group_trimmed_mean) — cents-quantized int64 values, exact
    ⌊n/10⌋-per-side trim via prefix sums, one double division; one
    group-keyed exchange."""
    import numpy as np
    import pyarrow as pa
    import ray

    from featurebox_ray.stages.quantile import group_trimmed_mean

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_returnflag", "l_extendedprice"])

    def prep(b: pa.Table) -> pa.Table:
        v = np.round(b["l_extendedprice"].to_numpy(
            zero_copy_only=False).astype(np.float64) * 100).astype(
            np.int64)
        return pa.table({"l_returnflag": b["l_returnflag"],
                         "v": pa.array(v)})

    prepped = li.map_batches(prep, batch_format="pyarrow",
                             zero_copy_batch=True)
    return group_trimmed_mean(prepped, group_col="l_returnflag",
                              value_col="v", trim_num=1, trim_den=10,
                              num_partitions=8)


def _weighted_quantiles_q(sf_dir: str):
    """q162: per-flag quantity-weighted price median/p90
    (stages/quantile.py:weighted_group_quantiles) — exact rational
    crossing test cumw·den ≥ num·W in int64 (no float in the
    decision); one group-keyed exchange."""
    import numpy as np
    import pyarrow as pa
    import ray

    from featurebox_ray.stages.quantile import weighted_group_quantiles

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_returnflag", "l_extendedprice", "l_quantity"])

    def prep(b: pa.Table) -> pa.Table:
        w = np.round(b["l_quantity"].to_numpy(
            zero_copy_only=False).astype(np.float64)).astype(np.int64)
        return pa.table({"l_returnflag": b["l_returnflag"],
                         "v": b["l_extendedprice"],
                         "w": pa.array(w)})

    prepped = li.map_batches(prep, batch_format="pyarrow",
                             zero_copy_batch=True)
    return weighted_group_quantiles(
        prepped, group_col="l_returnflag", value_col="v",
        weight_col="w", qs=[(1, 2), (9, 10)], num_partitions=8)


def _resample_q(sf_dir: str):
    """q161: per-user linear-interpolation resampling of event values
    onto a 6-hour grid (stages/window.py:resample_linear) — distinct-ts
    last-write-wins collapse, one key-keyed exchange, searchsorted
    neighbors, fixed-order IEEE lerp (bit-exact vs the SQL grid-join
    replay)."""
    import ray

    from featurebox_ray.stages.window import resample_linear

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "ts", "value"])
    return resample_linear(ev, key_col="user_id", ts_col="ts",
                           id_col="event_id", value_col="value",
                           step=21_600_000_000, num_partitions=16)


def _calibration_q(sf_dir: str):
    """q160: calibration / reliability table (stages/regress.py:
    calibration_bins) — pseudo-probability pred = (epoch_us % 1e6)/1e6
    vs label = (event_type = 'click'); half-up 2^10 quantized partials,
    driver combine (bins ≤ 10 — no shuffle), every float op one
    IEEE-exact division/subtract/abs."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray

    from featurebox_ray.stages.regress import calibration_bins

    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["ts", "event_type"])

    def prep(b: pa.Table) -> pa.Table:
        import numpy as np

        ts = b["ts"].combine_chunks()
        ok = pc.is_valid(ts)
        t_us = pc.cast(pc.if_else(ok, ts, pa.scalar(0, ts.type)),
                       pa.int64())
        tv = t_us.to_numpy(zero_copy_only=False)
        pred = (tv % 1000000).astype(np.float64) / 1000000.0
        lab = pc.cast(pc.equal(pc.fill_null(b["event_type"], ""),
                               "click"), pa.int64())
        return pa.table({
            "pred": pa.array(pred, pa.float64(),
                             mask=~ok.to_numpy(zero_copy_only=False)),
            "label": lab,
        })

    prepped = ev.map_batches(prep, batch_format="pyarrow",
                             zero_copy_batch=True)
    return calibration_bins(prepped, pred_col="pred",
                            label_col="label", n_bins=10,
                            quant_bits=10)


def _busy_overlap_q(sf_dir: str):
    """q159: per-user session time inside the corpus's 5 busiest hours
    (stages/interval.py:busy_window_overlap) — global hour-bucket
    counts as combiner partials, top-5 broadcast as ints, one
    user-keyed exchange sessionizing (q06 gap rule) + vectorized
    clip-sum; all int64 us, exact."""
    import ray

    from featurebox_ray.stages.interval import busy_window_overlap

    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["event_id", "user_id", "ts"])
    return busy_window_overlap(ev, key_col="user_id", ts_col="ts",
                               id_col="event_id", gap_s=1800.0,
                               width_s=3600.0, top_k=5,
                               num_partitions=16)


def _collapse_rare_q(sf_dir: str):
    """q158: rare-category collapsing (stages/encode.py:collapse_rare)
    — events bucketed to a heavy-tailed decile category
    (floor(value·10), exact both engines), every category with corpus
    count < 25 recoded to '__other__': one combiner count pass +
    broadcast kept-set + shuffle-free recode."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray

    from featurebox_ray.stages.encode import collapse_rare

    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["event_id", "value"])

    def prep(b: pa.Table) -> pa.Table:
        v = b["value"].combine_chunks()
        ok = pc.and_(pc.is_valid(v), pc.is_finite(v))
        iv = pc.cast(pc.floor(pc.multiply(
            pc.if_else(ok, v, pa.scalar(0.0)), 10.0)), pa.int64())
        cat = pc.if_else(ok, pc.cast(iv, pa.string()),
                         pa.scalar(None, pa.string()))
        return pa.table({"event_id": b["event_id"], "cat": cat})

    prepped = ev.map_batches(prep, batch_format="pyarrow",
                             zero_copy_batch=True)
    return collapse_rare(prepped, col="cat", min_count=25)


def _budget_select_q(sf_dir: str):
    """q157: token-budget corpus selection (stages/rank.py:
    budget_select) — docs ranked (n_chars desc, doc_id asc), kept
    while the exact int64 running token total stays ≤ 20000 (the
    'best docs up to a token budget' curation cut); one range sort +
    metadata-sized block offsets, blocks past the budget never
    touched."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray

    from featurebox_ray.stages.rank import budget_select

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["doc_id", "text", "n_chars"])

    def prep(b: pa.Table) -> pa.Table:
        tok = pc.count_substring_regex(
            pc.fill_null(b["text"].combine_chunks(), ""), r"\S+")
        return pa.table({"doc_id": b["doc_id"],
                         "n_chars": b["n_chars"],
                         "tok": pc.cast(tok, pa.int64())})

    prepped = docs.map_batches(prep, batch_format="pyarrow",
                               zero_copy_batch=True)
    # sort desc on (n_chars, doc_id): negate the id to keep doc_id ASC
    # as the tie-break under one descending flag
    keyed = prepped.map_batches(
        lambda b: b.append_column(
            "neg_id", pc.negate(b["doc_id"].combine_chunks())),
        batch_format="pyarrow", zero_copy_batch=True)
    out = budget_select(keyed, order_cols=["n_chars", "neg_id"],
                        cost_col="tok", budget=20000, descending=True)
    return out.drop_columns(["neg_id"])


def _gopher_rules_q(sf_dir: str):
    """q156: Gopher/C4 quality-rule filter (stages/text.py:
    gopher_quality_fn) — word/char/symbol/bullet/stopword/alpha rules
    with every ratio threshold compared as cross-multiplied integers
    (exact keep decision, zero float thresholds); one stateless
    vectorized Arrow-RE2 pass."""
    import functools

    import ray

    from featurebox_ray.stages.text import gopher_quality_fn

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["doc_id", "text"],
                                 override_num_blocks=32)
    fn = functools.partial(gopher_quality_fn, min_words=5,
                           min_stop_hits=0)
    out = docs.map_batches(fn, batch_format="pyarrow",
                           zero_copy_batch=True)
    return out.drop_columns(["text"])


def _ngram_novelty_q(sf_dir: str):
    """q155: per-document n-gram novelty (stages/substr.py:
    ngram_novelty) — fraction of a doc's distinct word 3-grams first
    seen (min doc_id) in that doc; two pre-aggregated keyed exchanges
    (gram-keyed first-of-run + doc-keyed partial sum with zero-gram
    markers).  md5 gram keys ⇒ the SQL oracle groups by the gram
    string directly."""
    import ray

    from featurebox_ray.stages.substr import ngram_novelty

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["doc_id", "text"],
                                 override_num_blocks=32)
    return ngram_novelty(docs, k=3, num_partitions=8)


def _isotonic_q(sf_dir: str):
    """q154: isotonic (PAV) calibration of P(lang='en') as a monotone
    function of document length (stages/isotonic.py) — exact int64
    (x, n, sum_y) sufficient statistics on one x-keyed exchange,
    pool-adjacent-violators on the driver with integer cross-mult mean
    comparisons; the only float is one division per pooled block.
    Fixture oracle: _oracle_replays.replay_isotonic (independent
    Fraction-based PAV), bit-exact."""
    import os

    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq
    import ray

    from _oracle_replays import replay_isotonic
    from featurebox_ray.stages.isotonic import isotonic_fit

    X_SCALE, Y_SCALE = 0.01, 1.0   # length in hundreds; y already 0/1

    t = pq.read_table(f"{sf_dir}/documents.parquet",
                      columns=["n_chars", "lang"])
    # NULL lang counts as non-en on BOTH sides (engine fill_null(''))
    ys = [float(v == "en") for v in t["lang"].to_pylist()]
    rep = replay_isotonic(
        [float(v) for v in t["n_chars"].to_pylist()], ys,
        x_scale=X_SCALE, y_scale=Y_SCALE)
    os.makedirs(_ORACLE_DIR, exist_ok=True)
    pq.write_table(
        pa.table({
            "x": pa.array(rep["x"], pa.int64()),
            "n": pa.array(rep["n"], pa.int64()),
            "sum_y": pa.array(rep["sum_y"], pa.int64()),
            "pool": pa.array(rep["pool"], pa.int64()),
            "fitted": pa.array(rep["fitted"], pa.float64()),
        }), f"{_ORACLE_DIR}/isotonic.parquet.tmp")
    os.replace(f"{_ORACLE_DIR}/isotonic.parquet.tmp",
               f"{_ORACLE_DIR}/isotonic.parquet")

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["n_chars", "lang"])

    def prep(b: pa.Table) -> pa.Table:
        return pa.table({
            "x": b["n_chars"],
            "y": pc.cast(pc.equal(pc.fill_null(b["lang"], ""), "en"),
                         pa.float64()),
        })

    prepped = docs.map_batches(prep, batch_format="pyarrow",
                               zero_copy_batch=True)
    return isotonic_fit(prepped, x_col="x", y_col="y",
                        x_scale=X_SCALE, y_scale=Y_SCALE)


def _naive_bayes_q(sf_dir: str):
    """q153: multinomial Naive Bayes language classifier (stages/nb.py)
    — the fastText-shaped corpus labeler: exact top-V vocab, ONE
    cell-keyed exchange of (slot·n_classes+class, cnt) int64 partials,
    model broadcast once, per-doc reduceat scoring + prior add +
    first-max argmax.  Fixture oracle:
    _oracle_replays.replay_multinomial_nb recomputes serially from
    Counters with the same documented reduction — BIT-EXACT."""
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray

    from _oracle_replays import replay_multinomial_nb
    from featurebox_ray.stages.nb import multinomial_nb_predict

    TOP_V, ADD_K = 256, 1.0

    # ---- serial replay fixture -----------------------------------------
    t = pq.read_table(f"{sf_dir}/documents.parquet",
                      columns=["doc_id", "text", "lang"])
    rep = replay_multinomial_nb(
        t["doc_id"].to_pylist(), t["text"].to_pylist(),
        t["lang"].to_pylist(), top_v=TOP_V, add_k=ADD_K)
    os.makedirs(_ORACLE_DIR, exist_ok=True)
    pq.write_table(
        pa.table({
            "doc_id": pa.array(rep["doc_id"], pa.int64()),
            "n_tokens": pa.array(rep["n_tokens"], pa.int64()),
            "pred": pa.array(rep["pred"], pa.string()),
            "logprob": pa.array(rep["logprob"], pa.float64()),
        }), f"{_ORACLE_DIR}/naive_bayes.parquet.tmp")
    os.replace(f"{_ORACLE_DIR}/naive_bayes.parquet.tmp",
               f"{_ORACLE_DIR}/naive_bayes.parquet")

    # ---- distributed engine run ----------------------------------------
    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["doc_id", "text", "lang"],
                                 override_num_blocks=32)
    return multinomial_nb_predict(docs, top_v=TOP_V, add_k=ADD_K)


def _skipgram_pairs_q(sf_dir: str):
    """q152: top-k skip-gram co-occurrence pairs within a ±3 window
    (stages/tfidf.py:skipgram_pairs) — the word2vec/PMI context-window
    statistic as one vectorized per-distance pair emit + the shared
    exact heavy-hitters exchange; the shuffle moves distinct pairs per
    block, never tokens."""
    import ray

    from featurebox_ray.stages.tfidf import skipgram_pairs

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["doc_id", "text"],
                                 override_num_blocks=32)
    return skipgram_pairs(docs, window=3, k=25, num_partitions=8)


def _ecdf_encode_q(sf_dir: str):
    """q151: reference-distribution ECDF / percentile encoding
    (stages/encode.py:ecdf_encode) — events in the later half of the
    time range are scored against the earlier half's per-type value
    distribution (train-time calibration / drift feature): one tiny
    min/max aggregate picks the integer-us midpoint, the reference
    half reduces to per-type sorted arrays built once per actor, the
    query half streams through one searchsorted per batch.  Exact
    int counts; pct = one double division."""
    import ray

    from featurebox_ray.stages.encode import ecdf_encode

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "ts", "event_type", "value"])
    import datetime as _dt

    lohi = ev.aggregate(ray.data.aggregate.Min("ts"),
                        ray.data.aggregate.Max("ts"))

    def _us(v) -> int:
        if hasattr(v, "value"):           # pandas Timestamp (ns)
            return int(v.value) // 1000
        epoch = _dt.datetime(1970, 1, 1, tzinfo=v.tzinfo)
        return (v - epoch) // _dt.timedelta(microseconds=1)

    lo, hi = _us(lohi["min(ts)"]), _us(lohi["max(ts)"])
    mid = lo + (hi - lo) // 2

    import pyarrow.compute as pc

    def ts_us(b):
        return pc.cast(b["ts"].combine_chunks(), "int64")

    ref = ev.map_batches(
        lambda b: b.filter(pc.and_(pc.is_valid(b["ts"]),
                                   pc.less_equal(ts_us(b), mid))),
        batch_format="pyarrow", zero_copy_batch=True).select_columns(
        ["event_type", "value"])
    qry = ev.map_batches(
        lambda b: b.filter(pc.and_(pc.is_valid(b["ts"]),
                                   pc.greater(ts_us(b), mid))),
        batch_format="pyarrow", zero_copy_batch=True).select_columns(
        ["event_id", "event_type", "value"])
    return ecdf_encode(qry, ref, group_col="event_type",
                       value_col="value")


def _temperature_mix_q(sf_dir: str):
    """q150: temperature-scaled corpus rebalancing
    (stages/sample.py:temperature_rebalance) — per-source keep rate
    min(1, (n_min/n_src)^0.5), the XLM-R-style share∝p^α mixing rule:
    one tiny count aggregate + one shuffle-free Knuth-hash filter;
    alpha=0.5 is a chain of IEEE sqrt so the threshold arithmetic is
    bit-identical to the DuckDB replay."""
    import ray

    from featurebox_ray.stages.sample import temperature_rebalance

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["doc_id", "source", "lang"])
    return temperature_rebalance(docs, group_col="source",
                                 key_col="doc_id", alpha=0.5)


def _group_gini_q(sf_dir: str):
    """q138: per-user Gini diversity of the event-type mix —
    distinct-tuple count partials, ONE user-keyed exchange, reduceat
    kernel (stages/profile.py:group_gini); the rational-arithmetic
    stand-in for entropy, HUGEINT SQL replay bit-exact."""
    import ray

    from featurebox_ray.stages.profile import group_gini

    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["user_id", "event_type"])
    return group_gini(ev, group_col="user_id", value_col="event_type")


def _line_dedup_q(sf_dir: str):
    """q139: corpus line-level boilerplate removal (the CCNet/Dolma
    paragraph-dedup recipe, stages/lines.py): documents split into
    lines (here: a 5-word RE2 rewrite inserts the separators — Arrow
    and DuckDB are both RE2, so the derived corpus is identical), lines
    occurring in >= 2 distinct docs dropped, docs reassembled in order
    with one vectorized binary_join pass per partition.  Two keyed
    exchanges (line-keyed distinct-doc count, doc-keyed render), corpus
    scanned once."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray

    from featurebox_ray.stages.lines import remove_duplicate_lines

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["doc_id", "text"])

    def to_lines(b: pa.Table) -> pa.Table:
        lt = pc.replace_substring_regex(
            b["text"].combine_chunks(),
            pattern=r"((?:\S+ ){4}\S+) ", replacement="\\1\n")
        return pa.table({"doc_id": b["doc_id"], "text": lt})

    lined = docs.map_batches(to_lines, batch_format="pyarrow",
                             zero_copy_batch=True)
    return remove_duplicate_lines(lined, id_col="doc_id",
                                  text_col="text", min_docs=2,
                                  num_partitions=16)


def _forward_fill_q(sf_dir: str):
    """q140: per-user forward fill (LOCF imputation,
    stages/window.py:add_forward_fill) — a numeric and a string signal
    are deterministically gapped (value NULL on clicks, props NULL on
    views), then each NULL takes the latest preceding non-NULL of its
    user under (ts, event_id) order: one keyed exchange, one
    maximum.accumulate over last-valid indices per column, a single
    take per column (values pass through untouched, so the SQL
    last_value IGNORE NULLS replay is bit-exact)."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray

    from featurebox_ray.stages.window import add_forward_fill

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "ts", "user_id", "event_type", "value",
                 "props"])

    def mask(b: pa.Table) -> pa.Table:
        et = b["event_type"].combine_chunks()
        n = b.num_rows
        return pa.table({
            "event_id": b["event_id"],
            "ts": b["ts"],
            "user_id": b["user_id"],
            "v_gap": pc.if_else(pc.equal(et, "click"),
                                pa.nulls(n, pa.float64()),
                                b["value"].combine_chunks()),
            "p_gap": pc.if_else(pc.equal(et, "view"),
                                pa.nulls(n, pa.string()),
                                b["props"].combine_chunks()),
        })

    masked = ev.map_batches(mask, batch_format="pyarrow",
                            zero_copy_batch=True)
    out = add_forward_fill(masked, key_col="user_id", ts_col="ts",
                           order_col="event_id",
                           value_cols=["v_gap", "p_gap"],
                           num_partitions=16)
    return out.select_columns(
        ["event_id", "user_id", "v_gap_ffill", "p_gap_ffill"])


def _rolling_distinct_q(sf_dir: str):
    """q141: trailing distinct event types per user
    (stages/window.py:add_rolling_distinct) — behavioral-diversity
    feature.  O(n) per partition via the next-occurrence interval
    trick (one lexsort + one difference-array cumsum serves every
    row), never O(n·window); exact int64, SQL count(DISTINCT) OVER
    replay."""
    import ray

    from featurebox_ray.stages.window import add_rolling_distinct

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "ts", "user_id", "event_type"])
    out = add_rolling_distinct(ev, key_col="user_id", ts_col="ts",
                               order_col="event_id",
                               value_col="event_type", window=7,
                               num_partitions=16)
    return out.select_columns(["event_id", "user_id",
                               "rolling_distinct"])


def _collocation_pmi_q(sf_dir: str):
    """q142: top-k collocations by rational PMI (c_xy·N / (c_x·c_y), the
    PMI argument before the monotone log — same ranking, bit-exact SQL
    replay): one corpus scan emits tagged unigram+bigram partials, one
    term-keyed exchange each, min_count-pruned unigram table broadcast
    once, score = ONE IEEE division of exact int64 products
    (stages/tfidf.py:collocation_pmi)."""
    import ray

    from featurebox_ray.stages.tfidf import collocation_pmi

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["doc_id", "text"])
    return collocation_pmi(docs, min_count=5, k=25, num_partitions=8)


def _ab_test_q(sf_dir: str):
    """q143: per-event-type Welch two-sample t statistic (A/B-test
    eval, stages/regress.py:group_ab_test) — users hash-split into
    arms by parity, spend compared in exact int64 cents: per-block
    (n, Σy, Σy²)-per-side partials, one group-keyed exchange,
    Python-int combine, fixed float64 op sequence (HUGEINT SQL
    replay bit-exact; degenerate arms NULL out on both sides)."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray

    from featurebox_ray.stages.regress import group_ab_test

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_type", "user_id", "value"])

    def prep(b: pa.Table) -> pa.Table:
        b = b.filter(pc.and_(pc.and_(pc.is_valid(b["value"]),
                                     pc.is_valid(b["user_id"])),
                             pc.is_valid(b["event_type"])))
        u = b["user_id"].combine_chunks().to_numpy(zero_copy_only=False)
        y = np.round(b["value"].combine_chunks().to_numpy(
            zero_copy_only=False) * 100.0).astype(np.int64)
        return pa.table({"event_type": b["event_type"],
                         "side": pa.array(u % 2, pa.int64()),
                         "y": pa.array(y)})

    prepped = ev.map_batches(prep, batch_format="pyarrow",
                             zero_copy_batch=True)
    return group_ab_test(prepped, key_col="event_type", side_col="side",
                         treat_value=0, y_col="y")


def _balance_corpus_q(sf_dir: str):
    """q144: corpus rebalancing — cap every language at the SMALLEST
    language's document count (equal-representation downsample), the
    min discovered with one tiny column-pruned, lang-keyed count
    exchange (``partition.group_count`` per gather; a NULL lang is a
    language of its own) and the cap applied by the deterministic
    hash-order cap_per_group (pure function of ids: stable across runs,
    partitionings and cluster sizes — stages/sample.py)."""
    import ray

    from featurebox_ray.stages.partition import group_count, partitioned_map
    from featurebox_ray.stages.sample import cap_per_group

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["doc_id", "lang"])
    counts = partitioned_map(ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["lang"]),
        lambda t: group_count(t, ["lang"]), key="lang",
        sort_keys=[]).take_all()
    m = min(int(r["count_all"]) for r in counts)
    return cap_per_group(docs, group_col="lang", id_col="doc_id", m=m)


def _knn_join_q(sf_dir: str):
    """q145: large-large kNN join (stages/knn.py) — embeddings split
    into a query batch (odd ids) and a catalog (even ids), neither
    side broadcast: deterministic first-C centroids, one bucket-keyed
    exchange (right rows ship once, left ×n_probe), exact int64 dots,
    candidate-sized merge exchange.  Pure function of the inputs, so
    the serial replay fixture is bit-identical."""
    import os

    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray

    from _oracle_replays import replay_knn_join
    from featurebox_ray.stages.knn import knn_join

    K, NC, NP, QB = 3, 8, 2, 10

    # ---- serial replay fixture (independent recompute) -----------------
    t = pq.read_table(f"{sf_dir}/embeddings.parquet",
                      columns=["vec_id", "embedding"])
    ids = t["vec_id"].to_numpy(zero_copy_only=False)
    arr = t["embedding"].combine_chunks()
    vecs = arr.flatten().to_numpy(zero_copy_only=False).reshape(
        len(arr), -1)
    odd = ids % 2 == 1
    l_id, rk, r_id, dot = replay_knn_join(
        ids[odd], vecs[odd], ids[~odd], vecs[~odd],
        k=K, n_centroids=NC, n_probe=NP, quant_bits=QB)
    os.makedirs(_ORACLE_DIR, exist_ok=True)
    pq.write_table(pa.table({
        "left_id": pa.array(l_id), "rank": pa.array(rk),
        "right_id": pa.array(r_id), "dot": pa.array(dot),
    }), f"{_ORACLE_DIR}/knn_join.parquet.tmp")
    os.replace(f"{_ORACLE_DIR}/knn_join.parquet.tmp",
               f"{_ORACLE_DIR}/knn_join.parquet")

    # ---- distributed engine run ----------------------------------------
    emb = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet",
                                columns=["vec_id", "embedding"])

    def _parity(want: int):
        def fn(b: pa.Table) -> pa.Table:
            m = (b["vec_id"].to_numpy(zero_copy_only=False) % 2) == want
            return b.filter(pa.array(m))
        return fn

    left = emb.map_batches(_parity(1), batch_format="pyarrow",
                           zero_copy_batch=True)
    right = emb.map_batches(_parity(0), batch_format="pyarrow",
                            zero_copy_batch=True)
    return knn_join(left, right, k=K, n_centroids=NC, n_probe=NP,
                    quant_bits=QB, num_partitions=8)


def _keep_best_dedup_q(sf_dir: str):
    """q146: canonical dedup keeping the BEST duplicate — normalize
    (q94 recipe) then keep the LONGEST raw text per canonical form
    (max n_chars, ties min doc_id): the curation keep rule
    (stages/dedup.py:keep_best_dedup — one text-keyed exchange, sort +
    first-of-run, descending score as a negated sort column)."""
    import ray

    from featurebox_ray.stages.dedup import keep_best_dedup
    from featurebox_ray.stages.text import normalize_text

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["doc_id", "text", "n_chars"])
    canon = normalize_text(docs, text_col="text", out_col="norm_text")
    out = keep_best_dedup(canon, text_col="norm_text", id_col="doc_id",
                          score_col="n_chars", num_partitions=8)
    return out.select_columns(["doc_id", "norm_text", "n_chars"])


def _latest_event_q(sf_dir: str):
    """q147: latest full event per user (argmax with payload,
    stages/rank.py:last_row_per_key) — one keyed exchange, last-of-run
    mask per sorted partition; every column rides along untouched so
    doubles and strings replay bit-exactly."""
    import ray

    from featurebox_ray.stages.rank import last_row_per_key

    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet")
    return last_row_per_key(ev, key_col="user_id",
                            order_cols=["ts", "event_id"],
                            num_partitions=16)


def _vocab_overlap_q(sf_dir: str):
    """q148: pairwise vocabulary Jaccard between sources — the corpus-
    similarity matrix (stages/tfidf.py:vocab_overlap): blocks collapse
    to distinct (token, source) pairs, one token-keyed exchange
    finishes the dedup and expands sorted group runs to pairs (q128
    gather), tiny partial combine; Jaccard = one IEEE division of
    exact int64 counts."""
    import ray

    from featurebox_ray.stages.tfidf import vocab_overlap

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["source", "text"])
    return vocab_overlap(docs, group_col="source", text_col="text",
                         num_partitions=8)


def _diversified_topk_q(sf_dir: str):
    """q149: diversified global top-k — the 20 longest documents with
    at most 3 per source (stages/rank.py:diversified_topk): streaming
    per-block per-group top-m partials, one tiny group-keyed exchange,
    final sort.limit over groups×m survivors; ties to the smaller id
    everywhere so the LIMIT boundary is deterministic."""
    import ray

    from featurebox_ray.stages.rank import diversified_topk

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["doc_id", "source",
                                          "n_chars"])
    return diversified_topk(docs, group_col="source", id_col="doc_id",
                            score_col="n_chars", m=3, k=20,
                            num_partitions=8)


def _snm_neardup_q(sf_dir: str):
    """q137: sorted-neighborhood near-dup — length-ordered global rank
    (rank.global_row_number), rank-band bucket exchange, exact
    distinct-token Jaccard within a 10-wide window (stages/snm.py);
    integer cross-multiply threshold, DuckDB window + self-join replay
    is bit-exact."""
    import ray

    from featurebox_ray.stages.snm import snm_neardup

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["doc_id", "text", "n_chars"])
    return snm_neardup(docs, id_col="doc_id", text_col="text",
                       sort_cols=["n_chars"], window=10, tau100=60)


def _target_encode_q(sf_dir: str):
    """q136: leakage-safe K-fold target encoding of supplier id by
    line price (cents) — per-block (cat, fold) int64 partials, ONE
    category-keyed exchange, fold = knuth_hash(l_orderkey) % 5
    (stages/encode.py:oof_target_encode); HUGEINT SQL replay is
    bit-exact (double(int)/double(int)).  Reference analog: sklearn
    cross_val fold exclusion (selection/quickmethod.py:310) as a
    feature stage."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray

    from featurebox_ray.stages.encode import oof_target_encode

    li = ray.data.read_parquet(f"{sf_dir}/lineitem.parquet",
                               columns=["l_orderkey", "l_suppkey",
                                        "l_extendedprice"])

    def prep(b: pa.Table) -> pa.Table:
        v = b["l_extendedprice"].combine_chunks()
        cents = np.round(np.nan_to_num(
            v.to_numpy(zero_copy_only=False)) * 100).astype(np.int64)
        t = pa.array(cents, pa.int64(), mask=np.asarray(pc.is_null(v)))
        return pa.table({"l_orderkey": b["l_orderkey"],
                         "l_suppkey": b["l_suppkey"], "t": t})

    return oof_target_encode(
        li.map_batches(prep, batch_format="pyarrow",
                       zero_copy_batch=True),
        cat_col="l_suppkey", fold_key_col="l_orderkey",
        target_col="t", n_folds=5)


def _drawdown_q(sf_dir: str):
    """q135: per-user running maximum drawdown of net spend (cents,
    signed by event type: purchases add, errors subtract) — the CUSUM
    prefix trick with a running MAX (stages/window.py:add_drawdown);
    int64-exact, two-window SQL replay."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray

    from featurebox_ray.stages.window import add_drawdown

    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["event_id", "user_id", "ts",
                                        "event_type", "value"])

    def quant(b: pa.Table) -> pa.Table:
        v = b["value"].combine_chunks()
        cents = np.round(np.nan_to_num(
            v.to_numpy(zero_copy_only=False)) * 100).astype(np.int64)
        sign = np.where(np.asarray(
            pc.fill_null(pc.equal(b["event_type"], "error"), False)),
            -1, 1)
        vc = pa.array(cents * sign, pa.int64(),
                      mask=np.asarray(pc.is_null(v)))
        return (b.select(["event_id", "user_id", "ts"])
                .append_column("net_c", vc))

    out = add_drawdown(ev.map_batches(quant, batch_format="pyarrow",
                                      zero_copy_batch=True),
                       key_col="user_id", ts_col="ts",
                       int_value_col="net_c", order_col="event_id",
                       num_partitions=8)
    return out.select_columns(["event_id", "drawdown"])


def _incremental_neardup_q(sf_dir: str):
    """q134: incremental near-dup — which NEW docs (odd doc_id) near-
    duplicate the EXISTING corpus (even doc_id).  Same MinHash+LSH plan
    and recall contract as q22, with the candidate-pair predicate
    dropping same-side pairs BEFORE the verification exchange
    (stages/dedup.py:incremental_neardup); the oracle is the q22
    all-pairs exact-Jaccard restricted to cross-side pairs."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray

    from featurebox_ray.stages.dedup import incremental_neardup

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["doc_id", "text"])

    def even(b: pa.Table) -> pa.Table:
        import numpy as np
        ids = b["doc_id"].to_numpy(zero_copy_only=False)
        return b.filter(pa.array(ids % 2 == 0))

    def odd(b: pa.Table) -> pa.Table:
        import numpy as np
        ids = b["doc_id"].to_numpy(zero_copy_only=False)
        return b.filter(pa.array(ids % 2 == 1))

    old = docs.map_batches(even, batch_format="pyarrow",
                           zero_copy_batch=True)
    new = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                columns=["doc_id", "text"]
                                ).map_batches(odd,
                                              batch_format="pyarrow",
                                              zero_copy_batch=True)
    return incremental_neardup(old, new,
                               side_fn=lambda a: a % 2 == 1,
                               jaccard_threshold=0.8)


def _category_drift_q(sf_dir: str):
    """q133: categorical distribution drift of document `source`
    between the corpus and its next version (doc_id % 17 != 0, the
    q120 retention rule) — one value-keyed exchange of per-block count
    partials, tiny driver totals, exact counts + one IEEE division per
    share (stages/diff.py:category_drift)."""
    import pyarrow.compute as pc
    import ray

    from featurebox_ray.stages.diff import category_drift

    old = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                columns=["doc_id", "source"])
    new = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                columns=["doc_id", "source"])

    import numpy as np
    import pyarrow as pa

    def keep(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_numpy(zero_copy_only=False)
        return b.filter(pa.array(ids % 17 != 0))

    new = new.map_batches(keep, batch_format="pyarrow",
                          zero_copy_batch=True)
    return category_drift(old, new, col="source", num_partitions=4)


def _group_spearman_q(sf_dir: str):
    """q132: per-event-type Spearman rank correlation between time of
    day (epoch hour-of-day) and spend (cents) — tie-averaged ranks as
    exact integers (the q122 2·min_rank + ties − 1 trick on BOTH
    columns), vectorized rank stats, one keyed exchange
    (stages/regress.py:group_spearman); rank()/count() window SQL
    replay is bit-exact (never a float ranking)."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray

    from featurebox_ray.stages.regress import group_spearman

    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["event_type", "ts", "value"])

    def prep(b: pa.Table) -> pa.Table:
        ts = b["ts"].combine_chunks()
        ts_i = ts.cast(pa.int64()).to_numpy(zero_copy_only=False)
        # DuckDB // truncates toward zero and % keeps the sign; numpy
        # floors — match explicitly so pre-epoch timestamps agree
        h = np.where(ts_i >= 0, ts_i // 3_600_000_000,
                     -((-ts_i) // 3_600_000_000))
        hod_v = np.where(h >= 0, h % 24, -((-h) % 24))
        hod = pa.array(hod_v, pa.int64(),
                       mask=np.asarray(pc.is_null(ts)))
        v = b["value"].combine_chunks()
        cents = np.round(np.nan_to_num(
            v.to_numpy(zero_copy_only=False)) * 100).astype(np.int64)
        y = pa.array(cents, pa.int64(), mask=np.asarray(pc.is_null(v)))
        return pa.table({"event_type": b["event_type"], "x": hod,
                         "y": y})

    return group_spearman(ev.map_batches(prep, batch_format="pyarrow",
                                         zero_copy_batch=True),
                          key_col="event_type", x_col="x", y_col="y",
                          num_partitions=8)


def _mmr_select_q(sf_dir: str):
    """q131: MMR diverse top-10 — relevance via one streaming integer
    matmul (query broadcast once, per-block partial top-pool carrying
    quantized vectors), driver-side integer greedy over the tiny pool
    (stages/ann.py:mmr_select).  Greedy selection is recursive (not
    SQL); the fixture replays the identical integer arithmetic
    serially — bit-exact."""
    import os

    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray

    from _oracle_replays import replay_mmr
    from featurebox_ray.stages.ann import mmr_select

    K, POOL, LAM, DEN, QB = 10, 64, 5, 10, 8

    t = pq.read_table(f"{sf_dir}/embeddings.parquet",
                      columns=["vec_id", "embedding"])
    ids = t["vec_id"].to_numpy(zero_copy_only=False)
    flat = t["embedding"].combine_chunks().flatten().to_numpy(
        zero_copy_only=False)
    dims = len(flat) // len(ids)
    V = flat.reshape(len(ids), dims).astype(np.float64)
    # query = the vector with the smallest id (deterministic)
    Q = V[np.argmin(ids)]

    # ---- serial replay fixture -----------------------------------------
    rep = replay_mmr(V, ids, Q, k=K, pool_m=POOL, lambda_num=LAM,
                     lambda_den=DEN, quant_bits=QB)
    os.makedirs(_ORACLE_DIR, exist_ok=True)
    pq.write_table(pa.table({
        "rank": pa.array(rep["rank"], pa.int64()),
        "vec_id": pa.array(rep["vec_id"], pa.int64()),
        "rel": pa.array(rep["rel"], pa.int64()),
        "score": pa.array(rep["score"], pa.int64()),
    }), f"{_ORACLE_DIR}/mmr.parquet.tmp")
    os.replace(f"{_ORACLE_DIR}/mmr.parquet.tmp",
               f"{_ORACLE_DIR}/mmr.parquet")

    # ---- distributed engine run ----------------------------------------
    corpus = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet",
                                   columns=["vec_id", "embedding"],
                                   override_num_blocks=8)
    return mmr_select(corpus, Q, k=K, pool_m=POOL, lambda_num=LAM,
                      lambda_den=DEN, quant_bits=QB)


def _time_weighted_avg_q(sf_dir: str):
    """q130: per-user time-weighted average spend (cents held until the
    next event) — telescoping-bounded exact int64 numerator (|Σ v·gap|
    ≤ max|v|·span, guarded), one keyed exchange, one IEEE division
    (stages/window.py:time_weighted_avg); lead() window SQL replay is
    bit-exact."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray

    from featurebox_ray.stages.window import time_weighted_avg

    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["event_id", "user_id", "ts",
                                        "value"])

    def quant(b: pa.Table) -> pa.Table:
        v = b["value"].combine_chunks()
        cents = np.round(np.nan_to_num(
            v.to_numpy(zero_copy_only=False)) * 100).astype(np.int64)
        vc = pa.array(cents, pa.int64(), mask=np.asarray(pc.is_null(v)))
        return (b.select(["event_id", "user_id", "ts"])
                .append_column("value_c", vc))

    return time_weighted_avg(
        ev.map_batches(quant, batch_format="pyarrow",
                       zero_copy_batch=True),
        key_col="user_id", ts_col="ts", int_value_col="value_c",
        order_col="event_id", num_partitions=8)


def _session_journeys_q(sf_dir: str):
    """q129: top-15 most common session type-sequences ("user
    journeys") — one user-keyed exchange sessionizes (q06 rule) and
    renders each session's ordered type chain with one list-offsets +
    binary_join pass, then the exact heavy-hitters exchange picks the
    global top-k (stages/transitions.py:top_session_journeys)."""
    import ray

    from featurebox_ray.stages.transitions import top_session_journeys

    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["event_id", "user_id", "ts",
                                        "event_type"])
    return top_session_journeys(ev, key_col="user_id", ts_col="ts",
                                type_col="event_type",
                                order_col="event_id", gap_s=GAP_S,
                                k=15, num_partitions=8)


def _session_cooccurrence_q(sf_dir: str):
    """q128: within-session event-type co-occurrence pairs (30-min gap
    sessions, the q06 rule) — one user-keyed exchange sessionizes and
    expands each session's sorted distinct-type set to unordered pairs,
    a tiny second exchange sums counts
    (stages/transitions.py:session_cooccurrence); exact int64."""
    import ray

    from featurebox_ray.stages.transitions import session_cooccurrence

    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["event_id", "user_id", "ts",
                                        "event_type"])
    return session_cooccurrence(ev, key_col="user_id", ts_col="ts",
                                type_col="event_type",
                                order_col="event_id", gap_s=GAP_S,
                                num_partitions=8)


def _semantic_decontam_q(sf_dir: str):
    """q127: semantic decontamination — every corpus vector whose
    quantized integer dot product with a benchmark vector (vec_id % 50
    == 0, the small broadcast side) clears a threshold
    (stages/ann.py:threshold_similarity_join).  Half-up floor
    quantization + exact int64 dot products; HUGEINT SQL replay is
    bit-exact."""
    import numpy as np
    import pyarrow.parquet as pq
    import ray

    from featurebox_ray.stages.ann import threshold_similarity_join

    qt = pq.read_table(f"{sf_dir}/embeddings.parquet",
                       columns=["vec_id", "embedding"])
    ids = qt["vec_id"].to_numpy(zero_copy_only=False)
    sel = np.flatnonzero(ids % 50 == 0)
    flat = qt["embedding"].combine_chunks().flatten().to_numpy(
        zero_copy_only=False)
    dims = len(flat) // len(ids)
    Q = flat.reshape(len(ids), dims)[sel].astype(np.float64)

    corpus = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet",
                                   columns=["vec_id", "embedding"],
                                   override_num_blocks=8)
    return threshold_similarity_join(
        corpus, Q, threshold_num=30000, quant_bits=8,
        query_ids=ids[sel].astype(np.int64))


def _cusum_q(sf_dir: str):
    """q126: per-user one-sided CUSUM drift statistic over spend
    (cents, drift allowance 250.00) — the sequential-looking recurrence
    s_t = max(0, s_{t-1} + v − k) collapsed to a segment cumsum + a
    grouped running min (stages/window.py:add_cusum); int64-exact, SQL
    replays it with two window aggregates bit-identically."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray

    from featurebox_ray.stages.window import add_cusum

    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["event_id", "user_id", "ts",
                                        "value"])

    def quant(b: pa.Table) -> pa.Table:
        v = b["value"].combine_chunks()
        cents = np.round(np.nan_to_num(
            v.to_numpy(zero_copy_only=False)) * 100).astype(np.int64)
        vc = pa.array(cents, pa.int64(), mask=np.asarray(pc.is_null(v)))
        return (b.select(["event_id", "user_id", "ts"])
                .append_column("value_c", vc))

    out = add_cusum(ev.map_batches(quant, batch_format="pyarrow",
                                   zero_copy_batch=True),
                    key_col="user_id", ts_col="ts",
                    int_value_col="value_c", order_col="event_id",
                    drift_k=25000, num_partitions=8)
    return out.select_columns(["event_id", "cusum"])


def _throttle_q(sf_dir: str):
    """q125: chained min-interval throttle (true debounce) — per user,
    keep the first event then the next ≥10 min after the LAST KEPT one
    (stages/sample.py:throttle_min_interval).  Inherently sequential
    state no SQL window expresses (lag measures the previous RAW row);
    the oracle is a serial greedy replay fixture.  The engine kernel
    jumps with one scalar searchsorted per KEPT row (output-sized)."""
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray

    from featurebox_ray.stages.sample import throttle_min_interval

    GAP_S_ = 600

    # ---- serial greedy replay fixture -----------------------------------
    t = pq.read_table(f"{sf_dir}/events.parquet",
                      columns=["user_id", "ts", "event_id"])
    # the engine keeps NULL keys as ONE group; this serial replay does
    # not model that, so fail loudly if the data ever gains one rather
    # than silently diverging from the engine
    if t["user_id"].null_count:
        raise AssertionError("q125 fixture assumes non-null user_id; "
                             "extend the replay for null-key grouping")
    rows = sorted(
        (u, s, i) for u, s, i in zip(
            t["user_id"].to_pylist(),
            t["ts"].cast(pa.int64()).to_pylist(),
            t["event_id"].to_pylist())
        if s is not None)
    kept, last = [], {}
    for u, s, i in rows:
        if u not in last or s >= last[u] + GAP_S_ * 1_000_000:
            kept.append((u, i, s))
            last[u] = s
    os.makedirs(_ORACLE_DIR, exist_ok=True)
    rep = pa.table({
        "user_id": pa.array([r[0] for r in kept], pa.int64()),
        "event_id": pa.array([r[1] for r in kept], pa.int64()),
        "ts": pa.array([r[2] for r in kept],
                       pa.int64()).cast(pa.timestamp("us")),
    })
    pq.write_table(rep, f"{_ORACLE_DIR}/throttle.parquet.tmp")
    os.replace(f"{_ORACLE_DIR}/throttle.parquet.tmp",
               f"{_ORACLE_DIR}/throttle.parquet")

    # ---- distributed engine run ------------------------------------------
    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["user_id", "ts", "event_id"])
    return throttle_min_interval(ev, key_col="user_id", ts_col="ts",
                                 min_gap=GAP_S_, id_col="event_id",
                                 num_partitions=8)


def _weighted_stats_q(sf_dir: str):
    """q124: per-event-type importance-weighted mean/variance of spend
    (cents) under deterministic weights — int64 (n, Σw, Σwy, Σwy²)
    partials, one exchange, Python-int combine, fixed float64 op
    sequence (stages/regress.py:group_weighted_stats); HUGEINT SQL
    replay is bit-exact."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray

    from featurebox_ray.stages.regress import group_weighted_stats

    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["event_id", "event_type",
                                        "value"])

    def prep(b: pa.Table) -> pa.Table:
        v = b["value"].combine_chunks()
        cents = np.round(np.nan_to_num(
            v.to_numpy(zero_copy_only=False)) * 100).astype(np.int64)
        y = pa.array(cents, pa.int64(), mask=np.asarray(pc.is_null(v)))
        eid = b["event_id"].combine_chunks()
        w = pa.array(
            1 + eid.to_numpy(zero_copy_only=False) % 5, pa.int64(),
            mask=np.asarray(pc.is_null(eid)))
        return pa.table({"event_type": b["event_type"], "y": y, "w": w})

    return group_weighted_stats(
        ev.map_batches(prep, batch_format="pyarrow",
                       zero_copy_batch=True),
        key_col="event_type", y_col="y", w_col="w")


def _lift_table_q(sf_dir: str):
    """q123: decile lift/gains table — rank every event by spend
    (desc, id-tiebroken), cut into 10 global deciles, count positives
    (purchases) and sum spend per decile.  A composition of existing
    primitives: rank.global_row_number (range sort + content-ordered
    block offsets) → streaming decile partials → tiny int64 group sum.
    All-integer outputs, exact SQL window replay."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray

    from featurebox_ray.stages.partition import each_group, partitioned_map
    from featurebox_ray.stages.rank import global_row_number

    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["event_id", "event_type",
                                        "value"])

    def prep(b: pa.Table) -> pa.Table:
        b = b.filter(pc.and_(pc.and_(pc.is_valid(b["value"]),
                                     pc.is_valid(b["event_type"])),
                             pc.is_valid(b["event_id"])))
        v = b["value"].combine_chunks()
        cents = np.round(
            v.to_numpy(zero_copy_only=False) * 100).astype(np.int64)
        return pa.table({
            "event_id": b["event_id"],
            "s": pa.array(cents, pa.int64()),
            "y": pc.equal(b["event_type"], "purchase").cast(pa.int64()),
        })

    prepped = ev.map_batches(prep, batch_format="pyarrow",
                             zero_copy_batch=True)
    ranked = global_row_number(prepped, order_cols=["s", "event_id"],
                               rank_col="rn", descending=True)
    # the ranked dataset is already materialized by the rank's task
    # stage — counting IT is metadata-cheap, where prepped.count()
    # would re-execute the whole read+prep chain a second time
    n_total = ranked.count()

    def decile_partial(b: pa.Table) -> pa.Table:
        rn = b["rn"].to_numpy(zero_copy_only=False)
        dec = (rn - 1) * 10 // n_total
        y = b["y"].to_numpy(zero_copy_only=False)
        s = b["s"].to_numpy(zero_copy_only=False)
        u, inv = np.unique(dec, return_inverse=True)
        n = np.bincount(inv).astype(np.int64)
        npos = np.zeros(len(u), np.int64)
        np.add.at(npos, inv, y)
        ssum = np.zeros(len(u), np.int64)
        np.add.at(ssum, inv, s)
        return pa.table({"decile": pa.array(u, pa.int64()),
                         "n": pa.array(n), "n_pos": pa.array(npos),
                         "sum_s": pa.array(ssum)})

    partials = ranked.map_batches(decile_partial, batch_format="pyarrow",
                                  zero_copy_batch=True)

    def combine(t: pa.Table) -> pa.Table:
        return pa.table({
            "decile": t["decile"].slice(0, 1),
            "n": pa.array([sum(t["n"].to_pylist())], pa.int64()),
            "n_pos": pa.array([sum(t["n_pos"].to_pylist())], pa.int64()),
            "sum_s": pa.array([sum(t["sum_s"].to_pylist())], pa.int64()),
        })

    return partitioned_map(partials, each_group(combine, ["decile"]),
                           key="decile", sort_keys=["decile"])


def _group_auc_q(sf_dir: str):
    """q122: exact per-cohort ROC AUC (does spend predict purchase?) —
    Mann-Whitney with tie-averaged ranks as exact integers (2·min_rank
    + ties − 1), one keyed exchange, one IEEE division
    (stages/regress.py:group_auc); rank()/count() window SQL replay is
    bit-exact."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray

    from featurebox_ray.stages.regress import group_auc

    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["user_id", "event_type",
                                        "value"])

    def prep(b: pa.Table) -> pa.Table:
        uid = b["user_id"].combine_chunks()
        grp = pa.array(
            uid.to_numpy(zero_copy_only=False) % 8, pa.int64(),
            mask=np.asarray(pc.is_null(uid)))
        y = pc.if_else(pc.is_valid(b["event_type"]),
                       pc.equal(b["event_type"], "purchase"),
                       pa.nulls(b.num_rows, pa.bool_())).cast(pa.int64())
        v = b["value"].combine_chunks()
        cents = np.round(np.nan_to_num(
            v.to_numpy(zero_copy_only=False)) * 100).astype(np.int64)
        s = pa.array(cents, pa.int64(), mask=np.asarray(pc.is_null(v)))
        return pa.table({"grp": grp, "y": y, "s": s})

    return group_auc(ev.map_batches(prep, batch_format="pyarrow",
                                    zero_copy_batch=True),
                     key_col="grp", label_col="y", score_col="s",
                     num_partitions=8)


def _retention_q(sf_dir: str):
    """q121: weekly retention cohort matrix — one user-keyed exchange
    (cohort + distinct activity periods per user segment, vectorized),
    then a tiny (cohort, offset) partial-count sum
    (stages/retention.py); all-int64, exact SQL replay."""
    import ray

    from featurebox_ray.stages.retention import retention_cohorts

    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["user_id", "ts"])
    return retention_cohorts(ev, period="week", num_partitions=8)


def _snapshot_diff_q(sf_dir: str):
    """q120: snapshot diff (added/removed/changed) between the documents
    table and a deterministically perturbed next version — one id-keyed
    tagged-union exchange, vectorized run classification, delta-sized
    output, IS NOT DISTINCT FROM equality (stages/diff.py)."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray

    from featurebox_ray.stages.diff import snapshot_diff

    old = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                columns=["doc_id", "text"])
    new_base = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                     columns=["doc_id", "text"])

    def perturb(b: pa.Table) -> pa.Table:
        import numpy as np
        ids = b["doc_id"].to_numpy(zero_copy_only=False)
        keep = ids % 17 != 0
        kept = b.filter(pa.array(keep))
        kid = kept["doc_id"].to_numpy(zero_copy_only=False)
        changed = pa.array(kid % 13 == 0)
        txt = pc.if_else(
            changed,
            pc.binary_join_element_wise(
                pa.array(["CHANGED"] * kept.num_rows),
                pc.fill_null(kept["text"].combine_chunks(), ""), " "),
            kept["text"].combine_chunks())
        out = pa.table({"doc_id": kept["doc_id"], "text": txt})
        add_ids = ids[ids % 19 == 0] + 1_000_000
        if len(add_ids):
            added = pa.table({
                "doc_id": pa.array(add_ids, pa.int64()),
                "text": pa.array([f"added doc {i}" for i in add_ids],
                                 pa.string())})
            out = pa.concat_tables([out, added])
        return out

    new = new_base.map_batches(perturb, batch_format="pyarrow",
                               zero_copy_batch=True)
    return snapshot_diff(old, new, id_col="doc_id", cmp_cols=["text"],
                         num_partitions=8)


def _top_bigrams_q(sf_dir: str):
    """q119: exact global top-20 adjacent word bigrams — collocation /
    boilerplate mining on the exact heavy-hitters plan (per-block
    vectorized binary_join partials, one term-keyed exchange,
    local-then-global top-k; stages/tfidf.py:top_bigrams).  Deterministic
    (count desc, bigram asc) LIMIT boundary, exact SQL replay."""
    import ray

    from featurebox_ray.stages.tfidf import top_bigrams

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["doc_id", "text"])
    return top_bigrams(docs, k=20, num_partitions=8)


def _windowed_distinct_q(sf_dir: str):
    """q118: exact distinct users per (event_type, day) — the exact-NDV
    exchange (distinct tuples ride the shuffle, never rows) with one
    count_distinct kernel per co-located group
    (stages/profile.py:group_count_distinct); the exact counterpart of
    the HLL/KMV sketches."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray

    from featurebox_ray.stages.profile import group_count_distinct

    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["event_type", "ts", "user_id"])

    def add_day(b: pa.Table) -> pa.Table:
        day = pc.divide(b["ts"].combine_chunks().cast(pa.int64()),
                        86_400_000_000)
        return pa.table({"event_type": b["event_type"], "day": day,
                         "user_id": b["user_id"]})

    return group_count_distinct(
        ev.map_batches(add_day, batch_format="pyarrow",
                       zero_copy_batch=True),
        group_cols=["event_type", "day"], value_col="user_id",
        num_partitions=8)


def _script_profile_q(sf_dir: str):
    """q117: Unicode-script / character-class profile per document —
    exact RE2 class counts (Arrow and DuckDB are both RE2, so every
    count replays exactly), disjoint-class sc_other subtraction, one
    IEEE-division latin ratio (stages/text.py:script_profile_fn).
    Stateless vectorized map, zero per-row Python."""
    import ray

    from featurebox_ray.stages.text import script_profile_fn

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["doc_id", "text"])
    return docs.map_batches(script_profile_fn, batch_format="pyarrow",
                            zero_copy_batch=True).drop_columns(["text"])


def _centroid_distance_q(sf_dir: str):
    """q116: per-label centroid-distance cohesion features — int64
    sufficient-statistic partials, tiny driver combine, stats broadcast
    once, streaming integer score pass (stages/cohesion.py); half-UP
    floor quantization + HUGEINT SQL arithmetic make the replay
    bit-exact (np.round/SQL round would tie-break differently)."""
    import ray

    from featurebox_ray.stages.cohesion import group_centroid_distance

    emb = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet",
                                columns=["vec_id", "embedding", "label"],
                                override_num_blocks=8)
    return group_centroid_distance(emb, quant_bits=8)


def _group_moments_q(sf_dir: str):
    """q115: per-event-type distribution-shape features (mean, population
    variance, skewness, excess kurtosis) from integer-exact sufficient
    statistics — int64 partials, one group-keyed exchange, Python-int
    combine, FIXED float64 op sequence (stages/regress.py:group_moments);
    HUGEINT SQL replay is bit-exact (never skewness()/kurtosis())."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray

    from featurebox_ray.stages.regress import group_moments

    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["event_type", "value"])

    def quant(b: pa.Table) -> pa.Table:
        # tie-free cents (money is exact 2-dec), then integer-divide to
        # whole units so the Σy⁴ block partial stays inside int64.
        # TRUNCATE toward zero like DuckDB's `//` — numpy's floor
        # division diverges on negative cents
        v = b["value"].combine_chunks()
        cents = np.round(np.nan_to_num(
            v.to_numpy(zero_copy_only=False)) * 100).astype(np.int64)
        units = np.where(cents >= 0, cents // 100, -((-cents) // 100))
        y = pa.array(units, pa.int64(), mask=np.asarray(pc.is_null(v)))
        return pa.table({"event_type": b["event_type"], "y": y})

    q = ev.map_batches(quant, batch_format="pyarrow",
                       zero_copy_batch=True)
    return group_moments(q, key_col="event_type", y_col="y")


def _funnel_q(sf_dir: str):
    """q114: funnel-conversion features — per user: first 'view', the
    first 'purchase' within 6 h of it, in-window purchase count, gap.
    One user-keyed exchange + vectorized masked-reduceat segment pass
    (stages/funnel.py); all outputs int64 ts/counts so the SQL replay
    is exact by construction."""
    import ray

    from featurebox_ray.stages.funnel import funnel_features

    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["user_id", "ts", "event_type"])
    return funnel_features(ev, step_a="view", step_b="purchase",
                           horizon_s=21600, num_partitions=8)


def _bucketed_interval_q(sf_dir: str):
    """q113: large-large interval join — every event matched to the
    co-occurrence windows [ts, ts + 1..4 min) opened by anchor events
    (event_id % 23 == 0).  Neither side broadcasts: facts ride to their
    15-minute time bucket, intervals replicate to overlapped buckets
    with bounds CLAMPED to the bucket (which makes one global sorted
    searchsorted walk per partition exact — no per-bucket loop, no
    cross-bucket duplicates), one bucket-keyed task exchange
    (stages/interval.py:bucketed_interval_join)."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray

    from featurebox_ray.stages.interval import bucketed_interval_join

    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["event_id", "ts"])

    def mk_iv(b: pa.Table) -> pa.Table:
        b = b.filter(pc.is_valid(b["ts"]))
        eid = b["event_id"].to_numpy(zero_copy_only=False)
        sel = np.flatnonzero(eid % 23 == 0)
        b = b.take(pa.array(sel, pa.int64()))
        ts_i = (b["ts"].combine_chunks().cast(pa.int64())
                .to_numpy(zero_copy_only=False))
        hi = ts_i + (1 + eid[sel] % 4) * 60_000_000
        return pa.table({"anchor_id": b["event_id"],
                         "lo": pa.array(ts_i, pa.int64()),
                         "hi": pa.array(hi, pa.int64())})

    iv = ev.map_batches(mk_iv, batch_format="pyarrow",
                        zero_copy_batch=True)
    iv_schema = pa.schema([("anchor_id", pa.int64()),
                           ("lo", pa.int64()), ("hi", pa.int64())])
    return bucketed_interval_join(
        ev, iv, ts_col="ts", fact_cols=["event_id"],
        interval_cols=["anchor_id"], bucket_width_s=900,
        num_partitions=8, interval_schema=iv_schema)


def _lm_perplexity_q(sf_dir: str):
    """q112: bigram-LM perplexity quality scoring (the KenLM-shaped
    CCNet filter, Wenzek et al. 2020) — exact top-V vocabulary + one
    pair-keyed exchange of int64 bigram partials, model broadcast once,
    per-doc log2-prob reduced with a positionally-invariant reduceat
    (stages/lm.py).  Fixture oracle: _oracle_replays.replay_bigram_lm
    recomputes serially from Counters with the same documented
    reduction — BIT-EXACT, no rounding."""
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray

    from _oracle_replays import replay_bigram_lm
    from featurebox_ray.stages.lm import bigram_lm_perplexity

    TOP_V, ADD_K = 256, 0.5

    # ---- serial replay fixture -----------------------------------------
    t = pq.read_table(f"{sf_dir}/documents.parquet",
                      columns=["doc_id", "text"])
    rep = replay_bigram_lm(
        t["doc_id"].to_pylist(), t["text"].to_pylist(),
        top_v=TOP_V, add_k=ADD_K)
    os.makedirs(_ORACLE_DIR, exist_ok=True)
    pq.write_table(
        pa.table({
            "doc_id": pa.array(rep["doc_id"], pa.int64()),
            "n_bigrams": pa.array(rep["n_bigrams"], pa.int64()),
            "logprob": pa.array(rep["logprob"], pa.float64()),
            # pandas may coerce the replay's None to NaN; the engine
            # emits NULL for 0-bigram docs, so map both back to NULL
            "ppl": pa.array([None if v is None or v != v else float(v)
                             for v in rep["ppl"]], pa.float64()),
        }), f"{_ORACLE_DIR}/lm_ppl.parquet.tmp")
    os.replace(f"{_ORACLE_DIR}/lm_ppl.parquet.tmp",
               f"{_ORACLE_DIR}/lm_ppl.parquet")

    # ---- distributed engine run ----------------------------------------
    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["doc_id", "text"],
                                 override_num_blocks=8)
    return bigram_lm_perplexity(docs, top_v=TOP_V, add_k=ADD_K,
                                num_partitions=8)


def _centered_window_q(sf_dir: str):
    """q111: centered ±3-row window sum/count of spend (cents) per user
    — ROWS BETWEEN 3 PRECEDING AND 3 FOLLOWING via one segment-masked
    prefix sum per partition; int64-exact, bit-exact SQL window replay."""
    import numpy as np
    import pyarrow as pa
    import ray

    from featurebox_ray.stages.window import add_centered_window_sum

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "ts", "value"])

    def scale(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        v = b["value"].combine_chunks()
        cents = np.round(np.nan_to_num(
            v.to_numpy(zero_copy_only=False), nan=0.0) * 100.0
        ).astype(np.int64)
        cents = pa.array(cents, pa.int64(),
                         mask=np.asarray(pc.is_null(v)))
        return (b.select(["event_id", "user_id", "ts"])
                .append_column("value_c", cents))

    ev = ev.map_batches(scale, batch_format="pyarrow",
                        zero_copy_batch=True)
    out = add_centered_window_sum(ev, key_col="user_id", ts_col="ts",
                                  int_value_col="value_c",
                                  order_col="event_id", before=3,
                                  after=3, num_partitions=8)
    return out.select_columns(["event_id", "win_sum", "win_n"])


def _group_corr_q(sf_dir: str):
    """q110: per-event-type Pearson correlation between event hour
    (epoch hours) and spend (cents) — integer-exact sufficient
    statistics; r = one division by a product of two correctly-rounded
    IEEE sqrts, so the HUGEINT SQL replay is bit-exact (never corr() —
    float accumulation order differs)."""
    import numpy as np
    import pyarrow as pa
    import ray

    from featurebox_ray.stages.regress import group_corr

    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["event_type", "ts", "value"])

    def quantize(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        b = b.filter(pc.and_(pc.is_valid(b["value"]),
                             pc.is_valid(b["ts"])))
        ep = b["ts"].combine_chunks().cast(pa.int64()).to_numpy(
            zero_copy_only=False)
        x = ep // 3_600_000_000           # hours since epoch (floor)
        y = np.round(b["value"].to_numpy(zero_copy_only=False)
                     * 100.0).astype(np.int64)
        return pa.table({"event_type": b["event_type"],
                         "x_hr": pa.array(x), "y_cent": pa.array(y)})

    ev = ev.map_batches(quantize, batch_format="pyarrow",
                        zero_copy_batch=True)
    return group_corr(ev, key_col="event_type", x_col="x_hr",
                      y_col="y_cent")


def _robust_zscore_q(sf_dir: str):
    """q109: per-row robust z-score (v - median) / MAD per user — the
    outlier-resistant normalization next to q98's mean/std z-score.
    Two vectorized quantile_disc element picks per group + two IEEE ops,
    replayed bit-exactly by quantile_disc CTEs in SQL."""
    import ray

    from featurebox_ray.stages.normalize import add_robust_zscore

    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["event_id", "user_id", "value"])
    out = add_robust_zscore(ev, key_col="user_id", value_col="value",
                            out_col="robust_z", num_partitions=8)
    return out.select_columns(["event_id", "robust_z"])


def _jsonl_roundtrip_q(sf_dir: str):
    """q108: JSONL sink + source round trip — events (ints pre-quantized
    to cents, floats never touch JSON) stream to newline-delimited JSON
    shards, read back with ray.data.read_json, and aggregate; the oracle
    recomputes the same aggregate from the parquet view, so the hash
    match proves the round trip is value-exact.  Exercises the engine's
    multi-format Catalog surface (parquet/csv/jsonl)."""
    import os
    import shutil

    import numpy as np
    import pyarrow as pa
    import ray

    from featurebox_ray.sources.io import write_table
    from featurebox_ray.stages.partition import each_group, partitioned_map

    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["event_id", "user_id",
                                        "event_type", "value"])

    def quantize(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        v = b["value"].combine_chunks()
        cents = np.round(np.nan_to_num(
            v.to_numpy(zero_copy_only=False), nan=0.0) * 100.0
        ).astype(np.int64)
        cents = pa.array(cents, pa.int64(),
                         mask=np.asarray(pc.is_null(v)))
        return (b.select(["event_id", "user_id", "event_type"])
                .append_column("value_c", cents))

    out_dir = f"/tmp/fbr_jsonl_{os.getpid()}"
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    write_table(ev.map_batches(quantize, batch_format="pyarrow",
                               zero_copy_batch=True),
                out_dir, fmt="jsonl")

    back = ray.data.read_json(out_dir)

    def partial(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        gd = pc.dictionary_encode(b["event_type"].combine_chunks())
        codes = gd.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        ids = b["event_id"].combine_chunks().cast(pa.int64()).to_numpy(
            zero_copy_only=False)
        cents = pc.fill_null(b["value_c"].combine_chunks()
                             .cast(pa.int64()), 0).to_numpy(
            zero_copy_only=False)
        g = len(gd.dictionary)
        n = np.zeros(g, np.int64)
        np.add.at(n, codes, 1)
        s1 = np.zeros(g, np.int64)
        np.add.at(s1, codes, ids)
        s2 = np.zeros(g, np.int64)
        np.add.at(s2, codes, cents)
        return pa.table({"event_type": gd.dictionary,
                         "n": pa.array(n), "id_sum": pa.array(s1),
                         "cent_sum": pa.array(s2)})

    def combine(t: pa.Table) -> pa.Table:
        return pa.table({
            "event_type": t["event_type"].slice(0, 1),
            "n": pa.array([int(sum(t["n"].to_pylist()))], pa.int64()),
            "id_sum": pa.array([int(sum(t["id_sum"].to_pylist()))],
                               pa.int64()),
            "cent_sum": pa.array([int(sum(t["cent_sum"].to_pylist()))],
                                 pa.int64()),
        })

    partials = back.map_batches(partial, batch_format="pyarrow",
                                zero_copy_batch=True, batch_size=None)
    return partitioned_map(partials, each_group(combine, ["event_type"]),
                           key="event_type", sort_keys=["event_type"])


def _editdist_join_q(sf_dir: str):
    """q107: edit-distance similarity join — all doc pairs whose 48-char
    text prefixes are within Levenshtein distance 2, via the PassJoin
    pigeonhole partition scheme (EXACT recall, no LSH probability) +
    batch-vectorized DP verification.  The oracle is the all-pairs
    levenshtein join (integer distances, value-hash exact)."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray

    from featurebox_ray.stages.editdist import edit_distance_join

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["doc_id", "text"])

    def prefix(b: pa.Table) -> pa.Table:
        s = pc.utf8_slice_codeunits(
            pc.fill_null(b["text"].combine_chunks(), ""), 0, 48)
        return pa.table({"doc_id": b["doc_id"], "s": s})

    pref = docs.map_batches(prefix, batch_format="pyarrow",
                            zero_copy_batch=True)
    return edit_distance_join(pref, id_col="doc_id", str_col="s", d=2,
                              max_len=64, num_partitions=8)


def _transitions_q(sf_dir: str):
    """q106: global event-type transition matrix (behavioral Markov
    bigrams) — per-user consecutive pairs via one keyed exchange +
    shifted compare, ≤|types|² partials per partition, tiny second
    exchange; p = two exact-int casts + one IEEE division (bit-exact
    SQL replay via lead() + window sum)."""
    import ray

    from featurebox_ray.stages.transitions import event_transition_counts

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "ts", "event_type"])
    return event_transition_counts(ev, key_col="user_id", ts_col="ts",
                                   order_col="event_id",
                                   type_col="event_type",
                                   num_partitions=8)


def _rolling_median_q(sf_dir: str):
    """q105: trailing 5-row rolling median of event value per user —
    exact quantile_disc element pick over a sliding_window_view with
    segment-boundary masking (one keyed exchange, n×w bounded window
    matrix, no per-row Python).  Element pick = bit-exact SQL replay."""
    import ray

    from featurebox_ray.stages.window import add_rolling_quantile

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "ts", "value"])
    out = add_rolling_quantile(ev, key_col="user_id", ts_col="ts",
                               value_col="value", order_col="event_id",
                               window_rows=5, q=0.5,
                               out_col="roll_med", num_partitions=8)
    return out.select_columns(["event_id", "roll_med"])


def _asof_nearest_q(sf_dir: str):
    """q104: nearest-direction as-of join — each click matched to the
    closest purchase of the same user by |ts gap| (pandas merge_asof
    direction='nearest'; equal distances resolve backward).  One fused
    merge pass computes both segmented scans; the oracle composes two
    DuckDB ASOF joins with tie-deduped right sides and an exact integer
    gap compare."""
    import pyarrow.compute as pc
    import ray

    from featurebox_ray.stages.asof import asof_join

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "ts", "event_type", "value"])
    left = (ev.filter(expr="event_type == 'click'")
            .select_columns(["event_id", "user_id", "ts"]))
    right = (ev.filter(expr="event_type == 'purchase'")
             .map_batches(lambda b: b.filter(pc.is_valid(b["value"]))
                          .select(["user_id", "ts", "value"])
                          .rename_columns(["user_id", "ts", "near_value"]),
                          batch_format="pyarrow", zero_copy_batch=True))
    out = asof_join(left, right, key="user_id", ts_col="ts",
                    right_cols=["near_value"], direction="nearest",
                    num_partitions=8, order_col="event_id")
    return out.select_columns(["event_id", "user_id", "ts", "near_value"])


def _unpivot_q(sf_dir: str):
    """q103: UNPIVOT/melt — lineitem measure columns to long form, one
    row per (line, measure).  Pure streaming flat map (zero-copy column
    selections, constant-factor row expansion, no exchange); values pass
    through unchanged so the UNION ALL oracle hashes exactly."""
    import ray

    from featurebox_ray.stages.pivot import unpivot

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_linenumber", "l_quantity",
                 "l_extendedprice", "l_discount", "l_tax"])
    return unpivot(li, id_cols=["l_orderkey", "l_linenumber"],
                   value_cols=["l_quantity", "l_extendedprice",
                               "l_discount", "l_tax"],
                   var_col="measure", value_col="value")


def _group_linfit_q(sf_dir: str):
    """q102: per-user OLS spend trend (cents/day) — distributed
    regr_slope/regr_intercept from integer-exact sufficient statistics:
    per-block (n, Σx, Σy, Σxy, Σx²) partials over quantized int64 inputs
    (x = days since epoch, y = cents), one group-keyed exchange, Python-int
    combine, closed form as a fixed float64 op sequence.  The oracle
    replays it with HUGEINT sums + explicit DOUBLE casts (NEVER
    regr_slope — float accumulation is order-dependent)."""
    import numpy as np
    import pyarrow as pa
    import ray

    from featurebox_ray.stages.regress import group_linfit

    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["user_id", "ts", "value"])

    def quantize(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        b = b.filter(pc.and_(pc.is_valid(b["value"]),
                             pc.is_valid(b["ts"])))
        ep = b["ts"].combine_chunks().cast(pa.int64()).to_numpy(
            zero_copy_only=False)
        x = ep // 86_400_000_000            # days since epoch (floor)
        y = np.round(b["value"].to_numpy(zero_copy_only=False)
                     * 100.0).astype(np.int64)
        return pa.table({"user_id": b["user_id"],
                         "x_day": pa.array(x),
                         "y_cent": pa.array(y)})

    ev = ev.map_batches(quantize, batch_format="pyarrow",
                        zero_copy_batch=True)
    return group_linfit(ev, key_col="user_id", x_col="x_day",
                        y_col="y_cent")


def _hll_distinct_q(sf_dir: str):
    """q101: HyperLogLog distinct-count sketch per event_type — the
    fixed-memory complement to q48's KMV (registers merge by MAX, sketch
    size is capped at m bytes per group regardless of cardinality).  The
    harmonic sum is computed as an exact integer (sum of powers of two),
    so the raw-HLL estimate is two IEEE ops from exact values and DuckDB
    replays it bit-identically (register ranks via printf('%b') bit
    lengths, the integer sum via <<)."""
    import ray

    from featurebox_ray.stages.sketch import hll_distinct

    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["event_type", "user_id"])
    return hll_distinct(ev, group_col="event_type", value_col="user_id",
                        p=8)


def _event_chain_q(sf_dir: str):
    """q100: per-user event-type chain — deterministic ordered
    string_agg (the behavioral-sequence feature): one keyed exchange,
    every group rendered in one vectorized cast→offsets→binary_join
    pass (the q41 render shape, never a per-group UDF)."""
    import ray

    from featurebox_ray.stages.pivot import group_concat

    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["user_id", "event_type", "ts",
                                        "event_id"])
    return group_concat(ev, group_col="user_id",
                        value_col="event_type",
                        order_cols=["ts", "event_id"], sep=",",
                        out_col="chain", num_partitions=8)


def _group_topk_q(sf_dir: str):
    """q99: top-3 event types per user with counts and ranks — the
    generalized group mode (per-block dictionary-code partials, one
    group-keyed exchange, vectorized pick), deterministic (cnt desc,
    value asc) ranking = SQL QUALIFY row_number() <= 3."""
    import ray

    from featurebox_ray.stages.pivot import group_topk_values

    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["user_id", "event_type"])
    return group_topk_values(ev, group_col="user_id",
                             value_col="event_type", k=3,
                             num_partitions=8)


def _group_norm_q(sf_dir: str):
    """q98: per-row share-of-group and group z-score — exact int64
    (n, sum, sum²) per user via one tiny keyed exchange, broadcast once,
    fact stream maps with a fixed float64 op order written identically
    in SQL (bit-exact; single-row groups NULL z)."""
    import numpy as np
    import pyarrow as pa
    import ray

    from featurebox_ray.stages.normalize import add_group_norm_features

    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["event_id", "user_id", "value"])

    def scale(b: pa.Table) -> pa.Table:
        v = np.round(b["value"].to_numpy(zero_copy_only=False)
                     * 100.0).astype(np.int64)
        return (b.select(["event_id", "user_id"])
                .append_column("value_c", pa.array(v)))

    ev = ev.map_batches(scale, batch_format="pyarrow",
                        zero_copy_batch=True)
    out = add_group_norm_features(ev, key_col="user_id",
                                  int_value_col="value_c",
                                  share_col="share", z_col="zscore",
                                  num_partitions=8)
    return out.select_columns(["event_id", "share", "zscore"])


def _profile_q(sf_dir: str):
    """q97: dataset profiler — per-column rows/nulls/EXACT distinct/
    min/max in one pass; the exact-NDV exchange moves distinct
    (col, val) pairs (never rows), then cols×partitions partial rows.
    Values profile through their VARCHAR cast (bytewise min/max,
    shortest-roundtrip float formatting — parity with DuckDB checked
    across SFs)."""
    import ray

    from featurebox_ray.stages.profile import profile_columns

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "event_type", "value"])
    return profile_columns(ev, cols=["event_id", "user_id",
                                     "event_type", "value"],
                           num_partitions=8)


def _running_total_q(sf_dir: str):
    """q96: running revenue per customer (cumulative int64 cents over
    (o_orderdate, o_orderkey) order) — one keyed exchange, segment-
    masked np.cumsum; int sums are order-independent-exact so the SQL
    window replays bit-identically."""
    import numpy as np
    import pyarrow as pa
    import ray

    from featurebox_ray.stages.window import add_running_totals

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderdate",
                 "o_totalprice"])

    def scale(b: pa.Table) -> pa.Table:
        p = np.round(b["o_totalprice"].to_numpy(zero_copy_only=False)
                     * 100.0).astype(np.int64)
        return (b.select(["o_orderkey", "o_custkey", "o_orderdate"])
                .append_column("price_c", pa.array(p)))

    orders = orders.map_batches(scale, batch_format="pyarrow",
                                zero_copy_batch=True)
    out = add_running_totals(orders, key_col="o_custkey",
                             ts_col="o_orderdate",
                             int_value_col="price_c",
                             order_col="o_orderkey",
                             out_col="running_c", num_partitions=8)
    return out.select_columns(["o_orderkey", "o_custkey", "running_c"])


def _ewm_q(sf_dir: str):
    """q95: per-user exponential moving average of value over time
    (pandas ewm(adjust=False) semantics) — one keyed exchange + the
    blocked scan of segments.ewm_mean (vectorized 64-row blocks, Python
    only at block/segment boundaries).  Exactness contract: the fixture
    replays the SAME blocked arithmetic serially, so the comparison is
    bit-exact (block boundaries are segment-relative, independent of
    partitioning)."""
    import os

    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray

    from featurebox_ray.functions.segments import ewm_mean
    from featurebox_ray.stages.window import add_ewm

    ALPHA = 0.25

    # ---- serial replay fixture -----------------------------------------
    t = pq.read_table(f"{sf_dir}/events.parquet",
                      columns=["event_id", "user_id", "ts", "value"])
    ids = t["event_id"].to_numpy(zero_copy_only=False)
    uid = t["user_id"].to_numpy(zero_copy_only=False)
    ts = t["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
    order = np.lexsort((ids, ts, uid))
    u_s = uid[order]
    v_s = (t["value"].to_numpy(zero_copy_only=False)
           .astype(np.float64)[order])
    is_start = np.empty(len(u_s), np.bool_)
    is_start[0] = True
    is_start[1:] = u_s[1:] != u_s[:-1]
    ew = ewm_mean(v_s, ALPHA, is_start)
    os.makedirs(_ORACLE_DIR, exist_ok=True)
    pq.write_table(pa.table({"event_id": pa.array(ids[order]),
                             "ewm_value": pa.array(ew)}),
                   f"{_ORACLE_DIR}/ewm.parquet.tmp")
    os.replace(f"{_ORACLE_DIR}/ewm.parquet.tmp",
               f"{_ORACLE_DIR}/ewm.parquet")

    # ---- distributed engine run ----------------------------------------
    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["event_id", "user_id", "ts",
                                        "value"])
    out = add_ewm(ev, key_col="user_id", ts_col="ts", value_col="value",
                  alpha=ALPHA, order_col="event_id",
                  out_col="ewm_value", num_partitions=8)
    return out.select_columns(["event_id", "ewm_value"])


def _canon_dedup_q(sf_dir: str):
    """q94: canonicalized exact dedup — the C4 recipe of lowercase +
    whitespace-collapse + trim (pure Arrow kernels) feeding exact_dedup
    keyed on the CANONICAL text, so near-identical casings/spacings
    collapse; keeps the min-doc_id representative per canonical form."""
    import ray

    from featurebox_ray.stages.dedup import exact_dedup
    from featurebox_ray.stages.text import normalize_text

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["doc_id", "text"])
    canon = normalize_text(docs, text_col="text", out_col="norm_text")
    out = exact_dedup(canon, text_col="norm_text", id_col="doc_id",
                      num_partitions=8)
    return out.select_columns(["doc_id", "norm_text"])


def _json_extract_q(sf_dir: str):
    """q93: typed-field extraction from the props JSON column — one
    Arrow RE2 extract_regex pass (zero per-row Python), the identical
    regex replayed by DuckDB regexp_extract (both RE2)."""
    import ray

    from featurebox_ray.stages.scalar import extract_json_fields

    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["event_id", "props"])
    out = extract_json_fields(ev, json_col="props",
                              fields={"prop_k": ("k", "int")})
    return out.select_columns(["event_id", "prop_k"])


def _pca_q(sf_dir: str):
    """q92: distributed PCA over the embeddings table — the q57 dyadic
    exactness trick lifted to second moments: int64 Gram/colsum partials
    merge order-independent-exactly, the d²+d+1 cells ride one tiny
    keyed exchange, eigh runs driver-side on the exactly-reconstructed
    covariance, and the projection is integer matmul again — so the
    serial replay fixture is BIT-IDENTICAL (no rounding at all)."""
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray

    from featurebox_ray.stages.pca import (_finish_fit, _project_serial,
                                           _quantized_int,
                                           pca_fit_transform)

    P, QB, PB = 4, 10, 20

    # ---- serial replay fixture (independent single-process recompute) --
    t = pq.read_table(f"{sf_dir}/embeddings.parquet",
                      columns=["vec_id", "embedding"])
    qi = _quantized_int(t, "embedding", QB)
    n, d = qi.shape
    g = qi.T @ qi
    cs = qi.sum(axis=0)
    comps, _ = _finish_fit(g, cs, n, d, QB, P)
    scores = _project_serial(qi, cs, n, comps, QB, PB)
    cols = {"vec_id": t["vec_id"]}
    for c in range(P):
        cols[f"pc{c + 1}"] = pa.array(scores[:, c])
    os.makedirs(_ORACLE_DIR, exist_ok=True)
    pq.write_table(pa.table(cols), f"{_ORACLE_DIR}/pca.parquet.tmp")
    os.replace(f"{_ORACLE_DIR}/pca.parquet.tmp", f"{_ORACLE_DIR}/pca.parquet")

    # ---- distributed engine run ----------------------------------------
    ds = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet",
                               columns=["vec_id", "embedding"])
    return pca_fit_transform(ds, vec_col="embedding", id_col="vec_id",
                             n_components=P, quant_bits=QB, proj_bits=PB)


def _asof_tolerance_q(sf_dir: str):
    """q91: the q10 point-in-time backfill with a 1-hour staleness bound
    (pandas merge_asof tolerance semantics) — a match further than the
    bound nulls out inside the same fused merge kernel (the matched
    right index is already there; one |gap| compare, no extra pass)."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray

    from featurebox_ray.pipelines.events_queries import _finish, read
    from featurebox_ray.stages.asof import asof_join

    ev = read(sf_dir, "events",
              ["event_id", "user_id", "ts", "event_type", "value"])

    def right_side(batch: pa.Table) -> pa.Table:
        b = batch.filter(pc.equal(batch["event_type"],
                                  pa.scalar("error")))
        return pa.table({"user_id": b["user_id"], "ts": b["ts"],
                         "err_value_tol": b["value"]})

    right = ev.map_batches(right_side, batch_format="pyarrow",
                           zero_copy_batch=True)
    left = _finish(ev, ["event_id", "user_id", "ts"], [], ["event_id"])
    out = asof_join(left, right, key="user_id", ts_col="ts",
                    right_cols=["err_value_tol"], num_partitions=16,
                    tolerance_s=3600.0)
    return _finish(out, ["event_id", "err_value_tol"],
                   ["err_value_tol"], ["event_id"])


def _group_mode_q(sf_dir: str):
    """q90: exact distributed MODE per user — most frequent event_type
    with deterministic (count desc, value asc) tie-break; per-block
    (group, value, cnt) partials, one group-keyed exchange, vectorized
    final pick.  The categorical-feature counterpart to q66's pivot."""
    import ray

    from featurebox_ray.stages.pivot import group_mode

    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["user_id", "event_type"])
    return group_mode(ev, group_col="user_id", value_col="event_type",
                      num_partitions=8)


def _dup_fraction_q(sf_dir: str):
    """q89: per-document duplicated-token fraction — the ExactSubstr
    decision signal.  Same two exchanges as q84, but the final doc-keyed
    exchange also carries one (doc, n_tokens) row per document (tagged
    union, no separate join), so every tokenized doc emits exactly once;
    dup_frac is one IEEE division of small ints (bit-exact in SQL)."""
    import ray

    from featurebox_ray.stages.substr import dup_token_stats

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["doc_id", "text"],
                                 override_num_blocks=32)
    return dup_token_stats(docs, id_col="doc_id", text_col="text", k=8,
                           min_count=2, num_partitions=8,
                           hash_mode="md5")


def _cms_counts_q(sf_dir: str):
    """q88: count-min sketch term counts — fixed depth×width int64
    counter matrix merged by addition (shuffle moves O(blocks × d×w)
    cells regardless of vocabulary size), 60-bit md5 bucket hashes so
    DuckDB rebuilds the IDENTICAL sketch; point estimates (min over
    depth) for the exact top-20 terms, overestimate guaranteed."""
    import ray

    from featurebox_ray.stages.sketch import cms_term_estimates

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["doc_id", "text"])
    return cms_term_estimates(docs, depth=4, width=1024, query_k=20,
                              num_partitions=8)


def _hopping_window_q(sf_dir: str):
    """q87: 6-hour windows hopping every 2 hours per user — each row
    expands to exactly 3 overlapping windows, collapses to per-block
    (key, w_start) partials BEFORE the exchange; aggregates are the q52
    order-independent-exact set (count, int64 id sum, min/max)."""
    import ray

    from featurebox_ray.pipelines.events_queries import _finish, read
    from featurebox_ray.stages.window import hopping_window_stats

    ev = read(sf_dir, "events", ["event_id", "user_id", "ts", "value"])
    out = hopping_window_stats(ev, key_col="user_id", ts_col="ts",
                               value_col="value", id_col="event_id",
                               width_s=6 * 3600.0, hop_s=2 * 3600.0)
    return _finish(out, ["user_id", "w_start", "n_events", "id_sum",
                         "v_min", "v_max"],
                   ["v_min", "v_max"],
                   ["user_id", "w_start", "n_events", "id_sum"])


def _corpus_freq_q(sf_dir: str):
    """q86: corpus-frequency familiarity scoring (the integer-exact core
    of the CCNet quality filter) — exact global top-512 vocabulary via
    the term-keyed partial-counts exchange, vocabulary broadcast once
    with ray.put, per-doc n_tokens / n_invocab / fam_sum as pure int64
    bincounts (no log-prob: libm ulps differ across engines; counting
    replays in SQL)."""
    import ray

    from featurebox_ray.stages.tfidf import corpus_freq_score

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["doc_id", "text"])
    return corpus_freq_score(docs, top_v=512, num_partitions=8)


def _global_rank_q(sf_dir: str):
    """q85: exact global row_number over (value, event_id) — Ray range
    sort is the one all-to-all, read in range order; block offsets are
    prefix sums of the bundle metadata's row counts (one count per
    block).  The curriculum-ordering primitive."""
    import pyarrow.compute as pc
    import ray

    from featurebox_ray.stages.rank import global_row_number

    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["event_id", "value"])
    # a unique total order needs null-free keys: keep finite values only
    ev = ev.map_batches(
        lambda b: b.filter(pc.fill_null(pc.is_finite(b["value"]), False)),
        batch_format="pyarrow", zero_copy_batch=True)
    return global_row_number(ev, order_cols=["value", "event_id"])


def _dup_spans_q(sf_dir: str):
    """q84: exact-substring duplicate spans (Lee et al. 2022 ExactSubstr
    shape) — every word 8-gram keyed by md5 rides ONE gram-keyed
    exchange; runs >= 2 mark their (doc, pos) rows; a doc-keyed exchange
    merges overlapping/adjacent intervals into maximal spans.  md5 mode
    so DuckDB replays the decision procedure bit-exactly; the vectorized
    poly-hash mode is the 100-TB path (tested equal)."""
    import ray

    from featurebox_ray.stages.substr import dup_spans

    # the gram emit is CPU-bound (one md5 per gram): split the single
    # row group so it parallelizes (Ray left it one block otherwise)
    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["doc_id", "text"],
                                 override_num_blocks=32)
    return dup_spans(docs, id_col="doc_id", text_col="text", k=8,
                     min_count=2, num_partitions=8, hash_mode="md5")


def _cube_q(sf_dir: str):
    """q83: CUBE(o_orderstatus, o_orderpriority) in one pass — the q65
    rollup plan plus the (g2)-only level: per-partition g2 partials ride
    the same g1-keyed exchange, then a SECOND exchange over
    <= partitions x |g2| tiny partial rows (never the data) completes
    them.  lvl mirrors SQL GROUPING(g1, g2); price pre-scaled x100 to
    int64 cents so every sum is order-independent-exact (no float
    output at all)."""
    import numpy as np
    import pyarrow as pa
    import ray

    from featurebox_ray.stages.rollup import rollup_counts

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderstatus", "o_orderpriority", "o_totalprice"])

    def scale(b: pa.Table) -> pa.Table:
        p = np.round(b["o_totalprice"].to_numpy(zero_copy_only=False)
                     * 100.0).astype(np.int64)
        return (b.select(["o_orderstatus", "o_orderpriority"])
                .append_column("price_c", pa.array(p)))

    orders = orders.map_batches(scale, batch_format="pyarrow",
                                zero_copy_batch=True)
    return rollup_counts(orders, g1="o_orderstatus", g2="o_orderpriority",
                         int_sum_cols=["price_c"], num_partitions=8,
                         cube=True)


def _winsorize_q(sf_dir: str):
    """q82: per-group winsorization — clip each value to its group's
    [p5, p95] quantile_disc edges (exact data elements, so the clip is
    comparison + substitution and the SQL CASE replays bit-exactly).
    The q71 two-stage shape: one keyed exchange for edges, one broadcast
    map over the fact stream."""
    import ray

    from featurebox_ray.stages.binning import winsorize

    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["event_id", "event_type", "value"])
    return winsorize(ev, group_col="event_type", value_col="value",
                     q_lo=0.05, q_hi=0.95, num_partitions=8)


def _full_join_q(sf_dir: str):
    """q81: FULL OUTER equi-join on the co-partitioned task exchange —
    both inputs pre-filtered so BOTH null sides occur (orders without a
    BUILDING customer, BUILDING customers without a big order); the key
    coalesces so right-only rows keep their key."""
    import pyarrow.compute as pc_
    import ray

    from featurebox_ray.stages.join import hash_join

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_totalprice"],
        filter=(pc_.field("o_totalprice") > 300000.0))
    cust = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet",
        columns=["c_custkey", "c_mktsegment"],
        filter=(pc_.field("c_mktsegment") == "BUILDING"))
    return hash_join(orders, cust, on="o_custkey", right_on="c_custkey",
                     how="full", num_partitions=8,
                     right_cols=["c_mktsegment"])


def _group_split_q(sf_dir: str):
    """q79: leakage-safe train/val/test split — the label is a function
    of user_id's multiplicative hash (the engine's one key-hash,
    stages/sample.py), so every row of a user lands in the same split
    and the SQL replay is the identical HUGEINT arithmetic under a
    CASE."""
    import ray

    from featurebox_ray.stages.sample import add_split_column

    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["event_id", "user_id"])
    return add_split_column(ev, key_col="user_id",
                            splits=[("train", 0.8), ("val", 0.1),
                                    ("test", None)])


def _redact_q(sf_dir: str):
    """q80: regex pattern redaction (the PII-scrub shape) — Arrow
    replace_substring_regex and DuckDB regexp_replace(...,'g') are both
    RE2, so cleaned text + match counts value-hash exactly."""
    import ray

    from featurebox_ray.stages.redact import pattern_redact

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["doc_id", "text"])
    return pattern_redact(docs, pattern=r"\b(spark|hash|join)\b",
                          replacement="[REDACTED]")


def _inverted_index_q(sf_dir: str):
    """q78: distributed inverted index — distinct (term, doc) pairs per
    block, one term-keyed exchange, run-length postings assembly
    (vectorized int→string + binary_join).  Postings ship as a CSV
    string so the DuckDB list_sort/array_to_string replay value-hashes
    byte-identically; min_df=2 exercises the hapax prune."""
    import ray

    from featurebox_ray.stages.invindex import inverted_index

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["doc_id", "text"])
    return inverted_index(docs, num_partitions=8, min_df=2)


def _clean_corpus_q(sf_dir: str):
    """q77: the composed C4/Gopher cleaning chain — exact dedup →
    repetition signals + benchmark-overlap in ONE streaming pass →
    dyadic-threshold filter.  Fully SQL-replayable: survivors = min id
    per text, fractions are the q73 divisions, overlap is the q72 IN —
    thresholds are dyadic doubles so every comparison is bit-exact."""
    import numpy as np
    import pyarrow as pa
    import ray

    from featurebox_ray.pipelines.cleaning import clean_corpus

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["doc_id", "text"])

    def keep_bench(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_numpy(zero_copy_only=False)
        return b.filter(pa.array(ids % 97 == 0))

    bench = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    ).map_batches(keep_bench, batch_format="pyarrow", zero_copy_batch=True)
    return clean_corpus(docs, bench, num_partitions=8)


def _dup_components_q(sf_dir: str):
    """q76: near-dup pairs → connected components → per-document
    canonical group label (min reachable id; survivor = ``doc_id ==
    component``) — the standard post-dedup grouping step.  The fixture
    is fully independent: python all-pairs exact STRING-shingle Jaccard
    (no engine hashing) + BFS labels; engine recall over these pairs is
    exact on this corpus per the q22 coupling note
    (dedup.minhash_lsh_dedup docstring)."""
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray

    from featurebox_ray.stages.components import connected_components
    from featurebox_ray.stages.dedup import minhash_lsh_dedup

    T = 0.8

    # ---- independent replay fixture ------------------------------------
    t = pq.read_table(f"{sf_dir}/documents.parquet",
                      columns=["doc_id", "text"])
    ids = t["doc_id"].to_pylist()
    shingles = []
    for x in t["text"].to_pylist():
        toks = (x or "").split()
        shingles.append({tuple(toks[i:i + 3])
                         for i in range(len(toks) - 2)})
    edges = []
    for i in range(len(ids)):
        if not shingles[i]:
            continue
        for j in range(i + 1, len(ids)):
            if not shingles[j]:
                continue
            inter = len(shingles[i] & shingles[j])
            if inter and inter / (len(shingles[i]) + len(shingles[j])
                                  - inter) >= T:
                edges.append((ids[i], ids[j]))
    adj: dict = {}
    for a, b in edges:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    label: dict = {}
    for n in ids:
        if n in label or n not in adj:
            continue
        seen, stack = {n}, [n]
        while stack:
            x = stack.pop()
            for y in adj.get(x, ()):
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        m = min(seen)
        for x in seen:
            label[x] = m
    rep = pa.table({
        "doc_id": pa.array(ids, pa.int64()),
        "component": pa.array([label.get(n, n) for n in ids], pa.int64()),
    })
    os.makedirs(_ORACLE_DIR, exist_ok=True)
    pq.write_table(rep, f"{_ORACLE_DIR}/dup_components.parquet.tmp")
    os.replace(f"{_ORACLE_DIR}/dup_components.parquet.tmp",
               f"{_ORACLE_DIR}/dup_components.parquet")

    # ---- distributed engine run ----------------------------------------
    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["doc_id", "text"])
    pairs = minhash_lsh_dedup(docs, jaccard_threshold=T)
    return connected_components(pairs, docs.select_columns(["doc_id"]))


def _bpe_train_q(sf_dir: str):
    """q75: BPE merge-rule training (Sennrich et al. 2016) — distributed
    word-count reduction (per-block partials + one term-keyed exchange)
    feeding the vocabulary-sized merge loop in a Ray task.  Exact
    integer counts + a total-order tie-break make the merge table
    deterministic; the fixture is an independent dict-based replay
    (_oracle_replays.replay_bpe_merges) over the raw parquet."""
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray

    from _oracle_replays import replay_bpe_merges
    from featurebox_ray.stages.bpe import bpe_train

    M = 25
    t = pq.read_table(f"{sf_dir}/documents.parquet", columns=["text"])
    rep = replay_bpe_merges(t["text"].to_pylist(), M)
    os.makedirs(_ORACLE_DIR, exist_ok=True)
    rep_t = pa.table({
        "merge_rank": pa.array(rep["merge_rank"], pa.int64()),
        "left": pa.array(rep["left"], pa.string()),
        "right": pa.array(rep["right"], pa.string()),
        "pair_count": pa.array(rep["pair_count"], pa.int64()),
    })
    pq.write_table(rep_t, f"{_ORACLE_DIR}/bpe_merges.parquet.tmp")
    os.replace(f"{_ORACLE_DIR}/bpe_merges.parquet.tmp",
               f"{_ORACLE_DIR}/bpe_merges.parquet")

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["doc_id", "text"])
    return bpe_train(docs, num_merges=M, num_partitions=8)


def _semantic_dedup_q(sf_dir: str):
    """q74: SemDeDup-style semantic dedup (Abbas et al. 2023) — k-means
    the embeddings, mark within-cluster cosine duplicates (keep lowest
    id).  Exactness: dyadic quantization makes every pairwise dot and
    norm EXACT in float64 (stages/semdedup.py docstring), so the serial
    single-process replay — identical arithmetic, zero distribution —
    is bit-identical for any partitioning; no rounding in the fixture."""
    import os

    import pyarrow.parquet as pq
    import ray

    from featurebox_ray.stages.semdedup import (semantic_dedup,
                                                semantic_dedup_serial)

    K, ITERS, QB, T = 8, 4, 10, 0.9

    t = pq.read_table(f"{sf_dir}/embeddings.parquet",
                      columns=["vec_id", "embedding"])
    rep = semantic_dedup_serial(t, k=K, iters=ITERS, quant_bits=QB,
                                threshold=T)
    os.makedirs(_ORACLE_DIR, exist_ok=True)
    pq.write_table(rep, f"{_ORACLE_DIR}/semdedup.parquet.tmp")
    os.replace(f"{_ORACLE_DIR}/semdedup.parquet.tmp",
               f"{_ORACLE_DIR}/semdedup.parquet")

    ds = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet",
                               columns=["vec_id", "embedding"])
    return semantic_dedup(ds, k=K, iters=ITERS, quant_bits=QB,
                          threshold=T, num_partitions=8)


def _repetition_q(sf_dir: str):
    """q73: Gopher-style repetition/quality signals per document —
    duplicate-word fraction, most-frequent bigram/trigram fractions,
    mean word length.  Map-only (no shuffle); every fraction is one
    int/int float64 division so the DuckDB aggregate replay is
    bit-exact."""
    import ray

    from featurebox_ray.stages.repetition import repetition_features

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["doc_id", "text"])
    return repetition_features(docs)


def _decontaminate_q(sf_dir: str):
    """q72: benchmark decontamination — per-document count of DISTINCT
    token 5-grams shared with a held-out 'benchmark' slice (doc_id % 97
    == 0), the GPT-3/Pile overlap recipe.  Map-only at scale: the bench
    side reduces to one broadcast (sorted-hash prefilter + exact string
    verify), the corpus streams; the DuckDB oracle replays the exact
    string semantics with IN over regexp-extracted n-grams."""
    import numpy as np
    import pyarrow as pa
    import ray

    from featurebox_ray.stages.decontam import ngram_decontaminate

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["doc_id", "text"])

    def keep_bench(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_numpy(zero_copy_only=False)
        return b.filter(pa.array(ids % 97 == 0))

    bench = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    ).map_batches(keep_bench, batch_format="pyarrow", zero_copy_batch=True)
    return ngram_decontaminate(docs, bench, n=5)


def _bpe_tokens(sf_dir: str):
    """BPE-ish tokenizer count (stages/text.py regex) with a strong DuckDB
    oracle running the identical regex."""
    import pyarrow as pa
    import ray

    from featurebox_ray.stages.text import text_features_fn

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["doc_id", "text"])
    out = docs.map_batches(text_features_fn, batch_format="pyarrow",
                           zero_copy_batch=True, batch_size=2048)

    def fin(batch: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": batch["doc_id"].cast(pa.int64()),
            "n_bpe": batch["ta_n_bpe_tokens"].cast(pa.int64()),
        })

    return out.map_batches(fin, batch_format="pyarrow")


def _group_dispose_feature(sf_dir: str):
    """q38: grouped-terminal dispose ops (reference MAdd/MMul/MSub/MDiv/Conv,
    symbol/functions/npfunc.py:3-61) over an x_group-packed lineitem pair
    [l_extendedprice, l_quantity]; each dispose variant is one output
    column with an exact SQL equivalent."""
    import numpy as np
    import pyarrow as pa
    import ray

    from featurebox_ray.functions.expr import apply_expression

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_linenumber", "l_extendedprice",
                 "l_quantity"])
    G = ["l_extendedprice", "l_quantity"]
    out = li
    for name, e in [
        ("g_madd", ("madd", ("x", 0))),
        ("g_mmul", ("mmul", ("x", 0))),
        ("g_msub", ("msub", ("x", 0))),
        ("g_mdiv", ("mdiv", ("x", 0))),
        ("g_conv_msub", ("msub", ("conv", ("x", 0)))),
    ]:
        out = apply_expression(out, e, columns=[G], out_col=name)

    def fin(batch: pa.Table) -> pa.Table:
        def r(c, nd):
            return pa.array(np.round(
                batch[c].to_numpy(zero_copy_only=False), nd))

        def r_away(c, nd):
            # price/qty has terminating decimal expansions -> exact .5
            # ties at the rounding digit; DuckDB rounds half AWAY from
            # zero while np.round rounds half to even, so replicate
            # DuckDB's rule for the division column
            v = batch[c].to_numpy(zero_copy_only=False)
            s = 10.0 ** nd
            return pa.array(np.sign(v) * np.floor(np.abs(v) * s + 0.5) / s)

        return pa.table({
            "l_orderkey": batch["l_orderkey"].cast(pa.int64()),
            "l_linenumber": batch["l_linenumber"].cast(pa.int64()),
            "g_madd": r("g_madd", 4),
            "g_mmul": r("g_mmul", 4),
            "g_msub": r("g_msub", 4),
            "g_mdiv": r_away("g_mdiv", 6),
            "g_conv_msub": r("g_conv_msub", 4),
        })

    return out.map_batches(fin, batch_format="pyarrow")


def _composition_parse(sf_dir: str):
    """q41: composition-string round trip (reference namespilt analog,
    data/namespilt.py): per-user event compositions are RENDERED as
    name+count strings ("click3error12..."), parsed back with the
    stages/parse.py grammar, and densely expanded over the event-type
    vocabulary; the oracle computes the same dense counts directly from
    events, so the build→parse→expand round trip is value-hash-checked."""
    import numpy as np
    import pyarrow as pa
    import ray

    from featurebox_ray.stages.parse import expand_composition
    from featurebox_ray.stages.partition import group_count, partitioned_map

    VOCAB = ["click", "view", "purchase", "signup", "error"]
    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["user_id", "event_type"])

    def render_part(t: pa.Table) -> pa.Table:
        # whole hash partition: count each (user, type) pair, sort the
        # counts and render every user's composition in one vectorized
        # pass (list-offsets + binary_join), never one UDF call per user
        import pyarrow.compute as pc

        if t.num_rows == 0 or "user_id" not in t.column_names:
            return pa.table({"user_id": pa.array([], pa.int64()),
                             "comp_str": pa.array([], pa.string())})
        t = group_count(t, ["user_id", "event_type"]).sort_by(
            [("user_id", "ascending"), ("event_type", "ascending")])
        uid = t["user_id"].to_numpy(zero_copy_only=False)
        piece = pc.binary_join_element_wise(
            t["event_type"].cast(pa.string()),
            pc.cast(t["count_all"], pa.string()), "")
        if isinstance(piece, pa.ChunkedArray):
            piece = piece.combine_chunks()
        change = np.flatnonzero(uid[1:] != uid[:-1]) + 1
        starts = np.concatenate([[0], change]).astype(np.int64)
        offsets = np.concatenate([starts, [len(uid)]]).astype(np.int32)
        comp = pc.binary_join(
            pa.ListArray.from_arrays(pa.array(offsets), piece), "")
        return pa.table({"user_id": t["user_id"].take(pa.array(starts)),
                         "comp_str": comp})

    strings = partitioned_map(ev, render_part, key="user_id",
                              sort_keys=[],
                              num_partitions=8)
    out = expand_composition(strings, col="comp_str", vocab=VOCAB)

    def fin(batch: pa.Table) -> pa.Table:
        cols = {"user_id": batch["user_id"].cast(pa.int64())}
        for v in VOCAB + ["other"]:
            cols[f"comp_{v}"] = pa.array(
                batch[f"comp_{v}"].to_numpy(zero_copy_only=False)
                .astype(np.int64))
        return pa.table(cols)

    return out.map_batches(fin, batch_format="pyarrow")


def _replays():
    """Load the independent-replay module (sibling file; the driver may
    import __ray_entry__ without /root/repo on sys.path)."""
    try:
        import _oracle_replays as rep

        return rep
    except ImportError:
        import importlib.util
        import os
        import sys

        path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "_oracle_replays.py")
        spec = importlib.util.spec_from_file_location("_oracle_replays", path)
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        sys.modules["_oracle_replays"] = mod
        return mod


def _write_fixture(df, name: str):
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq

    os.makedirs(_ORACLE_DIR, exist_ok=True)
    # atomic: a reader never sees a half-written file
    tmp = f"{_ORACLE_DIR}/{name}.parquet.tmp"
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False), tmp)
    os.replace(tmp, f"{_ORACLE_DIR}/{name}.parquet")


def _multi_ego_rank(sf_dir: str):
    """q40: multi-objective EGO (ref ego/multiplyego.py MutilplyEgo):
    per-objective bootstrap ensembles over two targets derived from
    lineitem, Pareto-front Pi/L, Ei = L*Pi ranking.  Value oracle: an
    independent serial replay (_oracle_replays.replay_multi_ego —
    fsum/scalar Pi/L/Ei) writes the expected top-10 as a fixture the
    DuckDB oracle reads back."""
    import numpy as np
    import pandas as pd

    from featurebox_ray.selection.search import MultiEgo

    X, y, cols = _feature_matrix(sf_dir)
    Xs = X[:2000, :2]
    # two objectives: revenue-ish and its complement spread
    Y = np.column_stack([y[:2000] / y[:2000].max(),
                         1.0 - np.abs(Xs[:, 0]) / (np.abs(Xs[:, 0]).max() + 1)])
    g = np.linspace(Xs.min(0), Xs.max(0), 12)
    grid = np.stack(np.meshgrid(g[:, 0], g[:, 1]), -1).reshape(-1, 2)
    _write_fixture(_replays().replay_multi_ego(Xs, Y, grid, n_models=8,
                                               seed=0),
                   "multi_ego")
    me = MultiEgo(n_models=8, seed=0)
    rank = me.fit_predict(Xs, Y, grid)
    top = rank[:10]
    return pd.DataFrame({
        "rank": range(1, 11),
        "x0": np.round(grid[top, 0], 6),
        "x1": np.round(grid[top, 1], 6),
        "pi": np.round(me.pi_[top], 6),
        "l": np.round(me.l_[top], 6),
        "ei": np.round(me.ei_[top], 6),
    })


def _voronoi_stats(sf_dir: str):
    """q39: Gabriel-graph neighbor type-pair weights per user over
    (rank, value) event points — the count_voronoinn analog
    (stages/voronoi.py); the DuckDB oracle replays the exact midpoint
    test with bit-identical arithmetic."""
    import pyarrow as pa
    import ray

    from featurebox_ray.stages.voronoi import add_voronoi_features

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "ts", "event_type", "value"])
    out = add_voronoi_features(ev, key="user_id",
                               order_cols=("ts", "event_id"),
                               value_col="value", type_col="event_type")

    def fin(batch: pa.Table) -> pa.Table:
        return pa.table({
            "user_id": batch["user_id"].cast(pa.int64()),
            "type_a": batch["type_a"],
            "type_b": batch["type_b"],
            "w": batch["w"],
        })

    return out.map_batches(fin, batch_format="pyarrow")


def _radius_neighbors(sf_dir: str):
    """q42: radius-neighbor multiplicity rows per event over the
    (rank, value) plane — the reference Neighborizer analog
    (featurizers/neighbor.py:18-74: r_max neighbor extraction, 4-dp
    distance rounding, per-(type, distance) multiplicity counts).  The
    DuckDB oracle replays the self-join with the identical direct-form
    sqrt, so every boundary decision is bit-identical."""
    import pyarrow as pa
    import ray

    from featurebox_ray.stages.neighbor import add_radius_neighbors

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "ts", "event_type", "value"])
    out = add_radius_neighbors(ev, key="user_id",
                               order_cols=("ts", "event_id"),
                               value_col="value", type_col="event_type",
                               r_max=3.0, round_nd=4)

    def fin(batch: pa.Table) -> pa.Table:
        return pa.table({
            "user_id": batch["user_id"].cast(pa.int64()),
            "event_id": batch["event_id"],
            "n_type": batch["n_type"],
            "dist": batch["dist"],
            "mult": batch["mult"],
        })

    return out.map_batches(fin, batch_format="pyarrow")


def _skew_probe(sf_dir: str):
    """Key-skew histogram (the salting-decision probe,
    stages/partition.py:key_histogram): rows per user, top 10."""
    import ray

    from featurebox_ray.stages.partition import key_histogram

    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet", columns=["user_id"])
    df = key_histogram(ev, "user_id", top=10)
    return df.rename(columns={"count()": "n_rows"})


def _consensus_rank(sf_dir: str):
    """SUM-style multi-model consensus (ref selection/sum.py:70-282):
    score matrix over an alpha grid -> Pareto front -> mean consensus.
    Value oracle: independent serial replay of the score matrix + Pareto
    + consensus (_oracle_replays.replay_consensus_rank) written as a
    fixture."""
    import numpy as np
    import pandas as pd

    from featurebox_ray.selection.consensus import (
        consensus_ranking, score_matrix)

    rng = np.random.default_rng(13)
    X = rng.normal(size=(200, 5))
    y = X[:, 0] - 0.5 * X[:, 2] + rng.normal(0, 0.1, 200)
    import itertools

    subsets = list(itertools.combinations(range(5), 2))
    _write_fixture(_replays().replay_consensus_rank(X, y, subsets),
                   "consensus_rank")
    S = score_matrix(X, y, subsets)
    ranked = consensus_ranking(S, subsets)
    return pd.DataFrame({
        "rank": range(1, len(ranked) + 1),
        "subset": ["+".join(map(str, s)) for s, _ in ranked],
        "mean_cv_r2": [round(v, 6) for _, v in ranked],
    })


def _expression_feature(sf_dir: str):
    """Expression promotion (ref add_tree_to_features, symbol/base.py:695):
    evaluate (l_quantity + l_tax) * l_discount as a new column via the
    vectorized expression engine."""
    import numpy as np
    import pyarrow as pa
    import ray

    from featurebox_ray.functions.expr import apply_expression

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_linenumber", "l_quantity", "l_discount", "l_tax"])
    expr = ("mul", ("add", ("x", 0), ("x", 2)), ("x", 1))
    out = apply_expression(li, expr,
                           columns=["l_quantity", "l_discount", "l_tax"],
                           out_col="expr_feat")

    def fin(batch: pa.Table) -> pa.Table:
        v = batch["expr_feat"].to_numpy(zero_copy_only=False)
        return pa.table({
            "l_orderkey": batch["l_orderkey"].cast(pa.int64()),
            "l_linenumber": batch["l_linenumber"].cast(pa.int64()),
            "expr_feat": pa.array(np.round(v, 6)),
        })

    return out.map_batches(fin, batch_format="pyarrow")


def _group_select(sf_dir: str):
    """GS prediction-distance clustering (ref selection/ugs.py:200-587) on
    a planted matrix with redundant features.  Value oracle: independent
    serial replay (re-derived DBSCAN via core-graph components +
    fsum Calinski-Harabasz, _oracle_replays.replay_group_select) written
    as a fixture."""
    import numpy as np
    import pandas as pd

    from featurebox_ray.selection.groupsel import GroupSelect

    rng = np.random.default_rng(11)
    X = rng.normal(size=(250, 6))
    X[:, 3] = X[:, 1] + rng.normal(0, 1e-6, 250)  # redundant copy
    y = 2.0 * X[:, 1] + rng.normal(0, 0.05, 250)
    subsets = [(i,) for i in range(6)] + [(1, 3)]
    _write_fixture(_replays().replay_group_select(X, y, subsets),
                   "group_select")
    gs = GroupSelect(seed=0).fit(X, y, subsets)
    return pd.DataFrame({
        "subset": [",".join(map(str, s)) for s in subsets],
        "cluster": gs.labels_.astype(int),
        "cv_r2": np.round(gs.scores_, 6),
    })


def _feature_matrix(sf_dir: str):
    """Small driver-side (X, y) from lineitem numeric columns (the
    selection layer operates on the engine's materialized feature matrix,
    as the reference's selection operates on the featurizer output)."""
    import numpy as np
    import ray

    base = ["l_quantity", "l_discount", "l_tax", "l_partkey", "l_suppkey"]
    ds = ray.data.read_parquet(f"{sf_dir}/lineitem.parquet",
                               columns=base + ["l_extendedprice"])
    t = ds.limit(20000).to_pandas()
    X = t[base].to_numpy(dtype=float)
    # derived crossing features (poly stage output shape): extendedprice is
    # a quantity x price(part) product, only visible to crossed features
    qp = (t["l_quantity"] * t["l_partkey"]).to_numpy(dtype=float)
    X = np.column_stack([X, qp])
    cols = base + ["l_quantity*l_partkey"]
    y = t["l_extendedprice"].to_numpy(dtype=float)
    return X, y, cols


def _subset_select(sf_dir: str):
    """Exhaustion subset search (ref selection/exhaustion.py) — Ray task
    fan-out over all C(n,2)+C(n,3) candidate subsets.

    Value oracle: an independent serial CV replay
    (_oracle_replays.replay_subset_select — einsum Gram + fsum r²)
    recomputes every subset's score and the top-10 ranking as a fixture.
    Note: the synthetic lineitem has no planted predictive relation
    (corr(l_extendedprice, anything) ~ 0), so near-zero CV r2 is the
    correct answer here; the planted-relation parity tests live in
    tests/test_selection_expr.py."""
    import pandas as pd

    from featurebox_ray.selection.search import Exhaustion

    X, y, cols = _feature_matrix(sf_dir)
    _write_fixture(_replays().replay_subset_select(X, y, cols),
                   "subset_select")
    ex = Exhaustion(n_select=(2, 3)).fit(X, y)
    ranked = sorted(ex.all_scores_, key=lambda t: -t[1])[:10]
    return pd.DataFrame({
        "rank": range(1, len(ranked) + 1),
        "subset": ["+".join(cols[i] for i in s) for s, _ in ranked],
        "cv_r2": [round(s, 6) for _, s in ranked],
    })


def _clf_select(sf_dir: str):
    """q43: Exhaustion subset search over a CLASSIFICATION target (ref
    selection/quickmethod.py:44-163 dict_method_clf + exhaustion.py
    dispatch at quickmethod.py:310) — Ray task fan-out scoring every
    C(6,1)+C(6,2) subset with stratified-CV accuracy of the numpy
    logistic model (selection/models.py LogisticRegressionClassifier).

    The label plants a real boundary: hi/lo extendedprice vs its median
    — extendedprice = quantity x price(part), so the crossing feature
    separates it and the top subsets are clear-cut (accuracy ties among
    weak subsets keep candidate order via stable sort on BOTH sides).

    Value oracle: an independent serial replay
    (_oracle_replays.replay_clf_select — lstsq-IRLS logistic, re-derived
    stratified folds, exact-ratio accuracy) writes the expected top-10
    as a fixture the DuckDB oracle reads back.  Accuracy is an integer
    ratio, so the two solvers' ulp-level coefficient differences cannot
    move any reported value."""
    import numpy as np
    import pandas as pd

    from featurebox_ray.selection.search import Exhaustion

    X, y_reg, cols = _feature_matrix(sf_dir)
    X, y_reg = X[:5000], y_reg[:5000]
    # shared data prep (not part of either implementation under test):
    # standardized features, binary hi/lo label at the median
    mx, sx = X.mean(axis=0), X.std(axis=0)
    Xs = (X - mx) / np.where(sx > 0, sx, 1.0)
    y = np.where(y_reg > np.median(y_reg), "hi", "lo")
    _write_fixture(_replays().replay_clf_select(Xs, y, cols,
                                                n_select=(1, 2), k=4),
                   "clf_select")
    ex = Exhaustion(n_select=(1, 2), model="LogR", k=4).fit(Xs, y)
    ranked = sorted(ex.all_scores_, key=lambda t: -t[1])[:10]
    return pd.DataFrame({
        "rank": range(1, len(ranked) + 1),
        "subset": ["+".join(cols[i] for i in s) for s, _ in ranked],
        "cv_acc": [round(s, 6) for _, s in ranked],
    })


def _grid_search_cv(sf_dir: str):
    """q44: hyper-parameter grid search (ref selection/quickmethod.py
    316-346 `method_pack` wraps every zoo entry in GridSearchCV) — the
    engine's `selection.grid.GridSearchCV` broadcasts X/y to the object
    store once and scores every alpha combo in parallel Ray tasks
    (k-fold ridge CV, selection/models.py `cv_score_model`), then marks
    the first-max best combo (np.argmax tie-break).

    Value oracle: an independent serial replay
    (_oracle_replays.replay_grid_search — einsum/fsum ridge normal
    equations + fsum r², re-derived folds from the same split spec)
    writes the expected per-combo table as a fixture the DuckDB oracle
    reads back.  Distinct alphas on a smooth CV curve keep every score
    gap ≫ the ~1e-13 solver coupling, so 6-dp rounding and the is_best
    argmax are both stable."""
    import numpy as np
    import pandas as pd

    from featurebox_ray.selection.grid import GridSearchCV
    from featurebox_ray.selection.models import Ridge

    X, y, _cols = _feature_matrix(sf_dir)
    X, y = X[:8000], y[:8000]
    mx, sx = X.mean(axis=0), X.std(axis=0)
    Xs = (X - mx) / np.where(sx > 0, sx, 1.0)
    alphas = [1e3, 1e2, 10.0, 1.0, 0.1, 1e-2, 1e-3]
    _write_fixture(_replays().replay_grid_search(Xs, y, alphas, k=5),
                   "grid_search")
    gs = GridSearchCV(Ridge(), {"alpha": alphas}, cv=5,
                      scoring="r2").fit(Xs, y)
    scores = gs.cv_results_["mean_test_score"]
    best = int(np.argmax(scores))
    return pd.DataFrame({
        "combo_id": np.arange(1, len(alphas) + 1, dtype=np.int64),
        "alpha": [float(a) for a in alphas],
        "cv_r2": [round(s, 6) for s in scores],
        "is_best": [i == best for i in range(len(alphas))],
    })


def _rotate_slices_q(sf_dir: str):
    """q46: rotated-plane 3-D slicing sweep (ref data/array_extract.py
    rotatespilt) — embeddings reshaped to deterministic (4,4,4) volumes,
    swept at 30 deg steps block-parallel via `rotate_slices_fn`
    (functions/tensor.py: one step-by-candidate argpartition + one fancy
    gather per angle), summarised per (volume, angle).

    Value oracle: an independent serial replay
    (_oracle_replays.replay_rotate_slices — per-step loop, one fiber at a
    time, the reference's own shape) writes the expected table as a
    fixture the DuckDB oracle reads back."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq
    import ray

    from featurebox_ray.functions.tensor import rotate_slices_fn

    # independent replay over the same rows, read serially
    t = pq.read_table(f"{sf_dir}/embeddings.parquet",
                      columns=["vec_id", "embedding"])
    keep = pc.equal(pc.bit_wise_and(t["vec_id"], 7), 0)  # vec_id % 8 == 0
    t_small = t.filter(keep)
    vols = [(int(i), np.asarray(e, np.float64).reshape(4, 4, 4))
            for i, e in zip(t_small["vec_id"].to_pylist(),
                            t_small["embedding"].to_pylist())]
    _write_fixture(_replays().replay_rotate_slices(vols, angle_deg=30.0,
                                                   axis=0),
                   "rotate_slices")

    def to_vols(batch: pa.Table) -> pa.Table:
        ids = batch["vec_id"].to_pylist()
        embs = batch["embedding"].to_pylist()
        sel = [(i, e) for i, e in zip(ids, embs) if i % 8 == 0]
        return pa.table({
            "vol_id": pa.array([i for i, _ in sel], pa.int64()),
            "tensor": pa.array([[float(v) for v in e] for _, e in sel],
                               pa.list_(pa.float64())),
            "shape": pa.array([[4, 4, 4]] * len(sel), pa.list_(pa.int64())),
        })

    def summarise(batch: pa.Table) -> pa.Table:
        sums, firsts, ncols = [], [], []
        for flat, shp in zip(batch["slice"].to_pylist(),
                             batch["slice_shape"].to_pylist()):
            arr = np.asarray(flat, np.float64).reshape(shp)
            ncols.append(int(arr.shape[1]))
            sums.append(round(float(np.sum(arr)), 6))
            firsts.append(round(float(arr[0, 0]), 6))
        return pa.table({
            "vol_id": batch["vol_id"],
            "angle_deg": batch["angle_deg"],
            "n_cols": pa.array(ncols, pa.int64()),
            "slice_sum": pa.array(sums, pa.float64()),
            "slice_first": pa.array(firsts, pa.float64()),
        })

    ds = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet",
                               columns=["vec_id", "embedding"])
    ds = ds.map_batches(to_vols, batch_format="pyarrow")
    ds = ds.map_batches(lambda b: rotate_slices_fn(b, angle=30.0, axis=0),
                        batch_format="pyarrow")
    return ds.map_batches(summarise, batch_format="pyarrow")


def _http_fetch_q(sf_dir: str):
    """q47: distributed HTTP-JSON ingest (ref data/fetcher_pymatgen.py
    data_fetcher) — the documents table's ids fan out as a Dataset
    (`sources/fetch.fetch_records`, ids never materialize on the driver),
    each task POSTs chunked Mongo-style `$in` queries to an endpoint and
    emits schema-stable record blocks.  The endpoint here is a loopback
    server computing every property as an EXACT arithmetic function of
    the id (0.125 steps, halves, integers — all binary-representable),
    so the DuckDB oracle recomputes the identical table directly from
    `documents` with no fixture and no rounding."""
    import http.server
    import json as _json
    import threading

    import ray

    from featurebox_ray.sources.fetch import fetch_records

    def _rec(i: int) -> dict:
        return {
            "material_id": str(i),
            "band_gap": (i % 97) * 0.125,
            "density": (i % 13) + 0.5,
            "volume": float(i % 1000),
            "nelements": float(i % 5 + 1),
        }

    class H(http.server.BaseHTTPRequestHandler):
        def log_message(self, *a):  # noqa: D102
            pass

        def do_POST(self):
            body = _json.loads(
                self.rfile.read(int(self.headers["Content-Length"])))
            ids = body["criteria"]["material_id"]["$in"]
            props = body["properties"]
            out = [{p: v for p, v in _rec(int(s)).items() if p in props}
                   for s in ids]
            payload = _json.dumps(out).encode()
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)

    # one server per process, reused across invocations (bench/gate call
    # this repeatedly in one driver) — no socket/thread accumulation
    srv = getattr(_http_fetch_q, "_srv", None)
    if srv is None:
        srv = http.server.ThreadingHTTPServer(("127.0.0.1", 0), H)
        threading.Thread(target=srv.serve_forever, daemon=True).start()
        _http_fetch_q._srv = srv
    endpoint = f"http://127.0.0.1:{srv.server_address[1]}/query"

    import pyarrow as pa

    def to_ids(batch: pa.Table) -> pa.Table:
        ids = [i for i in batch["doc_id"].to_pylist() if i % 3 == 0]
        return pa.table({"material_id": pa.array([str(i) for i in ids],
                                                 pa.string())})

    ids_ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                   columns=["doc_id"])
    ids_ds = ids_ds.map_batches(to_ids, batch_format="pyarrow")
    props = ["material_id", "band_gap", "density", "volume", "nelements"]
    return fetch_records(endpoint, ids_ds, props=props,
                         numeric_props=("band_gap", "density", "volume",
                                        "nelements"),
                         chunk_size=16)


def _kmv_distinct_q(sf_dir: str):
    """q48: KMV (k-minimum-values) distinct-count sketch per event_type —
    mergeable approximate COUNT(DISTINCT user_id) (beyond-reference scale
    operator; exact counterpart is q05).  md5-based hashing makes the
    sketch exactly replayable in SQL: DuckDB recomputes the identical
    60-bit hashes, row_numbers them per group and applies the same
    (k-1)/u_k estimator, so k_used/kth_hash/est_distinct all value-hash."""
    import ray

    from featurebox_ray.stages.sketch import kmv_distinct

    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["event_type", "user_id"])
    return kmv_distinct(ev, group_col="event_type", value_col="user_id",
                        k=64)


def _interval_join_q(sf_dir: str):
    """q49: broadcast interval (range) join — per event_type the top-10
    events by value anchor ±2h windows; every event whose ts falls in a
    window [lo, hi) joins it (pure range predicate, NO equality key).
    The interval side broadcasts once; the fact side streams with two
    searchsorted probes per batch (beyond-reference operator; the as-of
    analog is q10).  Aggregates are order-independent-exact: counts and
    int64 id sums, min/max doubles."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray

    from featurebox_ray.stages.interval import (broadcast_interval_join,
                                                top_k_per_group)
    from featurebox_ray.stages.partition import partitioned_map

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "event_type", "ts", "value"])
    # mirror the oracle's WHERE value IS NOT NULL on the anchor side
    import pyarrow.compute as _pc

    anchor_src = ev.map_batches(
        lambda b: b.filter(_pc.is_valid(b["value"])),
        batch_format="pyarrow", zero_copy_batch=True)
    anchors = top_k_per_group(anchor_src, group_col="event_type",
                              order_col="value", tie_col="event_id", k=10,
                              keep_cols=["event_id", "ts"])
    ts_us = anchors["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
    H2 = 2 * 3600 * 1_000_000  # ±2h in microseconds
    intervals = pa.table({
        "win_id": anchors["event_id"].cast(pa.int64()),
        "lo": pa.array(ts_us - H2, pa.int64()),
        "hi": pa.array(ts_us + H2, pa.int64()),
    })
    joined = broadcast_interval_join(ev, intervals, ts_col="ts",
                                     keep_cols=["event_id", "value"])

    def partial(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        g = df.groupby("win_id", as_index=False, sort=False).agg(
            n_events=("event_id", "size"), id_sum=("event_id", "sum"),
            v_min=("value", "min"), v_max=("value", "max"))
        return pa.Table.from_pandas(g, preserve_index=False
                                    ).replace_schema_metadata(None)

    def combine(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        g = df.groupby("win_id", as_index=False, sort=False).agg(
            n_events=("n_events", "sum"), id_sum=("id_sum", "sum"),
            v_min=("v_min", "min"), v_max=("v_max", "max"))
        return pa.table({
            "win_id": pa.array(g["win_id"].to_numpy(np.int64)),
            "n_events": pa.array(g["n_events"].to_numpy(np.int64)),
            "id_sum": pa.array(g["id_sum"].to_numpy(np.int64)),
            "v_min": pa.array(np.round(g["v_min"].to_numpy(np.float64), 6)),
            "v_max": pa.array(np.round(g["v_max"].to_numpy(np.float64), 6)),
        })

    partials = joined.map_batches(partial, batch_format="pyarrow",
                                  zero_copy_batch=True)
    return partitioned_map(partials, combine, key="win_id",
                           sort_keys=["win_id"], num_partitions=1)


def _hash_sample_q(sf_dir: str):
    """q50: deterministic multiplicative-hash sample (5% of order keys,
    exact-arithmetic replayable in SQL HUGEINT) → grouped money sums over
    the sample.  Stable across runs/partitionings/cluster sizes — the
    shuffle-free estimation sample a 100-TB pipeline debugs with
    (beyond-reference operator)."""
    import numpy as np
    import pyarrow as pa
    import ray

    from featurebox_ray.stages.partition import partitioned_map
    from featurebox_ray.stages.sample import hash_sample, sample_threshold

    ds = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_returnflag", "l_linestatus", "l_quantity",
                 "l_extendedprice"])
    ds = hash_sample(ds, key_col="l_orderkey",
                     threshold=sample_threshold(0.05))

    def partial(t: pa.Table) -> pa.Table:
        qty = t["l_quantity"].to_numpy(zero_copy_only=False)
        price = t["l_extendedprice"].to_numpy(zero_copy_only=False)
        t = t.select(["l_returnflag", "l_linestatus"])
        t = t.append_column("qty_i", pa.array(
            np.round(qty * 100).astype(np.int64)))
        t = t.append_column("price_i", pa.array(
            np.round(price * 100).astype(np.int64)))
        df = t.to_pandas()
        g = df.groupby(["l_returnflag", "l_linestatus"], as_index=False,
                       sort=False).agg(n_rows=("qty_i", "size"),
                                       qty_i=("qty_i", "sum"),
                                       price_i=("price_i", "sum"))
        return pa.Table.from_pandas(g, preserve_index=False
                                    ).replace_schema_metadata(None)

    def combine(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        g = df.groupby(["l_returnflag", "l_linestatus"], as_index=False,
                       sort=False).agg(n_rows=("n_rows", "sum"),
                                       qty_i=("qty_i", "sum"),
                                       price_i=("price_i", "sum"))
        import numpy as np
        return pa.table({
            "l_returnflag": pa.array(g["l_returnflag"]),
            "l_linestatus": pa.array(g["l_linestatus"]),
            "n_rows": pa.array(g["n_rows"].to_numpy(np.int64)),
            "sum_qty": pa.array(np.round(
                g["qty_i"].to_numpy(np.float64) / 100.0, 4)),
            "sum_price": pa.array(np.round(
                g["price_i"].to_numpy(np.float64) / 100.0, 4)),
        })

    partials = ds.map_batches(partial, batch_format="pyarrow",
                              zero_copy_batch=True)
    return partitioned_map(partials, combine, key="l_returnflag",
                           sort_keys=["l_returnflag", "l_linestatus"],
                           num_partitions=1)


def _group_quantiles_q(sf_dir: str):
    """q51: exact distributed per-group order statistics — p50/p90/p99 of
    events.value per event_type (beyond-reference operator; lifts the
    reference's per-entry PropertyStats.quantile to a grouped aggregate).
    Values are exact data elements picked at DuckDB's quantile_disc rank
    max(ceil(q*n)-1, 0), so the oracle matches bit-exactly, no rounding."""
    import ray

    from featurebox_ray.stages.quantile import group_quantiles

    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["event_type", "value"])
    return group_quantiles(ev, group_col="event_type", value_col="value",
                           qs=[0.5, 0.9, 0.99], num_partitions=8)


def _batch_files_q(sf_dir: str):
    """q54: batch file discovery + filter + distributed VASP-POSCAR ingest
    (ref tools/imports.py:206-344 BatchFile walk/filter semantics +
    data/fetcher_vasp.py ingest, pymatgen replaced by a stdlib parser).
    A deterministic POSCAR tree is generated from documents.doc_id (every
    field an exact binary fraction of the id), so the DuckDB oracle
    recomputes the parsed table directly from `documents` — full
    value-hash, no fixture.  The pipeline exercises name filtering
    (junk.txt dropped), dir-layer filtering (g2 subtrees excluded) and
    the cofactor-determinant volume."""
    import os

    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq
    import ray

    from featurebox_ray.sources.files import (discover_files, filter_files,
                                              read_poscar_fn)

    ids = pq.read_table(f"{sf_dir}/documents.parquet", columns=["doc_id"]
                        )["doc_id"].to_numpy(zero_copy_only=False)
    ids = np.sort(ids[ids % 5 == 0])
    tag = f"{len(ids)}_{int(ids[-1]) if len(ids) else 0}_v1"
    root = f"/tmp/fbr_vasp_trees/{tag}"
    marker = f"{root}/.done"
    if not os.path.exists(marker):
        # build under a temp name, atomic rename (concurrent gate/bench
        # runs share the tree; same ids -> same bytes)
        tmp = f"{root}.build{os.getpid()}"
        for i in ids.tolist():
            s = 1.0 + (i % 8) * 0.125
            a = 2 + (i % 5) * 0.25
            b = 3 + (i % 7) * 0.5
            c = 1 + (i % 3) * 0.25
            dd = (i % 4) * 0.25
            n1, n2 = 1 + i % 3, 1 + i % 4
            n = n1 + n2
            d = f"{tmp}/g{i % 3}/s{i}"
            os.makedirs(d, exist_ok=True)
            coords = "\n".join(f"{j * 0.0625!r} 0.25 0.5" for j in range(n))
            with open(f"{d}/POSCAR", "w") as fh:
                fh.write(f"doc {i}\n{s!r}\n{a!r} 0.0 0.0\n{dd!r} {b!r} 0.0\n"
                         f"0.0 0.0 {c!r}\nSi O\n{n1} {n2}\nDirect\n"
                         f"{coords}\n")
            with open(f"{d}/junk.txt", "w") as fh:
                fh.write("not a poscar")
        open(f"{tmp}/.done", "w").close()
        try:
            os.rename(tmp, root)
        except OSError:
            pass  # another run won the race; its tree is identical
    ds = discover_files(root)
    ds = filter_files(ds, name_include="POSCAR", dir_exclude="g2",
                      layer=-2)
    parsed = ds.map_batches(read_poscar_fn, batch_format="pyarrow")

    def finish(batch: pa.Table) -> pa.Table:
        doc_id = pc.cast(pc.utf8_replace_slice(batch["comment"], 0, 4, ""),
                         pa.int64())
        return pa.table({
            "doc_id": doc_id,
            "n_atoms": batch["n_atoms"],
            "scale": batch["scale"],
            "volume": batch["volume"],
            "x_sum": batch["x_sum"],
        })

    return parsed.map_batches(finish, batch_format="pyarrow")


def _cap_per_group_q(sf_dir: str):
    """q55: deterministic per-group row cap — keep the 7 docs per source
    with the smallest (knuth_hash(doc_id), doc_id): the dataset-balancing
    primitive (cap documents per domain before training).  Two-pass: tiny
    per-group top-m exchange, then a broadcast winner-id semi-join filter;
    pure function of ids, so SQL replays it with the identical hash."""
    import ray

    from featurebox_ray.stages.sample import cap_per_group

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["doc_id", "source", "n_chars"])
    return cap_per_group(docs, group_col="source", id_col="doc_id", m=7)


def _kmeans_q(sf_dir: str):
    """q57: distributed k-means (Lloyd's, 5 iterations, k=8) over the
    embeddings table — the iterative-algorithm shape (per-iteration
    centroid broadcast + streaming partial sums).  Exactness contract
    (stages/kmeans.py docstring): dyadic quantization makes every
    per-cluster sum EXACT under any block structure, so the serial numpy
    replay (same arithmetic, zero distribution) is bit-identical — the
    fixture oracle needs no rounding at all."""
    import os

    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray

    from featurebox_ray.stages.kmeans import (_iterate_serial, assign,
                                              kmeans_cluster_stats,
                                              quantize)

    K, ITERS, QB, SD = 8, 5, 10, 3

    # ---- serial replay fixture (independent single-process recompute) --
    t = pq.read_table(f"{sf_dir}/embeddings.parquet",
                      columns=["vec_id", "embedding"])
    order = np.argsort(t["vec_id"].to_numpy(zero_copy_only=False),
                       kind="stable")
    t_sorted = t.take(pa.array(order, pa.int64()))
    ids = t_sorted["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    arr = t_sorted["embedding"].combine_chunks()
    x = quantize(arr.flatten().to_numpy(zero_copy_only=False)
                 .reshape(len(arr), -1), QB)
    _, a = _iterate_serial(x, K, ITERS)
    cols = {"cluster": pa.array(np.arange(K), pa.int64())}
    n = np.bincount(a, minlength=K).astype(np.int64)
    id_sum = np.zeros(K, np.int64)
    np.add.at(id_sum, a, ids)
    xx = (x ** 2).sum(axis=-1)
    xx_sum = np.zeros(K, np.float64)
    np.add.at(xx_sum, a, xx)
    cols.update({"n": pa.array(n), "id_sum": pa.array(id_sum),
                 "xx_sum": pa.array(xx_sum)})
    for d in range(SD):
        s = np.zeros(K, np.float64)
        np.add.at(s, a, x[:, d])
        cols[f"s{d}"] = pa.array(s)
    os.makedirs(_ORACLE_DIR, exist_ok=True)
    pq.write_table(pa.table(cols), f"{_ORACLE_DIR}/kmeans_stats.parquet.tmp")
    os.replace(f"{_ORACLE_DIR}/kmeans_stats.parquet.tmp",
               f"{_ORACLE_DIR}/kmeans_stats.parquet")

    # ---- distributed engine run ----------------------------------------
    ds = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet",
                               columns=["vec_id", "embedding"])
    return kmeans_cluster_stats(ds, vec_col="embedding", id_col="vec_id",
                                k=K, iters=ITERS, quant_bits=QB,
                                stat_dims=SD)


def _tfidf_q(sf_dir: str):
    """q53: distributed TF-IDF over documents — per-batch TF + partial DF,
    one term-keyed exchange for the global DF, broadcast vocabulary,
    top-3 terms per doc.  IDF is the exact rational N/df (no ln: libm
    ulps differ between engines), so tf*(N/df) is two IEEE ops DuckDB
    reproduces bit-exactly — full value-hash, no rounding, including the
    (tfidf DESC, term ASC) tie-break."""
    import ray

    from featurebox_ray.stages.tfidf import tfidf_topk

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["doc_id", "text"])
    return tfidf_topk(docs, id_col="doc_id", text_col="text", k=3)


def _symbolic_golden(sf_dir: str):
    """Golden-recovery: plant (x0+x1)*(x2-x3) and recover it via the
    exhaustive height-2 expression search (ref Instance2 height_2.py).

    Value oracle: the affine-fitted predictions of the recovered
    expression on the first 50 rows — identical for EVERY algebraically
    exact recovery (sign/commutation variants fold into the fitted
    (a, b)), and bit-equal to the planted target, which the fixture
    recomputes in scalar Python."""
    import numpy as np
    import pandas as pd

    from featurebox_ray.functions.expr import eval_expr, golden_recover

    rng = np.random.default_rng(7)
    X = rng.normal(size=(200, 5))
    y = (X[:, 0] + X[:, 1]) * (X[:, 2] - X[:, 3])
    n_probe = 50

    # independent scalar replay of the planted target (the expected
    # prediction of any exact recovery)
    planted = np.array([
        (float(X[i, 0]) + float(X[i, 1]))
        * (float(X[i, 2]) - float(X[i, 3])) for i in range(n_probe)])
    _write_fixture(pd.DataFrame({
        "row_id": np.arange(n_probe, dtype=np.int64),
        "y_hat": np.round(planted, 6),
        "r2": np.full(n_probe, 1.0),
    }), "symbolic_golden")

    best, score = golden_recover(X, y)
    cols = [np.ascontiguousarray(X[:, j]) for j in range(X.shape[1])]
    v = eval_expr(best, cols)
    vc, yc = v - v.mean(), y - y.mean()
    den = float(vc @ vc)
    a = float(vc @ yc) / den if den > 0 else 0.0
    b = float(y.mean() - a * v.mean())
    y_hat = a * v + b
    return pd.DataFrame({
        "row_id": np.arange(n_probe, dtype=np.int64),
        "y_hat": np.round(y_hat[:n_probe], 6),
        "r2": np.full(n_probe, round(score, 9)),
    })


def _ego_rank(sf_dir: str):
    """EGO active-learning ranker (ref ego/ego.py): bootstrap ensemble →
    EI over a search grid → top-10.  Value oracle: independent serial
    replay of the bootstrap ensemble + closed-form EI
    (_oracle_replays.replay_ego_rank) written as a fixture."""
    import numpy as np
    import pandas as pd

    from featurebox_ray.selection.search import Ego

    X, y, cols = _feature_matrix(sf_dir)
    Xs, ys = X[:2000, :2], y[:2000]
    g = np.linspace(Xs.min(0), Xs.max(0), 15)
    grid = np.stack(np.meshgrid(g[:, 0], g[:, 1]), -1).reshape(-1, 2)
    _write_fixture(_replays().replay_ego_rank(Xs, ys, grid, n_models=8,
                                              seed=0),
                   "ego_rank")
    ego = Ego(n_models=8, seed=0)
    rank = ego.fit_predict(Xs, ys, grid)
    top = rank[:10]
    return pd.DataFrame({
        "rank": range(1, 11),
        "x0": np.round(grid[top, 0], 6),
        "x1": np.round(grid[top, 1], 6),
        "ei": np.round(ego.ei_[top], 6),
    })


def _bloom_semi_q(sf_dir: str):
    """q58: Bloom-filtered EXACT semi join (WHERE EXISTS) — lineitems of
    high-value orders (o_totalprice > 400000, ~20% of orders).  The
    bloom bitmap (1<<17 bits = 16 KiB here; 128 KiB at the 1<<20
    default) broadcasts instead of the key set; bloom
    misses drop before the verify exchange, so the single all-to-all
    moves ~matches+ε rows, not the whole lineitem table.  Aggregated per
    returnflag with exact int64 sums (qty integral; price in 1e-4
    units) so values replay bit-exactly under any summation order."""
    import numpy as np
    import pyarrow as pa
    import ray

    from featurebox_ray.stages.bloom import bloom_semi_join
    from featurebox_ray.stages.partition import partitioned_map

    orders = ray.data.read_parquet(f"{sf_dir}/orders.parquet",
                                   columns=["o_orderkey", "o_totalprice"])

    def high_value(b: pa.Table) -> pa.Table:
        keep = b["o_totalprice"].to_numpy(zero_copy_only=False) > 400000.0
        return b.filter(pa.array(keep)).select(["o_orderkey"])

    hv = orders.map_batches(high_value, batch_format="pyarrow",
                            zero_copy_batch=True)
    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_returnflag", "l_quantity",
                 "l_extendedprice"])
    semi = bloom_semi_join(li, hv, on="l_orderkey", right_on="o_orderkey",
                           num_bits=1 << 17, num_partitions=16)

    def partial(b: pa.Table) -> pa.Table:
        import pandas as pd

        qty = np.round(b["l_quantity"].to_numpy(zero_copy_only=False)
                       ).astype(np.int64)
        price_i = np.round(b["l_extendedprice"].to_numpy(
            zero_copy_only=False) * 10000.0).astype(np.int64)
        df = pd.DataFrame({
            "l_returnflag": b["l_returnflag"].to_pandas(),
            "n_items": np.ones(b.num_rows, np.int64),
            "sum_qty": qty, "price_i": price_i,
        }).groupby("l_returnflag", as_index=False).sum()
        return pa.Table.from_pandas(df, preserve_index=False)

    partials = semi.map_batches(partial, batch_format="pyarrow",
                                zero_copy_batch=True)

    def combine(t: pa.Table) -> pa.Table:
        import pandas as pd

        df = (t.to_pandas().groupby("l_returnflag", as_index=False).sum())
        return pa.table({
            "l_returnflag": pa.array(df["l_returnflag"]),
            "n_items": pa.array(df["n_items"].to_numpy(np.int64)),
            "sum_qty": pa.array(df["sum_qty"].to_numpy(np.int64)),
            "sum_price": pa.array(np.round(
                df["price_i"].to_numpy(np.float64) / 10000.0, 4)),
        })

    return partitioned_map(partials, combine, key="l_returnflag",
                           sort_keys=["l_returnflag"], num_partitions=1)


def _bloom_anti_q(sf_dir: str):
    """q59: Bloom-filtered EXACT anti join (WHERE NOT EXISTS) — orders
    NOT placed by BUILDING-segment customers.  Bloom misses (definitely
    unmatched, no false negatives) stream straight to the output with no
    exchange; only the ~20% bloom hits ride the verify exchange.  Raw
    left rows out — bit-exact trivially."""
    import pyarrow as pa
    import ray

    from featurebox_ray.stages.bloom import bloom_anti_join

    cust = ray.data.read_parquet(f"{sf_dir}/customer.parquet",
                                 columns=["c_custkey", "c_mktsegment"])

    def building(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return (b.filter(pc.equal(b["c_mktsegment"], "BUILDING"))
                .select(["c_custkey"]))

    seg = cust.map_batches(building, batch_format="pyarrow",
                           zero_copy_batch=True)
    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_totalprice",
                 "o_orderpriority"])
    return bloom_anti_join(orders, seg, on="o_custkey",
                           right_on="c_custkey", num_bits=1 << 15,
                           num_partitions=16)


def _rank_family_q(sf_dir: str):
    """q60: SQL window-rank family — row_number/rank/dense_rank/
    percent_rank/cume_dist per user over (value, event_id).  One keyed
    exchange + O(n) numpy prefix math per sorted partition;
    percent_rank/cume_dist are single int/int IEEE divisions, so the
    DuckDB window functions replay them bit-exactly."""
    import ray

    from featurebox_ray.stages.rank import rank_in_group

    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["event_id", "user_id", "value"])
    return rank_in_group(ev, group_col="user_id", value_col="value",
                         tie_col="event_id", num_partitions=16)


def _hist_quantiles_q(sf_dir: str):
    """q61: mergeable histogram-quantile sketch — the at-scale fallback
    to q51's exact per-group quantiles when a group cannot co-locate.
    Fixed dyadic bins (width 0.125 = 2^-3, so value/width is an exact
    exponent shift) make the per-(group,bin) counts order-independent-
    exact; the exchange moves only (group, bin, count) partials.  The
    reported value is the lower edge of the bin holding the
    quantile_disc rank — deterministic, error ≤ bin width, and every
    arithmetic step replays bit-exactly in SQL."""
    import ray

    from featurebox_ray.stages.quantile import histogram_quantiles

    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["event_type", "value"])
    return histogram_quantiles(ev, group_col="event_type",
                               value_col="value", qs=[0.5, 0.9, 0.99],
                               bin_width=0.125, num_partitions=8)


def _top_terms_q(sf_dir: str):
    """q62: exact global heavy hitters — top-10 terms by document
    frequency.  Per-block partial counts, one term-keyed exchange sums
    them, partition-local top-k (sound after global summation), one
    final pick.  Total order (count desc, term asc) makes the LIMIT
    boundary deterministic and SQL-replayable."""
    import ray

    from featurebox_ray.stages.tfidf import top_terms

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["doc_id", "text"])
    return top_terms(docs, k=10, by="doc_freq", num_partitions=8)


def _stratified_sample_q(sf_dir: str):
    """q63: deterministic stratified hash sample — the corpus-rebalance
    primitive: keep 100% zh, 50% de, 25% en, 12.5% of everything else,
    decided by the same Knuth multiplicative hash as q50 so the SQL
    replay is the identical integer arithmetic under a CASE."""
    import ray

    from featurebox_ray.stages.sample import stratified_hash_sample

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet",
        columns=["doc_id", "lang", "source", "n_chars"])
    return stratified_hash_sample(
        docs, key_col="doc_id", group_col="lang",
        fractions={"en": 0.25, "de": 0.5, "zh": 1.0},
        default_fraction=0.125)


def _cont_quantiles_q(sf_dir: str):
    """q64: interpolated per-group quantiles — DuckDB quantile_cont
    parity (RN = q·(n-1) in float64, (⌈RN⌉-RN)·lo + (RN-⌊RN⌋)·hi with
    DuckDB's exact operation order), complementing q51's discrete picks.
    Doubles value-hash bit-exactly — no rounding."""
    import ray

    from featurebox_ray.stages.quantile import group_quantiles

    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["event_type", "value"])
    return group_quantiles(ev, group_col="event_type", value_col="value",
                           qs=[0.25, 0.5, 0.875],
                           names=["p25_c", "p50_c", "p875_c"],
                           num_partitions=8, interpolated=True)


def _rollup_q(sf_dir: str):
    """q65: ROLLUP(l_returnflag, l_linestatus) in one pass — per-block
    finest-level partials, one g1-keyed exchange emitting both complete
    levels, a tiny final combine for the grand total.  lvl mirrors SQL
    GROUPING(g1, g2); qty pre-scaled ×100 to int64 so every sum is
    order-independent-exact."""
    import numpy as np
    import pyarrow as pa
    import ray

    from featurebox_ray.stages.rollup import rollup_counts

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_returnflag", "l_linestatus", "l_quantity"])

    def scale(b: pa.Table) -> pa.Table:
        q = np.round(b["l_quantity"].to_numpy(zero_copy_only=False)
                     * 100.0).astype(np.int64)
        return (b.select(["l_returnflag", "l_linestatus"])
                .append_column("qty_c", pa.array(q)))

    li = li.map_batches(scale, batch_format="pyarrow", zero_copy_batch=True)
    out = rollup_counts(li, g1="l_returnflag", g2="l_linestatus",
                        int_sum_cols=["qty_c"], num_partitions=8)

    def finish(b: pa.Table) -> pa.Table:
        import numpy as np

        s = b["sum_qty_c"].to_numpy(zero_copy_only=False).astype(np.float64)
        return (b.select(["l_returnflag", "l_linestatus", "lvl", "n_rows"])
                .append_column("sum_qty", pa.array(np.round(s / 100.0, 4))))

    return out.map_batches(finish, batch_format="pyarrow",
                           zero_copy_batch=True)


def _pivot_q(sf_dir: str):
    """q66: per-user event-type count vector — the pivot/feature-
    materialization shape (one int64 column per category, count mode).
    Fixed-width per-block partials (np.add.at into a groups×categories
    matrix), one user-keyed exchange sums them; category list passed
    explicitly so the schema is static."""
    import ray

    from featurebox_ray.stages.pivot import pivot_agg

    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["user_id", "event_type"])
    cats = ["click", "error", "purchase", "signup", "view"]
    return pivot_agg(ev, group_col="user_id", cat_col="event_type",
                     categories=cats, num_partitions=8)


def _weighted_sample_q(sf_dir: str):
    """q67: deterministic weighted sample without replacement — the
    quality-weighted corpus downsampler (Efraimidis-Spirakis A-ES with
    hash-derived uniforms, so the draw is a pure function of doc_id).
    Top-50 documents by n_chars weight.  The score uses pow (libm ulps
    differ across engines), so the oracle is an independent serial
    numpy replay written as a fixture — bit-exact, no rounding."""
    import numpy as np
    import pandas as pd
    import pyarrow.parquet as pq
    import ray

    from featurebox_ray.stages.sample import (MOD, knuth_hash,
                                              weighted_sample_k)

    # independent serial replay over the whole table (no Ray, no engine
    # partials): score every doc, take the top-50 by (score desc, id)
    t = pq.read_table(f"{sf_dir}/documents.parquet",
                      columns=["doc_id", "n_chars"])
    ids = t["doc_id"].to_numpy().astype(np.int64)
    w = t["n_chars"].to_numpy().astype(np.float64)
    u = (knuth_hash(ids).astype(np.float64) + 0.5) / float(MOD)
    score = u ** (1.0 / w)
    order = np.lexsort((ids, -score))[:50]
    _write_fixture(pd.DataFrame({
        "doc_id": ids[order], "n_chars": w[order].astype(np.int64),
        "ws_score": score[order]}), "weighted_sample")

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["doc_id", "n_chars"])
    return weighted_sample_k(docs, key_col="doc_id",
                             weight_col="n_chars", k=50)


def _chunk_docs_q(sf_dir: str):
    """q68: document chunking — fixed 32-token windows with 8-token
    overlap (stride 24), one row per chunk: the LLM-training row
    expander.  Pure streaming flat-map (no shuffle); the kernel builds
    every chunk's token indices with one ragged arange + one Arrow take
    + binary_join (zero per-row Python).  DuckDB replays the identical
    spec with generate_series over list slices."""
    import ray

    from featurebox_ray.stages.chunk import chunk_documents

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["doc_id", "text"])
    return chunk_documents(docs, chunk_tokens=32, overlap=8)


def _serial_next_fit(ids, toks, budget):
    """Pure-python next-fit replay, INDEPENDENT of stages/pack.py: the
    Knuth hash is written out inline and packing is a plain loop, so a
    bug in the engine's vectorized searchsorted packing cannot hide in
    a shared helper.  Returns (ordered_ids, ordered_toks, local_pack,
    pack_pos) for ONE bucket."""
    h = [((int(i) % 4294967296) * 2654435761) % 4294967296 for i in ids]
    order = sorted(range(len(ids)), key=lambda j: (h[j], int(ids[j])))
    local_pack, pack_pos = [], []
    pack = -1
    acc = None
    for j in order:
        t = int(toks[j])
        if acc is None or acc + t > budget:
            pack += 1
            acc = 0
            pos = 0
        local_pack.append(pack)
        pack_pos.append(pos)
        acc += t
        pos += 1
    import numpy as np

    return ([int(ids[j]) for j in order], [int(toks[j]) for j in order],
            np.asarray(local_pack, np.int64), np.asarray(pack_pos, np.int64))


def _pack_sequences_q(sf_dir: str):
    """q69: deterministic sequence packing — docs assigned to
    2000-char-budget packs (next-fit over a hash-shuffled deterministic
    order, docs never split; the training-batch constructor downstream
    of chunking).  Packing is order-defined, so the oracle is an
    INDEPENDENT serial replay (pure-python next-fit + inline hash, no
    engine pack helpers)."""
    import numpy as np
    import pandas as pd
    import pyarrow.parquet as pq
    import ray

    from featurebox_ray.stages.pack import PACK_SHIFT, pack_sequences

    BUDGET, P, B = 2000, 8, 256
    t = pq.read_table(f"{sf_dir}/documents.parquet",
                      columns=["doc_id", "n_chars"])
    ids = t["doc_id"].to_numpy().astype(np.int64)
    tok = t["n_chars"].to_numpy().astype(np.int64)
    bucket = np.asarray(
        [((int(i) % 4294967296) * 2654435761) % 4294967296 % B
         for i in ids], np.int64)
    rows = []
    for b in sorted(set(bucket.tolist())):
        m = bucket == b
        bi, bt, local_pack, pos = _serial_next_fit(ids[m], tok[m], BUDGET)
        rows.append(pd.DataFrame({
            "doc_id": bi, "n_chars": bt,
            "pack_id": (np.int64(b) << np.int64(PACK_SHIFT)) + local_pack,
            "pack_pos": pos}))
    _write_fixture(pd.concat(rows, ignore_index=True), "pack_sequences")

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["doc_id", "n_chars"])
    return pack_sequences(docs, id_col="doc_id", n_tokens_col="n_chars",
                          budget=BUDGET, num_partitions=P, n_buckets=B)


def _llm_prep_q(sf_dir: str):
    """q70: end-to-end LLM training-data prep COMPOSITION — documents →
    token-window chunking (32/8, q68 spec) → deterministic sequence
    packing of the chunks into 128-token budgets (q69 spec, chunk ids
    = doc_id·2^20 + chunk_idx).  Exercises operator chaining: the
    flat-map expansion feeds the keyed packing exchange directly, no
    materialization between stages.  Oracle: independent serial replay
    (python str.split chunking + the per-bucket next-fit arithmetic)."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray

    from featurebox_ray.stages.chunk import chunk_documents
    from featurebox_ray.stages.pack import PACK_SHIFT, pack_sequences

    K, OV, BUDGET, P, B = 32, 8, 128, 8, 256

    # --- independent serial replay (no Ray, no engine chunk kernel) ---
    t = pq.read_table(f"{sf_dir}/documents.parquet",
                      columns=["doc_id", "text"])
    rows = []
    for did, tx in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
        toks = (tx or "").split()
        for ci, start in enumerate(range(0, len(toks), K - OV)):
            sel = toks[start:start + K]
            rows.append((did * (1 << 20) + ci, did, ci, len(sel)))
            if start + K >= len(toks):
                break
    rep = pd.DataFrame(rows, columns=["chunk_id", "doc_id", "chunk_idx",
                                      "n_tokens"])
    cid = rep["chunk_id"].to_numpy(np.int64)
    bucket = np.asarray(
        [((int(i) % 4294967296) * 2654435761) % 4294967296 % B
         for i in cid], np.int64)
    meta = {int(r.chunk_id): (int(r.doc_id), int(r.chunk_idx))
            for r in rep.itertuples()}
    outs = []
    for b in sorted(set(bucket.tolist())):
        m = bucket == b
        oi, ot, lp, pos = _serial_next_fit(
            rep["chunk_id"].to_numpy(np.int64)[m],
            rep["n_tokens"].to_numpy(np.int64)[m], BUDGET)
        outs.append(pd.DataFrame({
            "chunk_id": oi,
            "doc_id": [meta[i][0] for i in oi],
            "chunk_idx": [meta[i][1] for i in oi],
            "n_tokens": ot,
            "pack_id": (np.int64(b) << np.int64(PACK_SHIFT)) + lp,
            "pack_pos": pos}))
    _write_fixture(pd.concat(outs, ignore_index=True), "llm_prep")

    # --- the engine pipeline ---
    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["doc_id", "text"])
    chunks = chunk_documents(docs, chunk_tokens=K, overlap=OV)

    def add_id(bt: pa.Table) -> pa.Table:
        did = bt["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        ci = bt["chunk_idx"].to_numpy(zero_copy_only=False)
        out = bt.drop_columns(["chunk_text"])
        return out.append_column(
            "chunk_id", pa.array(did * (1 << 20) + ci))

    chunks = chunks.map_batches(add_id, batch_format="pyarrow",
                                zero_copy_batch=True)
    packed = pack_sequences(chunks, id_col="chunk_id",
                            n_tokens_col="n_tokens", budget=BUDGET,
                            num_partitions=P, n_buckets=B)
    return packed.map_batches(
        lambda b: b.select(["chunk_id", "doc_id", "chunk_idx", "n_tokens",
                            "pack_id", "pack_pos"]),
        batch_format="pyarrow", zero_copy_batch=True)


def _quantile_bin_q(sf_dir: str):
    """q71: per-group quantile binning — each event's value discretized
    into its event_type's quartile bucket (the distribution-aware
    feature discretizer).  Edges are exact quantile_disc data elements,
    so the <= comparisons and buckets replay bit-exactly in SQL."""
    import ray

    from featurebox_ray.stages.binning import quantile_bin

    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["event_id", "event_type", "value"])
    return quantile_bin(ev, group_col="event_type", value_col="value",
                        qs=(0.25, 0.5, 0.75), num_partitions=8)


def oracle_sql() -> dict[str, str]:
    from featurebox_ray.stages.text import _LANG_STOPWORDS
    from featurebox_ray.stages.zorder import morton_sql_expr

    def _inlist(ws):
        return ", ".join(f"'{w}'" for w in ws)

    ratio_cols = ",\n".join(
        f"    CAST(len(list_filter(t, x -> lower(x) IN ({_inlist(ws)}))) "
        f"AS DOUBLE) / greatest(1, len(t)) AS r_{lg}"
        for lg, ws in _LANG_STOPWORDS.items())
    q26 = f"""
        WITH base AS (
          SELECT doc_id, text, regexp_extract_all(text, '\\S+') AS t
          FROM documents
        ),
        r AS (
          SELECT doc_id, text, t, len(t) AS ntok,
{ratio_cols}
          FROM base
        ),
        fp AS (
          -- zero-token docs fingerprint as '' (engine semantics), not
          -- md5('') — exclude them here, coalesce below supplies ''
          SELECT doc_id,
                 min(md5(array_to_string(list_slice(t, i, i + 4), ' '))) AS fp
          FROM base, LATERAL unnest(range(1, greatest(len(t) - 3, 2))) AS u(i)
          WHERE len(t) > 0
          GROUP BY doc_id
        )
        SELECT CAST(r.doc_id AS BIGINT) AS doc_id,
          CASE WHEN greatest(r_en, r_de, r_fr, r_es) <= 0.05 THEN 'und'
               WHEN r_en >= r_de AND r_en >= r_fr AND r_en >= r_es THEN 'en'
               WHEN r_de >= r_fr AND r_de >= r_es THEN 'de'
               WHEN r_fr >= r_es THEN 'fr' ELSE 'es' END AS ta_lang,
          round(least(1.0, ntok / 20.0)
            * (1 - least(1.0, CAST(len(regexp_extract_all(text, '[^\\w\\s]'))
                                   AS DOUBLE) / greatest(1, length(text)) * 4))
            * (1 - least(1.0, CAST(len(regexp_extract_all(text, '[A-Z]'))
                                   AS DOUBLE) / greatest(1, length(text)) * 2)),
            6) AS ta_quality,
          round(greatest(r_en, r_de, r_fr, r_es), 6) AS ta_stopword_ratio,
          len(regexp_extract_all(text, '[A-Za-z]+|[0-9]+|[^\\sA-Za-z0-9]'))
            AS ta_n_bpe_tokens,
          coalesce(fp.fp, '') AS ta_fingerprint
        FROM r LEFT JOIN fp ON fp.doc_id = r.doc_id
    """
    def _half_cols(lexpr, sfx):
        return ",\n".join(
            f"    CAST(len(list_filter({lexpr}, x -> lower(x) IN "
            f"({_inlist(ws)}))) AS DOUBLE) / greatest(1, len({lexpr}))"
            f" AS r_{lg}_{sfx}"
            for lg, ws in _LANG_STOPWORDS.items())

    def _pick(sfx):
        return f"""CASE
          WHEN greatest(r_en_{sfx}, r_de_{sfx}, r_fr_{sfx},
                        r_es_{sfx}) <= 0.05 THEN 'und'
          WHEN r_en_{sfx} >= r_de_{sfx} AND r_en_{sfx} >= r_fr_{sfx}
               AND r_en_{sfx} >= r_es_{sfx} THEN 'en'
          WHEN r_de_{sfx} >= r_fr_{sfx} AND r_de_{sfx} >= r_es_{sfx}
               THEN 'de'
          WHEN r_fr_{sfx} >= r_es_{sfx} THEN 'fr' ELSE 'es' END"""

    q294 = f"""
        WITH base AS (
          SELECT doc_id, regexp_extract_all(text, '\\S+') AS t
          FROM documents
          WHERE doc_id IS NOT NULL AND text IS NOT NULL
        ),
        hh AS (
          SELECT doc_id,
                 list_slice(t, 1, len(t) // 2) AS th,
                 list_slice(t, len(t) // 2 + 1, len(t)) AS tt
          FROM base
        ),
        r AS (
          SELECT doc_id,
{_half_cols("th", "h")},
{_half_cols("tt", "t")}
          FROM hh
        ),
        p AS (
          SELECT doc_id, {_pick("h")} AS lang_head,
                 {_pick("t")} AS lang_tail
          FROM r
        )
        SELECT doc_id, lang_head, lang_tail,
               (lang_head <> lang_tail AND lang_head <> 'und'
                AND lang_tail <> 'und') AS mixed
        FROM p
    """
    sess_cte = f"""
        WITH d AS (
          SELECT event_id, user_id, ts, value,
                 epoch(ts - lag(ts) OVER (PARTITION BY user_id
                                          ORDER BY ts, event_id)) AS gap
          FROM events),
        s AS (
          SELECT event_id, user_id, ts, value,
                 CAST(SUM(CASE WHEN gap IS NULL OR gap > {GAP_S} THEN 1 ELSE 0 END)
                      OVER (PARTITION BY user_id ORDER BY ts, event_id
                            ROWS UNBOUNDED PRECEDING) - 1 AS BIGINT) AS session_id
          FROM d)
    """

    # q187: three unrolled fixed-point PageRank iterations (all BIGINT/
    # HUGEINT integer arithmetic — bit-exact vs the engine's int64 path)
    _PR_S = 1 << 40
    _PR_T = (3 * _PR_S) // 20
    _pr_iters = []
    for _i in range(1, 4):
        _prev = f"r{_i - 1}"
        _pr_iters.append(f"""
        c{_i} AS (
          SELECT e.dst AS node, sum(r.r // d.outdeg) AS s
          FROM pr_edges e
          JOIN pr_deg d ON e.src = d.src
          JOIN {_prev} r ON r.node = e.src
          GROUP BY e.dst),
        r{_i} AS (
          SELECT {_prev}.node,
                 CAST({_PR_T} + (17 * coalesce(c{_i}.s, 0)) // 20
                      AS BIGINT) AS r
          FROM {_prev} LEFT JOIN c{_i} ON {_prev}.node = c{_i}.node)""")
    q187 = f"""
        WITH pr_pairs AS (
          SELECT DISTINCT l_partkey AS p, l_suppkey AS s FROM lineitem
          WHERE l_partkey IS NOT NULL AND l_suppkey IS NOT NULL),
        pr_edges AS (
          SELECT p * 2 AS src, s * 2 + 1 AS dst FROM pr_pairs
          UNION ALL
          SELECT s * 2 + 1 AS src, p * 2 AS dst FROM pr_pairs),
        pr_deg AS (SELECT src, CAST(count(*) AS BIGINT) AS outdeg
                   FROM pr_edges GROUP BY src),
        r0 AS (SELECT src AS node, CAST({_PR_S} AS BIGINT) AS r
               FROM pr_deg),{','.join(_pr_iters)}
        SELECT CASE WHEN node % 2 = 0 THEN 'part' ELSE 'supplier' END
                 AS kind,
               node // 2 AS key, r AS rank
        FROM r3
    """

    # q193: the engine's Soundex is an RE2 substitution chain — build
    # the identical chain in SQL from the same class table
    from featurebox_ray.stages.phonetic import _CLASSES as _SDX

    _sdx_expr = "nm"
    for _pat, _rep in _SDX:
        _sdx_expr = (f"regexp_replace({_sdx_expr}, '{_pat}', "
                     f"'{_rep}', 'g')")
    for _d in "0123456":
        _sdx_expr = (f"regexp_replace({_sdx_expr}, '{_d}+', "
                     f"'{_d}', 'g')")
    q193 = f"""
        WITH s AS (
          SELECT p_partkey,
                 upper(regexp_replace(coalesce(p_name, ''),
                                      '[^A-Za-z]', '', 'g')) AS nm
          FROM part),
        m AS (SELECT p_partkey, nm, {_sdx_expr} AS code FROM s)
        SELECT p_partkey,
               CASE WHEN nm = '' THEN NULL
                    ELSE substr(nm, 1, 1)
                         || substr(replace(substr(code, 2), '0', '')
                                   || '000', 1, 3) END AS soundex
        FROM m
    """

    # q202: soundex of the LAST name word blocks; integer agreement
    # weights (brand 3, type 2, size 2), threshold 5
    q202 = f"""
        WITH s AS (
          SELECT p_partkey, p_brand, p_type, p_size,
                 upper(regexp_replace(
                     regexp_replace(coalesce(p_name, ''), '^.*\\s', ''),
                     '[^A-Za-z]', '', 'g')) AS nm
          FROM part),
        m AS (SELECT *, {_sdx_expr} AS code FROM s),
        k AS (SELECT p_partkey, p_brand, p_type, p_size,
                     CASE WHEN nm = '' THEN NULL
                          ELSE substr(nm, 1, 1)
                               || substr(replace(substr(code, 2),
                                                 '0', '') || '000',
                                         1, 3) END AS blk
              FROM m),
        kk AS (SELECT * FROM k WHERE blk IS NOT NULL),
        ok AS (SELECT blk FROM kk GROUP BY blk
               HAVING count(*) <= 4096),
        p AS (SELECT kk.* FROM kk JOIN ok USING (blk)),
        j AS (SELECT a.p_partkey AS id_a, b.p_partkey AS id_b,
                     CAST(CASE WHEN a.p_brand = b.p_brand
                               THEN 3 ELSE 0 END
                        + CASE WHEN a.p_type = b.p_type
                               THEN 2 ELSE 0 END
                        + CASE WHEN a.p_size = b.p_size
                               THEN 2 ELSE 0 END AS BIGINT) AS score
              FROM p a JOIN p b
                ON a.blk = b.blk AND a.p_partkey < b.p_partkey)
        SELECT id_a, id_b, score FROM j WHERE score >= 5
    """

    # q247: golden records — q202's matched pairs, transitive closure
    # via a recursive CTE (UNION dedup; components are tiny dup
    # families), per-field QUALIFY mode with (count desc, value asc)
    q247 = f"""
        WITH RECURSIVE pr AS ({q202}),
        sym AS (SELECT id_a AS a, id_b AS b FROM pr
                UNION ALL SELECT id_b, id_a FROM pr),
        mnodes AS (SELECT DISTINCT a AS n FROM sym),
        clos(node, r) AS (
          SELECT n, n FROM mnodes
          UNION
          SELECT s.b, c.r FROM clos c JOIN sym s ON s.a = c.node),
        ent AS (SELECT node, CAST(min(r) AS BIGINT) AS entity
                FROM clos GROUP BY node),
        rec AS (SELECT coalesce(e.entity, p.p_partkey) AS entity,
                       p.p_brand, p.p_type, p.p_size
                FROM part p
                LEFT JOIN ent e ON e.node = p.p_partkey),
        nm AS (SELECT entity, CAST(count(*) AS BIGINT) AS n_members
               FROM rec GROUP BY entity),
        wb AS (SELECT entity, p_brand AS v FROM rec
               WHERE p_brand IS NOT NULL
               GROUP BY entity, p_brand
               QUALIFY row_number() OVER (
                   PARTITION BY entity
                   ORDER BY count(*) DESC, p_brand) = 1),
        wt AS (SELECT entity, p_type AS v FROM rec
               WHERE p_type IS NOT NULL
               GROUP BY entity, p_type
               QUALIFY row_number() OVER (
                   PARTITION BY entity
                   ORDER BY count(*) DESC, p_type) = 1),
        ws AS (SELECT entity, p_size AS v FROM rec
               WHERE p_size IS NOT NULL
               GROUP BY entity, p_size
               QUALIFY row_number() OVER (
                   PARTITION BY entity
                   ORDER BY count(*) DESC, p_size) = 1)
        SELECT n.entity, n.n_members, wb.v AS p_brand,
               wt.v AS p_type, ws.v AS p_size
        FROM nm n
        LEFT JOIN wb ON wb.entity = n.entity
        LEFT JOIN wt ON wt.entity = n.entity
        LEFT JOIN ws ON ws.entity = n.entity
    """

    return {
        "q247_golden_records": q247,
        # closed-form component labels: star width 5 + 8-head chains
        # make each 40-id block one component (see _min_components_q)
        "q303_components": """
            SELECT doc_id,
                   CAST(doc_id - doc_id % 40 AS BIGINT) AS component
            FROM documents
        """,
        # completeness matrix: one UNION-ALL branch per column, exact
        # counts, one division
        "q322_group_completeness": """
            WITH m AS (
              SELECT source, 'text' AS col,
                     CAST(count(*) AS BIGINT) AS n,
                     CAST(count(*) FILTER (text IS NULL OR text = '')
                          AS BIGINT) AS n_missing
              FROM documents GROUP BY source
              UNION ALL
              SELECT source, 'lang',
                     CAST(count(*) AS BIGINT),
                     CAST(count(*) FILTER (lang IS NULL OR lang = '')
                          AS BIGINT)
              FROM documents GROUP BY source
              UNION ALL
              SELECT source, 'n_chars',
                     CAST(count(*) AS BIGINT),
                     CAST(count(*) FILTER (n_chars IS NULL)
                          AS BIGINT)
              FROM documents GROUP BY source)
            SELECT source, col, n, n_missing,
                   CAST(n - n_missing AS DOUBLE) / CAST(n AS DOUBLE)
                     AS fill_rate
            FROM m
        """,
        # scrub accounting: per-doc removal sums over the shared CDC
        # replay fixture vs octet lengths (engine measures n_after
        # from the actually-scrubbed bytes)
        "q321_scrub_dedup": f"""
            WITH c AS (SELECT * FROM read_parquet(
                         '{_ORACLE_DIR}/cdc_chunks_w16m7l800.parquet')),
            f AS (SELECT chunk_hash, length, min(doc_id) AS fd
                  FROM c GROUP BY 1, 2 HAVING count(*) > 1),
            rm AS (SELECT c.doc_id,
                          CAST(sum(c.length) AS BIGINT) AS removed
                   FROM c JOIN f USING (chunk_hash, length)
                   WHERE c.doc_id != f.fd GROUP BY c.doc_id),
            d AS (SELECT doc_id,
                         CAST(octet_length(encode(text)) AS BIGINT)
                           AS nb
                  FROM documents
                  WHERE doc_id IS NOT NULL AND text IS NOT NULL
                    AND octet_length(encode(text)) > 0)
            SELECT d.doc_id, d.nb AS n_before,
                   CAST(coalesce(rm.removed, 0) AS BIGINT)
                     AS n_removed,
                   d.nb - CAST(coalesce(rm.removed, 0) AS BIGINT)
                     AS n_after
            FROM d LEFT JOIN rm USING (doc_id)
        """,
        # dup regions: HAVING>1 classes over the shared CDC replay
        "q320_dup_regions": f"""
            WITH c AS (SELECT * FROM read_parquet(
                         '{_ORACLE_DIR}/cdc_chunks_w16m7l800.parquet')),
            f AS (SELECT chunk_hash, length,
                         CAST(count(*) AS BIGINT) AS n_copies,
                         CAST(min(doc_id) AS BIGINT) AS first_doc
                  FROM c GROUP BY 1, 2 HAVING count(*) > 1)
            SELECT c.doc_id, c.start, c.length, f.n_copies,
                   f.first_doc
            FROM c JOIN f USING (chunk_hash, length)
        """,
        # leakage audit: independent inequality join recomputes the
        # per-user match counts; a correct engine join has 0 mismatches
        "q319_leakage_audit": """
            WITH l AS (
              SELECT event_id, user_id, epoch_us(ts) AS t
              FROM events
              WHERE user_id IS NOT NULL AND ts IS NOT NULL),
            r AS (
              SELECT user_id, epoch_us(ts) AS t FROM events
              WHERE event_type = 'error' AND user_id IS NOT NULL
                AND ts IS NOT NULL),
            m AS (
              SELECT l.user_id, l.event_id, max(r.t) AS mt
              FROM l LEFT JOIN r
                ON r.user_id = l.user_id AND r.t <= l.t
              GROUP BY 1, 2)
            SELECT user_id,
                   CAST(count(*) AS BIGINT) AS n_rows,
                   CAST(count(mt) AS BIGINT) AS n_matched,
                   CAST(0 AS BIGINT) AS n_mismatch
            FROM m GROUP BY user_id
        """,
        # event spans: FULL JOIN of row_number-ranked starts/ends
        "q318_event_spans": """
            WITH e AS (
              SELECT user_id AS k, epoch_us(ts) AS t, event_id AS o,
                     event_type AS ty
              FROM events
              WHERE user_id IS NOT NULL AND ts IS NOT NULL
                AND event_id IS NOT NULL
                AND event_type IN ('click', 'purchase')),
            s AS (SELECT k, t,
                         row_number() OVER (PARTITION BY k
                                            ORDER BY t, o) - 1 AS r
                  FROM e WHERE ty = 'click'),
            x AS (SELECT k, t,
                         row_number() OVER (PARTITION BY k
                                            ORDER BY t, o) - 1 AS r
                  FROM e WHERE ty = 'purchase')
            SELECT coalesce(s.k, x.k) AS user_id,
                   CAST(coalesce(s.r, x.r) AS BIGINT) AS span_idx,
                   s.t AS start_ts, x.t AS end_ts,
                   x.t - s.t AS duration
            FROM s FULL JOIN x ON s.k = x.k AND s.r = x.r
        """,
        # CDC dup share: SQL rollup OVER the independent serial CDC
        # replay — chunking and dedup rollup both externally checked
        "q317_cdc_dup_share": f"""
            WITH c AS (SELECT * FROM read_parquet(
                         '{_ORACLE_DIR}/cdc_chunks_w16m7l800.parquet')),
            f AS (SELECT chunk_hash, length, min(doc_id) AS fd
                  FROM c GROUP BY 1, 2),
            d AS (SELECT c.doc_id,
                         CAST(count(*) AS BIGINT) AS n_chunks,
                         CAST(count(*) FILTER (f.fd < c.doc_id)
                              AS BIGINT) AS n_dup_chunks
                  FROM c JOIN f USING (chunk_hash, length)
                  GROUP BY c.doc_id)
            SELECT doc_id, n_chunks, n_dup_chunks,
                   CAST(n_dup_chunks AS DOUBLE)
                     / CAST(n_chunks AS DOUBLE) AS dup_share
            FROM d
        """,
        # CDC chunks: independent serial rolling-hash replay fixture
        "q316_cdc_chunks": f"""
            SELECT doc_id, chunk_idx, start, length, chunk_hash
            FROM read_parquet('{_ORACLE_DIR}/cdc_chunks_w16m7l800.parquet')
        """,
        # embedding drift: HUGEINT unnest centroid sums per
        # (label, half), signed cos^2 = one division of exact products
        "q315_embedding_drift": """
            WITH cut AS (SELECT min(vec_id) + (max(vec_id)
                                - min(vec_id)) * 1 // 2 AS c
                         FROM embeddings
                         WHERE label IS NOT NULL
                           AND vec_id IS NOT NULL
                           AND embedding IS NOT NULL),
            e AS (SELECT label,
                         CAST(vec_id > cut.c AS INT) AS side,
                         embedding
                  FROM embeddings, cut
                  WHERE label IS NOT NULL AND vec_id IS NOT NULL
                    AND embedding IS NOT NULL),
            u AS (SELECT label, side, i AS d,
                         CAST(floor(CAST(embedding[i] AS DOUBLE)
                                    * 1024 + 0.5) AS BIGINT) AS q
                  FROM e,
                       unnest(range(1, len(embedding) + 1)) AS r(i)),
            s AS (SELECT label, side, d, sum(q) AS sv
                  FROM u GROUP BY 1, 2, 3),
            n AS (SELECT label, side, count(*) AS nv
                  FROM e GROUP BY 1, 2),
            dotp AS (SELECT a.label, sum(a.sv * b.sv) AS dot
                     FROM s a JOIN s b ON a.label = b.label
                          AND a.d = b.d AND a.side = 0
                          AND b.side = 1
                     GROUP BY a.label),
            nrm AS (SELECT label, side, sum(sv * sv) AS s2
                    FROM s GROUP BY 1, 2),
            lbl AS (SELECT label FROM e GROUP BY label)
            SELECT lbl.label,
                   CAST(coalesce(nb.nv, 0) AS BIGINT) AS n_before,
                   CAST(coalesce(na.nv, 0) AS BIGINT) AS n_after,
                   CASE WHEN nb.nv IS NULL OR na.nv IS NULL
                             OR n0.s2 = 0 OR n1.s2 = 0 THEN NULL
                        WHEN dotp.dot < 0 THEN
                          -(CAST(dotp.dot * dotp.dot AS DOUBLE)
                            / CAST(n0.s2 * n1.s2 AS DOUBLE))
                        ELSE CAST(dotp.dot * dotp.dot AS DOUBLE)
                             / CAST(n0.s2 * n1.s2 AS DOUBLE)
                   END AS cos2_signed
            FROM lbl
            LEFT JOIN (SELECT label, nv FROM n WHERE side = 0) nb
              USING (label)
            LEFT JOIN (SELECT label, nv FROM n WHERE side = 1) na
              USING (label)
            LEFT JOIN dotp USING (label)
            LEFT JOIN (SELECT label, s2 FROM nrm WHERE side = 0) n0
              USING (label)
            LEFT JOIN (SELECT label, s2 FROM nrm WHERE side = 1) n1
              USING (label)
        """,
        # latency profile: lag gaps + quantile_disc elements (q51
        # rank convention; q64 CAST-the-q-literal trick)
        "q314_latency_profile": """
            WITH e AS (
              SELECT user_id AS k, epoch_us(ts) AS t, event_id AS o
              FROM events
              WHERE user_id IS NOT NULL AND ts IS NOT NULL
                AND event_id IS NOT NULL),
            g AS (SELECT k, t - lag(t) OVER (PARTITION BY k
                                             ORDER BY t, o) AS gap
                  FROM e),
            gg AS (SELECT k, gap FROM g WHERE gap IS NOT NULL),
            s AS (SELECT k, CAST(count(*) AS BIGINT) AS cnt,
                         CAST(quantile_disc(gap,
                              CAST(0.5 AS DOUBLE)) AS BIGINT)
                           AS median_gap,
                         CAST(quantile_disc(gap,
                              CAST(0.9 AS DOUBLE)) AS BIGINT)
                           AS p90_gap,
                         CAST(max(gap) AS BIGINT) AS max_gap
                  FROM gg GROUP BY k),
            base AS (SELECT k FROM e GROUP BY k)
            SELECT base.k AS user_id,
                   CAST(coalesce(s.cnt, 0) AS BIGINT) AS n_gaps,
                   s.median_gap, s.p90_gap, s.max_gap
            FROM base LEFT JOIN s ON base.k = s.k
        """,
        # coverage curve: min rn with cw*100 >= pct*tot (ints only);
        # cw at a rank is tie-order-invariant (equal weights)
        "q313_coverage_curve": """
            WITH d AS (SELECT n_chars AS w FROM documents
                       WHERE n_chars IS NOT NULL AND n_chars >= 0),
            t AS (SELECT sum(w) AS tot FROM d),
            r AS (SELECT w,
                         row_number() OVER (ORDER BY w DESC) AS rn,
                         sum(w) OVER (ORDER BY w DESC
                                      ROWS UNBOUNDED PRECEDING) AS cw
                  FROM d),
            p(pct) AS (VALUES (50), (80), (90), (95), (99)),
            sel AS (SELECT p.pct, min(r.rn) AS n_rows
                    FROM p, r, t
                    WHERE r.cw * 100 >= p.pct * t.tot
                    GROUP BY p.pct)
            SELECT CAST(sel.pct AS BIGINT) AS pct,
                   CAST(sel.n_rows AS BIGINT) AS n_rows,
                   CAST(r.cw AS BIGINT) AS covered_weight
            FROM sel JOIN r ON r.rn = sel.n_rows
        """,
        # finalized tumbling: q52 aggregate + watermark HAVING cut
        "q312_finalized_windows": """
            SELECT user_id,
                   (epoch_us(ts) // 21600000000) * 21600000000
                     AS w_start,
                   count(*) AS n_events,
                   CAST(sum(event_id) AS BIGINT) AS id_sum,
                   round(min(value), 6) AS v_min,
                   round(max(value), 6) AS v_max
            FROM events
            GROUP BY user_id, (epoch_us(ts) // 21600000000)
            HAVING (epoch_us(ts) // 21600000000) * 21600000000
                   + 21600000000
                   <= (SELECT max(epoch_us(ts)) FROM events)
                      - 86400000000
        """,
        # salted time window: identical to the plain RANGE window
        # (halo replication only changes routing); cents exact
        "q311_salted_time_window": """
            SELECT user_id, epoch_us(ts) AS ts, event_id,
                   CAST(sum(CAST(round(coalesce(value, 0) * 100)
                                 AS BIGINT)) OVER
                     (PARTITION BY user_id ORDER BY epoch_us(ts)
                      RANGE BETWEEN 600000000 PRECEDING
                            AND CURRENT ROW) AS BIGINT) AS w_sum
            FROM events
            WHERE ts IS NOT NULL
        """,
        # salted running total: identical to the plain window (the
        # salting only changes ROUTING); cents exact, ts as int64 us
        "q310_salted_running_total": """
            SELECT user_id, epoch_us(ts) AS ts, event_id,
                   CAST(sum(CAST(round(coalesce(value, 0) * 100)
                                 AS BIGINT)) OVER
                     (PARTITION BY user_id ORDER BY ts, event_id
                      ROWS UNBOUNDED PRECEDING) AS BIGINT)
                     AS running_sum
            FROM events
            WHERE ts IS NOT NULL
        """,
        # delta contributors: midpoint cut (q217 arithmetic), exact
        # cents per (dim, side), share = one division of exact ints
        "q309_delta_contributors": """
            WITH e AS (
              SELECT epoch_us(ts) AS t, event_type AS d,
                     CAST(round(coalesce(value, 0) * 100) AS BIGINT)
                       AS c
              FROM events
              WHERE ts IS NOT NULL AND event_type IS NOT NULL),
            s AS (SELECT min(t) + (max(t) - min(t)) * 1 // 2 AS cut
                  FROM e),
            g AS (
              SELECT d,
                     CAST(coalesce(sum(CASE WHEN t <= s.cut THEN c
                                        END), 0) AS BIGINT)
                       AS cents_before,
                     CAST(coalesce(sum(CASE WHEN t > s.cut THEN c
                                        END), 0) AS BIGINT)
                       AS cents_after
              FROM e, s GROUP BY d),
            tot AS (SELECT sum(cents_after - cents_before) AS td
                    FROM g)
            SELECT d AS event_type, cents_before, cents_after,
                   cents_after - cents_before AS delta,
                   CASE WHEN tot.td = 0 THEN NULL
                        ELSE CAST(cents_after - cents_before
                                  AS DOUBLE) / CAST(tot.td AS DOUBLE)
                   END AS share
            FROM g, tot
        """,
        # dialogue profile: gaps-and-islands runs, all exact ints
        "q308_dialogue_profile": """
            WITH e AS (
              SELECT user_id, event_type, ts, event_id FROM events
              WHERE user_id IS NOT NULL AND event_type IS NOT NULL
                AND ts IS NOT NULL AND event_id IS NOT NULL),
            r AS (
              SELECT user_id, event_type,
                     row_number() OVER (PARTITION BY user_id
                                        ORDER BY ts, event_id)
                   - row_number() OVER (PARTITION BY user_id,
                                        event_type
                                        ORDER BY ts, event_id) AS isl
              FROM e),
            runs AS (
              SELECT user_id, count(*) AS run_len
              FROM r GROUP BY user_id, event_type, isl),
            a1 AS (
              SELECT user_id, CAST(count(*) AS BIGINT) AS n_runs,
                     CAST(max(run_len) AS BIGINT) AS max_run
              FROM runs GROUP BY user_id),
            a2 AS (
              SELECT user_id, CAST(count(*) AS BIGINT) AS n_turns,
                     CAST(count(DISTINCT event_type) AS BIGINT)
                       AS n_types
              FROM e GROUP BY user_id)
            SELECT a2.user_id, n_turns, n_runs, max_run, n_types
            FROM a2 JOIN a1 USING (user_id)
        """,
        # median imputation: fill value = exact quantile_disc element
        # (selection, q51 convention); injected NULLs at event_id%7
        "q307_impute_median": """
            WITH e AS (
              SELECT event_id, event_type,
                     CASE WHEN event_id % 7 = 0 THEN NULL
                          ELSE value END AS value
              FROM events),
            m AS (
              SELECT event_type,
                     quantile_disc(value, CAST(0.5 AS DOUBLE)) AS med
              FROM e
              WHERE event_type IS NOT NULL AND value IS NOT NULL
                AND isfinite(value)
              GROUP BY event_type)
            SELECT e.event_id, e.event_type,
                   CASE WHEN e.value IS NULL THEN m.med
                        ELSE e.value END AS value_filled,
                   CAST(e.value IS NULL AND m.med IS NOT NULL
                        AS BIGINT) AS was_imputed
            FROM e LEFT JOIN m ON e.event_type = m.event_type
        """,
        # provenance read: events.parquet is written in event_id order
        # as one file (verified file_row_number == event_id at every
        # SF), so the physical stamps the engine derives from footer
        # row-group offsets must equal (constant basename, event_id)
        "q306_provenance_read": """
            SELECT event_id,
                   'events.parquet' AS _file,
                   CAST(event_id AS BIGINT) AS _row
            FROM events
        """,
        # rolling extrema: min/max are SELECTIONS (no arithmetic) of
        # the stored doubles -> ROWS-window replay is bit-exact; the
        # WHERE mirrors the engine's drop predicate
        "q305_rolling_extrema": """
            SELECT user_id, event_id,
                   CAST(count(*) OVER w AS BIGINT) AS w,
                   min(value) OVER w AS vmin,
                   max(value) OVER w AS vmax
            FROM events
            WHERE user_id IS NOT NULL AND ts IS NOT NULL
              AND event_id IS NOT NULL AND value IS NOT NULL
              AND isfinite(value)
            WINDOW w AS (PARTITION BY user_id
                         ORDER BY ts, event_id
                         ROWS BETWEEN 4 PRECEDING AND CURRENT ROW)
        """,
        # salted join: routing-only optimization, plain-join replay
        "q304_salted_join": """
            SELECT e.event_id, e.user_id, c.c_mktsegment
            FROM events e
            JOIN customer c ON e.user_id = c.c_custkey
        """,
        # skew report: exact hottest-key counts + one division each
        "q302_skew_report": """
            WITH e AS (SELECT user_id FROM events
                       WHERE user_id IS NOT NULL),
            t AS (SELECT CAST(count(*) AS BIGINT) AS total FROM e),
            c AS (SELECT user_id, CAST(count(*) AS BIGINT) AS n
                  FROM e GROUP BY user_id)
            SELECT user_id, n,
                   CAST(n AS DOUBLE) / CAST(t.total AS DOUBLE)
                       AS share
            FROM c, t ORDER BY n DESC, user_id LIMIT 10
        """,
        # redaction audit: replay the scrub, count literal markers by
        # length arithmetic, prove zero residual matches
        "q301_redaction_audit": r"""
            WITH src AS (
              SELECT text FROM documents WHERE text IS NOT NULL
            ),
            r AS (
              SELECT regexp_replace(text, '\b(spark|hash|join)\b',
                                    '[REDACTED]', 'g') AS clean,
                     len(regexp_extract_all(
                         text, '\b(spark|hash|join)\b')) AS nred
              FROM src
            )
            SELECT CAST(count(*) AS BIGINT) AS n_docs,
                   CAST(count(*) FILTER (nred > 0) AS BIGINT)
                       AS n_redacted_docs,
                   CAST(coalesce(sum(
                     (length(clean)
                      - length(replace(clean, '[REDACTED]', '')))
                     // 10), 0) AS BIGINT) AS n_markers,
                   CAST(coalesce(sum(len(regexp_extract_all(
                     clean, '\b(spark|hash|join)\b'))), 0) AS BIGINT)
                       AS n_residual
            FROM r
        """,
        # corpus factory: dedup QUALIFY -> q156 gopher rule CTE ->
        # per-lang exact rollup, one division
        "q300_corpus_factory": r"""
            WITH src AS (
              SELECT doc_id, text, lang FROM documents
              WHERE text IS NOT NULL AND lang IS NOT NULL
            ),
            dd AS (
              SELECT doc_id, text, lang FROM src
              QUALIFY row_number() OVER (
                PARTITION BY text ORDER BY doc_id) = 1
            ),
            base AS (
              SELECT lang, text AS tx,
                     regexp_extract_all(text, '\S+') AS t,
                     string_split(text, chr(10)) AS ls
              FROM dd),
            s AS (
              SELECT lang,
                len(t) AS w,
                coalesce(length(array_to_string(t, '')), 0) AS wc,
                len(regexp_extract_all(tx, '#')) AS nh,
                len(regexp_extract_all(tx, '\.\.\.')) AS ne,
                len(ls) AS nl,
                len(list_filter(ls, x -> regexp_matches(
                    x, '^\s*[-*•]'))) AS nb,
                len(list_filter(ls, x -> regexp_matches(
                    x, '\.\.\.\s*$'))) AS nel,
                len(list_filter(t, x -> regexp_matches(
                    x, '[A-Za-z]'))) AS na
              FROM base),
            kept AS (
              SELECT lang, w FROM s
              WHERE w >= 5 AND w <= 100000
                AND 3 * w <= wc AND wc <= 10 * w
                AND 10 * (nh + ne) < w
                AND 10 * nb < 9 * nl
                AND 10 * nel < 3 * nl
                AND 10 * na >= 8 * w
            )
            SELECT lang, CAST(count(*) AS BIGINT) AS n_docs,
                   CAST(sum(w) AS BIGINT) AS n_tokens,
                   CAST(sum(w) AS DOUBLE) / CAST(count(*) AS DOUBLE)
                       AS avg_tokens
            FROM kept GROUP BY lang
        """,
        # double-charge: lag window over (user, cents), exact gaps
        "q299_double_charge": """
            WITH e AS (
              SELECT event_id, user_id,
                     CAST(round(value * 100) AS BIGINT) AS cents,
                     CAST(epoch_us(ts) AS BIGINT) AS t
              FROM events
              WHERE user_id IS NOT NULL AND value IS NOT NULL
                    AND ts IS NOT NULL AND event_id IS NOT NULL
            ),
            d AS (SELECT event_id, user_id, cents, t,
                         t - lag(t) OVER (
                           PARTITION BY user_id, cents
                           ORDER BY t, event_id) AS gap
                  FROM e)
            SELECT event_id, user_id, cents, gap AS gap_us
            FROM d
            WHERE gap IS NOT NULL AND gap <= 604800000000
        """,
        # new-vs-returning: DISTINCT (user, day) spine + min-day join
        "q298_new_vs_returning": """
            WITH e AS (
              SELECT user_id, epoch_us(ts) // 86400000000 AS d
              FROM events
              WHERE user_id IS NOT NULL AND ts IS NOT NULL
            ),
            ud AS (SELECT DISTINCT user_id, d FROM e),
            m AS (SELECT user_id, min(d) AS md FROM ud
                  GROUP BY user_id)
            SELECT ud.d AS day, CAST(count(*) AS BIGINT) AS n_active,
                   CAST(sum(CASE WHEN m.md = ud.d THEN 1 ELSE 0 END)
                        AS BIGINT) AS n_new,
                   CAST(sum(CASE WHEN m.md = ud.d THEN 1 ELSE 0 END)
                        AS DOUBLE) / CAST(count(*) AS DOUBLE)
                       AS new_frac
            FROM ud JOIN m USING (user_id) GROUP BY ud.d
        """,
        # split contamination: HUGEINT knuth split + q127 dot idiom
        "q297_split_contamination": """
            WITH b AS (
              SELECT vec_id, embedding,
                     CAST(((CAST(vec_id AS HUGEINT) % 4294967296)
                           * 2654435761) % 4294967296 % 4 AS BIGINT)
                         AS bk
              FROM embeddings
              WHERE vec_id IS NOT NULL AND embedding IS NOT NULL
            ),
            c AS (
              SELECT vec_id, bk, i,
                     CAST(floor(CAST(embedding[i] AS DOUBLE) * 256
                                + 0.5) AS BIGINT) AS xq
              FROM b, unnest(range(1, len(embedding) + 1)) r(i)
            ),
            q AS (SELECT vec_id AS qid, i, xq FROM c WHERE bk = 3),
            tr AS (SELECT vec_id, i, xq FROM c WHERE bk <> 3),
            d AS (SELECT q.qid, tr.vec_id,
                         CAST(sum(tr.xq * q.xq) AS BIGINT) AS dot
                  FROM tr JOIN q USING (i)
                  GROUP BY q.qid, tr.vec_id),
            l AS (SELECT CAST(count(DISTINCT qid) AS BIGINT)
                             AS n_leaky
                  FROM d WHERE dot >= 18000),
            n AS (SELECT CAST(count(*) FILTER (bk <> 3) AS BIGINT)
                             AS n_train,
                         CAST(count(*) FILTER (bk = 3) AS BIGINT)
                             AS n_test
                  FROM b)
            SELECT n_train, n_test, n_leaky,
                   CAST(n_leaky AS DOUBLE) / CAST(n_test AS DOUBLE)
                       AS leak_frac
            FROM n, l
        """,
        # seasonal-naive backtest: dense day grid x users, lag-7
        # LEFT JOINs, exact |act - pred| sums
        "q296_seasonal_backtest": """
            WITH e AS (
              SELECT user_id,
                     epoch_us(ts) // 86400000000 AS d
              FROM events
              WHERE user_id IS NOT NULL AND ts IS NOT NULL
            ),
            c AS (SELECT user_id, d, CAST(count(*) AS BIGINT) AS n
                  FROM e GROUP BY user_id, d),
            r AS (SELECT min(d) AS lo, max(d) AS hi FROM e),
            days AS (SELECT unnest(range(lo + 7, hi + 1)) AS d
                     FROM r),
            u AS (SELECT DISTINCT user_id FROM e),
            g AS (SELECT u.user_id, days.d FROM u, days),
            j AS (SELECT g.user_id, g.d,
                         coalesce(a.n, 0) AS act,
                         coalesce(p.n, 0) AS pred
                  FROM g
                  LEFT JOIN c a ON a.user_id = g.user_id
                               AND a.d = g.d
                  LEFT JOIN c p ON p.user_id = g.user_id
                               AND p.d = g.d - 7)
            SELECT user_id, CAST(count(*) AS BIGINT) AS n_days,
                   CAST(sum(abs(act - pred)) AS BIGINT) AS sae,
                   CAST(sum(abs(act - pred)) AS DOUBLE)
                     / CAST(count(*) AS DOUBLE) AS mae
            FROM j GROUP BY user_id
        """,
        # composed governance gate: three chained audit CTEs summed
        # to (check, units, violations, ok)
        "q295_release_gate": """
            WITH v AS (
              SELECT 3 AS n_units,
                     CAST((count(*) FILTER (doc_id IS NULL) > 0)
                          AS BIGINT)
                     + CAST((count(doc_id) - count(DISTINCT doc_id)
                             > 0) AS BIGINT)
                     + CAST((count(*) FILTER (lang IS NOT NULL AND
                             lang NOT IN ('en', 'de', 'zh')) > 0)
                            AS BIGINT) AS n_violations
              FROM documents
            ),
            grid AS (
              SELECT lang, n_chars // 500 AS len_bucket,
                     count(*) AS n,
                     count(DISTINCT source) FILTER (
                       source IS NOT NULL) AS n_sens
              FROM documents
              WHERE lang IS NOT NULL AND n_chars IS NOT NULL
              GROUP BY lang, len_bucket
            ),
            ka AS (SELECT count(*) AS n_units,
                          count(*) FILTER (n < 10) AS n_violations
                   FROM grid),
            ld AS (
              SELECT count(*) AS n_units,
                     count(*) FILTER (n_sens < 3) AS n_violations
              FROM (
                SELECT lang, n_chars // 500 AS lb,
                       count(DISTINCT source) AS n_sens
                FROM documents
                WHERE lang IS NOT NULL AND n_chars IS NOT NULL
                      AND source IS NOT NULL
                GROUP BY lang, lb)
            )
            SELECT 'constraints' AS "check",
                   CAST(n_units AS BIGINT) AS n_units,
                   CAST(n_violations AS BIGINT) AS n_violations,
                   n_violations = 0 AS ok FROM v
            UNION ALL
            SELECT 'k_anonymity', CAST(n_units AS BIGINT),
                   CAST(n_violations AS BIGINT),
                   n_violations = 0 FROM ka
            UNION ALL
            SELECT 'l_diversity', CAST(n_units AS BIGINT),
                   CAST(n_violations AS BIGINT),
                   n_violations = 0 FROM ld
        """,
        # l-diversity: exact group sizes + count(DISTINCT sensitive)
        "q293_l_diversity": """
            SELECT lang, n_chars // 500 AS len_bucket,
                   CAST(count(*) AS BIGINT) AS n,
                   CAST(count(DISTINCT source) AS BIGINT)
                       AS n_sensitive,
                   count(DISTINCT source) >= 3 AS ok
            FROM documents
            WHERE lang IS NOT NULL AND n_chars IS NOT NULL
                  AND source IS NOT NULL
            GROUP BY lang, len_bucket
        """,
        # embedding diversity: Gram identity from HUGEINT sums, two
        # fixed divisions (q209 unnest/quantize idiom)
        "q292_embed_diversity": """
            WITH x AS (
              SELECT label,
                     CAST(floor(CAST(embedding[i] AS DOUBLE) * 1024
                                + 0.5) AS BIGINT) AS qx, i
              FROM embeddings,
                   unnest(range(1, len(embedding) + 1)) AS r(i)
              WHERE label IS NOT NULL AND embedding IS NOT NULL
            ),
            t1 AS (SELECT label, CAST(sum(qx * qx) AS HUGEINT) AS t
                   FROM x GROUP BY label),
            t2 AS (SELECT label, i, CAST(sum(qx) AS HUGEINT) AS s
                   FROM x GROUP BY label, i),
            t3 AS (SELECT label, CAST(sum(s * s) AS HUGEINT) AS ss
                   FROM t2 GROUP BY label),
            c AS (SELECT label, CAST(count(*) AS BIGINT) AS n
                  FROM embeddings
                  WHERE label IS NOT NULL AND embedding IS NOT NULL
                  GROUP BY label)
            SELECT c.label, c.n,
                   CASE WHEN c.n < 2 THEN NULL ELSE
                     CAST(2 * c.n * t1.t - 2 * t3.ss AS DOUBLE)
                       / CAST(c.n * (c.n - 1) AS DOUBLE)
                       / 1048576.0
                   END AS mean_d2
            FROM c JOIN t1 USING (label) JOIN t3 USING (label)
        """,
        # range-pruned read: identical integer cut arithmetic; the
        # layout/pruning is an engine artifact, semantics = WHERE
        "q291_range_pruned_read": """
            WITH m AS (
              SELECT CAST(min(epoch_us(ts)) AS BIGINT) AS mn,
                     CAST(max(epoch_us(ts)) AS BIGINT) AS mx
              FROM events
              WHERE ts IS NOT NULL AND event_id IS NOT NULL
            )
            SELECT event_id, CAST(epoch_us(ts) AS BIGINT) AS t
            FROM events, m
            WHERE ts IS NOT NULL AND event_id IS NOT NULL
              AND epoch_us(ts) >= mn + 2 * ((mx - mn + 8) // 8)
              AND epoch_us(ts) <  mn + 6 * ((mx - mn + 8) // 8)
        """,
        # Gini: exact Lorenz numerator over ranked values, one division
        "q294_mixed_language": q294,
        "q290_gini": """
            WITH d AS (
              SELECT source, n_chars AS x FROM documents
              WHERE source IS NOT NULL AND n_chars IS NOT NULL
            ),
            r AS (SELECT source, x,
                         row_number() OVER (
                           PARTITION BY source ORDER BY x) AS i,
                         count(*) OVER (PARTITION BY source) AS n
                  FROM d)
            SELECT source, CAST(any_value(n) AS BIGINT) AS n,
                   CAST(sum(x) AS BIGINT) AS sum_x,
                   CASE WHEN sum(x) = 0 THEN NULL ELSE
                     CAST(sum((2 * i - n - 1) * x) AS DOUBLE)
                       / (CAST(any_value(n) AS DOUBLE)
                          * CAST(sum(x) AS DOUBLE))
                   END AS gini
            FROM r GROUP BY source
        """,
        # QQ drift: exact decile elements per (type, cohort), integer
        # max gap, inner join drops one-sided types
        "q288_qq_drift": """
            WITH e AS (
              SELECT event_type, user_id % 2 AS side,
                     CAST(round(value * 100) AS BIGINT) AS c
              FROM events
              WHERE event_type IS NOT NULL AND user_id IS NOT NULL
                    AND value IS NOT NULL
            ),
            q AS (SELECT event_type, side,
                         CAST(count(*) AS BIGINT) AS n,
                         CAST(quantile_disc(c, 0.1) AS BIGINT) AS d1,
                         CAST(quantile_disc(c, 0.2) AS BIGINT) AS d2,
                         CAST(quantile_disc(c, 0.3) AS BIGINT) AS d3,
                         CAST(quantile_disc(c, 0.4) AS BIGINT) AS d4,
                         CAST(quantile_disc(c, 0.5) AS BIGINT) AS d5,
                         CAST(quantile_disc(c, 0.6) AS BIGINT) AS d6,
                         CAST(quantile_disc(c, 0.7) AS BIGINT) AS d7,
                         CAST(quantile_disc(c, 0.8) AS BIGINT) AS d8,
                         CAST(quantile_disc(c, 0.9) AS BIGINT) AS d9
                  FROM e GROUP BY event_type, side)
            SELECT a.event_type, a.n AS n_a, b.n AS n_b,
                   greatest(abs(a.d1-b.d1), abs(a.d2-b.d2),
                            abs(a.d3-b.d3), abs(a.d4-b.d4),
                            abs(a.d5-b.d5), abs(a.d6-b.d6),
                            abs(a.d7-b.d7), abs(a.d8-b.d8),
                            abs(a.d9-b.d9)) AS qq_dist
            FROM q a JOIN q b USING (event_type)
            WHERE a.side = 0 AND b.side = 1
        """,
        # adaptive sessionize: lag gaps -> per-user quantile_disc
        # median -> integer threshold islands, all exact
        "q287_adaptive_sessionize": """
            WITH e AS (
              SELECT user_id, event_id,
                     CAST(epoch_us(ts) AS BIGINT) AS t
              FROM events
              WHERE user_id IS NOT NULL AND event_id IS NOT NULL
                    AND ts IS NOT NULL
            ),
            d AS (SELECT user_id, event_id, t,
                         t - lag(t) OVER (
                           PARTITION BY user_id
                           ORDER BY t, event_id) AS delta
                  FROM e),
            m AS (SELECT user_id,
                         CAST(quantile_disc(delta, 0.5) AS BIGINT)
                             AS med
                  FROM d WHERE delta IS NOT NULL GROUP BY user_id),
            s AS (SELECT d.user_id, d.event_id, d.t,
                         CASE WHEN d.delta IS NULL
                                   OR d.delta > 3 * m.med
                              THEN 1 ELSE 0 END AS brk
                  FROM d LEFT JOIN m USING (user_id)),
            i AS (SELECT user_id, t,
                         CAST(sum(brk) OVER (
                           PARTITION BY user_id ORDER BY t, event_id
                           ROWS UNBOUNDED PRECEDING) AS BIGINT)
                             AS session_id
                  FROM s)
            SELECT user_id, session_id,
                   CAST(count(*) AS BIGINT) AS n_events,
                   CAST(min(t) AS BIGINT) AS start_us,
                   CAST(max(t) AS BIGINT) AS end_us
            FROM i GROUP BY user_id, session_id
        """,
        # outlier explanation: q209 unnest/quantize idiom, z from
        # exact ints in ONE division, argmax (z desc, dim asc)
        "q286_outlier_explain": """
            WITH x AS (
              SELECT vec_id, i,
                     CAST(floor(CAST(embedding[i] AS DOUBLE) * 1024
                                + 0.5) AS BIGINT) AS qx
              FROM embeddings,
                   unnest(range(1, len(embedding) + 1)) AS r(i)
              WHERE vec_id IS NOT NULL AND embedding IS NOT NULL
            ), s AS (
              SELECT i, CAST(count(*) AS BIGINT) AS n,
                     CAST(sum(qx) AS BIGINT) AS sv,
                     CAST(sum(qx * qx) AS BIGINT) AS qv
              FROM x GROUP BY i
            ), z AS (
              SELECT x.vec_id, x.i,
                     CAST(abs(s.n * x.qx - s.sv) AS DOUBLE)
                       / sqrt(CAST(s.n * s.qv - s.sv * s.sv
                                   AS DOUBLE)) AS z
              FROM x JOIN s ON x.i = s.i
              WHERE s.n * s.qv - s.sv * s.sv > 0
            )
            SELECT vec_id, i AS dim, z FROM z
            QUALIFY row_number() OVER (
              PARTITION BY vec_id ORDER BY z DESC, i ASC) = 1
        """,
        # schema evolution: UNION ALL over the same even/odd split,
        # NULLs where a generation lacked the column
        "q285_schema_evolution": """
            SELECT event_id, user_id, event_type,
                   CAST(NULL AS DOUBLE) AS value,
                   CAST(NULL AS VARCHAR) AS props
            FROM events
            WHERE event_id IS NOT NULL AND event_id % 2 = 0
            UNION ALL
            SELECT event_id, CAST(NULL AS BIGINT), event_type,
                   value, props
            FROM events
            WHERE event_id IS NOT NULL AND event_id % 2 = 1
        """,
        # validation suite: UNION of independent exact checks; frac is
        # one division per rule
        "q283_validate": """
            WITH tot AS (SELECT CAST(count(*) AS BIGINT) AS n
                         FROM documents),
            v AS (
              SELECT 'r_chars_range' AS rule,
                     CAST(count(*) FILTER (n_chars IS NOT NULL AND
                          (n_chars < 100 OR n_chars > 5000))
                          AS BIGINT) AS violations
              FROM documents
              UNION ALL
              SELECT 'r_doc_not_null',
                     CAST(count(*) FILTER (doc_id IS NULL) AS BIGINT)
              FROM documents
              UNION ALL
              SELECT 'r_doc_unique',
                     CAST(count(doc_id) - count(DISTINCT doc_id)
                          AS BIGINT)
              FROM documents
              UNION ALL
              SELECT 'r_lang_set',
                     CAST(count(*) FILTER (lang IS NOT NULL AND
                          lang NOT IN ('en', 'de', 'zh')) AS BIGINT)
              FROM documents
              UNION ALL
              SELECT 'r_source_regex',
                     CAST(count(*) FILTER (source IS NOT NULL AND
                          NOT regexp_matches(source, '^src[0-9]$'))
                          AS BIGINT)
              FROM documents
            )
            SELECT rule, tot.n, violations, violations = 0 AS ok,
                   CAST(violations AS DOUBLE) / CAST(tot.n AS DOUBLE)
                       AS viol_frac
            FROM v, tot ORDER BY rule
        """,
        # two-pass heavy hitters: the ALGORITHM is shuffle-free; the
        # RESULT is the plain exact top-k (q62 tokenization)
        "q282_topk_two_pass": r"""
            WITH tok AS (
              SELECT unnest(regexp_extract_all(text, '\S+')) AS term
              FROM documents
            )
            SELECT term, CAST(count(*) AS BIGINT) AS cnt
            FROM tok GROUP BY term
            ORDER BY cnt DESC, term LIMIT 25
        """,
        # global order statistics: quantile_disc shares the engine's
        # _disc_index convention, so the element matches exactly
        "q281_global_quantile": """
            WITH e AS (
              SELECT CAST(round(value * 100) AS BIGINT) AS c
              FROM events
              WHERE value IS NOT NULL AND isfinite(value)
            )
            SELECT CAST(50 AS BIGINT) AS pct,
                   CAST(count(*) AS BIGINT) AS n,
                   CAST(quantile_disc(c, 0.5) AS BIGINT)
                       AS value_cents
            FROM e
            UNION ALL
            SELECT 90, CAST(count(*) AS BIGINT),
                   CAST(quantile_disc(c, 0.9) AS BIGINT)
            FROM e
        """,
        # incremental refresh: the maintenance invariant IS the
        # oracle — refreshed view == GROUP BY from scratch; cents
        # exact, avg one fixed IEEE expression
        "q280_incremental_agg": """
            WITH e AS (
              SELECT user_id, event_type,
                     CAST(round(coalesce(value, 0) * 100) AS BIGINT)
                         AS c
              FROM events
              WHERE user_id IS NOT NULL AND event_type IS NOT NULL
                    AND event_id IS NOT NULL
            )
            SELECT user_id, event_type,
                   CAST(count(*) AS BIGINT) AS n,
                   CAST(sum(c) AS BIGINT) AS sum_c,
                   CAST(min(c) AS BIGINT) AS min_c,
                   CAST(max(c) AS BIGINT) AS max_c,
                   CAST(sum(c) AS DOUBLE) / CAST(count(*) AS DOUBLE)
                     / 100.0 AS avg
            FROM e GROUP BY user_id, event_type
        """,
        # bucketed join: layout is an engine artifact; the JOIN
        # SEMANTICS are plain inner equi-join
        "q279_bucketed_join": """
            SELECT o_orderkey, o_custkey, o_totalprice, c_nationkey
            FROM orders JOIN customer ON o_custkey = c_custkey
        """,
        # watermark audit: previous-rows running max (ROWS frame, not
        # RANGE), exact int64 lateness, one division for late_frac
        "q275_watermark_lateness": """
            WITH e AS (
              SELECT user_id,
                     (event_id // 4) * 4 + 3 - (event_id % 4)
                         AS arrival,
                     CAST(epoch_us(ts) AS BIGINT) AS t
              FROM events
              WHERE user_id IS NOT NULL AND event_id IS NOT NULL
                    AND ts IS NOT NULL
            ),
            w AS (SELECT user_id, t,
                         max(t) OVER (
                           PARTITION BY user_id ORDER BY arrival
                           ROWS BETWEEN UNBOUNDED PRECEDING
                                    AND 1 PRECEDING) AS wm
                  FROM e)
            SELECT user_id, CAST(count(*) AS BIGINT) AS n,
                   CAST(sum(CASE WHEN wm > t THEN 1 ELSE 0 END)
                        AS BIGINT) AS n_late,
                   CAST(coalesce(sum(CASE WHEN wm > t THEN wm - t END),
                                 0) AS BIGINT) AS sum_late_us,
                   CAST(coalesce(max(CASE WHEN wm > t THEN wm - t END),
                                 0) AS BIGINT) AS max_late_us,
                   CAST(sum(CASE WHEN wm > t THEN 1 ELSE 0 END)
                        AS DOUBLE) / CAST(count(*) AS DOUBLE)
                       AS late_frac
            FROM w GROUP BY user_id
        """,
        # best-F1 operating point: distinct-score spine, suffix
        # cumulative counts (ORDER BY s DESC over one row per (grp,s)
        # -> RANGE peers are self-only), FIXED IEEE P/R/F1 from ints,
        # argmax (f1 DESC, threshold ASC) — bit-exact vs the engine
        "q274_pr_sweep": """
            WITH e AS (
              SELECT user_id % 8 AS grp,
                     CAST(event_type = 'purchase' AS BIGINT) AS y,
                     CAST(round(value * 100) AS BIGINT) AS s
              FROM events
              WHERE user_id IS NOT NULL AND event_type IS NOT NULL
                    AND value IS NOT NULL
            ),
            g AS (SELECT grp, CAST(sum(y) AS BIGINT) AS npos
                  FROM e GROUP BY grp),
            t AS (SELECT grp, s,
                         CAST(sum(sum(y)) OVER (
                           PARTITION BY grp ORDER BY s DESC)
                              AS BIGINT) AS tp,
                         CAST(sum(count(*)) OVER (
                           PARTITION BY grp ORDER BY s DESC)
                              AS BIGINT) AS cnt_ge
                  FROM e GROUP BY grp, s),
            f AS (SELECT t.grp, t.s AS threshold, tp,
                         cnt_ge - tp AS fp, g.npos - tp AS fn,
                         CAST(tp AS DOUBLE) / CAST(cnt_ge AS DOUBLE)
                             AS precision,
                         CAST(tp AS DOUBLE) / CAST(g.npos AS DOUBLE)
                             AS recall,
                         CAST(2 * tp AS DOUBLE)
                           / CAST(cnt_ge + g.npos AS DOUBLE) AS f1
                  FROM t JOIN g USING (grp) WHERE g.npos > 0)
            SELECT grp, threshold, tp, fp, fn, precision, recall, f1
            FROM f
            QUALIFY row_number() OVER (
              PARTITION BY grp ORDER BY f1 DESC, threshold ASC) = 1
        """,
        # context trim: exclusive prefix E per user; j = strict-< rank
        # of E−B via the q151 tagged-union window; kept total by one
        # equi-join on (user, rn = j+1)
        "q194_context_trim": """
            WITH e AS (
              SELECT user_id, event_id, epoch_us(ts) AS t,
                     CAST(length(coalesce(props, '')) AS BIGINT) AS tok
              FROM events
              WHERE user_id IS NOT NULL AND ts IS NOT NULL
                AND event_id IS NOT NULL),
            p AS (
              SELECT user_id, event_id,
                     row_number() OVER (PARTITION BY user_id
                                        ORDER BY t, event_id) AS rn,
                     CAST(sum(tok) OVER (PARTITION BY user_id
                                         ORDER BY t, event_id
                                         ROWS UNBOUNDED PRECEDING)
                          - tok AS BIGINT) AS e
              FROM e),
            u AS (
              SELECT user_id, e AS val, 1 AS tag,
                     CAST(NULL AS BIGINT) AS rn,
                     CAST(NULL AS BIGINT) AS e2,
                     CAST(NULL AS BIGINT) AS event_id
              FROM p
              UNION ALL
              SELECT user_id, e - 25 AS val, 0 AS tag, rn, e, event_id
              FROM p),
            c AS (
              SELECT user_id, rn, e2, event_id, tag,
                     CAST(sum(tag) OVER (PARTITION BY user_id
                                         ORDER BY val, tag
                                         ROWS UNBOUNDED PRECEDING)
                          - tag AS BIGINT) AS nless
              FROM u),
            q AS (SELECT user_id, rn, e2 AS e, event_id, nless
                  FROM c WHERE tag = 0)
            SELECT q.user_id, q.event_id,
                   CAST(q.rn - 1 - q.nless AS BIGINT) AS n_ctx,
                   CAST(q.e - pj.e AS BIGINT) AS ctx_tokens
            FROM q JOIN p pj ON pj.user_id = q.user_id
                            AND pj.rn = q.nless + 1
        """,
        # feature hashing: 60-bit md5 prefix per token (the q48/q88
        # hex-cast trick), dim = h % 64, sign from the next bit
        "q195_feature_hash": r"""
            WITH t AS (
              SELECT doc_id,
                     unnest(regexp_extract_all(coalesce(text, ''),
                                               '\S+')) AS term
              FROM documents WHERE doc_id IS NOT NULL),
            h AS (SELECT doc_id,
                         CAST('0x' || substr(md5(term), 1, 15)
                              AS UBIGINT) AS hv
                  FROM t),
            s AS (SELECT doc_id, CAST(hv % 64 AS BIGINT) AS dim,
                         CASE WHEN (hv // 64) % 2 = 0 THEN 1
                              ELSE -1 END AS sgn
                  FROM h)
            SELECT doc_id, dim, CAST(sum(sgn) AS BIGINT) AS weight
            FROM s GROUP BY doc_id, dim
            HAVING sum(sgn) <> 0
        """,
        # seasonal peak: exact int (n, cents) per (type, hour-phase),
        # peak by ONE double division with lowest-bin tie-break
        "q196_seasonal_peak": """
            WITH e AS (
              SELECT event_type, epoch_us(ts) AS t,
                     CAST(round(coalesce(value, 0) * 100) AS BIGINT)
                       AS cents
              FROM events
              WHERE event_type IS NOT NULL AND ts IS NOT NULL),
            b AS (SELECT event_type,
                         (t // 3600000000) % 24 AS bin,
                         CAST(count(*) AS BIGINT) AS n,
                         CAST(sum(cents) AS BIGINT) AS cents
                  FROM e GROUP BY 1, 2),
            r AS (SELECT *,
                         row_number() OVER (
                           PARTITION BY event_type
                           ORDER BY CAST(cents AS DOUBLE)
                                    / CAST(n AS DOUBLE) DESC, bin)
                           AS rk
                  FROM b)
            SELECT event_type, bin, n, cents, rk = 1 AS is_peak FROM r
        """,
        # rolling rank: bounded rn BETWEEN rn-k AND rn-1 self-join,
        # strict IEEE < counts, one division
        "q201_rolling_rank": """
            WITH e AS (
              SELECT user_id, event_id, epoch_us(ts) AS t, value
              FROM events
              WHERE user_id IS NOT NULL AND ts IS NOT NULL
                AND event_id IS NOT NULL AND value IS NOT NULL
                AND isfinite(value)),
            p AS (SELECT user_id, event_id, value,
                         row_number() OVER (PARTITION BY user_id
                                            ORDER BY t, event_id)
                           AS rn
                  FROM e),
            j AS (SELECT a.user_id, a.event_id,
                         CAST(count(b.rn) AS BIGINT) AS w,
                         CAST(coalesce(sum(CASE WHEN b.value < a.value
                                                THEN 1 END), 0)
                              AS BIGINT) AS cnt_less
                  FROM p a LEFT JOIN p b
                    ON b.user_id = a.user_id
                   AND b.rn BETWEEN a.rn - 10 AND a.rn - 1
                  GROUP BY 1, 2)
            SELECT user_id, event_id, w, cnt_less,
                   CASE WHEN w = 0 THEN NULL
                        ELSE CAST(cnt_less AS DOUBLE)
                             / CAST(w AS DOUBLE) END AS pct
            FROM j
        """,
        # triangle census: exact int dots build the edge set, then the
        # a<b<c three-way self-join counts triangles
        "q200_triangle_census": """
            WITH c AS (
              SELECT vec_id,
                     CAST(floor(CAST(embedding[i] AS DOUBLE) * 1024
                                + 0.5) AS BIGINT) AS xq, i
              FROM embeddings,
                   unnest(range(1, len(embedding) + 1)) r(i)
              WHERE vec_id IS NOT NULL AND embedding IS NOT NULL),
            d AS (SELECT a.vec_id AS x, b.vec_id AS y,
                         CAST(sum(a.xq * b.xq) AS BIGINT) AS dot
                  FROM c a JOIN c b
                    ON a.i = b.i AND a.vec_id < b.vec_id
                  GROUP BY 1, 2),
            e AS (SELECT x, y FROM d WHERE dot >= 330000),
            deg AS (SELECT m, CAST(count(*) AS BIGINT) AS dg
                    FROM (SELECT x AS m FROM e
                          UNION ALL SELECT y FROM e)
                    GROUP BY m),
            tri AS (SELECT count(*) AS t
                    FROM e e1 JOIN e e2 ON e2.x = e1.x AND e2.y > e1.y
                    JOIN e e3 ON e3.x = e1.y AND e3.y = e2.y)
            SELECT CAST((SELECT count(*) FROM e) AS BIGINT) AS n_edges,
                   CAST((SELECT coalesce(sum(dg * (dg - 1) // 2), 0)
                         FROM deg) AS BIGINT) AS n_wedges,
                   CAST((SELECT t FROM tri) AS BIGINT) AS n_triangles
        """,
        # containment join: distinct-token inverted index, corpus-df
        # stopword cap, integer cross-mult threshold
        "q198_containment_join": r"""
            WITH toks AS (
              SELECT DISTINCT doc_id,
                     unnest(regexp_extract_all(coalesce(text, ''),
                                               '\S+')) AS token
              FROM documents WHERE doc_id IS NOT NULL),
            q AS (SELECT doc_id AS qid, token FROM toks
                  WHERE doc_id % 31 = 0),
            c AS (SELECT doc_id AS cid, token FROM toks
                  WHERE doc_id % 31 <> 0),
            df AS (SELECT token, count(*) AS df FROM c GROUP BY token),
            qk AS (SELECT qid, q.token FROM q
                   LEFT JOIN df ON q.token = df.token
                   WHERE coalesce(df.df, 0) <= 1000),
            ck AS (SELECT cid, c.token FROM c
                   JOIN df ON c.token = df.token
                   WHERE df.df <= 1000),
            ql AS (SELECT qid, CAST(count(*) AS BIGINT) AS qlen
                   FROM qk GROUP BY qid),
            i AS (SELECT qid, cid, CAST(count(*) AS BIGINT) AS inter
                  FROM qk JOIN ck USING (token) GROUP BY qid, cid)
            SELECT i.qid, i.cid, i.inter, ql.qlen,
                   CAST(i.inter AS DOUBLE) / CAST(ql.qlen AS DOUBLE)
                     AS containment
            FROM i JOIN ql ON i.qid = ql.qid
            WHERE i.inter * 5 >= 3 * ql.qlen
        """,
        # Benford: first digit of the exact integer cents (int print),
        # share = one double division
        "q199_benford_digits": """
            WITH e AS (
              SELECT event_type,
                     CAST(round(value * 100) AS BIGINT) AS cents
              FROM events
              WHERE event_type IS NOT NULL AND value IS NOT NULL
                AND isfinite(value) AND round(value * 100) > 0),
            d AS (SELECT event_type,
                         CAST(substr(CAST(cents AS VARCHAR), 1, 1)
                              AS BIGINT) AS digit,
                         CAST(count(*) AS BIGINT) AS n
                  FROM e GROUP BY 1, 2),
            t AS (SELECT event_type, CAST(sum(n) AS BIGINT) AS tot
                  FROM d GROUP BY event_type)
            SELECT d.event_type, d.digit, d.n,
                   CAST(d.n AS DOUBLE) / CAST(t.tot AS DOUBLE)
                     AS share
            FROM d JOIN t ON d.event_type = t.event_type
        """,
        # lag-2 autocovariance sufficient stats: all-integer sums over
        # the (ts, event_id)-ordered per-user cents series
        "q197_lag_autocov": """
            WITH e AS (
              SELECT user_id, epoch_us(ts) AS t, event_id,
                     CAST(round(coalesce(value, 0) * 100) AS BIGINT)
                       AS x
              FROM events
              WHERE user_id IS NOT NULL AND ts IS NOT NULL
                AND event_id IS NOT NULL),
            p AS (SELECT user_id, x,
                         lead(x, 2) OVER (PARTITION BY user_id
                                          ORDER BY t, event_id) AS xl
                  FROM e)
            SELECT user_id,
                   CAST(count(*) AS BIGINT) AS n,
                   CAST(count(xl) AS BIGINT) AS m,
                   CAST(coalesce(sum(x * xl), 0) AS BIGINT) AS spp,
                   CAST(coalesce(sum(CASE WHEN xl IS NOT NULL
                                          THEN x END), 0) AS BIGINT)
                     AS sh,
                   CAST(coalesce(sum(xl), 0) AS BIGINT) AS st,
                   CAST(sum(x) AS BIGINT) AS sx
            FROM p GROUP BY user_id
        """,
        "q193_soundex_block": q193,
        "q202_er_match": q202,
        # checksum: same md5-prefix row hash, commutative HUGEINT sum
        # encoding audit: RE2 artifact counts both sides
        # SAX: row_number windows, int64 sums, quantile_disc
        # breakpoints (q51 rank parity), strict-compare symbols
        "q230_sax_symbols": """
            WITH e AS (
              SELECT user_id AS u, epoch_us(ts) AS t, event_id AS id,
                     CAST(round(coalesce(value, 0) * 100) AS BIGINT)
                       AS y
              FROM events
              WHERE user_id IS NOT NULL AND ts IS NOT NULL
                AND event_id IS NOT NULL AND value IS NOT NULL),
            r AS (SELECT u, y,
                         row_number() OVER (PARTITION BY u
                                            ORDER BY t, id) - 1
                           AS rn,
                         count(*) OVER (PARTITION BY u) AS n
                  FROM e),
            w AS (SELECT u, rn // 8 AS win_idx,
                         CAST(sum(y) AS BIGINT) AS wsum
                  FROM r WHERE rn // 8 < n // 8
                  GROUP BY u, rn // 8),
            b AS (SELECT quantile_disc(wsum, CAST(0.25 AS DOUBLE))
                           AS b1,
                         quantile_disc(wsum, CAST(0.5 AS DOUBLE))
                           AS b2,
                         quantile_disc(wsum, CAST(0.75 AS DOUBLE))
                           AS b3
                  FROM w)
            SELECT u AS user_id, win_idx, wsum,
                   CAST(CASE WHEN wsum > b.b1 THEN 1 ELSE 0 END
                        + CASE WHEN wsum > b.b2 THEN 1 ELSE 0 END
                        + CASE WHEN wsum > b.b3 THEN 1 ELSE 0 END
                        AS BIGINT) AS symbol
            FROM w, b
        """,
        # churn profile: lead() pairing among kept rows; DuckDB
        # levenshtein == the engine's byte DP on the ASCII corpus
        # (non-ASCII rows excluded by contract both sides)
        "q231_churn_profile": """
            WITH d AS (
              SELECT source, doc_id, text,
                     CAST(strlen(text) AS BIGINT) AS bl
              FROM documents
              WHERE source IS NOT NULL AND text IS NOT NULL
                AND doc_id IS NOT NULL
                AND strlen(text) = length(text)
                AND strlen(text) <= 4096),
            p AS (SELECT source, doc_id AS id_a,
                         lead(doc_id) OVER w AS id_b,
                         text AS ta, lead(text) OVER w AS tb,
                         bl AS len_a, lead(bl) OVER w AS len_b
                  FROM d
                  WINDOW w AS (PARTITION BY source ORDER BY doc_id))
            SELECT source, id_a, id_b,
                   CAST(levenshtein(ta, tb) AS BIGINT) AS lev,
                   len_a, len_b
            FROM p WHERE id_b IS NOT NULL
        """,
        # W1 drift: exact int |c_g*n_rest - c_rest*n_g| * gap summed
        # (HUGEINT), one CAST/division; lead() gap on the merged
        # support per source
        "q237_wasserstein_drift": """
            WITH d AS (
              SELECT source, n_chars AS v FROM documents
              WHERE source IS NOT NULL AND n_chars IS NOT NULL),
            tot AS (SELECT CAST(count(*) AS BIGINT) AS n FROM d),
            src AS (SELECT source, CAST(count(*) AS BIGINT) AS n_g
                    FROM d GROUP BY source),
            vals AS (SELECT v, CAST(count(*) AS BIGINT) AS c_tot
                     FROM d GROUP BY v),
            sv AS (SELECT source, v, CAST(count(*) AS BIGINT) AS c
                   FROM d GROUP BY source, v),
            pv AS (SELECT s.source, vv.v, vv.c_tot,
                          coalesce(sv.c, 0) AS c_s
                   FROM src s CROSS JOIN vals vv
                   LEFT JOIN sv ON sv.source = s.source
                                AND sv.v = vv.v),
            cum AS (SELECT source, v,
                           sum(c_s) OVER w AS cum_s,
                           sum(c_tot) OVER w AS cum_t,
                           lead(v) OVER w AS v_next
                    FROM pv
                    WINDOW w AS (PARTITION BY source ORDER BY v)),
            agg AS (SELECT c.source,
                           sum(CASE WHEN c.v_next IS NULL THEN 0
                               ELSE abs(c.cum_s * (t.n - s.n_g)
                                        - (c.cum_t - c.cum_s)
                                          * s.n_g)
                                    * (c.v_next - c.v) END) AS num
                    FROM cum c
                    JOIN src s ON s.source = c.source, tot t
                    GROUP BY c.source)
            SELECT s.source, s.n_g, (t.n - s.n_g) AS n_rest,
                   CAST(a.num AS DOUBLE) AS w1_num,
                   CASE WHEN t.n - s.n_g = 0 THEN NULL
                        ELSE CAST(a.num AS DOUBLE)
                             / CAST(s.n_g * (t.n - s.n_g)
                                    AS DOUBLE) END AS w1
            FROM src s JOIN agg a ON a.source = s.source, tot t
        """,
        # bootstrap CI: Knuth bit-16 bag membership (q244 hash),
        # exact bag cells, one division per mean, dyadic
        # quantile_disc picks
        "q258_bootstrap_ci": """
            WITH e AS (
              SELECT event_type AS k, event_id,
                     CAST(round(value * 100) AS BIGINT) AS c
              FROM events
              WHERE event_type IS NOT NULL
                AND event_id IS NOT NULL AND value IS NOT NULL),
            f AS (SELECT k, CAST(count(*) AS BIGINT) AS n,
                         CAST(sum(c) AS BIGINT) AS s
                  FROM e GROUP BY k),
            bags AS (SELECT k, r, CAST(count(*) AS BIGINT) AS nb,
                            CAST(sum(c) AS BIGINT) AS sb
                     FROM e CROSS JOIN range(32) t(r)
                     WHERE ((CAST((event_id * 32 + r)
                                   % 4294967296 AS HUGEINT)
                             * 2654435761) % 4294967296
                            // 65536) % 2 = 1
                     GROUP BY k, r),
            m AS (SELECT k, CAST(sb AS DOUBLE)
                            / CAST(nb AS DOUBLE) AS mean_r
                  FROM bags WHERE nb > 0),
            ci AS (SELECT k, CAST(count(*) AS BIGINT) AS hit,
                          quantile_disc(mean_r,
                              CAST(0.0625 AS DOUBLE)) AS lo,
                          quantile_disc(mean_r,
                              CAST(0.9375 AS DOUBLE)) AS hi
                   FROM m GROUP BY k)
            SELECT f.k AS event_type, f.n,
                   CAST(f.s AS DOUBLE) / CAST(f.n AS DOUBLE)
                     AS mean,
                   coalesce(ci.hit, 0) AS n_bags_hit,
                   ci.lo AS ci_lo, ci.hi AS ci_hi
            FROM f LEFT JOIN ci USING (k)
        """,
        # decay attribution: integer 2^(7-dd) weights via bit shift,
        # weighted largest remainder, (rem desc, rn) leftover rank
        "q257_decay_attribution": """
            WITH e AS (
              SELECT user_id, epoch_us(ts) AS t, event_id,
                     event_type,
                     CAST(round(coalesce(value, 0) * 100) AS BIGINT)
                       AS cents
              FROM events
              WHERE user_id IS NOT NULL AND ts IS NOT NULL
                AND event_id IS NOT NULL
                AND event_type IS NOT NULL),
            conv AS (SELECT * FROM e
                     WHERE event_type = 'purchase' AND cents > 0),
            touch AS (SELECT * FROM e
                      WHERE event_type <> 'purchase'),
            pairs AS (
              SELECT c.user_id, c.event_id AS cid, c.cents,
                     t.event_type,
                     (CAST(1 AS BIGINT)
                      << CAST(GREATEST(7 - (c.t - t.t)
                                           // 86400000000, 0)
                              AS BIGINT)) AS w,
                     row_number() OVER (
                       PARTITION BY c.user_id, c.event_id
                       ORDER BY t.t, t.event_id) AS rn
              FROM conv c JOIN touch t ON t.user_id = c.user_id
               AND t.t >= c.t - 604800000000 AND t.t < c.t),
            agg AS (SELECT *, sum(w) OVER (
                        PARTITION BY user_id, cid) AS tw
                    FROM pairs),
            base AS (SELECT *, cents * w // tw AS b,
                            cents * w % tw AS rem
                     FROM agg),
            lo AS (SELECT *,
                          cents - sum(b) OVER (
                              PARTITION BY user_id, cid)
                            AS leftover,
                          row_number() OVER (
                              PARTITION BY user_id, cid
                              ORDER BY rem DESC, rn) AS pr
                   FROM base)
            SELECT event_type,
                   CAST(sum(b + CASE WHEN pr <= leftover THEN 1
                                ELSE 0 END) AS BIGINT)
                     AS credit_cents,
                   CAST(count(*) AS BIGINT) AS n_touches
            FROM lo GROUP BY event_type
        """,
        # readability: RE2 counts; literals CAST AS DOUBLE (bare
        # parse as DECIMAL -> different double); GREATEST = np.maximum
        "q255_readability": r"""
            WITH c AS (
              SELECT doc_id,
                     CAST(len(regexp_extract_all(
                              coalesce(text, ''), '\S+'))
                          AS BIGINT) AS n_words,
                     CAST(len(regexp_extract_all(
                              coalesce(text, ''), '[.!?]+'))
                          AS BIGINT) AS n_sents,
                     CAST(len(regexp_extract_all(
                              coalesce(text, ''),
                              '[aeiouyAEIOUY]+')) AS BIGINT)
                       AS n_syll
              FROM documents)
            SELECT doc_id, n_words, n_sents, n_syll,
                   CAST(206.835 AS DOUBLE)
                   - CAST(1.015 AS DOUBLE)
                     * (CAST(GREATEST(n_words, 1) AS DOUBLE)
                        / CAST(GREATEST(n_sents, 1) AS DOUBLE))
                   - CAST(84.6 AS DOUBLE)
                     * (CAST(n_syll AS DOUBLE)
                        / CAST(GREATEST(n_words, 1) AS DOUBLE))
                     AS flesch
            FROM c
        """,
        # MMD²: Gram cells via a per-row dim self-join; trace
        # products in HUGEINT; identical division + left-assoc
        # 2·exy − exx − eyy
        "q253_mmd_drift": """
            WITH c AS (
              SELECT CAST(label AS BIGINT) AS g, vec_id, r.i,
                     CAST(floor(CAST(embedding[r.i] AS DOUBLE) * 256
                                + 0.5) AS BIGINT) AS q
              FROM embeddings,
                   unnest(range(1, len(embedding) + 1)) r(i)
              WHERE label IS NOT NULL AND embedding IS NOT NULL),
            gm AS (SELECT a.g, a.i, b.i AS j,
                          CAST(sum(a.q * b.q) AS HUGEINT) AS v
                   FROM c a JOIN c b ON a.g = b.g
                                    AND a.vec_id = b.vec_id
                   GROUP BY a.g, a.i, b.i),
            rn AS (SELECT g, vec_id,
                          CAST(sum(q * q) AS HUGEINT) AS rn2
                   FROM c GROUP BY g, vec_id),
            st AS (SELECT g, CAST(count(*) AS BIGINT) AS n,
                          CAST(sum(rn2 * rn2) AS HUGEINT) AS s4
                   FROM rn GROUP BY g),
            tp AS (SELECT x.g AS ga, y.g AS gb,
                          CAST(sum(x.v * y.v) AS HUGEINT) AS trp
                   FROM gm x JOIN gm y ON x.i = y.i AND x.j = y.j
                                      AND x.g <= y.g
                   GROUP BY x.g, y.g),
            w AS (SELECT st.g, st.n,
                         CAST(t.trp - st.s4 AS DOUBLE)
                         / CAST(st.n * (st.n - 1) AS DOUBLE)
                           AS within
                  FROM st JOIN tp t ON t.ga = st.g AND t.gb = st.g
                  WHERE st.n >= 2)
            SELECT t.ga AS g_a, t.gb AS g_b,
                   wa.n AS n_a, wb.n AS n_b,
                   CAST(t.trp AS DOUBLE)
                   / CAST(wa.n * wb.n AS DOUBLE) AS exy,
                   wa.within AS exx, wb.within AS eyy,
                   2 * (CAST(t.trp AS DOUBLE)
                        / CAST(wa.n * wb.n AS DOUBLE))
                   - wa.within - wb.within AS mmd2
            FROM tp t
            JOIN w wa ON wa.g = t.ga
            JOIN w wb ON wb.g = t.gb
            WHERE t.ga < t.gb
        """,
        # IPC round trip: the q204 injective-encoding checksum
        # computed straight off the source table — any IPC
        # corruption or row loss mismatches
        "q252_ipc_roundtrip": """
            WITH r AS (
              SELECT CAST('0x' || substr(md5(
                  CASE WHEN doc_id IS NULL THEN 'n'
                       ELSE 'v' || length(CAST(doc_id AS VARCHAR))
                            || ':' || CAST(doc_id AS VARCHAR)
                  END || '|' ||
                  CASE WHEN text IS NULL THEN 'n'
                       ELSE 'v' || length(text) || ':' || text
                  END || '|' ||
                  CASE WHEN source IS NULL THEN 'n'
                       ELSE 'v' || length(source) || ':' || source
                  END), 1, 15) AS UBIGINT) AS hv
              FROM documents)
            SELECT CAST(count(*) AS BIGINT) AS n_rows,
                   CAST(coalesce(sum(hv), 0)
                        % 2305843009213693951 AS BIGINT)
                     AS checksum
            FROM r
        """,
        # weak labels: RE2 \b counts both engines; argmax = CASE
        # chain scanning topics ascending (first max wins = engine's
        # (score desc, topic asc))
        "q251_weak_label": r"""
            WITH s AS (
              SELECT doc_id,
                     CAST(len(regexp_extract_all(
                              coalesce(text, ''), '\bscan\b'))
                        + len(regexp_extract_all(
                              coalesce(text, ''), '\bjoin\b'))
                        + len(regexp_extract_all(
                              coalesce(text, ''), '\bhash\b'))
                          AS BIGINT) AS s_exec,
                     CAST(len(regexp_extract_all(
                              coalesce(text, ''), '\border\b'))
                        + len(regexp_extract_all(
                              coalesce(text, ''), '\bsort\b'))
                        + len(regexp_extract_all(
                              coalesce(text, ''), '\bmerge\b'))
                          AS BIGINT) AS s_plan,
                     CAST(len(regexp_extract_all(
                              coalesce(text, ''), '\bwindow\b'))
                        + len(regexp_extract_all(
                              coalesce(text, ''), '\bbatch\b'))
                        + len(regexp_extract_all(
                              coalesce(text, ''), '\bstream\b'))
                          AS BIGINT) AS s_stream
              FROM documents)
            SELECT doc_id, s_exec, s_plan, s_stream,
                   CASE WHEN s_exec = 0 AND s_plan = 0
                             AND s_stream = 0 THEN NULL
                        WHEN s_exec >= s_plan
                             AND s_exec >= s_stream THEN 'exec'
                        WHEN s_plan >= s_stream THEN 'plan'
                        ELSE 'stream' END AS topic
            FROM s
        """,
        # interpolating as-of: right dedup by max_by(v, id) per ts,
        # backward + forward ASOF joins, identical fixed lerp
        "q250_asof_interpolate": """
            WITH r0 AS (
              SELECT user_id, ts, max_by(value, event_id) AS v
              FROM events
              WHERE event_type = 'purchase'
                AND user_id IS NOT NULL AND ts IS NOT NULL
                AND value IS NOT NULL
              GROUP BY user_id, ts),
            l AS (SELECT user_id, ts, event_id FROM events
                  WHERE event_type = 'click'
                    AND user_id IS NOT NULL AND ts IS NOT NULL),
            p AS (SELECT l.user_id, l.ts, l.event_id,
                         r.ts AS t0, r.v AS v0
                  FROM l ASOF LEFT JOIN r0 r
                    ON l.user_id = r.user_id AND l.ts >= r.ts),
            n AS (SELECT l.user_id, l.event_id,
                         r.ts AS t1, r.v AS v1
                  FROM l ASOF LEFT JOIN r0 r
                    ON l.user_id = r.user_id AND l.ts <= r.ts)
            SELECT p.user_id, epoch_us(p.ts) AS ts, p.event_id,
                   CASE WHEN p.t0 IS NULL OR n.t1 IS NULL THEN NULL
                        WHEN p.t0 = p.ts THEN p.v0
                        ELSE p.v0 + (n.v1 - p.v0)
                             * (CAST(epoch_us(p.ts)
                                     - epoch_us(p.t0) AS DOUBLE)
                                / CAST(epoch_us(n.t1)
                                       - epoch_us(p.t0) AS DOUBLE))
                        END AS interp
            FROM p JOIN n ON n.user_id = p.user_id
                         AND n.event_id = p.event_id
        """,
        # hour-profile cos²: exact int histograms; the final ratio is
        # the identical cast/mult/divide sequence both engines
        "q249_hour_profile": """
            WITH e AS (
              SELECT user_id,
                     (epoch_us(ts) // 3600000000) % 24 AS b
              FROM events
              WHERE user_id IS NOT NULL AND ts IS NOT NULL),
            g AS (SELECT b, CAST(count(*) AS BIGINT) AS gc
                  FROM e GROUP BY b),
            vv AS (SELECT CAST(sum(gc * gc) AS BIGINT) AS v2 FROM g),
            u AS (SELECT user_id, b,
                         CAST(count(*) AS BIGINT) AS uc
                  FROM e GROUP BY user_id, b),
            k AS (SELECT u.user_id,
                         CAST(sum(u.uc) AS BIGINT) AS n,
                         CAST(sum(u.uc * g.gc) AS BIGINT) AS dot,
                         CAST(sum(u.uc * u.uc) AS BIGINT) AS u2
                  FROM u JOIN g USING (b) GROUP BY u.user_id)
            SELECT k.user_id, k.n, k.dot, k.u2,
                   (CAST(k.dot AS DOUBLE) * CAST(k.dot AS DOUBLE))
                   / (CAST(k.u2 AS DOUBLE)
                      * CAST(vv.v2 AS DOUBLE)) AS cos2
            FROM k, vv
        """,
        # LOO 5-NN report: q164 integer-dot self-join, QUALIFY top-5
        # (dot desc, id asc), QUALIFY majority (count desc, label
        # asc), exact int confusion sums, one-division metrics
        "q248_knn_eval": """
            WITH c AS (
              SELECT vec_id, label, i,
                     CAST(floor(CAST(embedding[i] AS DOUBLE) * 256
                                + 0.5) AS BIGINT) AS xq
              FROM embeddings,
                   unnest(range(1, len(embedding) + 1)) r(i)
              WHERE label IS NOT NULL AND embedding IS NOT NULL
            ), d AS (
              SELECT a.vec_id AS ia, a.label AS la,
                     b.vec_id AS ib, b.label AS lb,
                     CAST(sum(a.xq * b.xq) AS BIGINT) AS dot
              FROM c a JOIN c b
                ON a.i = b.i AND a.vec_id <> b.vec_id
              GROUP BY 1, 2, 3, 4
            ), nn AS (
              SELECT ia, la, lb FROM d
              QUALIFY row_number() OVER (PARTITION BY ia
                                         ORDER BY dot DESC, ib)
                      <= 5
            ), v AS (
              SELECT ia, any_value(la) AS la, lb,
                     count(*) AS cnt
              FROM nn GROUP BY ia, lb
            ), pred AS (
              SELECT ia, la, lb AS pred FROM v
              QUALIFY row_number() OVER (PARTITION BY ia
                                         ORDER BY cnt DESC, lb) = 1
            ), cls AS (
              SELECT DISTINCT CAST(label AS BIGINT) AS label
              FROM embeddings WHERE label IS NOT NULL
                AND embedding IS NOT NULL
            ), tal AS (
              SELECT cls.label,
                     CAST(sum(CASE WHEN p.la = cls.label
                              THEN 1 ELSE 0 END) AS BIGINT)
                       AS n_true,
                     CAST(sum(CASE WHEN p.la = cls.label
                              AND p.pred = cls.label
                              THEN 1 ELSE 0 END) AS BIGINT) AS tp,
                     CAST(sum(CASE WHEN p.la <> cls.label
                              AND p.pred = cls.label
                              THEN 1 ELSE 0 END) AS BIGINT) AS fp,
                     CAST(sum(CASE WHEN p.la = cls.label
                              AND p.pred <> cls.label
                              THEN 1 ELSE 0 END) AS BIGINT) AS fn
              FROM cls CROSS JOIN pred p
              GROUP BY cls.label
            )
            SELECT label, n_true, tp, fp, fn,
                   CASE WHEN tp + fp = 0 THEN NULL
                        ELSE CAST(tp AS DOUBLE)
                             / CAST(tp + fp AS DOUBLE) END
                     AS precision,
                   CASE WHEN n_true = 0 THEN NULL
                        ELSE CAST(tp AS DOUBLE)
                             / CAST(n_true AS DOUBLE) END AS recall,
                   CASE WHEN 2 * tp + fp + fn = 0 THEN NULL
                        ELSE CAST(2 * tp AS DOUBLE)
                             / CAST(2 * tp + fp + fn AS DOUBLE) END
                     AS f1
            FROM tal
        """,
        # randomization test: Knuth bit-16 per (event_id*64+r);
        # HUGEINT cross-multiplied rational compares; empty perm side
        # counts as >= (mirrors the engine)
        "q244_randomization_test": """
            WITH e AS (
              SELECT event_type, event_id,
                     user_id % 2 AS obs_side,
                     CAST(round(value * 100) AS BIGINT) AS c
              FROM events
              WHERE event_type IS NOT NULL AND event_id IS NOT NULL
                AND user_id IS NOT NULL AND value IS NOT NULL),
            obs AS (SELECT event_type,
                           CAST(count(*) AS BIGINT) AS n,
                           CAST(sum(c) AS BIGINT) AS s,
                           CAST(sum(obs_side) AS BIGINT) AS n1,
                           CAST(sum(obs_side * c) AS BIGINT) AS s1
                    FROM e GROUP BY event_type),
            ps AS (SELECT event_type, r,
                          CAST(count(*) AS BIGINT) AS n,
                          CAST(sum(c) AS BIGINT) AS s,
                          CAST(sum(pb) AS BIGINT) AS n1,
                          CAST(sum(pb * c) AS BIGINT) AS s1
                   FROM (SELECT event_type, c, r,
                                ((((event_id * 64 + r)
                                   % 4294967296) * 2654435761)
                                 % 4294967296 // 65536) % 2 AS pb
                         FROM e CROSS JOIN range(64) t(r))
                   GROUP BY event_type, r),
            cnt AS (SELECT p.event_type,
                           CAST(sum(CASE
                             WHEN (p.n - p.n1) * p.n1 = 0 THEN 1
                             WHEN CAST(abs((p.s - p.s1) * p.n1
                                           - p.s1 * (p.n - p.n1))
                                       AS HUGEINT)
                                  * CAST((o.n - o.n1) * o.n1
                                         AS HUGEINT)
                                  >= CAST(abs((o.s - o.s1) * o.n1
                                              - o.s1 * (o.n - o.n1))
                                          AS HUGEINT)
                                     * CAST((p.n - p.n1) * p.n1
                                            AS HUGEINT)
                             THEN 1 ELSE 0 END) AS BIGINT) AS n_ge
                    FROM ps p JOIN obs o USING (event_type)
                    GROUP BY p.event_type)
            SELECT o.event_type, o.n, o.n1 AS n1_obs,
                   CAST(abs((o.s - o.s1) * o.n1
                            - o.s1 * (o.n - o.n1)) AS DOUBLE)
                     AS obs_num,
                   c.n_ge,
                   CASE WHEN (o.n - o.n1) * o.n1 = 0 THEN NULL
                        ELSE CAST(c.n_ge + 1 AS DOUBLE)
                             / CAST(65 AS DOUBLE) END AS p_value
            FROM obs o JOIN cnt c USING (event_type)
        """,
        # mutual NN: q164 integer-dot unnest self-join + QUALIFY NN,
        # then the reciprocal self-join keeps (a,b) iff NN(a)=b AND
        # NN(b)=a
        "q243_mutual_nn": """
            WITH c AS (
              SELECT vec_id, i,
                     CAST(floor(CAST(embedding[i] AS DOUBLE) * 256
                                + 0.5) AS BIGINT) AS xq
              FROM embeddings,
                   unnest(range(1, len(embedding) + 1)) r(i)
              WHERE embedding IS NOT NULL
            ), d AS (
              SELECT a.vec_id AS ia, b.vec_id AS ib,
                     CAST(sum(a.xq * b.xq) AS BIGINT) AS dot
              FROM c a JOIN c b
                ON a.i = b.i AND a.vec_id <> b.vec_id
              GROUP BY 1, 2
            ), nn AS (
              SELECT ia, ib, dot FROM d
              QUALIFY row_number() OVER (PARTITION BY ia
                                         ORDER BY dot DESC, ib) = 1
            )
            SELECT n1.ia AS id_a, n1.ib AS id_b, n1.dot
            FROM nn n1 JOIN nn n2
              ON n1.ib = n2.ia AND n2.ib = n1.ia
            WHERE n1.ia < n1.ib
        """,
        # CSV round trip: q204 checksum off the parquet truth
        "q272_csv_roundtrip": """
            WITH r AS (
              SELECT CAST('0x' || substr(md5(
                  CASE WHEN doc_id IS NULL THEN 'n'
                       ELSE 'v' || length(CAST(doc_id AS VARCHAR))
                            || ':' || CAST(doc_id AS VARCHAR)
                  END || '|' ||
                  CASE WHEN source IS NULL THEN 'n'
                       ELSE 'v' || length(source) || ':' || source
                  END || '|' ||
                  CASE WHEN n_chars IS NULL THEN 'n'
                       ELSE 'v' || length(CAST(n_chars AS VARCHAR))
                            || ':' || CAST(n_chars AS VARCHAR)
                  END), 1, 15) AS UBIGINT) AS hv
              FROM documents)
            SELECT CAST(count(*) AS BIGINT) AS n_rows,
                   CAST(coalesce(sum(hv), 0)
                        % 2305843009213693951 AS BIGINT)
                     AS checksum
            FROM r
        """,
        # doc scorecard: q156 keep + q255 flesch + q176 diversity
        # fused; exact-int diversity flag 4·n_tok >= sum_sq
        "q271_doc_scorecard": r"""
            WITH base AS (
              SELECT doc_id, coalesce(text, '') AS tx,
                     regexp_extract_all(coalesce(text, ''), '\S+')
                       AS t,
                     string_split(coalesce(text, ''), chr(10)) AS ls
              FROM documents),
            s AS (
              SELECT doc_id,
                len(t) AS w,
                coalesce(length(array_to_string(t, '')), 0) AS wc,
                len(regexp_extract_all(tx, '#')) AS nh,
                len(regexp_extract_all(tx, '\.\.\.')) AS ne,
                len(ls) AS nl,
                len(list_filter(ls, x -> regexp_matches(
                    x, '^\s*[-*•]'))) AS nb,
                len(list_filter(ls, x -> regexp_matches(
                    x, '\.\.\.\s*$'))) AS nel,
                len(list_filter(t, x -> regexp_matches(
                    x, '[A-Za-z]'))) AS na
              FROM base),
            gk AS (SELECT doc_id,
                          (w >= 5 AND w <= 100000
                           AND 3 * w <= wc AND wc <= 10 * w
                           AND 10 * (nh + ne) < w
                           AND 10 * nb < 9 * nl
                           AND 10 * nel < 3 * nl
                           AND 10 * na >= 8 * w
                           AND 0 >= 0) AS gq_keep,
                          w AS n_words, wc, nl
                   FROM s),
            fl AS (SELECT doc_id,
                          CAST(206.835 AS DOUBLE)
                          - CAST(1.015 AS DOUBLE)
                            * (CAST(GREATEST(len(
                                  regexp_extract_all(
                                      coalesce(text, ''), '\S+')),
                                  1) AS DOUBLE)
                               / CAST(GREATEST(len(
                                  regexp_extract_all(
                                      coalesce(text, ''),
                                      '[.!?]+')), 1) AS DOUBLE))
                          - CAST(84.6 AS DOUBLE)
                            * (CAST(len(regexp_extract_all(
                                  coalesce(text, ''),
                                  '[aeiouyAEIOUY]+')) AS DOUBLE)
                               / CAST(GREATEST(len(
                                  regexp_extract_all(
                                      coalesce(text, ''), '\S+')),
                                  1) AS DOUBLE)) AS flesch
                   FROM documents),
            tok AS (
              SELECT doc_id,
                     unnest(regexp_extract_all(coalesce(text, ''),
                                               '\S+')) AS wtok
              FROM documents),
            cpt AS (SELECT doc_id, wtok,
                           CAST(count(*) AS BIGINT) AS n_i
                    FROM tok GROUP BY doc_id, wtok),
            dv AS (SELECT d.doc_id,
                          coalesce(x.n_tokens, 0) AS n_tokens,
                          coalesce(x.sum_sq, 0) AS sum_sq,
                          CASE WHEN x.n_tokens IS NULL THEN NULL
                               ELSE CAST(x.n_tokens AS DOUBLE)
                                    * CAST(x.n_tokens AS DOUBLE)
                                    / CAST(x.sum_sq AS DOUBLE) END
                            AS simpson_d
                   FROM documents d
                   LEFT JOIN (SELECT doc_id,
                                     CAST(sum(n_i) AS BIGINT)
                                       AS n_tokens,
                                     CAST(sum(n_i * n_i) AS BIGINT)
                                       AS sum_sq
                              FROM cpt GROUP BY doc_id) x
                     USING (doc_id))
            SELECT g.doc_id, g.gq_keep, fl.flesch, dv.simpson_d,
                   CAST((CASE WHEN g.gq_keep THEN 1 ELSE 0 END)
                      + (CASE WHEN dv.n_tokens > 0
                              AND 4 * dv.n_tokens >= dv.sum_sq
                              THEN 1 ELSE 0 END)
                      + (CASE WHEN fl.flesch >= -300 THEN 1
                         ELSE 0 END) AS BIGINT) AS quality_flags,
                   ((CASE WHEN g.gq_keep THEN 1 ELSE 0 END)
                    + (CASE WHEN dv.n_tokens > 0
                            AND 4 * dv.n_tokens >= dv.sum_sq
                            THEN 1 ELSE 0 END)
                    + (CASE WHEN fl.flesch >= -300 THEN 1
                       ELSE 0 END)) >= 2 AS keep
            FROM gk g
            JOIN fl USING (doc_id)
            JOIN dv USING (doc_id)
        """,
        # coactivity: lag-based starts + banded self-join
        "q270_coactivity": """
            WITH st AS (
              SELECT user_id, epoch_us(ts) AS t,
                     lag(epoch_us(ts)) OVER (
                       PARTITION BY user_id ORDER BY ts) AS pt
              FROM events
              WHERE user_id IS NOT NULL AND ts IS NOT NULL),
            ss AS (SELECT user_id, t FROM st
                   WHERE pt IS NULL OR t - pt > 1800000000),
            co AS (SELECT a.user_id, a.t,
                          CAST(count(*) AS BIGINT) AS coact
                   FROM ss a JOIN ss b
                     ON b.t BETWEEN a.t - 300000000
                                AND a.t + 300000000
                    AND b.user_id <> a.user_id
                   GROUP BY a.user_id, a.t),
            per AS (SELECT s.user_id, s.t,
                           coalesce(co.coact, 0) AS coact
                    FROM ss s
                    LEFT JOIN co ON co.user_id = s.user_id
                                AND co.t = s.t)
            SELECT user_id,
                   CAST(count(*) AS BIGINT) AS n_sessions,
                   CAST(max(coact) AS BIGINT) AS max_coactive,
                   CAST(sum(CASE WHEN coact >= 3 THEN 1
                            ELSE 0 END) AS BIGINT)
                     AS n_coordinated
            FROM per GROUP BY user_id
        """,
        # oscillation: two lags + gaps-and-islands run lengths
        "q269_oscillation": """
            WITH e AS (
              SELECT user_id, event_type AS ty,
                     row_number() OVER w AS rn,
                     lag(event_type, 1) OVER w AS t1,
                     lag(event_type, 2) OVER w AS t2
              FROM events
              WHERE user_id IS NOT NULL AND ts IS NOT NULL
                AND event_id IS NOT NULL
                AND event_type IS NOT NULL
              WINDOW w AS (PARTITION BY user_id
                           ORDER BY ts, event_id)),
            f AS (SELECT *, CASE WHEN ty = t2 AND ty <> t1
                            THEN 1 ELSE 0 END AS ok FROM e),
            isl AS (SELECT *,
                           rn - CAST(sum(ok) OVER (
                               PARTITION BY user_id ORDER BY rn
                               ROWS UNBOUNDED PRECEDING)
                               AS BIGINT) AS grp
                    FROM f),
            runs AS (SELECT user_id, grp,
                            CAST(count(*) AS BIGINT) AS L
                     FROM isl WHERE ok = 1
                     GROUP BY user_id, grp),
            agg AS (SELECT user_id, max(L) AS ml,
                           CAST(sum(L) AS BIGINT) AS osc
                    FROM runs GROUP BY user_id),
            u AS (SELECT user_id,
                         CAST(count(*) AS BIGINT) AS n
                  FROM e GROUP BY user_id)
            SELECT u.user_id, u.n,
                   CAST(coalesce(agg.ml + 2, 0) AS BIGINT)
                     AS longest_osc,
                   coalesce(agg.osc, 0) AS n_osc_events
            FROM u LEFT JOIN agg USING (user_id)
        """,
        # bot scorecard: q249 + q262 + q267 CTEs joined, integer
        # flags; 0.5 literals are exact dyadics
        "q268_bot_scorecard": """
            WITH eh AS (
              SELECT user_id,
                     (epoch_us(ts) // 3600000000) % 24 AS b
              FROM events
              WHERE user_id IS NOT NULL AND ts IS NOT NULL),
            g AS (SELECT b, CAST(count(*) AS BIGINT) AS gc
                  FROM eh GROUP BY b),
            vv AS (SELECT CAST(sum(gc * gc) AS BIGINT) AS v2
                   FROM g),
            uu AS (SELECT user_id, b,
                          CAST(count(*) AS BIGINT) AS uc
                   FROM eh GROUP BY user_id, b),
            ph AS (SELECT uu.user_id,
                          (CAST(sum(uu.uc * g.gc) AS DOUBLE)
                           * CAST(sum(uu.uc * g.gc) AS DOUBLE))
                          / (CAST(sum(uu.uc * uu.uc) AS DOUBLE)
                             * CAST((SELECT v2 FROM vv)
                                    AS DOUBLE)) AS cos2
                   FROM uu JOIN g USING (b) GROUP BY uu.user_id),
            ec AS (SELECT user_id, epoch_us(ts) AS t FROM events
                   WHERE user_id IS NOT NULL AND ts IS NOT NULL),
            gc2 AS (SELECT user_id, t,
                           CAST(count(*) AS BIGINT) AS sz
                    FROM ec GROUP BY user_id, t),
            col AS (SELECT user_id,
                           CAST(max(sz) AS BIGINT) AS max_burst
                    FROM gc2 GROUP BY user_id),
            ep AS (SELECT user_id, event_type,
                          lead(event_type) OVER (
                            PARTITION BY user_id
                            ORDER BY ts, event_id) AS nxt
                   FROM events
                   WHERE user_id IS NOT NULL AND ts IS NOT NULL
                     AND event_id IS NOT NULL
                     AND event_type IS NOT NULL),
            pc AS (SELECT user_id, event_type AS f, nxt,
                          CAST(count(*) AS BIGINT) AS c
                   FROM ep WHERE nxt IS NOT NULL
                   GROUP BY 1, 2, 3),
            pk AS (SELECT user_id,
                          CAST(sum(c) AS BIGINT) AS n_trans,
                          CAST(sum(c * c) AS BIGINT) AS sum_sq
                   FROM pc GROUP BY user_id),
            pu AS (SELECT DISTINCT user_id FROM ep),
            pr AS (SELECT pu.user_id,
                          CASE WHEN pk.n_trans IS NULL THEN NULL
                               ELSE CAST(pk.sum_sq AS DOUBLE)
                                    / (CAST(pk.n_trans AS DOUBLE)
                                       * CAST(pk.n_trans
                                              AS DOUBLE)) END
                            AS predictability
                   FROM pu LEFT JOIN pk USING (user_id))
            SELECT p.user_id, p.cos2, c.max_burst,
                   r.predictability,
                   CAST((CASE WHEN p.cos2 < 0.5 THEN 1 ELSE 0 END)
                      + (CASE WHEN c.max_burst >= 3 THEN 1
                         ELSE 0 END)
                      + (CASE WHEN coalesce(r.predictability, 0)
                              >= 0.5 THEN 1 ELSE 0 END)
                        AS BIGINT) AS risk_flags,
                   ((CASE WHEN p.cos2 < 0.5 THEN 1 ELSE 0 END)
                    + (CASE WHEN c.max_burst >= 3 THEN 1
                       ELSE 0 END)
                    + (CASE WHEN coalesce(r.predictability, 0)
                            >= 0.5 THEN 1 ELSE 0 END)) >= 2
                     AS is_bot
            FROM ph p
            JOIN col c USING (user_id)
            JOIN pr r USING (user_id)
        """,
        # predictability: lead() pairs, Σc²/(Σc)² one division
        "q267_predictability": """
            WITH e AS (
              SELECT user_id, event_type,
                     lead(event_type) OVER (
                       PARTITION BY user_id
                       ORDER BY ts, event_id) AS nxt
              FROM events
              WHERE user_id IS NOT NULL AND ts IS NOT NULL
                AND event_id IS NOT NULL
                AND event_type IS NOT NULL),
            c AS (SELECT user_id, event_type AS f, nxt,
                         CAST(count(*) AS BIGINT) AS c
                  FROM e WHERE nxt IS NOT NULL
                  GROUP BY 1, 2, 3),
            k AS (SELECT user_id,
                         CAST(sum(c) AS BIGINT) AS n_trans,
                         CAST(sum(c * c) AS BIGINT) AS sum_sq
                  FROM c GROUP BY user_id),
            u AS (SELECT DISTINCT user_id FROM e)
            SELECT u.user_id,
                   coalesce(k.n_trans, 0) AS n_trans,
                   coalesce(k.sum_sq, 0) AS sum_sq,
                   CASE WHEN k.n_trans IS NULL THEN NULL
                        ELSE CAST(k.sum_sq AS DOUBLE)
                             / (CAST(k.n_trans AS DOUBLE)
                                * CAST(k.n_trans AS DOUBLE)) END
                     AS predictability
            FROM u LEFT JOIN k USING (user_id)
        """,
        # activation: row_number pivot on rn in {1, 5}
        "q266_activation": """
            WITH e AS (
              SELECT user_id, epoch_us(ts) AS t,
                     row_number() OVER (PARTITION BY user_id
                                        ORDER BY ts, event_id)
                       AS rn
              FROM events
              WHERE user_id IS NOT NULL AND ts IS NOT NULL
                AND event_id IS NOT NULL)
            SELECT user_id,
                   CAST(count(*) AS BIGINT) AS n,
                   CAST(min(CASE WHEN rn = 1 THEN t END)
                        AS BIGINT) AS first_ts,
                   CAST(min(CASE WHEN rn = 5 THEN t END)
                        AS BIGINT) AS kth_ts,
                   CAST(min(CASE WHEN rn = 5 THEN t END)
                        - min(CASE WHEN rn = 1 THEN t END)
                        AS BIGINT) AS activation_us
            FROM e GROUP BY user_id
        """,
        # weighted Jaccard: LEAST over an inner join per shared
        # token; max side via the totals identity
        "q265_weighted_jaccard": r"""
            WITH tok AS (
              SELECT source,
                     unnest(regexp_extract_all(text, '\S+')) AS w
              FROM documents
              WHERE source IS NOT NULL AND text IS NOT NULL),
            c AS (SELECT source, w, CAST(count(*) AS BIGINT) AS n
                  FROM tok GROUP BY 1, 2),
            tot AS (SELECT source, CAST(sum(n) AS BIGINT) AS t
                    FROM c GROUP BY source),
            pm AS (SELECT a.source AS ga, b.source AS gb,
                          CAST(sum(LEAST(a.n, b.n)) AS BIGINT)
                            AS smin
                   FROM c a JOIN c b ON a.w = b.w
                                    AND a.source < b.source
                   GROUP BY 1, 2)
            SELECT ta.source AS g_a, tb.source AS g_b,
                   coalesce(pm.smin, 0) AS sum_min,
                   ta.t + tb.t - coalesce(pm.smin, 0) AS sum_max,
                   CAST(coalesce(pm.smin, 0) AS DOUBLE)
                   / CAST(ta.t + tb.t - coalesce(pm.smin, 0)
                          AS DOUBLE) AS wjac
            FROM tot ta
            JOIN tot tb ON ta.source < tb.source
            LEFT JOIN pm ON pm.ga = ta.source
                        AND pm.gb = tb.source
        """,
        # next latency: ASOF (a.t < b.t) picks the strict next b;
        # per-user quantile_disc median of int latencies
        "q264_next_latency": """
            WITH a AS (
              SELECT user_id, epoch_us(ts) AS t, event_id
              FROM events
              WHERE event_type = 'click' AND user_id IS NOT NULL
                AND ts IS NOT NULL AND event_id IS NOT NULL),
            b AS (
              SELECT user_id, epoch_us(ts) AS t FROM events
              WHERE event_type = 'purchase'
                AND user_id IS NOT NULL AND ts IS NOT NULL
                AND event_id IS NOT NULL),
            nx AS (SELECT a.user_id, a.t, a.event_id,
                          b.t AS bt
                   FROM a ASOF LEFT JOIN b
                     ON a.user_id = b.user_id AND a.t < b.t)
            SELECT user_id,
                   CAST(count(*) AS BIGINT) AS n_a,
                   CAST(count(bt) AS BIGINT) AS n_matched,
                   CAST(quantile_disc(bt - t,
                        CAST(0.5 AS DOUBLE)) AS BIGINT)
                     AS med_latency
            FROM nx GROUP BY user_id
        """,
        # eventually-follows: per-(user,type) min/max + pair join
        "q263_eventually_follows": """
            WITH e AS (
              SELECT user_id, epoch_us(ts) AS t, event_type
              FROM events
              WHERE user_id IS NOT NULL AND ts IS NOT NULL
                AND event_type IS NOT NULL),
            mt AS (SELECT user_id, event_type,
                          min(t) AS mn, max(t) AS mx
                   FROM e GROUP BY 1, 2)
            SELECT a.event_type AS type_a, b.event_type AS type_b,
                   CAST(sum(CASE WHEN a.mn < b.mx THEN 1
                            ELSE 0 END) AS BIGINT) AS n_keys,
                   CAST(count(*) AS BIGINT) AS n_both
            FROM mt a JOIN mt b ON a.user_id = b.user_id
                               AND a.event_type <> b.event_type
            GROUP BY 1, 2
        """,
        # ts collisions: GROUP BY (user, ts) sizes; collided = size>1
        "q262_ts_collisions": """
            WITH e AS (
              SELECT user_id, epoch_us(ts) AS t FROM events
              WHERE user_id IS NOT NULL AND ts IS NOT NULL),
            g AS (SELECT user_id, t,
                         CAST(count(*) AS BIGINT) AS sz
                  FROM e GROUP BY user_id, t)
            SELECT user_id,
                   CAST(sum(sz) AS BIGINT) AS n,
                   CAST(coalesce(sum(CASE WHEN sz > 1 THEN sz END),
                                 0) AS BIGINT) AS n_collided,
                   CAST(sum(CASE WHEN sz > 1 THEN 1 ELSE 0 END)
                        AS BIGINT) AS n_instants,
                   CAST(max(sz) AS BIGINT) AS max_burst
            FROM g GROUP BY user_id
        """,
        # seasonal anomaly: quantile_disc median + MAD per bin,
        # integer |c-med| > 3*mad flag; NULL value rows coalesce? no
        # — NULL ts/id/value rows drop
        "q261_seasonal_anomaly": """
            WITH e AS (
              SELECT event_id,
                     (epoch_us(ts) // 3600000000) % 24 AS bin,
                     CAST(round(value * 100) AS BIGINT) AS c
              FROM events
              WHERE ts IS NOT NULL AND event_id IS NOT NULL
                AND value IS NOT NULL),
            med AS (SELECT bin, CAST(quantile_disc(c,
                        CAST(0.5 AS DOUBLE)) AS BIGINT) AS m
                    FROM e GROUP BY bin),
            d AS (SELECT e.event_id, e.bin, e.c, med.m,
                         abs(e.c - med.m) AS dev
                  FROM e JOIN med USING (bin)),
            mad AS (SELECT bin, CAST(quantile_disc(dev,
                        CAST(0.5 AS DOUBLE)) AS BIGINT) AS md
                    FROM d GROUP BY bin)
            SELECT d.event_id, d.bin, d.c AS cents, d.m AS med,
                   mad.md AS mad, (d.dev > 3 * mad.md) AS is_anomaly
            FROM d JOIN mad USING (bin)
        """,
        # SCD2 MERGE: q189 gaps-and-islands dim on the first 20 days,
        # QUALIFY last-state snapshot on the rest, FULL-JOIN merge at
        # global_max+1
        "q260_scd2_apply": """
            WITH bounds AS (
              SELECT min(epoch_us(ts)) AS mn,
                     max(epoch_us(ts)) AS mx
              FROM events WHERE ts IS NOT NULL),
            par AS (SELECT mn + 20 * 86400000000 AS t0, mx + 1
                      AS ts_snap FROM bounds),
            e AS (
              SELECT user_id, epoch_us(ts) AS t, event_id,
                     event_type AS st
              FROM events, par
              WHERE user_id IS NOT NULL AND ts IS NOT NULL
                AND event_id IS NOT NULL
                AND event_type IS NOT NULL
                AND epoch_us(ts) < par.t0),
            m AS (
              SELECT *, CASE WHEN lag(st) OVER (
                          PARTITION BY user_id
                          ORDER BY t, event_id)
                          IS DISTINCT FROM st THEN 1 ELSE 0 END
                     AS chg
              FROM e),
            g AS (
              SELECT *, sum(chg) OVER (
                       PARTITION BY user_id ORDER BY t, event_id
                       ROWS UNBOUNDED PRECEDING) AS run
              FROM m),
            r AS (SELECT user_id, st AS state,
                         min(t) AS valid_from,
                         CAST(count(*) AS BIGINT) AS n_rows, run
                  FROM g GROUP BY user_id, st, run),
            dim AS (
              SELECT user_id, state, valid_from,
                     lead(valid_from) OVER (
                       PARTITION BY user_id ORDER BY run)
                       AS valid_to,
                     n_rows
              FROM r),
            snap AS (
              SELECT user_id, st AS sstate FROM (
                SELECT e2.user_id, e2.event_type AS st,
                       row_number() OVER (
                         PARTITION BY e2.user_id
                         ORDER BY epoch_us(e2.ts) DESC,
                                  e2.event_id DESC) AS rn
                FROM events e2, par
                WHERE e2.user_id IS NOT NULL
                  AND e2.ts IS NOT NULL
                  AND e2.event_id IS NOT NULL
                  AND e2.event_type IS NOT NULL
                  AND epoch_us(e2.ts) >= par.t0)
              WHERE rn = 1),
            hist AS (SELECT * FROM dim
                     WHERE valid_to IS NOT NULL),
            openr AS (SELECT * FROM dim WHERE valid_to IS NULL)
            SELECT user_id, state, valid_from, valid_to, n_rows
            FROM hist
            UNION ALL
            SELECT o.user_id, o.state, o.valid_from,
                   CASE WHEN s.sstate IS NOT NULL
                             AND s.sstate = o.state THEN NULL
                        ELSE (SELECT ts_snap FROM par) END,
                   o.n_rows
            FROM openr o LEFT JOIN snap s USING (user_id)
            UNION ALL
            SELECT s.user_id, s.sstate,
                   (SELECT ts_snap FROM par), NULL,
                   CAST(0 AS BIGINT)
            FROM snap s LEFT JOIN openr o USING (user_id)
            WHERE o.user_id IS NULL OR o.state <> s.sstate
        """,
        # two-hop reach: DISTINCT wedge self-join through capped
        # mids; NOT EXISTS subtracts direct edges
        "q259_two_hop": """
            WITH e AS (
              SELECT epoch_us(ts) // 3600000000 AS b,
                     user_id AS u
              FROM events
              WHERE ts IS NOT NULL AND user_id IS NOT NULL
              GROUP BY 1, 2),
            w AS (SELECT b FROM e GROUP BY b
                  HAVING count(*) <= 4096),
            p AS (SELECT DISTINCT a.u AS ua, c.u AS ub
                  FROM e a
                  JOIN e c ON a.b = c.b AND a.u < c.u
                  JOIN w ON w.b = a.b),
            sym AS (SELECT ua AS a, ub AS v FROM p
                    UNION ALL SELECT ub, ua FROM p),
            deg AS (SELECT a AS u, CAST(count(*) AS BIGINT) AS d
                    FROM sym GROUP BY a),
            okm AS (SELECT u FROM deg WHERE d <= 1024),
            wedge AS (SELECT DISTINCT s1.v AS src, s2.v AS w
                      FROM sym s1
                      JOIN sym s2 ON s1.a = s2.a
                                 AND s1.v <> s2.v
                      JOIN okm ON okm.u = s1.a),
            n2 AS (SELECT wd.src, CAST(count(*) AS BIGINT) AS n2
                   FROM wedge wd
                   WHERE NOT EXISTS (SELECT 1 FROM sym s
                                     WHERE s.a = wd.src
                                       AND s.v = wd.w)
                   GROUP BY wd.src)
            SELECT d.u AS node, d.d AS n1,
                   coalesce(n2.n2, 0) AS n2
            FROM deg d LEFT JOIN n2 ON n2.src = d.u
        """,
        # BFS hops: recursive CTE, UNION dedups (node, d); min per
        # node; same q234 edge-build CTE + symmetrize
        "q240_bfs_hops": """
            WITH RECURSIVE e AS (
              SELECT epoch_us(ts) // 3600000000 AS b,
                     user_id AS u
              FROM events
              WHERE ts IS NOT NULL AND user_id IS NOT NULL
              GROUP BY 1, 2),
            w AS (SELECT b FROM e GROUP BY b
                  HAVING count(*) <= 4096),
            p AS (SELECT DISTINCT a.u AS ua, c.u AS ub
                  FROM e a
                  JOIN e c ON a.b = c.b AND a.u < c.u
                  JOIN w ON w.b = a.b),
            sym AS (SELECT ua AS a, ub AS v FROM p
                    UNION ALL SELECT ub, ua FROM p),
            nodes AS (SELECT DISTINCT a AS u FROM sym),
            bfs(node, d) AS (
              SELECT u, CAST(0 AS BIGINT) FROM nodes
              WHERE u % 17 = 0
              UNION
              SELECT s.v, b.d + 1
              FROM bfs b JOIN sym s ON s.a = b.node
              WHERE b.d < 4)
            SELECT node, CAST(min(d) AS BIGINT) AS hops
            FROM bfs GROUP BY node
        """,
        # Haar energy: sign by bit j-1 of the per-user rank, complete
        # buckets only (m = 2^level), HUGEINT sum(d*d), one CAST +
        # exact power-of-two division
        "q238_haar_energy": """
            WITH e AS (
              SELECT user_id,
                     CAST(round(coalesce(value, 0) * 100) AS BIGINT)
                       AS c,
                     row_number() OVER (PARTITION BY user_id
                                        ORDER BY ts, event_id) - 1
                       AS rn
              FROM events
              WHERE user_id IS NOT NULL AND ts IS NOT NULL),
            lev(level) AS (VALUES (1), (2), (3)),
            b AS (SELECT user_id, level,
                         rn // (1 << level) AS bucket,
                         sum(CASE WHEN (rn // (1 << (level - 1)))
                                       % 2 = 0
                                  THEN c ELSE -c END) AS d,
                         count(*) AS m
                  FROM e CROSS JOIN lev
                  GROUP BY user_id, level, rn // (1 << level)),
            g AS (SELECT user_id, level,
                         CAST(count(*) AS BIGINT) AS n_buckets,
                         sum(d * d) AS num
                  FROM b WHERE m = (1 << level)
                  GROUP BY user_id, level)
            SELECT user_id, CAST(level AS BIGINT) AS level, n_buckets,
                   CAST(num AS DOUBLE) AS energy_num,
                   CAST(num AS DOUBLE)
                   / CAST((1 << level) AS DOUBLE) AS energy_c2
            FROM g
        """,
        # BM25: k1=6/5 b=3/4 cleared by 10S; raw-odds idf (no ln);
        # (A/B)*(C/D) in the engine's exact op order
        "q235_bm25": r"""
            WITH d AS (
              SELECT doc_id,
                     regexp_extract_all(coalesce(text, ''), '\S+')
                       AS t
              FROM documents
              WHERE doc_id IS NOT NULL AND text IS NOT NULL),
            dl AS (SELECT doc_id, CAST(len(t) AS BIGINT) AS dl
                   FROM d),
            g AS (SELECT CAST(sum(dl) AS BIGINT) AS s,
                         CAST(count(*) AS BIGINT) AS c FROM dl),
            q(term) AS (VALUES ('query'), ('spark'), ('table')),
            tf AS (SELECT d.doc_id, x AS term,
                          CAST(count(*) AS BIGINT) AS tf
                   FROM d, LATERAL unnest(t) AS u(x)
                   JOIN q ON q.term = x
                   GROUP BY d.doc_id, x),
            df AS (SELECT term, CAST(count(*) AS BIGINT) AS df
                   FROM tf GROUP BY term),
            s AS (SELECT tf.term, tf.doc_id, tf.tf, dl.dl,
                         (CAST(2 * g.c - 2 * df.df + 1 AS DOUBLE)
                          / CAST(2 * df.df + 1 AS DOUBLE))
                         * (CAST(22 * g.s * tf.tf AS DOUBLE)
                            / CAST(10 * g.s * tf.tf + 3 * g.s
                                   + 9 * g.c * dl.dl AS DOUBLE))
                           AS score
                  FROM tf
                  JOIN dl ON dl.doc_id = tf.doc_id
                  JOIN df ON df.term = tf.term, g),
            r AS (SELECT *,
                         row_number() OVER (PARTITION BY term
                                            ORDER BY score DESC,
                                                     doc_id) AS rn
                  FROM s)
            SELECT term, doc_id, tf, dl, score FROM r WHERE rn <= 10
        """,
        # assortativity: distinct hourly co-occurrence pairs; exact
        # BIGINT sufficient stats; r = the same fixed double sequence
        # (products may pass 2^53 but IEEE mult of identical operands
        # is deterministic — q228 convention)
        "q234_assortativity": """
            WITH e AS (
              SELECT epoch_us(ts) // 3600000000 AS b,
                     user_id AS u
              FROM events
              WHERE ts IS NOT NULL AND user_id IS NOT NULL
              GROUP BY 1, 2),
            w AS (SELECT b FROM e GROUP BY b
                  HAVING count(*) <= 4096),
            p AS (SELECT DISTINCT a.u AS ua, c.u AS ub
                  FROM e a
                  JOIN e c ON a.b = c.b AND a.u < c.u
                  JOIN w ON w.b = a.b),
            d AS (SELECT u, CAST(count(*) AS BIGINT) AS deg
                  FROM (SELECT ua AS u FROM p
                        UNION ALL SELECT ub FROM p)
                  GROUP BY u),
            s AS (SELECT CAST(count(*) AS BIGINT) AS m,
                         CAST(sum(da.deg * db.deg) AS BIGINT) AS sjk,
                         CAST(sum(da.deg + db.deg) AS BIGINT) AS sj,
                         CAST(sum(da.deg * da.deg
                                  + db.deg * db.deg) AS BIGINT) AS sq
                  FROM p
                  JOIN d da ON da.u = p.ua
                  JOIN d db ON db.u = p.ub)
            SELECT m, sjk, sj, sq,
                   CASE WHEN CAST(2 * m AS DOUBLE) * CAST(sq AS DOUBLE)
                             - CAST(sj AS DOUBLE) * CAST(sj AS DOUBLE)
                             = 0 THEN NULL
                        ELSE (CAST(4 * m AS DOUBLE)
                              * CAST(sjk AS DOUBLE)
                              - CAST(sj AS DOUBLE)
                                * CAST(sj AS DOUBLE))
                             / (CAST(2 * m AS DOUBLE)
                                * CAST(sq AS DOUBLE)
                                - CAST(sj AS DOUBLE)
                                  * CAST(sj AS DOUBLE))
                   END AS r
            FROM s
        """,
        # Kneser-Ney: d=3/4 clears denominators; p = one division of
        # exact sub-2^53 ints; (p desc, w1, w2) row_number tie-break
        "q233_kn_bigram": r"""
            WITH base AS (
              SELECT source,
                     regexp_extract_all(coalesce(text, ''), '\S+')
                       AS t
              FROM documents
              WHERE source IS NOT NULL AND text IS NOT NULL),
            bg AS (SELECT source, t[i] AS w1, t[i + 1] AS w2
                   FROM base,
                        LATERAL unnest(range(1, len(t))) AS u(i)
                   WHERE len(t) >= 2),
            c AS (SELECT source, w1, w2,
                         CAST(count(*) AS BIGINT) AS c
                  FROM bg GROUP BY 1, 2, 3),
            g AS (SELECT source, CAST(sum(c) AS BIGINT) AS tot,
                         CAST(count(*) AS BIGINT) AS ntypes
                  FROM c GROUP BY source),
            f AS (SELECT source, w1, CAST(count(*) AS BIGINT) AS fc
                  FROM c GROUP BY source, w1),
            b AS (SELECT source, w2, CAST(count(*) AS BIGINT) AS bc
                  FROM c GROUP BY source, w2),
            s AS (SELECT c.source, c.w1, c.w2, c.c,
                         CAST((4 * c.c - 3) * g.ntypes
                              + 3 * f.fc * b.bc AS DOUBLE)
                         / CAST(4 * g.tot * g.ntypes AS DOUBLE)
                           AS kn_p
                  FROM c
                  JOIN g USING (source)
                  JOIN f ON f.source = c.source AND f.w1 = c.w1
                  JOIN b ON b.source = c.source AND b.w2 = c.w2),
            r AS (SELECT *,
                         row_number() OVER (PARTITION BY source
                                            ORDER BY kn_p DESC,
                                                     w1, w2) AS rn
                  FROM s)
            SELECT source, w1, w2, c, kn_p FROM r WHERE rn <= 15
        """,
        # quantile normalize: within-source row_number + pooled
        # row_number join; the rank product in HUGEINT, integer //
        "q232_quantile_normalize": """
            WITH d AS (
              SELECT doc_id, source, CAST(n_chars AS BIGINT) AS v
              FROM documents
              WHERE doc_id IS NOT NULL AND source IS NOT NULL
                AND n_chars IS NOT NULL),
            r AS (SELECT doc_id, source, v,
                         row_number() OVER (PARTITION BY source
                                            ORDER BY v, doc_id) AS r,
                         count(*) OVER (PARTITION BY source) AS ns
                  FROM d),
            p AS (SELECT v AS pv,
                         row_number() OVER (ORDER BY v) - 1 AS pos
                  FROM d),
            n AS (SELECT count(*) AS nn FROM d)
            SELECT r.doc_id, r.source, r.v AS value, p.pv AS qnorm
            FROM r, n
            JOIN p ON p.pos = CASE WHEN r.ns > 1
                  THEN CAST(((CAST(r.r AS HUGEINT) - 1) * (n.nn - 1))
                            // (r.ns - 1) AS BIGINT)
                  ELSE (n.nn - 1) // 2 END
        """,
        # Kendall tau-b: all-pairs self-join, exact int pair counts;
        # (n0-n1)(n0-n2) < 2^53 so the casts are exact both sides
        "q229_kendall_tau": """
            WITH e AS (
              SELECT user_id AS u, event_id AS id, epoch_us(ts) AS t,
                     CAST(round(coalesce(value, 0) * 100) AS BIGINT)
                       AS y
              FROM events
              WHERE user_id IS NOT NULL AND ts IS NOT NULL
                AND value IS NOT NULL),
            p AS (SELECT a.u AS u,
                         CASE WHEN a.t = b.t THEN 0
                              WHEN (a.t < b.t AND a.y < b.y)
                                OR (a.t > b.t AND a.y > b.y) THEN 1
                              WHEN a.y = b.y THEN 0
                              ELSE -1 END AS s,
                         CASE WHEN a.t = b.t THEN 1 ELSE 0 END AS tx,
                         CASE WHEN a.y = b.y THEN 1 ELSE 0 END AS ty
                  FROM e a JOIN e b ON a.u = b.u AND a.id < b.id),
            g AS (SELECT u, CAST(count(*) AS BIGINT) AS n0,
                         CAST(sum(s) AS BIGINT) AS cd,
                         CAST(sum(tx) AS BIGINT) AS n1,
                         CAST(sum(ty) AS BIGINT) AS n2
                  FROM p GROUP BY u),
            c AS (SELECT u, CAST(count(*) AS BIGINT) AS n
                  FROM e GROUP BY u HAVING count(*) <= 8192)
            SELECT c.u AS user_id, c.n, g.cd,
                   CASE WHEN (g.n0 - g.n1) * (g.n0 - g.n2) = 0
                        THEN NULL
                        ELSE CAST(g.cd AS DOUBLE)
                             / sqrt(CAST((g.n0 - g.n1)
                                         * (g.n0 - g.n2) AS DOUBLE))
                   END AS tau
            FROM c JOIN g ON c.u = g.u
        """,
        # chi2 keyness: every integer factor < 2^53 so BIGINT→DOUBLE
        # casts are exact; op order mirrors the engine's
        # ((inner/AB)·inner/ab(N−ab))·N sequence left-to-right
        "q228_chi2_keyness": r"""
            WITH toks AS (
              SELECT source,
                     unnest(regexp_extract_all(coalesce(text, ''),
                                               '\S+')) AS term
              FROM documents WHERE source IS NOT NULL),
            st AS (SELECT source, term, CAST(count(*) AS BIGINT) AS a
                   FROM toks GROUP BY 1, 2),
            tt AS (SELECT term, CAST(sum(a) AS BIGINT) AS ab
                   FROM st GROUP BY term),
            sg AS (SELECT source, CAST(sum(a) AS BIGINT) AS asum
                   FROM st GROUP BY source),
            nn AS (SELECT CAST(sum(a) AS BIGINT) AS n FROM st),
            sc AS (SELECT st.source, st.term, st.a,
                          (CAST(st.a * (nn.n - sg.asum)
                                - (tt.ab - st.a) * sg.asum AS DOUBLE)
                           / CAST(sg.asum * (nn.n - sg.asum)
                                  AS DOUBLE)
                           * CAST(st.a * (nn.n - sg.asum)
                                  - (tt.ab - st.a) * sg.asum
                                  AS DOUBLE)
                           / CAST(tt.ab * (nn.n - tt.ab) AS DOUBLE))
                          * CAST(nn.n AS DOUBLE) AS chi2
                   FROM st
                   JOIN tt USING (term)
                   JOIN sg USING (source)
                   CROSS JOIN nn
                   WHERE st.a >= 5
                     AND st.a * nn.n > tt.ab * sg.asum),
            r AS (SELECT source, term, a AS cnt, chi2,
                         row_number() OVER (
                           PARTITION BY source
                           ORDER BY chi2 DESC, term ASC) AS rk
                  FROM sc)
            SELECT source, term, cnt, chi2 FROM r WHERE rk <= 15
        """,
        "q227_encoding_audit": r"""
            WITH e AS (SELECT source, coalesce(text, '') AS tx
                       FROM documents WHERE source IS NOT NULL),
            s AS (SELECT source,
                         len(regexp_extract_all(tx, '\x{FFFD}'))
                           AS r,
                         len(regexp_extract_all(tx, '[ÃÂ]')) AS m,
                         len(regexp_extract_all(tx,
                             '[\x00-\x08\x0b\x0c\x0e-\x1f]')) AS c
                  FROM e),
            a AS (SELECT source,
                         CAST(count(*) AS BIGINT) AS n_docs,
                         CAST(sum(CASE WHEN r + m + c > 0 THEN 1
                                  ELSE 0 END) AS BIGINT)
                           AS n_flagged,
                         CAST(sum(r) AS BIGINT) AS n_replacement,
                         CAST(sum(m) AS BIGINT) AS n_mojibake,
                         CAST(sum(c) AS BIGINT) AS n_control
                  FROM s GROUP BY source)
            SELECT source, n_docs, n_flagged, n_replacement,
                   n_mojibake, n_control,
                   CAST(n_flagged AS DOUBLE)
                     / CAST(n_docs AS DOUBLE) AS flagged_share
            FROM a
        """,
        # quota sample: q221 quotas + q50 Knuth-hash window rank
        "q226_quota_sample": """
            WITH e AS (SELECT source AS g, doc_id AS k
                       FROM documents
                       WHERE source IS NOT NULL
                         AND doc_id IS NOT NULL),
            c AS (SELECT g, CAST(count(*) AS BIGINT) AS n FROM e
                  GROUP BY g),
            tot AS (SELECT CAST(sum(n) AS BIGINT) AS nn FROM c),
            b AS (SELECT g, n, n * 300 // tot.nn AS base,
                         n * 300 % tot.nn AS rem
                  FROM c, tot),
            l AS (SELECT CAST(300 - sum(base) OVER () AS BIGINT)
                           AS leftover,
                         row_number() OVER (ORDER BY rem DESC, g)
                           AS rk,
                         g, base
                  FROM b),
            q AS (SELECT g, base + CASE WHEN rk <= leftover
                                   THEN 1 ELSE 0 END AS quota
                  FROM l),
            h AS (SELECT g, k,
                         ((CAST(k AS HUGEINT) % 4294967296)
                          * 2654435761) % 4294967296 AS hv
                  FROM e),
            r AS (SELECT g, k,
                         row_number() OVER (PARTITION BY g
                                            ORDER BY hv, k) AS rn
                  FROM h)
            SELECT r.g AS source, r.k AS doc_id
            FROM r JOIN q USING (g)
            WHERE r.rn <= q.quota
        """,
        # FK audit: NOT EXISTS orphan counts, one division
        "q225_fk_audit": """
            WITH a AS (
              SELECT 'lineitem->orders' AS relation,
                     CAST(count(*) AS BIGINT) AS n_child,
                     CAST(sum(CASE WHEN NOT EXISTS (
                         SELECT 1 FROM orders o
                         WHERE o.o_orderkey = l.l_orderkey)
                         THEN 1 ELSE 0 END) AS BIGINT) AS n_orphans
              FROM lineitem l),
            b AS (
              SELECT 'orders->customer' AS relation,
                     CAST(count(*) AS BIGINT) AS n_child,
                     CAST(sum(CASE WHEN NOT EXISTS (
                         SELECT 1 FROM customer c
                         WHERE c.c_custkey = o.o_custkey)
                         THEN 1 ELSE 0 END) AS BIGINT) AS n_orphans
              FROM orders o),
            u AS (SELECT * FROM a UNION ALL SELECT * FROM b)
            SELECT relation, n_child, n_orphans,
                   CASE WHEN n_child = 0 THEN NULL
                        ELSE CAST(n_orphans AS DOUBLE)
                             / CAST(n_child AS DOUBLE) END
                     AS orphan_share
            FROM u
        """,
        # KMV set ops: q48 md5-prefix sketches; union = k-min of the
        # two sketches' union; jaccard/intersection one div + one mul
        "q224_kmv_setops": """
            WITH ab AS (SELECT min(event_type) AS ga,
                               max(event_type) AS gb
                        FROM events WHERE event_type IS NOT NULL),
            h AS (
              SELECT DISTINCT event_type AS g,
                     CAST(CAST('0x' || substr(md5(CAST(user_id
                          AS VARCHAR)), 1, 15) AS UBIGINT)
                          AS BIGINT) AS hv
              FROM events, ab
              WHERE event_type IN (ab.ga, ab.gb)
                AND user_id IS NOT NULL),
            sa AS (SELECT hv FROM h, ab WHERE g = ab.ga
                   ORDER BY hv LIMIT 64),
            sb AS (SELECT hv FROM h, ab WHERE g = ab.gb
                   ORDER BY hv LIMIT 64),
            su AS (SELECT DISTINCT hv FROM (SELECT hv FROM sa
                                            UNION SELECT hv FROM sb)
                   ORDER BY hv LIMIT 64),
            stats AS (
              SELECT (SELECT count(*) FROM sa) AS ka,
                     (SELECT max(hv) FROM sa) AS kth_a,
                     (SELECT count(*) FROM sb) AS kb,
                     (SELECT max(hv) FROM sb) AS kth_b,
                     (SELECT count(*) FROM su) AS ku,
                     (SELECT max(hv) FROM su) AS kth_u,
                     (SELECT count(*) FROM su
                      WHERE hv IN (SELECT hv FROM sa)
                        AND hv IN (SELECT hv FROM sb)) AS nboth)
            SELECT ab.ga AS group_a, ab.gb AS group_b,
                   CAST(ka AS BIGINT) AS k_used_a,
                   CAST(kb AS BIGINT) AS k_used_b,
                   CAST(ku AS BIGINT) AS k_used_union,
                   CASE WHEN ka < 64 THEN CAST(ka AS DOUBLE)
                        ELSE 63.0 * 1152921504606846976.0
                             / CAST(kth_a AS DOUBLE) END AS est_a,
                   CASE WHEN kb < 64 THEN CAST(kb AS DOUBLE)
                        ELSE 63.0 * 1152921504606846976.0
                             / CAST(kth_b AS DOUBLE) END AS est_b,
                   CASE WHEN ku < 64 THEN CAST(ku AS DOUBLE)
                        ELSE 63.0 * 1152921504606846976.0
                             / CAST(kth_u AS DOUBLE) END
                     AS est_union,
                   CAST(nboth AS DOUBLE) / CAST(ku AS DOUBLE)
                     AS jaccard_k,
                   (CAST(nboth AS DOUBLE) / CAST(ku AS DOUBLE))
                     * (CASE WHEN ku < 64 THEN CAST(ku AS DOUBLE)
                             ELSE 63.0 * 1152921504606846976.0
                                  / CAST(kth_u AS DOUBLE) END)
                     AS est_intersection
            FROM stats, ab
        """,
        # DiD: four exact cell means, fixed-order subtraction
        "q222_did_estimate": """
            WITH e AS (
              SELECT event_type AS g, user_id % 2 AS a,
                     epoch_us(ts) AS t,
                     CAST(round(coalesce(value, 0) * 100) AS BIGINT)
                       AS y
              FROM events
              WHERE event_type IS NOT NULL AND user_id IS NOT NULL
                AND ts IS NOT NULL),
            b AS (SELECT min(t) AS mn, max(t) AS mx FROM e),
            c AS (SELECT mn + (mx - mn) * 4 // 5 AS cut FROM b),
            s AS (SELECT g, a, CASE WHEN t >= (SELECT cut FROM c)
                                    THEN 1 ELSE 0 END AS post, y
                  FROM e),
            m AS (SELECT g,
                    CAST(sum(CASE WHEN a=1 AND post=0 THEN 1
                             ELSE 0 END) AS BIGINT) AS n_t_pre,
                    CAST(sum(CASE WHEN a=1 AND post=1 THEN 1
                             ELSE 0 END) AS BIGINT) AS n_t_post,
                    CAST(sum(CASE WHEN a=0 AND post=0 THEN 1
                             ELSE 0 END) AS BIGINT) AS n_c_pre,
                    CAST(sum(CASE WHEN a=0 AND post=1 THEN 1
                             ELSE 0 END) AS BIGINT) AS n_c_post,
                    CAST(sum(CASE WHEN a=1 AND post=0 THEN y END)
                         AS BIGINT) AS s_t_pre,
                    CAST(sum(CASE WHEN a=1 AND post=1 THEN y END)
                         AS BIGINT) AS s_t_post,
                    CAST(sum(CASE WHEN a=0 AND post=0 THEN y END)
                         AS BIGINT) AS s_c_pre,
                    CAST(sum(CASE WHEN a=0 AND post=1 THEN y END)
                         AS BIGINT) AS s_c_post
                  FROM s GROUP BY g)
            SELECT g AS event_type, n_t_pre, n_t_post, n_c_pre,
                   n_c_post,
                   CASE WHEN n_t_pre = 0 OR n_t_post = 0
                          OR n_c_pre = 0 OR n_c_post = 0 THEN NULL
                        ELSE (CAST(s_t_post AS DOUBLE)
                                / CAST(n_t_post AS DOUBLE)
                              - CAST(s_t_pre AS DOUBLE)
                                / CAST(n_t_pre AS DOUBLE))
                             - (CAST(s_c_post AS DOUBLE)
                                  / CAST(n_c_post AS DOUBLE)
                                - CAST(s_c_pre AS DOUBLE)
                                  / CAST(n_c_pre AS DOUBLE))
                   END AS did
            FROM m
        """,
        # quota: floor shares + remainder-ranked top-up, all integer
        "q221_quota_allocate": """
            WITH c AS (SELECT source AS g,
                              CAST(count(*) AS BIGINT) AS n
                       FROM documents WHERE source IS NOT NULL
                       GROUP BY source),
            tot AS (SELECT CAST(sum(n) AS BIGINT) AS nn FROM c),
            b AS (SELECT g, n, n * 1000 // tot.nn AS base,
                         n * 1000 % tot.nn AS rem
                  FROM c, tot),
            l AS (SELECT CAST(1000 - sum(base) OVER () AS BIGINT)
                           AS leftover,
                         row_number() OVER (ORDER BY rem DESC, g)
                           AS rk,
                         g, n, base
                  FROM b)
            SELECT g AS source, n AS n_rows,
                   CAST(base AS BIGINT) AS base,
                   CAST(CASE WHEN rk <= leftover THEN 1 ELSE 0 END
                        AS BIGINT) AS extra,
                   CAST(base + CASE WHEN rk <= leftover
                               THEN 1 ELSE 0 END AS BIGINT)
                     AS quota
            FROM l
        """,
        # pareto: NOT EXISTS anti-join on pure integer domination
        "q220_pareto_front": """
            WITH e AS (
              SELECT event_type, event_id,
                     CAST(round(coalesce(value, 0) * 100) AS BIGINT)
                       AS xc,
                     epoch_us(ts) AS yt
              FROM events
              WHERE event_type IS NOT NULL AND event_id IS NOT NULL
                AND ts IS NOT NULL)
            SELECT event_type, event_id, xc, yt FROM e
            WHERE NOT EXISTS (
              SELECT 1 FROM e o
              WHERE o.event_type = e.event_type
                AND o.xc >= e.xc AND o.yt >= e.yt
                AND (o.xc > e.xc OR o.yt > e.yt))
        """,
        # composed corpus prep: dedup -> gopher -> interleave as one
        # chained-CTE replay (each stage also oracled alone:
        # q207/q156/q208)
        "q219_prep_corpus": r"""
            WITH l AS (
              SELECT doc_id, text,
                     lead(text) OVER (ORDER BY text, doc_id) AS nxt
              FROM documents WHERE text IS NOT NULL),
            keep_ids AS (
              SELECT doc_id FROM l
              WHERE nxt IS NULL OR NOT starts_with(nxt, text)),
            dd AS (SELECT d.doc_id, d.text, d.source
                   FROM documents d JOIN keep_ids USING (doc_id)),
            base AS (
              SELECT doc_id, source, coalesce(text, '') AS tx,
                     regexp_extract_all(coalesce(text, ''), '\S+')
                       AS t,
                     string_split(coalesce(text, ''), chr(10)) AS ls
              FROM dd),
            s AS (
              SELECT doc_id, source,
                len(t) AS w_, coalesce(length(array_to_string(
                    t, '')), 0) AS wc,
                len(regexp_extract_all(tx, '#')) AS nh,
                len(regexp_extract_all(tx, '\.\.\.')) AS ne,
                len(ls) AS nl,
                len(list_filter(ls, x -> regexp_matches(
                    x, '^\s*[-*•]'))) AS nb,
                len(list_filter(ls, x -> regexp_matches(
                    x, '\.\.\.\s*$'))) AS nel,
                len(list_filter(t, x -> x IN ('the','be','to','of',
                    'and','that','have','with'))) AS nst,
                len(list_filter(t, x -> regexp_matches(
                    x, '[A-Za-z]'))) AS na
              FROM base),
            kept AS (
              SELECT doc_id, source FROM s
              WHERE w_ >= 5 AND w_ <= 100000
                AND 3 * w_ <= wc AND wc <= 10 * w_
                AND 10 * (nh + ne) < w_
                AND 10 * nb < 9 * nl AND 10 * nel < 3 * nl
                AND 10 * na >= 8 * w_ AND nst >= 0),
            w AS (SELECT doc_id, source,
                         length(source) % 3 + 1 AS w
                  FROM kept WHERE doc_id IS NOT NULL
                    AND source IS NOT NULL),
            r AS (SELECT doc_id, source, w,
                         row_number() OVER (PARTITION BY source
                                            ORDER BY doc_id) AS rn
                  FROM w),
            p AS (SELECT doc_id, source, rn,
                         CAST(rn AS DOUBLE) / CAST(w AS DOUBLE)
                           AS pos
                  FROM r),
            o AS (SELECT *, row_number()
                    OVER (ORDER BY pos, source, doc_id) AS ord
                  FROM p)
            SELECT source, doc_id, rn, pos, ord
            FROM o WHERE ord <= 300
        """,
        # split audit: BIGINT epoch-us so // is integer floor (the
        # DOUBLE // pitfall); leak_share one division
        "q217_split_audit": """
            WITH e AS (
              SELECT user_id AS u, epoch_us(ts) AS t FROM events
              WHERE user_id IS NOT NULL AND ts IS NOT NULL),
            b AS (SELECT min(t) AS mn, max(t) AS mx FROM e),
            c AS (SELECT mn + (mx - mn) * 4 // 5 AS cut FROM b),
            s AS (SELECT u, CASE WHEN t >= (SELECT cut FROM c)
                                 THEN 1 ELSE 0 END AS side FROM e),
            r AS (SELECT CAST(sum(CASE WHEN side = 0 THEN 1 ELSE 0
                                  END) AS BIGINT) AS rows_train,
                         CAST(sum(side) AS BIGINT) AS rows_test
                  FROM s),
            u AS (SELECT u AS uid,
                         max(CASE WHEN side = 0 THEN 1 ELSE 0 END)
                           AS htr,
                         max(side) AS hte
                  FROM s GROUP BY u),
            k AS (SELECT CAST(sum(htr) AS BIGINT) AS users_train,
                         CAST(sum(hte) AS BIGINT) AS users_test,
                         CAST(sum(CASE WHEN htr = 1 AND hte = 1
                                  THEN 1 ELSE 0 END) AS BIGINT)
                           AS users_both
                  FROM u)
            SELECT c.cut AS cut_ts, r.rows_train, r.rows_test,
                   k.users_train, k.users_test, k.users_both,
                   CASE WHEN k.users_test = 0 THEN NULL
                        ELSE CAST(k.users_both AS DOUBLE)
                             / CAST(k.users_test AS DOUBLE) END
                     AS leak_share
            FROM c, r, k
        """,
        # cross-source grams: group the gram STRINGS directly (md5
        # halves have identical equality classes — q84/q155)
        "q216_cross_source": r"""
            WITH tok AS (
              SELECT source,
                     regexp_extract_all(coalesce(text, ''), '\S+')
                       AS t
              FROM documents WHERE source IS NOT NULL),
            gr AS (
              SELECT source,
                     array_to_string(t[pos : pos + 7], ' ') AS gram
              FROM (SELECT source, t,
                           unnest(generate_series(1, len(t) - 7))
                             AS pos
                    FROM tok WHERE len(t) >= 8)),
            d AS (SELECT DISTINCT source, gram FROM gr),
            p AS (SELECT a.source AS src_a, b.source AS src_b
                  FROM d a JOIN d b
                    ON a.gram = b.gram AND a.source < b.source)
            SELECT src_a, src_b,
                   CAST(count(*) AS BIGINT) AS shared_grams
            FROM p GROUP BY 1, 2
        """,
        # Mann-Whitney: doubled tie-averaged ranks; z from exact
        # HUGEINT products (cast, divide, sqrt, divide)
        "q214_mann_whitney": """
            WITH e AS (
              SELECT event_type AS g, user_id % 2 AS a,
                     CAST(round(coalesce(value, 0) * 100) AS BIGINT)
                       AS y
              FROM events
              WHERE event_type IS NOT NULL AND user_id IS NOT NULL
                AND value IS NOT NULL),
            r AS (SELECT g, a, y,
                         rank() OVER (PARTITION BY g ORDER BY y)
                           AS rk,
                         count(*) OVER (PARTITION BY g, y) AS tcnt
                  FROM e),
            tg AS (SELECT g, CAST(sum(c * c * c - c) AS HUGEINT)
                            AS tt
                   FROM (SELECT g, y, CAST(count(*) AS HUGEINT)
                                AS c
                         FROM e GROUP BY g, y) GROUP BY g),
            s AS (SELECT g,
                         CAST(count(*) AS HUGEINT) AS n,
                         CAST(sum(a) AS HUGEINT) AS n1,
                         CAST(sum(CASE WHEN a = 1
                                  THEN 2 * rk + tcnt - 1 ELSE 0
                                  END) AS HUGEINT) AS two_r1
                  FROM r GROUP BY g)
            SELECT s.g AS event_type,
                   CAST(s.n1 AS BIGINT) AS n1,
                   CAST(s.n - s.n1 AS BIGINT) AS n2,
                   CAST(s.two_r1 - s.n1 * (s.n1 + 1) AS BIGINT)
                     AS u2,
                   CASE WHEN s.n1 = 0 OR s.n = s.n1 OR s.n < 2
                          OR s.n1 * (s.n - s.n1)
                             * (s.n * s.n * s.n - s.n - tg.tt) = 0
                        THEN NULL
                        ELSE CAST(s.two_r1 - s.n1 * (s.n1 + 1)
                                  - s.n1 * (s.n - s.n1) AS DOUBLE)
                             / sqrt(CAST(s.n1 * (s.n - s.n1)
                                    * (s.n * s.n * s.n - s.n
                                       - tg.tt) AS DOUBLE)
                                    / CAST(3 * s.n * (s.n - 1)
                                           AS DOUBLE))
                   END AS z
            FROM s JOIN tg ON s.g = tg.g
        """,
        # LOO target encode: (S-y)/(C-1), one division of exact ints
        "q213_loo_encode": """
            WITH e AS (
              SELECT event_id, event_type,
                     CAST(round(coalesce(value, 0) * 100) AS BIGINT)
                       AS y
              FROM events
              WHERE event_id IS NOT NULL
                AND event_type IS NOT NULL),
            s AS (SELECT event_type, CAST(sum(y) AS BIGINT) AS sg,
                         CAST(count(*) AS BIGINT) AS cg
                  FROM e GROUP BY event_type)
            SELECT e.event_id, e.event_type,
                   CASE WHEN s.cg > 1
                        THEN CAST(s.sg - e.y AS DOUBLE)
                             / CAST(s.cg - 1 AS DOUBLE)
                        ELSE NULL END AS loo_cents
            FROM e JOIN s USING (event_type)
        """,
        # vocab coverage: exact term counts; unseen/chao1 are single
        # divisions of exact ints (+ one addition for chao1)
        "q212_vocab_coverage": r"""
            WITH tok AS (
              SELECT source,
                     unnest(regexp_extract_all(coalesce(text, ''),
                                               '\S+')) AS term
              FROM documents WHERE source IS NOT NULL),
            tc AS (SELECT source, term,
                          CAST(count(*) AS BIGINT) AS c
                   FROM tok GROUP BY 1, 2),
            agg AS (SELECT source,
                           CAST(count(*) AS BIGINT) AS vocab,
                           CAST(sum(c) AS BIGINT) AS n_tokens,
                           CAST(sum(CASE WHEN c = 1 THEN 1 ELSE 0
                                    END) AS BIGINT) AS hapax,
                           CAST(sum(CASE WHEN c = 2 THEN 1 ELSE 0
                                    END) AS BIGINT) AS dis
                    FROM tc GROUP BY source)
            SELECT source, n_tokens, vocab, hapax, dis,
                   CAST(hapax AS DOUBLE) / CAST(n_tokens AS DOUBLE)
                     AS unseen_mass,
                   CASE WHEN dis > 0 THEN CAST(vocab AS DOUBLE)
                          + CAST(hapax * hapax AS DOUBLE)
                            / CAST(2 * dis AS DOUBLE)
                        ELSE NULL END AS chao1
            FROM agg
        """,
        # silhouette: the q116 unnest replay extended to ALL
        # centroids; b = min over identically-computed doubles
        "q209_silhouette": """
            WITH x AS (
              SELECT vec_id, label, i,
                     CAST(floor(CAST(embedding[i] AS DOUBLE) * 256
                                + 0.5) AS HUGEINT) AS xq
              FROM embeddings,
                   unnest(range(1, len(embedding) + 1)) AS r(i)
              WHERE label IS NOT NULL AND embedding IS NOT NULL
            ), s AS (
              SELECT label AS clabel, i, sum(xq) AS sd,
                     count(*) AS n
              FROM x GROUP BY label, i
            ), d AS (
              SELECT x.vec_id, x.label, s.clabel,
                     CAST(sum((s.n * x.xq - s.sd)
                              * (s.n * x.xq - s.sd)) AS DOUBLE)
                       / CAST(any_value(s.n * s.n) AS DOUBLE)
                       / 65536.0 AS dist2,
                     CAST(any_value(s.n) AS BIGINT) AS cn
              FROM x JOIN s ON x.i = s.i
              GROUP BY x.vec_id, x.label, s.clabel
            ), ab AS (
              SELECT vec_id, label,
                     max(CASE WHEN clabel = label THEN dist2 END)
                       AS a,
                     max(CASE WHEN clabel = label THEN cn END) AS n,
                     min(CASE WHEN clabel <> label THEN dist2 END)
                       AS b
              FROM d GROUP BY vec_id, label
            )
            SELECT vec_id, label, n, a, b,
                   CASE WHEN greatest(a, b) = 0 THEN 0.0
                        ELSE (b - a) / greatest(a, b) END AS sil
            FROM ab
        """,
        # weighted interleave: stride positions rn/w, one division
        # of exact ints; ties break on (source, id)
        "q208_weighted_interleave": """
            WITH s AS (SELECT doc_id, source,
                              length(source) % 3 + 1 AS w
                       FROM documents
                       WHERE doc_id IS NOT NULL
                         AND source IS NOT NULL),
            r AS (SELECT doc_id, source, w,
                         row_number() OVER (PARTITION BY source
                                            ORDER BY doc_id) AS rn
                  FROM s),
            p AS (SELECT doc_id, source, rn,
                         CAST(rn AS DOUBLE) / CAST(w AS DOUBLE)
                           AS pos
                  FROM r),
            o AS (SELECT *, row_number()
                    OVER (ORDER BY pos, source, doc_id) AS ord
                  FROM p)
            SELECT source, doc_id, rn, pos, ord
            FROM o WHERE ord <= 500
        """,
        # prefix dedup: lead/starts_with over the (text, id) order
        # replays the adjacent-compare kept set exactly
        "q207_prefix_dedup": """
            WITH u AS (
              SELECT doc_id, text FROM documents
              UNION ALL
              SELECT doc_id + 1000000000, substr(text, 1, 100)
              FROM documents),
            s AS (SELECT doc_id, text FROM u
                  WHERE text IS NOT NULL),
            l AS (SELECT doc_id, text,
                         lead(text) OVER (ORDER BY text, doc_id)
                           AS nxt
                  FROM s)
            SELECT doc_id FROM l
            WHERE nxt IS NULL OR NOT starts_with(nxt, text)
        """,
        # association rules: distinct-basket self-join replay; every
        # ratio is one division of exact integer counts
        "q206_association_rules": """
            WITH d AS (SELECT DISTINCT user_id AS bk,
                              event_type AS i
                       FROM events WHERE user_id IS NOT NULL
                         AND event_type IS NOT NULL),
            s AS (SELECT i, CAST(count(*) AS BIGINT) AS n
                  FROM d GROUP BY i),
            nb AS (SELECT CAST(count(DISTINCT bk) AS BIGINT) AS nu
                   FROM d),
            p AS (SELECT x.i AS a, y.i AS b,
                         CAST(count(*) AS BIGINT) AS n_ab
                  FROM d x JOIN d y
                    ON x.bk = y.bk AND x.i < y.i
                  GROUP BY 1, 2),
            pp AS (SELECT a AS ant, b AS cons, n_ab FROM p
                   UNION ALL SELECT b, a, n_ab FROM p)
            SELECT pp.ant, pp.cons, pp.n_ab, sa.n AS n_ant,
                   sc.n AS n_cons, nb.nu AS n_baskets,
                   CAST(pp.n_ab AS DOUBLE) / CAST(nb.nu AS DOUBLE)
                     AS support,
                   CAST(pp.n_ab AS DOUBLE) / CAST(sa.n AS DOUBLE)
                     AS confidence,
                   CAST(pp.n_ab * nb.nu AS DOUBLE)
                     / CAST(sa.n * sc.n AS DOUBLE) AS lift
            FROM pp, nb
            JOIN s sa ON pp.ant = sa.i
            JOIN s sc ON pp.cons = sc.i
            WHERE pp.n_ab >= 5
        """,
        # kappa: exact int 2x2 margins, margin-form numerator /
        # denominator, ONE HUGEINT->DOUBLE division each side
        "q205_kappa_agreement": r"""
            WITH f AS (
              SELECT source,
                     CASE WHEN coalesce(n_chars, 0) >= 500
                          THEN 1 ELSE 0 END AS a,
                     CASE WHEN length(regexp_extract_all(
                              coalesce(text, ''), '\S+')) >= 80
                          THEN 1 ELSE 0 END AS b
              FROM documents WHERE source IS NOT NULL),
            c AS (SELECT source,
                  CAST(count(*) AS BIGINT) AS n,
                  CAST(sum(CASE WHEN a = 1 AND b = 1 THEN 1 ELSE 0
                           END) AS BIGINT) AS n11,
                  CAST(sum(CASE WHEN a = 1 AND b = 0 THEN 1 ELSE 0
                           END) AS BIGINT) AS n10,
                  CAST(sum(CASE WHEN a = 0 AND b = 1 THEN 1 ELSE 0
                           END) AS BIGINT) AS n01,
                  CAST(sum(CASE WHEN a = 0 AND b = 0 THEN 1 ELSE 0
                           END) AS BIGINT) AS n00
                  FROM f GROUP BY source)
            SELECT source, n, n11, n10, n01, n00,
                   CAST(n * (n11 + n00)
                        - ((n11 + n10) * (n11 + n01)
                           + (n00 + n01) * (n00 + n10)) AS DOUBLE)
                     / CAST(NULLIF(n * n
                        - ((n11 + n10) * (n11 + n01)
                           + (n00 + n01) * (n00 + n10)), 0)
                        AS DOUBLE) AS kappa
            FROM c
        """,
        # checksum: INJECTIVE n / v<len>:<text> field encoding (a
        # value shifting across a column boundary, or NULL vs '',
        # can no longer collide); coalesce guards the empty table
        "q204_table_checksum": """
            WITH r AS (
              SELECT CAST('0x' || substr(md5(
                  CASE WHEN event_id IS NULL THEN 'n'
                       ELSE 'v' || length(CAST(event_id AS VARCHAR))
                            || ':' || CAST(event_id AS VARCHAR)
                  END || '|' ||
                  CASE WHEN user_id IS NULL THEN 'n'
                       ELSE 'v' || length(CAST(user_id AS VARCHAR))
                            || ':' || CAST(user_id AS VARCHAR)
                  END || '|' ||
                  CASE WHEN event_type IS NULL THEN 'n'
                       ELSE 'v' || length(event_type) || ':'
                            || event_type
                  END || '|' ||
                  CASE WHEN props IS NULL THEN 'n'
                       ELSE 'v' || length(props) || ':' || props
                  END), 1, 15) AS UBIGINT) AS hv
              FROM events)
            SELECT CAST(count(*) AS BIGINT) AS n_rows,
                   CAST(coalesce(sum(hv), 0)
                        % 2305843009213693951 AS BIGINT)
                     AS checksum
            FROM r
        """,
        # compaction invariance: same checksum SQL as q204 over the
        # SOURCE events — compacted copy must match it exactly
        "q284_compaction": """
            WITH r AS (
              SELECT CAST('0x' || substr(md5(
                  CASE WHEN event_id IS NULL THEN 'n'
                       ELSE 'v' || length(CAST(event_id AS VARCHAR))
                            || ':' || CAST(event_id AS VARCHAR)
                  END || '|' ||
                  CASE WHEN user_id IS NULL THEN 'n'
                       ELSE 'v' || length(CAST(user_id AS VARCHAR))
                            || ':' || CAST(user_id AS VARCHAR)
                  END || '|' ||
                  CASE WHEN event_type IS NULL THEN 'n'
                       ELSE 'v' || length(event_type) || ':'
                            || event_type
                  END || '|' ||
                  CASE WHEN props IS NULL THEN 'n'
                       ELSE 'v' || length(props) || ':' || props
                  END), 1, 15) AS UBIGINT) AS hv
              FROM events)
            SELECT CAST(count(*) AS BIGINT) AS n_rows,
                   CAST(coalesce(sum(hv), 0)
                        % 2305843009213693951 AS BIGINT)
                     AS checksum
            FROM r
        """,
        # RRF: three deterministic row_number rankings, fixed-order
        # reciprocal sum, top 50
        "q203_rrf_fusion": r"""
            WITH s AS (
              SELECT doc_id, coalesce(n_chars, 0) AS nc,
                     CAST(length(regexp_extract_all(
                         coalesce(text, ''), '\S+')) AS BIGINT)
                       AS n_tok,
                     CAST(length(list_distinct(regexp_extract_all(
                         coalesce(text, ''), '\S+'))) AS BIGINT)
                       AS n_dis
              FROM documents WHERE doc_id IS NOT NULL),
            r AS (SELECT doc_id,
                         row_number() OVER (ORDER BY nc DESC, doc_id)
                           AS r1,
                         row_number() OVER (ORDER BY n_tok DESC,
                                            doc_id) AS r2,
                         row_number() OVER (ORDER BY n_dis DESC,
                                            doc_id) AS r3
                  FROM s)
            SELECT doc_id, r1, r2, r3,
                   1.0 / (60 + r1) + 1.0 / (60 + r2)
                     + 1.0 / (60 + r3) AS rrf
            FROM r ORDER BY rrf DESC, doc_id LIMIT 50
        """,
        "q187_pagerank": q187,
        "q01_pricing_summary": """
            SELECT l_returnflag, l_linestatus,
                   round(sum(CAST(round(l_quantity * 100) AS BIGINT)) / 100.0, 4) AS sum_qty,
                   round(sum(CAST(round(l_extendedprice * 100) AS BIGINT)) / 100.0, 4) AS sum_base_price,
                   round(sum(CAST(round(l_extendedprice * (1 - l_discount) * 10000) AS BIGINT)) / 10000.0, 4) AS sum_disc_price,
                   round(sum(CAST(round(l_extendedprice * (1 - l_discount) * (1 + l_tax) * 1000000) AS BIGINT)) / 1000000.0, 4) AS sum_charge,
                   round(avg(l_quantity), 4) AS avg_qty,
                   round(avg(l_extendedprice), 4) AS avg_price,
                   round(avg(l_discount), 4) AS avg_disc,
                   count(*) AS count_order
            FROM lineitem
            GROUP BY l_returnflag, l_linestatus
        """,
        "q02_filter_project": """
            SELECT l_orderkey, l_linenumber,
                   round(l_extendedprice * (1 - l_discount), 6) AS revenue
            FROM lineitem WHERE l_shipdate >= DATE '1995-01-01'
        """,
        "q03_top_customers": """
            SELECT o_custkey, round(sum(o_totalprice), 4) AS total_spent, any_value(c_name) AS c_name
            FROM orders JOIN customer ON o_custkey = c_custkey
            GROUP BY o_custkey
            ORDER BY total_spent DESC, o_custkey LIMIT 10
        """,
        "q04_priority_revenue": """
            SELECT o_orderpriority,
                   round(sum(CAST(round(l_extendedprice * (1 - l_discount) * 10000)
                                  AS BIGINT)) / 10000.0, 4) AS total_revenue
            FROM lineitem JOIN orders ON l_orderkey = o_orderkey
            GROUP BY o_orderpriority
        """,
        "q05_distinct_users": """
            SELECT event_type, count(DISTINCT user_id) AS n_users
            FROM events GROUP BY event_type
        """,
        "q15_group_stats": """
            WITH g AS (SELECT event_type, avg(value) AS m, count(*) AS n FROM events GROUP BY event_type)
            SELECT e.event_type,
                   any_value(g.n) AS n,
                   round(any_value(g.m), 6) AS v_mean,
                   round(sqrt(sum((e.value - g.m)*(e.value - g.m)) / any_value(g.n)), 6) AS v_std_pop,
                   round(avg(abs(e.value - g.m)), 6) AS v_avg_dev,
                   round(CASE WHEN abs(sum(pow(e.value - g.m, 3)) / any_value(g.n)) < 1e-8 THEN 0
                         ELSE (sum(pow(e.value - g.m, 3)) / any_value(g.n))
                              / pow(sum((e.value - g.m)*(e.value - g.m)) / any_value(g.n), 1.5) END, 6) AS v_skew,
                   round(CASE WHEN abs(sum(pow(e.value - g.m, 4)) / any_value(g.n)) < 1e-8 THEN 0
                         ELSE (sum(pow(e.value - g.m, 4)) / any_value(g.n))
                              / pow(sum((e.value - g.m)*(e.value - g.m)) / any_value(g.n), 2) END, 6) AS v_kurt,
                   round(min(e.value), 6) AS v_min,
                   round(max(e.value), 6) AS v_max,
                   round(max(e.value) - min(e.value), 6) AS v_range
            FROM events e JOIN g ON e.event_type = g.event_type
            GROUP BY e.event_type
        """,
        "q16_corr_matrix": """
            SELECT 'l_quantity' AS col_a, 'l_extendedprice' AS col_b,
                   round(corr(l_quantity, l_extendedprice), 6) AS corr FROM lineitem
            UNION ALL SELECT 'l_quantity', 'l_discount', round(corr(l_quantity, l_discount), 6) FROM lineitem
            UNION ALL SELECT 'l_quantity', 'l_tax', round(corr(l_quantity, l_tax), 6) FROM lineitem
            UNION ALL SELECT 'l_extendedprice', 'l_discount', round(corr(l_extendedprice, l_discount), 6) FROM lineitem
            UNION ALL SELECT 'l_extendedprice', 'l_tax', round(corr(l_extendedprice, l_tax), 6) FROM lineitem
            UNION ALL SELECT 'l_discount', 'l_tax', round(corr(l_discount, l_tax), 6) FROM lineitem
        """,
        "q19_top_docs": """
            SELECT doc_id, n_chars FROM documents
            ORDER BY n_chars DESC, doc_id LIMIT 20
        """,
        "q21_union": """
            SELECT 'customer' AS kind, CAST(c_custkey AS BIGINT) AS key,
                   round(c_acctbal, 6) AS acctbal FROM customer
            UNION ALL
            SELECT 'supplier', CAST(s_suppkey AS BIGINT), round(s_acctbal, 6)
            FROM supplier
        """,
        "q06_sessionize": sess_cte + "SELECT event_id, session_id FROM s",
        "q07_lag_delta": """
            SELECT event_id,
                   round(lag(value) OVER w, 6) AS lag1_value,
                   round(epoch(ts - lag(ts) OVER w), 6) AS delta_ts_s
            FROM events WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
        """,
        "q08_rolling_window": """
            SELECT event_id,
                   CAST(count(value) OVER w AS BIGINT) AS roll_count,
                   round(sum(value) OVER w, 6) AS roll_sum,
                   round(avg(value) OVER w, 6) AS roll_mean,
                   round(stddev_samp(value) OVER w, 6) AS roll_std,
                   round(min(value) OVER w, 6) AS roll_min,
                   round(max(value) OVER w, 6) AS roll_max
            FROM events WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id
                                     ROWS BETWEEN 4 PRECEDING AND CURRENT ROW)
        """,
        "q09_time_window": """
            SELECT event_id,
                   CAST(count(value) OVER w AS BIGINT) AS w_count,
                   round(sum(value) OVER w, 6) AS w_sum,
                   round(avg(value) OVER w, 6) AS w_mean
            FROM events WINDOW w AS (PARTITION BY user_id ORDER BY ts
                                     RANGE BETWEEN INTERVAL 1 HOUR PRECEDING
                                     AND CURRENT ROW)
        """,
        "q10_asof_backfill": """
            SELECT e.event_id, round(f.err_value, 6) AS err_value
            FROM events e
            ASOF LEFT JOIN (
                SELECT user_id, ts, max(value) AS err_value
                FROM events WHERE event_type = 'error' GROUP BY user_id, ts
            ) f ON e.user_id = f.user_id AND e.ts >= f.ts
        """,
        "q11_session_stats": sess_cte + """
            SELECT user_id, session_id,
                   count(*) AS n_events,
                   round(epoch(max(ts) - min(ts)), 6) AS duration_s,
                   round(avg(value), 6) AS mean_value
            FROM s GROUP BY user_id, session_id
        """,
        "q12_normalize": """
            -- reference ger_magnitude closed form: m>1 -> 10^(floor(log10 m)+1),
            -- 0<m<=1 -> 10^-(floor(-log10 m)+1), m<=-1 -> 1
            WITH m AS (SELECT avg(value) AS mv FROM events),
            s AS (SELECT CASE WHEN mv = 0 THEN 1
                              WHEN mv <= -1 THEN 1
                              WHEN abs(mv) > 1
                                THEN pow(10, floor(log10(abs(mv))) + 1)
                              ELSE pow(10, -(floor(-log10(abs(mv))) + 1))
                         END AS sc FROM m)
            SELECT event_id,
                   round(value / (SELECT sc FROM s), 6) AS value_scaled
            FROM events
        """,
        "q13_poly": """
            SELECT l_orderkey, l_linenumber,
                   round(l_quantity, 6) AS q1,
                   round(l_quantity * l_quantity, 6) AS q2,
                   round(l_discount, 6) AS d1,
                   round(l_discount * l_discount, 6) AS d2,
                   round(l_quantity * l_discount, 6) AS qd,
                   round(l_quantity * l_discount * l_discount, 6) AS qd2,
                   round(l_quantity * l_quantity * l_discount, 6) AS q2d,
                   round(l_quantity * l_quantity * l_discount * l_discount, 6) AS q2d2
            FROM lineitem
        """,
        "q14_broadcast_lookup": """
            SELECT e.event_id,
                   round(p.p0, 6) AS et_p0, round(p.p1, 6) AS et_p1,
                   round(p.p2, 6) AS et_p2, round(p.p3, 6) AS et_p3
            FROM events e LEFT JOIN (VALUES
                ('click', 1.0, 1.0, 1.0, 10.0),
                ('view', 2.0, 4.0, 0.5, 9.0),
                ('purchase', 3.0, 9.0, 0.333333, 8.0),
                ('signup', 4.0, 16.0, 0.25, 7.0),
                ('error', 5.0, 25.0, 0.2, 6.0)
            ) AS p(key, p0, p1, p2, p3) ON e.event_type = p.key
        """,
        "q31_turn_context": """
            SELECT event_id,
                   lag(event_type) OVER w AS prev_event_type,
                   lead(event_type) OVER w AS next_event_type
            FROM events WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
        """,
        "q32_usage_rate": """
            SELECT event_id,
                   round(avg(CASE WHEN event_type = 'error' THEN 1.0 ELSE 0.0 END)
                         OVER (PARTITION BY user_id ORDER BY ts, event_id
                               ROWS BETWEEN 9 PRECEDING AND CURRENT ROW), 6) AS err_rate
            FROM events
        """,
        "q37_bpe_tokens": """
            SELECT doc_id,
                   len(regexp_extract_all(text,
                       '[A-Za-z]+|[0-9]+|[^\\sA-Za-z0-9]')) AS n_bpe
            FROM documents
        """,
        "q35_skew_probe": """
            SELECT CAST(user_id AS BIGINT) AS user_id,
                   count(*) AS n_rows
            FROM events GROUP BY user_id
            ORDER BY n_rows DESC, user_id LIMIT 10
        """,
        "q33_expression_feature": """
            SELECT l_orderkey, l_linenumber,
                   round((l_quantity + l_tax) * l_discount, 6) AS expr_feat
            FROM lineitem
        """,
        "q17_exact_dedup": """
            SELECT doc_id, lang, source, n_chars FROM documents
            QUALIFY row_number() OVER (PARTITION BY text ORDER BY doc_id) = 1
        """,
        "q18_token_counts": """
            SELECT doc_id, length(text) AS ta_n_chars,
                   len(regexp_extract_all(text, '\\S+')) AS ta_n_tokens
            FROM documents
        """,
        "q38_group_dispose": """
            SELECT l_orderkey, l_linenumber,
                   round(l_extendedprice + l_quantity, 4) AS g_madd,
                   round(l_extendedprice * l_quantity, 4) AS g_mmul,
                   round(l_extendedprice - l_quantity, 4) AS g_msub,
                   round(l_extendedprice / l_quantity, 6) AS g_mdiv,
                   round(l_quantity - l_extendedprice, 4) AS g_conv_msub
            FROM lineitem
        """,
        "q41_composition_parse": """
            SELECT CAST(user_id AS BIGINT) AS user_id,
                   CAST(sum(CASE WHEN event_type = 'click' THEN 1 ELSE 0 END) AS BIGINT) AS comp_click,
                   CAST(sum(CASE WHEN event_type = 'view' THEN 1 ELSE 0 END) AS BIGINT) AS comp_view,
                   CAST(sum(CASE WHEN event_type = 'purchase' THEN 1 ELSE 0 END) AS BIGINT) AS comp_purchase,
                   CAST(sum(CASE WHEN event_type = 'signup' THEN 1 ELSE 0 END) AS BIGINT) AS comp_signup,
                   CAST(sum(CASE WHEN event_type = 'error' THEN 1 ELSE 0 END) AS BIGINT) AS comp_error,
                   CAST(0 AS BIGINT) AS comp_other
            FROM events GROUP BY user_id
        """,
        "q39_voronoi_neighbors": """
            WITH pts AS (
              SELECT user_id, event_type,
                     CAST(row_number() OVER (PARTITION BY user_id
                                             ORDER BY ts, event_id) - 1
                          AS DOUBLE) AS x,
                     value AS y
              FROM events
            ),
            cnt AS (SELECT user_id, count(*) AS n FROM pts GROUP BY user_id),
            pairs AS (
              SELECT a.user_id,
                     a.x AS xi, a.y AS yi, b.x AS xj, b.y AS yj,
                     a.event_type AS ta, b.event_type AS tb,
                     (a.x + b.x) / 2 AS mx, (a.y + b.y) / 2 AS my,
                     ((a.x - b.x) * (a.x - b.x)
                      + (a.y - b.y) * (a.y - b.y)) / 4 AS r2
              FROM pts a JOIN pts b
                ON a.user_id = b.user_id AND a.x < b.x
            ),
            gabriel AS (
              SELECT * FROM pairs p WHERE NOT EXISTS (
                SELECT 1 FROM pts k
                WHERE k.user_id = p.user_id
                  AND k.x <> p.xi AND k.x <> p.xj
                  AND (k.x - p.mx) * (k.x - p.mx)
                      + (k.y - p.my) * (k.y - p.my) < p.r2)
            )
            SELECT CAST(g.user_id AS BIGINT) AS user_id,
                   least(ta, tb) AS type_a,
                   greatest(ta, tb) AS type_b,
                   round(sum(1.0 / (1.0 + sqrt((xi - xj) * (xi - xj)
                                               + (yi - yj) * (yi - yj))))
                         / any_value(cnt.n), 6) AS w
            FROM gabriel g JOIN cnt ON cnt.user_id = g.user_id
            WHERE cnt.n <= 512  -- mirrors the engine's max_group cap
            GROUP BY g.user_id, least(ta, tb), greatest(ta, tb)
        """,
        "q26_text_analysis": q26,
        "q22_minhash_neardup": """
            WITH toks AS (
              SELECT doc_id, regexp_extract_all(text, '\\S+') AS t FROM documents
            ),
            sh AS (
              SELECT DISTINCT doc_id,
                     t[i] || chr(1) || t[i+1] || chr(1) || t[i+2] AS s
              FROM toks, LATERAL unnest(range(1, len(t) - 1)) AS u(i)
              WHERE len(t) >= 3
            ),
            cnt AS (SELECT doc_id, count(*) AS n FROM sh GROUP BY doc_id),
            inter AS (
              SELECT a.doc_id AS ia, b.doc_id AS ib, count(*) AS ni
              FROM sh a JOIN sh b ON a.s = b.s AND a.doc_id < b.doc_id
              GROUP BY a.doc_id, b.doc_id
            )
            SELECT CAST(ia AS BIGINT) AS id_a, CAST(ib AS BIGINT) AS id_b,
                   round(CAST(ni AS DOUBLE) / (ca.n + cb.n - ni), 6) AS jaccard
            FROM inter
            JOIN cnt ca ON ca.doc_id = ia
            JOIN cnt cb ON cb.doc_id = ib
            WHERE CAST(ni AS DOUBLE) / (ca.n + cb.n - ni) >= 0.8
        """,
        "q23_simhash_neardup": f"""
            SELECT id_a, id_b, hamming
            FROM read_parquet('{_ORACLE_DIR}/simhash_pairs.parquet')
        """,
        "q42_radius_neighbors": """
            WITH pts AS (
              -- mirror the engine's max_group=4096 skip: users over the
              -- cap emit no rows on either side
              SELECT user_id, event_id, event_type, value,
                     CAST(row_number() OVER (
                       PARTITION BY user_id ORDER BY ts, event_id) - 1
                       AS DOUBLE) AS rk
              FROM events
              WHERE user_id IN (SELECT user_id FROM events
                                GROUP BY user_id HAVING count(*) <= 4096)
            ),
            nb AS (
              SELECT a.user_id, a.event_id, b.event_type AS n_type,
                     round(sqrt((a.rk - b.rk) * (a.rk - b.rk)
                                + (a.value - b.value) * (a.value - b.value)),
                           4) AS dist
              FROM pts a JOIN pts b
                ON a.user_id = b.user_id AND a.event_id <> b.event_id
              WHERE sqrt((a.rk - b.rk) * (a.rk - b.rk)
                         + (a.value - b.value) * (a.value - b.value)) <= 3.0
            )
            SELECT CAST(user_id AS BIGINT) AS user_id,
                   CAST(event_id AS BIGINT) AS event_id,
                   n_type, dist, CAST(count(*) AS BIGINT) AS mult
            FROM nb
            GROUP BY user_id, event_id, n_type, dist
        """,
        "q28_subset_select": f"""
            SELECT "rank", subset, cv_r2
            FROM read_parquet('{_ORACLE_DIR}/subset_select.parquet')
        """,
        "q43_clf_select": f"""
            SELECT "rank", subset, cv_acc
            FROM read_parquet('{_ORACLE_DIR}/clf_select.parquet')
        """,
        "q44_grid_search": f"""
            SELECT combo_id, alpha, cv_r2, is_best
            FROM read_parquet('{_ORACLE_DIR}/grid_search.parquet')
        """,
        "q45_ngram_jaccard": """
            WITH toks AS (
              SELECT doc_id, regexp_extract_all(text, '\\S+') AS t FROM documents
            ),
            sh AS (
              SELECT DISTINCT doc_id,
                     t[i] || chr(1) || t[i+1] || chr(1) || t[i+2] AS s
              FROM toks, LATERAL unnest(range(1, len(t) - 1)) AS u(i)
              WHERE len(t) >= 3
            ),
            cnt AS (SELECT doc_id, count(*) AS n FROM sh GROUP BY doc_id),
            inter AS (
              SELECT a.doc_id AS ia, b.doc_id AS ib, count(*) AS ni
              FROM sh a JOIN sh b ON a.s = b.s AND a.doc_id < b.doc_id
              GROUP BY a.doc_id, b.doc_id
            )
            SELECT CAST(ia AS BIGINT) AS id_a, CAST(ib AS BIGINT) AS id_b,
                   round(CAST(ni AS DOUBLE) / (ca.n + cb.n - ni), 6) AS jaccard
            FROM inter
            JOIN cnt ca ON ca.doc_id = ia
            JOIN cnt cb ON cb.doc_id = ib
            WHERE CAST(ni AS DOUBLE) / (ca.n + cb.n - ni) >= 0.7
        """,
        "q46_rotate_slices": f"""
            SELECT vol_id, angle_deg, n_cols, slice_sum, slice_first
            FROM read_parquet('{_ORACLE_DIR}/rotate_slices.parquet')
        """,
        "q47_http_fetch": """
            SELECT CAST(doc_id AS VARCHAR) AS material_id,
                   CAST(doc_id % 97 AS DOUBLE) * CAST(0.125 AS DOUBLE)
                       AS band_gap,
                   CAST(doc_id % 13 AS DOUBLE) + CAST(0.5 AS DOUBLE)
                       AS density,
                   CAST(doc_id % 1000 AS DOUBLE) AS volume,
                   CAST(doc_id % 5 + 1 AS DOUBLE) AS nelements
            FROM documents
            WHERE doc_id % 3 = 0
        """,
        "q29_symbolic_golden": f"""
            SELECT row_id, y_hat, r2
            FROM read_parquet('{_ORACLE_DIR}/symbolic_golden.parquet')
        """,
        "q30_ego_rank": f"""
            SELECT "rank", x0, x1, ei
            FROM read_parquet('{_ORACLE_DIR}/ego_rank.parquet')
        """,
        "q34_group_select": f"""
            SELECT subset, cluster, cv_r2
            FROM read_parquet('{_ORACLE_DIR}/group_select.parquet')
        """,
        "q36_consensus_rank": f"""
            SELECT "rank", subset, mean_cv_r2
            FROM read_parquet('{_ORACLE_DIR}/consensus_rank.parquet')
        """,
        "q40_multi_ego": f"""
            SELECT "rank", x0, x1, pi, l, ei
            FROM read_parquet('{_ORACLE_DIR}/multi_ego.parquet')
        """,
        "q27_multimodal": f"""
            SELECT media_id, img_mean_r, img_std_g, img_entropy,
                   img_decoder_is_fake
            FROM read_parquet('{_ORACLE_DIR}/multimodal_features.parquet')
        """,
        "q24_embedding_neardup": """
            WITH e AS (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS v
                       FROM embeddings)
            SELECT CAST(a.vec_id AS BIGINT) AS id_a,
                   CAST(b.vec_id AS BIGINT) AS id_b,
                   round(list_cosine_similarity(a.v, b.v), 6) AS cosine
            FROM e a JOIN e b ON a.vec_id < b.vec_id
            WHERE list_cosine_similarity(a.v, b.v) >= 0.45
        """,
        "q25_ivf_ann": """
            WITH e AS (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS v
                       FROM embeddings),
            cents AS (SELECT vec_id AS c_id, v AS cv FROM e WHERE vec_id < 8),
            assign AS (
              SELECT vec_id, c_id FROM (
                SELECT e.vec_id, c.c_id,
                       row_number() OVER (
                         PARTITION BY e.vec_id
                         ORDER BY list_cosine_similarity(e.v, c.cv) DESC,
                                  c.c_id) AS rn
                FROM e CROSS JOIN cents c) WHERE rn = 1
            ),
            qs AS (SELECT vec_id AS query_id, v AS qv FROM e WHERE vec_id < 3),
            probe AS (
              SELECT query_id, c_id FROM (
                SELECT q.query_id, c.c_id,
                       row_number() OVER (
                         PARTITION BY q.query_id
                         ORDER BY list_cosine_similarity(q.qv, c.cv) DESC,
                                  c.c_id) AS rn
                FROM qs q CROSS JOIN cents c) WHERE rn <= 4
            )
            SELECT CAST(query_id AS BIGINT) AS query_id,
                   CAST(vec_id AS BIGINT) AS vec_id,
                   round(cosine, 4) AS cosine
            FROM (
              SELECT p.query_id, a.vec_id,
                     list_cosine_similarity(q.qv, e.v) AS cosine,
                     row_number() OVER (
                       PARTITION BY p.query_id
                       ORDER BY list_cosine_similarity(q.qv, e.v) DESC,
                                a.vec_id) AS rn
              FROM probe p
              JOIN assign a ON a.c_id = p.c_id
              JOIN e ON e.vec_id = a.vec_id
              JOIN qs q ON q.query_id = p.query_id)
            WHERE rn <= 10
        """,
        "q20_ann_topk": """
            WITH qs AS (SELECT vec_id, embedding FROM embeddings WHERE vec_id < 3)
            SELECT CAST(q.vec_id AS BIGINT) AS query_id,
                   CAST(e.vec_id AS BIGINT) AS vec_id,
                   round(CAST(list_cosine_similarity(q.embedding, e.embedding)
                              AS DOUBLE), 4) AS cosine
            FROM qs q CROSS JOIN embeddings e
            QUALIFY row_number() OVER (
                PARTITION BY q.vec_id
                ORDER BY list_cosine_similarity(q.embedding, e.embedding) DESC,
                         e.vec_id) <= 5
        """,
        # KMV sketch replay: identical 60-bit md5 prefixes, per-group
        # row_number over DISTINCT hashes, same (k-1)/u_k estimator —
        # 63*2^60 is float64-exact on both sides, so est_distinct is
        # bit-identical with no rounding
        "q48_kmv_distinct": """
            WITH h AS (
              SELECT DISTINCT event_type,
                     CAST(CAST('0x' || substr(md5(CAST(user_id AS VARCHAR)), 1, 15)
                               AS UBIGINT) AS BIGINT) AS hv
              FROM events
              WHERE user_id IS NOT NULL AND event_type IS NOT NULL
            ), r AS (
              SELECT event_type, hv,
                     row_number() OVER (PARTITION BY event_type
                                        ORDER BY hv) AS rn
              FROM h
            )
            SELECT event_type,
                   CAST(max(rn) AS BIGINT) AS k_used,
                   max(hv) AS kth_hash,
                   CASE WHEN max(rn) < 64 THEN CAST(max(rn) AS DOUBLE)
                        ELSE 63.0 * 1152921504606846976.0
                             / CAST(max(hv) AS DOUBLE) END AS est_distinct
            FROM r WHERE rn <= 64
            GROUP BY event_type
        """,
        # interval join: top-10-per-type anchors open ±2h windows; the
        # join predicate is a pure range (no equality key); aggregates
        # are order-independent-exact (count / int64 sum / min / max)
        "q49_interval_join": """
            WITH w AS (
              SELECT event_id AS win_id, ts FROM (
                SELECT event_id, ts,
                       row_number() OVER (PARTITION BY event_type
                                          ORDER BY value DESC, event_id) AS rn
                FROM events WHERE value IS NOT NULL) WHERE rn <= 10
            )
            SELECT w.win_id, count(*) AS n_events,
                   CAST(sum(e.event_id) AS BIGINT) AS id_sum,
                   round(min(e.value), 6) AS v_min,
                   round(max(e.value), 6) AS v_max
            FROM w JOIN events e
              ON e.ts >= w.ts - INTERVAL 2 HOUR
             AND e.ts <  w.ts + INTERVAL 2 HOUR
            GROUP BY w.win_id
        """,
        # multiplicative-hash sample: HUGEINT keeps the (key%2^32)*mult
        # product exact (max ~1.1e19 > int64), matching numpy uint64;
        # threshold 214748365 = sample_threshold(0.05)
        "q50_hash_sample": """
            SELECT l_returnflag, l_linestatus,
                   count(*) AS n_rows,
                   round(sum(CAST(round(l_quantity * 100) AS BIGINT))
                         / 100.0, 4) AS sum_qty,
                   round(sum(CAST(round(l_extendedprice * 100) AS BIGINT))
                         / 100.0, 4) AS sum_price
            FROM lineitem
            WHERE ((CAST(l_orderkey AS HUGEINT) % 4294967296)
                   * 2654435761) % 4294967296 < 214748365
            GROUP BY l_returnflag, l_linestatus
        """,
        # exact order statistics: quantile_disc picks the sorted element
        # at max(ceil(q*n)-1, 0) — the engine replicates the identical
        # rank, so the doubles are exact data elements (no rounding)
        "q51_group_quantiles": """
            SELECT event_type,
                   count(value) AS n_vals,
                   quantile_disc(value, 0.5) AS p50,
                   quantile_disc(value, 0.9) AS p90,
                   quantile_disc(value, 0.99) AS p99
            FROM events GROUP BY event_type
        """,
        # tumbling 6h windows: bucket = floor(epoch_us / width), exact
        # int64 on both sides; aggregates order-independent-exact
        "q52_tumbling_window": """
            SELECT user_id,
                   (epoch_us(ts) // 21600000000) * 21600000000 AS w_start,
                   count(*) AS n_events,
                   CAST(sum(event_id) AS BIGINT) AS id_sum,
                   round(min(value), 6) AS v_min,
                   round(max(value), 6) AS v_max
            FROM events
            GROUP BY user_id, (epoch_us(ts) // 21600000000)
        """,
        # TF-IDF with exact rational IDF (N/df; no ln — libm ulps differ);
        # tf*(N/df) = two IEEE ops, bit-identical to the engine; tokenizer
        # equivalence \\S+ <-> utf8_split_whitespace as established by q26
        "q53_tfidf": """
            WITH tok AS (
              SELECT doc_id, unnest(regexp_extract_all(text, '\\S+')) AS term
              FROM documents
            ), tf AS (
              SELECT doc_id, term, count(*) AS tf
              FROM tok GROUP BY doc_id, term
            ), df AS (
              SELECT term, count(*) AS df FROM tf GROUP BY term
            ), n AS (SELECT count(*) AS n FROM documents)
            SELECT tf.doc_id, tf.term, CAST(tf.tf AS BIGINT) AS tf,
                   CAST(tf.tf AS DOUBLE)
                   * (CAST(n.n AS DOUBLE) / CAST(df.df AS DOUBLE)) AS tfidf
            FROM tf JOIN df USING (term) CROSS JOIN n
            QUALIFY row_number() OVER (
                PARTITION BY tf.doc_id
                ORDER BY tfidf DESC, tf.term) <= 3
        """,
        # POSCAR ingest replay: every parsed field is an exact binary
        # fraction of doc_id, so the oracle recomputes the table without
        # touching files; volume = s*s*s * (a*(b*c)) matches the parser's
        # cofactor det (zero terms vanish exactly); x_sum is the closed
        # form of sum(j*0.0625) — dyadic, order-independent-exact
        "q54_batch_files": """
            SELECT doc_id,
                   CAST(2 + doc_id % 3 + doc_id % 4 AS BIGINT) AS n_atoms,
                   1.0 + (doc_id % 8) * 0.125 AS scale,
                   ((1.0 + (doc_id % 8) * 0.125)
                    * (1.0 + (doc_id % 8) * 0.125)
                    * (1.0 + (doc_id % 8) * 0.125))
                   * ((2 + (doc_id % 5) * 0.25)
                      * ((3 + (doc_id % 7) * 0.5)
                         * (1 + (doc_id % 3) * 0.25))) AS volume,
                   0.0625 * (((2 + doc_id % 3 + doc_id % 4)
                              * (1 + doc_id % 3 + doc_id % 4)) / 2) AS x_sum
            FROM documents
            WHERE doc_id % 5 = 0 AND doc_id % 3 <> 2
        """,
        # per-group cap: identical Knuth hash in HUGEINT; ties (none for
        # distinct ids, but specified) break by doc_id ascending
        "q55_cap_per_group": """
            SELECT doc_id, source, n_chars FROM documents
            QUALIFY row_number() OVER (
                PARTITION BY source
                ORDER BY ((CAST(doc_id AS HUGEINT) % 4294967296)
                          * 2654435761) % 4294967296, doc_id) <= 7
        """,
        # forward as-of (next-event lookup): engine picks the FIRST right
        # row by right_cols among equal (key, ts) -> pre-dedup with min()
        # (mirror of q10's max() for the backward LAST pick)
        "q56_asof_forward": """
            SELECT e.event_id, round(f.next_err, 6) AS next_err
            FROM events e
            ASOF LEFT JOIN (
                SELECT user_id, ts, min(value) AS next_err
                FROM events WHERE event_type = 'error' GROUP BY user_id, ts
            ) f ON e.user_id = f.user_id AND f.ts >= e.ts
        """,
        # k-means fixture replay: serial Lloyd's with identical dyadic
        # arithmetic — bit-exact vs the distributed run, no rounding
        "q57_kmeans": f"""
            SELECT cluster, n, id_sum, xx_sum, s0, s1, s2
            FROM read_parquet('{_ORACLE_DIR}/kmeans_stats.parquet')
        """,
        # centered window: int64 window sums, count excludes NULLs
        "q111_centered_window": """
            SELECT event_id,
                   CAST(sum(coalesce(CAST(round(value * 100) AS BIGINT),
                                     0))
                          OVER w AS BIGINT) AS win_sum,
                   CAST(count(value) OVER w AS BIGINT) AS win_n
            FROM events
            WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id
                         ROWS BETWEEN 3 PRECEDING AND 3 FOLLOWING)
        """,
        # group corr: HUGEINT sufficient stats; sqrt is correctly
        # rounded IEEE, so the op sequence replays bit-exactly
        "q110_group_corr": """
            WITH e AS (
              SELECT event_type,
                     epoch_us(ts) // 3600000000 AS x,
                     CAST(round(value * 100) AS BIGINT) AS y
              FROM events
              WHERE value IS NOT NULL AND ts IS NOT NULL
                    AND event_type IS NOT NULL
            ), s AS (
              SELECT event_type,
                     CAST(count(*) AS HUGEINT) AS n,
                     CAST(sum(x) AS HUGEINT) AS sx,
                     CAST(sum(y) AS HUGEINT) AS sy,
                     CAST(sum(x * y) AS HUGEINT) AS sxy,
                     CAST(sum(x * x) AS HUGEINT) AS sxx,
                     CAST(sum(y * y) AS HUGEINT) AS syy
              FROM e GROUP BY event_type
            )
            SELECT event_type,
                   CAST(n AS BIGINT) AS n,
                   CASE WHEN n * sxx - sx * sx = 0
                             OR n * syy - sy * sy = 0 THEN NULL
                        ELSE CAST(n * sxy - sx * sy AS DOUBLE)
                             / sqrt(CAST(n * sxx - sx * sx AS DOUBLE)
                                    * CAST(n * syy - sy * sy AS DOUBLE))
                   END AS r
            FROM s
        """,
        # robust z: two quantile_disc element picks + two IEEE ops;
        # IS NOT DISTINCT FROM keeps a NULL key group joinable
        "q109_robust_zscore": """
            WITH g AS (
              SELECT user_id,
                     quantile_disc(value, CAST(0.5 AS DOUBLE)) AS med
              FROM events GROUP BY user_id
            ), d AS (
              SELECT e.event_id, e.user_id, e.value, g.med,
                     abs(e.value - g.med) AS adev
              FROM events e JOIN g
                ON e.user_id IS NOT DISTINCT FROM g.user_id
            ), g2 AS (
              SELECT user_id,
                     quantile_disc(adev, CAST(0.5 AS DOUBLE)) AS mad
              FROM d GROUP BY user_id
            )
            SELECT d.event_id,
                   CASE WHEN d.value IS NULL OR g2.mad IS NULL
                             OR g2.mad = 0 THEN NULL
                        ELSE (d.value - d.med) / g2.mad
                   END AS robust_z
            FROM d JOIN g2
              ON d.user_id IS NOT DISTINCT FROM g2.user_id
        """,
        # jsonl round trip: the oracle recomputes from parquet — a hash
        # match proves the JSON sink/source preserved every value
        "q108_jsonl_roundtrip": """
            SELECT event_type,
                   CAST(count(*) AS BIGINT) AS n,
                   CAST(sum(event_id) AS BIGINT) AS id_sum,
                   CAST(sum(coalesce(CAST(round(value * 100) AS BIGINT),
                                     0)) AS BIGINT) AS cent_sum
            FROM events GROUP BY event_type
        """,
        # edit-distance join: all-pairs levenshtein (exact integers);
        # the length-difference filter only prunes (ed >= len diff)
        "q107_editdist_join": """
            WITH p AS (
              SELECT doc_id, substr(coalesce(text, ''), 1, 48) AS s
              FROM documents
              WHERE length(substr(coalesce(text, ''), 1, 48)) >= 3
            )
            SELECT a.doc_id AS id_a, b.doc_id AS id_b,
                   CAST(levenshtein(a.s, b.s) AS BIGINT) AS dist
            FROM p a JOIN p b
              ON a.doc_id < b.doc_id
             AND abs(length(a.s) - length(b.s)) <= 2
             AND levenshtein(a.s, b.s) <= 2
        """,
        # transitions: lead() bigrams, exact-int casts + one division
        "q106_transitions": """
            WITH s AS (
              SELECT event_type AS from_type,
                     lead(event_type) OVER (PARTITION BY user_id
                                            ORDER BY ts, event_id)
                         AS to_type
              FROM events
            ), c AS (
              SELECT from_type, to_type,
                     CAST(count(*) AS BIGINT) AS cnt
              FROM s
              WHERE from_type IS NOT NULL AND to_type IS NOT NULL
              GROUP BY from_type, to_type
            )
            SELECT from_type, to_type, cnt,
                   CAST(cnt AS DOUBLE)
                   / CAST(sum(cnt) OVER (PARTITION BY from_type)
                          AS DOUBLE) AS p
            FROM c
        """,
        # rolling median: windowed quantile_disc (exact element pick);
        # the CAST on q is load-bearing (bare literal parses DECIMAL)
        "q105_rolling_median": """
            SELECT event_id,
                   quantile_disc(value, CAST(0.5 AS DOUBLE))
                     OVER (PARTITION BY user_id
                           ORDER BY ts, event_id
                           ROWS BETWEEN 4 PRECEDING AND CURRENT ROW)
                     AS roll_med
            FROM events
        """,
        # nearest as-of: two ASOF joins over tie-deduped right sides,
        # exact integer gap compare, ties -> backward
        "q104_asof_nearest": """
            WITH l AS (
              SELECT event_id, user_id, ts FROM events
              WHERE event_type = 'click'
            ), r AS (
              SELECT user_id, ts, value FROM events
              WHERE event_type = 'purchase' AND value IS NOT NULL
            ), rb AS (
              SELECT user_id, ts, value FROM (
                SELECT user_id, ts, value,
                       row_number() OVER (PARTITION BY user_id, ts
                                          ORDER BY value DESC) AS rn
                FROM r) WHERE rn = 1
            ), rf AS (
              SELECT user_id, ts, value FROM (
                SELECT user_id, ts, value,
                       row_number() OVER (PARTITION BY user_id, ts
                                          ORDER BY value ASC) AS rn
                FROM r) WHERE rn = 1
            ), b AS (
              SELECT l.event_id, rb.ts AS bts, rb.value AS bval
              FROM l ASOF LEFT JOIN rb
              ON l.user_id = rb.user_id AND rb.ts <= l.ts
            ), f AS (
              SELECT l.event_id, rf.ts AS fts, rf.value AS fval
              FROM l ASOF LEFT JOIN rf
              ON l.user_id = rf.user_id AND rf.ts >= l.ts
            )
            SELECT l.event_id, l.user_id, l.ts,
                   CASE
                     WHEN bts IS NULL AND fts IS NULL THEN NULL
                     WHEN bts IS NULL THEN fval
                     WHEN fts IS NULL THEN bval
                     WHEN epoch_us(l.ts) - epoch_us(bts)
                          <= epoch_us(fts) - epoch_us(l.ts) THEN bval
                     ELSE fval
                   END AS near_value
            FROM l
            JOIN b USING (event_id)
            JOIN f USING (event_id)
        """,
        # unpivot: literal UNION ALL of per-column selections
        "q103_unpivot": """
            SELECT l_orderkey, l_linenumber,
                   'l_quantity' AS measure, l_quantity AS value
            FROM lineitem
            UNION ALL
            SELECT l_orderkey, l_linenumber,
                   'l_extendedprice', l_extendedprice FROM lineitem
            UNION ALL
            SELECT l_orderkey, l_linenumber,
                   'l_discount', l_discount FROM lineitem
            UNION ALL
            SELECT l_orderkey, l_linenumber,
                   'l_tax', l_tax FROM lineitem
        """,
        # group OLS: HUGEINT sufficient statistics, fixed float64 op
        # sequence (2 casts + 1 div; intercept reuses the slope expr)
        "q102_group_linfit": """
            WITH e AS (
              SELECT user_id,
                     epoch_us(ts) // 86400000000 AS x,
                     CAST(round(value * 100) AS BIGINT) AS y
              FROM events
              WHERE value IS NOT NULL AND ts IS NOT NULL
                    AND user_id IS NOT NULL
            ), s AS (
              SELECT user_id,
                     CAST(count(*) AS HUGEINT) AS n,
                     CAST(sum(x) AS HUGEINT) AS sx,
                     CAST(sum(y) AS HUGEINT) AS sy,
                     CAST(sum(x * y) AS HUGEINT) AS sxy,
                     CAST(sum(x * x) AS HUGEINT) AS sxx
              FROM e GROUP BY user_id
            )
            SELECT user_id,
                   CAST(n AS BIGINT) AS n,
                   CASE WHEN n * sxx - sx * sx = 0 THEN NULL
                        ELSE CAST(n * sxy - sx * sy AS DOUBLE)
                             / CAST(n * sxx - sx * sx AS DOUBLE)
                   END AS slope,
                   CASE WHEN n * sxx - sx * sx = 0 THEN NULL
                        ELSE (CAST(sy AS DOUBLE)
                              - (CAST(n * sxy - sx * sy AS DOUBLE)
                                 / CAST(n * sxx - sx * sx AS DOUBLE))
                                * CAST(sx AS DOUBLE))
                             / CAST(n AS DOUBLE)
                   END AS intercept
            FROM s
        """,
        # HLL: identical md5 hashes, integer harmonic sum (powers of two
        # via <<, order-independent), estimator = two IEEE ops — the
        # DOUBLE casts are load-bearing (bare literals parse as DECIMAL)
        "q101_hll_distinct": """
            WITH h AS (
              SELECT DISTINCT event_type,
                     CAST(CAST('0x' || substr(md5(CAST(user_id AS VARCHAR)), 1, 15)
                               AS UBIGINT) AS BIGINT) AS hv
              FROM events
              WHERE user_id IS NOT NULL AND event_type IS NOT NULL
            ), rr AS (
              SELECT event_type, hv >> 52 AS reg,
                     hv & ((1::BIGINT << 52) - 1) AS rem
              FROM h
            ), mx AS (
              SELECT event_type, reg,
                     max(CASE WHEN rem = 0 THEN 53
                              ELSE 52 - length(printf('%b', rem)) + 1
                         END) AS m_j
              FROM rr GROUP BY event_type, reg
            )
            SELECT event_type,
                   CAST(256 - count(*) AS BIGINT) AS n_zero_regs,
                   CAST(CAST(sum(1::BIGINT << (53 - m_j)) AS BIGINT)
                        + (256 - count(*)) * (1::BIGINT << 53)
                        AS BIGINT) AS s_int,
                   (CAST(0.7213 AS DOUBLE)
                    / (CAST(1 AS DOUBLE)
                       + CAST(1.079 AS DOUBLE) / CAST(256 AS DOUBLE)))
                   * (CAST(65536 AS DOUBLE)
                      * CAST(9007199254740992 AS DOUBLE))
                   / CAST(CAST(sum(1::BIGINT << (53 - m_j)) AS BIGINT)
                          + (256 - count(*)) * (1::BIGINT << 53)
                          AS DOUBLE) AS est_distinct
            FROM mx GROUP BY event_type
        """,
        # event chain: ordered string_agg, deterministic tie order
        "q100_event_chain": """
            SELECT user_id,
                   string_agg(event_type, ','
                              ORDER BY ts, event_id) AS chain
            FROM events GROUP BY user_id
        """,
        # group top-k values: QUALIFY rn <= k, deterministic order
        "q99_group_topk": """
            WITH c AS (
              SELECT user_id, event_type, count(*) AS cnt FROM events
              WHERE event_type IS NOT NULL GROUP BY user_id, event_type
            )
            SELECT user_id, event_type, cnt,
                   row_number() OVER (PARTITION BY user_id
                                      ORDER BY cnt DESC, event_type)
                       AS rn
            FROM c
            QUALIFY rn <= 3
        """,
        # group norm: identical float64 op order from exact int sums
        "q98_group_norm": """
            WITH e AS (
              SELECT event_id, user_id,
                     CAST(round(value * 100) AS BIGINT) AS value_c
              FROM events
            ), g AS (
              SELECT user_id,
                     CAST(count(value_c) AS BIGINT) AS n,
                     CAST(sum(value_c) AS BIGINT) AS s,
                     CAST(sum(value_c * value_c) AS BIGINT) AS s2
              FROM e GROUP BY user_id
            )
            SELECT e.event_id,
                   CAST(e.value_c AS DOUBLE) / CAST(g.s AS DOUBLE)
                       AS share,
                   CASE WHEN g.n > 1 THEN
                     (CAST(e.value_c AS DOUBLE)
                        - CAST(g.s AS DOUBLE) / CAST(g.n AS DOUBLE))
                     / sqrt((CAST(g.s2 AS DOUBLE)
                               - CAST(g.s AS DOUBLE)
                                 * CAST(g.s AS DOUBLE)
                                 / CAST(g.n AS DOUBLE))
                            / (CAST(g.n AS DOUBLE) - 1.0))
                   END AS zscore
            FROM e JOIN g ON e.user_id IS NOT DISTINCT FROM g.user_id
        """,
        # profiler: exact NDV + bytewise VARCHAR min/max per column
        "q97_profile": """
            SELECT 'event_id' AS col, count(*) AS n_rows,
                   count(*) - count(event_id) AS n_nulls,
                   count(DISTINCT event_id) AS n_distinct,
                   min(CAST(event_id AS VARCHAR)) AS min_val,
                   max(CAST(event_id AS VARCHAR)) AS max_val
            FROM events
            UNION ALL
            SELECT 'user_id', count(*), count(*) - count(user_id),
                   count(DISTINCT user_id),
                   min(CAST(user_id AS VARCHAR)),
                   max(CAST(user_id AS VARCHAR))
            FROM events
            UNION ALL
            SELECT 'event_type', count(*), count(*) - count(event_type),
                   count(DISTINCT event_type),
                   min(event_type), max(event_type)
            FROM events
            UNION ALL
            -- Arrow's shortest-roundtrip float formatting renders
            -- integral doubles without the trailing .0 DuckDB prints
            SELECT 'value', count(*), count(*) - count(value),
                   count(DISTINCT value),
                   min(regexp_replace(CAST(value AS VARCHAR),
                                      '\.0$', '')),
                   max(regexp_replace(CAST(value AS VARCHAR),
                                      '\.0$', ''))
            FROM events
        """,
        # running total: int64 cents window sum, exact both sides
        "q96_running_total": """
            SELECT o_orderkey, o_custkey,
                   CAST(sum(CAST(round(o_totalprice * 100) AS BIGINT))
                        OVER (PARTITION BY o_custkey
                              ORDER BY o_orderdate, o_orderkey
                              ROWS BETWEEN UNBOUNDED PRECEDING
                                       AND CURRENT ROW)
                        AS BIGINT) AS running_c
            FROM orders
        """,
        # Gini diversity: HUGEINT count sums, one exact division
        # diversified top-k: per-group quota then global limit
        "q149_diversified_topk": """
            WITH r AS (
              SELECT source, doc_id, n_chars FROM documents
              QUALIFY row_number() OVER (
                  PARTITION BY source
                  ORDER BY n_chars DESC, doc_id) <= 3
            )
            SELECT source, doc_id, n_chars FROM r
            ORDER BY n_chars DESC, doc_id LIMIT 20
        """,
        # order violations: lag over seq order, exact counts
        # novelty curve: first-seen bucket per term + running total
        "q192_novelty_curve": r"""
            WITH t AS (
              SELECT doc_id,
                     unnest(regexp_extract_all(coalesce(text, ''),
                                               '\S+')) AS term
              FROM documents WHERE doc_id IS NOT NULL),
            f AS (SELECT term, min(doc_id) AS first_doc
                  FROM t GROUP BY term),
            b AS (SELECT first_doc // 2 AS bucket,
                         CAST(count(*) AS BIGINT) AS n_new_terms
                  FROM f GROUP BY 1)
            SELECT bucket, n_new_terms,
                   CAST(sum(n_new_terms) OVER (
                     ORDER BY bucket ROWS UNBOUNDED PRECEDING)
                     AS BIGINT) AS cum_new_terms
            FROM b
        """,
        # k-step funnel: chained greedy-earliest min() CTEs
        "q191_funnel_path": """
            WITH e AS (SELECT user_id, ts, event_type AS ty
                       FROM events
                       WHERE user_id IS NOT NULL AND ts IS NOT NULL),
            s1 AS (SELECT user_id, min(ts) AS t1 FROM e
                   WHERE ty = 'view' GROUP BY user_id),
            s2 AS (SELECT e.user_id, min(e.ts) AS t2
                   FROM e JOIN s1 USING (user_id)
                   WHERE e.ty = 'click' AND e.ts > s1.t1
                     AND e.ts <= s1.t1 + INTERVAL 3 DAY
                   GROUP BY e.user_id),
            s3 AS (SELECT e.user_id, min(e.ts) AS t3
                   FROM e JOIN s1 USING (user_id)
                          JOIN s2 USING (user_id)
                   WHERE e.ty = 'purchase' AND e.ts > s2.t2
                     AND e.ts <= s1.t1 + INTERVAL 3 DAY
                   GROUP BY e.user_id)
            SELECT s1.user_id, s1.t1, s2.t2, s3.t3,
                   CAST(1 + CASE WHEN s2.user_id IS NOT NULL
                                 THEN 1 ELSE 0 END
                          + CASE WHEN s3.user_id IS NOT NULL
                                 THEN 1 ELSE 0 END AS BIGINT)
                     AS steps_completed
            FROM s1 LEFT JOIN s2 USING (user_id)
                    LEFT JOIN s3 USING (user_id)
        """,
        # PQ codes: integer subspace distances, row_number argmin
        "q190_pq_codes": """
            WITH v AS (
              SELECT vec_id, i - 1 AS pos,
                     CAST(floor(CAST(embedding[i] AS DOUBLE) * 1024
                                + 0.5) AS BIGINT) AS xq
              FROM embeddings,
                   unnest(range(1, len(embedding) + 1)) r(i)
              WHERE vec_id IS NOT NULL AND embedding IS NOT NULL),
            cb AS (
              SELECT vec_id AS cvid,
                     row_number() OVER (ORDER BY vec_id) - 1 AS cid
              FROM (SELECT vec_id FROM embeddings
                    WHERE vec_id IS NOT NULL
                      AND embedding IS NOT NULL
                    ORDER BY vec_id LIMIT 16)),
            cq AS (SELECT cb.cid, v.pos, v.xq
                   FROM cb JOIN v ON v.vec_id = cb.cvid),
            d AS (SELECT v.vec_id, v.pos // 16 AS sub, cq.cid,
                         sum((v.xq - cq.xq) * (v.xq - cq.xq)) AS dist
                  FROM v JOIN cq ON v.pos = cq.pos
                  GROUP BY 1, 2, 3),
            a AS (SELECT vec_id, sub, cid FROM (
                    SELECT *, row_number() OVER (
                      PARTITION BY vec_id, sub
                      ORDER BY dist, cid) AS rn FROM d)
                  WHERE rn = 1)
            SELECT vec_id,
                   CAST(max(CASE WHEN sub = 0 THEN cid END) AS BIGINT)
                     AS c0,
                   CAST(max(CASE WHEN sub = 1 THEN cid END) AS BIGINT)
                     AS c1,
                   CAST(max(CASE WHEN sub = 2 THEN cid END) AS BIGINT)
                     AS c2,
                   CAST(max(CASE WHEN sub = 3 THEN cid END) AS BIGINT)
                     AS c3,
                   CAST(max(CASE WHEN sub = 0 THEN cid END)
                        + 16 * max(CASE WHEN sub = 1 THEN cid END)
                        + 256 * max(CASE WHEN sub = 2 THEN cid END)
                        + 4096 * max(CASE WHEN sub = 3 THEN cid END)
                        AS BIGINT) AS pq_code
            FROM a GROUP BY vec_id
        """,
        # SCD2: gaps-and-islands state runs with lead() valid_to
        "q189_scd2_intervals": """
            WITH e AS (
              SELECT user_id, epoch_us(ts) AS t, event_id,
                     event_type AS st
              FROM events
              WHERE user_id IS NOT NULL AND ts IS NOT NULL
                AND event_id IS NOT NULL AND event_type IS NOT NULL),
            m AS (
              SELECT *, CASE WHEN lag(st) OVER (
                          PARTITION BY user_id ORDER BY t, event_id)
                          IS DISTINCT FROM st THEN 1 ELSE 0 END AS chg
              FROM e),
            g AS (
              SELECT *, sum(chg) OVER (
                       PARTITION BY user_id ORDER BY t, event_id
                       ROWS UNBOUNDED PRECEDING) AS run
              FROM m),
            r AS (SELECT user_id, st AS state, min(t) AS valid_from,
                         CAST(count(*) AS BIGINT) AS n_rows, run
                  FROM g GROUP BY user_id, st, run)
            SELECT user_id, state, valid_from,
                   lead(valid_from) OVER (
                     PARTITION BY user_id ORDER BY run) AS valid_to,
                   n_rows
            FROM r
        """,
        # attribution: largest-remainder integer credit split
        "q188_attribution": """
            WITH e AS (
              SELECT user_id, epoch_us(ts) AS t, event_id, event_type,
                     CAST(round(coalesce(value, 0) * 100) AS BIGINT)
                       AS cents
              FROM events
              WHERE user_id IS NOT NULL AND ts IS NOT NULL
                AND event_id IS NOT NULL AND event_type IS NOT NULL),
            conv AS (SELECT * FROM e
                     WHERE event_type = 'purchase' AND cents > 0),
            touch AS (SELECT * FROM e WHERE event_type <> 'purchase'),
            pairs AS (
              SELECT c.cents, t.event_type,
                     row_number() OVER (
                       PARTITION BY c.user_id, c.event_id
                       ORDER BY t.t, t.event_id) AS rn,
                     count(*) OVER (
                       PARTITION BY c.user_id, c.event_id) AS n
              FROM conv c JOIN touch t ON t.user_id = c.user_id
               AND t.t >= c.t - 604800000000 AND t.t < c.t)
            SELECT event_type,
                   CAST(sum(cents // n
                            + CASE WHEN rn <= cents % n THEN 1
                                   ELSE 0 END) AS BIGINT)
                     AS credit_cents,
                   CAST(count(*) AS BIGINT) AS n_touches
            FROM pairs GROUP BY event_type
        """,
        # Theil-Sen: pairwise-slope median, discrete-quantile element
        "q186_theil_sen": """
            WITH e AS (
              SELECT user_id AS key, epoch_us(ts) AS x, value AS y
              FROM events
              WHERE user_id IS NOT NULL AND ts IS NOT NULL
                AND value IS NOT NULL AND isfinite(value)),
            g AS (SELECT key, CAST(count(*) AS BIGINT) AS n_points
                  FROM e GROUP BY key HAVING count(*) <= 2048),
            p AS (SELECT a.key AS key, (b.y - a.y) / (b.x - a.x) AS s
                  FROM e a JOIN e b
                    ON a.key = b.key AND b.x > a.x),
            m AS (SELECT key, CAST(count(*) AS BIGINT) AS n_pairs,
                         quantile_disc(s, CAST(0.5 AS DOUBLE)) AS slope
                  FROM p GROUP BY key)
            SELECT g.key AS user_id, g.n_points,
                   coalesce(m.n_pairs, 0) AS n_pairs, m.slope AS slope
            FROM g LEFT JOIN m ON g.key = m.key
        """,
        # Z-order: same quantize + Morton interleave in BIGINT math
        "q185_zorder_layout": f"""
            WITH b AS (
              SELECT o_orderkey, o_custkey AS x,
                     epoch_us(o_orderdate) // 86400000000 AS y
              FROM orders
              WHERE o_custkey IS NOT NULL AND o_orderdate IS NOT NULL),
            mm AS (SELECT min(x) AS xlo, max(x) AS xhi,
                          min(y) AS ylo, max(y) AS yhi FROM b),
            q AS (
              SELECT o_orderkey,
                     CASE WHEN xhi = xlo THEN 0
                          ELSE ((x - xlo) * 65535) // (xhi - xlo)
                     END AS qx,
                     CASE WHEN yhi = ylo THEN 0
                          ELSE ((y - ylo) * 65535) // (yhi - ylo)
                     END AS qy
              FROM b, mm),
            z AS (SELECT o_orderkey,
                         {morton_sql_expr('qx', 'qy', 16)} AS zval
                  FROM q)
            SELECT o_orderkey, zval,
                   CAST(row_number() OVER (ORDER BY zval, o_orderkey)
                        AS BIGINT) AS zrank
            FROM z
        """,
        # CDC compaction: latest-per-key changelog merge over the base
        "q184_cdc_compact": """
            WITH log AS (
              SELECT user_id * 13 AS key, epoch_us(ts) AS t, event_id,
                     CAST(round(coalesce(value, 0) * 100) AS BIGINT)
                       AS cents,
                     coalesce(event_type = 'error', FALSE) AS is_del
              FROM events
              WHERE user_id IS NOT NULL AND ts IS NOT NULL
                AND event_id IS NOT NULL),
            last AS (
              SELECT key, cents, is_del FROM (
                SELECT *, row_number() OVER (
                  PARTITION BY key ORDER BY t DESC, event_id DESC) AS rn
                FROM log) WHERE rn = 1),
            base AS (
              SELECT c_custkey AS key, c_name AS name,
                     CAST(round(c_acctbal * 100) AS BIGINT) AS cents
              FROM customer)
            SELECT coalesce(b.key, l.key) AS key, b.name AS name,
                   CASE WHEN l.key IS NOT NULL THEN l.cents
                        ELSE b.cents END AS cents,
                   CASE WHEN l.key IS NULL THEN 'keep'
                        WHEN b.key IS NULL THEN 'insert'
                        ELSE 'update' END AS op
            FROM base b FULL JOIN last l ON b.key = l.key
            WHERE NOT (l.key IS NOT NULL AND l.is_del)
        """,
        "q183_order_violations": """
            WITH e AS (
              SELECT user_id, event_id, epoch_us(ts) AS t
              FROM events
              WHERE user_id IS NOT NULL AND event_id IS NOT NULL
                AND ts IS NOT NULL),
            d AS (
              SELECT user_id, t,
                     lag(t) OVER (PARTITION BY user_id
                                  ORDER BY event_id) AS pt
              FROM e)
            SELECT user_id,
                   CAST(count(pt) AS BIGINT) AS n_pairs,
                   CAST(coalesce(sum(CASE WHEN t < pt THEN 1
                                          ELSE 0 END), 0) AS BIGINT)
                     AS n_violations,
                   CASE WHEN count(pt) = 0 THEN NULL
                        ELSE CAST(coalesce(sum(CASE WHEN t < pt
                                                    THEN 1 ELSE 0
                                               END), 0) AS DOUBLE)
                             / CAST(count(pt) AS DOUBLE) END
                     AS violation_rate
            FROM d GROUP BY user_id
        """,
        # longest streak: period − row_number island grouping
        "q182_longest_streak": """
            WITH p AS (
              SELECT DISTINCT user_id,
                     epoch_us(ts) // 86400000000 AS per
              FROM events
              WHERE user_id IS NOT NULL AND ts IS NOT NULL),
            i AS (
              SELECT user_id, per,
                     per - row_number() OVER (PARTITION BY user_id
                                              ORDER BY per) AS isl
              FROM p),
            r AS (SELECT user_id, isl,
                         CAST(count(*) AS BIGINT) AS run_len
                  FROM i GROUP BY user_id, isl)
            SELECT user_id,
                   CAST(sum(run_len) AS BIGINT) AS n_periods,
                   CAST(max(run_len) AS BIGINT) AS longest
            FROM r GROUP BY user_id
        """,
        # cohort value: first-period join + exact cent sums
        "q181_cohort_value": """
            WITH e AS (
              SELECT user_id,
                     epoch_us(ts) // 604800000000 AS per,
                     CAST(round(coalesce(value, 0) * 100) AS BIGINT)
                       AS cents
              FROM events
              WHERE user_id IS NOT NULL AND ts IS NOT NULL),
            c AS (SELECT user_id, min(per) AS cohort
                  FROM e GROUP BY user_id)
            SELECT c.cohort, e.per - c.cohort AS "offset",
                   CAST(sum(e.cents) AS BIGINT) AS cents
            FROM e JOIN c USING (user_id)
            GROUP BY c.cohort, e.per - c.cohort
        """,
        # RFM: exact aggregates + ANSI NTILE with explicit tie-breaks
        "q180_rfm_segments": """
            WITH e AS (
              SELECT user_id, epoch_us(ts) AS t,
                     CAST(round(coalesce(value, 0) * 100) AS BIGINT)
                       AS cents
              FROM events
              WHERE user_id IS NOT NULL AND ts IS NOT NULL),
            u AS (SELECT user_id, max(t) AS last,
                         CAST(count(*) AS BIGINT) AS n_events,
                         CAST(sum(cents) AS BIGINT) AS cents
                  FROM e GROUP BY user_id),
            m AS (SELECT max(last) AS mx FROM u),
            f AS (SELECT user_id, mx - last AS r_us, n_events, cents
                  FROM u, m),
            t AS (SELECT *,
                    CAST(ntile(5) OVER (ORDER BY r_us, user_id)
                         AS BIGINT) AS r_tile,
                    CAST(ntile(5) OVER (ORDER BY n_events DESC,
                                        user_id) AS BIGINT) AS f_tile,
                    CAST(ntile(5) OVER (ORDER BY cents DESC, user_id)
                         AS BIGINT) AS m_tile
                  FROM f)
            SELECT user_id, r_us, n_events, cents, r_tile, f_tile,
                   m_tile,
                   100 * r_tile + 10 * f_tile + m_tile AS segment
            FROM t
        """,
        # KS drift: RANGE-frame window sums (run-end cum counts),
        # exact int maximand, one division
        "q179_ks_drift": """
            WITH b AS (SELECT min(epoch_us(ts)) AS lo,
                              max(epoch_us(ts)) AS hi
                       FROM events WHERE ts IS NOT NULL),
            m AS (SELECT lo + (hi - lo) // 2 AS mid FROM b),
            e AS (
              SELECT event_type,
                     CAST(epoch_us(ts) > mid AS BIGINT) AS side,
                     value
              FROM events, m
              WHERE ts IS NOT NULL AND event_type IS NOT NULL
                AND value IS NOT NULL AND isfinite(value)),
            c AS (
              SELECT event_type, value,
                     sum(CASE WHEN side = 0 THEN 1 ELSE 0 END) AS a,
                     sum(CASE WHEN side = 1 THEN 1 ELSE 0 END) AS bb
              FROM e GROUP BY event_type, value),
            w AS (
              SELECT event_type, value,
                     sum(a) OVER (PARTITION BY event_type
                                  ORDER BY value) AS ca,
                     sum(bb) OVER (PARTITION BY event_type
                                   ORDER BY value) AS cb,
                     sum(a) OVER (PARTITION BY event_type) AS na,
                     sum(bb) OVER (PARTITION BY event_type) AS nb
              FROM c)
            SELECT event_type,
                   CAST(min(na) AS BIGINT) AS n0,
                   CAST(min(nb) AS BIGINT) AS n1,
                   CAST(max(abs(ca * nb - cb * na)) AS BIGINT)
                     AS d_num,
                   CASE WHEN min(na) = 0 OR min(nb) = 0 THEN NULL
                        ELSE CAST(max(abs(ca * nb - cb * na))
                                  AS DOUBLE)
                             / CAST(min(na) * min(nb) AS DOUBLE) END
                     AS ks_d
            FROM w GROUP BY event_type
        """,
        # compression ratio: identical-zlib replay fixture
        "q210_k_center": f"""
            SELECT sel_ord, vec_id, radius2
            FROM read_parquet('{_ORACLE_DIR}/k_center.parquet')
        """,
        "q211_changepoint": f"""
            SELECT user_id, n, split_i, ts_split, gain_cents2,
                   mean_l, mean_r
            FROM read_parquet('{_ORACLE_DIR}/changepoint.parquet')
        """,
        "q236_jenks_breaks": f"""
            SELECT source, cls, lo, hi, n_rows, mean, within_ss
            FROM read_parquet('{_ORACLE_DIR}/jenks.parquet')
        """,
        "q239_k_core": f"""
            SELECT node, degree, core
            FROM read_parquet('{_ORACLE_DIR}/k_core.parquet')
        """,
        "q241_mahalanobis": f"""
            SELECT vec_id, label, maha2
            FROM read_parquet('{_ORACLE_DIR}/mahalanobis.parquet')
        """,
        "q254_logrank": f"""
            SELECT cohort_a, cohort_b, n_a, n_b, u, v, z
            FROM read_parquet('{_ORACLE_DIR}/logrank.parquet')
        """,
        "q256_gk_tau": f"""
            SELECT x_col, y_col, n, tau
            FROM read_parquet('{_ORACLE_DIR}/gk_tau.parquet')
        """,
        "q242_ridge_influence": f"""
            SELECT grp, j, coef_loo, delta
            FROM read_parquet('{_ORACLE_DIR}/ridge_influence.parquet')
        """,
        "q245_dbscan": f"""
            SELECT vec_id, cluster, is_core
            FROM read_parquet('{_ORACLE_DIR}/dbscan.parquet')
        """,
        "q273_ridge_eval": f"""
            SELECT "group", n, mae, rmse, r2
            FROM read_parquet('{_ORACLE_DIR}/ridge_eval.parquet')
        """,
        "q276_grouped_ridge": f"""
            SELECT "group", j, coef
            FROM read_parquet('{_ORACLE_DIR}/grouped_ridge.parquet')
        """,
        "q277_learning_curve": f"""
            SELECT k, n_train, n_test, rmse, r2
            FROM read_parquet('{_ORACLE_DIR}/learning_curve.parquet')
        """,
        "q278_conformal": f"""
            SELECT n_train, n_cal, n_test, q_hat, coverage, target
            FROM read_parquet('{_ORACLE_DIR}/conformal.parquet')
        """,
        "q289_markov_attribution": f"""
            SELECT channel, removal_effect, share
            FROM read_parquet('{_ORACLE_DIR}/markov_attr.parquet')
        """,
        "q246_label_prop": f"""
            SELECT vec_id, label_out, is_seed, round_labeled
            FROM read_parquet('{_ORACLE_DIR}/label_prop.parquet')
        """,
        "q215_kaplan_meier": f"""
            SELECT cohort, dur_days, at_risk, deaths, censored, surv
            FROM read_parquet('{_ORACLE_DIR}/kaplan_meier.parquet')
        """,
        "q218_set_cover": f"""
            SELECT sel_ord, doc_id, gain, covered_total
            FROM read_parquet('{_ORACLE_DIR}/set_cover.parquet')
        """,
        "q223_shapley": f"""
            SELECT channel, n_users_with, shapley
            FROM read_parquet('{_ORACLE_DIR}/shapley.parquet')
        """,
        "q178_compression_ratio": f"""
            SELECT doc_id, raw_len, comp_len, ratio
            FROM read_parquet('{_ORACLE_DIR}/comp_ratio.parquet')
        """,
        # group top terms: GROUP BY + QUALIFY per-group rank
        "q177_group_top_terms": r"""
            WITH tok AS (
              SELECT source,
                     unnest(regexp_extract_all(coalesce(text, ''),
                                               '\S+')) AS w
              FROM documents),
            c AS (SELECT source, w AS term,
                         CAST(count(*) AS BIGINT) AS cnt
                  FROM tok GROUP BY source, w)
            SELECT source, term, cnt FROM c
            QUALIFY row_number() OVER (
                PARTITION BY source
                ORDER BY cnt DESC, term ASC) <= 5
        """,
        # lexical diversity: N²/Σn² rational-exact, unnest replay
        "q176_lexical_diversity": r"""
            WITH tok AS (
              SELECT doc_id,
                     unnest(regexp_extract_all(coalesce(text, ''),
                                               '\S+')) AS w
              FROM documents),
            c AS (SELECT doc_id, w, CAST(count(*) AS BIGINT) AS n_i
                  FROM tok GROUP BY doc_id, w),
            s AS (SELECT doc_id,
                         CAST(sum(n_i) AS BIGINT) AS n_tokens,
                         CAST(count(*) AS BIGINT) AS n_types,
                         CAST(sum(n_i * n_i) AS BIGINT) AS sum_sq
                  FROM c GROUP BY doc_id)
            SELECT d.doc_id,
                   coalesce(s.n_tokens, 0) AS n_tokens,
                   coalesce(s.n_types, 0) AS n_types,
                   coalesce(s.sum_sq, 0) AS sum_sq,
                   CASE WHEN s.n_tokens IS NULL THEN NULL
                        ELSE CAST(s.n_tokens AS DOUBLE)
                             * CAST(s.n_tokens AS DOUBLE)
                             / CAST(s.sum_sq AS DOUBLE) END
                     AS simpson_d
            FROM documents d LEFT JOIN s USING (doc_id)
        """,
        # Wilson rates: identical fixed IEEE expression both sides
        "q175_wilson_rates": """
            WITH e AS (
              SELECT event_type,
                     CAST(value > 0 AS BIGINT) AS success
              FROM events
              WHERE event_type IS NOT NULL AND value IS NOT NULL
                AND isfinite(value)),
            s AS (SELECT event_type,
                         CAST(count(*) AS BIGINT) AS n,
                         CAST(sum(success) AS BIGINT) AS k
                  FROM e GROUP BY event_type),
            f AS (SELECT *,
                         CAST(k AS DOUBLE) / CAST(n AS DOUBLE)
                           AS phat,
                         1.96 * 1.96 AS z2,
                         CAST(n AS DOUBLE) AS nf
                  FROM s)
            SELECT event_type, n, k, phat AS rate,
                   (phat + z2 / (2.0 * nf)
                    - 1.96 * sqrt((phat * (1.0 - phat)
                                   + z2 / (4.0 * nf)) / nf))
                     / (1.0 + z2 / nf) AS wilson_lb
            FROM f
        """,
        # label prototypes: unnest + quantized sums, exact divisions
        "q174_label_prototypes": """
            WITH c AS (
              SELECT label, i,
                     CAST(floor(CAST(embedding[i] AS DOUBLE) * 256
                                + 0.5) AS BIGINT) AS xq
              FROM embeddings,
                   unnest(range(1, len(embedding) + 1)) r(i)
              WHERE label IS NOT NULL AND embedding IS NOT NULL)
            SELECT CAST(label AS BIGINT) AS label, i AS dim,
                   CAST(count(*) AS BIGINT) AS n,
                   CAST(sum(xq) AS BIGINT) AS sum_q,
                   CAST(sum(xq) AS DOUBLE) / CAST(count(*) AS DOUBLE)
                     / 256.0 AS mean
            FROM c GROUP BY label, i
        """,
        # k-anonymity: plain GROUP BY, exact counts + threshold flag
        "q173_k_anonymity": """
            WITH q AS (SELECT source, lang, n_chars // 500
                         AS len_bucket
                       FROM documents)
            SELECT source, lang, len_bucket,
                   CAST(count(*) AS BIGINT) AS n,
                   count(*) < 5 AS below_k
            FROM q GROUP BY 1, 2, 3
        """,
        # rising terms: FILTER counts per half + double-ratio ranking
        "q172_rising_terms": r"""
            WITH b AS (SELECT (min(doc_id) + max(doc_id)) // 2 AS mid
                       FROM documents),
            tok AS (
              SELECT CASE WHEN doc_id <= mid THEN 0 ELSE 1 END AS side,
                     unnest(regexp_extract_all(coalesce(text, ''),
                                               '\S+')) AS w
              FROM documents, b WHERE doc_id IS NOT NULL),
            c AS (
              SELECT w AS term,
                     CAST(count(*) FILTER (WHERE side = 0) AS BIGINT)
                       AS early,
                     CAST(count(*) FILTER (WHERE side = 1) AS BIGINT)
                       AS late
              FROM tok GROUP BY w)
            SELECT term, early, late,
                   CAST(late + 1 AS DOUBLE)
                     / CAST(early + 1 AS DOUBLE) AS rise
            FROM c ORDER BY rise DESC, term ASC LIMIT 25
        """,
        # concurrency: sessionize CTE + generate_series expansion
        "q171_concurrency": """
            WITH e AS (
              SELECT event_id, user_id, epoch_us(ts) AS t FROM events
              WHERE ts IS NOT NULL AND user_id IS NOT NULL),
            d AS (
              SELECT user_id, event_id, t,
                     t - lag(t) OVER (PARTITION BY user_id
                                      ORDER BY t, event_id) AS gap
              FROM e),
            s AS (
              SELECT user_id, t,
                     SUM(CASE WHEN gap IS NULL OR gap > 1800000000
                              THEN 1 ELSE 0 END)
                       OVER (PARTITION BY user_id
                             ORDER BY t, event_id
                             ROWS UNBOUNDED PRECEDING) AS sid
              FROM d),
            sess AS (SELECT user_id, sid, min(t) AS st, max(t) AS en
                     FROM s GROUP BY user_id, sid),
            w AS (SELECT unnest(range(st // 3600000000,
                                      en // 3600000000 + 1))
                    AS "window"
                  FROM sess)
            SELECT "window", CAST(count(*) AS BIGINT) AS n_active
            FROM w GROUP BY "window"
        """,
        # burstiness: explicit HUGEINT sums (never stddev_samp), same
        # float op order as the engine
        "q170_burstiness": """
            WITH e AS (
              SELECT user_id, event_id, epoch_us(ts) AS t FROM events
              WHERE user_id IS NOT NULL AND ts IS NOT NULL),
            g AS (
              SELECT user_id,
                     t - lag(t) OVER (PARTITION BY user_id
                                      ORDER BY t, event_id) AS gap
              FROM e),
            s AS (
              SELECT user_id,
                     CAST(count(gap) AS BIGINT) AS n_gaps,
                     CAST(coalesce(sum(gap), 0) AS BIGINT) AS sum_gap,
                     CAST(coalesce(sum(CAST(gap AS HUGEINT) * gap), 0)
                          AS DOUBLE) AS sum_gap2
              FROM g GROUP BY user_id),
            f AS (
              SELECT *, CASE WHEN n_gaps = 0 THEN NULL
                        ELSE CAST(sum_gap AS DOUBLE)
                             / CAST(n_gaps AS DOUBLE) END AS mu
              FROM s),
            v AS (
              SELECT *, CASE WHEN n_gaps < 2 THEN NULL
                        ELSE sqrt((sum_gap2
                                   - CAST(sum_gap AS DOUBLE) * mu)
                                  / CAST(n_gaps - 1 AS DOUBLE)) END
                     AS sd
              FROM f)
            SELECT user_id, n_gaps, sum_gap, sum_gap2,
                   (sd - mu) / NULLIF(sd + mu, 0) AS burstiness
            FROM v
        """,
        # ridge: serial-replay fixture (identical reconstructed floats)
        "q169_ridge_fit": f"""
            SELECT j, coef
            FROM read_parquet('{_ORACLE_DIR}/ridge.parquet')
        """,
        # curation chain: gopher keep -> sqrt thresholds -> budget cut,
        # one chained-CTE replay of the whole pipeline
        "q168_curate_corpus": r"""
            WITH base AS (
              SELECT doc_id, source, coalesce(text, '') AS tx,
                     regexp_extract_all(coalesce(text, ''), '\S+') AS t,
                     string_split(coalesce(text, ''), chr(10)) AS ls
              FROM documents),
            st AS (
              SELECT doc_id, source,
                len(t) AS w,
                coalesce(length(array_to_string(t, '')), 0) AS wc,
                len(regexp_extract_all(tx, '#')) AS nh,
                len(regexp_extract_all(tx, '\.\.\.')) AS ne,
                len(ls) AS nl,
                len(list_filter(ls, x -> regexp_matches(
                    x, '^\s*[-*•]'))) AS nb,
                len(list_filter(ls, x -> regexp_matches(
                    x, '\.\.\.\s*$'))) AS nel,
                len(list_filter(t, x -> regexp_matches(
                    x, '[A-Za-z]'))) AS na
              FROM base),
            kept AS (
              SELECT doc_id, source, w AS gq_n_words FROM st
              WHERE w >= 5 AND w <= 100000
                AND 3 * w <= wc AND wc <= 10 * w
                AND 10 * (nh + ne) < w
                AND 10 * nb < 9 * nl AND 10 * nel < 3 * nl
                AND 10 * na >= 8 * w),
            c AS (SELECT source, count(*) AS n FROM kept
                  WHERE source IS NOT NULL AND doc_id IS NOT NULL
                  GROUP BY source),
            mm AS (SELECT min(n) AS nmin FROM c),
            thr AS (SELECT source,
                      CAST(floor(least(1.0,
                          sqrt(CAST(nmin AS DOUBLE)
                               / CAST(n AS DOUBLE)))
                          * 4294967296.0) AS HUGEINT) AS thr
                    FROM c, mm),
            mixed AS (
              SELECT k.doc_id, k.source, k.gq_n_words
              FROM kept k JOIN thr USING (source)
              WHERE ((CAST(k.doc_id AS HUGEINT) % 4294967296)
                     * 2654435761) % 4294967296 < thr.thr),
            cum AS (
              SELECT doc_id, source, gq_n_words,
                     sum(gq_n_words) OVER (
                         ORDER BY gq_n_words DESC, doc_id
                         ROWS UNBOUNDED PRECEDING) AS cum
              FROM mixed)
            SELECT doc_id, source, gq_n_words,
                   CAST(cum AS BIGINT) AS cum_cost
            FROM cum WHERE cum <= 10000
        """,
        # rolling slope: HUGEINT window sums + identical final division
        "q167_rolling_slope": """
            WITH e AS (
              SELECT event_id, user_id, ts,
                     CAST(round(value * 100) AS BIGINT) AS y
              FROM events
              WHERE user_id IS NOT NULL AND ts IS NOT NULL
                AND value IS NOT NULL),
            r AS (
              SELECT event_id, user_id, y,
                     row_number() OVER (PARTITION BY user_id
                                        ORDER BY ts, event_id) - 1
                       AS j
              FROM e),
            s AS (
              SELECT event_id,
                     count(*) OVER wk AS m,
                     sum(y) OVER wk AS sy,
                     sum(j * y) OVER wk AS sjy,
                     min(j) OVER wk AS j0
              FROM r
              WINDOW wk AS (PARTITION BY user_id ORDER BY j
                            ROWS BETWEEN 9 PRECEDING
                                     AND CURRENT ROW)),
            f AS (
              SELECT event_id, m, sy,
                     sjy - j0 * sy AS sxy,
                     m * (m - 1) // 2 AS sx,
                     (m - 1) * m * (2 * m - 1) // 6 AS sxx
              FROM s)
            SELECT event_id,
                   CASE WHEN m * sxx - sx * sx = 0 THEN NULL
                        ELSE CAST(m * sxy - sx * sy AS DOUBLE)
                             / CAST(m * sxx - sx * sx AS DOUBLE) END
                     AS roll_slope
            FROM f
        """,
        # stratified folds: rank-mod-K over the identical Knuth order
        "q166_stratified_folds": """
            SELECT source, doc_id,
                   CAST((row_number() OVER (
                       PARTITION BY source
                       ORDER BY ((CAST(doc_id AS HUGEINT) % 4294967296)
                                 * 2654435761) % 4294967296, doc_id)
                       - 1) % 5 AS BIGINT) AS fold
            FROM documents WHERE doc_id IS NOT NULL
        """,
        # chi-square crosstab: HUGEINT margins, same casts as engine
        "q165_crosstab_chi2": """
            WITH o AS (
              SELECT source, lang, CAST(count(*) AS BIGINT) AS o
              FROM documents
              WHERE source IS NOT NULL AND lang IS NOT NULL
              GROUP BY 1, 2),
            t AS (
              SELECT source, lang, o,
                     sum(o) OVER (PARTITION BY source) AS r,
                     sum(o) OVER (PARTITION BY lang) AS c,
                     sum(o) OVER () AS n
              FROM o)
            SELECT source, lang, o AS observed,
                   CAST(r * c AS DOUBLE) / CAST(n AS DOUBLE)
                     AS expected,
                   CAST((o * n - r * c) * (o * n - r * c) AS DOUBLE)
                     / CAST(n * r * c AS DOUBLE) AS contrib
            FROM t
        """,
        # hard negatives: unnest self-join exact int dots + QUALIFY
        "q164_hard_negatives": """
            WITH c AS (
              SELECT vec_id, label, i,
                     CAST(floor(CAST(embedding[i] AS DOUBLE) * 256
                                + 0.5) AS BIGINT) AS xq
              FROM embeddings,
                   unnest(range(1, len(embedding) + 1)) r(i)
              WHERE label IS NOT NULL AND embedding IS NOT NULL
            ), d AS (
              SELECT a.vec_id AS vec_id, a.label AS label,
                     b.vec_id AS neg_id, b.label AS neg_label,
                     CAST(sum(a.xq * b.xq) AS BIGINT) AS dot
              FROM c a JOIN c b
                ON a.i = b.i AND a.label <> b.label
               AND a.vec_id <> b.vec_id
              GROUP BY 1, 2, 3, 4
            )
            SELECT vec_id, CAST(label AS BIGINT) AS label, neg_id,
                   CAST(neg_label AS BIGINT) AS neg_label, dot
            FROM d
            QUALIFY row_number() OVER (PARTITION BY vec_id
                                       ORDER BY dot DESC, neg_id) = 1
        """,
        # trimmed mean: row_number trim window, exact int sums
        "q163_trimmed_mean": """
            WITH t AS (
              SELECT l_returnflag,
                     CAST(round(l_extendedprice * 100) AS BIGINT) AS v
              FROM lineitem WHERE l_extendedprice IS NOT NULL),
            r AS (
              SELECT l_returnflag, v,
                     row_number() OVER (PARTITION BY l_returnflag
                                        ORDER BY v) AS rn,
                     count(*) OVER (PARTITION BY l_returnflag) AS n
              FROM t),
            k AS (SELECT l_returnflag, v, rn, n, n // 10 AS kk FROM r)
            SELECT l_returnflag,
                   CAST(min(n) AS BIGINT) AS n_vals,
                   CAST(count(*) FILTER (WHERE rn > kk
                                           AND rn <= n - kk)
                        AS BIGINT) AS n_kept,
                   CAST(sum(v) FILTER (WHERE rn > kk
                                         AND rn <= n - kk)
                        AS BIGINT) AS sum_kept,
                   CAST(sum(v) FILTER (WHERE rn > kk
                                         AND rn <= n - kk) AS DOUBLE)
                     / CAST(count(*) FILTER (WHERE rn > kk
                                               AND rn <= n - kk)
                            AS DOUBLE) AS trimmed_mean
            FROM k GROUP BY l_returnflag
        """,
        # weighted quantiles: RANGE-frame window sum (peers included),
        # integer cross-mult crossing, min(v) FILTER pick
        "q162_weighted_quantiles": """
            WITH t AS (
              SELECT l_returnflag, l_extendedprice AS v,
                     CAST(round(l_quantity) AS BIGINT) AS w
              FROM lineitem WHERE l_extendedprice IS NOT NULL),
            c AS (
              SELECT l_returnflag, v,
                     sum(w) OVER (PARTITION BY l_returnflag
                                  ORDER BY v) AS cum,
                     sum(w) OVER (PARTITION BY l_returnflag) AS tw
              FROM t)
            SELECT l_returnflag, CAST(min(tw) AS BIGINT) AS tot_w,
                   min(v) FILTER (WHERE cum * 2 >= tw) AS wq1_2,
                   min(v) FILTER (WHERE cum * 10 >= 9 * tw) AS wq9_10
            FROM c GROUP BY l_returnflag
        """,
        # resample: grid CTE + neighbor joins + identical IEEE lerp
        "q161_resample": """
            WITH d0 AS (
              SELECT user_id, event_id, epoch_us(ts) AS t, value
              FROM events
              WHERE user_id IS NOT NULL AND ts IS NOT NULL
                AND value IS NOT NULL),
            d AS (
              SELECT user_id, t, value FROM d0
              QUALIFY row_number() OVER (
                  PARTITION BY user_id, t
                  ORDER BY event_id DESC) = 1),
            b AS (SELECT user_id, min(t) AS lo, max(t) AS hi
                  FROM d GROUP BY user_id),
            grid AS (
              SELECT user_id,
                     unnest(range(((lo + 21600000000 - 1)
                                   // 21600000000) * 21600000000,
                                  (hi // 21600000000) * 21600000000
                                    + 1,
                                  21600000000)) AS g
              FROM b),
            p AS (SELECT grid.user_id, grid.g, max(d.t) AS t0
                  FROM grid JOIN d ON d.user_id = grid.user_id
                                  AND d.t <= grid.g
                  GROUP BY 1, 2),
            nx AS (SELECT grid.user_id, grid.g, min(d.t) AS t1
                   FROM grid JOIN d ON d.user_id = grid.user_id
                                   AND d.t > grid.g
                   GROUP BY 1, 2),
            j AS (SELECT p.user_id, p.g, p.t0, v0.value AS v0,
                         nx.t1, v1.value AS v1
                  FROM p
                  JOIN d v0 ON v0.user_id = p.user_id
                           AND v0.t = p.t0
                  LEFT JOIN nx ON nx.user_id = p.user_id
                              AND nx.g = p.g
                  LEFT JOIN d v1 ON v1.user_id = nx.user_id
                                AND v1.t = nx.t1)
            SELECT user_id, g,
                   CASE WHEN t0 = g THEN v0
                        ELSE v0 + (v1 - v0)
                             * (CAST(g - t0 AS DOUBLE)
                                / CAST(t1 - t0 AS DOUBLE)) END
                     AS value
            FROM j
        """,
        # calibration bins: half-up 2^10 quantizer, IEEE-exact ratios
        "q160_calibration": """
            WITH e AS (
              SELECT (epoch_us(ts) % 1000000)
                       / CAST(1000000 AS DOUBLE) AS pred,
                     CAST(coalesce(event_type, '') = 'click'
                          AS BIGINT) AS label
              FROM events WHERE ts IS NOT NULL),
            q AS (
              SELECT CAST(least(floor(pred * 10), 9) AS BIGINT)
                       AS bin,
                     CAST(floor(pred * 1024 + 0.5) AS BIGINT) AS pq,
                     label
              FROM e WHERE pred >= 0 AND pred <= 1),
            s AS (
              SELECT bin, CAST(count(*) AS BIGINT) AS n,
                     CAST(sum(pq) AS BIGINT) AS sum_pred_q,
                     CAST(sum(label) AS BIGINT) AS sum_label
              FROM q GROUP BY bin)
            SELECT bin, n, sum_pred_q, sum_label,
                   CAST(sum_pred_q AS DOUBLE) / CAST(n AS DOUBLE)
                     / 1024.0 AS avg_pred,
                   CAST(sum_label AS DOUBLE) / CAST(n AS DOUBLE)
                     AS avg_label,
                   abs(CAST(sum_pred_q AS DOUBLE) / CAST(n AS DOUBLE)
                       / 1024.0
                       - CAST(sum_label AS DOUBLE) / CAST(n AS DOUBLE))
                     AS gap
            FROM s
        """,
        # busy-window overlap: sessionize CTE + top-5 hour CROSS JOIN,
        # greatest/least clip, all BIGINT microseconds
        "q159_busy_overlap": """
            WITH e_all AS (
              SELECT event_id, user_id, epoch_us(ts) AS t
              FROM events WHERE ts IS NOT NULL),
            e AS (
              SELECT * FROM e_all WHERE user_id IS NOT NULL),
            d AS (
              SELECT user_id, event_id, t,
                     t - lag(t) OVER (PARTITION BY user_id
                                      ORDER BY t, event_id) AS gap
              FROM e),
            s AS (
              SELECT user_id, t,
                     SUM(CASE WHEN gap IS NULL OR gap > 1800000000
                              THEN 1 ELSE 0 END)
                       OVER (PARTITION BY user_id
                             ORDER BY t, event_id
                             ROWS UNBOUNDED PRECEDING) AS sid
              FROM d),
            sess AS (
              SELECT user_id, min(t) AS st, max(t) AS en
              FROM s GROUP BY user_id, sid),
            h AS (
              SELECT t // 3600000000 AS hr, count(*) AS n
              FROM e_all GROUP BY hr
              ORDER BY n DESC, hr ASC LIMIT 5),
            ov AS (
              SELECT sess.user_id,
                     greatest(0, least(sess.en,
                                       (h.hr + 1) * 3600000000)
                                 - greatest(sess.st,
                                            h.hr * 3600000000)) AS o
              FROM sess CROSS JOIN h)
            SELECT user_id, CAST(sum(o) AS BIGINT) AS overlap_us
            FROM ov GROUP BY user_id
        """,
        # rare-category collapse: count CTE + CASE, exact
        "q158_collapse_rare": """
            WITH e AS (
              SELECT event_id,
                     CASE WHEN value IS NOT NULL AND isfinite(value)
                          THEN CAST(CAST(floor(value * 10) AS BIGINT)
                                    AS VARCHAR) END AS cat
              FROM events),
            c AS (SELECT cat, count(*) AS n FROM e
                  WHERE cat IS NOT NULL GROUP BY cat)
            SELECT e.event_id, e.cat,
                   CASE WHEN e.cat IS NULL THEN NULL
                        WHEN c.n >= 25 THEN e.cat
                        ELSE '__other__' END AS cat_rc
            FROM e LEFT JOIN c USING (cat)
        """,
        # budget select: exact int64 window running total, prefix cut
        "q157_budget_select": r"""
            WITH t AS (SELECT doc_id, n_chars,
                              len(regexp_extract_all(
                                  coalesce(text, ''), '\S+')) AS tok
                       FROM documents),
            c AS (SELECT doc_id, n_chars, tok,
                         sum(tok) OVER (ORDER BY n_chars DESC, doc_id
                                        ROWS UNBOUNDED PRECEDING)
                           AS cum
                  FROM t)
            SELECT doc_id, n_chars, tok,
                   CAST(cum AS BIGINT) AS cum_cost
            FROM c WHERE cum <= 20000
        """,
        # Gopher rules: RE2 counts + integer cross-mult thresholds
        "q156_gopher_rules": r"""
            WITH base AS (
              SELECT doc_id, coalesce(text, '') AS tx,
                     regexp_extract_all(coalesce(text, ''), '\S+') AS t,
                     string_split(coalesce(text, ''), chr(10)) AS ls
              FROM documents),
            s AS (
              SELECT doc_id,
                len(t) AS gq_n_words,
                coalesce(length(array_to_string(t, '')), 0)
                  AS gq_word_chars,
                len(regexp_extract_all(tx, '#')) AS gq_n_hash,
                len(regexp_extract_all(tx, '\.\.\.')) AS gq_n_ellipsis,
                len(ls) AS gq_n_lines,
                len(list_filter(ls, x -> regexp_matches(
                    x, '^\s*[-*•]'))) AS gq_n_bullet_lines,
                len(list_filter(ls, x -> regexp_matches(
                    x, '\.\.\.\s*$'))) AS gq_n_ellipsis_lines,
                len(list_filter(t, x -> x IN ('the','be','to','of',
                    'and','that','have','with'))) AS gq_n_stop,
                len(list_filter(t, x -> regexp_matches(
                    x, '[A-Za-z]'))) AS gq_n_alpha_words
              FROM base)
            SELECT doc_id, gq_n_words, gq_word_chars,
                   CASE WHEN gq_n_words = 0 THEN NULL
                        ELSE CAST(gq_word_chars AS DOUBLE)
                             / CAST(gq_n_words AS DOUBLE)
                   END AS gq_mean_word_len,
                   gq_n_hash, gq_n_ellipsis, gq_n_lines,
                   gq_n_bullet_lines, gq_n_ellipsis_lines, gq_n_stop,
                   gq_n_alpha_words,
                   (gq_n_words >= 5 AND gq_n_words <= 100000
                    AND 3 * gq_n_words <= gq_word_chars
                    AND gq_word_chars <= 10 * gq_n_words
                    AND 10 * (gq_n_hash + gq_n_ellipsis) < gq_n_words
                    AND 10 * gq_n_bullet_lines < 9 * gq_n_lines
                    AND 10 * gq_n_ellipsis_lines < 3 * gq_n_lines
                    AND 10 * gq_n_alpha_words >= 8 * gq_n_words
                    AND gq_n_stop >= 0) AS gq_keep
            FROM s
        """,
        # n-gram novelty: md5 equality classes == string equality, so
        # the oracle groups by the gram string; one double division
        "q155_ngram_novelty": r"""
            WITH base AS (SELECT doc_id,
                                 regexp_extract_all(coalesce(text, ''),
                                                    '\S+') AS t
                          FROM documents),
            g AS (SELECT DISTINCT doc_id,
                         array_to_string(list_slice(t, i, i + 2), ' ')
                           AS gram
                  FROM base, LATERAL unnest(range(1, len(t) - 1))
                       AS u(i)
                  WHERE len(t) >= 3),
            m AS (SELECT gram, min(doc_id) AS first_doc
                  FROM g GROUP BY gram),
            s AS (SELECT g.doc_id,
                         CAST(count(*) AS BIGINT) AS n_grams,
                         CAST(count(*) FILTER (
                             WHERE g.doc_id = m.first_doc) AS BIGINT)
                           AS n_novel
                  FROM g JOIN m USING (gram) GROUP BY g.doc_id)
            SELECT d.doc_id,
                   coalesce(s.n_grams, 0) AS n_grams,
                   coalesce(s.n_novel, 0) AS n_novel,
                   CASE WHEN s.n_grams IS NULL THEN NULL
                        ELSE CAST(s.n_novel AS DOUBLE)
                             / CAST(s.n_grams AS DOUBLE) END AS novelty
            FROM documents d LEFT JOIN s USING (doc_id)
        """,
        # isotonic PAV: integer-exact pooling, replay fixture
        "q154_isotonic": f"""
            SELECT x, n, sum_y, pool, fitted
            FROM read_parquet('{_ORACLE_DIR}/isotonic.parquet')
        """,
        # Naive Bayes: serial-replay fixture, bit-exact float contract
        "q153_naive_bayes": f"""
            SELECT doc_id, n_tokens, pred, logprob
            FROM read_parquet('{_ORACLE_DIR}/naive_bayes.parquet')
        """,
        # skip-gram pairs: position self-join over unnested tokens,
        # distance 1..3, same (cnt desc, pair asc) boundary
        "q152_skipgram_pairs": r"""
            WITH base AS (SELECT doc_id,
                                 regexp_extract_all(coalesce(text, ''),
                                                    '\S+') AS t
                          FROM documents),
            tok AS (SELECT doc_id, unnest(t) AS w,
                           generate_subscripts(t, 1) AS i
                    FROM base),
            pr AS (SELECT a.w || ' ' || b.w AS pair
                   FROM tok a JOIN tok b
                     ON a.doc_id = b.doc_id
                    AND b.i > a.i AND b.i <= a.i + 3)
            SELECT pair, CAST(count(*) AS BIGINT) AS cnt FROM pr
            GROUP BY pair ORDER BY cnt DESC, pair ASC LIMIT 25
        """,
        # ECDF encode: strict-< counts via the tagged-union window sum
        # (refs tag 1, queries tag 0, ORDER BY value,tag puts equal-value
        # refs AFTER the query row); pct = one double/double division
        "q151_ecdf_encode": """
            WITH b AS (SELECT min(epoch_us(ts)) AS lo,
                              max(epoch_us(ts)) AS hi
                       FROM events WHERE ts IS NOT NULL),
            m AS (SELECT lo + (hi - lo) // 2 AS mid FROM b),
            ref AS (SELECT event_type, value FROM events, m
                    WHERE ts IS NOT NULL AND epoch_us(ts) <= mid
                      AND event_type IS NOT NULL AND value IS NOT NULL
                      AND isfinite(value)),
            qry AS (SELECT event_id, event_type, value FROM events, m
                    WHERE ts IS NOT NULL AND epoch_us(ts) > mid
                      AND event_type IS NOT NULL AND value IS NOT NULL
                      AND isfinite(value)),
            u AS (
              SELECT event_type, value, 1 AS tag,
                     CAST(NULL AS BIGINT) AS event_id FROM ref
              UNION ALL
              SELECT event_type, value, 0, event_id FROM qry
            ),
            w AS (
              SELECT event_id, event_type, value, tag,
                     sum(tag) OVER (PARTITION BY event_type
                                    ORDER BY value, tag
                                    ROWS UNBOUNDED PRECEDING) - tag
                       AS below,
                     sum(tag) OVER (PARTITION BY event_type) AS n_all
              FROM u
            )
            SELECT event_id, event_type, value,
                   CAST(below AS BIGINT) AS cnt_below,
                   CAST(n_all AS BIGINT) AS n_ref,
                   CASE WHEN n_all = 0 THEN NULL
                        ELSE CAST(below AS DOUBLE)
                             / CAST(n_all AS DOUBLE) END AS pct
            FROM w WHERE tag = 0
        """,
        # temperature mix: floor(min(1,sqrt(nmin/n))*2^32) thresholds,
        # identical Knuth hash — every float op is IEEE-exact both sides
        "q150_temperature_mix": """
            WITH c AS (SELECT source, count(*) AS n
                       FROM documents
                       WHERE source IS NOT NULL
                         AND doc_id IS NOT NULL
                       GROUP BY source),
                 mm AS (SELECT min(n) AS nmin FROM c),
                 t AS (SELECT source,
                         CAST(floor(least(
                             1.0, sqrt(CAST(nmin AS DOUBLE)
                                       / CAST(n AS DOUBLE)))
                             * 4294967296.0) AS HUGEINT) AS thr
                       FROM c, mm)
            SELECT d.doc_id, d.source, d.lang
            FROM documents d JOIN t USING (source)
            WHERE ((CAST(d.doc_id AS HUGEINT) % 4294967296)
                   * 2654435761) % 4294967296 < t.thr
        """,
        # vocabulary overlap: exact distinct-token Jaccard per pair
        "q148_vocab_overlap": r"""
            WITH raw AS (
              SELECT source AS g,
                     unnest(regexp_extract_all(coalesce(text, ''),
                                               '\S+')) AS w
              FROM documents WHERE source IS NOT NULL
            ), tok AS (SELECT DISTINCT g, w FROM raw),
            sizes AS (
              SELECT g, CAST(count(*) AS BIGINT) AS c
              FROM tok GROUP BY g
            ), inter AS (
              SELECT a.g AS grp_a, b.g AS grp_b,
                     CAST(count(*) AS BIGINT) AS i
              FROM tok a JOIN tok b ON a.w = b.w AND a.g < b.g
              GROUP BY a.g, b.g
            )
            SELECT grp_a, grp_b, i AS inter, sa.c AS n_a, sb.c AS n_b,
                   CAST(i AS DOUBLE)
                     / CAST(sa.c + sb.c - i AS DOUBLE) AS jaccard
            FROM inter
            JOIN sizes sa ON grp_a = sa.g
            JOIN sizes sb ON grp_b = sb.g
        """,
        # latest row per key: payload passes through untouched
        "q147_latest_event": """
            SELECT * FROM events
            QUALIFY row_number() OVER (
                PARTITION BY user_id
                ORDER BY ts DESC, event_id DESC) = 1
        """,
        # keep-best dedup: max score, ties min id, NULLs last
        "q146_keep_best_dedup": r"""
            WITH n AS (
              SELECT doc_id, n_chars,
                     trim(lower(regexp_replace(text, '\s+', ' ', 'g')))
                         AS norm_text
              FROM documents
            )
            SELECT doc_id, norm_text, n_chars FROM n
            QUALIFY norm_text IS NULL
                 OR row_number() OVER (
                        PARTITION BY norm_text
                        ORDER BY n_chars DESC NULLS LAST, doc_id) = 1
        """,
        # kNN join serial-replay fixture: bit-exact integer arithmetic
        "q145_knn_join": f"""
            SELECT left_id, rank, right_id, dot
            FROM read_parquet('{_ORACLE_DIR}/knn_join.parquet')
        """,
        # corpus rebalance: min group count + identical Knuth-hash order
        "q144_balance_corpus": """
            WITH c AS (SELECT lang, count(*) AS c
                       FROM documents GROUP BY lang),
                 mm AS (SELECT min(c) AS m FROM c)
            SELECT doc_id, lang FROM documents, mm
            QUALIFY row_number() OVER (
                PARTITION BY lang
                ORDER BY ((CAST(doc_id AS HUGEINT) % 4294967296)
                          * 2654435761) % 4294967296, doc_id) <= mm.m
        """,
        # Welch t-test: HUGEINT sums, fixed float op sequence each side
        "q143_ab_test": """
            WITH e AS (
              SELECT event_type, user_id % 2 AS side,
                     CAST(round(value * 100) AS BIGINT) AS y
              FROM events
              WHERE value IS NOT NULL AND user_id IS NOT NULL
                    AND event_type IS NOT NULL
            ), s AS (
              SELECT event_type,
                CAST(count(*) FILTER (WHERE side = 0) AS HUGEINT) AS na,
                CAST(sum(y)   FILTER (WHERE side = 0) AS HUGEINT) AS sa,
                CAST(sum(y*y) FILTER (WHERE side = 0) AS HUGEINT) AS saa,
                CAST(count(*) FILTER (WHERE side <> 0) AS HUGEINT) AS nb,
                CAST(sum(y)   FILTER (WHERE side <> 0) AS HUGEINT) AS sb,
                CAST(sum(y*y) FILTER (WHERE side <> 0) AS HUGEINT) AS sbb
              FROM e GROUP BY event_type
            ), f AS (
              SELECT event_type, na, nb,
                CAST(sa AS DOUBLE) / CAST(na AS DOUBLE) AS mean_a,
                CAST(sb AS DOUBLE) / CAST(nb AS DOUBLE) AS mean_b,
                CAST(na * saa - sa * sa AS DOUBLE)
                  / CAST(na * (na - 1) AS DOUBLE)
                  / CAST(na AS DOUBLE) AS u_a,
                CAST(nb * sbb - sb * sb AS DOUBLE)
                  / CAST(nb * (nb - 1) AS DOUBLE)
                  / CAST(nb AS DOUBLE) AS u_b
              FROM s
            )
            SELECT event_type,
                   CAST(na AS BIGINT) AS n_a, CAST(nb AS BIGINT) AS n_b,
                   mean_a, mean_b,
                   CASE WHEN na >= 2 AND nb >= 2 THEN
                     (mean_a - mean_b) / sqrt(u_a + u_b) END AS t_stat,
                   CASE WHEN na >= 2 AND nb >= 2 THEN
                     ((u_a + u_b) * (u_a + u_b))
                       / (u_a * u_a / CAST(na - 1 AS DOUBLE)
                          + u_b * u_b / CAST(nb - 1 AS DOUBLE))
                   END AS df
            FROM f
        """,
        # rational PMI: exact int products, one IEEE division each side
        "q142_collocation_pmi": r"""
            WITH tok AS (
              SELECT regexp_extract_all(coalesce(text, ''), '\S+') AS t
              FROM documents
            ), uni AS (
              SELECT w, CAST(count(*) AS BIGINT) AS c
              FROM (SELECT unnest(t) AS w FROM tok) GROUP BY w
            ), big AS (
              SELECT t[i] AS w1, t[i + 1] AS w2
              FROM (SELECT t, unnest(generate_series(1, len(t) - 1)) AS i
                    FROM tok WHERE len(t) >= 2)
            ), bic AS (
              SELECT w1, w2, CAST(count(*) AS BIGINT) AS c_xy
              FROM big GROUP BY w1, w2
            ), tot AS (SELECT CAST(sum(c_xy) AS BIGINT) AS n FROM bic)
            SELECT b.w1, b.w2, b.c_xy, u1.c AS c_x, u2.c AS c_y,
                   CAST(b.c_xy * t.n AS DOUBLE)
                     / CAST(u1.c * u2.c AS DOUBLE) AS pmi_score
            FROM bic b
            CROSS JOIN tot t
            JOIN uni u1 ON b.w1 = u1.w
            JOIN uni u2 ON b.w2 = u2.w
            WHERE b.c_xy >= 5
            ORDER BY pmi_score DESC, b.w1, b.w2
            LIMIT 25
        """,
        # trailing distinct count: exact ints, DISTINCT window replay
        "q141_rolling_distinct": """
            SELECT event_id, user_id,
                   CAST(count(DISTINCT event_type) OVER (
                        PARTITION BY user_id ORDER BY ts, event_id
                        ROWS BETWEEN 6 PRECEDING AND CURRENT ROW)
                     AS BIGINT) AS rolling_distinct
            FROM events
        """,
        # LOCF forward fill: values pass through untouched, so the
        # window replay is bit-exact for doubles and strings alike
        "q140_forward_fill": """
            WITH m AS (
              SELECT event_id, user_id, ts,
                     CASE WHEN event_type = 'click' THEN NULL
                          ELSE value END AS v_gap,
                     CASE WHEN event_type = 'view' THEN NULL
                          ELSE props END AS p_gap
              FROM events
            )
            SELECT event_id, user_id,
                   last_value(v_gap IGNORE NULLS) OVER w AS v_gap_ffill,
                   last_value(p_gap IGNORE NULLS) OVER w AS p_gap_ffill
            FROM m
            WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id
                         ROWS BETWEEN UNBOUNDED PRECEDING
                                  AND CURRENT ROW)
        """,
        # line-level boilerplate removal: identical RE2 line derivation,
        # count(DISTINCT doc) per line, ordered string_agg reassembly
        "q139_line_dedup": r"""
            WITH lined AS (
              SELECT doc_id,
                     regexp_replace(text, '((?:\S+ ){4}\S+) ',
                                    '\1' || chr(10), 'g') AS lt
              FROM documents WHERE text IS NOT NULL
            ), sp AS (
              SELECT doc_id, string_split(lt, chr(10)) AS ls FROM lined
            ), parts AS (
              SELECT doc_id, unnest(ls) AS line,
                     generate_subscripts(ls, 1) AS pos
              FROM sp
            ), freq AS (
              SELECT line, count(DISTINCT doc_id) AS dc
              FROM parts GROUP BY line
            ), kept AS (
              SELECT p.doc_id, p.pos, p.line
              FROM parts p JOIN freq f USING (line) WHERE f.dc < 2
            )
            SELECT s.doc_id,
                   string_agg(k.line, chr(10) ORDER BY k.pos)
                     AS clean_text,
                   CAST(len(s.ls) AS BIGINT) AS n_lines,
                   CAST(count(k.line) AS BIGINT) AS n_kept
            FROM sp s LEFT JOIN kept k USING (doc_id)
            GROUP BY s.doc_id, s.ls
        """,
        "q138_group_gini": """
            WITH c AS (
              SELECT user_id, event_type, CAST(count(*) AS BIGINT) AS c
              FROM events GROUP BY 1, 2
            ),
            g AS (
              SELECT user_id, CAST(sum(c) AS HUGEINT) AS n,
                     CAST(sum(c * c) AS HUGEINT) AS s2
              FROM c GROUP BY 1
            )
            SELECT user_id, CAST(n AS BIGINT) AS n,
                   CAST(n * n - s2 AS DOUBLE)
                     / CAST(n * n AS DOUBLE) AS gini
            FROM g
        """,
        # SNM near-dup: rank window + exact token-set Jaccard
        "q137_snm_neardup": """
            WITH r AS (
              SELECT doc_id, text,
                     row_number() OVER (ORDER BY n_chars, doc_id) AS rn
              FROM documents
              WHERE len(regexp_extract_all(text, '\\S+')) > 0
            ),
            p AS (
              SELECT a.doc_id AS ia, b.doc_id AS ib
              FROM r a JOIN r b ON b.rn - a.rn BETWEEN 1 AND 10
            ),
            tk AS (
              SELECT DISTINCT doc_id, u.t
              FROM documents,
                   LATERAL unnest(regexp_extract_all(text, '\\S+')) u(t)
            ),
            cnt AS (SELECT doc_id, count(*) AS n FROM tk GROUP BY 1),
            i AS (
              SELECT p.ia, p.ib, count(*) AS ni
              FROM p JOIN tk a ON a.doc_id = p.ia
                     JOIN tk b ON b.doc_id = p.ib AND b.t = a.t
              GROUP BY 1, 2
            )
            SELECT CAST(ia AS BIGINT) AS id_a, CAST(ib AS BIGINT) AS id_b,
                   CAST(ni AS DOUBLE)
                     / CAST(ca.n + cb.n - ni AS DOUBLE) AS jaccard
            FROM i JOIN cnt ca ON ca.doc_id = ia
                   JOIN cnt cb ON cb.doc_id = ib
            WHERE 100 * ni >= 60 * (ca.n + cb.n - ni)
        """,
        # OOF target encoding: HUGEINT cell sums, one exact division
        "q136_target_encode": """
            WITH f AS (
              SELECT l_suppkey,
                     CAST(((CAST(l_orderkey AS HUGEINT) % 4294967296)
                           * 2654435761) % 4294967296 % 5
                          AS BIGINT) AS fold,
                     CAST(round(l_extendedprice * 100) AS BIGINT) AS t
              FROM lineitem
              WHERE l_suppkey IS NOT NULL AND l_orderkey IS NOT NULL
                    AND l_extendedprice IS NOT NULL
            ),
            agg AS (SELECT l_suppkey, fold,
                           CAST(count(*) AS HUGEINT) AS c,
                           CAST(sum(t) AS HUGEINT) AS s
                    FROM f GROUP BY 1, 2),
            tot AS (SELECT l_suppkey, sum(c) AS tc, sum(s) AS ts
                    FROM agg GROUP BY 1)
            SELECT a.l_suppkey, a.fold,
                   CAST(t.tc - a.c AS BIGINT) AS n_excl,
                   CASE WHEN t.tc = a.c THEN NULL
                        ELSE CAST(t.ts - a.s AS DOUBLE)
                             / CAST(t.tc - a.c AS DOUBLE)
                   END AS enc
            FROM agg a JOIN tot t USING (l_suppkey)
        """,
        # drawdown: running-max window, int64-exact
        "q135_drawdown": """
            SELECT event_id,
                   CAST(GREATEST(0, max(P) OVER w2) - P AS BIGINT)
                       AS drawdown
            FROM (
              SELECT event_id, user_id, ts,
                     sum(coalesce(
                       CAST(round(value * 100) AS BIGINT)
                         * CASE WHEN event_type = 'error'
                                THEN -1 ELSE 1 END, 0)) OVER w AS P
              FROM events
              WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id
                           ROWS UNBOUNDED PRECEDING)
            )
            WINDOW w2 AS (PARTITION BY user_id ORDER BY ts, event_id
                          ROWS UNBOUNDED PRECEDING)
        """,
        # incremental near-dup: q22's all-pairs oracle, cross-side only
        "q134_incremental_neardup": """
            WITH toks AS (
              SELECT doc_id, regexp_extract_all(text, '\\S+') AS t
              FROM documents
            ),
            sh AS (
              SELECT DISTINCT doc_id,
                     t[i] || chr(1) || t[i+1] || chr(1) || t[i+2] AS s
              FROM toks, LATERAL unnest(range(1, len(t) - 1)) AS u(i)
              WHERE len(t) >= 3
            ),
            cnt AS (SELECT doc_id, count(*) AS n FROM sh
                    GROUP BY doc_id),
            inter AS (
              SELECT a.doc_id AS ia, b.doc_id AS ib, count(*) AS ni
              FROM sh a JOIN sh b
                ON a.s = b.s AND a.doc_id < b.doc_id
              GROUP BY a.doc_id, b.doc_id
            )
            SELECT CAST(ia AS BIGINT) AS id_a,
                   CAST(ib AS BIGINT) AS id_b,
                   round(CAST(ni AS DOUBLE) / (ca.n + cb.n - ni), 6)
                       AS jaccard
            FROM inter
            JOIN cnt ca ON ca.doc_id = ia
            JOIN cnt cb ON cb.doc_id = ib
            WHERE CAST(ni AS DOUBLE) / (ca.n + cb.n - ni) >= 0.8
              AND (ia % 2) <> (ib % 2)
        """,
        # category drift: exact counts + one division per share
        "q133_category_drift": """
            WITH o AS (SELECT source FROM documents),
            n AS (SELECT source FROM documents WHERE doc_id % 17 <> 0),
            oc AS (SELECT source, CAST(count(*) AS BIGINT) AS n_old
                   FROM o GROUP BY source),
            nc AS (SELECT source, CAST(count(*) AS BIGINT) AS n_new
                   FROM n GROUP BY source),
            j AS (SELECT coalesce(oc.source, nc.source) AS source,
                         coalesce(n_old, 0) AS n_old,
                         coalesce(n_new, 0) AS n_new
                  FROM oc FULL JOIN nc
                    ON oc.source IS NOT DISTINCT FROM nc.source)
            SELECT source, n_old, n_new,
                   CAST(n_old AS DOUBLE)
                     / (SELECT CAST(count(*) AS DOUBLE) FROM o)
                       AS share_old,
                   CAST(n_new AS DOUBLE)
                     / (SELECT CAST(count(*) AS DOUBLE) FROM n)
                       AS share_new
            FROM j
        """,
        # spearman: integer tie-averaged ranks on both columns
        "q132_group_spearman": """
            WITH e AS (
              SELECT event_type,
                     (epoch_us(ts) // 3600000000) % 24 AS x,
                     CAST(round(value * 100) AS BIGINT) AS y
              FROM events
              WHERE event_type IS NOT NULL AND ts IS NOT NULL
                    AND value IS NOT NULL
            ),
            r AS (SELECT event_type,
                         2 * rank() OVER (PARTITION BY event_type
                                          ORDER BY x)
                           + count(*) OVER (PARTITION BY event_type, x)
                           - 1 AS a,
                         2 * rank() OVER (PARTITION BY event_type
                                          ORDER BY y)
                           + count(*) OVER (PARTITION BY event_type, y)
                           - 1 AS b
                  FROM e),
            s AS (SELECT event_type,
                         CAST(count(*) AS HUGEINT) AS n,
                         CAST(sum(a) AS HUGEINT) AS sa,
                         CAST(sum(b) AS HUGEINT) AS sb,
                         CAST(sum(a * b) AS HUGEINT) AS sab,
                         CAST(sum(a * a) AS HUGEINT) AS saa,
                         CAST(sum(b * b) AS HUGEINT) AS sbb
                  FROM r GROUP BY event_type)
            SELECT event_type, CAST(n AS BIGINT) AS n,
                   CASE WHEN n * saa - sa * sa = 0
                          OR n * sbb - sb * sb = 0 THEN NULL ELSE
                     CAST(n * sab - sa * sb AS DOUBLE)
                     / (sqrt(CAST(n * saa - sa * sa AS DOUBLE))
                        * sqrt(CAST(n * sbb - sb * sb AS DOUBLE)))
                   END AS rho
            FROM s
        """,
        # MMR: serial integer-greedy replay (recursive, not SQL)
        "q131_mmr_select": f"""
            SELECT rank, vec_id, rel, score
            FROM read_parquet('{_ORACLE_DIR}/mmr.parquet')
        """,
        # time-weighted average: lead() window, exact int numerator
        "q130_time_weighted_avg": """
            WITH e AS (
              SELECT event_id, user_id, epoch_us(ts) AS ts,
                     CAST(round(value * 100) AS BIGINT) AS v
              FROM events WHERE ts IS NOT NULL AND value IS NOT NULL
            ),
            g AS (SELECT user_id, v, ts,
                         lead(ts) OVER (PARTITION BY user_id
                                        ORDER BY ts, event_id) AS nxt
                  FROM e),
            a AS (SELECT user_id,
                         CAST(count(*) AS BIGINT) AS n,
                         CAST(max(ts) - min(ts) AS BIGINT) AS span,
                         CAST(sum(v * (nxt - ts)) AS BIGINT) AS num
                  FROM g GROUP BY user_id)
            SELECT user_id, n, span,
                   CASE WHEN span > 0 THEN
                     CAST(num AS DOUBLE) / CAST(span AS DOUBLE)
                   END AS twa
            FROM a
        """,
        # session journeys: q06 session rule + ordered string_agg
        "q129_session_journeys": f"""
            WITH d AS (
              SELECT event_id, user_id, ts, event_type,
                     epoch(ts - lag(ts) OVER (PARTITION BY user_id
                                              ORDER BY ts, event_id))
                         AS gap
              FROM events WHERE ts IS NOT NULL),
            s AS (
              SELECT user_id, event_type, ts, event_id,
                     SUM(CASE WHEN gap IS NULL OR gap > {GAP_S}
                         THEN 1 ELSE 0 END)
                       OVER (PARTITION BY user_id ORDER BY ts, event_id
                             ROWS UNBOUNDED PRECEDING) AS session_id
              FROM d),
            c AS (SELECT user_id, session_id,
                         string_agg(event_type, '>'
                                    ORDER BY ts, event_id) AS journey
                  FROM s GROUP BY user_id, session_id)
            SELECT journey, CAST(count(*) AS BIGINT) AS cnt FROM c
            WHERE journey IS NOT NULL
            GROUP BY journey ORDER BY cnt DESC, journey ASC LIMIT 15
        """,
        # session co-occurrence: q06 session rule + distinct self-join
        "q128_session_cooccurrence": f"""
            WITH d AS (
              SELECT event_id, user_id, ts, event_type,
                     epoch(ts - lag(ts) OVER (PARTITION BY user_id
                                              ORDER BY ts, event_id))
                         AS gap
              FROM events WHERE ts IS NOT NULL),
            s AS (
              SELECT user_id, event_type,
                     SUM(CASE WHEN gap IS NULL OR gap > {GAP_S}
                         THEN 1 ELSE 0 END)
                       OVER (PARTITION BY user_id ORDER BY ts, event_id
                             ROWS UNBOUNDED PRECEDING) AS session_id
              FROM d),
            dt AS (SELECT DISTINCT user_id, session_id, event_type
                   FROM s WHERE event_type IS NOT NULL)
            SELECT a.event_type AS type_a, b.event_type AS type_b,
                   CAST(count(*) AS BIGINT) AS cnt
            FROM dt a JOIN dt b
              ON a.user_id = b.user_id
             AND a.session_id = b.session_id
             AND a.event_type < b.event_type
            GROUP BY 1, 2
        """,
        # semantic decontam: exact integer dot products, HUGEINT sums
        "q127_semantic_decontam": """
            WITH c AS (
              SELECT vec_id, i,
                     CAST(floor(CAST(embedding[i] AS DOUBLE) * 256
                                + 0.5) AS BIGINT) AS xq
              FROM embeddings,
                   unnest(range(1, len(embedding) + 1)) r(i)
            ), q AS (
              SELECT vec_id AS query_id, i, xq AS yq
              FROM c WHERE vec_id % 50 = 0
            ), d AS (
              SELECT q.query_id, c.vec_id,
                     CAST(sum(c.xq * q.yq) AS BIGINT) AS dot
              FROM c JOIN q USING (i) GROUP BY q.query_id, c.vec_id
            )
            SELECT query_id, vec_id, dot FROM d WHERE dot >= 30000
        """,
        # cusum: prefix-form window replay, int64-exact
        "q126_cusum": """
            SELECT event_id,
                   CAST(P - LEAST(0, min(P) OVER w2) AS BIGINT) AS cusum
            FROM (
              SELECT event_id, user_id, ts,
                     sum(coalesce(CAST(round(value * 100) AS BIGINT),
                                  0) - 25000) OVER w AS P
              FROM events
              WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id
                           ROWS UNBOUNDED PRECEDING)
            )
            WINDOW w2 AS (PARTITION BY user_id ORDER BY ts, event_id
                          ROWS UNBOUNDED PRECEDING)
        """,
        # throttle: serial greedy replay (chained state is not SQL)
        "q125_throttle": f"""
            SELECT user_id, event_id, ts
            FROM read_parquet('{_ORACLE_DIR}/throttle.parquet')
        """,
        # weighted stats: HUGEINT weighted sums, fixed op sequence
        "q124_weighted_stats": """
            WITH e AS (
              SELECT event_type,
                     CAST(round(value * 100) AS BIGINT) AS y,
                     1 + event_id % 5 AS w
              FROM events
              WHERE event_type IS NOT NULL AND value IS NOT NULL
                    AND event_id IS NOT NULL
            ),
            s AS (SELECT event_type,
                         CAST(count(*) AS BIGINT) AS n,
                         CAST(sum(w) AS HUGEINT) AS sw,
                         CAST(sum(w * y) AS HUGEINT) AS swy,
                         CAST(sum(w * y * y) AS HUGEINT) AS swyy
                  FROM e GROUP BY event_type)
            SELECT event_type, n, CAST(sw AS BIGINT) AS sum_w,
                   CASE WHEN sw = 0 THEN NULL ELSE
                     CAST(swy AS DOUBLE) / CAST(sw AS DOUBLE)
                   END AS wmean,
                   CASE WHEN sw = 0 THEN NULL ELSE
                     CAST(sw * swyy - swy * swy AS DOUBLE)
                       / CAST(sw * sw AS DOUBLE)
                   END AS wvar
            FROM s
        """,
        # lift table: integer decile math over a unique-key window
        "q123_lift_table": """
            WITH e AS (
              SELECT event_id,
                     CAST(round(value * 100) AS BIGINT) AS s,
                     CAST(event_type = 'purchase' AS BIGINT) AS y
              FROM events
              WHERE value IS NOT NULL AND event_type IS NOT NULL
                    AND event_id IS NOT NULL
            ),
            r AS (SELECT *,
                         row_number() OVER (ORDER BY s DESC,
                                            event_id DESC) AS rn,
                         count(*) OVER () AS nt
                  FROM e)
            SELECT (rn - 1) * 10 // nt AS decile,
                   CAST(count(*) AS BIGINT) AS n,
                   CAST(sum(y) AS BIGINT) AS n_pos,
                   CAST(sum(s) AS BIGINT) AS sum_s
            FROM r GROUP BY decile
        """,
        # group AUC: integer tie-averaged ranks + HUGEINT sums
        "q122_group_auc": """
            WITH e AS (
              SELECT user_id % 8 AS grp,
                     CAST(event_type = 'purchase' AS BIGINT) AS y,
                     CAST(round(value * 100) AS BIGINT) AS s
              FROM events
              WHERE user_id IS NOT NULL AND event_type IS NOT NULL
                    AND value IS NOT NULL
            ),
            r AS (SELECT grp, y,
                         2 * rank() OVER (PARTITION BY grp ORDER BY s)
                           + count(*) OVER (PARTITION BY grp, s) - 1
                             AS two_r
                  FROM e),
            a AS (SELECT grp, CAST(sum(y) AS HUGEINT) AS npos,
                         CAST(count(*) - sum(y) AS HUGEINT) AS nneg,
                         CAST(sum(CASE WHEN y = 1 THEN two_r ELSE 0 END)
                              AS HUGEINT) AS s2
                  FROM r GROUP BY grp)
            SELECT grp, CAST(npos AS BIGINT) AS n_pos,
                   CAST(nneg AS BIGINT) AS n_neg,
                   CASE WHEN npos = 0 OR nneg = 0 THEN NULL ELSE
                     CAST(s2 - npos * (npos + 1) AS DOUBLE)
                       / CAST(2 * npos * nneg AS DOUBLE)
                   END AS auc
            FROM a
        """,
        # retention cohorts: all-int64 period math, exact counts
        "q121_retention": """
            WITH a AS (SELECT user_id,
                              epoch_us(ts) // 604800000000 AS per
                       FROM events WHERE ts IS NOT NULL),
            c AS (SELECT user_id, min(per) AS cohort FROM a
                  GROUP BY user_id),
            d AS (SELECT DISTINCT a.user_id, c.cohort,
                         a.per - c.cohort AS off
                  FROM a JOIN c USING (user_id))
            SELECT cohort, off AS "offset",
                   CAST(count(*) AS BIGINT) AS n_users
            FROM d GROUP BY cohort, off
        """,
        # snapshot diff: FULL JOIN + IS DISTINCT FROM, exact rows
        "q120_snapshot_diff": """
            WITH old AS (SELECT doc_id, text FROM documents),
            new AS (
              SELECT doc_id,
                     CASE WHEN doc_id % 13 = 0 THEN
                       'CHANGED ' || coalesce(text, '')
                     ELSE text END AS text
              FROM documents WHERE doc_id % 17 <> 0
              UNION ALL
              SELECT doc_id + 1000000 AS doc_id,
                     'added doc ' || CAST(doc_id + 1000000 AS VARCHAR)
                         AS text
              FROM documents WHERE doc_id % 19 = 0
            )
            SELECT * FROM (
              SELECT coalesce(o.doc_id, n.doc_id) AS doc_id,
                     CASE WHEN o.doc_id IS NULL THEN 'added'
                          WHEN n.doc_id IS NULL THEN 'removed'
                          WHEN o.text IS DISTINCT FROM n.text
                              THEN 'changed'
                     END AS status
              FROM old o FULL JOIN new n ON o.doc_id = n.doc_id
            ) WHERE status IS NOT NULL
        """,
        # top bigrams: same list_slice gram convention as q26/q84
        "q119_top_bigrams": r"""
            WITH base AS (SELECT regexp_extract_all(text, '\S+') AS t
                          FROM documents),
            bg AS (SELECT array_to_string(list_slice(t, i, i + 1), ' ')
                       AS bigram
                   FROM base, LATERAL unnest(range(1, len(t))) AS u(i)
                   WHERE len(t) >= 2)
            SELECT bigram, CAST(count(*) AS BIGINT) AS cnt FROM bg
            GROUP BY bigram ORDER BY cnt DESC, bigram ASC LIMIT 20
        """,
        # windowed exact distinct: plain count(DISTINCT), exact ints
        "q118_windowed_distinct": """
            SELECT event_type,
                   epoch_us(ts) // 86400000000 AS day,
                   CAST(count(DISTINCT user_id) AS BIGINT) AS n_distinct
            FROM events
            GROUP BY event_type, day
        """,
        # script profile: identical RE2 class counts both sides
        "q117_script_profile": r"""
            SELECT doc_id, length(text) AS sc_n_chars,
                   len(regexp_extract_all(text, '\p{Latin}'))
                       AS sc_latin,
                   len(regexp_extract_all(text, '\p{Cyrillic}'))
                       AS sc_cyrillic,
                   len(regexp_extract_all(text, '\p{Han}')) AS sc_han,
                   len(regexp_extract_all(text, '\p{Arabic}'))
                       AS sc_arabic,
                   len(regexp_extract_all(text, '[0-9]')) AS sc_digit,
                   len(regexp_extract_all(text, '\s')) AS sc_space,
                   length(text)
                     - len(regexp_extract_all(text, '\p{Latin}'))
                     - len(regexp_extract_all(text, '\p{Cyrillic}'))
                     - len(regexp_extract_all(text, '\p{Han}'))
                     - len(regexp_extract_all(text, '\p{Arabic}'))
                     - len(regexp_extract_all(text, '[0-9]'))
                     - len(regexp_extract_all(text, '\s')) AS sc_other,
                   CASE WHEN length(text) > 0 THEN
                     CAST(len(regexp_extract_all(text, '\p{Latin}'))
                          AS DOUBLE) / CAST(length(text) AS DOUBLE)
                   END AS sc_latin_ratio
            FROM documents
        """,
        # centroid distance: half-up floor quantization (IEEE-exact both
        # sides) + HUGEINT integer distance -> bit-exact
        "q116_centroid_distance": """
            WITH x AS (
              SELECT vec_id, label, i,
                     CAST(floor(CAST(embedding[i] AS DOUBLE) * 256
                                + 0.5) AS HUGEINT) AS xq
              FROM embeddings,
                   unnest(range(1, len(embedding) + 1)) AS r(i)
              WHERE label IS NOT NULL AND embedding IS NOT NULL
            ), s AS (
              SELECT label, i, sum(xq) AS sd, count(*) AS n
              FROM x GROUP BY label, i
            )
            SELECT x.vec_id, x.label,
                   CAST(any_value(s.n) AS BIGINT) AS n,
                   CAST(sum((s.n * x.xq - s.sd) * (s.n * x.xq - s.sd))
                        AS DOUBLE)
                     / CAST(any_value(s.n * s.n) AS DOUBLE)
                     / 65536.0 AS dist2
            FROM x JOIN s ON x.label = s.label AND x.i = s.i
            GROUP BY x.vec_id, x.label
        """,
        # group moments: HUGEINT central sums + explicit DOUBLE casts
        # replay the engine's fixed op sequence bit-exactly
        "q115_group_moments": """
            WITH e AS (
              SELECT event_type,
                     CAST(round(value * 100) AS BIGINT) // 100 AS y
              FROM events
              WHERE value IS NOT NULL AND event_type IS NOT NULL
            ), s AS (
              SELECT event_type,
                     CAST(count(*) AS HUGEINT) AS n,
                     CAST(sum(y) AS HUGEINT) AS s1,
                     CAST(sum(y*y) AS HUGEINT) AS s2,
                     CAST(sum(y*y*y) AS HUGEINT) AS s3,
                     CAST(sum(y*y*y*y) AS HUGEINT) AS s4
              FROM e GROUP BY event_type
            )
            SELECT event_type,
                   CAST(n AS BIGINT) AS n,
                   CAST(s1 AS DOUBLE) / CAST(n AS DOUBLE) AS mean,
                   CAST(n*s2 - s1*s1 AS DOUBLE)
                     / CAST(n*n AS DOUBLE) AS var_pop,
                   CASE WHEN n*s2 - s1*s1 = 0 THEN NULL ELSE
                     CAST(n*n*s3 - 3*n*s1*s2 + 2*s1*s1*s1 AS DOUBLE)
                     / (CAST(n*s2 - s1*s1 AS DOUBLE)
                        * sqrt(CAST(n*s2 - s1*s1 AS DOUBLE)))
                   END AS skew,
                   CASE WHEN n*s2 - s1*s1 = 0 THEN NULL ELSE
                     CAST(n*n*n*s4 - 4*n*n*s1*s3 + 6*n*s1*s1*s2
                          - 3*s1*s1*s1*s1 AS DOUBLE)
                     / (CAST(n*s2 - s1*s1 AS DOUBLE)
                        * CAST(n*s2 - s1*s1 AS DOUBLE)) - 3.0
                   END AS kurt_excess
            FROM s
        """,
        # funnel conversion: int64 ts/count outputs, exact join replay
        "q114_funnel": """
            WITH a AS (
              SELECT user_id, min(ts) AS first_a FROM events
              WHERE event_type = 'view' AND ts IS NOT NULL
              GROUP BY user_id
            )
            SELECT a.user_id, a.first_a,
                   min(e.ts) AS conv_ts,
                   CAST(count(e.ts) AS BIGINT) AS n_b_window,
                   epoch_us(min(e.ts)) - epoch_us(a.first_a) AS gap_us
            FROM a LEFT JOIN events e
              ON e.user_id = a.user_id AND e.event_type = 'purchase'
             AND e.ts >= a.first_a
             AND e.ts <= a.first_a + INTERVAL 21600 SECOND
            GROUP BY a.user_id, a.first_a
        """,
        # large-large interval join: plain non-equi join, exact rows
        "q113_bucketed_interval": """
            WITH iv AS (
              SELECT event_id AS anchor_id, ts AS lo,
                     ts + (1 + event_id % 4) * INTERVAL 1 MINUTE AS hi
              FROM events
              WHERE event_id % 23 = 0 AND ts IS NOT NULL
            )
            SELECT e.event_id, iv.anchor_id
            FROM events e JOIN iv
              ON e.ts >= iv.lo AND e.ts < iv.hi
        """,
        # bigram-LM perplexity: serial Counter replay with the same
        # positionally-invariant reduceat reduction -> bit-exact
        "q112_lm_perplexity": f"""
            SELECT doc_id, n_bigrams, logprob, ppl
            FROM read_parquet('{_ORACLE_DIR}/lm_ppl.parquet')
        """,
        # ewm: blocked-scan arithmetic replayed serially -> bit-exact
        "q95_ewm": f"""
            SELECT event_id, ewm_value
            FROM read_parquet('{_ORACLE_DIR}/ewm.parquet')
        """,
        # canon dedup: lower/regexp_replace/trim replay 1:1; q17 keep
        # rule on the canonical form
        "q94_canon_dedup": r"""
            WITH n AS (
              SELECT doc_id,
                     trim(lower(regexp_replace(text, '\s+', ' ', 'g')))
                         AS norm_text
              FROM documents
            )
            SELECT doc_id, norm_text FROM n
            QUALIFY norm_text IS NULL
                 OR row_number() OVER (PARTITION BY norm_text
                                       ORDER BY doc_id) = 1
        """,
        # json extract: same RE2 both sides; NULLIF models Arrow's
        # null-on-no-match where DuckDB returns ''
        "q93_json_extract": r"""
            SELECT event_id,
                   TRY_CAST(NULLIF(regexp_extract(
                            props, '"k"\s*:\s*(-?\d+(?:\.\d+)?)', 1),
                        '') AS BIGINT) AS prop_k
            FROM events
        """,
        # pca: integer sufficient stats + integer projection -> the
        # serial replay is bit-identical (q57 exactness family)
        "q92_pca": f"""
            SELECT vec_id, pc1, pc2, pc3, pc4
            FROM read_parquet('{_ORACLE_DIR}/pca.parquet')
        """,
        # asof tolerance: the q10 oracle with a staleness CASE; exact
        # integer epoch gap both sides
        "q91_asof_tolerance": """
            SELECT e.event_id,
                   round(CASE WHEN epoch_us(e.ts) - epoch_us(f.ts)
                                   <= 3600000000
                              THEN f.err_value_tol END, 6)
                       AS err_value_tol
            FROM events e
            ASOF LEFT JOIN (
                SELECT user_id, ts, max(value) AS err_value_tol
                FROM events WHERE event_type = 'error'
                GROUP BY user_id, ts
            ) f ON e.user_id = f.user_id AND e.ts >= f.ts
        """,
        # group mode: deterministic (cnt desc, value asc) pick; groups
        # whose values are all NULL still emit (NULL mode, cnt 0)
        "q90_group_mode": """
            WITH gset AS (
              SELECT DISTINCT user_id FROM events
            ), c AS (
              SELECT user_id, event_type, count(*) AS cnt FROM events
              WHERE event_type IS NOT NULL GROUP BY user_id, event_type
            ), r AS (
              SELECT user_id, event_type, cnt,
                     row_number() OVER (PARTITION BY user_id
                                        ORDER BY cnt DESC, event_type)
                         AS rn
              FROM c
            ), w AS (
              SELECT user_id, event_type, cnt FROM r WHERE rn = 1
            )
            SELECT gset.user_id, w.event_type AS mode_value,
                   coalesce(w.cnt, 0) AS mode_cnt
            FROM gset LEFT JOIN w
              ON gset.user_id IS NOT DISTINCT FROM w.user_id
        """,
        # dup fraction: the q84 chain + span sums joined to per-doc
        # token counts; the division is small-int IEEE (bit-exact)
        "q89_dup_fraction": r"""
            WITH tok AS (
              SELECT doc_id, regexp_extract_all(text, '\S+') AS t
              FROM documents
            ), nt AS (
              SELECT doc_id, CAST(len(t) AS BIGINT) AS n_tokens
              FROM tok WHERE len(t) > 0
            ), g AS (
              SELECT doc_id, t,
                     unnest(generate_series(1, len(t) - 7)) AS pos
              FROM tok WHERE len(t) >= 8
            ), gh AS (
              SELECT doc_id, pos,
                     md5(array_to_string(t[pos : pos + 7], ' ')) AS h
              FROM g
            ), dup AS (
              SELECT h FROM gh GROUP BY h HAVING count(*) >= 2
            ), d AS (
              SELECT gh.doc_id, gh.pos AS s, gh.pos + 8 AS e
              FROM gh JOIN dup USING (h)
            ), m AS (
              SELECT doc_id, s, e,
                     CASE WHEN s > coalesce(max(e) OVER (
                              PARTITION BY doc_id ORDER BY s
                              ROWS BETWEEN UNBOUNDED PRECEDING
                                       AND 1 PRECEDING), -1)
                          THEN 1 ELSE 0 END AS brk
              FROM d
            ), isl AS (
              SELECT doc_id, s, e,
                     sum(brk) OVER (PARTITION BY doc_id
                                    ORDER BY s) AS isl_id
              FROM m
            ), spans AS (
              SELECT doc_id, max(e) - min(s) AS span_len
              FROM isl GROUP BY doc_id, isl_id
            ), agg AS (
              SELECT doc_id, CAST(sum(span_len) AS BIGINT) AS dup_tokens
              FROM spans GROUP BY doc_id
            )
            SELECT nt.doc_id, nt.n_tokens,
                   coalesce(agg.dup_tokens, 0) AS dup_tokens,
                   CAST(coalesce(agg.dup_tokens, 0) AS DOUBLE)
                       / nt.n_tokens AS dup_frac
            FROM nt LEFT JOIN agg USING (doc_id)
        """,
        # count-min sketch: identical 60-bit md5 buckets both sides,
        # pure integer sums + min -> bit-exact (q48 hex-cast trick)
        "q88_cms_counts": r"""
            WITH tok AS (
              SELECT unnest(regexp_extract_all(text, '\S+')) AS term
              FROM documents
            ), tc AS (
              SELECT term, count(*) AS c FROM tok GROUP BY term
            ), topq AS (
              SELECT term, c FROM tc ORDER BY c DESC, term LIMIT 20
            ), js AS (
              SELECT unnest(generate_series(0, 3)) AS j
            ), cells AS (
              SELECT js.j,
                     CAST('0x' || substr(md5(CAST(js.j AS VARCHAR)
                                             || ' ' || tc.term), 1, 15)
                          AS UBIGINT) % 1024 AS b,
                     CAST(sum(tc.c) AS BIGINT) AS cnt
              FROM tc, js GROUP BY js.j, b
            )
            SELECT t.term, CAST(t.c AS BIGINT) AS exact_cnt,
                   CAST(min(cells.cnt) AS BIGINT) AS cms_est
            FROM topq t, js
            JOIN cells
              ON cells.j = js.j
             AND cells.b = CAST('0x' || substr(md5(CAST(js.j AS VARCHAR)
                                                   || ' ' || t.term),
                                               1, 15)
                                AS UBIGINT) % 1024
            GROUP BY t.term, t.c
        """,
        # hopping windows: each row in exactly width/hop = 3 windows;
        # same exact aggregate set as q52, floor // both sides
        "q87_hopping_window": """
            WITH x AS (
              SELECT user_id, event_id, value,
                     (epoch_us(ts) // 7200000000) * 7200000000
                       - unnest(generate_series(0, 2)) * 7200000000
                         AS w_start
              FROM events
            )
            SELECT user_id, w_start, count(*) AS n_events,
                   CAST(sum(event_id) AS BIGINT) AS id_sum,
                   round(min(value), 6) AS v_min,
                   round(max(value), 6) AS v_max
            FROM x GROUP BY user_id, w_start
        """,
        # corpus familiarity: pure int64 counting, LIMIT boundary
        # deterministic under (count desc, term asc)
        "q86_corpus_freq": r"""
            WITH tok AS (
              SELECT doc_id, unnest(regexp_extract_all(text, '\S+'))
                         AS term
              FROM documents
            ), cnt AS (
              SELECT term, count(*) AS c FROM tok GROUP BY term
            ), top AS (
              SELECT term, c FROM cnt ORDER BY c DESC, term LIMIT 512
            )
            SELECT t.doc_id, count(*) AS n_tokens,
                   count(top.term) AS n_invocab,
                   CAST(coalesce(sum(top.c), 0) AS BIGINT) AS fam_sum
            FROM tok t LEFT JOIN top USING (term)
            GROUP BY t.doc_id
        """,
        # global rank: unique (value, id) total order -> exact ints
        "q85_global_rank": """
            SELECT event_id, value,
                   row_number() OVER (ORDER BY value, event_id) AS g_rank
            FROM events
            WHERE value IS NOT NULL AND isfinite(value)
        """,
        # dup spans: md5 gram keys replay exactly; islands merge via
        # the prev-max(e) window (ends are monotone at fixed k)
        "q84_dup_spans": r"""
            WITH tok AS (
              SELECT doc_id, regexp_extract_all(text, '\S+') AS t
              FROM documents
            ), g AS (
              SELECT doc_id, t,
                     unnest(generate_series(1, len(t) - 7)) AS pos
              FROM tok WHERE len(t) >= 8
            ), gh AS (
              SELECT doc_id, pos,
                     md5(array_to_string(t[pos : pos + 7], ' ')) AS h
              FROM g
            ), dup AS (
              SELECT h FROM gh GROUP BY h HAVING count(*) >= 2
            ), d AS (
              SELECT gh.doc_id, gh.pos AS s, gh.pos + 8 AS e
              FROM gh JOIN dup USING (h)
            ), m AS (
              SELECT doc_id, s, e,
                     CASE WHEN s > coalesce(max(e) OVER (
                              PARTITION BY doc_id ORDER BY s
                              ROWS BETWEEN UNBOUNDED PRECEDING
                                       AND 1 PRECEDING), -1)
                          THEN 1 ELSE 0 END AS brk
              FROM d
            ), isl AS (
              SELECT doc_id, s, e,
                     sum(brk) OVER (PARTITION BY doc_id
                                    ORDER BY s) AS isl_id
              FROM m
            )
            SELECT doc_id,
                   min(s) AS span_start,
                   max(e) AS span_end,
                   max(e) - min(s) AS span_len
            FROM isl GROUP BY doc_id, isl_id
        """,
        # cube: GROUPING(g1,g2) bitmask = engine lvl; int64-cent sums,
        # no float output at all
        "q83_cube": """
            SELECT o_orderstatus, o_orderpriority,
                   GROUPING(o_orderstatus, o_orderpriority) AS lvl,
                   count(*) AS n_rows,
                   CAST(sum(CAST(round(o_totalprice * 100) AS BIGINT))
                        AS BIGINT) AS sum_price_c
            FROM orders
            GROUP BY CUBE(o_orderstatus, o_orderpriority)
        """,
        # quantile binning: exact quantile_disc edges -> exact <= CASE
        # winsorize: quantile_disc edges are exact data elements ->
        # comparison+substitution CASE replays bit-exactly
        "q82_winsorize": """
            WITH e AS (SELECT event_type AS g,
                              quantile_disc(value, 0.05) AS lo,
                              quantile_disc(value, 0.95) AS hi
                       FROM events GROUP BY event_type)
            SELECT event_id, event_type, value,
                   CASE WHEN value IS NULL THEN NULL
                        WHEN value < lo THEN lo
                        WHEN value > hi THEN hi
                        ELSE value END AS value_w
            FROM events LEFT JOIN e ON event_type = e.g
        """,
        # full outer join: key coalesced, exact raw rows both null sides
        "q81_full_join": """
            SELECT coalesce(o.o_custkey, c.c_custkey) AS o_custkey,
                   o.o_orderkey, o.o_totalprice, c.c_mktsegment
            FROM (SELECT o_orderkey, o_custkey, o_totalprice FROM orders
                  WHERE o_totalprice > 300000) o
            FULL JOIN (SELECT c_custkey, c_mktsegment FROM customer
                       WHERE c_mktsegment = 'BUILDING') c
            ON o.o_custkey = c.c_custkey
        """,
        # group split: same HUGEINT hash as q50/q63, cumulative-bound
        # CASE (ints computed by the same float arithmetic as the engine)
        "q79_group_split": f"""
            SELECT event_id, user_id,
                   CASE WHEN user_id IS NULL THEN NULL
                        WHEN ((CAST(user_id AS HUGEINT) % 4294967296)
                              * 2654435761) % 4294967296
                             < {int(round(0.8 * 4294967296))} THEN 'train'
                        WHEN ((CAST(user_id AS HUGEINT) % 4294967296)
                              * 2654435761) % 4294967296
                             < {int(round((0.8 + 0.1) * 4294967296))}
                             THEN 'val'
                        ELSE 'test' END AS split
            FROM events
        """,
        # redaction: RE2 on both sides -> cleaned text + counts exact
        "q80_redact": r"""
            SELECT doc_id,
                   regexp_replace(text, '\b(spark|hash|join)\b',
                                  '[REDACTED]', 'g') AS text,
                   CAST(len(regexp_extract_all(
                        text, '\b(spark|hash|join)\b')) AS BIGINT)
                       AS n_redactions
            FROM documents
        """,
        # inverted index: postings CSV is byte-identical both sides
        # (ints -> ascending sort -> comma join)
        "q78_inverted_index": """
            WITH w AS (
              SELECT DISTINCT doc_id,
                     unnest(regexp_extract_all(text, '\\S+')) AS term
              FROM documents
            )
            SELECT term, CAST(count(*) AS BIGINT) AS df,
                   array_to_string(list_sort(list(doc_id)), ',')
                       AS postings
            FROM w GROUP BY term HAVING count(*) >= 2
        """,
        # cleaning chain: q17 survivor + q73 fractions + q72 overlap
        # under dyadic thresholds -> pure SQL, bit-exact comparisons
        "q77_clean_corpus": """
            WITH surv AS (
              SELECT min(doc_id) AS doc_id FROM documents GROUP BY text
            ), d AS (
              SELECT doc_id, text FROM documents
              WHERE doc_id IN (SELECT doc_id FROM surv)
            ), tok AS (
              SELECT doc_id, regexp_extract_all(text, '\\S+') AS toks
              FROM d
            ), w AS (
              SELECT doc_id, unnest(toks) AS w FROM tok
            ), ws AS (
              SELECT doc_id, count(*) AS n, count(DISTINCT w) AS dd
              FROM w GROUP BY doc_id
            ), bst AS (
              SELECT doc_id, toks,
                     unnest(generate_series(1, len(toks) - 1)) AS i
              FROM tok WHERE len(toks) >= 2
            ), bmax AS (
              SELECT doc_id, max(c) AS m FROM (
                SELECT doc_id, array_to_string(toks[i : i + 1], ' ') AS g,
                       count(*) AS c
                FROM bst GROUP BY doc_id, g) GROUP BY doc_id
            ), tst AS (
              SELECT doc_id, toks,
                     unnest(generate_series(1, len(toks) - 2)) AS i
              FROM tok WHERE len(toks) >= 3
            ), tmax AS (
              SELECT doc_id, max(c) AS m FROM (
                SELECT doc_id, array_to_string(toks[i : i + 2], ' ') AS g,
                       count(*) AS c
                FROM tst GROUP BY doc_id, g) GROUP BY doc_id
            ), atok AS (
              SELECT doc_id, regexp_extract_all(text, '\\S+') AS toks
              FROM documents
            ), ast AS (
              SELECT doc_id, toks,
                     unnest(generate_series(1, len(toks) - 4)) AS i
              FROM atok WHERE len(toks) >= 5
            ), agrams AS (
              SELECT doc_id,
                     array_to_string(toks[i : i + 4], ' ') AS g
              FROM ast
            ), bench AS (
              SELECT DISTINCT g FROM agrams WHERE doc_id % 97 = 0
            ), hits AS (
              SELECT doc_id, count(DISTINCT g) AS n
              FROM agrams WHERE g IN (SELECT g FROM bench)
              GROUP BY doc_id
            )
            SELECT ws.doc_id, CAST(ws.n AS BIGINT) AS n_tokens
            FROM ws
            JOIN d USING (doc_id)
            LEFT JOIN bmax USING (doc_id)
            LEFT JOIN tmax USING (doc_id)
            LEFT JOIN hits USING (doc_id)
            WHERE ws.n >= 20
              AND CAST(ws.n - ws.dd AS DOUBLE) / ws.n <= 0.5
              AND (ws.n < 2 OR CAST(bmax.m AS DOUBLE) / (ws.n - 1)
                   <= 0.125)
              AND (ws.n < 3 OR CAST(tmax.m AS DOUBLE) / (ws.n - 2)
                   <= 0.0625)
              AND coalesce(hits.n, 0) = 0
        """,
        # dup components: min-reachable-id labels are a property of the
        # edge SET -> python all-pairs+BFS fixture is exact
        "q76_dup_components": f"""
            SELECT doc_id, component
            FROM read_parquet('{_ORACLE_DIR}/dup_components.parquet')
        """,
        # BPE merges: exact-integer counts + total-order tie-break ->
        # the independent dict replay is identical, no tolerance
        "q75_bpe_train": f"""
            SELECT merge_rank, "left", "right", pair_count
            FROM read_parquet('{_ORACLE_DIR}/bpe_merges.parquet')
        """,
        # semantic dedup: bit-identical serial replay (dyadic dots are
        # EXACT under any summation order -> no rounding, no tolerance)
        "q74_semantic_dedup": f"""
            SELECT vec_id, cluster, is_dup
            FROM read_parquet('{_ORACLE_DIR}/semdedup.parquet')
        """,
        # repetition signals: every fraction is ONE int/int double
        # division (n<=99 ints convert exactly) -> bit-exact both sides
        "q73_repetition": """
            WITH tok AS (
              SELECT doc_id, regexp_extract_all(text, '\\S+') AS toks
              FROM documents
            ), w AS (
              SELECT doc_id, unnest(toks) AS w FROM tok
            ), ws AS (
              SELECT doc_id, count(*) AS n, count(DISTINCT w) AS d,
                     sum(len(w)) AS sl
              FROM w GROUP BY doc_id
            ), bst AS (
              SELECT doc_id, toks,
                     unnest(generate_series(1, len(toks) - 1)) AS i
              FROM tok WHERE len(toks) >= 2
            ), bmax AS (
              SELECT doc_id, max(c) AS m FROM (
                SELECT doc_id, array_to_string(toks[i : i + 1], ' ') AS g,
                       count(*) AS c
                FROM bst GROUP BY doc_id, g) GROUP BY doc_id
            ), tst AS (
              SELECT doc_id, toks,
                     unnest(generate_series(1, len(toks) - 2)) AS i
              FROM tok WHERE len(toks) >= 3
            ), tmax AS (
              SELECT doc_id, max(c) AS m FROM (
                SELECT doc_id, array_to_string(toks[i : i + 2], ' ') AS g,
                       count(*) AS c
                FROM tst GROUP BY doc_id, g) GROUP BY doc_id
            )
            SELECT d.doc_id,
                   CAST(coalesce(ws.n, 0) AS BIGINT) AS n_tokens,
                   CASE WHEN coalesce(ws.n, 0) = 0 THEN 0.0
                        ELSE CAST(ws.n - ws.d AS DOUBLE) / ws.n
                   END AS dup_word_frac,
                   CASE WHEN coalesce(ws.n, 0) < 2 THEN 0.0
                        ELSE CAST(bmax.m AS DOUBLE) / (ws.n - 1)
                   END AS top_bigram_frac,
                   CASE WHEN coalesce(ws.n, 0) < 3 THEN 0.0
                        ELSE CAST(tmax.m AS DOUBLE) / (ws.n - 2)
                   END AS top_trigram_frac,
                   CASE WHEN coalesce(ws.n, 0) = 0 THEN 0.0
                        ELSE CAST(ws.sl AS DOUBLE) / ws.n
                   END AS mean_word_len
            FROM documents d
            LEFT JOIN ws USING (doc_id)
            LEFT JOIN bmax USING (doc_id)
            LEFT JOIN tmax USING (doc_id)
        """,
        # decontamination: exact string n-gram overlap vs the doc_id%97
        # benchmark slice (engine's hash path is prefilter-only; the
        # decision is exact string compare, so IN replays it exactly)
        "q72_decontaminate": """
            WITH tok AS (
              SELECT doc_id, regexp_extract_all(text, '\\S+') AS toks
              FROM documents
            ), st AS (
              SELECT doc_id, toks,
                     unnest(generate_series(1, len(toks) - 4)) AS i
              FROM tok WHERE len(toks) >= 5
            ), grams AS (
              SELECT doc_id,
                     array_to_string(toks[i : i + 4], ' ') AS g
              FROM st
            ), bench AS (
              SELECT DISTINCT g FROM grams WHERE doc_id % 97 = 0
            ), hits AS (
              SELECT doc_id, count(DISTINCT g) AS n
              FROM grams
              WHERE g IN (SELECT g FROM bench)
              GROUP BY doc_id
            )
            SELECT d.doc_id,
                   CAST(coalesce(h.n, 0) AS BIGINT) AS n_hits
            FROM documents d LEFT JOIN hits h USING (doc_id)
        """,
        "q71_quantile_bin": """
            WITH e AS (SELECT event_type AS g,
                              quantile_disc(value, 0.25) AS q1,
                              quantile_disc(value, 0.5) AS q2,
                              quantile_disc(value, 0.75) AS q3
                       FROM events GROUP BY event_type)
            SELECT event_id, event_type, value,
                   CAST(CASE WHEN value IS NULL THEN NULL
                             WHEN value <= q1 THEN 0
                             WHEN value <= q2 THEN 1
                             WHEN value <= q3 THEN 2
                             ELSE 3 END AS BIGINT) AS q_bucket
            FROM events LEFT JOIN e ON event_type = e.g
        """,
        # chunk→pack composition: independent serial replay fixture
        "q70_llm_prep": f"""
            SELECT chunk_id, doc_id, chunk_idx, n_tokens, pack_id, pack_pos
            FROM read_parquet('{_ORACLE_DIR}/llm_prep.parquet')
        """,
        # sequence packing: order-defined (no SQL window expresses
        # next-fit) -> independent serial per-bucket replay fixture
        "q69_pack_sequences": f"""
            SELECT doc_id, n_chars, pack_id, pack_pos
            FROM read_parquet('{_ORACLE_DIR}/pack_sequences.parquet')
        """,
        # chunking: same tokenizer as q53; starts at multiples of the
        # stride while start < n_tokens; list slice is 1-based inclusive
        "q68_chunk_docs": """
            WITH tok AS (
              SELECT doc_id, regexp_extract_all(text, '\\S+') AS toks
              FROM documents
            ), st AS (
              -- last start = smallest stride multiple whose window
              -- reaches the doc end (engine spec: no subset chunks)
              SELECT doc_id, toks,
                     unnest(generate_series(
                         0,
                         CASE WHEN len(toks) <= 32 THEN 0
                              ELSE ((len(toks) - 32 + 23) // 24) * 24 END,
                         24)) AS start
              FROM tok WHERE len(toks) > 0
            )
            SELECT doc_id,
                   CAST(start / 24 AS BIGINT) AS chunk_idx,
                   array_to_string(toks[start + 1 :
                                        least(start + 32, len(toks))],
                                   ' ') AS chunk_text,
                   CAST(least(32, len(toks) - start) AS BIGINT) AS n_tokens
            FROM st
        """,
        # weighted sample: serial numpy A-ES replay (pow is not
        # SQL-replayable bit-exactly; same-arithmetic fixture instead)
        "q67_weighted_sample": f"""
            SELECT doc_id, n_chars, ws_score
            FROM read_parquet('{_ORACLE_DIR}/weighted_sample.parquet')
        """,
        # pivot: FILTER aggregates replay the category vector exactly
        "q66_pivot": """
            SELECT user_id,
                   count(*) FILTER (WHERE event_type = 'click') AS n_click,
                   count(*) FILTER (WHERE event_type = 'error') AS n_error,
                   count(*) FILTER (WHERE event_type = 'purchase') AS n_purchase,
                   count(*) FILTER (WHERE event_type = 'signup') AS n_signup,
                   count(*) FILTER (WHERE event_type = 'view') AS n_view,
                   count(*) AS n_total
            FROM events GROUP BY user_id
        """,
        # rollup: GROUPING(g1,g2) bitmask = engine lvl; int64-exact sums
        "q65_rollup": """
            SELECT l_returnflag, l_linestatus,
                   GROUPING(l_returnflag, l_linestatus) AS lvl,
                   count(*) AS n_rows,
                   round(sum(CAST(round(l_quantity * 100) AS BIGINT))
                         / 100.0, 4) AS sum_qty
            FROM lineitem
            GROUP BY ROLLUP(l_returnflag, l_linestatus)
        """,
        # interpolated quantiles: quantile_cont's exact arithmetic both
        # sides (CAST keeps the q literal a DOUBLE, not DECIMAL — a
        # DECIMAL q converts to a different double for non-dyadic q)
        "q64_cont_quantiles": """
            SELECT event_type, count(value) AS n_vals,
                   quantile_cont(value, CAST(0.25 AS DOUBLE)) AS p25_c,
                   quantile_cont(value, CAST(0.5 AS DOUBLE)) AS p50_c,
                   quantile_cont(value, CAST(0.875 AS DOUBLE)) AS p875_c
            FROM events GROUP BY event_type
        """,
        # exact heavy hitters: same regexp tokenizer as q53; LIMIT
        # boundary deterministic under (count desc, term asc)
        "q62_top_terms": """
            WITH tok AS (
              SELECT doc_id, unnest(regexp_extract_all(text, '\\S+')) AS term
              FROM documents
            )
            SELECT term, CAST(count(DISTINCT doc_id) AS BIGINT) AS cnt
            FROM tok GROUP BY term
            ORDER BY cnt DESC, term LIMIT 10
        """,
        # stratified sample: identical Knuth hash (q50) with per-group
        # integer thresholds under a CASE
        "q63_stratified_sample": """
            SELECT doc_id, lang, source, n_chars FROM documents
            WHERE ((CAST(doc_id AS HUGEINT) % 4294967296)
                   * 2654435761) % 4294967296 <
                  CASE lang WHEN 'en' THEN 1073741824
                            WHEN 'de' THEN 2147483648
                            WHEN 'zh' THEN 4294967296
                            ELSE 536870912 END
        """,
        # bloom semi join: exact EXISTS semantics (the bloom only prunes
        # the exchange); int64-exact sums survive any summation order
        "q58_bloom_semi": """
            SELECT l_returnflag,
                   count(*) AS n_items,
                   CAST(sum(CAST(round(l_quantity) AS BIGINT))
                        AS BIGINT) AS sum_qty,
                   round(sum(CAST(round(l_extendedprice * 10000)
                                  AS BIGINT)) / 10000.0, 4) AS sum_price
            FROM lineitem
            WHERE EXISTS (SELECT 1 FROM orders
                          WHERE o_orderkey = l_orderkey
                            AND o_totalprice > 400000)
            GROUP BY l_returnflag
        """,
        # bloom anti join: exact NOT EXISTS; raw left rows out
        "q59_bloom_anti": """
            SELECT o_orderkey, o_custkey, o_totalprice, o_orderpriority
            FROM orders o
            WHERE NOT EXISTS (SELECT 1 FROM customer c
                              WHERE c.c_custkey = o.o_custkey
                                AND c.c_mktsegment = 'BUILDING')
        """,
        # histogram-quantile sketch: identical dyadic bin arithmetic
        # (value/0.125 exact shift, bin*0.125 exact), cumulative counts
        # per group, first bin reaching the quantile_disc rank
        "q61_hist_quantiles": """
            WITH b AS (
                SELECT event_type AS g,
                       CAST(floor(value / 0.125) AS BIGINT) AS bin,
                       count(*) AS c
                FROM events WHERE value IS NOT NULL GROUP BY 1, 2),
            tot AS (SELECT g, CAST(sum(c) AS BIGINT) AS n FROM b GROUP BY g),
            cum AS (SELECT g, bin,
                           CAST(sum(c) OVER (PARTITION BY g ORDER BY bin)
                                AS BIGINT) AS cc
                    FROM b)
            SELECT t.g AS event_type, any_value(t.n) AS n_vals,
                   min(CASE WHEN cc >= greatest(CAST(ceil(0.5 * t.n) AS BIGINT), 1)
                            THEN bin END) * 0.125 AS p50_lo,
                   min(CASE WHEN cc >= greatest(CAST(ceil(0.9 * t.n) AS BIGINT), 1)
                            THEN bin END) * 0.125 AS p90_lo,
                   min(CASE WHEN cc >= greatest(CAST(ceil(0.99 * t.n) AS BIGINT), 1)
                            THEN bin END) * 0.125 AS p99_lo
            FROM cum JOIN tot t ON cum.g = t.g
            GROUP BY t.g
        """,
        # window-rank family: peers by value (rank/dense/percent/cume),
        # total order (value, event_id) for row_number; percent_rank and
        # cume_dist are one int/int double division each -> bit-exact
        "q60_rank_family": """
            SELECT event_id, user_id, value,
                   row_number() OVER (PARTITION BY user_id
                                      ORDER BY value, event_id) AS row_number,
                   rank() OVER w AS "rank",
                   dense_rank() OVER w AS dense_rank,
                   percent_rank() OVER w AS percent_rank,
                   cume_dist() OVER w AS cume_dist
            FROM events
            WINDOW w AS (PARTITION BY user_id ORDER BY value)
        """,
    }
