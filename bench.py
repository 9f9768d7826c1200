"""Headline query sweep.

Runs each query in ``QUERY_NAMES`` over $GRAFT_SF_DIR (default
/root/testdata/sf0.1) with ray.init(address="local",
num_cpus=$RAY_GRAFT_CPUS or os.cpu_count()) and prints ONE JSON line:

    {"metric": "...", "value": <total sec>, "unit": "sec",
     "queries": {<name>: <sec>, ...}, "sf": ..., "num_cpus": N}

The flagship pipeline's throughput and the N -> 4N scaling diagnostic
are measured by ``perfbench/run.py`` (see perfbench/README.md).
"""

from __future__ import annotations

import json
import os
import sys
import time

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS") or os.cpu_count() or 1)


def _init_ray(num_cpus: int):
    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=num_cpus, include_dashboard=False)
    import logging

    logging.getLogger("ray.data").setLevel(logging.ERROR)


QUERY_NAMES = [
    "q01_pricing_summary", "q04_priority_revenue", "q06_sessionize",
    "q08_rolling_window", "q09_time_window", "q10_asof_backfill",
    "q11_session_stats", "q17_exact_dedup", "q20_ann_topk",
    "q22_minhash_neardup", "q26_text_analysis", "q38_group_dispose",
    "q39_voronoi_neighbors", "q42_radius_neighbors", "q45_ngram_jaccard",
    # q46 is excluded like the other fixture-oracle queries: its callable
    # runs the serial replay oracle inline, which would dominate the
    # reported time.  q47's loopback endpoint is trivial, so it stays.
    "q47_http_fetch", "q48_kmv_distinct", "q49_interval_join",
    "q50_hash_sample", "q51_group_quantiles", "q52_tumbling_window",
    "q53_tfidf", "q55_cap_per_group", "q58_bloom_semi", "q60_rank_family",
    "q62_top_terms", "q68_chunk_docs",
    # round-4 session-5 LLM-prep additions (SQL-oracled, engine-only
    # callables — no inline replay cost): decontamination, repetition
    # signals, the composed cleaning chain, inverted index, redaction
    "q72_decontaminate", "q73_repetition", "q77_clean_corpus",
    "q78_inverted_index", "q80_redact",
    # session-6 additions: exact-substring dup spans (two exchanges of
    # one-row-per-gram tables — the heaviest new surface), int-exact
    # corpus familiarity, hopping windows, global row_number
    "q84_dup_spans", "q85_global_rank", "q86_corpus_freq",
    "q87_hopping_window",
    # session-7 additions: HLL registers, int-exact group OLS/corr,
    # nearest as-of (dual segmented scan), rolling median (sliding
    # window), transition bigrams, PassJoin edit-distance join
    "q101_hll_distinct", "q102_group_linfit", "q104_asof_nearest",
    "q105_rolling_median", "q106_transitions", "q107_editdist_join",
    # session-8 additions (q112's LM replay is fixture-inline like q46,
    # so it stays out; everything else below is engine-only)
    "q113_bucketed_interval", "q114_funnel", "q115_group_moments",
    "q116_centroid_distance", "q117_script_profile",
    "q118_windowed_distinct", "q119_top_bigrams", "q120_snapshot_diff",
    "q121_retention", "q122_group_auc", "q123_lift_table",
    "q124_weighted_stats", "q126_cusum", "q127_semantic_decontam",
    "q128_session_cooccurrence", "q129_session_journeys",
    "q130_time_weighted_avg", "q132_group_spearman",
    "q133_category_drift", "q134_incremental_neardup", "q135_drawdown",
    "q136_target_encode", "q137_snm_neardup", "q138_group_gini",
    "q139_line_dedup", "q140_forward_fill", "q141_rolling_distinct",
    "q142_collocation_pmi", "q143_ab_test", "q144_balance_corpus",
    "q146_keep_best_dedup", "q147_latest_event", "q148_vocab_overlap",
    "q149_diversified_topk",
    # session-9 additions (q153/q154 replay fixtures are inline like
    # q46; q145's fixture likewise stays out)
    "q150_temperature_mix", "q151_ecdf_encode", "q152_skipgram_pairs",
    "q155_ngram_novelty", "q156_gopher_rules", "q157_budget_select",
    "q158_collapse_rare", "q159_busy_overlap", "q160_calibration",
    "q161_resample", "q162_weighted_quantiles", "q163_trimmed_mean",
    "q164_hard_negatives", "q165_crosstab_chi2",
    "q166_stratified_folds", "q167_rolling_slope",
    "q168_curate_corpus", "q170_burstiness", "q171_concurrency", "q172_rising_terms", "q173_k_anonymity", "q174_label_prototypes",
    "q175_wilson_rates", "q176_lexical_diversity",
    "q177_group_top_terms", "q179_ks_drift", "q180_rfm_segments",
    "q181_cohort_value", "q182_longest_streak", "q183_order_violations",
    # session-10 additions
    "q184_cdc_compact", "q185_zorder_layout", "q186_theil_sen",
    "q187_pagerank", "q188_attribution", "q189_scd2_intervals",
    "q190_pq_codes", "q191_funnel_path", "q192_novelty_curve",
    "q193_soundex_block",
    # session-11 additions
    "q194_context_trim", "q195_feature_hash", "q196_seasonal_peak",
    "q197_lag_autocov", "q198_containment_join", "q199_benford_digits",
    "q200_triangle_census", "q201_rolling_rank", "q202_er_match",
    "q203_rrf_fusion", "q204_table_checksum",
    # session-12 additions (fixture-inline q210/q211/q215 stay out:
    # their callables recompute the serial replay on every run)
    "q205_kappa_agreement", "q206_association_rules",
    "q207_prefix_dedup", "q208_weighted_interleave",
    "q209_silhouette", "q212_vocab_coverage", "q213_loo_encode",
    "q214_mann_whitney", "q216_cross_source", "q217_split_audit",
    "q219_prep_corpus", "q220_pareto_front", "q221_quota_allocate",
    "q222_did_estimate", "q224_kmv_setops",
    # session-13 additions (fixture-inline q218/q223 stay out)
    "q225_fk_audit", "q226_quota_sample", "q227_encoding_audit",
    "q228_chi2_keyness", "q229_kendall_tau", "q230_sax_symbols",
    # session-14 additions
    "q231_churn_profile", "q232_quantile_normalize",
    "q233_kn_bigram", "q234_assortativity", "q235_bm25",
    # session-15 additions
    "q237_wasserstein_drift", "q238_haar_energy", "q240_bfs_hops",
    "q243_mutual_nn", "q244_randomization_test",
    "q247_golden_records", "q248_knn_eval", "q249_hour_profile",
    "q250_asof_interpolate", "q251_weak_label", "q252_ipc_roundtrip",
    "q253_mmd_drift", "q255_readability", "q257_decay_attribution",
    "q258_bootstrap_ci", "q259_two_hop", "q260_scd2_apply",
    "q261_seasonal_anomaly", "q262_ts_collisions",
    "q263_eventually_follows", "q264_next_latency",
    "q265_weighted_jaccard", "q266_activation", "q267_predictability",
    "q268_bot_scorecard", "q269_oscillation", "q270_coactivity",
    "q271_doc_scorecard", "q272_csv_roundtrip",
    # session-16 additions
    "q274_pr_sweep", "q275_watermark_lateness",
    # q276/q277/q278 are fixture-inline (serial ridge replays) - stay out
    "q279_bucketed_join", "q280_incremental_agg",
    "q281_global_quantile", "q282_topk_two_pass", "q283_validate",
    "q284_compaction", "q285_schema_evolution", "q286_outlier_explain", "q287_adaptive_sessionize", "q288_qq_drift", "q290_gini", "q291_range_pruned_read", "q292_embed_diversity", "q293_l_diversity", "q294_mixed_language", "q295_release_gate", "q296_seasonal_backtest", "q297_split_contamination", "q298_new_vs_returning", "q299_double_charge", "q300_corpus_factory", "q301_redaction_audit", "q302_skew_report",
    # round-5 additions
    "q303_components", "q304_salted_join", "q305_rolling_extrema", "q306_provenance_read", "q307_impute_median", "q308_dialogue_profile", "q309_delta_contributors", "q310_salted_running_total", "q311_salted_time_window",
    "q312_finalized_windows", "q313_coverage_curve", "q314_latency_profile", "q315_embedding_drift", "q318_event_spans", "q319_leakage_audit", "q322_group_completeness",
    # q316 stays out of the sweep: its fixture replay is a per-byte
    # python loop over the whole corpus (gate-only)
   
]


CAPTURE_STATS = os.environ.get("FBR_BENCH_STATS", "0") == "1"


def run_queries(sf_dir: str) -> dict:
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import __ray_entry__ as e

    qs = e.queries()
    out = {}
    for name in QUERY_NAMES:
        t0 = time.time()
        res = qs[name](sf_dir)
        if hasattr(res, "count"):
            res.count()
        out[name] = round(time.time() - t0, 2)
        if CAPTURE_STATS and hasattr(res, "stats"):
            # per-stage wall/cpu breakdown for perf iteration (the
            # "read ds.stats() and iterate" loop from the task brief)
            os.makedirs("/tmp/fbr_bench/stats", exist_ok=True)
            with open(f"/tmp/fbr_bench/stats/{name}.txt", "w") as fh:
                fh.write(res.stats())
    return out


def main():
    _init_ray(NUM_CPUS)
    queries = run_queries(SF_DIR)
    print(json.dumps({
        "metric": "featurebox_ray headline query sweep (sum of query walls)",
        "value": round(sum(queries.values()), 2),
        "unit": "sec",
        "queries": queries,
        "sf": SF_DIR,
        "num_cpus": NUM_CPUS,
    }))
    import ray

    ray.shutdown()


if __name__ == "__main__":
    main()
