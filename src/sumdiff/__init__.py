"""Sumsets, difference sets and linear-form images of random integer sets."""


def _import_numpy() -> None:
    """Import numpy with its bundled OpenBLAS's idle spin cut short.

    OpenBLAS starts a thread per extra core as numpy loads, and each idle
    thread busy-waits 2^28 cycles before it sleeps: about 0.13 CPU-s per
    extra core in every process, although sumdiff never calls BLAS.  OpenBLAS reads
    OPENBLAS_THREAD_TIMEOUT only as it loads, so the variable is set for the
    import alone and os.environ is left as the caller had it.  A caller's
    own value, or a numpy that is already loaded, is left alone.
    """
    import os
    import sys

    if "numpy" in sys.modules or "OPENBLAS_THREAD_TIMEOUT" in os.environ:
        return
    os.environ["OPENBLAS_THREAD_TIMEOUT"] = "4"  # 2^4 cycles, OpenBLAS's least
    try:
        import numpy  # noqa: F401
    finally:
        del os.environ["OPENBLAS_THREAD_TIMEOUT"]


_import_numpy()

from .bounds import (
    AltBoundReport,
    BoundReport,
    RatioClaim,
    alt_parameterization,
    bound_report,
    ratio_claim,
)
from .errors import BracketingError, ExperimentAborted, ResourceBudgetError
from .experiments import (
    BoundCheck,
    CrossoverResult,
    ExperimentConfig,
    StatisticsSpec,
    StatSummary,
    TrialRecord,
    config_from_dict,
    empirical_crossover,
    enumerate_exhaustive,
    load_config,
    records_to_csv,
    results_to_json,
    run_experiment,
    run_trial,
    summarize_records,
    verify_bounds,
)
from .predictions import (
    ConjecturePrediction,
    PredictionBundle,
    alpha,
    asymptotic_bundle,
    conjecture_prediction,
    exact_missing_sums_expectation,
    expected_tuple_count,
    g_form,
    g_ratio,
    janson_missing_diffs_bounds,
    series_partial_g,
    symmetry_count,
)
from .sampling import GENERATOR_NAME, PFamily, SamplerSeed, p_of, sample
from .sets import (
    Classification,
    IntegerSet,
    LinearForm,
    RepHistogram,
    classify,
    diffset,
    form_image,
    make_set,
    multiplicity_profile,
    rep_histogram,
    repeated_gap_pairs,
    sumset,
    tuple_statistic,
)
from .thresholds import (
    DominationReport,
    classify_pair,
    dominator_at,
    solve_threshold,
)

__version__ = "0.1.0"

__all__ = [
    "AltBoundReport",
    "BoundCheck",
    "BoundReport",
    "BracketingError",
    "Classification",
    "ConjecturePrediction",
    "CrossoverResult",
    "DominationReport",
    "ExperimentAborted",
    "ExperimentConfig",
    "GENERATOR_NAME",
    "IntegerSet",
    "LinearForm",
    "PFamily",
    "PredictionBundle",
    "RatioClaim",
    "RepHistogram",
    "ResourceBudgetError",
    "SamplerSeed",
    "StatSummary",
    "StatisticsSpec",
    "TrialRecord",
    "alpha",
    "alt_parameterization",
    "asymptotic_bundle",
    "bound_report",
    "classify",
    "classify_pair",
    "config_from_dict",
    "conjecture_prediction",
    "diffset",
    "dominator_at",
    "empirical_crossover",
    "enumerate_exhaustive",
    "exact_missing_sums_expectation",
    "expected_tuple_count",
    "form_image",
    "g_form",
    "g_ratio",
    "janson_missing_diffs_bounds",
    "load_config",
    "make_set",
    "multiplicity_profile",
    "p_of",
    "ratio_claim",
    "records_to_csv",
    "rep_histogram",
    "repeated_gap_pairs",
    "results_to_json",
    "run_experiment",
    "run_trial",
    "sample",
    "series_partial_g",
    "solve_threshold",
    "summarize_records",
    "sumset",
    "symmetry_count",
    "tuple_statistic",
    "verify_bounds",
]
