"""Almost-exact matching engine for observational causal inference on categorical data.

Submodules import lazily, so the exact bias enumerator (``oracle``) does not
pay for the numeric stack. The SQL emitter ``emit_sql`` lives in ``grouper``,
which imports numpy.
"""

__version__ = "0.1.0"

_EXPORTS = {
    "Dataset": "dataset",
    "DatasetSchema": "dataset",
    "load_csv": "dataset",
    "sort_covariates_by_arity": "dataset",
    "split_holdout": "dataset",
    "UnitKeys": "grouper",
    "GroupTable": "grouper",
    "mixed_radix_keys": "grouper",
    "count_and_flag": "grouper",
    "basic_exact_match": "grouper",
    "emit_sql": "grouper",
    "LevelQuality": "quality",
    "prediction_error": "quality",
    "pooled_prediction_error": "quality",
    "balancing_factor": "quality",
    "match_quality": "quality",
    "FlameConfig": "engine",
    "MatchRun": "engine",
    "StopReason": "engine",
    "run_flame": "engine",
    "estimate_ate": "engine",
    "subpopulation_report": "engine",
    "LinearSymbolic": "oracle",
    "BinState": "oracle",
    "BiasMatrix": "oracle",
    "true_cate": "oracle",
    "oracle_flame": "oracle",
    "bias_matrix": "oracle",
    "SynthSpec": "synth",
    "SynthResult": "synth",
    "generate": "synth",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    if name in _EXPORTS:
        import importlib

        module = importlib.import_module(f".{_EXPORTS[name]}", __name__)
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
