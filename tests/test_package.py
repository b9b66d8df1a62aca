import importlib

import pytest

import flame_match

PUBLIC_NAMES = [
    "BiasMatrix",
    "BinState",
    "Dataset",
    "DatasetSchema",
    "FlameConfig",
    "GroupTable",
    "LevelQuality",
    "LinearSymbolic",
    "MatchRun",
    "StopReason",
    "SynthResult",
    "SynthSpec",
    "UnitKeys",
    "balancing_factor",
    "basic_exact_match",
    "bias_matrix",
    "count_and_flag",
    "emit_sql",
    "estimate_ate",
    "generate",
    "load_csv",
    "match_quality",
    "mixed_radix_keys",
    "oracle_flame",
    "pooled_prediction_error",
    "prediction_error",
    "run_flame",
    "sort_covariates_by_arity",
    "split_holdout",
    "subpopulation_report",
    "true_cate",
]


def test_public_surface_is_pinned():
    # adding or dropping a public name is a deliberate edit of this list
    assert PUBLIC_NAMES == sorted(PUBLIC_NAMES)
    assert flame_match.__all__ == PUBLIC_NAMES


def test_lazy_exports_resolve_to_their_modules():
    for name in flame_match.__all__:
        module = importlib.import_module(f"flame_match.{flame_match._EXPORTS[name]}")
        assert getattr(flame_match, name) is getattr(module, name)


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        flame_match.no_such_name
    assert not hasattr(flame_match, "grouper_backend")
