import ast
import importlib
import inspect
import subprocess
import sys
from pathlib import Path

import pytest

import flame_match
from flame_match.grouper import match_flags

PERFBENCH_CHILD = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"

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


def _perfbench_wraps():
    """``(module, attr)`` of every ``tracer.wrap(name, module, attr, ...)`` call in perfbench's child."""
    tree = ast.parse(PERFBENCH_CHILD.read_text(encoding="utf-8"))
    loops = [node for node in ast.walk(tree) if isinstance(node, ast.For) and isinstance(node.target, ast.Name)]
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "wrap":
            module, attr = node.args[1], node.args[2]
            if isinstance(attr, ast.Name):
                # a name bound by a loop over literal attribute names
                (loop,) = [lp for lp in loops if lp.target.id == attr.id]
                attrs = ast.literal_eval(loop.iter)
            else:
                attrs = [ast.literal_eval(attr)]
            for a in attrs:
                yield ast.literal_eval(module), a


def test_perfbench_rebinds_callables_that_exist():
    # perfbench times each layer by rebinding these names; a renamed one drops its metrics
    wraps = list(_perfbench_wraps())
    assert ("flame_match.engine", "match_flags") in wraps and len(wraps) >= 9
    for module, attr in wraps:
        assert callable(getattr(importlib.import_module(module), attr, None)), f"{module}.{attr}"
    # its trial-row count reads match_flags' second positional argument
    assert list(inspect.signature(match_flags).parameters)[1] == "considered"


def test_a_falsified_hypothesis_test_does_not_end_the_session(tmp_path):
    # explaining a falsified example imports libcst, whose import warns through
    # mypy_extensions; under pyproject's error::DeprecationWarning that warning
    # must not turn the failure into an INTERNALERROR that skips every later test
    root = Path(__file__).resolve().parents[1]
    probe = tmp_path / "test_probe.py"
    probe.write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_falsified(x):\n"
        "    assert x < 5\n\n\n"
        "def test_later():\n"
        "    pass\n",
        encoding="utf-8",
    )
    config = ["-c", str(root / "pyproject.toml"), "--rootdir", str(tmp_path), "-p", "no:cacheprovider"]
    done = subprocess.run(
        [sys.executable, "-m", "pytest", *config, "-q", str(probe)], cwd=tmp_path, capture_output=True, text=True
    )
    assert done.returncode == 1, done.stdout + done.stderr
    assert "1 failed, 1 passed" in done.stdout
