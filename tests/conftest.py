import os
from pathlib import Path

import numpy as np
import pytest

from flame_match.dataset import Dataset


@pytest.fixture(scope="session", autouse=True)
def src_on_child_path():
    """Put src/ on ``PYTHONPATH`` for child interpreters (criterion 01 runs ``python -m flame_match.cli``).

    pyproject's ``pythonpath`` setting reaches only the test process itself.
    """
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", str(Path(__file__).resolve().parents[1] / "src"), prepend=os.pathsep)
        yield


@pytest.fixture
def table1():
    """The four-unit worked example: binary + ternary covariate, arity-sorted."""
    return Dataset(
        covariates=np.array([[0, 2], [1, 1], [1, 0], [1, 1]]),
        arities=np.array([2, 3]),
        treatment=np.array([0, 0, 1, 1]),
        outcome=np.array([1.0, 2.0, 3.0, 4.0]),
        covariate_names=("v1", "v2"),
        unit_ids=np.arange(4),
    )


@pytest.fixture
def write_csv(tmp_path):
    def _write(name, header, rows):
        path = tmp_path / name
        lines = [",".join(header)]
        lines += [",".join(str(c) for c in row) for row in rows]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return str(path)

    return _write


@pytest.fixture
def table1_csv(write_csv):
    return write_csv(
        "table1.csv",
        ["v1", "v2", "T", "Y"],
        [[0, 2, 0, 1.0], [1, 1, 0, 2.0], [1, 0, 1, 3.0], [1, 1, 1, 4.0]],
    )


def random_dataset(rng, n=None, p=None, max_arity=4):
    """Small random dataset for property tests."""
    n = n or int(rng.integers(2, 60))
    p = p or int(rng.integers(1, 6))
    arities = rng.integers(2, max_arity + 1, size=p)
    covs = np.stack([rng.integers(0, a, size=n) for a in arities], axis=1)
    return Dataset(
        covariates=covs,
        arities=arities,
        treatment=rng.integers(0, 2, size=n),
        outcome=rng.normal(size=n),
        covariate_names=tuple(f"c{i}" for i in range(p)),
        unit_ids=np.arange(n),
    )


def group_tuples(table):
    """A group table as ``(signature, rows, n_treated, n_control)`` tuples, in table order."""
    bounds = table.offsets.tolist()
    return [
        (tuple(sig), tuple(table.rows[lo:hi].tolist()), n_t, n_c)
        for sig, lo, hi, n_t, n_c in zip(
            table.signatures.tolist(), bounds, bounds[1:], table.n_treated.tolist(), table.n_control.tolist()
        )
    ]


def first_match_levels(run):
    """Unit id -> level of the first group that holds it (with replacement a unit can recur later)."""
    level_of = {}
    for lv in run.levels:
        for uid in run.unit_ids[lv.table.rows].tolist():
            level_of.setdefault(uid, lv.level)
    return level_of


def imbalanced_dataset(rng, n, balanced, extra, extras_first=False):
    """Irrelevant-style rows: ``balanced`` fair binary covariates and ``extra`` binary ones set with
    probability 0.9 in the treated arm and 0.1 in the control arm, the extras last (or first)."""
    treatment = rng.random(n) < 0.5
    fair = rng.integers(0, 2, size=(n, balanced))
    skewed = (rng.random((n, extra)) < np.where(treatment[:, None], 0.9, 0.1)).astype(np.int64)
    covs = np.hstack([skewed, fair] if extras_first else [fair, skewed])
    p = balanced + extra
    return Dataset(
        covariates=covs,
        arities=np.full(p, 2),
        treatment=treatment,
        outcome=covs[:, :4] @ np.array([2.0, 1.0, 0.5, 0.25]) + treatment + rng.normal(0, 0.1, size=n),
        covariate_names=tuple(f"c{i}" for i in range(p)),
        unit_ids=np.arange(n),
    )
