"""The engine's levels replayed as the paper's SQL implementation on in-memory sqlite3.

For each golden input, ``run_flame`` (without replacement) fixes the active
covariates of every committed level. Each level's ``emit_sql`` statement then
groups the still-unmatched rows of a live table and stamps the members of the
groups holding both treatment values. SQLite does the grouping, so this is an
implementation independent of ``grouper``: every row's ``is_matched`` must
equal the level of the first group the engine committed it to, 0 if none.
"""

import sqlite3

import pytest

from conftest import first_match_levels
from flame_match.dataset import DatasetSchema, load_csv, split_holdout
from flame_match.engine import FlameConfig, run_flame
from flame_match.grouper import emit_sql
from test_golden import FAMILIES, GOLDEN, SPLIT_SEED


def _sql_levels(matching, run) -> list[int]:
    """``is_matched`` of each matching row after one emitted statement per committed level."""
    names = matching.covariate_names
    db = sqlite3.connect(":memory:")
    try:
        db.execute(f"CREATE TABLE D ({', '.join(f'{c} INTEGER' for c in names)}, T INTEGER, is_matched INTEGER)")
        rows = (
            (*codes, t, 0) for codes, t in zip(matching.covariates.tolist(), matching.treatment.tolist())
        )
        db.executemany(f"INSERT INTO D VALUES ({', '.join('?' * (len(names) + 2))})", rows)
        for lv in run.levels:
            db.execute(emit_sql([names[a] for a in lv.active], lv.level, "D"))
        return [level for (level,) in db.execute("SELECT is_matched FROM D ORDER BY rowid")]
    finally:
        db.close()


@pytest.mark.parametrize("family", FAMILIES)
def test_sql_replay_stamps_the_engine_levels(family):
    full = load_csv(str(GOLDEN / "inputs" / f"{family}.csv"), DatasetSchema("T", "Y", ()))
    matching, holdout = split_holdout(full, 0.1, SPLIT_SEED)
    run = run_flame(matching, holdout, FlameConfig(stop_on_pe_blowup=False))
    assert len(run.levels) > 2
    level_of = first_match_levels(run)
    assert _sql_levels(matching, run) == [level_of.get(uid, 0) for uid in matching.unit_ids.tolist()]
