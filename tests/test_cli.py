import json

import jsonschema
import pytest

from flame_match.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, main

SCHEMA_DIR = "docs"


def _schema(name):
    with open(f"{SCHEMA_DIR}/{name}") as fh:
        return json.load(fh)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_match_table1(table1_csv, tmp_path, capsys):
    out_path = str(tmp_path / "run.json")
    code, out, err = run_cli(
        capsys,
        "match",
        "--input", table1_csv,
        "--holdout", table1_csv,
        "--treatment", "T",
        "--outcome", "Y",
        "--output", out_path,
    )
    assert code == EXIT_OK, err
    report = json.loads(open(out_path).read())
    lvl1 = report["levels"][0]
    assert len(lvl1["groups"]) == 1
    assert sorted(lvl1["groups"][0]["unit_ids"]) == [1, 3]
    assert report["n_matched"] == 2
    assert "groups=1" in out and "matched=2/4" in out
    jsonschema.validate(report, _schema("matchrun.schema.json"))


def test_match_missing_required_flag(table1_csv, capsys):
    code, _, err = run_cli(capsys, "match", "--input", table1_csv, "--outcome", "Y")
    assert code == EXIT_USAGE
    assert err.strip() and len(err.strip().splitlines()) == 1


def test_match_requires_exactly_one_holdout_source(table1_csv, capsys):
    code, _, err = run_cli(
        capsys, "match", "--input", table1_csv, "--treatment", "T", "--outcome", "Y"
    )
    assert code == EXIT_USAGE


def test_match_missing_file_is_data_error(tmp_path, capsys):
    code, _, err = run_cli(
        capsys,
        "match",
        "--input", str(tmp_path / "nope.csv"),
        "--holdout-frac", "0.5",
        "--treatment", "T",
        "--outcome", "Y",
    )
    assert code == EXIT_DATA
    assert len(err.strip().splitlines()) == 1


def test_match_deterministic_reports(tmp_path, capsys, write_csv):
    rows = [[i % 2, (i // 2) % 2, i % 2 ^ (i % 3 == 0), float(i)] for i in range(40)]
    path = write_csv("d.csv", ["a", "b", "T", "Y"], rows)
    out1, out2 = str(tmp_path / "r1.json"), str(tmp_path / "r2.json")
    for out_path in (out1, out2):
        code, _, _ = run_cli(
            capsys,
            "match",
            "--input", path,
            "--holdout-frac", "0.25",
            "--treatment", "T",
            "--outcome", "Y",
            "--seed", "7",
            "--output", out_path,
        )
        assert code == EXIT_OK
    assert open(out1, "rb").read() == open(out2, "rb").read()


def test_match_csv_format(table1_csv, tmp_path, capsys):
    base = str(tmp_path / "run")
    code, out, _ = run_cli(
        capsys,
        "match",
        "--input", table1_csv,
        "--holdout", table1_csv,
        "--treatment", "T",
        "--outcome", "Y",
        "--output", base,
        "--format", "csv",
    )
    assert code == EXIT_OK
    units = open(f"{base}.units.csv").read().strip().splitlines()
    assert units[0] == "unit_id,level,signature,cate"
    assert len(units) == 3
    levels = open(f"{base}.levels.csv").read().strip().splitlines()
    assert levels[0].startswith("level,n_active,pe,bf,mq")


def test_oracle_bias_p2(tmp_path, capsys):
    out_path = str(tmp_path / "bias.json")
    code, out, _ = run_cli(capsys, "oracle-bias", "--p", "2", "--output", out_path)
    assert code == EXIT_OK
    assert "valid allocations: 59" in out
    payload = json.loads(open(out_path).read())
    jsonschema.validate(payload, _schema("biasmatrix.schema.json"))
    assert payload["valid_count"] == 59


def test_oracle_bias_bad_p(capsys):
    code, _, err = run_cli(capsys, "oracle-bias", "--p", "7")
    assert code == EXIT_USAGE
    assert len(err.strip().splitlines()) == 1


def test_oracle_bias_p4_gated(capsys):
    code, _, err = run_cli(capsys, "oracle-bias", "--p", "4")
    assert code == EXIT_USAGE
    assert "force-heavy" in err


def test_synth_writes_files_and_is_deterministic(tmp_path, capsys):
    prefix1, prefix2 = str(tmp_path / "a"), str(tmp_path / "b")
    for prefix in (prefix1, prefix2):
        code, out, _ = run_cli(
            capsys,
            "synth",
            "--model", "decay_exp",
            "--n-control", "30",
            "--n-treated", "30",
            "--seed", "3",
            "--out", prefix,
        )
        assert code == EXIT_OK
        assert "wrote" in out
    assert open(f"{prefix1}.csv").read() == open(f"{prefix2}.csv").read()
    assert open(f"{prefix1}.coeffs.json").read() == open(f"{prefix2}.coeffs.json").read()


def test_synth_unknown_model(tmp_path, capsys):
    code, _, err = run_cli(
        capsys,
        "synth",
        "--model", "banana",
        "--n-control", "5",
        "--n-treated", "5",
        "--out", str(tmp_path / "x"),
    )
    assert code == EXIT_USAGE


def test_sql_emit_output(capsys):
    code, out, _ = run_cli(capsys, "sql-emit", "--covariates", "A,B", "--level", "1", "--table", "D")
    assert code == EXIT_OK
    assert "HAVING SUM(T) >= 1 AND SUM(T) <= COUNT(*)-1" in out
    assert "GROUP BY A, B" in out


def test_sql_emit_single_covariate_and_level(capsys):
    code, out, _ = run_cli(capsys, "sql-emit", "--covariates", "A", "--level", "5")
    assert code == EXIT_OK
    assert "SET is_matched = 5" in out
    assert "WHERE S.A = D.A)" in out


def test_sql_emit_empty_covariates(capsys):
    code, _, err = run_cli(capsys, "sql-emit", "--covariates", "", "--level", "1")
    assert code == EXIT_USAGE
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("bad", ["nan", "inf", "-Infinity"])
def test_match_non_finite_outcome_is_data_error(bad, tmp_path, capsys, write_csv):
    rows = [[i % 2, (i // 2) % 2, i % 2, float(i)] for i in range(60)]
    rows[41][3] = bad
    path = write_csv("nan.csv", ["a", "b", "T", "Y"], rows)
    out_path = tmp_path / "run.json"
    code, _, err = run_cli(
        capsys,
        "match",
        "--input", path,
        "--holdout-frac", "0.25",
        "--treatment", "T",
        "--outcome", "Y",
        "--output", str(out_path),
    )
    assert code == EXIT_DATA
    assert "row 42" in err and len(err.strip().splitlines()) == 1
    assert not out_path.exists()
