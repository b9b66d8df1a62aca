import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

import numpy as np

import flame_match.engine as engine_mod
from flame_match.cli import EXIT_DATA, EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, _atomic_write, main

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
    report = json.loads(Path(out_path).read_text())
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


def test_match_repeated_header_name_is_data_error(tmp_path, capsys, write_csv):
    rows = [[i % 2, (i // 2) % 2, i % 2, float(i)] for i in range(40)]
    path = write_csv("dup.csv", ["a", "a", "T", "Y"], rows)
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
    assert "'a'" in err and len(err.strip().splitlines()) == 1
    assert not out_path.exists()


@pytest.mark.parametrize("covariates", ["a,a", "a,,a"])
def test_match_repeated_covariate_is_data_error(covariates, tmp_path, capsys, write_csv):
    rows = [[i % 2, (i // 2) % 2, i % 2, float(i)] for i in range(40)]
    path = write_csv("rep.csv", ["a", "b", "T", "Y"], rows)
    out_path = tmp_path / "run.json"
    code, _, err = run_cli(
        capsys,
        "match",
        "--input", path,
        "--holdout-frac", "0.25",
        "--treatment", "T",
        "--outcome", "Y",
        "--covariates", covariates,
        "--output", str(out_path),
    )
    assert code == EXIT_DATA
    assert "'a' is listed more than once" in err and len(err.strip().splitlines()) == 1
    assert not out_path.exists()


@pytest.mark.parametrize("covariates", ["", ",,"])
def test_match_covariates_naming_no_column_is_usage_error(covariates, tmp_path, capsys, write_csv):
    # an empty --covariates once ran on every column; sql-emit rejects it alike
    rows = [[i % 2, (i // 2) % 2, i % 2, float(i)] for i in range(40)]
    path = write_csv("none.csv", ["a", "b", "T", "Y"], rows)
    out_path = tmp_path / "run.json"
    code, out, err = run_cli(
        capsys,
        "match",
        "--input", path,
        "--holdout-frac", "0.25",
        "--treatment", "T",
        "--outcome", "Y",
        "--covariates", covariates,
        "--output", str(out_path),
    )
    assert code == EXIT_USAGE and out == ""
    assert err == "usage error: --covariates must name at least one column\n"
    assert not out_path.exists()


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
    assert Path(out1).read_bytes() == Path(out2).read_bytes()


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
    units = Path(f"{base}.units.csv").read_text().strip().splitlines()
    assert units[0] == "unit_id,level,signature,cate"
    assert len(units) == 3
    levels = Path(f"{base}.levels.csv").read_text().strip().splitlines()
    assert levels[0].startswith("level,n_active,pe,bf,mq")


def test_oracle_bias_p2(tmp_path, capsys):
    out_path = str(tmp_path / "bias.json")
    code, out, _ = run_cli(capsys, "oracle-bias", "--p", "2", "--output", out_path)
    assert code == EXIT_OK
    assert "valid allocations: 59" in out
    payload = json.loads(Path(out_path).read_text())
    jsonschema.validate(payload, _schema("biasmatrix.schema.json"))
    assert payload["valid_count"] == 59


@pytest.mark.parametrize("p", ["0", "4", "7"])
def test_oracle_bias_bad_p(capsys, p):
    code, _, err = run_cli(capsys, "oracle-bias", "--p", p)
    assert code == EXIT_USAGE
    assert len(err.strip().splitlines()) == 1


def test_oracle_bias_does_not_import_numpy():
    # the oracle is pure-Python exact arithmetic; importing numpy on this path
    # would nearly double its peak RSS (VmHWM about 18 against 31 MB for p = 3)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    script = (
        "import sys\n"
        "from flame_match.cli import main\n"
        "code = main(['oracle-bias', '--p', '1'])\n"
        "print(code, 'numpy' in sys.modules)\n"
    )
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    assert "valid allocations: 3" in done.stdout
    assert done.stdout.splitlines()[-1] == f"{EXIT_OK} False"


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
    assert Path(f"{prefix1}.csv").read_text() == Path(f"{prefix2}.csv").read_text()
    assert Path(f"{prefix1}.coeffs.json").read_text() == Path(f"{prefix2}.coeffs.json").read_text()


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


@pytest.mark.parametrize(
    "flag, value",
    [("--covariates", "a--"), ("--covariates", "T"), ("--table", "S"), ("--covariates", "a,a"), ("--covariates", "A,b,a")],
)
def test_sql_emit_bad_identifier_is_usage_error(flag, value, capsys):
    args = {"--covariates": "A", "--table": "D", flag: value}
    code, out, err = run_cli(capsys, "sql-emit", "--level", "1", *(x for kv in args.items() for x in kv))
    assert code == EXIT_USAGE
    assert out == "" and err.startswith("usage error:") and len(err.strip().splitlines()) == 1


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


def test_match_numerical_failure_is_runtime_error(table1_csv, tmp_path, monkeypatch, capsys):
    # LinAlgError subclasses ValueError; it must not be reported as a usage error
    def singular(holdout, active):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(engine_mod, "prediction_error", singular)
    code, _, err = run_cli(
        capsys,
        "match",
        "--input", table1_csv,
        "--holdout", table1_csv,
        "--treatment", "T",
        "--outcome", "Y",
        "--output", str(tmp_path / "run.json"),
    )
    assert code == EXIT_RUNTIME
    assert err.startswith("runtime failure:") and "Singular matrix" in err
    assert len(err.strip().splitlines()) == 1


def test_match_defaults_are_the_config_defaults(table1_csv, tmp_path, monkeypatch, capsys):
    # the parser spells out --c and --epsilon a second time; a run given no option must get FlameConfig()
    configs = []
    run_flame = engine_mod.run_flame
    monkeypatch.setattr(engine_mod, "run_flame", lambda m, h, config: configs.append(config) or run_flame(m, h, config))
    code, _, err = run_cli(
        capsys,
        "match",
        "--input", table1_csv,
        "--holdout", table1_csv,
        "--treatment", "T",
        "--outcome", "Y",
        "--output", str(tmp_path / "run.json"),
    )
    assert code == EXIT_OK, err
    assert configs == [engine_mod.FlameConfig()]


def test_match_too_few_units_to_split_is_data_error(tmp_path, capsys, write_csv):
    path = write_csv("header-only.csv", ["a", "T", "Y"], [])
    code, _, err = run_cli(
        capsys,
        "match",
        "--input", path,
        "--holdout-frac", "0.5",
        "--treatment", "T",
        "--outcome", "Y",
        "--output", str(tmp_path / "run.json"),
    )
    assert code == EXIT_DATA
    assert "need at least 2 units" in err and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--c", "nan"),
        ("--c", "inf"),
        ("--epsilon", "inf"),
        ("--epsilon", "nan"),
        ("--mq-drop-threshold", "nan"),
        ("--mq-drop-threshold", "-inf"),
    ],
)
def test_match_non_finite_option_is_usage_error(flag, value, table1_csv, tmp_path, capsys):
    # a NaN or infinite knob would be written into the JSON report as bare NaN/Infinity
    out_path = tmp_path / "run.json"
    code, _, err = run_cli(
        capsys,
        "match",
        "--input", table1_csv,
        "--holdout", table1_csv,
        "--treatment", "T",
        "--outcome", "Y",
        f"{flag}={value}",
        "--output", str(out_path),
    )
    assert code == EXIT_USAGE
    assert "must be finite" in err and len(err.strip().splitlines()) == 1
    assert not out_path.exists()


@pytest.mark.parametrize("umask", [0o022, 0o077])
def test_reports_get_the_mode_open_would_give(umask, tmp_path, capsys):
    report, data = tmp_path / "bias.json", tmp_path / "d"
    old = os.umask(umask)
    try:
        assert run_cli(capsys, "oracle-bias", "--p", "1", "--output", str(report))[0] == EXIT_OK
        args = ("--model", "decay_exp", "--n-control", "5", "--n-treated", "5", "--out", str(data))
        assert run_cli(capsys, "synth", *args)[0] == EXIT_OK
    finally:
        os.umask(old)
    assert report.stat().st_mode & 0o777 == 0o666 & ~umask
    assert Path(f"{data}.csv").stat().st_mode & 0o777 == 0o666 & ~umask


def test_atomic_write_failure_leaves_target_untouched(tmp_path):
    target = tmp_path / "report.json"
    target.write_text("old")
    with pytest.raises(UnicodeEncodeError):
        _atomic_write(str(target), "new \ud800")  # a lone surrogate has no UTF-8 form
    assert target.read_text() == "old"
    assert os.listdir(tmp_path) == ["report.json"]


@pytest.mark.parametrize("text", ["ascii", "é€𝔽"])
def test_atomic_write_joins_its_pieces(tmp_path, text):
    # the pieces, one over 3 MiB and one empty, reach the file joined in order, non-ASCII text included
    pieces = [text * (3 * (1 << 20) // len(text) + 1), "\n", "", text]
    target = tmp_path / "report.json"
    _atomic_write(str(target), *pieces)
    assert target.read_bytes() == "".join(pieces).encode("utf-8")
    assert os.listdir(tmp_path) == ["report.json"]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_synth_non_finite_u_coeff_is_usage_error(value, tmp_path, capsys):
    prefix = tmp_path / "x"
    code, _, err = run_cli(
        capsys,
        "synth",
        "--model", "quadratic",
        "--n-control", "5",
        "--n-treated", "5",
        f"--u-coeff={value}",
        "--out", str(prefix),
    )
    assert code == EXIT_USAGE
    assert "u_coeff must be finite" in err and len(err.strip().splitlines()) == 1
    assert os.listdir(tmp_path) == []
