"""Byte-exact golden reports for ``flame-match match``.

Each case runs the CLI on a committed synthetic input and compares every
report file with the committed fixture byte for byte. The same case rerun on
the ``tuple_key`` backend must give the same bytes, apart from the
``config.backend`` value in the JSON report.

Regenerate the fixtures (only when a report change is intended)::

    PYTHONPATH=src python tests/test_golden.py
"""

import sys
from pathlib import Path

import pytest

from flame_match.cli import EXIT_OK, main

GOLDEN = Path(__file__).resolve().parent / "golden"
FAMILIES = ("quadratic", "irrelevant", "decay_exp", "decay_pow", "tradeoff")
SYNTH_SEED, SPLIT_SEED, ARM_SIZE = 3, 5, 100

# (family, format, extra match options): every family in both formats, and
# each format both with and without replacement and under both PE modes
CASES = [
    ("quadratic", "json", ["--pe-mode", "absolute", "--epsilon", "50"]),
    ("quadratic", "csv", ["--replacement", "--no-pe-stop"]),
    ("irrelevant", "json", ["--replacement", "--pe-mode", "relative"]),
    ("irrelevant", "csv", ["--pe-mode", "absolute", "--epsilon", "50"]),
    ("decay_exp", "json", ["--pe-mode", "absolute"]),
    ("decay_exp", "csv", ["--replacement", "--pe-mode", "relative", "--epsilon", "5"]),
    ("decay_pow", "json", ["--replacement", "--pe-mode", "absolute"]),
    ("decay_pow", "csv", ["--pe-mode", "relative"]),
    ("tradeoff", "json", ["--no-pe-stop"]),
    ("tradeoff", "csv", ["--replacement", "--pe-mode", "absolute", "--epsilon", "50"]),
]


def case_id(case) -> str:
    family, fmt, extra = case
    return "-".join([family, fmt, *(a.lstrip("-") for a in extra)])


def report_names(case) -> list[str]:
    name = case_id(case)
    return [f"{name}.json"] if case[1] == "json" else [f"{name}.units.csv", f"{name}.levels.csv"]


def run_case(case, out_dir: Path, backend: str = "mixed_radix") -> dict[str, bytes]:
    """Run one case through the CLI and return its report files by fixture name."""
    family, fmt, extra = case
    name = case_id(case)
    output = out_dir / (f"{name}.json" if fmt == "json" else name)
    argv = [
        "match",
        "--input", str(GOLDEN / "inputs" / f"{family}.csv"),
        "--holdout-frac", "0.1",
        "--seed", str(SPLIT_SEED),
        "--treatment", "T",
        "--outcome", "Y",
        "--backend", backend,
        "--format", fmt,
        "--output", str(output),
        *extra,
    ]
    if main(argv) != EXIT_OK:
        raise RuntimeError(f"match failed for case {name}")
    return {n: (out_dir / n).read_bytes() for n in report_names(case)}


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_golden_report_bytes(case, tmp_path, capsys):
    expected = {n: (GOLDEN / n).read_bytes() for n in report_names(case)}
    assert run_case(case, tmp_path) == expected
    ref = run_case(case, tmp_path, backend="tuple_key")
    capsys.readouterr()
    for n, blob in ref.items():
        if n.endswith(".json"):
            assert blob.count(b'"backend": "tuple_key"') == 1
            blob = blob.replace(b'"backend": "tuple_key"', b'"backend": "mixed_radix"')
        assert blob == expected[n], n


def regenerate():
    from flame_match.synth import SynthSpec, generate, write_outputs

    (GOLDEN / "inputs").mkdir(parents=True, exist_ok=True)
    for family in FAMILIES:
        result = generate(SynthSpec(family, ARM_SIZE, ARM_SIZE, seed=SYNTH_SEED))
        write_outputs(result, str(GOLDEN / "inputs" / family))
        (GOLDEN / "inputs" / f"{family}.coeffs.json").unlink()
    for case in CASES:
        run_case(case, GOLDEN)


if __name__ == "__main__":
    regenerate()
    sys.exit(0)
