"""Command-line surface: matching runs, bias enumeration, synthetic data, SQL emission.

Exit codes: 0 success, 1 usage error, 2 data error, 3 runtime failure. Every
nonzero exit writes a single diagnostic line to stderr. Subcommand handlers
import the heavy modules lazily so that light commands start fast. Match
reports and bias tables are written atomically (write to a temp file, then
rename); ``synth`` writes its CSV and sidecar with plain ``open``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

from .errors import FlameError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_RUNTIME = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _atomic_write(path: str, *pieces: str):
    """Write ``pieces`` to a temp file renamed onto ``path``, encoding one piece at a time, never a whole report."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=os.path.basename(path))
    # mkstemp makes the file owner-only; give it the mode open(path, "w") would
    umask = os.umask(0)
    os.umask(umask)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            os.fchmod(fh.fileno(), 0o666 & ~umask)
            fh.writelines(pieces)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _split_base(path: str) -> str:
    base, ext = os.path.splitext(path)
    return base if ext else path


def cmd_match(args):
    from .dataset import DatasetSchema, load_csv, split_holdout
    from .engine import (
        FlameConfig,
        estimate_ate,
        matchrun_levels_csv,
        matchrun_to_json,
        matchrun_units_csv,
        run_flame,
    )
    from .errors import NoEstimateError

    if (args.holdout is None) == (args.holdout_frac is None):
        raise UsageError("exactly one of --holdout and --holdout-frac is required")
    covariates = tuple(c for c in (args.covariates or "").split(",") if c)
    if args.covariates is not None and not covariates:
        raise UsageError("--covariates must name at least one column")
    schema = DatasetSchema(args.treatment, args.outcome, covariates)
    if args.holdout is not None:
        matching = load_csv(args.input, schema)
        encodings = dict(zip(matching.covariate_names, map(list, matching.encodings)))
        holdout = load_csv(args.holdout, schema, encodings=encodings)
    else:
        # no name holds the unsplit dataset, so its arrays are freed before the run
        matching, holdout = split_holdout(load_csv(args.input, schema), args.holdout_frac, args.seed)
    config = FlameConfig(
        c_param=args.c,
        epsilon=args.epsilon,
        replacement=args.replacement,
        backend=args.backend,
        stop_on_pe_blowup=not args.no_pe_stop,
        pe_blowup_mode=args.pe_mode,
        max_levels=args.max_levels,
        mq_drop_threshold=args.mq_drop_threshold,
        seed=args.seed,
    )
    run = run_flame(matching, holdout, config)
    if args.format == "json":
        written = [args.output]
        _atomic_write(args.output, *matchrun_to_json(run), "\n")
    else:
        base = _split_base(args.output)
        written = [f"{base}.units.csv", f"{base}.levels.csv"]
        _atomic_write(written[0], *matchrun_units_csv(run))
        _atomic_write(written[1], *matchrun_levels_csv(run))
    n_groups = sum(len(lv.table) for lv in run.levels)
    try:
        ate = f"{estimate_ate(run):.6g}"
    except NoEstimateError:
        ate = "n/a"
    print(
        f"levels={len(run.levels)} groups={n_groups} matched={run.n_matched}/{run.n_units} "
        f"ate={ate} stop={run.stop_reason.value}"
    )
    for path in written:
        print(f"wrote {path}")


def cmd_oracle_bias(args):
    from .oracle import bias_matrix, bias_matrix_to_json, format_bias_table

    bm = bias_matrix(args.p)
    print(format_bias_table(bm))
    if args.output:
        _atomic_write(args.output, bias_matrix_to_json(bm), "\n")
        print(f"wrote {args.output}")


def cmd_synth(args):
    from .synth import SynthSpec, generate, write_outputs

    spec = SynthSpec(
        model=args.model,
        n_control=args.n_control,
        n_treated=args.n_treated,
        u_coeff=args.u_coeff,
        seed=args.seed,
    )
    result = generate(spec)
    csv_path, sidecar = write_outputs(result, args.out)
    print(f"wrote {csv_path}")
    print(f"wrote {sidecar}")


def cmd_sql_emit(args):
    from .grouper import emit_sql

    covariates = [c for c in args.covariates.split(",") if c]
    if not covariates:
        raise UsageError("--covariates must name at least one column")
    print(emit_sql(covariates, args.level, args.table), end="")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="flame-match", description="Almost-exact matching engine for categorical causal inference")
    sub = parser.add_subparsers(dest="command", required=True)

    m = sub.add_parser("match", help="run the covariate-elimination matching loop on a CSV")
    m.add_argument("--input", required=True)
    m.add_argument("--holdout", help="separate holdout CSV (same columns; encoding reused)")
    m.add_argument("--holdout-frac", type=float, help="carve the holdout out of --input at this fraction")
    m.add_argument("--treatment", required=True)
    m.add_argument("--outcome", required=True)
    m.add_argument("--covariates", help="comma-separated covariate columns (default: all remaining)")
    m.add_argument("--c", type=float, default=0.001, help="balance/prediction trade-off (default 0.001)")
    m.add_argument("--epsilon", type=float, default=0.02, help="allowed prediction-error growth (default 0.02)")
    m.add_argument("--pe-mode", choices=["relative", "absolute"], default="relative")
    m.add_argument("--no-pe-stop", action="store_true", help="disable the prediction-error stopping rule")
    m.add_argument("--replacement", action="store_true")
    m.add_argument(
        "--backend",
        choices=["mixed_radix", "tuple_key"],
        default="mixed_radix",
        help="grouping that commits each level (trial drops always use the prefix/suffix ranks)",
    )
    m.add_argument("--max-levels", type=int)
    m.add_argument("--mq-drop-threshold", type=float)
    m.add_argument("--seed", type=int, default=0)
    m.add_argument("--output", default="matchrun.json")
    m.add_argument("--format", choices=["json", "csv"], default="json")
    m.set_defaults(func=cmd_match)

    o = sub.add_parser("oracle-bias", help="exact bias matrix of the idealized drop-order matcher")
    o.add_argument("--p", type=int, required=True, help="number of covariates")
    o.add_argument("--output")
    o.set_defaults(func=cmd_oracle_bias)

    s = sub.add_parser("synth", help="generate a synthetic benchmark dataset")
    s.add_argument("--model", required=True, choices=["quadratic", "irrelevant", "decay_exp", "decay_pow", "tradeoff"])
    s.add_argument("--n-control", type=int, required=True)
    s.add_argument("--n-treated", type=int, required=True)
    s.add_argument("--u-coeff", type=float)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out", required=True, help="output prefix; writes PREFIX.csv and PREFIX.coeffs.json")
    s.set_defaults(func=cmd_synth)

    q = sub.add_parser("sql-emit", help="print the grouping query (one CTE-prefixed UPDATE) for a covariate set")
    q.add_argument("--covariates", required=True, help="comma-separated column names")
    q.add_argument("--level", type=int, default=1)
    q.add_argument("--table", default="D")
    q.set_defaults(func=cmd_sql_emit)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        args.func(args)
        return EXIT_OK
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        # numpy's LinAlgError subclasses ValueError, but a numerical failure is
        # no usage error; numpy is already imported wherever one can be raised
        linalg = sys.modules.get("numpy.linalg")
        if linalg is not None and isinstance(exc, linalg.LinAlgError):
            print(f"runtime failure: {exc}", file=sys.stderr)
            return EXIT_RUNTIME
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FlameError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception as exc:  # pragma: no cover - defensive
        print(f"runtime failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
