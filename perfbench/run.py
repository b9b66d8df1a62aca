"""Benchmark of the flame-match pipeline and its bias oracle.

Run from the repository root::

    python3 perfbench/run.py --workload deep_decay --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0   # every workload
    python3 perfbench/run.py --workload all --smoke --seconds 0 --trace 1     # tiny sizes, seconds

The workload's inputs are generated from ``--seed`` with ``flame_match.synth``
before any timing. Then, in a closed loop with one client, each run of the
public pipeline (``flame-match match`` or ``bias_matrix`` plus its JSON) gets
a fresh child process (``child.py``), one at a time: an untimed warm-up run,
then runs until ``--seconds`` have passed and at least three were timed.
Every run's exit code and reports are checked; a failed run counts in
``failed`` and gives no samples. ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` alternates traced and untraced runs and reports the per-layer
metrics. Metric names and units come from ``BENCHMARK.json``; each value is
the median over the run's samples. The last line of standard output is one
JSON object; the full record (samples, quartiles, checks, provenance and
input hashes) goes to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"
WORK = ROOT / ".perfbench"
clock = time.monotonic  # the clock child.py stamps its spans with

HOLDOUT_FRAC = 0.1
ATE_TOLERANCE = 0.03  # |ATE - true effect| allowed on decay_exp
ORACLE_VALID = {1: 3, 2: 59, 3: 17931}
MIN_SAMPLES = 3
# per workload, counted from before its inputs are generated
LAST_START_S = 120  # no new run starts after this many seconds
DEADLINE_S = 170  # a run still going then is killed

UNITS_HEADER = "unit_id,level,signature,cate"
LEVELS_HEADER = "level,n_active,pe,bf,mq,n_groups,n_matched"


@dataclass(frozen=True)
class Workload:
    """One input set. ``size`` is units per arm, or ``p`` for the oracle."""

    name: str
    size: int
    smoke_size: int
    model: str | None = None  # synth family; None runs the bias oracle
    fmt: str = "json"
    flags: tuple[str, ...] = ()
    ate_check: bool = False


# Each stresses a different layer (why, per workload, is in BENCHMARK.json):
# deep_decay materialization, commits and the JSON writer; wide_irrelevant_repl
# trial key building with the full pool on every level; ingest_quadratic CSV
# ingest with no trials at all; oracle_p3 the only one that reaches the oracle.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("deep_decay", 25_000, 1_500, "decay_exp", ate_check=True),
        Workload("wide_irrelevant_repl", 30_000, 6_000, "irrelevant", "csv", ("--replacement",)),
        Workload("ingest_quadratic", 150_000, 3_000, "quadratic"),
        Workload("oracle_p3", 3, 2),
    )
}


@dataclass
class Sample:
    mode: str
    errors: list
    hashes: dict
    sizes: dict
    record: dict | None = None
    start: float = 0.0
    end: float = 0.0


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def spawn(args: list[str], log: Path, deadline: float) -> tuple[float, float, int]:
    """Run child.py to completion or ``deadline``; returns (start, end, exit code)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    argv = [sys.executable, str(CHILD), *args]
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, str(log), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_DUP2, 1, 2),
    ]
    start = clock()
    pid = os.posix_spawn(sys.executable, argv, env, file_actions=actions)

    def kill(signum=None, frame=None):
        with contextlib.suppress(ProcessLookupError):
            os.kill(pid, signal.SIGKILL)

    previous = signal.signal(signal.SIGALRM, kill)
    signal.alarm(max(1, math.ceil(deadline - clock())))
    try:
        _, status = os.waitpid(pid, 0)
        end = clock()
    except BaseException:  # interrupted: leave no child running
        kill()
        with contextlib.suppress(ChildProcessError):
            os.waitpid(pid, 0)
        raise
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    return start, end, os.waitstatus_to_exitcode(status)


class Bench:
    def __init__(self, wl: Workload, seed: int, smoke: bool, rundir: Path):
        self.wl = wl
        self.seed = seed
        self.size = wl.smoke_size if smoke else wl.size
        self.rundir = rundir
        self.inputs: dict[str, str] = {}
        self.csv_bytes = 0
        self.true_effect = None
        self.deadline = math.inf
        if wl.model is None:
            self.reports = [rundir / "report.json"]
            self.units = 4 ** (2**self.size)  # allocations enumerated
        elif wl.fmt == "json":
            self.reports = [rundir / "report.json"]
            self.units = 2 * self.size  # input rows
        else:
            self.reports = [rundir / "report.units.csv", rundir / "report.levels.csv"]
            self.units = 2 * self.size

    def make_inputs(self):
        if self.wl.model is None:
            return
        from flame_match.synth import SynthSpec, generate, write_outputs

        spec = SynthSpec(self.wl.model, self.size, self.size, seed=self.seed)
        csv_path, coeffs_path = write_outputs(generate(spec), str(self.rundir / "input"))
        self.csv = Path(csv_path)
        self.csv_bytes = self.csv.stat().st_size
        self.inputs = {p.name: sha256(p) for p in (self.csv, Path(coeffs_path))}
        with open(coeffs_path, encoding="utf-8") as fh:
            self.true_effect = json.load(fh).get("treatment_effect")

    def child_args(self, mode: str, sidecar: Path) -> list[str]:
        if self.wl.model is None:
            return [str(sidecar), mode, "oracle", str(self.size), str(self.reports[0])]
        output = self.rundir / ("report.json" if self.wl.fmt == "json" else "report")
        return [
            str(sidecar), mode, "match",
            "match", "--input", str(self.csv), "--holdout-frac", str(HOLDOUT_FRAC),
            "--treatment", "T", "--outcome", "Y", "--format", self.wl.fmt, "--output", str(output),
            *self.wl.flags,
        ]  # fmt: skip

    def run_once(self, mode: str) -> Sample:
        sidecar = self.rundir / "sidecar.json"
        log = self.rundir / "child.log"
        for path in (sidecar, *self.reports):
            path.unlink(missing_ok=True)
        start, end, code = spawn(self.child_args(mode, sidecar), log, self.deadline)
        sample = Sample(mode, [], {}, {}, start=start, end=end)
        if code != 0:
            tail = log.read_text(encoding="utf-8", errors="replace").strip().splitlines()[-3:]
            sample.errors.append(f"exit code {code}: {' | '.join(tail)}")
        try:
            with open(sidecar, encoding="utf-8") as fh:
                sample.record = json.load(fh)
        except (OSError, ValueError) as exc:
            sample.errors.append(f"no span record: {exc}")
        for path in self.reports:
            if path.exists():
                sample.hashes[path.name] = sha256(path)
                sample.sizes[path.name] = path.stat().st_size
            else:
                sample.errors.append(f"report {path.name} missing")
        return sample

    # ---- output checks -------------------------------------------------

    def check_reports(self, record: dict) -> list[str]:
        """Full check of one run's reports; later runs must match them byte for byte."""
        import jsonschema

        if self.wl.model is None:
            doc = json.loads(self.reports[0].read_text(encoding="utf-8"))
            errors = _schema_errors(jsonschema, doc, "biasmatrix.schema.json")
            expected = ORACLE_VALID[self.size]
            if doc.get("p") != self.size or doc.get("valid_count") != expected:
                errors.append(f"p={doc.get('p')} valid_count={doc.get('valid_count')}, expected {expected}")
            return errors

        rows = 2 * self.size
        expected_units = rows - int(HOLDOUT_FRAC * rows + 0.5)
        c = record["counts"]
        errors = []
        run = {k: c.get(f"engine.{k}") for k in ("n_units", "matched_units", "unmatched_units", "levels")}
        if None in run.values() or not (
            run["n_units"] == expected_units == run["matched_units"] + run["unmatched_units"]
        ):
            errors.append(f"run counts {run} do not add up to {expected_units} units")
        if self.wl.fmt == "json":
            doc = json.loads(self.reports[0].read_text(encoding="utf-8"))
            errors += _schema_errors(jsonschema, doc, "matchrun.schema.json")
            grouped = {u for lv in doc["levels"] for g in lv["groups"] for u in g["unit_ids"]}
            if doc["n_units"] != expected_units or doc["n_matched"] + len(doc["unmatched_unit_ids"]) != doc["n_units"]:
                errors.append("report: n_matched + unmatched != n_units")
            if len(grouped) != doc["n_matched"] or doc["n_matched"] != run["matched_units"]:
                errors.append(f"report: {len(grouped)} grouped units, n_matched {doc['n_matched']}")
            if self.wl.ate_check and not abs(doc["ate"] - self.true_effect) <= ATE_TOLERANCE:
                errors.append(f"ATE {doc['ate']} not within {ATE_TOLERANCE} of {self.true_effect}")
        else:
            units_lines = self.reports[0].read_text(encoding="utf-8").splitlines()
            levels_lines = self.reports[1].read_text(encoding="utf-8").splitlines()
            ids = [line.split(",", 1)[0] for line in units_lines[1:]]
            if units_lines[0] != UNITS_HEADER or len(ids) != run["matched_units"] or len(set(ids)) != len(ids):
                errors.append(f"units CSV: {len(ids)} rows for {run['matched_units']} matched units")
            if levels_lines[0] != LEVELS_HEADER or len(levels_lines) - 1 != run["levels"]:
                errors.append(f"levels CSV: {len(levels_lines) - 1} rows for {run['levels']} levels")
        return errors

    # ---- metrics -------------------------------------------------------

    def end_to_end(self, s: Sample) -> dict:
        top = _first_span(s.record, "oracle.bias_matrix" if self.wl.model is None else "engine.run_flame")
        wall = s.end - s.start
        m = {"wall_s": wall, "units_per_s": self.units / wall, "peak_rss_mb": s.record.get("peak_rss_mb")}
        if top is not None:
            m["setup_s"] = top[1] - s.start
            m["match_s"] = top[2] - top[1]
        return m

    def per_layer(self, s: Sample) -> dict:
        spans, counts, missing = s.record["spans"], s.record["counts"], set(s.record["missing"])

        def durations(name):
            return None if name in missing else [e - b for n, b, e, _ in spans if n == name]

        def total(name):
            d = durations(name)
            return None if d is None else sum(d)

        def calls(name):
            d = durations(name)
            return None if d is None else len(d)

        def count(key, span):
            # a layer that was never called did no work; one that was called
            # but yielded no count is missing
            n = calls(span)
            if n is None:
                return None
            return counts.get(key) if n else 0

        e2e = self.end_to_end(s)
        top = _first_span(s.record, "engine.run_flame")
        commits = durations("grouper.commit")
        candidates = count("engine.candidates", "engine.run_flame")
        levels = count("engine.levels", "engine.run_flame")
        trial_s, trial_rows = total("grouper.trial"), count("grouper.trial_rows", "grouper.trial")
        serialize_s = total("engine.serialize")
        allocations = self.units if self.wl.model is None else 0
        valid = count("oracle.valid", "oracle.bias_matrix")
        m = {
            "dataset.load_csv_s": total("dataset.load_csv"),
            "dataset.split_s": total("dataset.split"),
            "dataset.rows": count("dataset.rows", "dataset.load_csv"),
            "dataset.csv_bytes": self.csv_bytes,
            "grouper.trial_s": trial_s,
            "grouper.trial_calls": calls("grouper.trial"),
            "grouper.trial_rows": trial_rows,
            "grouper.trial_ns_per_row": _ratio(None if trial_s is None else trial_s * 1e9, trial_rows),
            "grouper.commit_s": None if commits is None else sum(commits),
            "grouper.level1_s": None if commits is None else (commits[0] if commits else 0.0),
            "grouper.commit_calls": calls("grouper.commit"),
            "grouper.groups": count("grouper.groups", "grouper.commit"),
            "quality.pe_s": total("quality.pe"),
            "quality.pe_calls": calls("quality.pe"),
            "quality.pe_per_candidate": _ratio(calls("quality.pe"), candidates),
            "engine.self_s": None if "engine.run_flame" in missing else 0.0,
            "engine.serialize_s": serialize_s,
            "engine.levels": levels,
            "engine.candidates": candidates,
            "engine.matched_units": count("engine.matched_units", "engine.run_flame"),
            "engine.report_bytes": 0 if self.wl.model is None else sum(s.sizes.values()),
            "engine.commits_per_candidate": _ratio(None if levels is None else max(levels - 1, 0), candidates),
            "oracle.bias_matrix_s": total("oracle.bias_matrix"),
            "oracle.allocations": allocations,
            "oracle.valid": valid,
            "oracle.valid_frac": _ratio(valid, allocations),
        }
        if top is not None:
            idx = spans.index(top)
            m["engine.self_s"] = (top[2] - top[1]) - sum(e - b for _, b, e, parent in spans if parent == idx)
        if None not in (e2e.get("setup_s"), e2e.get("match_s"), serialize_s):
            m["cli.residual_s"] = e2e["wall_s"] - e2e["setup_s"] - e2e["match_s"] - serialize_s
        return m

    def run(self, seconds: float, trace: bool, min_samples: int) -> dict:
        begun = clock()
        self.deadline = begun + DEADLINE_S
        self.make_inputs()
        warmup = self.run_once("plain")  # fills the page and bytecode caches; never timed
        errors = list(warmup.errors)
        if not errors:
            try:
                errors = self.check_reports(warmup.record)
            except (KeyError, TypeError, ValueError) as exc:  # a report or count of the wrong shape
                errors = [f"malformed report or run counts: {exc!r}"]
        samples = [warmup]
        failed = int(bool(errors))
        modes = ("trace", "plain") if trace else ("plain",)
        timed = {mode: [] for mode in modes}
        started = clock()
        # timing stops at the first failed run; a failed warm-up means none
        while not failed and clock() - begun < LAST_START_S:
            if clock() - started >= seconds and len(samples) > min_samples * len(modes):
                break
            s = self.run_once(modes[(len(samples) - 1) % len(modes)])
            if not s.errors and s.hashes != warmup.hashes:
                s.errors.append("report bytes differ from the first run of this seed")
            samples.append(s)
            if s.errors:
                failed += 1
                errors += s.errors
            else:
                timed[s.mode].append(s)

        plain = [self.end_to_end(s) for s in timed.get("plain", [])]
        result = {"end_to_end": _collect(plain)}
        if trace:
            layers = [self.per_layer(s) for s in timed["trace"]]
            traced_wall = [self.end_to_end(s)["wall_s"] for s in timed["trace"]]
            if traced_wall and plain:
                overhead = statistics.median(traced_wall) - statistics.median(m["wall_s"] for m in plain)
                for m in layers:
                    m["trace.overhead_s"] = overhead
            result["per_layer"] = _collect(layers)
        result.update(
            attempted=len(samples),
            failed=failed,
            errors=errors,
            size=self.size,
            inputs=self.inputs,
            report_sha256=warmup.hashes,
            # the child's peak_rss_mb must not depend on this process's memory
            harness_peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        )
        return result


def _schema_errors(jsonschema, doc: dict, schema_name: str) -> list[str]:
    with open(ROOT / "docs" / schema_name, encoding="utf-8") as fh:
        validator = jsonschema.Draft7Validator(json.load(fh))
    return [f"{schema_name}: {e.message[:200]}" for e in validator.iter_errors(doc)][:5]


def _first_span(record: dict | None, name: str):
    if record is None:
        return None
    return next((s for s in record["spans"] if s[0] == name), None)


def _ratio(num, den):
    if num is None or den is None:
        return None
    return num / den if den else 0.0


def _collect(samples: list[dict]) -> dict:
    """Per metric: median, quartiles and sample count over the samples that have it."""
    names = {k for m in samples for k, v in m.items() if v is not None}
    out = {}
    for name in sorted(names):
        values = [m[name] for m in samples if m.get(name) is not None]
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
        out[name] = {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values), "samples": values}
    return out


def provenance(seed: int) -> dict:
    import numpy

    # without the program there is nothing to measure: fail here, before any result
    import flame_match  # noqa: F401

    try:
        from flame_match import _kernels

        kernel_mode = _kernels.kernel_mode()
    except (ImportError, AttributeError):
        kernel_mode = None
    sha = None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30)
        if out.returncode == 0:
            sha = out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel_mode": kernel_mode,
        "nproc": os.cpu_count(),
        "seed": seed,
    }


def load_metric_specs() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs and one timed run of each kind")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    specs = load_metric_specs()
    kind = "per_layer" if args.trace else "end_to_end"
    names = [*WORKLOADS] if args.workload == "all" else [args.workload]
    prov = provenance(args.seed)

    attempted = failed = 0
    metrics = {}
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    for name in names:
        rundir = WORK / f"run-{os.getpid()}-{name}"
        shutil.rmtree(rundir, ignore_errors=True)
        rundir.mkdir(parents=True)
        try:
            result = Bench(WORKLOADS[name], args.seed, args.smoke, rundir).run(
                args.seconds, bool(args.trace), 1 if args.smoke else MIN_SAMPLES
            )
        finally:
            shutil.rmtree(rundir, ignore_errors=True)
        result["provenance"] = prov
        label = f"{name}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
        with open(WORK / "results" / f"{label}.json", "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=1)

        attempted += result["attempted"]
        failed += result["failed"]
        measured = result.get(kind, {})
        prefix = f"{name}/" if len(names) > 1 else ""
        for metric, unit in specs[kind].items():
            stats = measured.get(metric)
            if stats is None:
                print(f"{name:22} {metric:30} missing", file=sys.stderr)
                continue
            metrics[prefix + metric] = {"value": stats["median"], "unit": unit}
            print(
                f"{name:22} {metric:30} {stats['median']:>14.6g} {unit:6} "
                f"median of {stats['n']}, q1 {stats['q1']:.6g}, q3 {stats['q3']:.6g}"
            )
        n_failed, n_attempted = result["failed"], result["attempted"]
        rate = n_failed / n_attempted
        print(f"{name:22} {'error_rate':30} {rate:>14.6g} {'ratio':6} {n_failed} of {n_attempted} runs failed")
        for error in result["errors"][:5]:
            print(f"{name:22} check failed: {error}", file=sys.stderr)

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
