"""One pipeline run in a fresh process, timed at the calls between layers.

Spawned by ``run.py``, one run at a time::

    python3 perfbench/child.py SIDECAR {plain|trace} match ARGS...   # flame_match.cli.main(ARGS)
    python3 perfbench/child.py SIDECAR {plain|trace} oracle P REPORT  # bias_matrix(P) to REPORT

Layers are timed from outside: before the pipeline starts, the public
functions one module calls in another are rebound to wrappers that record a
span (name, start, end, parent). ``plain`` wraps only the once-per-run
boundary (``run_flame`` or ``bias_matrix``); ``trace`` also wraps ingest,
split, every trial, commit and PE call, and the report writers. Spans and
the counts read off call arguments and results stay in memory and are
written to SIDECAR after the pipeline has returned, with this process's peak
RSS. A wrapped name that no longer exists is listed as missing instead of
failing the run.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

# CLOCK_MONOTONIC: the same clock in every process, so run.py can subtract
# its own spawn time from the spans recorded here.
clock = time.monotonic


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: dict[str, float] = {}
        self.missing: list[str] = []
        self._stack: list[int] = []

    def wrap(self, name: str, module_name: str, attr: str, count=None):
        """Rebind ``module_name.attr`` to a wrapper recording span ``name``.

        ``count(args, kwargs, result)`` returns counts to add; it runs after
        the span has closed.
        """
        module = importlib.import_module(module_name)
        fn = getattr(module, attr, None)
        if fn is None:
            self.missing.append(name)
            return
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = clock()
                stack.pop()
            if count is not None:
                self._add(name, count, args, kwargs, result)
            return result

        setattr(module, attr, wrapper)

    def _add(self, name, count, args, kwargs, result):
        try:
            found = count(args, kwargs, result)
        except (AttributeError, IndexError, KeyError, TypeError) as exc:
            # the call's signature or result changed shape: leave its counts
            # out (run.py reports them as missing) and keep the run going
            print(f"perfbench: no counts for {name}: {exc!r}", file=sys.stderr)
            return
        for key, value in found.items():
            self.counts[key] = self.counts.get(key, 0) + value


def _run_summary(args, kwargs, run):
    levels = run.levels
    # level k > 1 was committed after scoring one drop per covariate active at
    # level k - 1; the stop rules checked after scoring add the last level's
    candidates = sum(len(lv.active) for lv in levels[:-1])
    if run.stop_reason.value in ("pe_blowup", "mq_drop", "max_levels"):
        candidates += len(levels[-1].active)
    return {
        "engine.levels": len(levels),
        "engine.candidates": candidates,
        "engine.n_units": run.n_units,
        "engine.matched_units": run.n_matched,
        "engine.unmatched_units": len(run.unmatched_unit_ids),
    }


def _trial_rows(args, kwargs, result):
    considered = args[1] if len(args) > 1 else kwargs["considered"]
    return {"grouper.trial_rows": len(considered)}


def _committed_groups(args, kwargs, result):
    return {"grouper.groups": len(result.table.groups)}


def _loaded_rows(args, kwargs, result):
    return {"dataset.rows": result.n_units}


def _valid_allocations(args, kwargs, result):
    return {"oracle.valid": result.valid_count}


def run_match(tracer: Tracer, traced: bool, argv: list[str]) -> int:
    tracer.wrap("engine.run_flame", "flame_match.engine", "run_flame", _run_summary)
    if traced:
        tracer.wrap("dataset.load_csv", "flame_match.dataset", "load_csv", _loaded_rows)
        tracer.wrap("dataset.split", "flame_match.dataset", "split_holdout")
        tracer.wrap("grouper.trial", "flame_match.engine", "match_flags", _trial_rows)
        tracer.wrap("grouper.commit", "flame_match.engine", "basic_exact_match", _committed_groups)
        tracer.wrap("quality.pe", "flame_match.engine", "prediction_error")
        for writer in ("matchrun_to_json", "matchrun_units_csv", "matchrun_levels_csv"):
            tracer.wrap("engine.serialize", "flame_match.engine", writer)
    from flame_match.cli import main

    return main(argv)


def run_oracle(tracer: Tracer, p: int, report: str) -> int:
    tracer.wrap("oracle.bias_matrix", "flame_match.oracle", "bias_matrix", _valid_allocations)
    from flame_match import oracle

    text = oracle.bias_matrix_to_json(oracle.bias_matrix(p))
    with open(report, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    return 0


def peak_rss_mb() -> float | None:
    """This process's own peak RSS (``VmHWM``), counted from its exec.

    Not ``ru_maxrss``: on Linux, exec carries the spawning process's peak into
    the new image's ``ru_maxrss``, so a child of the benchmark harness would
    report the harness's memory whenever its own peak is lower.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0  # kB
    except OSError:
        pass
    return None


def main(argv: list[str]) -> int:
    sidecar, mode, kind, rest = argv[0], argv[1], argv[2], argv[3:]
    tracer = Tracer()
    if kind == "match":
        code = run_match(tracer, mode == "trace", rest)
    elif kind == "oracle":
        code = run_oracle(tracer, int(rest[0]), rest[1])
    else:
        raise SystemExit(f"unknown run kind {kind!r}")
    with open(sidecar, "w", encoding="utf-8") as fh:
        json.dump(
            {"spans": tracer.spans, "counts": tracer.counts, "missing": tracer.missing, "peak_rss_mb": peak_rss_mb()},
            fh,
        )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
