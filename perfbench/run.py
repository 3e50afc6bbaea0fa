#!/usr/bin/env python3
"""hopfkit benchmark: closed-loop workloads over the public API.

    python3 perfbench/run.py --workload check_J --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-check

Run it from anywhere inside a hopfkit checkout; it imports hopfkit from
the checkout's `src/` and nothing else, and exits 2 without a result when
that source is missing. Each workload runs in this one process, on one
thread, one operation after another. Whole rounds of the same operations
are repeated until `--seconds` have passed, so the share of failed
operations is the same in every run. Every answer is checked, outside the
timed region, against the independent computations in `oracles.py`.

The last line of standard output is one JSON object: correct, attempted,
failed and metrics (end-to-end metrics with --trace 0, per-layer ones with
--trace 1). The line before it, `detail {...}`, breaks the round down by
kind of operation. A traced run makes exactly one round and writes its
spans under `.bench_traces/` in the checkout.
"""

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import random
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import inputs  # noqa: E402
import oracles  # noqa: E402
from speed import REFERENCE_S, SpeedProbe  # noqa: E402
from tracing import Tracer  # noqa: E402

SETUP_REPEATS = 7


class Op:
    """One timed call. check(result) -> problems; known_fault marks an
    operation the program is known to get wrong, counted failed."""

    def __init__(self, label, kind, call, check, known_fault=False):
        self.label = label
        self.kind = kind
        self.call = call
        self.check = check
        self.known_fault = known_fault


def run_cli(hk, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        rc = hk.cli.main(list(argv))
    return rc, out.getvalue()


def cli_ops(hk, specs):
    return [
        Op(spec.label, spec.kind, lambda spec=spec: run_cli(hk, spec.argv),
           lambda result, spec=spec: oracles.check_cli(spec, *result), spec.known_fault)
        for spec in specs
    ]


# ----- workloads --------------------------------------------------------------


class CliWorkload:
    """A fixed list of CLI commands (see oracles.check_j_specs and
    oracles.filtration_specs for what each exercises); takes no seeded input."""

    load_cases = ()

    def __init__(self, specs):
        self.specs = specs

    def build(self, hk):
        return None

    def ops(self, hk, state, round_no):
        return cli_ops(hk, self.specs)


class Straighten:
    """Load phase (parse, validate, psi search, confluence) over seeded
    texts, then a fresh seeded batch of words through normal_form, one
    word per operation and no word twice."""

    def __init__(self, seed):
        self.seed = seed
        with open(os.path.join(ROOT, "presentations", "L_heavy.hopf"), encoding="utf-8") as handle:
            l_heavy = handle.read()
        self.load_cases = inputs.load_cases(random.Random(seed), l_heavy)
        self.specs = ()
        by_label = {case.label: case for case in self.load_cases}
        self.word_cases = {label: by_label[label] for label, *_ in inputs.WORD_PLAN}

    def build(self, hk):
        return {label: hk.parse_presentation(case.text) for label, case in self.word_cases.items()}

    def ops(self, hk, presentations, round_no):
        ops = [Op(f"load {case.label}", "load", lambda case=case: load(hk, case.text),
                  lambda outcome, case=case: oracles.check_load(case, outcome), case.known_fault)
               for case in self.load_cases]
        rng = random.Random(self.seed * 1_000_003 + round_no)
        sizes = {label: case.data.size for label, case in self.word_cases.items()}
        for i, (label, word) in enumerate(inputs.word_batch(rng, sizes)):
            pres = presentations[label]
            check = self._word_check(label, word, sampled=(i % 4 == 0))
            ops.append(Op(f"nf {label}", "nf", lambda pres=pres, word=word: pres.normal_form({word: 1}).terms,
                          check))
        return ops

    def _word_check(self, label, word, sampled):
        data = self.word_cases[label].data
        if label == "qplane(3/2)":
            q = data.rels[(1, 0)][0]
            return lambda terms: oracles.check_nf(oracles.qplane_nf(q, word), terms)
        if sampled:
            return lambda terms: oracles.check_nf(oracles.Reference(data).exponents(word), terms)
        top = data.weight(word)

        def never_heavier(terms):
            heavy = [m for m in terms if sum(e * w for e, w in zip(m, data.weights)) > top]
            return [f"normal form outweighs its word: {heavy}"] if heavy else []

        return never_heavier


def load(hk, text):
    try:
        p = hk.parse_presentation(text)
    except hk.HopfkitError as err:
        return ("rejected", type(err).__name__)
    conf = p.confluence()
    return ("accepted", p.validation.classification, len(p.alphabet), conf.triples_checked, conf.ok,
            tuple(p.psi))


WORKLOADS = {
    "check_J": lambda seed: CliWorkload(oracles.check_j_specs()),
    "filtration": lambda seed: CliWorkload(oracles.filtration_specs()),
    "straighten": Straighten,
}


# ----- measurement --------------------------------------------------------------


def fresh_import():
    """Import hopfkit from the checkout's src/, discarding any earlier copy."""
    for name in [m for m in sys.modules if m == "hopfkit" or m.startswith("hopfkit.")]:
        del sys.modules[name]
    hk = importlib.import_module("hopfkit")
    importlib.import_module("hopfkit.cli")
    return hk


def set_up(workload, repeats, probe):
    """Import hopfkit and build the workload's state `repeats` times.

    Returns the median reference-speed and CPU seconds of one set-up, and
    the module and state of the last one.
    """
    scaled, cpu = [], []
    for _ in range(repeats):
        def once():
            hk = fresh_import()
            return hk, workload.build(hk)

        (hk, state), error, seconds, cpu_seconds, _ = probe.timed(once)
        if error:
            raise error
        scaled.append(seconds)
        cpu.append(cpu_seconds)
    return statistics.median(scaled), statistics.median(cpu), hk, state


def run_round(ops, probe, tracer, log):
    """Time each operation, then check it. Returns one row per operation:
    (kind, reference-speed seconds, CPU seconds, wall seconds, problems,
    known fault)."""
    done = []
    gc.collect()
    for op in ops:
        if op.kind != "nf":
            gc.collect()
        result, error, seconds, cpu, wall = probe.timed(tracer.around(op.kind, op.call) if tracer else op.call)
        problems = [f"raised {type(error).__name__}: {error}"] if error else op.check(result)
        for problem in problems:
            log(f"{op.label}: {problem}" + (" (known fault)" if op.known_fault else ""))
        done.append((op.kind, seconds, cpu, wall, problems, op.known_fault))
    return done


def kind_seconds(rounds, kinds=None, column=1):
    """Median over rounds of the seconds spent in operations of the given
    kinds, or in all of them: reference-speed (column 1), CPU (2) or wall (3)."""
    return statistics.median(sum(row[column] for row in done if kinds is None or row[0] in kinds)
                             for done in rounds)


def detail_for(name, rounds):
    if name == "check_J":
        return {"check_s": kind_seconds(rounds, {"check"}), "control_s": kind_seconds(rounds, {"control"})}
    if name == "filtration":
        return {f"{kind}_s": kind_seconds(rounds, {kind})
                for kind in ("coradical", "primitives", "signature", "truncate")}
    latencies = [row[1] * 1000 for done in rounds for row in done if row[0] == "nf"]
    cuts = statistics.quantiles(latencies, n=20, method="inclusive")
    return {"load_s": kind_seconds(rounds, {"load"}), "nf_p50_ms": statistics.median(latencies),
            "nf_p95_ms": cuts[18], "nf_samples": len(latencies)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true",
                        help="feed every oracle a right and a wrong answer, then exit")
    args = parser.parse_args(argv)

    if args.self_check:
        problems = oracles.self_check(
            oracles.check_j_specs() + oracles.filtration_specs(),
            Straighten(args.seed).load_cases)
        for problem in problems:
            print(problem)
        print("self-check: " + ("FAIL" if problems else "every wrong answer caught"))
        return 1 if problems else 0
    if args.workload is None:
        parser.error("--workload is required")
    if not os.path.isfile(os.path.join(SRC, "hopfkit", "__init__.py")):
        print(f"error: no hopfkit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    workload = WORKLOADS[args.workload](args.seed)
    log_lines = []

    def log(line):
        log_lines.append(line)
        print(line, file=sys.stderr)

    for problem in oracles.self_check(workload.specs, workload.load_cases):
        log(f"oracle self-check: {problem}")
    correct = not log_lines

    probe = SpeedProbe()
    if args.trace:
        setup_s, setup_cpu, hk, state = set_up(workload, 1, probe)
    else:
        with probe:
            setup_s, setup_cpu, hk, state = set_up(workload, SETUP_REPEATS, probe)
    if not os.path.abspath(hk.__file__).startswith(SRC + os.sep):
        print(f"error: hopfkit was imported from {hk.__file__}, not {SRC}", file=sys.stderr)
        return 2
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()

    rounds = []
    deadline = time.perf_counter() + args.seconds
    # the speed timer stays off in a traced run, whose figures are span
    # shares and counts, so that it adds nothing to the spans
    with contextlib.nullcontext() if tracer else probe:
        while True:
            rounds.append(run_round(workload.ops(hk, state, len(rounds)), probe, tracer, log))
            if tracer or time.perf_counter() >= deadline:
                break

    attempted = failed = 0
    for done in rounds:
        for *_, problems, known_fault in done:
            attempted += 1
            if problems:
                failed += 1
                correct = correct and known_fault
    detail = detail_for(args.workload, rounds)
    detail.update(rounds=len(rounds), round_cpu_s=kind_seconds(rounds, column=2),
                  round_wall_s=kind_seconds(rounds, column=3), setup_cpu_s=setup_cpu,
                  speed=statistics.median(REFERENCE_S / s for s in probe.samples))

    if tracer:
        seconds, counts = tracer.layer_metrics()
        wall = seconds.pop("traced.wall")
        metrics = {"traced.wall_s": {"value": wall, "unit": "s"}}
        for name, value in seconds.items():
            if name != "bench.self":
                metrics[name + "_pct"] = {"value": 100 * value / wall, "unit": "%"}
        for name, value in counts.items():
            metrics[name] = {"value": value, "unit": "count"}
        calls = counts["pbw.mono_product.calls"]
        reuse = 1 - counts["pbw.mono_product.distinct"] / calls if calls else 0.0
        metrics["pbw.mono_product.reuse"] = {"value": reuse, "unit": "ratio"}
        detail.update({name + "_s": value for name, value in seconds.items()})
        tracer.dump(os.path.join(ROOT, ".bench_traces"), args.workload)
    else:
        metrics = {
            "round_s": {"value": kind_seconds(rounds), "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "rss_peak_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
        }
    print("detail " + json.dumps(detail))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
