"""codegb benchmark: drive the public CLI in-process on seeded workloads.

    python3 perfbench/run.py --workload verify-wide --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the package is imported from its
src/ directory. Each item is one codegb.cli.main([...]) call with stdout
captured, made in a closed loop: one process, one thread, one item at a
time. A run makes complete passes over the workload's cases until the
given seconds have elapsed and at least MIN_PASSES passes are done; item
outputs are checked between items, outside the timed calls.

--trace 0 reports the end-to-end metrics. --trace 1 alternates untraced
and traced passes and reports the per-layer metrics of the traced passes
(per pass over the cases), plus the tracing overhead. A traced run of
verify-wide also verifies the slowest known instance (draw #172) once,
traced, and records its per-layer split.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics, named and with the units declared in BENCHMARK.json;
the line before it records the environment and the run.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import Aggregate, Tracer  # noqa: E402
from workloads import WORKLOADS, WORST_CODE, Case, check_verify  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
WORK_PARENT = ROOT / ".perfbench_work"

MIN_PASSES = 2
SETUP_REPS = 11
# The reference loop runs again whenever REF_EVERY_S has passed, and every
# time is scaled to a machine on which the loop takes REF_NOMINAL_S.
REF_EVERY_S = 0.05
REF_NOMINAL_S = 0.004
PERCENTILES = (50, 75, 90, 95, 99, 99.9)

class SetupError(Exception):
    """The checkout cannot be benchmarked (no package source to import)."""


# -- set-up -----------------------------------------------------------------


def import_codegb():
    """Import codegb afresh from the checkout's src/ and return its cli module."""
    if not (SRC / "codegb" / "cli.py").is_file():
        raise SetupError(f"no codegb package source under {SRC}")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "codegb" or m.startswith("codegb.")]:
        del sys.modules[name]
    import codegb.cli

    if Path(codegb.cli.__file__).resolve().parent != (SRC / "codegb").resolve():
        raise SetupError(f"codegb was imported from {codegb.cli.__file__}, not from {SRC}")
    return codegb.cli


def write_cases(cases: list[Case], work: Path) -> None:
    """Write one matrix file per distinct code and point each case at its file."""
    paths: dict = {}
    for case in cases:
        if case.code not in paths:
            path = work / f"code{len(paths):05d}.txt"
            path.write_text(case.code.text(), encoding="utf-8")
            paths[case.code] = str(path)
        case.path = paths[case.code]


def setup(workload: str, seed: int, work: Path, speed: Speed):
    """Import, generate the seeded cases and write their matrix files.

    Returns the set-up time, the cli module and the cases. The time is the
    process's CPU time, scaled to the nominal speed, so that waiting on a
    shared file system does not count. Every repetition writes the same
    files into the same directory: the first creates them, later ones
    overwrite them. Creating hundreds of small files costs kernel time that
    varies tenfold with the state of the file system, so the median over
    the repetitions, an overwrite, leaves that cost out.
    """
    gc.collect()
    factor = speed.factor()
    start = time.process_time()
    cli = import_codegb()
    cases = WORKLOADS[workload](seed)
    work.mkdir(exist_ok=True)
    write_cases(cases, work)
    return (time.process_time() - start) * factor, cli, cases


# -- machine speed ----------------------------------------------------------


def reference_loop() -> tuple:
    """Fixed pure-Python work shaped like sparse-polynomial arithmetic.

    Dict merges, a sort with a key function and tuple building: the same
    interpreter work codegb's kernel does, with no codegb code in it.
    """
    out: tuple = ()
    for r in range(15):
        acc: dict = {}
        for i in range(300):
            m = (i % 5, (i * 7) % 6, (i * 3 + r) % 4, i % 2)
            acc[m] = (acc.get(m, 0) + i * 7919) % 5
        ordered = sorted(acc.items(), key=lambda item: (-sum(item[0]), item[0]), reverse=True)
        out = tuple((c, tuple(e + 1 for e in m)) for m, c in ordered)
    return out


class Speed:
    """Tracks the machine's momentary speed with the reference loop.

    On shared machines the speed of one core drifts by tens of percent
    within a minute. Scaling each item by reference times measured at most
    REF_EVERY_S before and after it removes most of that drift from the
    metrics.
    """

    def __init__(self):
        self.samples: list[float] = []
        self._last = -math.inf

    def factor(self) -> float:
        """REF_NOMINAL_S over the latest reference time, refreshed when stale."""
        if time.perf_counter() - self._last >= REF_EVERY_S:
            start = time.perf_counter()
            reference_loop()
            self._last = time.perf_counter()
            self.samples.append(self._last - start)
        return REF_NOMINAL_S / self.samples[-1]


# -- the closed loop ----------------------------------------------------------


class Pass:
    """Times and check results of one complete pass over the cases."""

    def __init__(self):
        self.raw: list[float] = []  # seconds as measured
        self.times: list[float] = []  # seconds scaled to the nominal speed
        self.digests: list[bytes] = []
        self.errors: list[str] = []


def run_pass(cli, cases: list[Case], speed: Speed, tracer: Tracer | None = None, reference=None) -> Pass:
    """Run every item once, timing only the cli.main call.

    With reference (an earlier pass over the same cases), each item's
    stdout must also match the stdout recorded there.
    """
    result = Pass()
    clock = time.perf_counter
    for case in cases:
        outputs = []
        for argv in case.argvs():
            before = speed.factor()
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                start = clock()
                try:
                    rc = cli.main(argv)
                except Exception as exc:  # a crashing item is a failed item, not a failed run
                    rc = f"{type(exc).__name__}: {exc}"
                elapsed = clock() - start
            # a long item gets a fresh reference after it as well
            result.raw.append(elapsed)
            result.times.append(elapsed * (before + speed.factor()) / 2)
            if tracer is not None:
                tracer.fold()
            outputs.append((rc, out.getvalue()))
        for (rc, text), error in zip(outputs, case.check(case, outputs)):
            digest = hashlib.sha256(text.encode()).digest()
            if not error and reference is not None and reference.digests[len(result.digests)] != digest:
                error = "stdout differs between the traced and the untraced pass"
            result.digests.append(digest)
            result.errors.append(error)
    return result


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def tail_level(samples: int) -> float:
    """Highest percentile in PERCENTILES with at least ten samples beyond it."""
    return max(q for q in PERCENTILES if samples * (1 - q / 100) >= 10 or q == PERCENTILES[0])


def peak_rss_mib() -> float:
    """High-water mark of the whole process, interpreter and benchmark included."""
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def measure(cli, cases: list[Case], seconds: float, speed: Speed):
    passes: list[Pass] = []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
        passes.append(run_pass(cli, cases, speed))
    times = [t for p in passes for t in p.times]
    raw = [t for p in passes for t in p.raw]
    errors = [e for p in passes for e in p.errors]
    level = tail_level(sum(len(case.items) for case in cases) * MIN_PASSES)
    metrics = {
        "items_per_s": len(times) / sum(times),
        "item_p50_ms": statistics.median(times) * 1000,
        "item_tail_ms": percentile(times, level) * 1000,
        "peak_rss_mib": peak_rss_mib(),
    }
    info = {
        "passes": len(passes),
        "items": len(times),
        "tail_percentile": level,
        "raw_items_per_s": len(raw) / sum(raw),
        "raw_item_p50_ms": statistics.median(raw) * 1000,
        "raw_item_tail_ms": percentile(raw, level) * 1000,
    }
    return metrics, errors, info


# -- tracing ----------------------------------------------------------------


def install_tracer(tracer: Tracer) -> None:
    """Wrap the public functions of each codegb module at every binding."""
    from codegb import buchberger, cli, codes, division, gfp, monomials, mora, parsing, poly

    modules = [m for name, m in sys.modules.items() if name == "codegb" or name.startswith("codegb.")]

    def fn(module, attr, name, extra=None):
        tracer.wrap_function(modules, module, attr, name, extra)

    fn(cli, "main", "cli.main")
    fn(codes, "parse_matrix", "codes.parse_matrix")
    fn(codes, "closed_form_basis", "codes.closed_form_basis",
       lambda args, basis: (sum(len(f.terms) for f in basis),))
    fn(codes, "translated_generators", "codes.translated_generators")
    fn(codes, "lex_code_basis", "codes.lex_code_basis")
    fn(codes, "verify_closed_form", "codes.verify_closed_form")
    fn(division, "divide", "division.divide", lambda args, r: (not r.remainder,))
    fn(buchberger, "groebner", "buchberger.groebner")
    fn(buchberger, "reduce_basis", "buchberger.reduce_basis")
    fn(buchberger, "minimalize", "buchberger.minimalize")
    fn(buchberger, "product_criterion", "buchberger.product_criterion", lambda args, skip: (skip,))
    fn(mora, "weak_normal_form", "mora.weak_normal_form",
       lambda args, w: (not w.normal_form, w.recorded))
    fn(mora, "standard_basis", "mora.standard_basis")
    fn(mora, "is_standard_basis", "mora.is_standard_basis")
    fn(poly, "s_polynomial", "poly.s_polynomial")
    fn(parsing, "print_poly", "parsing.print_poly")
    tracer.count_function(modules, monomials, "divides", "monomials.divides")
    tracer.count_function(modules, monomials, "lcm", "monomials.lcm")

    size = lambda args, f: (len(f.terms),)  # noqa: E731
    for attr in ("__add__", "__radd__", "__sub__"):
        tracer.wrap_method(poly.Polynomial, attr, "poly.add_sub", size)
    for attr in ("__mul__", "__rmul__"):
        tracer.wrap_method(poly.Polynomial, attr, "poly.mul")
    tracer.wrap_method(poly.Polynomial, "mul_term", "poly.mul_term")
    tracer.wrap_method(gfp.PrimeField, "inv", "gfp.inv")
    tracer.wrap_method(gfp.PrimeField, "binom", "gfp.binom")
    # Ring.poly takes any iterable; count its terms on a materialized copy
    ring_poly = tracer.span_wrapper(poly.Ring.poly, "poly.ring_poly", lambda args, f: (len(args[1]),))
    tracer.patch(poly.Ring, "poly", lambda self, terms: ring_poly(self, list(terms)))


def layer_metrics(tracer: Tracer, passes: int) -> dict[str, float]:
    """Per-layer values per traced pass, named as in BENCHMARK.json's per_layer."""
    agg = tracer.aggregates
    empty = Aggregate()

    def calls(name):
        return agg.get(name, empty).calls

    def self_s(name):
        return agg.get(name, empty).self_s

    def total_s(name):
        return agg.get(name, empty).total_s

    def extra(name, i, how="sum"):
        a = agg.get(name, empty)
        values = a.extra_sum if how == "sum" else a.extra_max
        return values[i] if values else 0

    def under(name, parent):
        """[calls, sum of first extra] of name's spans directly inside parent."""
        return agg.get(name, empty).by_parent.get(parent, [0, 0])

    def frac(part, whole):
        return part / whole if whole else 0.0

    b_pairs = under("buchberger.product_criterion", "buchberger.groebner")
    m_pairs = under("buchberger.product_criterion", "mora.standard_basis")
    totals = {
        "poly.ring_poly.calls": calls("poly.ring_poly"),
        "poly.ring_poly.self_s": self_s("poly.ring_poly"),
        "poly.ring_poly.terms_in": extra("poly.ring_poly", 0),
        "poly.add_sub.calls": calls("poly.add_sub"),
        "poly.add_sub.self_s": self_s("poly.add_sub"),
        "poly.mul_term.calls": calls("poly.mul_term"),
        "poly.mul_term.self_s": self_s("poly.mul_term"),
        "mora.weak_normal_form.calls": calls("mora.weak_normal_form"),
        "mora.weak_normal_form.self_s": self_s("mora.weak_normal_form"),
        "mora.weak_normal_form.steps": under("gfp.inv", "mora.weak_normal_form")[0],
        "mora.weak_normal_form.recorded": extra("mora.weak_normal_form", 1),
        "mora.is_standard_basis.total_s": total_s("mora.is_standard_basis"),
        "poly.s_polynomial.calls": calls("poly.s_polynomial"),
        "poly.s_polynomial.self_s": self_s("poly.s_polynomial"),
        "buchberger.groebner.self_s": self_s("buchberger.groebner"),
        "buchberger.groebner.total_s": total_s("buchberger.groebner"),
        "buchberger.pairs": b_pairs[0],
        "buchberger.reduce_basis.total_s": total_s("buchberger.reduce_basis"),
        "monomials.lcm.calls": tracer.count("monomials.lcm"),
        "division.divide.calls": calls("division.divide"),
        "division.divide.self_s": self_s("division.divide"),
        "division.divide.steps": under("gfp.inv", "division.divide")[0],
        "monomials.divides.calls": tracer.count("monomials.divides"),
        "codes.closed_form_basis.self_s": self_s("codes.closed_form_basis"),
        "codes.closed_form_basis.terms_out": extra("codes.closed_form_basis", 0),
        "codes.translated_generators.self_s": self_s("codes.translated_generators"),
        "poly.mul.calls": calls("poly.mul"),
        "poly.mul.self_s": self_s("poly.mul"),
        "gfp.binom.calls": calls("gfp.binom"),
        "gfp.binom.self_s": self_s("gfp.binom"),
        "parsing.print_poly.calls": calls("parsing.print_poly"),
        "parsing.print_poly.self_s": self_s("parsing.print_poly"),
        "mora.standard_basis.total_s": total_s("mora.standard_basis"),
        "mora.pairs": m_pairs[0],
        "cli.main.self_s": self_s("cli.main"),
        "codes.parse_matrix.self_s": self_s("codes.parse_matrix"),
        "gfp.inv.calls": calls("gfp.inv"),
        "gfp.inv.self_s": self_s("gfp.inv"),
    }
    values = {name: value / passes for name, value in totals.items()}
    # ratios and maxima do not scale with the number of passes
    values["poly.add_sub.peak_terms"] = extra("poly.add_sub", 0, "max")
    values["mora.weak_normal_form.zero_frac"] = frac(
        extra("mora.weak_normal_form", 0), calls("mora.weak_normal_form")
    )
    values["buchberger.pairs_skipped_frac"] = frac(b_pairs[1], b_pairs[0])
    values["division.divide.zero_frac"] = frac(extra("division.divide", 0), calls("division.divide"))
    values["mora.pairs_skipped_frac"] = frac(m_pairs[1], m_pairs[0])
    return values


def traced_run(cli, cases: list[Case], seconds: float, speed: Speed):
    """Alternate untraced and traced passes; traced stdout must match untraced stdout."""
    tracer = Tracer()
    untraced: list[Pass] = []
    traced: list[Pass] = []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        untraced.append(run_pass(cli, cases, speed))
        install_tracer(tracer)
        try:
            traced.append(run_pass(cli, cases, speed, tracer, reference=untraced[-1]))
        finally:
            tracer.restore()
    values = layer_metrics(tracer, len(traced))
    rate_untraced = items_per_s(untraced)
    rate_traced = items_per_s(traced)
    values["trace.untraced_items_per_s"] = rate_untraced
    values["trace.traced_items_per_s"] = rate_traced
    values["trace.overhead_items_per_s"] = rate_untraced - rate_traced
    errors = [e for p in untraced + traced for e in p.errors]
    info = {
        "untraced_passes": len(untraced),
        "traced_passes": len(traced),
        "items": sum(len(p.times) for p in untraced + traced),
        "overhead_frac": 1 - rate_traced / rate_untraced,
    }
    return values, errors, info


def items_per_s(passes: list[Pass]) -> float:
    times = [t for p in passes for t in p.times]
    return len(times) / sum(times)


def worst_split(cli, work: Path, speed: Speed) -> tuple[dict, str]:
    """One traced verify of draw #172: its per-layer values and wall time, and its check."""
    case = Case(WORST_CODE, [["verify", "{file}"]], check_verify)
    write_cases([case], work)
    tracer = Tracer()
    install_tracer(tracer)
    try:
        result = run_pass(cli, [case], speed, tracer)
    finally:
        tracer.restore()
    split = {
        "code": WORST_CODE.text(),
        "traced_wall_s": result.raw[0],
        "correct": not result.errors[0],
        "layers": layer_metrics(tracer, 1),
    }
    return split, result.errors[0]


# -- environment ------------------------------------------------------------


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(speed: Speed) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": cpu_model(),
        "reference_loop_s": statistics.median(speed.samples),
        "reference_loop_samples": len(speed.samples),
    }


# -- entry point --------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    WORK_PARENT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_PARENT))
    try:
        speed = Speed()
        setup_s = []
        for rep in range(SETUP_REPS):
            seconds, cli, cases = setup(args.workload, args.seed, work / "cases", speed)
            setup_s.append(seconds)
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "cases": len(cases),
            "items_per_pass": sum(len(case.items) for case in cases),
            "setup_reps_s": setup_s,
        }
        if args.trace:
            metrics, errors, info = traced_run(cli, cases, args.seconds, speed)
            declared = spec["per_layer"]
            if args.workload == "verify-wide":
                record["worst"], error = worst_split(cli, work, speed)
                errors.append(error)
        else:
            metrics, errors, info = measure(cli, cases, args.seconds, speed)
            metrics["setup_s"] = statistics.median(setup_s)
            declared = spec["end_to_end"]
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_PARENT.rmdir()

    failed = sum(1 for e in errors if e)
    for message in sorted({e for e in errors if e})[:5]:
        print(f"check failed: {message}", file=sys.stderr)
    record.update(info)
    record["failed_frac"] = failed / len(errors)
    record["environment"] = environment(speed)
    print(json.dumps({"record": record}))
    result = {
        "correct": failed == 0,
        "attempted": len(errors),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
