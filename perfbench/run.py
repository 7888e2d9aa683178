"""Closed-loop benchmark of the freecurves library and CLI.

    python3 perfbench/run.py --workload nodal-rank --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  One client in one process sends the workload's seeded requests
one after another, each as soon as the previous one returned, in whole
passes over the request list until ``--seconds`` have elapsed and at least
``MIN_PASSES`` passes are done.  A request's latency is its fastest time
over the passes.  Every output is checked.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  A
results file with the environment (and, when traced, the spans) is written
to ``perfbench/results/``.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from fractions import Fraction
from math import ceil, floor, prod
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
LAYERS = ("cli", "modelio", "splitting", "nodal", "stability", "variety", "counting")
SETUP_REPEATS = 7
# Each request's latency is its fastest time over the passes, which
# filters the load other processes put on a shared machine.
MIN_PASSES = 40
REFERENCE_FILE = HERE / "reference.json"

import tracer  # noqa: E402  (sibling modules of this script)
import workloads  # noqa: E402


class MissingProgram(Exception):
    pass


class StaleReference(Exception):
    pass


def import_library() -> SimpleNamespace:
    """Import the package from ``src/`` afresh, dropping any earlier import."""
    if not (SRC / "freecurves" / "__init__.py").is_file():
        raise MissingProgram(f"no package source at {SRC / 'freecurves'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "freecurves" or n.startswith("freecurves.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    package = importlib.import_module("freecurves")
    if Path(package.__file__).resolve().parent != SRC / "freecurves":
        raise MissingProgram(f"freecurves imported from {package.__file__}, not {SRC}")
    mods = {layer: importlib.import_module(f"freecurves.{layer}") for layer in LAYERS}
    return SimpleNamespace(package=package, **mods)


def setup(workload: str, seed: int):
    """Import, fixture loading, input generation and warm-up."""
    lib = import_library()
    requests, warm = workloads.build(workload, lib, seed)
    for req in warm:
        req.call()
    return lib, requests


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


class Verifier:
    """Runs the oracle on the first output of each request, and compares its
    digest with the reference digest when given.  Every later output of the
    same request must equal the first one."""

    def __init__(self, requests, reference: list[str] | None) -> None:
        self.requests = requests
        self.reference = reference
        self.digests: list[str | None] = [None] * len(requests)
        self.first: list[object] = [None] * len(requests)
        self.bad = [False] * len(requests)
        self.errors: list[str] = []

    def __call__(self, i: int, out) -> bool:
        req = self.requests[i]
        if self.digests[i] is None:
            d = digest(req.render(out))
            msg = req.check(out)
            if msg is None and self.reference is not None and self.reference[i] != d:
                msg = "output differs from the recorded reference"
            self.digests[i] = d
            self.first[i] = out
            if msg is not None:
                self.bad[i] = True
                self.errors.append(f"request {i} ({req.kind}, size {req.size}): {msg}")
        elif out != self.first[i]:
            self.bad[i] = True
            self.errors.append(f"request {i} ({req.kind}): output changed between passes")
        return not self.bad[i]


def run_pass(requests, verify) -> tuple[list[float], int]:
    """One pass over the request list: latency of each request in order,
    and the number of failures."""
    latencies = []
    failed = 0
    for i, req in enumerate(requests):
        t0 = time.perf_counter()
        try:
            out = req.call()
        except Exception as exc:  # a failed request is counted, not fatal
            latencies.append(time.perf_counter() - t0)
            verify.bad[i] = True
            verify.errors.append(f"request {i} ({req.kind}): {type(exc).__name__}: {exc}")
            failed += 1
            continue
        latencies.append(time.perf_counter() - t0)
        if not verify(i, out):
            failed += 1
        del out
    return latencies, failed


def closed_loop(requests, verify, seconds: float):
    """Whole passes until ``seconds`` of wall time have elapsed, and at
    least MIN_PASSES passes."""
    passes: list[list[float]] = []
    failed = 0
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
        latencies, n_failed = run_pass(requests, verify)
        passes.append(latencies)
        failed += n_failed
    return passes, failed, time.perf_counter() - start


def git_commit() -> str:
    """Commit of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: ") :]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "seed": seed,
        "git_commit": git_commit(),
    }


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(per_request, setup_times, failed: int, attempted: int) -> dict:
    p90 = statistics.quantiles(per_request, n=10, method="inclusive")[8]
    return {
        "ops_per_s": metric(len(per_request) / sum(per_request), "op/s"),
        "op_p50_ms": metric(statistics.median(per_request) * 1000, "ms"),
        "op_p90_ms": metric(p90 * 1000, "ms"),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"
        ),
        "setup_s": metric(statistics.median(setup_times), "s"),
        "failed_frac": metric(failed / attempted, "ratio"),
    }


def _box_points(lib, model, bound: int) -> int:
    """Size of the box ``lattice_slice`` scans, from the public cone_rays."""
    rays = lib.variety.cone_rays(model.nef_facets, model.rho)
    sides = []
    for i in range(model.rho):
        coords = [Fraction(0)] + [
            Fraction(bound) * ray[i] / lib.variety.dot(model.minus_k, ray) for ray in rays
        ]
        sides.append(ceil(max(coords)) - floor(min(coords)) + 1)
    return prod(sides)


def traced_pass(lib, requests, verify) -> tuple[list[float], int, tracer.Tracer, dict]:
    """One pass with tracing on; returns its latencies, failures, the
    tracer and the output counts gathered by the hooks."""
    smoothings_out = []
    slices = []
    hooks = {
        "nodal.admissible_smoothings": lambda args, out: smoothings_out.append(len(out)),
        "counting.lattice_slice": lambda args, out: slices.append((args[0], args[1], len(out))),
    }
    tr = tracer.Tracer()
    tr.install(lib.package, {layer: getattr(lib, layer) for layer in LAYERS}, hooks)
    try:
        latencies, failed = run_pass(requests, verify)
    finally:
        tr.uninstall()
    # box sizes are recomputed after the pass, so they cost the trace nothing
    box = sum(_box_points(lib, model, bound) for model, bound, _ in slices)
    counts = {
        "types_out": sum(smoothings_out),
        "box_points": box,
        "kept": sum(n for _, _, n in slices),
    }
    return latencies, failed, tr, counts


def per_layer(tr: tracer.Tracer, counts: dict, overhead: float) -> dict:
    stats = tr.all_stats()

    def get(name: str, field: int):
        return stats.get(name, [0, 0.0, 0.0])[field]

    calls = lambda name: metric(int(get(name, 0)), "count")  # noqa: E731
    total = lambda name: metric(get(name, 1), "s")  # noqa: E731
    self_s = lambda name: metric(get(name, 2), "s")  # noqa: E731
    box = counts["box_points"]
    kept = counts["kept"]
    splitting_self = sum(v[2] for k, v in stats.items() if k.startswith("splitting."))
    return {
        "nodal.degbd.calls": calls("nodal.degbd"),
        "nodal.degbd.total_s": total("nodal.degbd"),
        "nodal.admissible_smoothings.calls": calls("nodal.admissible_smoothings"),
        "nodal.admissible_smoothings.self_s": self_s("nodal.admissible_smoothings"),
        "nodal.admissible_smoothings.types_out": metric(counts["types_out"], "count"),
        "nodal.sharpness_witness.total_s": total("nodal.sharpness_witness"),
        "stability.balance.calls": calls("stability.balance"),
        "stability.balance_step.calls": calls("stability.balance_step"),
        "stability.balance.self_s": self_s("stability.balance"),
        "variety.esp.calls": calls("variety.esp"),
        "variety.esp.self_s": self_s("variety.esp"),
        "variety.liberated_lower_bound.calls": calls("variety.liberated_lower_bound"),
        "variety.in_nef.calls": calls("variety.in_nef"),
        "variety.in_nef.total_s": total("variety.in_nef"),
        "variety.cone_rays.calls": calls("variety.cone_rays"),
        "variety.cone_rays.total_s": total("variety.cone_rays"),
        "counting.lattice_slice.calls": calls("counting.lattice_slice"),
        "counting.lattice_slice.self_s": self_s("counting.lattice_slice"),
        "counting.slice.box_points": metric(box, "count"),
        "counting.slice.kept": metric(kept, "count"),
        "counting.slice.kept_ratio": metric(kept / box if box else 0.0, "ratio"),
        "counting.xi_value.calls": calls("counting.xi_value"),
        "counting.eps_admits.calls": calls("counting.eps_admits"),
        "counting.eps_admits.total_s": total("counting.eps_admits"),
        "counting.ratio_check.self_s": self_s("counting.ratio_check"),
        "modelio.load_model_file.calls": calls("modelio.load_model_file"),
        "modelio.load_model_file.total_s": total("modelio.load_model_file"),
        "cli.run.calls": calls("cli.run"),
        "cli.run.self_s": self_s("cli.run"),
        "splitting.self_s": metric(splitting_self, "s"),
        "trace.overhead_frac": metric(overhead, "ratio"),
    }


def load_reference(workload: str, seed: int) -> list[str] | None:
    ref = json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))
    entry = ref.get(workload)
    if entry is None or entry["seed"] != seed:
        return None
    return entry["digests"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        lib, requests = setup(args.workload, args.seed)
        setup_times.append(time.perf_counter() - t0)

    reference = load_reference(args.workload, args.seed)
    if reference is not None and len(reference) != len(requests):
        raise StaleReference(
            f"{REFERENCE_FILE.name} has {len(reference)} outputs for {args.workload}, "
            f"the request list {len(requests)}; re-record it"
        )
    verify = Verifier(requests, reference)
    passes, failed, wall = closed_loop(requests, verify, args.seconds)
    per_request = [min(col) for col in zip(*passes)]
    attempted = len(requests) * len(passes)
    summary = {
        "workload": args.workload,
        "requests_per_pass": len(requests),
        "passes": len(passes),
        "attempted": attempted,
        "wall_s": wall,
        "reference_checked": reference is not None,
        "setup_s_each": setup_times,
    }

    record = {"environment": environment(args.seed), "summary": summary}
    if args.trace:
        traced, n_failed, tr, counts = traced_pass(lib, requests, verify)
        failed += n_failed
        attempted += len(traced)
        overhead = sum(traced) / statistics.median(sum(p) for p in passes) - 1
        metrics = per_layer(tr, counts, overhead)
        record["spans"] = tr.spans_for_output()
        record["leaves"] = tr.leaves
    else:
        metrics = end_to_end(per_request, setup_times, failed, attempted)
        p90 = metrics["op_p90_ms"]["value"] / 1000
        summary["samples_above_p90"] = sum(1 for x in per_request if x > p90)
    record["metrics"] = metrics
    record["errors"] = verify.errors[:50]

    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    out_file = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    env = record["environment"]
    print(
        f"# {args.workload} seed {args.seed}: python {env['python']}, nproc {env['nproc']}, "
        f"{env['platform']}, commit {env['git_commit'][:12]}"
    )
    print(
        f"# {len(passes)} passes of {len(requests)} requests, one client, closed loop; "
        f"{len(per_request)} samples (per-request best of the passes)"
        + (f", {summary['samples_above_p90']} above p90" if "samples_above_p90" in summary else "")
    )
    for name, m in metrics.items():
        print(f"{name}\t{m['value']}\t{m['unit']}")
    for err in verify.errors[:10]:
        print(f"# FAILED {err}")
    # failed_frac is printed above but kept out of the JSON metrics, which
    # are chosen never to be 0; "failed" and "attempted" carry it.
    metrics.pop("failed_frac", None)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (MissingProgram, StaleReference) as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
