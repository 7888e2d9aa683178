"""Seeded request lists for the benchmark workloads.

Each workload has a generator that turns a ``random.Random`` into plain
input data (tuples of integers and strings), and a function that turns
that data into library calls.  The library only ever sees the generated inputs.
The mix of request kinds, ranks and sizes is fixed per workload; the seed
draws the degrees, classes and ``dmax`` values inside it, so different
seeds cost about the same.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import random
from dataclasses import dataclass
from typing import Callable

import checks

WORKLOADS = ("nodal-rank", "count-check", "cli-mix")
FIXTURES = ("toy_rho1.json", "pbundle.json", "toy_rho2.json")

# Every request is short (at most about 20 ms) and a pass over a list costs
# about a quarter of a second, so that a run of 20 s times every request 40
# times or more.  The fastest of that many short timings is steady on a
# shared machine; that of longer requests is not.  See NOTES.md.
#
# nodal-rank: (spread, m values) of the seeded nodal types per rank 6..12;
# None means every m.  The cost of degbd is set by (rank, m) alone, since
# the labeling enumeration is exhaustive, and it grows about 3.5 times per
# rank at the middle m; only the outer m are asked from rank 8 up.  Types
# that get every m also get a sequential smoothing, which runs the whole
# degree profile, a plain one at spread 3, and a witness at the middle m.
# Plain smoothing output is heavy-tailed in the degrees (rank 9 at spread 6:
# 7k to 168k types, up to 74 MB), and the peak memory would follow the seed.
NODAL_INSTANCES = {
    6: ((3, None), (6, None), (3, None), (6, None), (3, None)),
    7: ((6, None), (3, None), (6, None)),
    8: ((3, (1, 2, 3, 6, 7, 8)), (6, (1, 2, 3, 6, 7, 8))),
    9: ((6, (1, 2, 8, 9)),),
    10: ((3, (1, 2, 9, 10)),),
    11: ((6, (1, 2, 10, 11)),),
    12: ((3, (1, 2, 11, 12)),),
}
# count-check: dmax ladders.  toy_rho2 costs about dmax^3, so its rungs take
# most of the time; every rung from 4 up costs more than any cheap request.
# Its ladder is fixed, and rung 6 is drawn six times so that the 90th
# percentile falls inside that group: the costly tail and the percentile are
# then the same for every seed.  The cheap fixtures get two seeded draws
# around each rung.
TOY_RHO2_RUNGS = (2, 3, 4, 5) * 4 + (6,) * 6 + (7,) * 3 + (8, 9) * 2
CHEAP_RUNGS = tuple(range(1, 19)) * 2


@dataclass(frozen=True)
class Request:
    kind: str
    size: int
    call: Callable[[], object]
    # Oracle that holds for any seed: None on success, else a message.
    check: Callable[[object], str | None]
    # Canonical text of the output; for the reference seed its digest is
    # compared with the recorded reference.
    render: Callable[[object], str]


# -- generators: seed -> plain data -----------------------------------------


def _nodal_pairs(rng: random.Random, rank: int, spread: int):
    return tuple(
        (rng.randint(-spread, spread), rng.randint(-spread, spread))
        for _ in range(rank)
    )


def gen_nodal_rank(rng: random.Random) -> list[tuple]:
    specs = []
    for rank, instances in NODAL_INSTANCES.items():
        for spread, ms in instances:
            pairs = _nodal_pairs(rng, rank, spread)
            specs.extend(("degbd", pairs, m) for m in ms or range(1, rank + 1))
            if ms is None:
                specs.append(("smooth-seq", pairs, None))
                if spread == 3:
                    specs.append(("smooth", pairs, None))
            specs.append(("witness", pairs, (rank + 1) // 2 if ms is None else 2))
    rng.shuffle(specs)
    return specs


def gen_count_check(rng: random.Random) -> list[tuple]:
    specs = []
    for name in ("toy_rho1.json", "pbundle.json"):
        specs.extend((name, max(1, rung + rng.randint(-1, 1))) for rung in CHEAP_RUNGS)
    specs.extend(("toy_rho2.json", rung) for rung in TOY_RHO2_RUNGS)
    rng.shuffle(specs)
    return specs


def balance_types() -> list[tuple[int, ...]]:
    """Every sequential integer-slope type of rank <= 5 with degrees in [-3, 3]."""
    out = []
    for rank in range(1, 6):
        for degs in itertools.combinations_with_replacement(range(3, -4, -1), rank):
            if all(x - y <= 1 for x, y in zip(degs, degs[1:])) and sum(degs) % rank == 0:
                out.append(degs)
    return out


def _fmt(degrees) -> str:
    return ",".join(str(a) for a in degrees)


def _fmt_nodal(pairs) -> str:
    return ",".join(f"{a}/{b}" for a, b in pairs)


def gen_cli_mix(rng: random.Random) -> list[tuple]:
    """Argument vectors plus the data each oracle needs."""
    specs = []
    for _ in range(12):
        rank = rng.randint(1, 6)
        degs = [0]
        while sum(degs) == 0:
            degs = [rng.randint(-3, 5) for _ in range(rank)]
        specs.append(("sp", ["sp", f"--type={_fmt(degs)}"], tuple(degs)))
    for i in range(12):
        rank = rng.randint(1, 5)
        t1 = tuple(rng.randint(-3, 3) for _ in range(rank))
        t2 = tuple(rng.randint(-3, 3) for _ in range(rank)) if i % 2 else t1
        align = ("dual", "identity", "perm")[i % 3]
        if align == "dual":
            perm = tuple(range(rank - 1, -1, -1))
            token = "dual"
        elif align == "identity":
            perm = tuple(range(rank))
            token = "identity"
        else:
            perm = tuple(rng.sample(range(rank), rank))
            token = "perm:" + ",".join(str(p + 1) for p in perm)
        argv = ["glue", f"--type={_fmt(t1)}"]
        if t2 is not t1:
            argv.append(f"--type={_fmt(t2)}")
        argv.append(f"--align={token}")
        specs.append(("glue", argv, (t1, t2, perm)))
    for name in FIXTURES:
        for _ in range(4):
            if name == "toy_rho1.json":
                cls = (rng.randint(1, 20),)
            else:
                cls = (0, 0)
                while cls == (0, 0):
                    cls = (rng.randint(0, 6), rng.randint(0, 6))
            argv = ["esp", f"--model={name}", f"--class={_fmt(cls)}"]
            specs.append(("esp", argv, (name, cls)))
    for i in range(12):
        rank = rng.randint(2, 6)
        pairs = _nodal_pairs(rng, rank, 3)
        argv = ["smooth", f"--nodal={_fmt_nodal(pairs)}"]
        if i % 2:
            argv.append("--sequential")
        specs.append(("smooth", argv, (pairs, bool(i % 2))))
    for i in range(12):
        rank = rng.randint(2, 6)
        pairs = _nodal_pairs(rng, rank, 3)
        m = 1 if i % 3 == 0 else rng.randint(1, rank)
        argv = ["degbd", f"--nodal={_fmt_nodal(pairs)}", f"--m={m}"]
        specs.append(("degbd", argv, (pairs, m)))
    for name in FIXTURES:
        for kind, lo, hi in (("count", 3, 8), ("check", 11, 13)) * 2:
            dmax = rng.randint(lo, hi)
            argv = [kind, f"--model={name}", f"--dmax={dmax}"]
            specs.append((kind, argv, (name, dmax, rng.randint(1, dmax))))
    for degs in balance_types():
        for policy in ("worst", "best"):
            argv = ["balance", f"--type={_fmt(degs)}", f"--policy={policy}"]
            specs.append(("balance", argv, degs))
    rng.shuffle(specs)
    return specs


GENERATORS = {
    "nodal-rank": gen_nodal_rank,
    "count-check": gen_count_check,
    "cli-mix": gen_cli_mix,
}


def generate(workload: str, seed: int) -> list[tuple]:
    return GENERATORS[workload](random.Random(f"{workload}/{seed}"))


# -- requests: plain data -> library calls ------------------------------------


def _join_types(types) -> str:
    return "\n".join(str(t) for t in types)


def _nodal_request(lib, spec) -> Request:
    kind, pairs, m = spec
    nodal = lib.nodal
    z = nodal.NodalType(pairs)
    canon = z.pairs
    rank = len(pairs)
    if kind == "degbd":

        def check(out):
            msg = checks.check_degbd(canon, m, out)
            if msg is None and m == 1 and out != nodal.degbd_m1_closed_form(z):
                msg = "degbd(z, 1) differs from the closed form"
            return msg

        return Request(kind, rank, lambda: nodal.degbd(z, m), check, str)
    if kind in ("smooth", "smooth-seq"):
        seq = kind == "smooth-seq"
        return Request(
            kind,
            rank,
            lambda: nodal.admissible_smoothings(z, require_sequential=seq),
            lambda out: checks.check_smoothings(canon, [t.degrees for t in out], seq),
            _join_types,
        )
    return Request(
        kind,
        rank,
        lambda: nodal.sharpness_witness(z, m),
        lambda out: checks.check_witness(canon, m, out),
        lambda out: f"{out.render()}\nserre_ok={out.serre_ok}",
    )


def _check_report(lib, models, fixtures, name, dmax, sample_d, rows, d0=None) -> str | None:
    """Rows against enumeration, ``d0`` for toy_rho2 when given, and
    ``count_N`` / ``count_N_liberated`` at the sampled d."""
    msg = checks.check_rows(fixtures[name], rows, dmax)
    if msg is not None:
        return msg
    if d0 is not None and name == "toy_rho2.json" and dmax >= 11 and d0 != "11":
        return f"toy_rho2 reports d0 {d0}, expected 11"
    model, cfg = models[name]
    _, _, _, n_value, n_lib, _ = rows[sample_d - 1]
    if lib.counting.count_N(model, cfg, sample_d) != n_value:
        return f"count_N at d={sample_d} disagrees with the report"
    if lib.counting.count_N_liberated(model, cfg, sample_d) != n_lib:
        return f"count_N_liberated at d={sample_d} disagrees with the report"
    return None


def _count_request(lib, models, fixtures, spec, sample_d) -> Request:
    name, dmax = spec
    model, cfg = models[name]
    cnt = lib.counting

    def check(report):
        rows = [
            (r.d, r.points, r.liberated, r.n_value, r.n_liberated, r.ratio)
            for r in report.rows
        ]
        d0 = "none" if report.d0 is None else str(report.d0)
        return _check_report(lib, models, fixtures, name, dmax, sample_d, rows, d0)

    return Request(
        name,
        dmax,
        lambda: cnt.ratio_check(model, cfg, range(1, dmax + 1)),
        check,
        lambda report: f"{report.render_tsv()}# d0: {report.d0}\n",
    )


def _cli_check(lib, models, fixtures, kind, data):
    def check(result):
        code, out, err = result
        if code != 0 or err:
            return f"exit {code}: {err.strip()}"
        if kind == "sp":
            return checks.check_sp(data, out)
        if kind == "glue":
            t1, t2, perm = data
            got = checks.parse_pairs(out)
            want = checks.glued_pairs(t1, t2, perm)
            return None if got == want else f"glued {got} != {want}"
        if kind == "esp":
            name, cls = data
            return checks.check_esp(fixtures[name], cls, out)
        if kind == "smooth":
            pairs, seq = data
            types = [tuple(int(x) for x in line.split(",")) for line in out.splitlines()]
            return checks.check_smoothings(pairs, types, seq)
        if kind == "degbd":
            pairs, m = data
            return checks.check_degbd(pairs, m, int(out))
        if kind in ("count", "check"):
            name, dmax, sample_d = data
            rows, d0 = checks.parse_tsv(out)
            if (d0 is None) != (kind == "count"):
                return f"{kind} printed {'a' if d0 else 'no'} d0 line"
            return _check_report(lib, models, fixtures, name, dmax, sample_d, rows, d0)
        return checks.check_balance(data, out)

    return check


def _cli_request(lib, models, fixtures, spec) -> Request:
    kind, argv, data = spec
    run = lib.cli

    def call():
        out = io.StringIO()
        err = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run.run(list(argv))
        return code, out.getvalue(), err.getvalue()

    return Request(
        f"cli:{kind}",
        len(argv),
        call,
        _cli_check(lib, models, fixtures, kind, data),
        lambda result: f"{result[0]}\n{result[1]}{result[2]}",
    )


def load_fixtures(lib) -> tuple[dict, dict]:
    """Library models and oracle data for the bundled fixtures."""
    models = {}
    fixtures = {}
    for name in FIXTURES:
        path = lib.modelio.fixture_path(name)
        loaded = lib.modelio.load_model_file(path)
        models[name] = (loaded.model, loaded.counting)
        fixtures[name] = checks.OrthantFixture(path)
    return models, fixtures


def build(workload: str, lib, seed: int) -> tuple[list[Request], list[Request]]:
    """The seeded request list and a short warm-up list for ``workload``."""
    specs = generate(workload, seed)
    if workload == "nodal-rank":
        requests = [_nodal_request(lib, s) for s in specs]
        warm = [_nodal_request(lib, s) for s in gen_nodal_rank(random.Random("warm-up"))
                if len(s[1]) <= 6]
        return requests, warm
    if workload == "count-check":
        models, fixtures = load_fixtures(lib)
        rng = random.Random(f"{workload}/{seed}/sample")
        requests = [
            _count_request(lib, models, fixtures, s, rng.randint(1, s[1])) for s in specs
        ]
        warm = [_count_request(lib, models, fixtures, (name, 5), 1) for name in FIXTURES]
        return requests, warm
    models, fixtures = load_fixtures(lib)
    requests = [_cli_request(lib, models, fixtures, s) for s in specs]
    first_of_kind = {}
    for req in requests:
        first_of_kind.setdefault(req.kind, req)
    return requests, list(first_of_kind.values())
