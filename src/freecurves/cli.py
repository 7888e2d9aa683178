"""Command-line surface.

Every command prints exact values only (integers and p/q rationals) and is
deterministic for a fixed argument vector.  Exit codes: 0 on success, 1 on
a domain error or a file error, 2 on a usage error.
"""

from __future__ import annotations

import argparse
import functools
import sys
from errno import EBADF, ELOOP, ENOENT, ENOTDIR
from fractions import Fraction
from pathlib import Path

from . import counting as cnt
from . import nodal, splitting, stability, variety
from .errors import DomainError, int_token, int_tokens
from .modelio import LoadedModel, fixture_path, load_model_file

__all__ = ["run", "script"]


def _shown(read):
    """The argument reader ``read`` with its ValueError's text shown: argparse
    prints an ArgumentTypeError's message, but for a ValueError it prints
    only "invalid <function name> value"."""

    def reader(text: str):
        try:
            return read(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc

    return reader


def _fraction(text: str) -> Fraction:
    """A rational written ``N`` or ``N/D``, each part read by ``int_token``."""
    num, slash, den = text.partition("/")
    try:
        return Fraction(int_token(num), int_token(den) if slash else 1)
    except ZeroDivisionError as exc:
        raise ValueError(f"zero denominator in {text!r}") from exc


def _joined(values) -> str:
    return ",".join(map(str, values))


def _alignment_token(text: str):
    if text in ("dual", "identity"):
        return text
    if text.startswith("perm:"):
        return int_tokens(text[len("perm:") :])
    raise ValueError(f"bad alignment {text!r}; use dual, identity or perm:i1,i2,...")


def _build_alignment(token, rank: int) -> nodal.Alignment:
    if token == "dual":
        return nodal.Alignment.dual(rank)
    if token == "identity":
        return nodal.Alignment.identity(rank)
    return nodal.Alignment.from_one_based(token)


# The errors for which ``Path.exists()`` calls a file absent, as in 3.10 to
# 3.12 (3.13 calls every OSError so).
_ABSENT = frozenset({ENOENT, ENOTDIR, EBADF, ELOOP})


@functools.lru_cache(maxsize=16)
def _fixture_name(path: str) -> str:
    """``str(fixture_path(path))``, kept per name, as in ``load_model_file``."""
    return str(fixture_path(path))


def _load_model(path: str) -> LoadedModel:
    """Load ``--model``: a file path, or the name of a bundled fixture.

    The path is opened as given, with no test before; only where that open
    fails as absent (``_ABSENT``: no such file, a file where a directory
    should be, a bad descriptor or a symlink loop), or the name holds a NUL
    or cannot be encoded, is the fixture of that name opened, and where it
    is absent too the model is not found."""
    if "\x00" not in path:
        for fixture in (False, True):
            try:
                return load_model_file(_fixture_name(path) if fixture else path)
            except UnicodeEncodeError:
                pass
            except OSError as exc:
                if exc.errno not in _ABSENT:
                    raise
    raise DomainError(f"model file not found: {path}")


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _counting_config(args) -> tuple[variety.VarietyModel, cnt.CountingConfig]:
    """The model and its counting block, which was checked when it was
    loaded and is shared as it is; ``--q`` or ``--delta`` builds a new one,
    which checks every field again."""
    loaded = _load_model(args.model)
    cfg = loaded.counting
    if cfg is None:
        raise DomainError(f"model file {args.model} has no counting block")
    if args.q is not None or args.delta is not None:
        q = cfg.q if args.q is None else args.q
        delta = cfg.delta if args.delta is None else args.delta
        cfg = cnt.CountingConfig(
            q, cfg.br, cfg.m_cap, cfg.beta, cfg.outside_xi, cfg.eps, delta
        )
    return loaded.model, cfg


def _cmd_sp(args) -> str:
    panel = splitting.slope_panel(args.type)
    try:
        ratio = str(splitting.minimal_slope_ratio(args.type))
    except DomainError:
        ratio = "n/a"
    return f"panel: {_joined(panel)}  min_ratio: {ratio}\n"


def _cmd_degbd(args) -> str:
    return f"{nodal.degbd(args.nodal, args.m)}\n"


def _cmd_smooth(args) -> str:
    types = nodal.admissible_smoothings(args.nodal, require_sequential=args.sequential)
    return "".join(f"{t}\n" for t in types)


def _cmd_glue(args) -> str:
    types = args.type
    if len(types) == 1:
        t1 = t2 = types[0]
    elif len(types) == 2:
        t1, t2 = types
    else:
        raise ValueError("glue takes one or two --type arguments")
    align = _build_alignment(args.align, t1.rank)
    return f"{nodal.glue(t1, t2, align)}\n"


def _cmd_balance(args) -> str:
    trace = stability.balance(args.type, max_steps=args.max_steps, policy=args.policy)
    lines = [f"state {i}: {t}" for i, t in enumerate(trace.states)]
    lines.append(f"steps: {trace.steps}")
    lines.append(f"copies: {trace.copies}")
    lines.append(f"converged: {'true' if trace.converged else 'false'}")
    return "".join(f"{line}\n" for line in lines)


def _cmd_esp(args) -> str:
    # the panel, with its RankTooLarge, comes before the bound
    report = variety.read_class(_load_model(args.model).model, args.cls)
    panel = report.panel()
    return (
        f"esp: {_joined(panel)}\n"
        f"min_entry: {min(panel)}\n"
        f"degree: {report.degree}\n"
        f"liberated_bound: {report.bound()}\n"
    )


def _cmd_count(args) -> str:
    """Shared by ``count`` and ``check``; ``check`` adds the d0 line."""
    model, cfg = _counting_config(args)
    report = cnt.ratio_check(model, cfg, range(1, args.dmax + 1))
    text = report.render_tsv()
    if args.command == "check":
        text += f"# d0: {'none' if report.d0 is None else report.d0}\n"
    return text


@functools.cache
def _parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser, and each command's subparser by name."""
    parser = argparse.ArgumentParser(
        prog="freecurves",
        description="Exact splitting-type calculus for rational curves.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default=None, help="write output to a file")
    commands = {}

    def command(name, text, func):
        # ``command`` repeats what the top-level parser stores there, so a
        # namespace from the subparser alone is the same
        p = commands[name] = sub.add_parser(name, parents=[out], help=text)
        p.set_defaults(func=func, command=name)
        return p

    p = command("sp", "slope panel and minimal slope ratio", _cmd_sp)
    p.add_argument("--type", type=_shown(splitting.parse_splitting_type), required=True)

    p = command("degbd", "degree bound for rank-m quotients", _cmd_degbd)
    p.add_argument("--nodal", type=_shown(nodal.parse_nodal_type), required=True)
    p.add_argument("--m", type=_shown(int_token), required=True)

    p = command("smooth", "admissible smoothings of a nodal type", _cmd_smooth)
    p.add_argument("--nodal", type=_shown(nodal.parse_nodal_type), required=True)
    p.add_argument("--sequential", action="store_true")

    p = command("glue", "glue splitting types into a nodal type", _cmd_glue)
    p.add_argument(
        "--type",
        type=_shown(splitting.parse_splitting_type),
        action="append",
        required=True,
        help="give once to glue a type to itself, twice for two types",
    )
    p.add_argument("--align", type=_shown(_alignment_token), default="dual")

    p = command("balance", "iterate worst-case glue-and-smooth steps", _cmd_balance)
    p.add_argument("--type", type=_shown(splitting.parse_splitting_type), required=True)
    p.add_argument("--max-steps", type=_shown(int_token), default=8)
    p.add_argument("--policy", choices=("worst", "best"), default="worst")

    p = command("esp", "expected slope panel of a curve class", _cmd_esp)
    p.add_argument("--model", required=True)
    p.add_argument("--class", dest="cls", type=_shown(int_tokens), required=True)

    tally_commands = (
        ("count", "tabulate per-degree counting sums"),
        ("check", "tabulate sums and locate the delta threshold"),
    )
    for name, text in tally_commands:
        p = command(name, text, _cmd_count)
        p.add_argument("--model", required=True)
        p.add_argument("--dmax", type=_shown(int_token), required=True)
        p.add_argument("--q", type=_shown(_fraction), default=None)
        p.add_argument("--delta", type=_shown(_fraction), default=None)

    return parser, commands


def _parse_args(argv) -> argparse.Namespace:
    """``argv`` parsed as the top-level parser would, in one pass when it
    names a command: the top-level parser hands everything after the name to
    that command's subparser.  Left-over arguments, no command, ``-h`` or an
    unknown name go through the top-level parser, so its messages stay."""
    parser, commands = _parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    sub = commands.get(argv[0]) if argv else None
    if sub is not None:
        args, rest = sub.parse_known_args(argv[1:])
        if not rest:
            return args
    return parser.parse_args(argv)


def _report(message: str) -> None:
    """Print an error line to stderr; what the stream cannot encode, such as
    a lone surrogate in a file name, goes as backslash escapes, as a
    process's own stderr writes it."""
    try:
        print(message, file=sys.stderr)
    except UnicodeEncodeError:
        encoding = sys.stderr.encoding
        escaped = message.encode(encoding, "backslashreplace").decode(encoding)
        print(escaped, file=sys.stderr)


def run(argv=None) -> int:
    """Parse arguments, dispatch, and return the process exit code."""
    args = _parse_args(argv)
    try:
        _emit(args.func(args), args.out)
    except (DomainError, OSError) as exc:
        _report(f"error: {type(exc).__name__}: {exc}")
        return 1
    except ValueError as exc:
        _report(f"usage error: {exc}")
        return 2
    return 0


def script() -> None:
    """Process entry point.  Exact values may run past the 4,300 digits that
    int-to-str conversion allows by default, so lift that limit here, not in
    ``run``, which callers use in-process; 3.10.0-3.10.6 have no limit."""
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    sys.exit(run())


if __name__ == "__main__":
    script()
