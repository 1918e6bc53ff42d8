"""Command-line front end.

Commands: analyze, generate, recognize, verify, hx.
Exit codes: 0 success, 1 verification failure, 2 parse/config error,
3 exact fields requested beyond their limits.

`main` is called once per command by the shell and many times per process
by the benchmark and the tests, so its fixed costs are kept small.  Each
command's arguments are declared once, by its `_*_args` function.  Run on
a `_Recorder`, those declarations give the grammar of `_fast_parse`,
which reads a well-formed command line (exact option spellings, plain
values) without importing argparse; run on an argparse subparser, they
give `build_parser`, which parses every other command line and alone
prints help, usage and errors.  `main` keeps one argparse parser per
command name, and `--json` output is written by `_json_text` rather than
by `json`'s pure-Python indenting encoder.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from json.encoder import encode_basestring_ascii
from pathlib import Path
from types import SimpleNamespace

from . import critical as cr
from . import unicyclic as uc
from .errors import FormatError, GraphError
from .graphs import Graph, parse_edge_list, parse_graph6, to_graph6
from .independence import ALPHA_CEILING
from .reports import analyze, render_text
from .verification import FAMILIES, Limits, SweepConfig, run_sweep

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE = 2
EXIT_LIMIT = 3


# The largest enumeration or omega limit a user may set: both size
# exhaustive work over all 2^n subsets (a 2^n-entry difference table, the
# maximum-independent-set enumeration), which stays feasible up to n = 20.
LIMIT_CEILING = 20
# The input formats `--format` accepts; "auto" reads the first line.
FORMATS = ("auto", "edgelist", "graph6")


def _limits_from(args) -> Limits:
    """Limits from the flags, else the CRITINDEP_*_LIMIT variables, else
    the defaults.  A non-integer or negative value, an enumeration or
    omega limit above LIMIT_CEILING, or an alpha limit above
    ALPHA_CEILING raises ValueError."""
    overrides = {}
    for field, flag, flag_value, env_key, ceiling in (
            ("enumeration", "--enum-limit", args.enum_limit,
             "CRITINDEP_ENUM_LIMIT", LIMIT_CEILING),
            ("omega", "--omega-limit", args.omega_limit,
             "CRITINDEP_OMEGA_LIMIT", LIMIT_CEILING),
            ("alpha_exact", "--alpha-limit", args.alpha_limit,
             "CRITINDEP_ALPHA_LIMIT", ALPHA_CEILING)):
        if flag_value is not None:
            source, value = flag, flag_value
        elif env_key in os.environ:
            raw = os.environ[env_key]
            try:
                source, value = env_key, int(raw)
            except ValueError:
                raise ValueError(
                    f"{env_key} must be an integer, got {raw!r}") from None
        else:
            continue
        if value < 0:
            raise ValueError(f"{source} must be non-negative, got {value}")
        if value > ceiling:
            raise ValueError(
                f"{source} must be at most {ceiling}, got {value}")
        overrides[field] = value
    return Limits(**overrides)


def _load_graph(path: str, fmt: str) -> tuple[Graph, bytes, str]:
    data = Path(path).read_bytes()
    text = data.decode()
    if fmt != "edgelist":
        # The first line that is neither blank nor a comment decides the
        # format, and is the graph6 line; '#' is not a graph6 byte.
        first = next((s for ln in text.splitlines()
                      if (s := ln.strip()) and not s.startswith("#")), "")
        if fmt == "auto":
            # graph6 holds no whitespace; an edge-list line holds two fields.
            fmt = "edgelist" if len(first.split()) > 1 else "graph6"
    if fmt == "edgelist":
        return parse_edge_list(text), data, "edgelist"
    return parse_graph6(first), data, "graph6"


# What `json.dumps` writes for these scalars; any other goes to the C
# one-shot encoder.
_WORDS = {True: "true", False: "false", None: "null"}
_ENCODE = json.JSONEncoder().encode


def _json_scalar(value) -> str:
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int:
        return int.__repr__(value)
    if value is True or value is False or value is None:
        return _WORDS[value]
    return _ENCODE(value)


def _json_text(payload, newline: str = "\n") -> str:
    """`json.dumps(payload, sort_keys=True, indent=2)`, byte for byte.

    With `indent` set, `json` encodes in pure Python, one generator frame
    per container.  This writer recurses only through dicts, lists and
    tuples and joins each level with `",\n"` and the indentation.  Keys
    and strings go through the C string encoder that `json` uses, ints
    through `int.__repr__` as in `json` (a list of plain ints in one
    join), and any other scalar through the C one-shot encoder.
    `newline` is the line break plus the current level's indentation.
    Dict keys must be strings, as in every payload the commands print.
    """
    if isinstance(payload, dict):
        if not payload:
            return "{}"
        inner = newline + "  "
        items = []
        for key in sorted(payload):
            value = payload[key]
            items.append(encode_basestring_ascii(key) + ": " + (
                _json_text(value, inner)
                if isinstance(value, (dict, list, tuple))
                else _json_scalar(value)))
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if isinstance(payload, (list, tuple)):
        if not payload:
            return "[]"
        inner = newline + "  "
        if all(type(item) is int for item in payload):
            items = map(int.__repr__, payload)
        else:
            items = [_json_text(item, inner) for item in payload]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    return _json_scalar(payload)


def _emit(payload: dict, args, render) -> None:
    """Print payload as JSON with --json, else as render(payload); stamp it
    with the time unless --no-timestamp."""
    if not args.no_timestamp:
        import datetime  # only here: --no-timestamp runs never load it
        payload["generated_at"] = datetime.datetime.now(
            datetime.timezone.utc).isoformat()
    if args.json:
        print(_json_text(payload))
    else:
        print(render(payload), end="")


def cmd_analyze(args) -> int:
    try:
        limits = _limits_from(args)
        g, data, fmt = _load_graph(args.path, args.format)
    except (FormatError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    report = analyze(g, limits, source=data, fmt=fmt)
    if args.exact and "skipped" in report:
        for field, reason in sorted(report["skipped"].items()):
            print(f"error: exact field {field} unavailable: {reason}",
                  file=sys.stderr)
        return EXIT_LIMIT
    _emit(report, args, render_text)
    return EXIT_OK


def cmd_generate(args) -> int:
    try:
        if args.script:
            script = uc.parse_script(Path(args.script).read_text())
        else:
            try:
                cyc, n_p2, n_leaf = (int(x) for x in args.random.split(","))
            except ValueError:
                raise ValueError(
                    f"--random expects CYCLE,P2,LEAF, three integers, got "
                    f"{args.random!r}") from None
            script, _ = uc.generate_random(cyc, n_p2, n_leaf, seed=args.seed)
        cu = uc.generate(script)
    except (GraphError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    g6 = to_graph6(cu.graph)
    colors = cu.coloring_json()
    if args.out:
        try:
            Path(args.out + ".g6").write_text(g6 + "\n")
            Path(args.out + ".colors.json").write_text(colors + "\n")
            Path(args.out + ".script").write_text(uc.script_to_text(script))
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_PARSE
        print(f"wrote {args.out}.g6, {args.out}.colors.json, "
              f"{args.out}.script")
    else:
        print(g6)
        print(colors)
    return EXIT_OK


def cmd_recognize(args) -> int:
    try:
        g, _, _ = _load_graph(args.path, args.format)
        cu = uc.recognize(g)
    except (GraphError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    if cu is None:
        print("KE")
    else:
        print(cu.coloring_json())
    return EXIT_OK


def _render_sweep(payload: dict) -> str:
    config = payload["config"]
    lines = [f"family={config['family']} graphs={payload['graphs']} "
             f"seed={config['seed']}"]
    for cid, c in sorted(payload["checks"].items()):
        lines.append(f"  {cid}: pass={c['pass']} fail={c['fail']} "
                     f"skipped={c['skipped']}")
    return "\n".join(lines) + "\n"


def cmd_verify(args) -> int:
    checks = args.checks.split(",") if args.checks else None
    try:
        config = SweepConfig(
            family=args.family,
            min_n=args.min_n,
            max_n=args.max_n,
            samples=args.samples,
            seed=args.seed,
            checks=checks,
            limits=_limits_from(args),
            inject_failure=args.inject_failure,
        )
        result = run_sweep(config)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    payload = {
        "config": {
            "family": config.family,
            "min_n": config.min_n,
            "max_n": config.max_n,
            "samples": config.samples,
            "seed": config.seed,
            "checks": checks,
        },
        "graphs": result.graphs,
        "checks": result.counts,
        "failures": [{"graph6": g6, "check": cid}
                     for g6, cid in result.certificates],
    }
    _emit(payload, args, _render_sweep)
    if result.certificates:
        cert_path = args.cert or "failures.cert"
        try:
            with open(cert_path, "w") as fh:
                for g6, cid in result.certificates:
                    fh.write(f"{g6} {cid}\n")
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_PARSE
        print(f"certificates written to {cert_path}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK


def cmd_hx(args) -> int:
    try:
        g, _, _ = _load_graph(args.path, args.format)
        xset = [int(v) for v in args.set.split(",")] if args.set else []
        gadget = cr.build_hx(g, xset)
    except (GraphError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    embedded = sorted(gadget.embedding[u] for u in gadget.x)
    gadget_ker = sorted(cr.cover_ker(gadget.gadget))
    payload = {
        "gadget_graph6": to_graph6(gadget.gadget),
        "v": gadget.v_label,
        "w": gadget.w_label,
        "embedding": {str(k): v for k, v in sorted(gadget.embedding.items())},
        "embedded_x": embedded,
        "gadget_ker": gadget_ker,
        "ker_equals_x": gadget_ker == embedded,
    }
    print(_json_text(payload))
    return EXIT_OK


def _common_args(p, with_graph=True):
    if with_graph:
        p.add_argument("--format", choices=FORMATS, default="auto")
    p.add_argument("--json", action="store_true")
    p.add_argument("--no-timestamp", action="store_true")
    p.add_argument("--enum-limit", type=int, default=None)
    p.add_argument("--omega-limit", type=int, default=None)
    p.add_argument("--alpha-limit", type=int, default=None)


def _analyze_args(p) -> None:
    p.add_argument("path")
    p.add_argument("--exact", action="store_true",
                   help="fail (exit 3) instead of skipping limited fields")
    _common_args(p)


def _generate_args(p) -> None:
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--script", help="build script path")
    group.add_argument("--random", metavar="CYCLE,P2,LEAF",
                       help="random script parameters")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="output file prefix")


def _recognize_args(p) -> None:
    p.add_argument("path")
    p.add_argument("--format", choices=FORMATS, default="auto")


def _verify_args(p) -> None:
    p.add_argument("--family", choices=FAMILIES, required=True)
    p.add_argument("--min-n", type=int, default=1)
    p.add_argument("--max-n", type=int, default=6)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--checks", help="comma-separated check ids (default all)")
    p.add_argument("--cert", help="certificate output path")
    p.add_argument("--inject-failure", action="store_true",
                   help="force one failure (exercises the failure path)")
    p.add_argument("--seed", type=int, default=0)
    _common_args(p, with_graph=False)


def _hx_args(p) -> None:
    p.add_argument("path")
    p.add_argument("--set", required=True,
                   help="comma-separated independent vertex set")
    p.add_argument("--format", choices=FORMATS, default="auto")


# Each command's handler, help line and argument adder, in help order.
COMMANDS = {
    "analyze": (cmd_analyze, "full report for one graph", _analyze_args),
    "generate": (cmd_generate, "build a colored unicyclic graph",
                 _generate_args),
    "recognize": (cmd_recognize,
                  "recover the canonical coloring or report KE",
                  _recognize_args),
    "verify": (cmd_verify, "run a verification sweep", _verify_args),
    "hx": (cmd_hx, "build the two-vertex gadget for --set", _hx_args),
}


class _Recorder:
    """Stands in for an argparse parser while a command's `_*_args` runs.
    It keeps each `add_argument` call; any other call (a mutually
    exclusive group, say) marks the command as one `_fast_parse` leaves
    to argparse."""

    def __init__(self) -> None:
        self.calls: list[tuple[tuple, dict]] = []
        self.plain = True

    def add_argument(self, *names: str, **kwargs) -> None:
        self.calls.append((names, kwargs))

    def __getattr__(self, name: str):
        self.plain = False
        return lambda *args, **kwargs: self


# The add_argument keywords `_fast_parse` reads as argparse does.
_FAST_KEYWORDS = {"action", "type", "choices", "default", "required",
                  "help", "metavar"}


def _grammar(name: str) -> tuple | None:
    """Command `name`'s declarations as `_fast_parse` reads them: a map
    from each option string to its (dest, flag, type, choices), the
    positionals' (dest, flag, type, choices) in order, the required dests
    and argparse's namespace before parsing.  None when a declaration uses
    anything but positionals, _FAST_KEYWORDS, `action="store_true"` and
    `type=int`."""
    func, _, add_args = COMMANDS[name]
    rec = _Recorder()
    add_args(rec)
    if not rec.plain:
        return None
    options, positionals, required = {}, [], set()
    defaults = {"command": name, "func": func}
    for names, kwargs in rec.calls:
        if (not kwargs.keys() <= _FAST_KEYWORDS
                or kwargs.get("action") not in (None, "store_true")
                or kwargs.get("type") not in (None, int)):
            return None
        flag = kwargs.get("action") == "store_true"
        optional = names[0].startswith("-")
        # argparse's dest: a positional's name, else the first long option
        # string (the first option string if none is long) without its
        # dashes, inner dashes made underscores.
        dest = names[0]
        if optional:
            dest = next((s for s in names if s.startswith("--")), dest)
            dest = dest.lstrip("-").replace("-", "_")
        spec = (dest, flag, kwargs.get("type"), kwargs.get("choices"))
        if optional:
            options.update(dict.fromkeys(names, spec))
        else:
            positionals.append(spec)
        if kwargs.get("required"):
            required.add(dest)
        defaults[dest] = kwargs.get("default", False if flag else None)
    return options, positionals, required, defaults


_GRAMMARS = {name: _grammar(name) for name in COMMANDS}


def _value(kind, choices, text: str):
    """text converted by `type` and checked against `choices`, as argparse
    does; ValueError also for a text starting with "-", which argparse may
    read as an option or a negative number."""
    if text.startswith("-"):
        raise ValueError(text)
    value = text if kind is None else kind(text)
    if choices is not None and value not in choices:
        raise ValueError(text)
    return value


def _fast_parse(argv: list[str]) -> SimpleNamespace | None:
    """The namespace argparse gives for a plainly well-formed argv, without
    importing argparse; None for any other argv, and never an error.

    argv[0] must be a command with a grammar, each later token an exact
    option string or a value that does not start with "-", each option
    that takes a value followed by one, every int and choice valid, every
    required option present and the number of positionals exact.  A
    repeated option keeps its last value, as in argparse.
    """
    grammar = _GRAMMARS.get(argv[0]) if argv else None
    if grammar is None:
        return None
    options, positionals, required, defaults = grammar
    values = dict(defaults)
    seen = set()
    free = []
    tokens = iter(argv[1:])
    try:
        for token in tokens:
            if not token.startswith("-"):
                free.append(token)
                continue
            dest, flag, kind, choices = options[token]
            seen.add(dest)
            values[dest] = True if flag else _value(kind, choices,
                                                    next(tokens))
        if len(free) != len(positionals) or not required <= seen:
            return None
        for (dest, _, kind, choices), text in zip(positionals, free):
            values[dest] = _value(kind, choices, text)
    except (KeyError, StopIteration, ValueError):
        return None
    return SimpleNamespace(**values)


def build_parser(only: str | None = None) -> argparse.ArgumentParser:
    """The argparse parser with every command's subparser, or with only
    the subparser of the command named by `only`.

    `main` reads a well-formed argv with `_fast_parse` and builds a parser
    only for what that declines: abbreviations, `--opt=value`, `--`,
    help, and every argv that ends in an error.  So argparse alone prints
    help, usage and errors, and is imported only then.  A partial build,
    about a third of the cost of all five, spells every command out in the
    subcommand metavar, so an error raised after the command prints the
    usage line of the full parser.  The full build keeps the default
    metavar, under which an unknown command is an invalid choice for
    "command".  Each call returns a fresh parser; `main` keeps one per
    value of `only` (`_parser`), because the benchmark and the test suite
    call it many times in one process.
    """
    import argparse

    parser = argparse.ArgumentParser(
        prog="critindep",
        description="Critical independence structure toolkit")
    sub = parser.add_subparsers(
        dest="command", required=True,
        metavar=None if only is None else "{" + ",".join(COMMANDS) + "}")
    for name, (func, help_text, add_args) in COMMANDS.items():
        if only in (None, name):
            p = sub.add_parser(name, help=help_text)
            add_args(p)
            p.set_defaults(func=func)
    return parser


# One parser per command name (None: all five) per process.  Help text
# is formatted when it is printed, so COLUMNS still applies.
_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _fast_parse(argv)
    if args is None:
        only = argv[0] if argv and argv[0] in COMMANDS else None
        args = _parser(only).parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
