"""Command-line front end.

Three subcommands:

* ``sweep``   -- run a seeded Monte Carlo grid over non-null fractions,
  procedures, and discount sequences; emit the result table as CSV.
* ``stream``  -- gatekeeper mode: read p-values one per line (file or stdin)
  and print one decision record per line, before reading the next line.
* ``offline`` -- one-shot batch testing of a p-value file with the step-up
  procedures.

Options may come from flags or from a flat ``key = value`` config file
(``--config``); explicit flags win.  Unknown config keys are rejected by
name.  Exit codes: 0 success, 1 usage error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import codecs
import os
import stat
import sys
from contextlib import contextmanager
from typing import IO, Any, Callable, Iterator, Sequence

# simulation and offline are imported by the handlers that use them, so that
# a cold ``stream`` loads only the decision path
from . import gamma as gamma_mod
from .procedures import PROCEDURE_NAMES, make_procedure
from .records import validate_levels, validate_pvalue

STREAM_HEADER = "t,alpha,lambda,reject,candidate"
OFFLINE_HEADER = "index,p,rejected"


class UsageError(Exception):
    """Bad flags or config contents; exits with status 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


Parse = Callable[[str], Any]


def _checked(name: str, convert: Parse, ok: Callable[[Any], bool], must: str) -> Parse:
    def parse(raw: str) -> Any:
        value = convert(raw)
        if not ok(value):
            raise ValueError(f"{name} must {must}, got {value}")
        return value

    return parse


def _positive_int(name: str) -> Parse:
    return _checked(name, int, lambda v: v >= 1, "be >= 1")


def _unit_open(name: str) -> Parse:
    return _checked(name, float, lambda v: 0.0 < v < 1.0, "lie in (0, 1)")


def _list(item: Parse) -> Parse:
    return lambda raw: tuple(item(v) for v in raw.split(","))


def _procedure(raw: str) -> str:
    name = raw.strip()
    if name not in PROCEDURE_NAMES:
        raise ValueError(f"unknown procedure {name!r} (known: {', '.join(PROCEDURE_NAMES)})")
    return name


def _model(raw: str) -> str:
    from .simulation import model_spec, parse_model

    return model_spec(parse_model(raw))


def _method(raw: str) -> str:
    # a UsageError of its own: the message carries no "bad value for" prefix
    if raw not in ("bh", "storey-bh"):
        raise UsageError(f"unknown method {raw!r} (known: bh, storey-bh)")
    return raw


# key -> (parser of the raw text, default).  Keys resolve in this order; a
# callable default is computed from the values resolved before it, and a
# None default makes the option required.
_OPTIONS: dict[str, tuple[Parse, Any]] = {
    "alpha": (_unit_open("alpha"), None),
    "w0": (float, lambda v: v["alpha"] / 2.0),
    "method": (_method, "bh"),
    "model": (_model, "gaussian:3.0"),
    "pi1": (
        _list(_checked("pi1 values", float, lambda v: 0.0 <= v <= 1.0, "lie in [0, 1]")),
        tuple(round(0.1 * k, 1) for k in range(1, 10)),
    ),
    "procedure": (_list(_procedure), ("saffron",)),
    "gamma": (_list(lambda v: gamma_mod.canonical_spec(v.strip())), ("power:1.6",)),
    "lambda": (_unit_open("lambda"), 0.5),
    "T": (_positive_int("T"), 1000),
    "trials": (_positive_int("trials"), 200),
    "seed": (_checked("seed", int, lambda v: v >= 0, "be non-negative"), 0),
    "jobs": (_positive_int("jobs"), 1),
    "precision": (_positive_int("precision"), 6),
}

# Each subcommand's keys, in flag and ``--dump-config`` order.
_KEYS = {
    "sweep": ("model", "pi1", "procedure", "gamma", "alpha", "w0", "lambda",
              "T", "trials", "seed", "jobs", "precision"),
    "stream": ("procedure", "gamma", "alpha", "w0", "lambda", "precision"),
    "offline": ("method", "alpha", "lambda", "precision"),
}

# Lists that stream mode takes exactly one of.
_SINGLE = {"procedure": "procedure", "gamma": "gamma sequence"}


def parse_config_text(text: str, allowed: Sequence[str]) -> dict[str, str]:
    """Parse flat ``key = value`` lines; reject keys outside ``allowed``."""
    values: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, sep, value = stripped.partition("=")
        if not sep:
            raise UsageError(f"config line {lineno}: expected 'key = value', got {stripped!r}")
        key = key.strip()
        value = value.strip().strip("\"'")
        if key not in allowed:
            raise UsageError(f"unknown config key {key!r} (line {lineno})")
        values[key] = value
    return values


def _settings(args: argparse.Namespace) -> dict[str, Any]:
    """The subcommand's options from flags, then the config file, then defaults."""
    keys = _KEYS[args.command]
    file_cfg: dict[str, str] = {}
    if args.config:
        try:
            with open(args.config, encoding="utf-8-sig") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise UsageError(f"cannot read config file: {exc}") from None
        file_cfg = parse_config_text(text, keys)
    values: dict[str, Any] = {}
    for key, (parse, default) in _OPTIONS.items():
        if key not in keys:
            continue
        raw = getattr(args, key)
        if raw is None:
            raw = file_cfg.get(key)
        if raw is not None:
            try:
                value = parse(raw)
            except ValueError as exc:
                raise UsageError(f"bad value for {key}: {exc}") from None
        elif default is None:
            raise UsageError(f"missing required option --{key}")
        else:
            value = default(values) if callable(default) else default
        if key == "w0" and not 0.0 < value <= values["alpha"]:
            raise UsageError(f"bad value for w0: must lie in (0, alpha], got {value}")
        if args.command == "stream" and key in _SINGLE and len(value) != 1:
            raise UsageError(f"stream mode takes exactly one {_SINGLE[key]}")
        values[key] = value
    return values


def _canonical(command: str, values: dict[str, Any]) -> str:
    def text(v: Any) -> str:
        if isinstance(v, tuple):
            return ",".join(text(x) for x in v)
        return repr(v) if isinstance(v, float) else str(v)

    return "".join(f"{key} = {text(values[key])}\n" for key in _KEYS[command])


@contextmanager
def _opened(path: str | None, mode: str, default: IO[str]) -> Iterator[IO]:
    """The named file, closed on exit, or ``default`` (left open) when no path is
    given; in a binary ``mode``, ``default``'s byte buffer."""
    if not path:
        yield default.buffer if "b" in mode else default
        return
    with open(path, mode) as fh:
        yield fh


def _read_pvalues(fin: IO[bytes]) -> Iterator[float | ValueError]:
    """Each non-blank line's p-value, or the error naming a bad line, one line at a time.
    Lines are decoded as UTF-8; an undecodable byte is quoted as a ``\\udcXX`` escape.
    A byte-order mark is dropped at the start of the input only."""
    for lineno, line in enumerate(iter(fin.readline, b""), start=1):
        if lineno == 1:
            line = line.removeprefix(codecs.BOM_UTF8)
        text = line.decode("utf-8", "surrogateescape").strip()
        if not text:
            continue
        try:
            p: float | ValueError = validate_pvalue(text)
        except ValueError:
            p = ValueError(f"line {lineno}: not a p-value in [0, 1]: {text!r}")
        yield p


def _handle_sweep(args: argparse.Namespace, s: dict[str, Any]) -> int:
    from .simulation import DataModel, ProcedureSpec, SimConfig, grid, parse_model, sweep, write_csv

    procs = [
        ProcedureSpec(name, s["alpha"], s["w0"], s["lambda"], g)
        for name in s["procedure"]
        for g in s["gamma"]
    ]
    base = SimConfig(
        model=DataModel(parse_model(s["model"]), s["pi1"][0], s["T"]),
        procedure=procs[0],
        trials=s["trials"],
        seed=s["seed"],
    )
    rows = sweep(grid(base, s["pi1"], procs), jobs=s["jobs"])
    # opened only now, so that a failed sweep leaves an existing file as it was
    with _opened(args.out, "w", sys.stdout) as out:
        write_csv(rows, out, precision=s["precision"])
        return 0


def _same_file(fin: IO[bytes], path: str) -> bool:
    """Whether ``path`` is the regular file that ``fin`` reads, through any link."""
    try:
        st = os.fstat(fin.fileno())
        return stat.S_ISREG(st.st_mode) and os.path.samestat(st, os.stat(path))
    except OSError:  # no such path, or an input with no file descriptor
        return False


def _handle_stream(args: argparse.Namespace, s: dict[str, Any]) -> int:
    """Decide each line as ``observe`` would, through ``_decide`` (no record),
    and print it as bytes; a level pair is checked and formatted only when it
    differs from the last one (saffron's holds until a tick or a rejection)."""
    proc = make_procedure(
        s["procedure"][0], s["alpha"], s["w0"], gamma_mod.from_spec(s["gamma"][0]), s["lambda"]
    )
    fmt = f".{s['precision']}g"
    errors = 0
    pair = None
    # --out is opened last, so that a failed set-up leaves an existing file as it was
    with _opened(args.input, "rb", sys.stdin) as fin:
        if args.out and _same_file(fin, args.out):
            raise UsageError(f"--out names the input file: {args.out}")
        with _opened(args.out, "wb", sys.stdout) as out:
            out.write(f"{STREAM_HEADER}\n".encode())
            out.flush()
            # each decision is printed (and flushed) before the next input line is read
            for p in _read_pvalues(fin):
                if isinstance(p, ValueError):
                    print(f"error: {p}", file=sys.stderr)
                    errors += 1
                    continue
                index = proc.t
                alpha_t, lam_t, rejected, candidate = proc._decide(p)
                if (alpha_t, lam_t) != pair:
                    # the record's check and the "alpha,lambda," text, once per level pair
                    validate_levels(alpha_t, lam_t)
                    pair = alpha_t, lam_t
                    levels = f"{alpha_t:{fmt}},{lam_t:{fmt}},".encode()
                out.write(b"%d,%b%d,%d\n" % (index, levels, rejected, candidate))
                out.flush()
        return 2 if errors else 0


def _handle_offline(args: argparse.Namespace, s: dict[str, Any]) -> int:
    from . import offline as offline_mod

    with _opened(args.input, "rb", sys.stdin) as fin:
        pvalues = []
        for p in _read_pvalues(fin):
            if isinstance(p, ValueError):
                raise p
            pvalues.append(p)
    if not pvalues:
        raise ValueError("no p-values in input")

    if s["method"] == "bh":
        result = offline_mod.bh(pvalues, s["alpha"])
    else:
        result = offline_mod.storey_bh(pvalues, s["alpha"], s["lambda"])

    fmt = f".{s['precision']}g"
    with _opened(args.out, "w", sys.stdout) as out:
        print(f"threshold: {result.threshold:{fmt}}", file=sys.stderr)
        out.write(OFFLINE_HEADER + "\n")
        for i, p in enumerate(pvalues):
            out.write(f"{i + 1},{p:{fmt}},{int(i in result.rejected)}\n")
        return 0


_COMMANDS = {
    "sweep": ("run a Monte Carlo grid, emit CSV", _handle_sweep),
    "stream": ("decide p-values line by line", _handle_stream),
    "offline": ("batch step-up testing of a p-value file", _handle_offline),
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="onlinefdr", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, handler) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", help="flat key = value config file")
        p.add_argument("--out", help="output path (default: stdout)")
        for key in _KEYS[command]:
            p.add_argument(f"--{key}", metavar=key.upper())
        if command != "sweep":
            p.add_argument("--input", help="p-value file, one per line (default: stdin)")
        if command != "offline":
            p.add_argument(
                "--dump-config", action="store_true",
                help="print the canonical config instead of running",
            )
        p.set_defaults(handler=handler, dump_config=False)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        s = _settings(args)
        if args.dump_config:
            with _opened(args.out, "w", sys.stdout) as out:
                out.write(_canonical(args.command, s))
            return 0
        return args.handler(args, s)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
