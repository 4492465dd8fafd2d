"""Command-line interface.

Verb-noun grammar, node sets as comma lists in Bourbaki numbering:

    magicsq weyl order --type E6
    magicsq weyl cosets --type E6 --parabolic 1,3,4,5,6
    magicsq weyl double-cosets --type E6 --left 3,4,5 --right 1,3,4,5,6 --star opposition
    magicsq poly eval-rational --num t^8-1,t^12-1,t^9+1 --den t-1,t^4-1,t^3+1
    magicsq poly divides --p 1+t^3+t^5+t^8 --q 1+t^3 [--semiring]
    magicsq poincare --type 2E6 --variety 1,6 [--conormed]
    magicsq jinv poly --group 2E6 --j 1,0,0
    magicsq jinv enumerate --group E7
    magicsq cgmb skeleton --ambient E6 --kernel 3,4,5 --variety 2
    magicsq cgmb check --fixture henke-y1
    magicsq cgmb blocks
    magicsq qform af-e7 --q definite --o definite --gamma +,+,+
    magicsq tables magic | conditions --group 2E6 | tits-index --rost not-pure-symbol
    magicsq verify [--filter 'dims-*']

The grammar is written down once, in ``_COMMANDS``, which also names
each command's handler.  Every command is a new process, so a
well-formed argv, every option named in full, is read straight from
that table (``_parse``) without importing argparse.  Anything else
(help, an abbreviation, a value starting with ``-`` given as a separate
word, an error) goes to argparse, built from the same table and only for
the command it was invoked with (``_build_parser``), so help and usage
errors read as if every command had been built.  A value that starts
with ``-`` takes the ``=`` form: ``--gamma=-,+,+``, ``--p=-1+t``.
``--name=--`` is a usage error (argparse reads the ``--`` as the end of
the options and stores an empty list).

A handler (``_cmd_*``) takes only the parsed arguments, which carry the
resolved ``--format`` and the loaded ``--fixtures`` document, and returns
what its command prints, a JSON payload or text, paired with the exit
code where that can be 1.  ``main`` writes it; no handler writes stdout.

Every command prints json; ``verify`` also prints text (its default) and
the full ``tables magic`` listing also prints csv.  Any other ``--format``
is a usage error.  JSON is written by ``_emit_json``, byte for byte as
``json.dumps(obj, sort_keys=True, indent=2)`` writes it, without importing
json.  This module alone shapes the JSON: the other modules return
values and records, a handler puts record fields in as they are
(``_fields``) and names the keys, and ``_emit_json`` writes a node
frozenset as its sorted list and an enum member as its value.  The
pinned tables are records in ``magictables`` and ``jinv``,
and the built-in fixtures a Python literal (``_data``): no built-in
command loads json.  Only ``--fixtures PATH`` reads a JSON document.

Exit codes: 0 success, 1 verification failure, 2 usage error, 120 stdout
closed by its reader or not writable (a full disk).  JSON output is
byte-deterministic for fixed arguments, except the ``runtime_ms``
wall-time field of each ``verify`` check.

``main`` returns the exit code and never ends the process: the tests and
the benchmark tracer call it in-process.  The process entry point is
``run`` (``python -m magicsq``, ``python -m magicsq.cli`` and the console
script), which flushes stdout and stderr after ``main`` and ends with
``os._exit``.  That skips interpreter finalization, which clears every
module and runs the cyclic GC over everything imported: from the return
of ``main`` to the parent's ``wait4``, ``poincare --type E7 --variety 2``
took a median of 11.6 ms with the normal exit and 1.1 ms with
``os._exit`` (30 runs each, shared 2-core x86-64 VM, CPython 3.11.7),
where the whole command takes about 46 ms.  magicsq registers no atexit
handler, starts no thread and keeps no file open for writing, and the one
child process it starts, ``verify``'s fuzz worker, is reaped before
``main`` returns, so once the two streams are flushed finalization has
nothing left to do.  Help and usage errors, which argparse ends with
``SystemExit``, take the same exit with its code, and ``main`` writes
their text itself.  ``magicsq --help`` took a median of 56.7 ms, against
66.7 ms through finalization (30 interleaved runs each, same VM; faster
in 27 of 30).
"""

from __future__ import annotations

import enum
import os
import sys
from collections.abc import Sequence
from functools import lru_cache
from types import SimpleNamespace

from . import cgmb, jinv, magictables, poincare, polyring, qform, rootsys, verify, weyl

_USAGE_ERROR = 2


def _emit_json(obj) -> None:
    """Write obj and a newline, as ``json.dumps(obj, sort_keys=True, indent=2)``.

    Takes dicts with str keys, lists, tuples, and str, int, float, bool
    and None of exactly those types, and the two other types records
    carry: a frozenset, written as its sorted list, and an enum member,
    written as its value.  Anything else, a set or a subclass of str, int
    or float included, raises TypeError.  json writes indented output
    with its pure-Python encoder, which is slower than this writer.
    """
    out: list[str] = []
    _json_value(obj, "\n", out.append)
    out.append("\n")
    sys.stdout.write("".join(out))


def _json_str(s: str) -> str:
    # json writes printable ASCII other than '"' and '\\' as it is
    if s.isascii() and s.isprintable() and '"' not in s and "\\" not in s:
        return '"' + s + '"'
    import json

    return json.dumps(s)


@lru_cache(maxsize=256)
def _json_key(key: str) -> str:
    # a payload repeats a few field names, once per record
    return _json_str(key) + ": "


def _json_float(x: float) -> str:
    if x != x:
        return "NaN"
    if x == _INF:
        return "Infinity"
    if x == -_INF:
        return "-Infinity"
    return float.__repr__(x)


_INF = float("inf")
# exact type -> its json text
_SCALARS = {
    str: _json_str,
    int: int.__repr__,
    bool: lambda b: "true" if b else "false",
    type(None): lambda _: "null",
    float: _json_float,
}


def _json_value(obj, nl: str, put) -> None:
    # nl is a newline and the indent of the line obj starts on
    scalar = _SCALARS.get(type(obj))
    if scalar is not None:
        put(scalar(obj))
    elif isinstance(obj, dict):
        if not obj:
            put("{}")
            return
        inner = nl + "  "
        sep, comma = "{" + inner, "," + inner
        for key, value in sorted(obj.items()):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            head = sep + _json_key(key)
            scalar = _SCALARS.get(type(value))
            if scalar is not None:
                put(head + scalar(value))
            else:
                put(head)
                _json_value(value, inner, put)
            sep = comma
        put(nl + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            put("[]")
            return
        inner = nl + "  "
        sep, comma = "[" + inner, "," + inner
        for item in obj:
            scalar = _SCALARS.get(type(item))
            if scalar is not None:
                put(sep + scalar(item))
            else:
                put(sep)
                _json_value(item, inner, put)
            sep = comma
        put(nl + "]")
    elif isinstance(obj, frozenset):  # a node set
        _json_value(sorted(obj), nl, put)
    elif isinstance(obj, enum.Enum):
        _json_value(obj.value, nl, put)
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _ints(text: str, what: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise ValueError(f"{what} must be comma-separated integers, got {text!r}")


def _nodes(text: str) -> frozenset[int]:
    return frozenset(_ints(text, "node list"))


def _poly_list(text: str) -> list[polyring.IntPoly]:
    return [polyring.parse_poly(part) for part in text.split(",")]


def _poly_payload(p: polyring.IntPoly) -> dict:
    # coefficients as decimal strings, so a reader's float parser keeps them exact
    return {"coeffs": [str(c) for c in p.coeffs], "degree": p.degree,
            "pretty": polyring.format_poly(p), "value_at_1": p(1)}


def _fields(rec, rename=None) -> dict:
    """A record's fields as they are, keyed by name or by ``rename[name]``."""
    rename = rename or {}
    return {rename.get(n, n): getattr(rec, n) for n in type(rec).__slots__}


# MagicCell field -> payload key, in csv column order
_MAGIC = {"row_label": "row", "col_label": "col", "group_type": "group",
          "invariant_degree": "degree"}
# TitsConstructionRow fields printed together under "condition"
_CONDITION = ("condition_lhs", "condition_relation", "condition_rhs", "invariant_degree")


def _gamma(text: str) -> tuple[int, int, int]:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError("gamma needs exactly three entries, e.g. +,+,-")
    out = []
    for p in parts:
        p = p.strip()
        if p in ("+", "+1", "1"):
            out.append(1)
        elif p in ("-", "-1"):
            out.append(-1)
        else:
            raise ValueError(f"gamma entries must be +/- signs, got {p!r}")
    return tuple(out)  # type: ignore[return-value]


def _algebra(kind: str, word: str) -> qform.CompositionAlgebraR:
    if word not in ("definite", "split"):
        raise ValueError(f"algebra flavor must be 'definite' or 'split', got {word!r}")
    return qform.CompositionAlgebraR(kind, word == "definite")


def _star(rs: rootsys.RootSystem, args) -> rootsys.DiagramAut | None:
    """The automorphism ``--star`` names: the opposition involution, or None."""
    return rootsys.opposition_involution(rs) if args.star == "opposition" else None


def _cmd_weyl(args):
    rs = rootsys.build_root_system(rootsys.CartanType.from_string(args.type))
    if args.verb == "order":
        return {"type": args.type, "order": weyl.weyl_order(rs)}
    if args.verb == "cosets":
        parabolic = _nodes(args.parabolic)
        # every coefficient from t^0 to the top is positive, so the table
        # lists each length up to the degree
        poly = weyl.quotient_poly(rs, parabolic)
        return {
            "type": args.type,
            "parabolic": parabolic,
            "count": poly(1),
            "max_length": poly.degree,
            "length_counts": list(enumerate(poly.coeffs)),
        }
    left = _nodes(args.left)
    right = _nodes(args.right)
    cells = weyl.double_cosets(rs, left, right, _star(rs, args))
    return {
        "type": args.type,
        "left": left,
        "right": right,
        "star": args.star,
        "cells": [
            {
                "length": c.length,
                "orbit_size": c.orbit_size,
                "star_invariant": c.star_invariant,
            }
            for c in cells
        ],
    }


def _cmd_poly(args):
    if args.verb == "eval-rational":
        result = polyring.eval_rational(_poly_list(args.num), _poly_list(args.den))
        return _poly_payload(result)
    p = polyring.parse_poly(args.p)
    q = polyring.parse_poly(args.q)
    ok, quot = (polyring.divides_semiring if args.semiring else polyring.divides_ring)(p, q)
    payload = {"divides": ok, "semiring": args.semiring}
    if quot is not None:
        payload["quotient"] = _poly_payload(quot)
    return payload


def _cmd_poincare(args):
    ctype = rootsys.CartanType.from_string(args.type)
    fv = poincare.FlagVariety(ctype, _nodes(args.variety))
    poly = (poincare.conormed_poincare if args.conormed else poincare.poincare_poly)(fv)
    # the longest minimal coset rep is sigma-fixed, so both polynomials
    # have degree dim X
    return dict(_poly_payload(poly), type=args.type, variety=fv.parabolic_type,
                conormed=args.conormed, dim=poly.degree)


def _cmd_jinv(args):
    if args.verb == "table":
        out = {}
        for label in jinv.supported_labels():
            prof = jinv.max_profile(label)
            out[label] = {"degrees": prof.degrees, "caps": prof.caps}
        return {"prime": jinv.PRIME, "max_profiles": out}
    if args.verb == "poly":
        prof = jinv.profile(args.group, _ints(args.j, "value vector"))
        return dict(_poly_payload(jinv.upper_motive_poly(prof)), group=prof.group_label,
                    j=prof.values, degrees=prof.degrees)
    profiles = jinv.enumerate_admissible(args.group)
    return {
        "group": jinv.normalize_label(args.group),
        "degrees": profiles[0].degrees,
        "caps": profiles[0].caps,
        "constraints_pinned": jinv.has_pinned_chain(args.group),
        "values": [p.values for p in profiles],
    }


def _cmd_cgmb(args):
    if args.verb == "skeleton":
        rs = rootsys.build_root_system(rootsys.CartanType.from_string(args.ambient))
        kernel = _nodes(args.kernel)
        variety = rs.check_nodes(_nodes(args.variety))
        target = rs.node_set() - variety
        return {
            "ambient": args.ambient,
            "kernel": kernel,
            "variety": variety,
            "levi": target,
            "star": args.star,
            "shifts": cgmb.tate_skeleton(rs, kernel, target, _star(rs, args)),
        }
    if args.verb == "check":
        result = verify.run_fixture(args.fixture, args.fixtures_doc)
        return result, 0 if result["pass"] else 1
    blocks = [dict(_fields(b), poly=_poly_payload(b.poly)) for b in cgmb.karpenko_blocks()]
    return {"blocks": blocks}


def _cmd_qform(args):
    form = qform.af_killing_form_e7(
        _algebra(qform.QUATERNION, args.q),
        _algebra(qform.OCTONION, args.o),
        _gamma(args.gamma),
    )
    return {
        "dim": form.dim,
        "signature": form.signature,
        "witt_index": form.witt_index,
        "anisotropic": form.is_anisotropic,
    }


def _cmd_tables(args):
    if args.verb == "magic":
        if args.row or args.col:
            if not (args.row and args.col):
                raise ValueError("--row and --col must be given together")
            return _fields(magictables.query_magic_square(args.row, args.col), _MAGIC)
        if args.format == "csv":
            lines = [",".join(_MAGIC.values())]
            lines += [",".join(str(getattr(c, f)) for f in _MAGIC)
                      for c in magictables.magic_square()]
            return "".join(line + "\n" for line in lines)
        return {"cells": [_fields(c, _MAGIC) for c in magictables.magic_square()]}
    if args.verb == "conditions":
        rows = magictables.condition_rows()
        if args.group:
            rows = (magictables.conditions_for(args.group),)
        # the parabolic column prints as its label, "any" or "P_1,6"
        payload = [
            dict(_fields(r), parabolic=r.parabolic_label,
                 binary_motive_dim=r.binary_motive_dim)
            for r in rows
        ]
        return {"rows": payload}
    if args.verb == "tits-index":
        cases = magictables.tits_index_cases()
        if args.rost:
            cases = (magictables.tits_index_for_rost(args.rost),)
        return {"cases": [_fields(c) for c in cases]}
    rows = [_fields(r) for r in magictables.tits_construction_rows()]
    for row in rows:
        row["condition"] = {f.removeprefix("condition_"): row.pop(f) for f in _CONDITION}
    return {"rows": rows}


def _cmd_verify(args):
    report = verify.run_verify(args.filter)
    if args.format == "text":
        return report.to_text() + "\n", report.exit_code
    checks = [dict(_fields(c, {"passed": "pass"}), runtime_ms=round(c.runtime_ms, 3))
              for c in report.checks]
    return {"all_pass": report.all_pass, "checks": checks}, report.exit_code


_REQUIRED = {"required": True}
_FLAG = {"action": "store_true", "default": False}
_STARS = ("none", "opposition")

# The command-line grammar: argparse's add_argument keywords per option.
_TOP_OPTIONS = {
    "--format": {
        "choices": ("json", "text", "csv"),
        "default": None,
        "help": "output format (default json; verify defaults to text)",
    },
    "--fixtures": {"default": None, "help": "path to an alternative fixtures document"},
}
# command -> (help line, verb -> options, handler); a command without
# verbs has the single verb None
_COMMANDS = {
    "weyl": (
        "Weyl group computations",
        {
            "order": {"--type": _REQUIRED},
            "cosets": {"--type": _REQUIRED, "--parabolic": _REQUIRED},
            "double-cosets": {
                "--type": _REQUIRED,
                "--left": _REQUIRED,
                "--right": _REQUIRED,
                "--star": {"choices": _STARS, "default": "none"},
            },
        },
        _cmd_weyl,
    ),
    "poly": (
        "integer polynomial operations",
        {
            "eval-rational": {
                "--num": {"required": True, "help": "comma list of factors"},
                "--den": {"required": True, "help": "comma list of factors"},
            },
            "divides": {"--p": _REQUIRED, "--q": _REQUIRED, "--semiring": _FLAG},
        },
        _cmd_poly,
    ),
    "poincare": (
        "flag variety Poincare polynomials",
        {
            None: {
                "--type": _REQUIRED,
                "--variety": {"required": True, "help": "circled nodes, e.g. 1,6"},
                "--conormed": _FLAG,
            }
        },
        _cmd_poincare,
    ),
    "jinv": (
        "J-invariant profiles",
        {
            "poly": {
                "--group": _REQUIRED,
                "--j": {"required": True, "help": "value vector, e.g. 1,0,0"},
            },
            "enumerate": {"--group": _REQUIRED},
            "table": {},
        },
        _cmd_jinv,
    ),
    "cgmb": (
        "double-coset motive skeletons",
        {
            "skeleton": {
                "--ambient": _REQUIRED,
                "--kernel": _REQUIRED,
                "--variety": {"required": True, "help": "circled nodes of the variety"},
                "--star": {"choices": _STARS, "default": "opposition"},
            },
            "check": {"--fixture": _REQUIRED},
            "blocks": {},
        },
        _cmd_cgmb,
    ),
    "qform": (
        "real diagonal quadratic forms",
        {
            "af-e7": {
                "--q": {"required": True, "help": "definite | split"},
                "--o": {"required": True, "help": "definite | split"},
                "--gamma": {"required": True, "help": "three signs, e.g. +,+,-"},
            }
        },
        _cmd_qform,
    ),
    "tables": (
        "pinned classification tables",
        {
            "magic": {"--row": {"default": None}, "--col": {"default": None}},
            "conditions": {"--group": {"default": None}},
            "tits-index": {"--rost": {"default": None}},
            "constructions": {},
        },
        _cmd_tables,
    ),
    "verify": (
        "run the pinned verification suite",
        {None: {"--filter": {"default": None, "help": "glob over check names"}}},
        _cmd_verify,
    ),
}


def _read_options(argv: Sequence[str], i: int, options: dict, ns: dict) -> int | None:
    """Read ``--name VALUE``, ``--name=VALUE`` and ``--flag`` from argv[i:] into ns.

    Stops at the first token not starting with ``-`` and returns its
    index; returns None on anything argparse might read otherwise: a name
    not spelled out in full, a separate value starting with ``-``, the
    value ``=--``, a flag given a value, a bad choice or a missing
    required option.
    """
    given = {}
    while i < len(argv) and argv[i].startswith("-"):
        name, eq, value = argv[i].partition("=")
        kw = options.get(name)
        if kw is None:
            return None
        if kw.get("action") == "store_true":
            if eq:
                return None
            value = True
        elif not eq:
            i += 1
            if i == len(argv) or argv[i].startswith("-"):
                return None
            value = argv[i]
        elif value == "--":  # argparse drops it and stores an empty list
            return None
        if value not in kw.get("choices", (value,)):
            return None
        given[name] = value  # a repeated option keeps its last value
        i += 1
    for name, kw in options.items():
        if name in given:
            value = given[name]
        elif kw.get("required"):
            return None
        else:
            value = kw.get("default")
        ns[name[2:].replace("-", "_")] = value
    return i


def _parse(argv: Sequence[str]) -> SimpleNamespace | None:
    """The namespace argparse would return for a well-formed argv, else None.

    Accepts ``(--format F | --fixtures P)* COMMAND [VERB] options`` with
    every name spelled out; help, abbreviations and anything argparse
    would reject are left to ``_build_parser``, which alone prints usage.
    """
    ns: dict = {}
    i = _read_options(argv, 0, _TOP_OPTIONS, ns)
    if i is None or i == len(argv) or argv[i] not in _COMMANDS:
        return None
    ns["command"] = argv[i]
    verbs = _COMMANDS[argv[i]][1]
    verb = None
    i += 1
    if None not in verbs:
        if i == len(argv) or argv[i] not in verbs:
            return None
        ns["verb"] = verb = argv[i]
        i += 1
    if _read_options(argv, i, verbs[verb], ns) != len(argv):
        return None
    return SimpleNamespace(**ns)


def _build_parser(argv: Sequence[str]):
    """The argparse parser for argv: only the commands argv names get their options.

    Every command is registered with its help line, so help and "invalid
    choice" errors list all of them.  argparse matches a command name
    exactly, so the invoked command appears verbatim in argv and is
    populated; the others are never parsed, and building them is most of
    a command's parser cost.
    """
    import argparse  # only help and usage errors need it

    top = argparse.ArgumentParser(
        prog="magicsq",
        description="Exact Weyl, polynomial, and quadratic-form computations "
        "for the magic-square groups.",
    )
    for name, kw in _TOP_OPTIONS.items():
        top.add_argument(name, **kw)
    sub = top.add_subparsers(dest="command", required=True)
    for name, (help_line, verbs, _) in _COMMANDS.items():
        parser = sub.add_parser(name, help=help_line)
        if name not in argv:
            continue
        if None in verbs:
            parsers = {None: parser}
        else:
            verb_sub = parser.add_subparsers(dest="verb", required=True)
            parsers = {verb: verb_sub.add_parser(verb) for verb in verbs}
        for verb, options in verbs.items():
            for opt, kw in options.items():
                parsers[verb].add_argument(opt, **kw)
    return top


def _parse_with_argparse(argv: Sequence[str]):
    """argparse's namespace for argv; help and usage errors raise SystemExit.

    argparse's text is taken into buffers and written here, as every
    other output is: argparse drops the OSError of its own write, so an
    unbuffered stdout that cannot be written would otherwise exit 0.
    """
    import contextlib
    import io

    parser = _build_parser(argv)
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            args = parser.parse_args(argv)
            for name, value in vars(args).items():
                if isinstance(value, list):  # ``--name=--``: argparse stores []
                    parser.error(f"argument --{name}: expected one argument")
    finally:
        # only what argparse wrote: an empty write to /dev/full fails too
        for stream, text in ((sys.stdout, out.getvalue()), (sys.stderr, err.getvalue())):
            if text:
                stream.write(text)
    return args


def _formats(args) -> tuple[str, ...]:
    """The output formats the parsed command prints, its default first."""
    if args.command == "verify":
        return ("text", "json")
    if args.command == "tables" and args.verb == "magic" and not (args.row or args.col):
        return ("json", "csv")
    return ("json",)


def main(argv: Sequence[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _parse(argv) or _parse_with_argparse(argv)
    try:
        formats = _formats(args)
        args.format = args.format or formats[0]
        if args.format not in formats:
            what = " ".join(filter(None, (args.command, getattr(args, "verb", None))))
            if getattr(args, "row", None) or getattr(args, "col", None):
                what += " with --row/--col"
            raise ValueError(f"{what} prints {' or '.join(formats)}, not {args.format}")
        args.fixtures_doc = verify.load_fixture_doc(args.fixtures) if args.fixtures else None
        out = _COMMANDS[args.command][2](args)
        out, code = out if isinstance(out, tuple) else (out, 0)
        if isinstance(out, str):
            sys.stdout.write(out)
        else:
            _emit_json(out)
        return code
    except (ValueError, ArithmeticError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return _USAGE_ERROR


# CPython's exit code when flushing stdout at exit fails
_CLOSED_PIPE = 120


def run() -> None:
    """Run ``main`` as the whole process and end it without finalization.

    A reader that closes stdout early (``| head``) raises BrokenPipeError
    from a write in ``main`` or from the flush; the process then exits 120
    and prints nothing.  Any other OSError from a write or the flush (a
    full disk, ``> /dev/full``) also exits 120, after one line on stderr.
    An OSError naming a file is not about the output: it comes from a
    layer first executed inside ``main`` (``magicsq`` registers them
    lazily) whose file can no longer be read, and keeps its traceback.
    argparse ends help (code 0) and usage errors (code 2) with
    ``SystemExit``; they end here like a return from ``main``, and ``main``
    writes their text itself, so the rules above hold for help too.  Any
    other exception, and a ``SystemExit`` whose code is not an int, leave
    through the normal exit.
    """
    try:
        try:
            code = main()
        except SystemExit as exc:
            if not isinstance(exc.code, int):
                raise
            code = exc.code
        sys.stdout.flush()
        sys.stderr.flush()
    except BrokenPipeError:
        os._exit(_CLOSED_PIPE)  # the unwritten output goes with the process
    except OSError as exc:
        if exc.filename is not None:
            raise
        try:
            sys.stderr.write(f"magicsq: cannot write output: {exc.strerror}\n")
            sys.stderr.flush()
        except OSError:
            pass  # stderr is the stream that failed
        os._exit(_CLOSED_PIPE)
    os._exit(code)


if __name__ == "__main__":
    run()
