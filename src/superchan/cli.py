"""Command-line front end.

Subcommands: validate, apply, compose, covariance, example, each parsed in
one argparse pass; compose holds one parsed JSON tree at a time.  Exit codes:
0 ok, 2 invalid input, 3 a check failed.  All outputs are deterministic
given the flags (and seed, where sampling is involved).
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import math
import sys
from importlib import resources
from typing import NamedTuple

import numpy as np

from . import jsonio
from .channels import (
    amplitude_damping,
    bit_flip,
    classical_channel_extract,
    compose_channels,
    holevo_werner,
    pauli_channel,
    validate_channel,
)
from .dephasing import dephasing_validate
from .do import do_validate
from .du import du_cp_check, du_tp_check
from .jsonio import SchemaError
from .linalg import DEFAULT_TOL
from .positions import compose_tables
from .pauli import (pauli_apply_to_channel, pauli_du_check, pauli_induced_bistochastic,
                    pauli_super_choi, pauli_validate)
from .superchannels import apply_to_channel, compose_superchannels, validate_superchannel

OK, INVALID_INPUT, CHECK_FAILED = 0, 2, 3
_STATUS = {OK: "ok", INVALID_INPUT: "invalid-input", CHECK_FAILED: "check-failed"}


class CommandResult(NamedTuple):
    status: int
    report: dict
    artifacts: list | tuple = ()  # (path, json-dict) pairs


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (complex, np.complexfloating)):
        return repr(complex(value))
    return str(value)


def _emit(result: CommandResult) -> int:
    lines = [f"status: {_STATUS[result.status]}"]
    lines += [f"{key}: {_fmt(value)}" for key, value in result.report.items()]
    lines += [f"wrote: {path}" for path, _ in result.artifacts]
    print("\n".join(lines))
    return result.status


def _read(path) -> dict:
    try:
        obj = jsonio.load_json(path)
    except FileNotFoundError:
        raise SchemaError(f"no such file: {path}")
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: parse error at line {exc.lineno}, column {exc.colno}")
    except RecursionError:  # json, on a file orjson refuses, nested past its limit
        raise SchemaError(f"{path}: nested too deeply to parse")
    return obj


def _load(path, kind: str | None = None) -> tuple[str, object]:
    """(kind, parsed object) of the JSON file at path, which must hold a
    ``kind`` object, or any superchannel form when kind is None."""
    obj = _read(path)
    found = jsonio.detect_kind(obj)
    if kind is not None and found != kind:
        raise SchemaError(f"{path} holds a {found} object, not {kind}")
    if kind is None and found == "channel":
        raise SchemaError(f"{path} holds a {found}, expected a superchannel form")
    return found, jsonio.from_json(obj, found)


def default_du_params():
    """The documented valid d=2 parameter set shipped with the package."""
    text = resources.files("superchan.data").joinpath("default_du_d2.json").read_text()
    return jsonio.params_from_json(json.loads(text), "du")


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def cmd_validate(args) -> CommandResult:
    kind, p = _load(args.path, args.kind)
    tol = args.tol
    report: dict = {"kind": kind}
    if kind == "channel":
        verdict = validate_channel(p, tol)
        report.update(verdict.report())
        ok = verdict.ok
    elif kind in ("superchannel", "do"):  # the dense Choi or the nine tables
        verdict = (validate_superchannel if kind == "superchannel" else do_validate)(p, tol)
        report.update(verdict.report())
        report.update(verdict.tp.report())
        ok = verdict.ok
    elif kind == "du":
        cp_verdict = du_cp_check(p, tol)
        report["hermiticity_violation"] = cp_verdict.hermiticity_deviation
        ok = cp_verdict.hermiticity_deviation <= tol  # the tables are finite: never NaN
        if ok:
            tp_verdict = du_tp_check(p, tol)
            report.update(tp_verdict.report())
            report.update(cp_verdict.report())
            ok = tp_verdict.ok and cp_verdict.ok
    elif kind == "dephasing":
        verdict = dephasing_validate(p, tol)
        report.update(verdict.report())
        ok = verdict.ok
    else:  # pauli: the closed forms on the table, no Choi
        verdict = pauli_validate(p, tol)
        du_verdict = pauli_du_check(p, tol)
        m = pauli_induced_bistochastic(p)
        report.update(verdict.report())
        report["du_covariant"] = du_verdict.ok
        report["bistochastic_deviation"] = float(
            max(np.abs(m.sum(axis=0) - 1).max(), np.abs(m.sum(axis=1) - 1).max())
        )
        ok = verdict.ok
    return CommandResult(OK if ok else CHECK_FAILED, report)


# ---------------------------------------------------------------------------
# apply
# ---------------------------------------------------------------------------


def cmd_apply(args) -> CommandResult:
    kind, s = _load(args.superchannel)
    ch = _load(args.channel, "channel")[1]
    out = (pauli_apply_to_channel if kind == "pauli" else apply_to_channel)(s, ch)
    report = {"superchannel_kind": kind}
    for label, c in (("input", ch), ("output", out)):
        table = classical_channel_extract(c)
        report[f"{label}_classical"] = json.dumps(table.tolist())
    artifacts = []
    if args.out:
        artifacts.append((args.out, jsonio.channel_to_json(out)))
    return CommandResult(OK, report, artifacts)


# ---------------------------------------------------------------------------
# compose
# ---------------------------------------------------------------------------


def cmd_compose(args) -> CommandResult:
    """Compose two objects of kind args.kind, holding one parsed JSON tree at
    a time.  What detect_kind or from_json raises waits its turn, so errors
    come as if both files were read first: read errors, identify errors, the
    kind mismatch, then parse errors, file 1's before file 2's in each."""
    kinds, parsed = [], []  # per file: kind and object, or what raised instead
    for path in (args.path1, args.path2):
        obj = _read(path)
        found = p = None
        try:
            found = jsonio.detect_kind(obj)
            p = jsonio.from_json(obj, found) if found == args.kind else None
        except Exception as exc:  # any: it is raised below in its turn
            import traceback
            traceback.clear_frames(exc.__traceback__)  # its frames would hold the tree
            found, p = (exc, None) if found is None else (found, exc)
        del obj  # the op's largest object: freed before the next file and compose
        kinds.append(found)
        parsed.append(p)
    mismatch = None if kinds == [args.kind] * 2 else SchemaError(
        f"compose {args.kind}: inputs are {kinds[0]} and {kinds[1]}")
    for held in (*kinds, mismatch, *parsed):
        if isinstance(held, Exception):
            raise held
    p1, p2 = parsed
    if args.kind in jsonio.TABLE_KINDS:
        compose, to_json = compose_tables, jsonio.params_to_json
    elif args.kind == "superchannel":
        compose, to_json = compose_superchannels, jsonio.superchannel_to_json
    else:  # channel
        compose, to_json = compose_channels, jsonio.channel_to_json
    doc = to_json(compose(p1, p2))
    report = {"kind": args.kind}
    artifacts = [(args.out, doc)] if args.out else []
    if not artifacts:
        report["result"] = json.dumps(doc, default=jsonio.array_as_list)
    return CommandResult(OK, report, artifacts)


# ---------------------------------------------------------------------------
# covariance
# ---------------------------------------------------------------------------


def cmd_covariance(args) -> CommandResult:
    # imported here, as in cmd_example: only the sampling commands pay for it
    from .covariance import superchannel_covariance_check

    kind, parsed = _load(args.superchannel)
    # table kinds go as they are: diagonal groups rephase their entries
    s = pauli_super_choi(parsed) if kind == "pauli" else parsed
    verdict = superchannel_covariance_check(s, args.group, n=args.samples, seed=args.seed,
                                            tol=args.tol)
    report = {"superchannel_kind": kind, "group": args.group}
    report.update(verdict.report())
    return CommandResult(OK if verdict.ok else CHECK_FAILED, report)


# ---------------------------------------------------------------------------
# example
# ---------------------------------------------------------------------------


def cmd_example(args) -> CommandResult:
    tol = args.tol
    report: dict = {"example": args.name}
    artifacts = []

    if args.name == "holevo-werner":
        d = args.d
        ch = holevo_werner(d)
        from .covariance import holevo_werner_superchannel

        s = holevo_werner_superchannel(d)
        channel, superchannel = validate_channel(ch, tol), validate_superchannel(s, tol)
        report.update({f"channel_{k}": v for k, v in channel.report().items()})
        report.update({f"superchannel_{k}": v for k, v in superchannel.report().items()})
        ok = channel.ok and superchannel.ok
        if args.out:
            artifacts.append((args.out, jsonio.channel_to_json(ch)))
        return CommandResult(OK if ok else CHECK_FAILED, report, artifacts)

    params = _load(args.superchannel, "du")[1] if args.superchannel else default_du_params()
    if params.d != 2:
        raise SchemaError("qubit examples need a d=2 parameter set")
    a4 = params.t4("A")
    d4 = params.t4("D")

    if args.name == "amplitude-damping":
        gamma = args.gamma
        out = apply_to_channel(params, amplitude_damping(gamma))
        out4 = out.choi4()
        a_vals = [out4[0, 0, 0, 0].real, out4[0, 1, 0, 1].real,
                  out4[1, 0, 1, 0].real, out4[1, 1, 1, 1].real]
        for k, v in zip(("a1", "a2", "a3", "a4"), a_vals):
            report[k] = v
        report["a1_plus_a2"] = a_vals[0] + a_vals[1]
        report["a3_plus_a4"] = a_vals[2] + a_vals[3]
        root = float(np.sqrt(1 - gamma))
        report["corner"] = complex(out4[0, 0, 1, 1])
        report["corner_expected"] = complex(d4[0, 0, 1, 1] * root)
        ok = (
            abs(report["a1_plus_a2"] - 1) <= tol
            and abs(report["a3_plus_a4"] - 1) <= tol
            and abs(report["corner"] - report["corner_expected"]) <= tol
        )
    else:  # bit-flip or pauli
        # Both inputs are Pauli channels; w_id and w_x weigh the identity and
        # flip parts of the classical output, w_corner and w_center scale D.
        if args.name == "bit-flip":
            p = args.p
            ch = bit_flip(p)
            w_id, w_x, w_corner, w_center = 1 - p, p, 1 - p, p
        else:
            ch = pauli_channel(args.p)
            p0, p1, p2, p3 = args.p
            w_id, w_x, w_corner, w_center = p0 + p3, p1 + p2, p0 - p3, p1 - p2
            report["input_corner"] = w_corner
            report["input_center"] = w_center
        out = apply_to_channel(params, ch)
        out4 = out.choi4()
        ok = True
        for i in range(2):
            for j in range(2):
                formula = (a4[i, j, 0, 0] + a4[i, j, 1, 1]) * w_id + (
                    a4[i, j, 0, 1] + a4[i, j, 1, 0]
                ) * w_x
                actual = out4[i, j, i, j].real
                report[f"p_{i + 1}{j + 1}"] = formula
                ok = ok and abs(actual - formula) <= tol
        report["corner"] = complex(out4[0, 0, 1, 1])
        report["corner_expected"] = complex(d4[0, 0, 1, 1] * w_corner)
        report["center"] = complex(out4[0, 1, 1, 0])
        report["center_expected"] = complex(d4[0, 1, 1, 0] * w_center)
        ok = (
            ok
            and abs(report["corner"] - report["corner_expected"]) <= tol
            and abs(report["center"] - report["center_expected"]) <= tol
        )

    report["output_is_channel"] = validate_channel(out, tol).ok
    ok = report["output_is_channel"] and ok
    if args.out:
        artifacts.append((args.out, jsonio.channel_to_json(out)))
    return CommandResult(OK if ok else CHECK_FAILED, report, artifacts)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process.  parse_args leaves it as it
    is and returns a fresh Namespace per call; every default is immutable."""
    parser = argparse.ArgumentParser(
        prog="superchan",
        description="Validate, apply, compose and covariance-test quantum "
        "superchannels stored as JSON.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_tol(p):
        p.add_argument("--tol", type=float, default=DEFAULT_TOL, help="tolerance")

    p = sub.add_parser("validate", help="run the validity checks for one object")
    p.add_argument("kind", choices=("channel", "superchannel", "du", "do", "dephasing", "pauli"))
    p.add_argument("path")
    add_tol(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("apply", help="apply a superchannel to a channel")
    p.add_argument("superchannel")
    p.add_argument("channel")
    p.add_argument("--out", help="write the output channel JSON here")
    p.set_defaults(func=cmd_apply)

    p = sub.add_parser("compose", help="compose two objects of the same kind")
    p.add_argument("kind", choices=("du", "do", "dephasing", "superchannel", "channel"))
    p.add_argument("path1")
    p.add_argument("path2")
    p.add_argument("--out", help="write the composed JSON here")
    p.set_defaults(func=cmd_compose)

    p = sub.add_parser("covariance", help="sampled group-conjugation invariance test")
    p.add_argument("superchannel")
    p.add_argument("--group", required=True, choices=("du", "do", "haar", "conj-haar", "mixed"))
    p.add_argument("--samples", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    add_tol(p)
    p.set_defaults(func=cmd_covariance)

    p = sub.add_parser("example", help="reproduce a worked qubit example")
    p.add_argument("name", choices=("amplitude-damping", "bit-flip", "pauli", "holevo-werner"))
    p.add_argument("--gamma", type=float, default=0.3, help="damping parameter")
    p.add_argument("--p", type=float, nargs="+", default=(0.2,),
                   help="flip probability, or four Pauli weights")
    p.add_argument("--d", type=int, default=2, help="dimension (holevo-werner)")
    p.add_argument("--super", dest="superchannel", help="du parameter JSON to apply")
    p.add_argument("--out", help="write the output channel JSON here")
    add_tol(p)
    p.set_defaults(func=cmd_example)

    parser.commands = sub.choices  # each command's name -> its parser, for parse_argv
    return parser


def parse_argv(argv: list[str]) -> argparse.Namespace:
    """build_parser().parse_args(argv) in one pass: after a command, the top
    parser's only action hands the rest to the command's parser.  Other argvs
    and leftovers go through the top parser, which writes each error text."""
    parser = build_parser()
    command = parser.commands.get(argv[0]) if argv else None
    if command is not None:
        args, extras = command.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
        if not extras:
            return args
    return parser.parse_args(argv)


def _check_args(args) -> None:
    """Reject flag values that parse but that no command can use."""
    tol = getattr(args, "tol", None)
    if tol is not None and not (math.isfinite(tol) and tol >= 0):
        raise SchemaError(f"--tol must be finite and non-negative, got {tol!r}")
    if args.command == "example":
        if args.name == "bit-flip":
            if len(args.p) != 1:
                raise SchemaError("bit-flip takes one probability")
            args.p = args.p[0]
        elif args.name == "pauli" and len(args.p) != 4:
            raise SchemaError("pauli takes four probabilities")


def main(argv=None) -> int:
    """Run one command and return its exit status.

    After the flags parse in one pass (parse_argv), the command runs with
    Python's cyclic garbage collector paused, and the collector is switched
    back on when main returns or raises, if it was on when main was called.
    A command builds no reference cycles, so a collection during it could
    free nothing; it would only scan the parsed JSON trees, still alive.
    """
    args = parse_argv(sys.argv[1:] if argv is None else list(argv))
    collecting = gc.isenabled()
    gc.disable()
    try:
        _check_args(args)
        result = args.func(args)
        for path, doc in result.artifacts:  # written before the report is printed
            jsonio.dump_json(doc, path)
    # OSError: an unreadable or unwritable path; MemoryError: a size (such as
    # --samples) that asks for more memory than there is
    except (SchemaError, ValueError, OSError, MemoryError) as exc:
        print("status: invalid-input")
        print(f"error: {str(exc) or type(exc).__name__}")
        return INVALID_INPUT
    finally:
        if collecting:
            gc.enable()
    return _emit(result)


if __name__ == "__main__":
    sys.exit(main())
