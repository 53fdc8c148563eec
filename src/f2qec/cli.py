"""Command-line front door.

One executable with subcommands that wire the library together: code
construction and inspection, schedule validation, circuit emission,
Monte Carlo runs, standalone decoding, and report rendering.  All
randomness flows from explicit --seed flags, so identical invocations
produce identical outputs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import experiment as ex
from . import protocol as pr
from .code_factory import build_25_4_3, build_34_4_3, build_generalized
from .css_code import CssCode, distance, permutation_logical_action
from .decoder import DecodeProblem, bp_osd, logical_correction
from .f2linalg import vector_from_bits, vector_to_bits
from .stab_sim import cycles_from_text

DEFAULT_THREADS_ENV = "F2QEC_THREADS"


def _fail(msg: str) -> int:
    print(json.dumps({"error": msg}), file=sys.stderr)
    return 1


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse with usage and type errors raised for main to report as JSON."""

    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


def _number(kind, minimum=None):
    """argparse type: an ASCII int or float (see experiment.parse_number), at least minimum."""
    def parse(text: str):
        try:
            value = ex.parse_number(kind, text)
        except ValueError:
            value = None
        if value is None or (minimum is not None and value < minimum):
            bound = "" if minimum is None else f" >= {minimum}"
            raise argparse.ArgumentTypeError(f"expected an ASCII {kind.__name__}{bound}, "
                                             f"got {text!r}")
        return value
    return parse


_NON_NEGATIVE = _number(int, 0)
_POSITIVE = _number(int, 1)


def _shot_pair(text: str) -> tuple[int, int]:
    """argparse type: 'Nz,Nx', two non-negative shot counts."""
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected Nz,Nx, got {text!r}")
    return _NON_NEGATIVE(parts[0]), _NON_NEGATIVE(parts[1])


def _load_json(path: str, parse, what: str):
    """parse(JSON content of path), with a wrongly shaped document a ValueError."""
    with open(path) as fh:
        obj = json.load(fh)
    try:
        return parse(obj)
    except (KeyError, TypeError, AttributeError) as exc:
        raise ValueError(f"malformed {what} file {path}: {exc!r}") from None
    except ValueError as exc:
        raise ValueError(f"{what} file {path}: {exc}") from None


def _load_code(path: str) -> CssCode:
    return _load_json(path, CssCode.from_json, "code")


def _is_int_list(v) -> bool:
    """A JSON list of integers; true and false are not integers here."""
    return isinstance(v, list) and all(type(t) is int for t in v)


def _schedule_from_json(raw) -> pr.Schedule:
    if not all(_is_int_list(order) for key in ("x", "z") for order in raw[key]):
        raise ValueError("schedule orders must be lists of qubit indices")
    return pr.Schedule(tuple(map(tuple, raw["x"])), tuple(map(tuple, raw["z"])))


def _threads_from_env() -> int | None:
    """The F2QEC_THREADS thread count, or None when the variable is unset."""
    raw = os.environ.get(DEFAULT_THREADS_ENV)
    if raw is None:
        return None
    try:
        return _POSITIVE(raw)
    except argparse.ArgumentTypeError as exc:
        raise ValueError(f"{DEFAULT_THREADS_ENV}: {exc}") from None


def _cmd_build_code(args) -> int:
    if args.family == "paper2543":
        code = build_25_4_3()
    elif args.family == "hgp":
        code = build_34_4_3()
    else:
        code = build_generalized(args.l, args.c)
    with open(args.out, "w") as fh:
        json.dump(code.to_json(), fh, indent=1, sort_keys=True)
    print(f"wrote {code.name} ({code.n} qubits, k={code.k}) to {args.out}")
    return 0


def _cmd_distance(args) -> int:
    code = _load_code(args.code)
    dx, dz = distance(code, args.wmax)
    fmt = lambda d: str(d) if d is not None else f">{args.wmax}"  # noqa: E731
    print(f"({fmt(dx)}, {fmt(dz)})")
    return 0


def _cmd_logical_action(args) -> int:
    code = _load_code(args.code)
    perm = cycles_from_text(args.perm, code.n)
    action = permutation_logical_action(code, perm)
    cnots = action.cnot_pairs()
    print(json.dumps({
        "x_action": action.x_matrix.row_strings(),
        "z_action": action.z_matrix.row_strings(),
        "cnots": None if cnots is None else [list(p) for p in cnots],
        "identity": action.is_identity(),
    }, indent=1))
    return 0


def _cmd_validate_schedule(args) -> int:
    code = _load_code(args.code)
    if args.schedule:
        sched = _load_json(args.schedule, _schedule_from_json, "schedule")
    else:
        sched = pr.zigzag_schedule(code)
    report = pr.validate_schedule(code, sched)
    print(json.dumps({
        "ok": report.ok,
        "violations": [list(v) for v in report.violations],
    }, indent=1))
    return 0 if report.ok else 2


def _cmd_emit_circuit(args) -> int:
    circ, _ = ex.build_pipeline(ex.RunConfig(mode=args.mode, l=args.l, c=args.c), args.basis)
    with open(args.out, "w") as fh:
        fh.write(circ.to_text())
    rep = pr.circuit_report(circ)
    print(f"wrote {args.mode}/{args.basis} circuit to {args.out}: "
          f"{rep['data_qubits']} data, {rep['ancilla_qubits']} ancilla, "
          f"{rep['two_qubit_gates']} two-qubit gates")
    return 0


def _cmd_run_ghz(args) -> int:
    if not os.path.exists(args.config):
        return _fail(f"config file not found: {args.config}")
    cfg = ex.RunConfig.from_file(args.config)
    overrides = {}
    if args.mode:
        overrides["mode"] = args.mode
    if args.basis_shots:
        overrides["shots_z"], overrides["shots_x"] = args.basis_shots
    if args.seed is not None:
        overrides["seed"] = args.seed
    threads = args.threads if args.threads is not None else _threads_from_env()
    if threads is not None:
        overrides["threads"] = threads
    if overrides:
        cfg = ex.RunConfig.from_dict({**cfg.to_dict(), **overrides})
    summary = ex.run(cfg, out_dir=args.out)
    print(ex.report({cfg.mode: summary}, "text"))
    return 0


def _cmd_decode(args) -> int:
    code = _load_code(args.code)
    h = code.hz if args.basis == "z" else code.hx
    priors = (args.prior,) * h.cols
    out_lines = []
    with open(args.syndromes) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError:
                row = None
            bits = row.get("syndrome") if isinstance(row, dict) else None
            if not _is_int_list(bits) or len(bits) != h.rows or set(bits) - {0, 1}:
                raise ValueError(f"{args.syndromes} line {lineno}: expected "
                                 f'{{"syndrome": [...]}} with {h.rows} bits')
            syndrome = vector_from_bits(bits)
            result = bp_osd(DecodeProblem(h, priors, syndrome),
                            iters=args.bp_iters, depth=args.osd_depth)
            mask = logical_correction(code, result.error_estimate, args.basis)
            out_lines.append(json.dumps({
                "syndrome": bits,
                "estimate": vector_to_bits(result.error_estimate, h.cols),
                "logical_mask": vector_to_bits(mask, code.k),
                "converged": result.converged,
                "method": result.method,
            }))
    with open(args.out, "w") as fh:
        fh.write("\n".join(out_lines) + "\n")
    print(f"decoded {len(out_lines)} syndromes to {args.out}")
    return 0


def _cmd_report(args) -> int:
    summaries = {}
    for mode in ex.MODES:
        path = os.path.join(args.dir, mode, "summary.json")
        if os.path.exists(path):
            summaries[mode] = _load_json(path, ex.RunSummary.from_json, "summary")
    if not summaries:
        return _fail(f"no summaries under {args.dir}")
    print(ex.report(summaries, args.format))
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="f2qec", description="quantum LDPC GHZ workbench")
    sub = p.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build-code", help="construct a code and write it as JSON")
    b.add_argument("--family", required=True, choices=["paper2543", "hgp", "generalized"])
    b.add_argument("--l", type=_NON_NEGATIVE, default=3)
    b.add_argument("--c", type=_NON_NEGATIVE, default=1)
    b.add_argument("--out", required=True)
    b.set_defaults(func=_cmd_build_code)

    d = sub.add_parser("distance", help="exhaustive distance search up to a weight cap")
    d.add_argument("code")
    d.add_argument("--wmax", type=_NON_NEGATIVE, required=True)
    d.set_defaults(func=_cmd_distance)

    la = sub.add_parser("logical-action",
                        help="logical CNOT action of a qubit permutation")
    la.add_argument("code")
    la.add_argument("--perm", required=True,
                    help="cycle notation, e.g. '(0 4)(1 3)'")
    la.set_defaults(func=_cmd_logical_action)

    vs = sub.add_parser("validate-schedule",
                        help="check a CNOT schedule for distance-reducing hook faults")
    vs.add_argument("code")
    vs.add_argument("--schedule", help="JSON file {x: [...], z: [...]}; default zigzag")
    vs.set_defaults(func=_cmd_validate_schedule)

    ec = sub.add_parser("emit-circuit", help="write a GHZ pipeline in the text IR")
    ec.add_argument("--mode", required=True, choices=["physical", "logical", "generalized"])
    ec.add_argument("--basis", required=True, choices=["z", "x"])
    ec.add_argument("--l", type=_NON_NEGATIVE, default=3)
    ec.add_argument("--c", type=_NON_NEGATIVE, default=1)
    ec.add_argument("--out", required=True)
    ec.set_defaults(func=_cmd_emit_circuit)

    rg = sub.add_parser("run-ghz", help="Monte Carlo GHZ experiment from a config file")
    rg.add_argument("--config", required=True)
    rg.add_argument("--mode")
    rg.add_argument("--basis-shots", type=_shot_pair, help="Nz,Nx")
    rg.add_argument("--seed", type=_number(int))
    rg.add_argument("--threads", type=_POSITIVE,
                    help=f"worker processes; default ${DEFAULT_THREADS_ENV}, else the config")
    rg.add_argument("--out", help="output directory for summary and shot archive")
    rg.set_defaults(func=_cmd_run_ghz)

    dc = sub.add_parser("decode", help="decode a JSONL stream of syndromes")
    dc.add_argument("--code", required=True)
    dc.add_argument("--basis", required=True, choices=["z", "x"])
    dc.add_argument("--syndromes", required=True)
    dc.add_argument("--out", required=True)
    dc.add_argument("--prior", type=_number(float), default=0.01)
    dc.add_argument("--bp-iters", type=_NON_NEGATIVE, default=10)
    dc.add_argument("--osd-depth", type=_NON_NEGATIVE, default=14)
    dc.set_defaults(func=_cmd_decode)

    rp = sub.add_parser("report", help="render summaries from a run directory")
    rp.add_argument("dir")
    rp.add_argument("--format", default="text", choices=["text", "json", "csv"])
    rp.set_defaults(func=_cmd_report)
    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (_UsageError, OSError, ValueError, KeyError) as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
