"""Command-line front end: evaluation, sampling, and verification.

Every run prints machine-readable JSON, one record per line, each carrying
{"schema": "mvfrac/1"}.  Identical invocations produce byte-identical output.
Exit codes: 0 success / all checks passed, 1 a verification check failed,
2 a domain precondition was violated (a JSON error object is printed),
64 malformed flags or inputs.

An optional config file (key=value lines, # comments) supplies defaults for
any flag; explicit flags always win.
"""

import argparse
import json
import sys

import numpy as np

from .errors import DegenerateInputError, MvfracError
from .fracops import (
    FracOrder,
    SaigoParams,
    frac_integral_power_closed,
    frac_integral_zonal_closed,
    saigo_power_closed,
)
from .gammacalc import (
    Partition,
    gen_pochhammer,
    log_matrix_beta,
    log_matrix_gamma,
    pathway_factor,
    signed_log_gen_pochhammer,
)
from .hyperseries import HyperParams, Truncation, hyper_pfq, pathway_det_limit
from .matsample import (
    MatrixGammaSpec,
    sample_matrix_gamma,
    sample_rect_exponential,
    sample_uniform_spd_unit,
)
from .spdcore import RectConfig, SpdMatrix, matrix_from_rows
from .verify import _SCHEMA, SUITES, run_suite
from .zonal import fetch_table, zonal_eval


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # usage problems exit 64, not argparse's default 2, which is reserved
    # for domain errors
    def error(self, message):
        self.exit(64, f"{self.prog}: error: {message}\n")


def _csv_floats(text):
    try:
        return tuple(float(x) for x in text.split(",") if x.strip() != "")
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated float list: {text!r}")


def _csv_partition(text):
    try:
        return tuple(int(x) for x in text.split(",") if x.strip() != "")
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated integer list: {text!r}")


def _inline_matrix(text):
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise argparse.ArgumentTypeError(f"matrix is not valid JSON: {exc}")


def _dumps(obj):
    try:
        return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                          allow_nan=False)
    except ValueError as exc:
        raise DegenerateInputError(f"result is not finite: {exc}") from exc


def _emit(records, output):
    _write([_dumps(r) for r in records], output)


def _write(lines, output):
    text = "\n".join(lines) + "\n"
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _spd_from_args(args, eigs=None):
    """Matrix argument from exactly one of --z inline JSON, --z-file path
    and, for the commands that take it, --eigs (a diagonal matrix)."""
    given = [flag for flag, value in (("--z", args.z), ("--eigs", eigs),
                                      ("--z-file", args.z_file))
             if value is not None]
    if len(given) > 1:
        raise _UsageError(f"{' and '.join(given)} are mutually exclusive")
    if eigs is not None:
        return SpdMatrix.diagonal(eigs)
    rows = args.z
    if args.z_file is not None:
        try:
            with open(args.z_file) as fh:
                rows = json.load(fh)
        except OSError as exc:
            raise _UsageError(f"cannot read {args.z_file}: {exc}")
        except (json.JSONDecodeError, RecursionError) as exc:
            raise _UsageError(f"{args.z_file} is not valid JSON: {exc}")
    elif rows is None:
        raise _UsageError("one of --z or --z-file is required")
    return SpdMatrix(matrix_from_rows(rows))


def _weights_config(args, p, r):
    a = SpdMatrix(matrix_from_rows(args.weight_a)) \
        if args.weight_a is not None else SpdMatrix.identity(p)
    b = SpdMatrix(matrix_from_rows(args.weight_b)) \
        if args.weight_b is not None else SpdMatrix.identity(r)
    return RectConfig(p, r, a, b)


def _frac_record(op, fv, echo):
    rec = {
        "schema": _SCHEMA,
        "op": op,
        "sign": fv.sign,
        "det_exponent": fv.det_exponent,
        "log_magnitude": fv.log_magnitude if fv.sign != 0 else None,
        "value": fv.value(),
    }
    rec.update(echo)
    return rec


# ---------------------------------------------------------------------------
# eval subcommands

def _cmd_eval_gamma(args):
    rec = {"schema": _SCHEMA, "op": "gamma", "p": args.p, "alpha": args.alpha,
           "log_value": log_matrix_gamma(args.p, args.alpha)}
    _emit([rec], args.output)
    return 0


def _cmd_eval_beta(args):
    rec = {"schema": _SCHEMA, "op": "beta", "p": args.p, "alpha": args.alpha,
           "beta": args.beta,
           "log_value": log_matrix_beta(args.p, args.alpha, args.beta)}
    _emit([rec], args.output)
    return 0


def _cmd_eval_pochhammer(args):
    part = Partition.coerce(args.k)
    log_mag, sign = signed_log_gen_pochhammer(args.a, part)
    rec = {"schema": _SCHEMA, "op": "pochhammer", "a": args.a,
           "partition": list(part.parts),
           "value": gen_pochhammer(args.a, part),
           "log_magnitude": log_mag if sign != 0 else None,
           "sign": sign}
    _emit([rec], args.output)
    return 0


def _cmd_eval_zonal(args):
    part = Partition.coerce(args.k)
    z = _spd_from_args(args, args.eigs)
    table = fetch_table(part.weight, z.dim)
    rec = {"schema": _SCHEMA, "op": "zonal", "partition": list(part.parts),
           "eigenvalues": z.eigenvalues.tolist(),
           "value": zonal_eval(part, z, table)}
    _emit([rec], args.output)
    return 0


def _cmd_eval_hyper(args):
    z = _spd_from_args(args, args.eigs)
    params = HyperParams(args.num, args.den if args.den else ())
    trunc = Truncation(k_max=args.kmax)
    res = hyper_pfq(params, z, trunc)
    rec = {"schema": _SCHEMA, "op": "hyper",
           "numerator": list(params.numerator),
           "denominator": list(params.denominator),
           "eigenvalues": z.eigenvalues.tolist(),
           "k_max": args.kmax,
           "value": res.value,
           "tail_estimate": res.tail_estimate,
           "ratio": res.ratio}
    _emit([rec], args.output)
    return 0


def _cmd_eval_fracint_power(args):
    z = _spd_from_args(args)
    cfg = _weights_config(args, z.dim, args.r)
    order = FracOrder(args.alpha, cfg)
    fv = frac_integral_power_closed(order, z, args.eta)
    rec = _frac_record("fracint-power", fv, {
        "p": z.dim, "r": args.r, "alpha": args.alpha, "eta": args.eta,
        "z_matrix": z.to_lists()})
    _emit([rec], args.output)
    return 0


def _cmd_eval_fracint_zonal(args):
    z = _spd_from_args(args)
    cfg = _weights_config(args, z.dim, args.r)
    order = FracOrder(args.alpha, cfg)
    part = Partition.coerce(args.k)
    fv = frac_integral_zonal_closed(order, z, part)
    rec = _frac_record("fracint-zonal", fv, {
        "p": z.dim, "r": args.r, "alpha": args.alpha,
        "partition": list(part.parts), "z_matrix": z.to_lists()})
    _emit([rec], args.output)
    return 0


def _cmd_eval_saigo(args):
    z = _spd_from_args(args)
    cfg = _weights_config(args, z.dim, args.r)
    order = FracOrder(args.alpha, cfg)
    fv = saigo_power_closed(order, z, SaigoParams(args.a, args.b, args.c),
                            eta=args.eta, trunc=Truncation(k_max=args.kmax))
    rec = _frac_record("saigo", fv, {
        "p": z.dim, "r": args.r, "alpha": args.alpha, "eta": args.eta,
        "a": args.a, "b": args.b, "c": args.c, "k_max": args.kmax,
        "z_matrix": z.to_lists()})
    _emit([rec], args.output)
    return 0


def _cmd_eval_pathway(args):
    if (args.eigs is None) == (args.k is None):
        raise _UsageError("exactly one of --eigs or --k is required")
    if args.eigs is not None:
        value = pathway_det_limit(args.q, np.array(args.eigs))
        rec = {"schema": _SCHEMA, "op": "pathway", "q": args.q,
               "eigenvalues": list(args.eigs), "value": value}
    else:
        part = Partition.coerce(args.k)
        rec = {"schema": _SCHEMA, "op": "pathway", "q": args.q,
               "partition": list(part.parts),
               "value": pathway_factor(args.q, part)}
    _emit([rec], args.output)
    return 0


# ---------------------------------------------------------------------------
# verify and sample

def _cmd_verify(args):
    report = run_suite(args.suite, samples=args.samples, seed=args.seed,
                       k_max=args.kmax, p=args.p, r1=args.r1, r2=args.r2)
    _emit([report], args.output)
    return 0 if report["pass"] else 1


def _cmd_sample(args):
    seed = args.seed
    if args.kind == "matrix-gamma":
        if args.shape is None:
            raise _UsageError("sample matrix-gamma requires --shape")
        stack = sample_matrix_gamma(MatrixGammaSpec(args.p, args.shape),
                                    args.n, seed)
    elif args.kind == "rect-exponential":
        if args.r is None:
            raise _UsageError("sample rect-exponential requires --r")
        stack = sample_rect_exponential(
            RectConfig.with_identity_weights(args.p, args.r), args.n, seed)
    else:
        stack = sample_uniform_spd_unit(args.p, args.n, seed)
    # The records are {"entries", "index", "kind", "schema", "seed"} in
    # sorted key order.  One encoder pass over the whole stack, cut where
    # one matrix ends and the next begins ("]],[[", which no number
    # contains), gives each record's entries as encoding it alone would.
    entries = _dumps(stack.tolist())[3:-3].split("]],[[")
    rest = _dumps({"kind": args.kind, "schema": _SCHEMA, "seed": seed})[1:]
    _write([f'{{"entries":[[{e}]],"index":{i},{rest}'
            for i, e in enumerate(entries)], args.output)
    return 0


# ---------------------------------------------------------------------------
# parser assembly

def _add_output(sp):
    sp.add_argument("--output", help="write JSON to this path instead of stdout")


def _add_matrix_flags(sp, flag="z"):
    sp.add_argument(f"--{flag}", type=_inline_matrix,
                    help="matrix as inline JSON rows")
    sp.add_argument(f"--{flag}-file", help="path to a JSON matrix file")


def _add_weight_flags(sp):
    sp.add_argument("--weight-a", type=_inline_matrix,
                    help="left weight matrix A as inline JSON (default identity)")
    sp.add_argument("--weight-b", type=_inline_matrix,
                    help="right weight matrix B as inline JSON (default identity)")


def _build_parser(config_defaults):
    # abbreviation is off at the top level so that subcommand flags such as
    # --c are never mistaken for a prefix of --config
    parser = _Parser(prog="mvfrac", allow_abbrev=False,
                     description="matrix-argument special functions and "
                                 "fractional integral operators")
    parser.add_argument("--config", help="key=value defaults file")
    sub = parser.add_subparsers(dest="command", required=True)
    all_subparsers = []

    def new(parent, name, func, **kw):
        sp = parent.add_parser(name, **kw)
        sp.set_defaults(func=func)
        _add_output(sp)
        all_subparsers.append(sp)
        return sp

    pe = sub.add_parser("eval", help="evaluate closed forms and series")
    pe_sub = pe.add_subparsers(dest="subcommand", required=True)

    sp = new(pe_sub, "gamma", _cmd_eval_gamma)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--alpha", type=float, required=True)

    sp = new(pe_sub, "beta", _cmd_eval_beta)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--alpha", type=float, required=True)
    sp.add_argument("--beta", type=float, required=True)

    sp = new(pe_sub, "pochhammer", _cmd_eval_pochhammer)
    sp.add_argument("--a", type=float, required=True)
    sp.add_argument("--k", type=_csv_partition, required=True,
                    help="partition as comma-separated parts, e.g. 2,1")

    sp = new(pe_sub, "zonal", _cmd_eval_zonal)
    sp.add_argument("--k", type=_csv_partition, required=True)
    sp.add_argument("--eigs", type=_csv_floats,
                    help="eigenvalues as comma-separated floats")
    _add_matrix_flags(sp)

    sp = new(pe_sub, "hyper", _cmd_eval_hyper)
    sp.add_argument("--num", type=_csv_floats, required=True,
                    help="numerator parameters")
    sp.add_argument("--den", type=_csv_floats, default=(),
                    help="denominator parameters")
    sp.add_argument("--eigs", type=_csv_floats)
    sp.add_argument("--kmax", type=int, default=25)
    _add_matrix_flags(sp)

    sp = new(pe_sub, "fracint-power", _cmd_eval_fracint_power)
    sp.add_argument("--r", type=int, required=True)
    sp.add_argument("--alpha", type=float, required=True)
    sp.add_argument("--eta", type=float, default=0.0)
    _add_matrix_flags(sp)
    _add_weight_flags(sp)

    sp = new(pe_sub, "fracint-zonal", _cmd_eval_fracint_zonal)
    sp.add_argument("--r", type=int, required=True)
    sp.add_argument("--alpha", type=float, required=True)
    sp.add_argument("--k", type=_csv_partition, required=True)
    _add_matrix_flags(sp)
    _add_weight_flags(sp)

    sp = new(pe_sub, "saigo", _cmd_eval_saigo)
    sp.add_argument("--r", type=int, required=True)
    sp.add_argument("--alpha", type=float, required=True)
    sp.add_argument("--a", type=float, required=True)
    sp.add_argument("--b", type=float, required=True)
    sp.add_argument("--c", type=float, required=True)
    sp.add_argument("--eta", type=float, default=0.0)
    sp.add_argument("--kmax", type=int, default=25)
    _add_matrix_flags(sp)
    _add_weight_flags(sp)

    sp = new(pe_sub, "pathway", _cmd_eval_pathway)
    sp.add_argument("--q", type=float, required=True)
    sp.add_argument("--eigs", type=_csv_floats)
    sp.add_argument("--k", type=_csv_partition)

    sp = new(sub, "verify", _cmd_verify,
             help="run an oracle comparison suite")
    sp.add_argument("--suite", required=True, choices=sorted(SUITES))
    sp.add_argument("--samples", type=int)
    sp.add_argument("--seed", type=int)
    sp.add_argument("--kmax", type=int)
    sp.add_argument("--p", type=int)
    sp.add_argument("--r1", type=int)
    sp.add_argument("--r2", type=int)

    sp = new(sub, "sample", _cmd_sample, help="draw seeded random matrices")
    sp.add_argument("kind", choices=["matrix-gamma", "rect-exponential",
                                     "uniform-unit-cone"])
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--shape", type=float)
    sp.add_argument("--r", type=int)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--seed", type=int, default=42)

    if config_defaults:
        for spx in all_subparsers:
            spx.set_defaults(**config_defaults)
            # a key in the config satisfies a required flag
            for action in spx._actions:
                if action.required and action.dest in config_defaults:
                    action.required = False
    return parser


def _load_config(path):
    """key=value lines; blank lines and # comments ignored.  Values stay
    strings so argparse applies the same conversions as for real flags."""
    defaults = {}
    try:
        with open(path) as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise _UsageError(
                        f"{path}:{lineno}: expected key=value, got {line!r}")
                key, _, value = line.partition("=")
                defaults[key.strip().replace("-", "_")] = value.strip()
    except OSError as exc:
        raise _UsageError(f"cannot read config {path}: {exc}")
    return defaults


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    pre = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    pre.add_argument("--config")
    known, _ = pre.parse_known_args(argv)
    try:
        config_defaults = _load_config(known.config) if known.config else {}
        parser = _build_parser(config_defaults)
        args = parser.parse_args(argv)
        # a non-finite result is reported as a DegenerateInputError record,
        # so numpy's floating-point warnings would only repeat it on stderr
        with np.errstate(all="ignore"):
            return args.func(args)
    except _UsageError as exc:
        sys.stderr.write(f"mvfrac: error: {exc}\n")
        return 64
    except MvfracError as exc:
        _emit([{"schema": _SCHEMA, "error": type(exc).__name__,
                "message": str(exc)}], None)
        return 2


if __name__ == "__main__":
    sys.exit(main())
