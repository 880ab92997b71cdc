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
import functools
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
from .zonal import zonal_eval


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


def _emit(record, output):
    _write([_dumps(record)], output)


def _write(lines, output):
    text = "\n".join(lines) + "\n"
    if not output:
        sys.stdout.write(text)
        return
    try:
        with open(output, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise _UsageError(f"cannot write {output}: {exc}")


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


def _operator(args):
    """Z and the FracOrder of fracint-power, fracint-zonal and saigo, from
    --z or --z-file, --r, --alpha and the weights (identity by default)."""
    z = _spd_from_args(args)
    a = SpdMatrix(matrix_from_rows(args.weight_a)) \
        if args.weight_a is not None else SpdMatrix.identity(z.dim)
    b = SpdMatrix(matrix_from_rows(args.weight_b)) \
        if args.weight_b is not None else SpdMatrix.identity(args.r)
    return z, FracOrder(args.alpha, RectConfig(z.dim, args.r, a, b))


def _operator_fields(args, z, fv):
    """The fields the three operator records share: the closed-form value
    fv and the operator's arguments."""
    return {"sign": fv.sign,
            "det_exponent": fv.det_exponent,
            "log_magnitude": fv.log_magnitude if fv.sign != 0 else None,
            "value": fv.value(),
            "p": z.dim, "r": args.r, "alpha": args.alpha,
            "z_matrix": z.to_lists()}


# ---------------------------------------------------------------------------
# eval subcommands: each returns its record's fields, and _cmd_eval adds
# the schema and the op

def _gamma(args):
    return {"p": args.p, "alpha": args.alpha,
            "log_value": log_matrix_gamma(args.p, args.alpha)}


def _beta(args):
    return {"p": args.p, "alpha": args.alpha, "beta": args.beta,
            "log_value": log_matrix_beta(args.p, args.alpha, args.beta)}


def _pochhammer(args):
    part = Partition.coerce(args.k)
    log_mag, sign = signed_log_gen_pochhammer(args.a, part)
    return {"a": args.a, "partition": list(part.parts),
            "value": gen_pochhammer(args.a, part),
            "log_magnitude": log_mag if sign != 0 else None,
            "sign": sign}


def _zonal(args):
    part = Partition.coerce(args.k)
    z = _spd_from_args(args, args.eigs)
    return {"partition": list(part.parts),
            "eigenvalues": z.eigenvalues.tolist(),
            "value": zonal_eval(part, z)}


def _hyper(args):
    z = _spd_from_args(args, args.eigs)
    params = HyperParams(args.num, args.den)
    res = hyper_pfq(params, z, Truncation(k_max=args.kmax))
    return {"numerator": list(params.numerator),
            "denominator": list(params.denominator),
            "eigenvalues": z.eigenvalues.tolist(),
            "k_max": args.kmax,
            "value": res.value,
            "tail_estimate": res.tail_estimate,
            "ratio": res.ratio}


def _fracint_power(args):
    z, order = _operator(args)
    fv = frac_integral_power_closed(order, z, args.eta)
    return {**_operator_fields(args, z, fv), "eta": args.eta}


def _fracint_zonal(args):
    z, order = _operator(args)
    part = Partition.coerce(args.k)
    fv = frac_integral_zonal_closed(order, z, part)
    return {**_operator_fields(args, z, fv), "partition": list(part.parts)}


def _saigo(args):
    z, order = _operator(args)
    fv = saigo_power_closed(order, z, SaigoParams(args.a, args.b, args.c),
                            eta=args.eta, trunc=Truncation(k_max=args.kmax))
    return {**_operator_fields(args, z, fv), "eta": args.eta, "a": args.a,
            "b": args.b, "c": args.c, "k_max": args.kmax}


def _pathway(args):
    if (args.eigs is None) == (args.k is None):
        raise _UsageError("exactly one of --eigs or --k is required")
    if args.eigs is not None:
        return {"q": args.q, "eigenvalues": list(args.eigs),
                "value": pathway_det_limit(args.q, np.array(args.eigs))}
    part = Partition.coerce(args.k)
    return {"q": args.q, "partition": list(part.parts),
            "value": pathway_factor(args.q, part)}


def _cmd_eval(args):
    fields = _EVAL[args.subcommand][0](args)
    _emit({"schema": _SCHEMA, "op": args.subcommand, **fields}, args.output)
    return 0


# ---------------------------------------------------------------------------
# verify and sample

def _cmd_verify(args):
    report = run_suite(args.suite, samples=args.samples, seed=args.seed,
                       k_max=args.kmax, p=args.p, r1=args.r1, r2=args.r2)
    _emit(report, args.output)
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
    # entries are finite by construction or refused before this point (the
    # matrix gamma factor check, check_full_rank), as _sample_lines requires
    _write(_sample_lines(stack, args.kind, seed), args.output)
    return 0


def _sample_lines(stack, kind, seed):
    """The records of an (n, p, r) stack of finite floats, one JSON line
    each: {"entries", "index", "kind", "schema", "seed"}, the same bytes as
    _dumps of each record alone.

    json writes a finite float as its repr, so each distinct entry is
    formatted once and placed into one template for the shape.  The
    entries must be finite, because repr writes nan and inf where _dumps
    refuses them.  A square stack equal to its transpose bit for bit (every
    matrix-gamma and cone draw) formats only its upper triangle; bits,
    because -0.0 == 0.0 would let a mirrored zero lose its sign.
    """
    n, p, r = stack.shape
    cells = np.arange(p * r).reshape(p, r)
    bits = stack.view(np.uint64)
    if p == r and np.array_equal(bits, bits.transpose(0, 2, 1)):
        cells = np.minimum(cells, cells.T)
    distinct, slot = np.unique(cells.ravel(), return_inverse=True)
    m = distinct.size
    rows = "],[".join(",".join(f"{{{k}}}" for k in row)
                      for row in slot.reshape(p, r).tolist())
    rest = _dumps({"kind": kind, "schema": _SCHEMA, "seed": seed})[1:]
    fill = ('{{"entries":[[' + rows + ']],"index":{' + str(m) + '},'
            + rest.replace("{", "{{").replace("}", "}}")).format
    text = list(map(repr, stack.reshape(n, -1)[:, distinct].ravel().tolist()))
    return [fill(*text[k * m:k * m + m], k) for k in range(n)]


# ---------------------------------------------------------------------------
# flags: each is declared once, as (option, add_argument settings); a
# command lists its flags in --help order

def _variant(flag, **settings):
    """flag with some of its settings replaced."""
    return flag[0], {**flag[1], **settings}


_P = ("--p", dict(type=int, required=True))
_R = ("--r", dict(type=int, required=True))
_A = ("--a", dict(type=float, required=True))
_ALPHA = ("--alpha", dict(type=float, required=True))
_K = ("--k", dict(type=_csv_partition, required=True))
_EIGS = ("--eigs", dict(type=_csv_floats))
_KMAX = ("--kmax", dict(type=int, default=25))
_ETA = ("--eta", dict(type=float, default=0.0))
_MATRIX = (("--z", dict(type=_inline_matrix,
                        help="matrix as inline JSON rows")),
           ("--z-file", dict(help="path to a JSON matrix file")))
_WEIGHTS = (
    ("--weight-a", dict(type=_inline_matrix, help="left weight matrix A as "
                        "inline JSON (default identity)")),
    ("--weight-b", dict(type=_inline_matrix, help="right weight matrix B as "
                        "inline JSON (default identity)")))

_EVAL = {
    "gamma": (_gamma, [_P, _ALPHA]),
    "beta": (_beta, [_P, _ALPHA,
                     ("--beta", dict(type=float, required=True))]),
    "pochhammer": (_pochhammer, [
        _A, _variant(_K, help="partition as comma-separated parts, e.g. 2,1")]),
    "zonal": (_zonal, [
        _K, _variant(_EIGS, help="eigenvalues as comma-separated floats"),
        *_MATRIX]),
    "hyper": (_hyper, [
        ("--num", dict(type=_csv_floats, required=True,
                       help="numerator parameters")),
        ("--den", dict(type=_csv_floats, default=(),
                       help="denominator parameters")),
        _EIGS, _KMAX, *_MATRIX]),
    "fracint-power": (_fracint_power,
                      [_R, _ALPHA, _ETA, *_MATRIX, *_WEIGHTS]),
    "fracint-zonal": (_fracint_zonal, [_R, _ALPHA, _K, *_MATRIX, *_WEIGHTS]),
    "saigo": (_saigo, [
        _R, _ALPHA, _A, ("--b", dict(type=float, required=True)),
        ("--c", dict(type=float, required=True)), _ETA, _KMAX, *_MATRIX,
        *_WEIGHTS]),
    "pathway": (_pathway, [("--q", dict(type=float, required=True)), _EIGS,
                           _variant(_K, required=False)]),
}


# ---------------------------------------------------------------------------
# parser assembly

def _build_parser():
    """The parser and the list of its subcommand parsers."""
    # abbreviation is off at the top level so that subcommand flags such as
    # --c are never mistaken for a prefix of --config
    parser = _Parser(prog="mvfrac", allow_abbrev=False,
                     description="matrix-argument special functions and "
                                 "fractional integral operators")
    parser.add_argument("--config", help="key=value defaults file")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = []

    def new(parent, name, func, flags, **kw):
        sp = parent.add_parser(name, **kw)
        sp.set_defaults(func=func)
        sp.add_argument("--output",
                        help="write JSON to this path instead of stdout")
        for option, settings in flags:
            sp.add_argument(option, **settings)
        commands.append(sp)

    pe = sub.add_parser("eval", help="evaluate closed forms and series")
    pe_sub = pe.add_subparsers(dest="subcommand", required=True)
    for name, (_, flags) in _EVAL.items():
        new(pe_sub, name, _cmd_eval, flags)
    new(sub, "verify", _cmd_verify, [
        ("--suite", dict(required=True, choices=sorted(SUITES))),
        ("--samples", dict(type=int)), ("--seed", dict(type=int)),
        _variant(_KMAX, default=None), _variant(_P, required=False),
        ("--r1", dict(type=int)), ("--r2", dict(type=int))],
        help="run an oracle comparison suite")
    new(sub, "sample", _cmd_sample, [
        ("kind", dict(choices=["matrix-gamma", "rect-exponential",
                               "uniform-unit-cone"])),
        _P, ("--shape", dict(type=float)), _variant(_R, required=False),
        ("--n", dict(type=int, required=True)),
        ("--seed", dict(type=int, default=42))],
        help="draw seeded random matrices")
    return parser, commands


def _apply_config(path, commands):
    """Defaults for every subcommand from the key=value lines of the file
    at path; blank lines and # comments are ignored.  A key names a flag of
    some subcommand, with - read as _, and satisfies that flag where it is
    required.  Values stay strings so argparse applies the same conversions
    as for real flags."""
    keys = {action.dest for sp in commands for action in sp._actions
            if action.option_strings and action.dest != "help"}
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
                dest = key.strip().replace("-", "_")
                if dest not in keys:
                    raise _UsageError(
                        f"{path}:{lineno}: {key.strip()!r} is not a flag of "
                        f"any subcommand")
                defaults[dest] = value.strip()
    except OSError as exc:
        raise _UsageError(f"cannot read config {path}: {exc}")
    for sp in commands:
        sp.set_defaults(**defaults)
        for action in sp._actions:
            if action.required and action.dest in defaults:
                action.required = False


@functools.cache
def _shared_parsers():
    """The --config pre-parser and the parser, built on the first main call
    and reused by every later one.  A call that names a config file builds
    its own parser, because _apply_config changes defaults and required
    flags in place and they must not carry over to the next call."""
    pre = _Parser(prog="mvfrac", add_help=False, allow_abbrev=False)
    pre.add_argument("--config")
    return pre, _build_parser()[0]


def main(argv=None):
    pre, parser = _shared_parsers()
    known, _ = pre.parse_known_args(argv)
    try:
        if known.config:
            parser, commands = _build_parser()
            _apply_config(known.config, commands)
        args = parser.parse_args(argv)
        # a non-finite result is reported as a DegenerateInputError record,
        # so numpy's floating-point warnings would only repeat it on stderr
        with np.errstate(all="ignore"):
            return args.func(args)
    except _UsageError as exc:
        sys.stderr.write(f"mvfrac: error: {exc}\n")
        return 64
    except MvfracError as exc:
        _emit({"schema": _SCHEMA, "error": type(exc).__name__,
               "message": str(exc)}, None)
        return 2


if __name__ == "__main__":
    sys.exit(main())
