"""Command-line front end.

Loads channel documents, runs comparisons and lattice operations, and emits
JSON certificates (or CSV tables for grid-shaped payloads).  Exit status:
0 when the queried relation holds or the operation succeeded, 1 when the
relation does not hold, 2 on usage or validation errors, 3 on an internal
error (the relation was not decided).  Errors are reported as a one-line
JSON object on standard error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from importlib import import_module
from itertools import chain

import numpy as np

from .numerics import _number_array

__all__ = ["ChannelDocument", "load_document", "run", "main"]


# The family modules are imported only once a command or a document names
# one, so a process loads just the family it works on.  Conventions are
# therefore functions of the family module: two of them are its constants.
def _dmc_conventions(dmc):
    return [
        "decisions are deterministic: Wolfe's min-norm-point corral, "
        "each step priced exactly with ties to the lowest index",
        "witnesses replay as: sum of weights * (input-degraded, output-degraded channel)",
    ]


def _noise_conventions(noise):
    return [noise.ORDER_CONVENTION]


def _phase_conventions(phase):
    return [
        "strict = cannot be undone by any further phase degradation",
        "a null (worst) channel is excluded from the strictness question",
    ]


def _lgc_conventions(lgc):
    return [lgc.PADDING_CONVENTION]


def _ensemble_conventions(lgc):
    return [
        lgc.PADDING_CONVENTION,
        "ensemble comparisons assume the two ensembles share a common copula",
    ]


# Exceptions that mean the input or the invocation was bad (exit 2); any
# other exception is an internal failure (exit 3).
_INVALID_INPUT = (ValueError, KeyError, TypeError, OSError)


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


@dataclass(frozen=True)
class ChannelDocument:
    """One loaded channel file: payload plus optional metadata block."""

    kind: str
    payload: object
    name: str = ""
    description: str = ""


def _family(name: str):
    return import_module(f"{__package__}.{name}")


def _loader(family: str, parser: str):
    """Parser ``family.parser``, importing the family on its first document."""

    def load(obj: dict):
        return getattr(_family(family), parser)(obj)

    return load


_LOADERS = {
    "dmc": _loader("dmc", "from_json_dict"),
    "kfunction": _loader("noise", "from_json_dict"),
    "torus": _loader("phase", "from_json_dict"),
    "lgc": _loader("lgc", "from_json_dict"),
    "lgc_ensemble": _loader("lgc", "ensemble_from_json_dict"),
}


def _read_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        obj = json.load(handle)
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: expected a JSON object")
    return obj


def load_document(path: str) -> ChannelDocument:
    """Load any supported channel document, dispatching on its type tag."""
    obj = _read_json(path)
    kind = obj.get("type")
    # A tag that is not a string (a list, say) is unknown, not unhashable.
    loader = _LOADERS.get(kind) if isinstance(kind, str) else None
    if loader is None:
        raise ValueError(f"{path}: unknown document type {kind!r}")
    meta = obj.get("metadata", {}) if isinstance(obj.get("metadata"), dict) else {}
    return ChannelDocument(
        kind=kind,
        payload=loader(obj),
        name=str(meta.get("name", "")),
        description=str(meta.get("description", "")),
    )


def _load_typed(path: str, kind: str):
    document = load_document(path)
    if document.kind != kind:
        raise ValueError(f"{path}: expected a {kind!r} document, found {document.kind!r}")
    return document.payload


def _load_matrix(path: str) -> np.ndarray:
    obj = _read_json(path)
    if obj.get("type") not in (None, "matrix"):
        raise ValueError(f"{path}: expected a matrix document")
    return _number_array(obj["matrix"], f"{path}: matrix")


def _result_doc(command: str, parameters: dict, conventions: list[str], result: dict) -> dict:
    """Wrap a handler's result in the document the command prints.

    A channel document (it carries a ``type`` tag) stays loadable and gets
    the command, parameters and conventions as its ``metadata`` block; any
    other result is wrapped in a ``result`` document.
    """
    if "type" in result:
        metadata = {"command": command, "parameters": parameters, "conventions": conventions}
        return {**result, "metadata": metadata}
    return {
        "type": "result",
        "command": command,
        "parameters": parameters,
        "result": result,
        "conventions": conventions,
    }


def _emit(args, document: dict, table) -> None:
    if args.format == "csv":
        if table is None:
            raise UsageError("csv output is only available for grid or table results")
        text = "\n".join(",".join(_cell(v) for v in row) for row in table()) + "\n"
    else:
        text = _dumps(document) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


_encode = json.JSONEncoder().encode
_NUMBERS = frozenset({int, float, bool})


def _dumps(value, indent: str = "") -> str:
    """``json.dumps(value, indent=2)``, byte for byte.

    A list of numbers, or a list of nonempty lists of numbers, goes to the C
    encoder in one call, and the line breaks and indents are put back by
    string replacement: a number's JSON text holds no ``", "`` and no
    bracket.  Everything else is written recursively.  Keys are strings, as
    in every document the commands build.
    """
    inner = indent + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [f"{inner}{_encode(key)}: {_dumps(item, inner)}" for key, item in value.items()]
        return "{\n" + ",\n".join(items) + f"\n{indent}}}"
    if not isinstance(value, (list, tuple)) or not value:
        return _encode(value)
    types = set(map(type, value))
    if types <= _NUMBERS:
        body = _encode(value)[1:-1].replace(", ", ",\n" + inner)
    elif types == {list} and all(value) and set(map(type, chain.from_iterable(value))) <= _NUMBERS:
        deeper = inner + "  "
        rows = _encode(value)[2:-2].replace("], [", f"\n{inner}],\n{inner}[\n{deeper}")
        body = f"[\n{deeper}" + rows.replace(", ", ",\n" + deeper) + f"\n{inner}]"
    else:
        body = (",\n" + inner).join(_dumps(item, inner) for item in value)
    return f"[\n{inner}{body}\n{indent}]"


def _cell(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


# ---------------------------------------------------------------------------
# Subcommand handlers.  Each takes its imported family module and the parsed
# arguments, and returns (parameters, result, exit code, CSV table builder or
# None); the table is built only for --format csv.  The command table below
# supplies the command name and the conventions.


def _cmd_dmc_check(dmc, args):
    better = _load_typed(args.better, "dmc")
    worse = _load_typed(args.worse, "dmc")
    decision = dmc.includes(better, worse, tolerance=args.tolerance, cap=args.cap)
    parameters = {"tolerance": args.tolerance, "cap": args.cap}
    if decision.included:
        result = {
            "included": True,
            "witness": dmc.witness_to_json_dict(decision.witness),
            "residual": decision.witness.residual,
        }
        return parameters, result, 0, None
    result = {
        "included": False,
        "separator": decision.separator.tolist(),
        "margin": decision.margin,
    }
    return parameters, result, 1, None


def _cmd_dmc_equiv(dmc, args):
    a = _load_typed(args.a, "dmc")
    b = _load_typed(args.b, "dmc")
    verdict = dmc.equivalent(a, b, tolerance=args.tolerance, cap=args.cap)
    parameters = {"tolerance": args.tolerance, "cap": args.cap}
    return parameters, {"equivalent": verdict}, 0 if verdict else 1, None


def _cmd_dmc_degrade(dmc, args):
    channel = _load_typed(args.channel, "dmc")
    witness = dmc.witness_from_json_dict(_read_json(args.witness))
    degraded = dmc.degrade(channel, witness.pairs, witness.weights, n_outputs=args.n_outputs)
    parameters = {"n_outputs": degraded.n_outputs}
    return parameters, dmc.to_json_dict(degraded), 0, degraded.entries.tolist


def _cmd_dmc_error_prob(dmc, args):
    channel = _load_typed(args.channel, "dmc")
    value = dmc.best_error_probability(channel, args.messages, args.block_length, cap=args.cap)
    parameters = {"messages": args.messages, "block_length": args.block_length, "cap": args.cap}
    return parameters, {"error_probability": value}, 0, None


def _cmd_noise_check(noise, args):
    better = _load_typed(args.better, "kfunction")
    worse = _load_typed(args.worse, "kfunction")
    outcome = noise.check_order(better, worse, tolerance=args.tolerance)
    holds = outcome.relation in (noise.Relation.SECOND_WORSE, noise.Relation.EQUAL)
    result = {
        "relation": outcome.relation.value,
        "max_violation": outcome.max_violation,
        "claim_holds": holds,
    }
    return {"tolerance": args.tolerance}, result, 0 if holds else 1, None


def _profile_table(profile):
    table = [["kind", "x", "value"]]
    table += [["density", float(u), float(d)] for u, d in zip(profile.grid, profile.density)]
    table += [["atom", float(loc), float(mass)] for loc, mass in profile.atoms]
    return table


def _cmd_noise_lattice(noise, args):
    a = _load_typed(args.first, "kfunction")
    b = _load_typed(args.second, "kfunction")
    # noise.lub or noise.glb, named by the subcommand; looked up per call so a
    # wrapper installed on the module (a profiler, a test double) sees it.
    result = getattr(noise, args.command)(a, b)
    return {}, noise.to_json_dict(result), 0, lambda: _profile_table(result)


def _cmd_noise_cf(noise, args):
    profile = _load_typed(args.profile, "kfunction")
    values = []
    for zeta in args.zeta:
        value = noise.log_cf(profile, zeta)
        values.append({"zeta": zeta, "re": value.real, "im": value.imag})
    return {}, {"log_cf": values}, 0, None


def _cmd_noise_variance(noise, args):
    profile = _load_typed(args.profile, "kfunction")
    return {}, {"variance": noise.variance(profile)}, 0, None


def _parse_family(phase, spec: str):
    parts = spec.split(":")
    kind = parts[0].strip().lower()
    try:
        if kind in ("uniform", "u"):
            return phase.UniformPhase()
        if kind in ("point", "p"):
            return phase.PointPhase(float(parts[1]) if len(parts) > 1 else 0.0)
        if kind in ("wgauss", "wrapped_gaussian", "wg"):
            return phase.WrappedGaussian(float(parts[1]), float(parts[2]))
        if kind in ("wcauchy", "wrapped_cauchy", "wc"):
            return phase.WrappedCauchy(float(parts[1]), float(parts[2]))
    except (IndexError, ValueError) as exc:
        raise UsageError(f"malformed phase family {spec!r}: {exc}") from exc
    raise UsageError(
        f"unknown phase family {spec!r}; use uniform, point:ANGLE, "
        "wgauss:MEAN:SIGMA2 or wcauchy:MEAN:GAMMA"
    )


def _spectrum_table(spectrum):
    m, n = np.indices(spectrum.coeffs.shape).reshape(2, -1) - spectrum.order
    flat = spectrum.coeffs.ravel()
    columns = (m.tolist(), n.tolist(), flat.real.tolist(), flat.imag.tolist())
    return [("m", "n", "re", "im"), *zip(*columns)]


def _phase_result(phase, spectrum, parameters):
    return parameters, phase.to_json_dict(spectrum), 0, lambda: _spectrum_table(spectrum)


def _cmd_phase_build(phase, args):
    h = phase.from_wrapped(_parse_family(phase, args.h_phase), args.order)
    v = phase.from_wrapped(_parse_family(phase, args.v_phase), args.order)
    spectrum = phase.product_channel(h, v)
    parameters = {"h_phase": args.h_phase, "v_phase": args.v_phase, "order": args.order}
    return _phase_result(phase, spectrum, parameters)


def _cmd_phase_degrade(phase, args):
    channel = _load_typed(args.channel, "torus")
    degradation = _load_typed(args.degradation, "torus")
    return _phase_result(phase, phase.degrade(channel, degradation), {})


def _cmd_phase_strict(phase, args):
    channel = _load_typed(args.channel, "torus")
    degradation = _load_typed(args.degradation, "torus")
    outcome = phase.is_strict(channel, degradation, epsilon=args.epsilon)
    result = {"classification": outcome.kind.value}
    if outcome.witness is not None:
        result["witness"] = list(outcome.witness)
    # The queried relation is "the degradation can be undone"; a strict
    # degradation means the relation fails.
    code = 1 if outcome.kind is phase.Strictness.STRICT else 0
    return {"epsilon": args.epsilon}, result, code, None


# --kind value -> name of the phase constructor, looked up per call as for lub.
_EXTREMALS = {
    "worst": "worst_channel",
    "output-uniform": "output_uniformizing_degradation",
    "input-uniform": "input_uniformizing_degradation",
}


def _cmd_phase_extremal(phase, args):
    spectrum = getattr(phase, _EXTREMALS[args.kind])(args.order)
    return _phase_result(phase, spectrum, {"kind": args.kind, "order": args.order})


def _cmd_lgc_canon(lgc, args):
    spectrum = lgc.canonicalize(_load_typed(args.channel, "lgc"))
    return {}, {"spectrum": spectrum.values.tolist()}, 0, lambda: [list(spectrum.values)]


def _cmd_lgc_check(lgc, args):
    better = _load_typed(args.better, "lgc")
    worse = _load_typed(args.worse, "lgc")
    decision = lgc.includes(better, worse, tolerance=args.tolerance)
    result = {"included": decision.included}
    if decision.violating_index is not None:
        result["violating_index"] = decision.violating_index
    return {"tolerance": args.tolerance}, result, 0 if decision.included else 1, None


def _cmd_lgc_lattice(lgc, args):
    a = lgc.canonicalize(_load_typed(args.first, "lgc"))
    b = lgc.canonicalize(_load_typed(args.second, "lgc"))
    # lgc.lub or lgc.glb, named by the subcommand; looked up per call as above.
    spectrum = getattr(lgc, args.command)(a, b)
    return {}, {"spectrum": spectrum.values.tolist()}, 0, lambda: [list(spectrum.values)]


def _cmd_lgc_verify_equiv(lgc, args):
    channel = _load_typed(args.channel, "lgc")
    report = lgc.verify_equivalence_transform(
        channel, _load_matrix(args.b_matrix), _load_matrix(args.c_matrix), tolerance=args.tolerance
    )
    result = {"equivalent": report.equivalent}
    if report.condition is not None:
        result["condition"] = report.condition
    if report.max_deviation is not None:
        result["max_deviation"] = report.max_deviation
    return {"tolerance": args.tolerance}, result, 0 if report.equivalent else 1, None


def _cmd_lgc_sample_haar(lgc, args):
    matrix = lgc.sample_haar_orthogonal(args.n, args.seed)
    return {"n": args.n, "seed": args.seed}, {"matrix": matrix.tolist()}, 0, matrix.tolist


def _cmd_lgc_ensemble_order(lgc, args):
    a = _load_typed(args.a, "lgc_ensemble")
    b = _load_typed(args.b, "lgc_ensemble")
    decision = lgc.ensemble_order(a, b)
    result = {
        "ordered": decision.ordered,
        "direction": decision.direction,
        "max_margin": decision.max_margin,
        "max_violation": decision.max_violation,
        "band": decision.band,
    }
    return {}, result, 0 if decision.ordered else 1, None


# ---------------------------------------------------------------------------
# Command table: (group, command, handler, arguments, conventions).  Each
# argument is (name, add_argument keywords); every subcommand also takes the
# output flags, last.

_GROUP_HELP = {
    "dmc": "discrete memoryless channels",
    "noise": "additive infinitely divisible noise channels",
    "phase": "phase-degraded torus channels",
    "lgc": "linear Gaussian channels",
}
_REQUIRED = {"required": True}
_REQUIRED_INT = {"type": int, "required": True}
_CHANNEL = ("--channel", _REQUIRED)
_BETTER_WORSE = (("--better", _REQUIRED), ("--worse", _REQUIRED))
_A_B = (("--a", _REQUIRED), ("--b", _REQUIRED))
_OPERANDS = (("first", {}), ("second", {}))
_TOLERANCE = ("--tolerance", {"type": float, "default": 1e-9})
# None stands for the dmc module's ENUMERATION_CAP, read once it is imported.
_CAP = ("--cap", {"type": int})
_ORDER = ("--order", {"type": int, "default": 32})
_OUTPUT = (
    ("--out", {"help": "write the document to a file"}),
    ("--format", {"choices": ("json", "csv"), "default": "json"}),
)

_COMMANDS = (
    ("dmc", "check", _cmd_dmc_check, _BETTER_WORSE + (_TOLERANCE, _CAP), _dmc_conventions),
    ("dmc", "equiv", _cmd_dmc_equiv, _A_B + (_TOLERANCE, _CAP), _dmc_conventions),
    ("dmc", "degrade", _cmd_dmc_degrade,
     (_CHANNEL, ("--witness", _REQUIRED), ("--n-outputs", {"type": int})), _dmc_conventions),
    ("dmc", "error-prob", _cmd_dmc_error_prob,
     (_CHANNEL, ("--messages", _REQUIRED_INT), ("--block-length", _REQUIRED_INT), _CAP),
     _dmc_conventions),
    ("noise", "check", _cmd_noise_check, _BETTER_WORSE + (_TOLERANCE,), _noise_conventions),
    ("noise", "lub", _cmd_noise_lattice, _OPERANDS, _noise_conventions),
    ("noise", "glb", _cmd_noise_lattice, _OPERANDS, _noise_conventions),
    ("noise", "cf", _cmd_noise_cf,
     (("--profile", _REQUIRED), ("--zeta", {"type": float, "action": "append", "required": True})),
     _noise_conventions),
    ("noise", "variance", _cmd_noise_variance, (("--profile", _REQUIRED),), _noise_conventions),
    ("phase", "build", _cmd_phase_build,
     (("--h-phase", {"required": True, "help": "gain phase family, e.g. wgauss:0:1"}),
      ("--v-phase", {"required": True, "help": "noise phase family, e.g. uniform"}), _ORDER),
     _phase_conventions),
    ("phase", "degrade", _cmd_phase_degrade, (_CHANNEL, ("--degradation", _REQUIRED)),
     _phase_conventions),
    ("phase", "strict", _cmd_phase_strict,
     (_CHANNEL, ("--degradation", _REQUIRED), ("--epsilon", {"type": float, "default": 1e-9})),
     _phase_conventions),
    ("phase", "extremal", _cmd_phase_extremal,
     (("--kind", {"choices": tuple(_EXTREMALS), "required": True}), _ORDER), _phase_conventions),
    ("lgc", "canon", _cmd_lgc_canon, (_CHANNEL,), _lgc_conventions),
    ("lgc", "check", _cmd_lgc_check, _BETTER_WORSE + (_TOLERANCE,), _lgc_conventions),
    ("lgc", "lub", _cmd_lgc_lattice, _OPERANDS, _lgc_conventions),
    ("lgc", "glb", _cmd_lgc_lattice, _OPERANDS, _lgc_conventions),
    ("lgc", "verify-equiv", _cmd_lgc_verify_equiv,
     (_CHANNEL, ("--b-matrix", _REQUIRED), ("--c-matrix", _REQUIRED), _TOLERANCE),
     _lgc_conventions),
    ("lgc", "sample-haar", _cmd_lgc_sample_haar,
     (("--n", _REQUIRED_INT), ("--seed", {"type": int, "default": 0})), _lgc_conventions),
    ("lgc", "ensemble-order", _cmd_lgc_ensemble_order, _A_B, _ensemble_conventions),
)


def build_parser(argv=None) -> argparse.ArgumentParser:
    """The command-line parser.

    Every group parser is built, so top-level help and errors are whole.
    Subcommand parsers are built for every group, or, given ``argv``, only
    for the group named by its first positional argument, the one group
    argparse reads.
    """
    parser = _Parser(prog="chanorder", description=__doc__)
    groups = parser.add_subparsers(dest="group")
    named = None if argv is None else next((arg for arg in argv if not arg.startswith("-")), "")
    commands = {}
    for group, text in _GROUP_HELP.items():
        group_parser = groups.add_parser(group, help=text)
        if named in (None, group):
            commands[group] = group_parser.add_subparsers(dest="command")
    for group, command, handler, arguments, conventions in _COMMANDS:
        if group not in commands:
            continue
        sub = commands[group].add_parser(command)
        for name, options in arguments + _OUTPUT:
            sub.add_argument(name, **options)
        sub.set_defaults(handler=handler, conventions=conventions)
    return parser


def _report_error(exc: Exception) -> None:
    payload = {"error": {"type": type(exc).__name__, "message": str(exc)}}
    sys.stderr.write(json.dumps(payload) + "\n")


def run(argv=None) -> int:
    """Parse arguments, execute one subcommand, and return the exit code."""
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = build_parser(argv).parse_args(argv)
        if not hasattr(args, "handler"):
            raise UsageError("a subcommand is required (see --help)")
        family = _family(args.group)
        if "cap" in vars(args) and args.cap is None:
            args.cap = family.ENUMERATION_CAP
        parameters, result, code, table = args.handler(family, args)
        command = f"{args.group} {args.command}"
        conventions = args.conventions(family)
        _emit(args, _result_doc(command, parameters, conventions, result), table)
        return code
    except Exception as exc:
        _report_error(exc)
        # LinAlgError subclasses ValueError but is a numerical failure.
        if isinstance(exc, _INVALID_INPUT) and not isinstance(exc, np.linalg.LinAlgError):
            return 2
        return 3


def main(argv=None) -> int:
    return run(argv)


if __name__ == "__main__":
    sys.exit(main())
