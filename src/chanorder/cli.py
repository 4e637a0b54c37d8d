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
import atexit
import gc
import json
import math
import sys
from dataclasses import dataclass
from importlib import import_module
from itertools import chain

# numpy and the shared kernels are imported by the first command that needs
# them, so ``--help`` and usage errors load neither, and ``main`` has the
# cyclic collector paused before numpy's import.

__all__ = ["ChannelDocument", "load_document", "run", "main"]


# Exceptions that mean the input or the invocation was bad (exit 2); any
# other exception is an internal failure (exit 3).  Parsers read required
# keys through numerics._required, so a KeyError is a bug.
_INVALID_INPUT = (ValueError, TypeError, OSError)


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


def _load_matrix(path: str):
    from .numerics import _number_array, _required

    obj = _read_json(path)
    if obj.get("type") not in (None, "matrix"):
        raise ValueError(f"{path}: expected a matrix document")
    return _number_array(_required(obj, "matrix", f"{path}: matrix document"), f"{path}: matrix")


# File kinds that are not channel documents.
_READERS = {
    "matrix": _load_matrix,
    "witness": lambda path: _family("dmc").witness_from_json_dict(_read_json(path)),
}


def _load(path: str, kind: str):
    """What a declared file holds: a _READERS kind, or a document of type ``kind``."""
    if kind in _READERS:
        return _READERS[kind](path)
    document = load_document(path)
    if document.kind != kind:
        raise ValueError(f"{path}: expected a {kind!r} document, found {document.kind!r}")
    return document.payload


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
    if args.format == "csv" and table is None:
        raise UsageError("csv output is only available for grid or table results")
    try:
        if args.format == "csv":
            text = _csv(table())
        else:
            text = _dumps(document) + "\n"
    except ValueError as exc:
        # A NaN or an infinity in a result is an internal failure (exit 3),
        # not bad input, and nothing is written.
        raise FloatingPointError(f"result is not finite: {exc}") from exc
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


# Strict JSON: NaN and the infinities raise ValueError instead of printing.
_encode = json.JSONEncoder(allow_nan=False).encode
_NUMBERS = frozenset({int, float, bool})


def _dumps(value, indent: str = "") -> str:
    """``json.dumps(value, indent=2, allow_nan=False)``, byte for byte.

    So a NaN or an infinity anywhere raises ValueError.  A list of numbers,
    or a list of nonempty lists of numbers, goes to the C encoder in one
    call, and the line breaks and indents are put back by string
    replacement: a number's JSON text holds no ``", "`` and no bracket.
    Everything else is written recursively.  Keys are strings, as in every
    document the commands build.
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


def _csv(table) -> str:
    """``table``'s rows as CSV lines; ValueError on a NaN or an infinity."""
    import numpy as np  # loaded already: every table holds a family's results

    def cell(value) -> str:
        if isinstance(value, (float, np.floating)):
            if not math.isfinite(value):
                raise ValueError(f"{value!r} in a table")
            return repr(float(value))
        if isinstance(value, (int, np.integer)):
            return str(int(value))
        return str(value)

    return "\n".join(",".join(map(cell, row)) for row in table) + "\n"


# ---------------------------------------------------------------------------
# Subcommand handlers.  Each takes its imported family module and the parsed
# arguments, whose file arguments ``run`` has already replaced by what they
# hold, and returns (parameters, result, exit code, CSV table builder or
# None); the table is built only for --format csv.  The command name comes
# from the command table and the conventions from the family's CONVENTIONS,
# unless a handler returns its own as a fifth item.


def _cmd_dmc_check(dmc, args):
    decision = dmc.includes(args.better, args.worse, tolerance=args.tolerance, cap=args.cap)
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
    verdict = dmc.equivalent(args.a, args.b, tolerance=args.tolerance, cap=args.cap)
    parameters = {"tolerance": args.tolerance, "cap": args.cap}
    return parameters, {"equivalent": verdict}, 0 if verdict else 1, None


def _cmd_dmc_degrade(dmc, args):
    witness = args.witness
    degraded = dmc.degrade(args.channel, witness.pairs, witness.weights, n_outputs=args.n_outputs)
    parameters = {"n_outputs": degraded.n_outputs}
    return parameters, dmc.to_json_dict(degraded), 0, degraded.entries.tolist


def _cmd_dmc_error_prob(dmc, args):
    value = dmc.best_error_probability(args.channel, args.messages, args.block_length, cap=args.cap)
    parameters = {"messages": args.messages, "block_length": args.block_length, "cap": args.cap}
    return parameters, {"error_probability": value}, 0, None


def _cmd_noise_check(noise, args):
    outcome = noise.check_order(args.better, args.worse, tolerance=args.tolerance)
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
    # noise.lub or noise.glb, named by the subcommand; looked up per call so a
    # wrapper installed on the module (a profiler, a test double) sees it.
    result = getattr(noise, args.command)(args.first, args.second)
    return {}, noise.to_json_dict(result), 0, lambda: _profile_table(result)


def _cmd_noise_cf(noise, args):
    values = []
    for zeta in args.zeta:
        value = noise.log_cf(args.profile, zeta)
        values.append({"zeta": zeta, "re": value.real, "im": value.imag})
    return {}, {"log_cf": values}, 0, None


def _cmd_noise_variance(noise, args):
    return {}, {"variance": noise.variance(args.profile)}, 0, None


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
    import numpy as np

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
    return _phase_result(phase, phase.degrade(args.channel, args.degradation), {})


def _cmd_phase_strict(phase, args):
    outcome = phase.is_strict(args.channel, args.degradation, epsilon=args.epsilon)
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
    spectrum = lgc.canonicalize(args.channel)
    return {}, {"spectrum": spectrum.values.tolist()}, 0, lambda: [list(spectrum.values)]


def _cmd_lgc_check(lgc, args):
    decision = lgc.includes(args.better, args.worse, tolerance=args.tolerance)
    result = {"included": decision.included}
    if decision.violating_index is not None:
        result["violating_index"] = decision.violating_index
    return {"tolerance": args.tolerance}, result, 0 if decision.included else 1, None


def _cmd_lgc_lattice(lgc, args):
    a, b = lgc.canonicalize(args.first), lgc.canonicalize(args.second)
    # lgc.lub or lgc.glb, named by the subcommand; looked up per call as above.
    spectrum = getattr(lgc, args.command)(a, b)
    return {}, {"spectrum": spectrum.values.tolist()}, 0, lambda: [list(spectrum.values)]


def _cmd_lgc_verify_equiv(lgc, args):
    report = lgc.verify_equivalence_transform(
        args.channel, args.b_matrix, args.c_matrix, tolerance=args.tolerance
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
    decision = lgc.ensemble_order(args.a, args.b)
    result = {
        "ordered": decision.ordered,
        "direction": decision.direction,
        "max_margin": decision.max_margin,
        "max_violation": decision.max_violation,
        "band": decision.band,
    }
    return {}, result, 0 if decision.ordered else 1, None, lgc.ENSEMBLE_CONVENTIONS


# ---------------------------------------------------------------------------
# Command table: (group, command, handler, files, arguments).  Each file is
# (name, kind), loaded by ``run`` in table order before the handler runs; a
# file kind is a document type tag or a key of _READERS.  Each other
# argument is (name, add_argument keywords); the files come first, every
# subcommand also takes the output flags, last.

_GROUP_HELP = {
    "dmc": "discrete memoryless channels",
    "noise": "additive infinitely divisible noise channels",
    "phase": "phase-degraded torus channels",
    "lgc": "linear Gaussian channels",
}
_REQUIRED = {"required": True}
_REQUIRED_INT = {"type": int, "required": True}
_TOLERANCE = ("--tolerance", {"type": float, "default": 1e-9})
# None stands for the dmc module's ENUMERATION_CAP, read once it is imported.
_CAP = ("--cap", {"type": int})
_ORDER = ("--order", {"type": int, "default": 32})
_OUTPUT = (
    ("--out", {"help": "write the document to a file"}),
    ("--format", {"choices": ("json", "csv"), "default": "json"}),
)


def _files(kind: str, *names: str) -> tuple:
    return tuple((name, kind) for name in names)


_COMMANDS = (
    ("dmc", "check", _cmd_dmc_check, _files("dmc", "--better", "--worse"), (_TOLERANCE, _CAP)),
    ("dmc", "equiv", _cmd_dmc_equiv, _files("dmc", "--a", "--b"), (_TOLERANCE, _CAP)),
    ("dmc", "degrade", _cmd_dmc_degrade, _files("dmc", "--channel") + _files("witness", "--witness"),
     (("--n-outputs", {"type": int}),)),
    ("dmc", "error-prob", _cmd_dmc_error_prob, _files("dmc", "--channel"),
     (("--messages", _REQUIRED_INT), ("--block-length", _REQUIRED_INT), _CAP)),
    ("noise", "check", _cmd_noise_check, _files("kfunction", "--better", "--worse"), (_TOLERANCE,)),
    ("noise", "lub", _cmd_noise_lattice, _files("kfunction", "first", "second"), ()),
    ("noise", "glb", _cmd_noise_lattice, _files("kfunction", "first", "second"), ()),
    ("noise", "cf", _cmd_noise_cf, _files("kfunction", "--profile"),
     (("--zeta", {"type": float, "action": "append", "required": True}),)),
    ("noise", "variance", _cmd_noise_variance, _files("kfunction", "--profile"), ()),
    ("phase", "build", _cmd_phase_build, (),
     (("--h-phase", {"required": True, "help": "gain phase family, e.g. wgauss:0:1"}),
      ("--v-phase", {"required": True, "help": "noise phase family, e.g. uniform"}), _ORDER)),
    ("phase", "degrade", _cmd_phase_degrade, _files("torus", "--channel", "--degradation"), ()),
    ("phase", "strict", _cmd_phase_strict, _files("torus", "--channel", "--degradation"),
     (("--epsilon", {"type": float, "default": 1e-9}),)),
    ("phase", "extremal", _cmd_phase_extremal, (),
     (("--kind", {"choices": tuple(_EXTREMALS), "required": True}), _ORDER)),
    ("lgc", "canon", _cmd_lgc_canon, _files("lgc", "--channel"), ()),
    ("lgc", "check", _cmd_lgc_check, _files("lgc", "--better", "--worse"), (_TOLERANCE,)),
    ("lgc", "lub", _cmd_lgc_lattice, _files("lgc", "first", "second"), ()),
    ("lgc", "glb", _cmd_lgc_lattice, _files("lgc", "first", "second"), ()),
    ("lgc", "verify-equiv", _cmd_lgc_verify_equiv,
     _files("lgc", "--channel") + _files("matrix", "--b-matrix", "--c-matrix"), (_TOLERANCE,)),
    ("lgc", "sample-haar", _cmd_lgc_sample_haar, (),
     (("--n", _REQUIRED_INT), ("--seed", {"type": int, "default": 0}))),
    ("lgc", "ensemble-order", _cmd_lgc_ensemble_order, _files("lgc_ensemble", "--a", "--b"), ()),
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
    for group, command, handler, files, arguments in _COMMANDS:
        if group not in commands:
            continue
        sub = commands[group].add_parser(command)
        # A file option is required; a positional file is required anyway.
        files = [(sub.add_argument(name, **(_REQUIRED if name.startswith("-") else {})).dest, kind)
                 for name, kind in files]
        for name, options in arguments + _OUTPUT:
            sub.add_argument(name, **options)
        sub.set_defaults(handler=handler, files=files)
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
        for dest, kind in args.files:
            setattr(args, dest, _load(getattr(args, dest), kind))
        parameters, result, code, table, *own = args.handler(family, args)
        conventions = list(own[0] if own else family.CONVENTIONS)
        command = f"{args.group} {args.command}"
        _emit(args, _result_doc(command, parameters, conventions, result), table)
        return code
    except Exception as exc:
        _report_error(exc)
        # LinAlgError subclasses ValueError but is a numerical failure; only
        # a process that has loaded numpy can raise it.
        numpy = sys.modules.get("numpy")
        if numpy is not None and isinstance(exc, numpy.linalg.LinAlgError):
            return 3
        return 2 if isinstance(exc, _INVALID_INPUT) else 3


def main(argv=None) -> int:
    """The console entry: ``run`` with the cyclic garbage collector paused.

    A command frees few reference cycles, but numpy's import and the
    command allocate enough containers to start collector passes that walk
    all of them.  So the collector is paused for the command and its
    previous state restored on return.  ``gc.freeze`` is registered once to
    run at exit, so the collections of interpreter shutdown skip every
    object allocated by then.  ``run`` itself leaves the collector alone.
    """
    atexit.unregister(gc.freeze)  # registered once, however often main runs
    atexit.register(gc.freeze)
    enabled = gc.isenabled()
    gc.disable()
    try:
        return run(argv)
    finally:
        if enabled:
            # No collection ran while paused, so the youngest generation holds
            # everything the command allocated, and re-enabling would start a
            # pass over all of it.  Freezing and unfreezing moves it to the
            # oldest generation and resets the count, without a pass; a heap
            # the caller froze stays frozen.
            if not gc.get_freeze_count():
                gc.freeze()
                gc.unfreeze()
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
