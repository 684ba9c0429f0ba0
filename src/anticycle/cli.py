"""Command-line front end.

Single-shot subcommands over config files; every report is printed to
standard output either as flattened ``key: value`` lines or, with
``--json``, as a JSON document carrying the same values.

Each subcommand returns its report, and :func:`run` renders it and sets
every exit code: from the report's verdict, or from the exception that
ended the subcommand.  The codes are:

- 0 success;
- 1 the algorithm and the oracle disagree (``oracle-check``);
- 2 bad input: a file that cannot be read (``cannot read``) or parsed
  (``parse error:``), or an argument check, a validation or a
  ``ValueError``, ``InvariantViolation`` or ``OracleError`` from the
  library, printed as one ``invalid:`` line per line of its message (a
  validation message has one line per problem);
- 3 an inconsistent verdict (two sound derivations collide, so the
  configuration is unrealizable);
- 4 a computed Zariski decomposition failed its certification
  (``CertificationError``; an ``error:`` line names the condition), a
  defect in the engine, never bad input.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
from typing import Any, Sequence

from . import config_io
from .cycles import (
    CertificationError,
    CycleConfig,
    OracleError,
    QDivisor,
    ZariskiDecomposition,
    classify_kodaira,
    validate,
    zariski_decompose,
    zariski_oracle,
)
from .birational import (
    blow_down,
    blow_up_node,
    blow_up_smooth,
    contract_to_nef_model,
)
from .pic0 import CONSTANT_FINITE, family_profile
from .twistor import (
    Derivation,
    InvariantViolation,
    TwistorPencil,
    VERDICT_INCONSISTENT,
    algebraic_dimension,
    base_decomposition,
    m_class_intersections,
    normalized_model,
    prove_E_fixed,
    reducible_fibers,
    validate_pencil,
)

EXIT_OK = 0
EXIT_DISAGREEMENT = 1
EXIT_INVALID = 2
EXIT_INCONSISTENT = 3
EXIT_UNCERTIFIED = 4


class _CommandError(Exception):
    """A file that cannot be read or parsed; the message is printed as it stands."""


class _Disagreement(Exception):
    """The algorithm and the oracle disagree; the message is printed as it stands."""


# ---------------------------------------------------------------------------
# report rendering


def _divisor_values(divisor: QDivisor) -> list[str]:
    return [str(c) for c in divisor.coeffs]


def _config_fields(config: CycleConfig) -> dict[str, Any]:
    return {
        "m": config.m,
        "selfints": list(config.self_ints),
        "k": config.real_k,
        "n": config.n,
    }


def _decomposition_fields(z: ZariskiDecomposition) -> dict[str, Any]:
    return {
        "decomposition": {
            "p": _divisor_values(z.p),
            "n": _divisor_values(z.n_part),
        },
        "m0": z.m0,
        "l": list(z.l) if z.l is not None else None,
        "d": str(z.d),
    }


def _derivation_fields(derivation: Derivation) -> dict[str, Any]:
    return {
        "title": derivation.title,
        "steps": [
            {
                "step": s.step,
                "hypothesis": s.hypothesis,
                "evidence": s.evidence,
                "holds": s.holds,
            }
            for s in derivation.steps
        ],
        "conclusion": derivation.conclusion,
        "holds": derivation.holds,
    }


def _flatten(value: Any, key: str, lines: list[str]) -> None:
    if isinstance(value, dict):
        for sub, item in value.items():
            _flatten(item, f"{key}.{sub}" if key else sub, lines)
    elif isinstance(value, list) and any(isinstance(v, dict) for v in value):
        for i, item in enumerate(value):
            _flatten(item, f"{key}[{i}]", lines)
    elif isinstance(value, list):
        lines.append(f"{key}: ({', '.join(str(v) for v in value)})")
    elif value is None:
        lines.append(f"{key}: absent")
    elif isinstance(value, bool):
        lines.append(f"{key}: {'true' if value else 'false'}")
    else:
        lines.append(f"{key}: {value}")


def _emit(report: dict[str, Any], as_json: bool) -> None:
    if as_json:
        print(json.dumps(report, indent=2))
    else:
        lines: list[str] = []
        _flatten(report, "", lines)
        for line in lines:
            print(line)


# ---------------------------------------------------------------------------
# shared loading helpers


def _load_data(path: str) -> config_io.ConfigData:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise _CommandError(f"cannot read {path}: {exc.strerror}") from None
    try:
        return config_io.parse_config(text)
    except config_io.ConfigError as exc:
        raise _CommandError(f"parse error: {exc}") from None


def _built(data: config_io.ConfigData, build, check):
    """``build(data)``, validated by ``check``; a ``ValueError`` names each
    problem on a line of its own."""
    built = build(data)
    issues = check(built)
    if issues:
        raise ValueError("\n".join(issues))
    return built


def _load_cycle(path: str) -> CycleConfig:
    return _built(_load_data(path), config_io.build_cycle, validate)


def _load_decomposition(path: str) -> tuple[ZariskiDecomposition, str]:
    """The decomposition of the file's cycle and its anti-Kodaira class."""
    data = _load_data(path)
    z = zariski_decompose(_built(data, config_io.build_cycle, validate))
    return z, classify_kodaira(z, data.family)


def _load_pencil(path: str) -> TwistorPencil:
    """The file's pencil, validated; a missing family reads as nonconstant."""
    build = functools.partial(config_io.build_pencil, default_family=True)
    return _built(_load_data(path), build, validate_pencil)


def _component_index(config: CycleConfig, one_based: int, what: str) -> int:
    if not 1 <= one_based <= config.m:
        raise ValueError(f"{what} {one_based} out of range for m = {config.m}")
    return one_based - 1


# ---------------------------------------------------------------------------
# subcommands: each returns its report, which :func:`run` renders


def _cmd_zariski(args: argparse.Namespace) -> dict[str, Any]:
    z, kodaira = _load_decomposition(args.file)
    return {**_decomposition_fields(z), "kodaira": kodaira}


def _cmd_classify(args: argparse.Namespace) -> dict[str, Any]:
    z, kodaira = _load_decomposition(args.file)
    return {"kodaira": kodaira, "d": str(z.d)}


def _cmd_blowup(args: argparse.Namespace) -> dict[str, Any]:
    config = _load_cycle(args.file)
    if args.smooth == (args.node is not None):
        raise ValueError("give either --node I, or --component I with --smooth")
    if args.smooth:
        if args.component is None:
            raise ValueError("--smooth requires --component")
        index = _component_index(config, args.component, "component")
        result = blow_up_smooth(config, index, drop_reality=args.drop_reality)
    else:
        index = _component_index(config, args.node, "node")
        result = blow_up_node(config, index, drop_reality=args.drop_reality)
    report: dict[str, Any] = {"result": _config_fields(result.config)}
    if result.inserted:
        report["inserted"] = [i + 1 for i in result.inserted]
    report["transported_l"] = (
        list(result.transported_l) if result.transported_l is not None else None
    )
    return report


def _cmd_blowdown(args: argparse.Namespace) -> dict[str, Any]:
    config = _load_cycle(args.file)
    index = _component_index(config, args.component, "component")
    result = blow_down(config, index, drop_reality=args.drop_reality)
    return {"result": _config_fields(result.config)}


def _cmd_contract(args: argparse.Namespace) -> dict[str, Any]:
    config = _load_cycle(args.file)
    outcome = contract_to_nef_model(config)
    if outcome is None:
        return {"found": False, "result": None, "steps": []}
    final, steps = outcome
    return {
        "found": True,
        "result": _config_fields(final),
        "steps": [
            {"kind": s.kind, "component": s.index + 1} for s in steps
        ],
    }


def _cmd_fibers(args: argparse.Namespace) -> dict[str, Any]:
    pencil = _load_pencil(args.file)
    descriptors = reducible_fibers(pencil)
    return {
        "fibers": [
            {
                "index": f.index,
                "line": f.line,
                "s_plus": f.s_plus,
                "s_minus": f.s_minus,
                "joins": [f"{a}*{b}" for a, b in f.joins],
                "half_plus": list(f.half_plus),
                "half_minus": list(f.half_minus),
            }
            for f in descriptors
        ]
    }


def _cmd_intnums(args: argparse.Namespace) -> dict[str, Any]:
    pencil = _load_pencil(args.file)
    model = normalized_model(pencil, base_decomposition(pencil))
    values = m_class_intersections(model, args.r, args.rho)
    return {
        "r": args.r,
        "rho": args.rho,
        "l": list(model.l),
        "intersections": {name: values[name] for name in model.cycle_order},
    }


def _cmd_fixed(args: argparse.Namespace) -> dict[str, Any]:
    if (args.rho is None) == (args.nu is None):
        raise ValueError("give exactly one of --rho and --nu")
    if args.nu is not None:
        if args.nu < 1:
            raise ValueError(f"--nu must be at least 1, got {args.nu}")
        if args.r < 0:
            raise ValueError(f"--r must be at least 0 with --nu, got {args.r}")
    pencil = _load_pencil(args.file)
    report: dict[str, Any] = {"r": args.r}
    if args.nu is not None:
        profile = family_profile(pencil.family)
        if profile.kind != CONSTANT_FINITE:
            raise ValueError("--nu needs a constant family of finite order")
        rho = args.nu * profile.tau
        report["nu"] = args.nu
        report["tau"] = profile.tau
    else:
        rho = args.rho
    report["rho"] = rho
    model = normalized_model(pencil, base_decomposition(pencil))
    derivation = prove_E_fixed(model, args.r, rho)
    if args.nu is not None and derivation.holds:
        # once the vertical divisor is proven fixed, |M(r, rho)| has dimension r
        report["pluri_dim"] = args.r
    report["derivations"] = [_derivation_fields(derivation)]
    return report


def _cmd_adim(args: argparse.Namespace) -> dict[str, Any]:
    result = algebraic_dimension(config_io.build_pencil(_load_data(args.file)))
    report: dict[str, Any] = {"verdict": result.verdict}
    if result.decomposition is not None:
        report.update(_decomposition_fields(result.decomposition))
    report["kodaira"] = result.generic_kodaira
    report["justification"] = list(result.justification)
    report["derivations"] = [_derivation_fields(d) for d in result.derivations]
    return report


def _cmd_oracle_check(args: argparse.Namespace) -> dict[str, Any]:
    if args.count < 1:
        raise ValueError(f"--count must be at least 1, got {args.count}")
    configs: list[CycleConfig]
    if args.file is not None:
        configs = [_load_cycle(args.file)]
    elif args.seed is not None:
        rng = random.Random(args.seed)
        configs = [config_io.random_small_config(rng) for _ in range(args.count)]
    else:
        raise ValueError("give --file or --seed")
    for config in configs:
        fast = zariski_decompose(config)
        slow = zariski_oracle(config)
        if fast.p != slow.p or fast.n_part != slow.n_part:
            raise _Disagreement(f"disagreement on selfints = {list(config.self_ints)}")
    return {"checked": len(configs), "agreements": len(configs)}


def _cmd_fixtures(args: argparse.Namespace) -> None:
    """Prints the generated config files itself: they are not a report."""
    if args.count < 1:
        raise ValueError(f"--count must be at least 1, got {args.count}")
    batch = config_io.generate_fixtures(args.seed, args.count)
    for index, data in enumerate(batch, start=1):
        print(f"# fixture {index} of {args.count}, seed {args.seed}")
        sys.stdout.write(config_io.render_config(data))
        print()


# ---------------------------------------------------------------------------
# argument parsing


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="anticycle",
        description="Exact Zariski decompositions of anti-canonical cycles "
        "and algebraic-dimension verdicts for twistor pencils.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, fn, help_text: str, *, file_required: bool = True):
        cmd = sub.add_parser(name, help=help_text)
        cmd.set_defaults(fn=fn)
        cmd.add_argument("--file", required=file_required, help="config file path")
        cmd.add_argument("--json", action="store_true", help="emit JSON")
        return cmd

    add("zariski", _cmd_zariski, "Zariski decomposition of the cycle")
    add("classify", _cmd_classify, "anti-Kodaira classification")

    blowup = add("blowup", _cmd_blowup, "blow up a node or a smooth point")
    blowup.add_argument("--node", type=int, help="1-based node C_i * C_{i+1}")
    blowup.add_argument("--component", type=int, help="1-based component index")
    blowup.add_argument("--smooth", action="store_true", help="smooth-point blow-up")

    blowdown = add("blowdown", _cmd_blowdown, "contract a (-1)-component")
    blowdown.add_argument("--component", type=int, required=True)
    for surgery in (blowup, blowdown):
        surgery.add_argument(
            "--drop-reality", action="store_true", help="single surgery, forget reality"
        )

    add("contract", _cmd_contract, "contract (-1)-components to a nef model")
    add("fibers", _cmd_fibers, "reducible members of the pencil")

    intnums = add("intnums", _cmd_intnums, "M(r, rho) against the model curves")
    intnums.add_argument("--rho", type=int, required=True)
    intnums.add_argument("--r", type=int, default=0)

    fixed = add("fixed", _cmd_fixed, "fixed-component derivation")
    fixed.add_argument("--rho", type=int, help="multiple of m0*P to test")
    fixed.add_argument(
        "--nu", type=int, help="test rho = nu*tau for the family's order tau"
    )
    fixed.add_argument("--r", type=int, default=0)

    add("adim", _cmd_adim, "algebraic dimension of the twistor space")

    oracle = add(
        "oracle-check",
        _cmd_oracle_check,
        "compare algorithm and oracle",
        file_required=False,
    )
    oracle.add_argument("--seed", type=int, help="generate configs from this seed")
    oracle.add_argument("--count", type=int, default=1)

    fixtures = sub.add_parser("fixtures", help="emit deterministic fixture configs")
    fixtures.set_defaults(fn=_cmd_fixtures)
    fixtures.add_argument("--seed", type=int, required=True)
    fixtures.add_argument("--count", type=int, default=1)

    return parser


def run(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        report = args.fn(args)
    except _Disagreement as exc:
        print(str(exc))
        return EXIT_DISAGREEMENT
    except _CommandError as exc:
        print(str(exc))
        return EXIT_INVALID
    except (ValueError, InvariantViolation, OracleError) as exc:
        for line in str(exc).split("\n"):
            print(f"invalid: {line}")
        return EXIT_INVALID
    except CertificationError as exc:
        print(f"error: {exc}")
        return EXIT_UNCERTIFIED
    if report is None:
        return EXIT_OK
    _emit(report, args.json)
    if report.get("verdict") == VERDICT_INCONSISTENT:
        return EXIT_INCONSISTENT
    return EXIT_OK


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
