"""Command-line front end.

Single-shot subcommands over config files; every report is printed to
standard output either as flattened ``key: value`` lines or, with
``--json``, as a JSON document carrying the same values.  Exit codes:
0 success, 1 the algorithm and the oracle disagree (``oracle-check``),
2 parse/validation problems, 3 an inconsistent verdict (two sound
derivations collide, so the configuration is unrealizable), 4 a computed
Zariski decomposition failed its certification (an ``error:`` line names
the condition).
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
from fractions import Fraction
from typing import Any, Sequence

from . import config_io
from .cycles import (
    CertificationError,
    CycleConfig,
    OracleError,
    QDivisor,
    ZariskiDecomposition,
    classify_decomposition,
    validate,
    zariski_decompose,
    zariski_oracle,
)
from .birational import (
    SurgeryInputError,
    blow_down,
    blow_up_node,
    blow_up_smooth,
    contract_to_nef_model,
)
from .pic0 import CONSTANT_FINITE, CONSTANT_INFINITE, family_profile
from .twistor import (
    Derivation,
    InvariantViolation,
    TwistorPencil,
    VERDICT_INCONSISTENT,
    adim_verdict,
    base_decomposition,
    fixed_system_dim,
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
    """Abort the current subcommand with a message and exit code."""

    def __init__(self, message: str, code: int = EXIT_INVALID):
        super().__init__(message)
        self.code = code


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
    """``build(data)``, validated by ``check``; each problem is an ``invalid:`` line."""
    try:
        built = build(data)
    except config_io.ConfigError as exc:
        raise _CommandError(f"invalid: {exc}") from None
    issues = check(built)
    if issues:
        raise _CommandError("\n".join(f"invalid: {issue}" for issue in issues))
    return built


def _load_cycle(path: str) -> CycleConfig:
    return _built(_load_data(path), config_io.build_cycle, validate)


def _load_decomposition(path: str) -> tuple[ZariskiDecomposition, str]:
    """The decomposition of the file's cycle and its anti-Kodaira class."""
    data = _load_data(path)
    z = zariski_decompose(_built(data, config_io.build_cycle, validate))
    return z, classify_decomposition(z, _order_info(data))


def _load_pencil(path: str, *, default_family: bool = False) -> TwistorPencil:
    build = functools.partial(config_io.build_pencil, default_family=default_family)
    return _built(_load_data(path), build, validate_pencil)


def _order_info(data: config_io.ConfigData) -> int | str | None:
    if data.family is None:
        return None
    profile = family_profile(data.family)
    if profile.kind == CONSTANT_FINITE:
        return profile.tau
    if profile.kind == CONSTANT_INFINITE:
        return "infinite"
    return None


def _component_index(config: CycleConfig, one_based: int, what: str) -> int:
    if not 1 <= one_based <= config.m:
        raise _CommandError(
            f"invalid: {what} {one_based} out of range for m = {config.m}"
        )
    return one_based - 1


# ---------------------------------------------------------------------------
# subcommands


def _cmd_zariski(args: argparse.Namespace) -> int:
    z, kodaira = _load_decomposition(args.file)
    _emit({**_decomposition_fields(z), "kodaira": kodaira}, args.json)
    return EXIT_OK


def _cmd_classify(args: argparse.Namespace) -> int:
    z, kodaira = _load_decomposition(args.file)
    _emit({"kodaira": kodaira, "d": str(z.d)}, args.json)
    return EXIT_OK


def _cmd_blowup(args: argparse.Namespace) -> int:
    config = _load_cycle(args.file)
    if args.smooth == (args.node is not None):
        raise _CommandError(
            "invalid: give either --node I, or --component I with --smooth"
        )
    try:
        if args.smooth:
            if args.component is None:
                raise _CommandError("invalid: --smooth requires --component")
            index = _component_index(config, args.component, "component")
            result = blow_up_smooth(config, index, drop_reality=args.drop_reality)
        else:
            index = _component_index(config, args.node, "node")
            result = blow_up_node(config, index, drop_reality=args.drop_reality)
    except SurgeryInputError as exc:
        raise _CommandError(f"invalid: {exc}") from None
    report: dict[str, Any] = {"result": _config_fields(result.config)}
    if result.inserted:
        report["inserted"] = [i + 1 for i in result.inserted]
    report["transported_l"] = (
        list(result.transported_l) if result.transported_l is not None else None
    )
    _emit(report, args.json)
    return EXIT_OK


def _cmd_blowdown(args: argparse.Namespace) -> int:
    config = _load_cycle(args.file)
    index = _component_index(config, args.component, "component")
    try:
        result = blow_down(config, index, drop_reality=args.drop_reality)
    except SurgeryInputError as exc:
        raise _CommandError(f"invalid: {exc}") from None
    _emit({"result": _config_fields(result.config)}, args.json)
    return EXIT_OK


def _cmd_contract(args: argparse.Namespace) -> int:
    config = _load_cycle(args.file)
    outcome = contract_to_nef_model(config)
    if outcome is None:
        _emit({"found": False, "result": None, "steps": []}, args.json)
        return EXIT_OK
    final, steps = outcome
    report = {
        "found": True,
        "result": _config_fields(final),
        "steps": [
            {"kind": s.kind, "component": s.indices[0] + 1} for s in steps
        ],
    }
    _emit(report, args.json)
    return EXIT_OK


def _cmd_fibers(args: argparse.Namespace) -> int:
    pencil = _load_pencil(args.file, default_family=True)
    descriptors = reducible_fibers(pencil)
    report = {
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
    _emit(report, args.json)
    return EXIT_OK


def _normalized_model(pencil: TwistorPencil):
    try:
        return normalized_model(pencil, base_decomposition(pencil))
    except (ValueError, InvariantViolation) as exc:
        raise _CommandError(f"invalid: {exc}") from None


def _cmd_intnums(args: argparse.Namespace) -> int:
    pencil = _load_pencil(args.file, default_family=True)
    model = _normalized_model(pencil)
    values = m_class_intersections(model, args.r, args.rho)
    report = {
        "r": args.r,
        "rho": args.rho,
        "l": list(model.l),
        "intersections": {name: values[name] for name in model.cycle_order},
    }
    _emit(report, args.json)
    return EXIT_OK


def _cmd_fixed(args: argparse.Namespace) -> int:
    if (args.rho is None) == (args.nu is None):
        raise _CommandError("invalid: give exactly one of --rho and --nu")
    pencil = _load_pencil(args.file, default_family=True)
    report: dict[str, Any] = {"r": args.r}
    if args.nu is not None:
        profile = family_profile(pencil.family)
        if profile.kind != CONSTANT_FINITE:
            raise _CommandError(
                "invalid: --nu needs a constant family of finite order"
            )
        rho = args.nu * profile.tau
        report["nu"] = args.nu
        report["tau"] = profile.tau
    else:
        rho = args.rho
    report["rho"] = rho
    model = _normalized_model(pencil)
    derivation = prove_E_fixed(model, args.r, rho)
    if args.nu is not None and derivation.holds and args.r >= 0:
        report["pluri_dim"] = fixed_system_dim(model, args.r, rho)
    report["derivations"] = [_derivation_fields(derivation)]
    _emit(report, args.json)
    return EXIT_OK


def _cmd_adim(args: argparse.Namespace) -> int:
    pencil = _load_pencil(args.file)
    try:
        result = adim_verdict(pencil)
    except (ValueError, InvariantViolation) as exc:
        raise _CommandError(f"invalid: {exc}") from None
    report: dict[str, Any] = {"verdict": result.verdict}
    if result.decomposition is not None:
        report.update(_decomposition_fields(result.decomposition))
    report["kodaira"] = result.generic_kodaira
    report["justification"] = list(result.justification)
    report["derivations"] = [_derivation_fields(d) for d in result.derivations]
    _emit(report, args.json)
    return EXIT_INCONSISTENT if result.verdict == VERDICT_INCONSISTENT else EXIT_OK


def _cmd_oracle_check(args: argparse.Namespace) -> int:
    if args.count < 1:
        raise _CommandError(f"invalid: --count must be at least 1, got {args.count}")
    configs: list[CycleConfig]
    if args.file is not None:
        configs = [_load_cycle(args.file)]
    elif args.seed is not None:
        rng = random.Random(args.seed)
        configs = [config_io.random_small_config(rng) for _ in range(args.count)]
    else:
        raise _CommandError("invalid: give --file or --seed")
    for config in configs:
        try:
            fast = zariski_decompose(config)
            slow = zariski_oracle(config)
        except (ValueError, OracleError) as exc:
            raise _CommandError(f"invalid: {exc}") from None
        if fast.p != slow.p or fast.n_part != slow.n_part:
            print(f"disagreement on selfints = {list(config.self_ints)}")
            return EXIT_DISAGREEMENT
    _emit({"checked": len(configs), "agreements": len(configs)}, args.json)
    return EXIT_OK


def _cmd_fixtures(args: argparse.Namespace) -> int:
    if args.count < 1:
        raise _CommandError(f"invalid: --count must be at least 1, got {args.count}")
    batch = config_io.generate_fixtures(args.seed, args.count)
    for index, data in enumerate(batch, start=1):
        print(f"# fixture {index} of {args.count}, seed {args.seed}")
        sys.stdout.write(config_io.render_config(data))
        print()
    return EXIT_OK


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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except _CommandError as exc:
        print(str(exc))
        return exc.code
    except CertificationError as exc:
        print(f"error: {exc}")
        return EXIT_UNCERTIFIED


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
