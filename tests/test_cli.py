"""End-to-end tests of the command-line interface."""

from __future__ import annotations

import dataclasses
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from anticycle import birational, cli, cycles, twistor
from anticycle.config_io import (
    ConfigData,
    ConfigError,
    build_cycle,
    generate_fixtures,
    parse_config,
    render_config,
)
from anticycle.cycles import QDivisor, validate, zariski_decompose, zariski_oracle
from anticycle.pic0 import PicZeroElement, PicZeroFamily

from conftest import FIXTURE_DIR, fixture_path
from parse_equivalence import argv_corpus, mismatches, parse_outcome, takes_table

F = Fraction


def run_cli(capsys, *argv: str) -> tuple[int, str]:
    code = cli.run(list(argv))
    return code, capsys.readouterr().out


class TestParsing:
    def test_round_trip_all_fixture_files(self):
        texts = [
            "base = cycle\nn = 5\nk = 2\nself = [-1, -4]\nresolution = [0, 1]\n",
            "selfints = [-2, -2, -2, -2]\nfamily = const modulus 2 angle 1/3\n",
        ]
        for name in (
            "fixtureA.cfg",
            "fixtureB.cfg",
            "fixtureC.cfg",
            "fixtureD.cfg",
            "fixtureE.cfg",
            "fixtureC-constfinite.cfg",
            "fixtureC-nonconstant.cfg",
            "fixtureA-constfinite.cfg",
            "elliptic-order4.cfg",
        ):
            with open(fixture_path(name), encoding="utf-8") as handle:
                texts.append(handle.read())
        for text in texts:
            data = parse_config(text)
            assert parse_config(render_config(data)) == data

    def test_unknown_key_rejected_with_line(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config("n = 4\nwidth = 7\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("n = 4\nn = 5\nselfints = [-2, -2]\n")

    def test_both_self_forms_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("self = [-2]\nselfints = [-2, -2]\nk = 1\nn = 4\n")

    def test_comments_ignored(self):
        data = parse_config("# header\nselfints = [-2, -2]  # inline\n")
        assert data.self_ints == (-2, -2)

    def test_family_forms(self):
        const = parse_config("selfints = [-2, -2]\nfamily = const unity 1/6\n")
        assert const.family.element == PicZeroElement(F(1), F(1, 6))
        modal = parse_config(
            "selfints = [-2, -2]\nfamily = const modulus 3/2 angle 1/4\n"
        )
        assert modal.family.element == PicZeroElement(F(3, 2), F(1, 4))
        non = parse_config("selfints = [-2, -2]\nfamily = nonconstant\n")
        assert not non.family.is_constant

    def test_built_cycle_matches_fixture(self, cycle_c):
        with open(fixture_path("fixtureC.cfg"), encoding="utf-8") as handle:
            data = parse_config(handle.read())
        assert build_cycle(data) == cycle_c


class TestZariskiCommand:
    def test_fixture_c_report(self, capsys):
        code, out = run_cli(
            capsys, "zariski", "--file", fixture_path("fixtureC.cfg")
        )
        assert code == 0
        assert "decomposition.p: (1, 1/2, 1, 1/2)" in out
        assert "m0: 2" in out
        assert "l: (2, 1, 2, 1)" in out
        assert "d: 0" in out

    def test_json_matches_human(self, capsys):
        code, human = run_cli(
            capsys, "zariski", "--file", fixture_path("fixtureE.cfg")
        )
        assert code == 0
        code, raw = run_cli(
            capsys, "zariski", "--file", fixture_path("fixtureE.cfg"), "--json"
        )
        assert code == 0
        report = json.loads(raw)
        assert report["decomposition"]["p"] == ["2/5", "1", "2/5", "1"]
        assert report["d"] == "18/5"
        assert "d: 18/5" in human
        assert "decomposition.p: (2/5, 1, 2/5, 1)" in human

    def test_parse_error_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("selfints = [-2, -2]\nwhat = 1\n")
        code, out = run_cli(capsys, "zariski", "--file", str(bad))
        assert code == 2
        assert "line 2" in out

    def test_validation_error_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("n = 4\nk = 1\nself = [-3]\n")
        code, out = run_cli(capsys, "zariski", "--file", str(bad))
        assert code == 2
        assert "invalid" in out

    def test_missing_file_exits_two(self, capsys):
        code, out = run_cli(capsys, "zariski", "--file", "/nonexistent.cfg")
        assert code == 2

    def test_directory_exits_two(self, tmp_path, capsys):
        code, out = run_cli(capsys, "zariski", "--file", str(tmp_path))
        assert (code, out) == (2, f"cannot read {tmp_path}: Is a directory\n")


class TestSurgeryCommands:
    def test_blowup_node(self, capsys):
        code, out = run_cli(
            capsys,
            "blowup",
            "--file",
            fixture_path("fixtureA.cfg"),
            "--node",
            "1",
        )
        assert code == 0
        assert "result.selfints: (-4, -1, -4, -1)" in out
        assert "transported_l: (1, 2, 1, 2)" in out

    def test_blowup_smooth(self, capsys):
        code, out = run_cli(
            capsys,
            "blowup",
            "--file",
            fixture_path("fixtureA.cfg"),
            "--component",
            "1",
            "--smooth",
        )
        assert code == 0
        assert "result.selfints: (-3, -3)" in out

    def test_blowup_requires_exactly_one_mode(self, capsys):
        code, out = run_cli(
            capsys, "blowup", "--file", fixture_path("fixtureA.cfg")
        )
        assert code == 2

    def test_blowup_node_refuses_a_component(self, capsys):
        code, out = run_cli(
            capsys,
            "blowup",
            "--file",
            fixture_path("fixtureC.cfg"),
            "--node",
            "1",
            "--component",
            "3",
        )
        assert (code, out) == (
            2,
            "invalid: give either --node I, or --component I with --smooth\n",
        )

    def test_smooth_without_component(self, capsys):
        code, out = run_cli(
            capsys, "blowup", "--file", fixture_path("fixtureC.cfg"), "--smooth"
        )
        assert (code, out) == (2, "invalid: --smooth requires --component\n")

    def test_blowdown_only_component(self, tmp_path, capsys):
        nodal = tmp_path / "nodal.cfg"
        nodal.write_text("selfints = [-1]\n")
        code, out = run_cli(capsys, "blowdown", "--file", str(nodal), "--component", "1")
        assert (code, out) == (2, "invalid: cannot contract the only component\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            (
                "n = 5\nk = 3\nself = [-1, -4]\n",
                "k = 3 disagrees with the 2 listed self-intersections",
            ),
            (
                "k = 2\nselfints = [-2, -2, -2, -2]\n",
                "k only applies to real configs given via 'self'",
            ),
        ],
    )
    def test_k_inconsistent_with_cycle(self, text, message, tmp_path, capsys):
        cfg = tmp_path / "k.cfg"
        cfg.write_text(text)
        code, out = run_cli(capsys, "zariski", "--file", str(cfg))
        assert (code, out) == (2, f"invalid: {message}\n")

    def test_blowdown(self, capsys):
        code, out = run_cli(
            capsys,
            "blowdown",
            "--file",
            fixture_path("fixtureC.cfg"),
            "--component",
            "1",
        )
        assert code == 0
        assert "result.selfints: (-2, -2)" in out

    def test_blowdown_wrong_component(self, capsys):
        code, out = run_cli(
            capsys,
            "blowdown",
            "--file",
            fixture_path("fixtureC.cfg"),
            "--component",
            "2",
        )
        assert code == 2

    def test_blowdown_names_the_requested_component(self, capsys):
        code, out = run_cli(
            capsys,
            "blowdown",
            "--file",
            fixture_path("fixtureE.cfg"),
            "--component",
            "2",
        )
        assert code == 2
        assert out == "invalid: component 2 has self-intersection 1, not -1\n"

    @pytest.mark.parametrize(
        "command, name, message",
        [
            (("blowup", "--node", "5"), "fixtureC.cfg", "node 5 out of range for m = 4"),
            (
                ("blowup", "--component", "0", "--smooth"),
                "fixtureC.cfg",
                "component 0 out of range for m = 4",
            ),
            (
                ("blowdown", "--component", "3"),
                "fixtureA.cfg",
                "component 3 out of range for m = 2",
            ),
        ],
    )
    def test_out_of_range_index(self, command, name, message, capsys):
        code, out = run_cli(capsys, *command, "--file", fixture_path(name))
        assert code == 2
        assert out == f"invalid: {message}\n"

    def test_contract(self, capsys):
        code, out = run_cli(
            capsys, "contract", "--file", fixture_path("fixtureD.cfg")
        )
        assert code == 0
        assert "found: true" in out
        assert "result.selfints: (-2, -2)" in out

    def test_contract_absent(self, capsys):
        code, out = run_cli(
            capsys, "contract", "--file", fixture_path("fixtureB.cfg")
        )
        assert code == 0
        assert "found: false" in out


class TestModelCommands:
    def test_fibers(self, capsys):
        code, out = run_cli(
            capsys, "fibers", "--file", fixture_path("fixtureC.cfg")
        )
        assert code == 0
        assert "fibers[0].line: L1" in out
        assert "fibers[1].line: L2" in out

    def test_intnums_rho_one(self, capsys):
        code, out = run_cli(
            capsys,
            "intnums",
            "--file",
            fixture_path("fixtureC.cfg"),
            "--rho",
            "1",
        )
        assert code == 0
        assert "intersections.C_{1,2}: -1" in out
        assert "intersections.Delta_1: 1" in out

    @pytest.mark.parametrize("r", ["-5", "-1"])
    def test_intnums_rejects_negative_r(self, r, capsys):
        code, out = run_cli(
            capsys,
            "intnums",
            "--file",
            fixture_path("fixtureC-constfinite.cfg"),
            "--rho",
            "1",
            "--r",
            r,
        )
        assert (code, out) == (2, f"invalid: --r must be at least 0, got {r}\n")

    def test_intnums_r_zero_is_echoed(self, capsys):
        code, out = run_cli(
            capsys, "intnums", "--file", fixture_path("fixtureC.cfg"), "--rho", "1"
        )
        assert code == 0
        assert out.startswith("r: 0\nrho: 1\n")

    @pytest.mark.skipif(
        sys.get_int_max_str_digits() == 0, reason="no limit on integer digits"
    )
    @pytest.mark.parametrize("json_flag", [(), ("--json",)])
    def test_intnums_value_too_long_to_print_is_invalid(
        self, json_flag, tmp_path, capsys
    ):
        # the largest rho that int() reads makes an M.C value one digit longer
        path = tmp_path / "long.cfg"
        path.write_text(
            "base = cycle\nn = 7\nk = 5\nself = [-3, -4, -2, -1, -3]\n"
            "family = nonconstant\n"
        )
        rho = "9" * sys.get_int_max_str_digits()
        code, out = run_cli(
            capsys, "intnums", "--file", str(path), "--rho", rho, *json_flag
        )
        assert code == cli.EXIT_INVALID == 2
        assert len(out.splitlines()) == 1
        assert out.startswith("invalid: Exceeds the limit")

    def test_fixed_succeeds(self, capsys):
        code, out = run_cli(
            capsys,
            "fixed",
            "--file",
            fixture_path("fixtureC.cfg"),
            "--rho",
            "1",
        )
        assert code == 0
        assert "holds: true" in out

    def test_fixed_with_nu(self, capsys):
        code, out = run_cli(
            capsys,
            "fixed",
            "--file",
            fixture_path("fixtureC-constfinite.cfg"),
            "--nu",
            "2",
            "--r",
            "3",
        )
        assert code == 0
        assert "tau: 6" in out
        assert "rho: 12" in out
        assert "pluri_dim: 3" in out

    def test_fixed_nu_requires_finite_family(self, capsys):
        code, out = run_cli(
            capsys,
            "fixed",
            "--file",
            fixture_path("fixtureC.cfg"),
            "--nu",
            "1",
        )
        assert code == 2

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("--nu", "0"), "invalid: --nu must be at least 1, got 0\n"),
            (("--nu", "-1"), "invalid: --nu must be at least 1, got -1\n"),
            (
                ("--nu", "1", "--r", "-1"),
                "invalid: --r must be at least 0 with --nu, got -1\n",
            ),
        ],
    )
    def test_fixed_nu_rejects_out_of_range(self, argv, message, capsys):
        code, out = run_cli(
            capsys, "fixed", "--file", fixture_path("fixtureC-constfinite.cfg"), *argv
        )
        assert code == 2
        assert out == message

    def test_fixed_exactly_one_mode(self, capsys):
        code, out = run_cli(
            capsys,
            "fixed",
            "--file",
            fixture_path("fixtureC.cfg"),
            "--rho",
            "1",
            "--nu",
            "1",
        )
        assert code == 2

    def test_adim_inconsistent_exits_three(self, capsys):
        code, out = run_cli(
            capsys, "adim", "--file", fixture_path("fixtureC-constfinite.cfg")
        )
        assert code == 3
        assert "verdict: inconsistent" in out
        assert "derivations[0]" in out
        assert "derivations[1]" in out

    def test_adim_nonconstant(self, capsys):
        code, out = run_cli(
            capsys, "adim", "--file", fixture_path("fixtureC-nonconstant.cfg")
        )
        assert code == 0
        assert "verdict: a1" in out

    def test_adim_a2(self, capsys):
        code, out = run_cli(
            capsys, "adim", "--file", fixture_path("fixtureA-constfinite.cfg")
        )
        assert code == 0
        assert "verdict: a2" in out

    def test_adim_a3(self, capsys):
        code, out = run_cli(
            capsys, "adim", "--file", fixture_path("fixtureE-nonconstant.cfg")
        )
        assert code == 0
        assert "verdict: a3" in out

    def test_adim_elliptic(self, capsys):
        code, out = run_cli(
            capsys, "adim", "--file", fixture_path("elliptic-order4.cfg")
        )
        assert code == 0
        assert "verdict: a1" in out

    @pytest.mark.parametrize(
        "command",
        [("fibers",), ("intnums", "--rho", "1"), ("fixed", "--rho", "1"), ("adim",)],
    )
    def test_elliptic_resolution_line_is_invalid(self, command, tmp_path, capsys):
        elliptic = tmp_path / "elliptic-resolution.cfg"
        elliptic.write_text(
            "base = elliptic\nn = 4\nfamily = const unity 1/4\nresolution = [0, 1]\n"
        )
        code, out = run_cli(capsys, *command, "--file", str(elliptic))
        assert code == cli.EXIT_INVALID == 2
        assert out == "invalid: resolution bits are only meaningful for cycle bases\n"

    @pytest.mark.parametrize(
        "command",
        [("fibers",), ("intnums", "--rho", "1"), ("fixed", "--rho", "1"), ("adim",)],
    )
    @pytest.mark.parametrize(
        "lines", ["k = 2\nself = [-1, -4]\n", "selfints = [-1, -4]\n", "k = 2\n"]
    )
    def test_elliptic_cycle_keys_are_invalid(self, command, lines, tmp_path, capsys):
        elliptic = tmp_path / "elliptic-cycle.cfg"
        elliptic.write_text(
            "base = elliptic\nn = 4\n" + lines + "family = const unity 1/4\n"
        )
        code, out = run_cli(capsys, *command, "--file", str(elliptic))
        assert code == cli.EXIT_INVALID == 2
        assert out == "invalid: k, self and selfints are only meaningful for cycle bases\n"

    def test_adim_json_verdict_agrees(self, capsys):
        code, human = run_cli(
            capsys, "adim", "--file", fixture_path("fixtureC-constfinite.cfg")
        )
        assert code == 3
        code, raw = run_cli(
            capsys,
            "adim",
            "--file",
            fixture_path("fixtureC-constfinite.cfg"),
            "--json",
        )
        assert code == 3
        report = json.loads(raw)
        assert report["verdict"] == "inconsistent"
        assert len(report["derivations"]) == 2
        assert "verdict: inconsistent" in human


class TestOracleCheck:
    def test_single_file(self, capsys):
        code, out = run_cli(
            capsys, "oracle-check", "--file", fixture_path("fixtureC.cfg")
        )
        assert code == 0
        assert "agreements: 1" in out

    def test_seeded_batch(self, capsys):
        code, out = run_cli(
            capsys, "oracle-check", "--seed", "11", "--count", "20"
        )
        assert code == 0
        assert "checked: 20" in out
        assert "agreements: 20" in out

    def test_thirteen_components_exceed_the_oracle(self, tmp_path, capsys):
        wide = tmp_path / "m13.cfg"
        wide.write_text(f"selfints = [{', '.join(['-2'] * 13)}]\n")
        code, out = run_cli(capsys, "oracle-check", "--file", str(wide))
        assert code == cli.EXIT_INVALID == 2
        assert out == "invalid: oracle limited to m <= 12 components\n"

    def test_requires_source(self, capsys):
        code, out = run_cli(capsys, "oracle-check")
        assert code == 2

    def test_refuses_file_and_seed(self, capsys):
        code, out = run_cli(
            capsys,
            "oracle-check",
            "--file",
            fixture_path("fixtureC.cfg"),
            "--seed",
            "3",
        )
        assert (code, out) == (2, "invalid: give --file or --seed, not both\n")

    @pytest.mark.parametrize("count", ["1", "5"])
    def test_refuses_count_with_file(self, count, capsys):
        code, out = run_cli(
            capsys,
            "oracle-check",
            "--file",
            fixture_path("fixtureC.cfg"),
            "--count",
            count,
        )
        assert (code, out) == (2, "invalid: --count applies only to --seed\n")

    def test_count_below_one_is_checked_before_file(self, capsys):
        code, out = run_cli(
            capsys, "oracle-check", "--file", fixture_path("fixtureC.cfg"), "--count", "0"
        )
        assert (code, out) == (2, "invalid: --count must be at least 1, got 0\n")

    def test_seed_alone_checks_one(self, capsys):
        code, out = run_cli(capsys, "oracle-check", "--seed", "11")
        assert (code, out) == (0, "checked: 1\nagreements: 1\n")

    def test_rejects_count_below_one(self, capsys):
        code, out = run_cli(capsys, "oracle-check", "--seed", "1", "--count", "-3")
        assert code == 2
        assert out.startswith("invalid: ")
        assert "checked" not in out

    def test_disagreement_exits_one(self, capsys, monkeypatch):
        def wrong_oracle(config):
            z = zariski_decompose(config)
            return dataclasses.replace(z, p=QDivisor.of([0] * config.m))

        monkeypatch.setattr(cli, "zariski_oracle", wrong_oracle)
        code, out = run_cli(
            capsys, "oracle-check", "--file", fixture_path("fixtureC.cfg")
        )
        assert code == 1 == cli.EXIT_DISAGREEMENT
        assert out == "disagreement on selfints = [-1, -4, -1, -4]\n"


class TestFixtures:
    def test_rejects_count_below_one(self, capsys):
        code, out = run_cli(capsys, "fixtures", "--seed", "1", "--count", "-3")
        assert code == 2
        assert out.startswith("invalid: ")

    def test_deterministic(self, capsys):
        code, first = run_cli(capsys, "fixtures", "--seed", "1", "--count", "5")
        assert code == 0
        code, second = run_cli(capsys, "fixtures", "--seed", "1", "--count", "5")
        assert code == 0
        assert first == second

    def test_seed_one_valid_and_oracle_agrees(self):
        for data in generate_fixtures(1, 1):
            config = build_cycle(data)
            assert validate(config) == []
            fast = zariski_decompose(config)
            slow = zariski_oracle(config)
            assert fast.p == slow.p

    def test_seed_two_hundred_valid_with_invariants(self):
        for data in generate_fixtures(2, 100):
            config = build_cycle(data)
            assert validate(config) == []
            z = zariski_decompose(config)
            if z.p.is_zero or z.d != 0:
                continue
            assert all(li > 0 for li in z.l)
            assert any(li == 1 for li in z.l)
            assert z.m0 == max(z.l)

    def test_generated_files_parse_back(self, capsys):
        code, out = run_cli(capsys, "fixtures", "--seed", "9", "--count", "3")
        assert code == 0
        blocks = [b for b in out.split("\n\n") if b.strip()]
        assert len(blocks) == 3
        for block in blocks:
            data = parse_config(block)
            assert validate(build_cycle(data)) == []


@pytest.fixture
def decompositions(monkeypatch) -> list:
    """Every ``zariski_decompose`` call, recorded at each import site."""
    calls = []
    real = cycles.zariski_decompose

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for module in (cycles, birational, twistor, cli):
        monkeypatch.setattr(module, "zariski_decompose", counting)
    return calls


def _fixture_files():
    return sorted(FIXTURE_DIR.glob("*.cfg"))


class TestDecompositionsPerCommand:
    @pytest.mark.parametrize(
        "command",
        [
            ("zariski",),
            ("classify",),
            ("blowup", "--node", "1"),
            ("intnums", "--rho", "1"),
            ("fixed", "--rho", "1"),
            ("fixed", "--nu", "1"),
            ("adim",),
        ],
    )
    def test_one_decomposition(self, command, decompositions, capsys):
        counted = 0
        for path in _fixture_files():
            decompositions.clear()
            code = cli.run([*command, "--file", str(path)])
            capsys.readouterr()
            elliptic = parse_config(path.read_text(encoding="utf-8")).base == "elliptic"
            if code == cli.EXIT_INVALID or elliptic:
                continue
            assert len(decompositions) == 1, path.name
            counted += 1
        assert counted >= 1

    def test_contract_once_per_configuration(self, decompositions, monkeypatch, capsys):
        blow_downs = []
        real = birational.blow_down

        def counting(*args, **kwargs):
            blow_downs.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(birational, "blow_down", counting)
        counted = 0
        for path in _fixture_files():
            decompositions.clear()
            blow_downs.clear()
            code = cli.run(["contract", "--file", str(path)])
            capsys.readouterr()
            if code == cli.EXIT_INVALID:
                continue
            assert len(decompositions) == 1, path.name
            counted += len(blow_downs)
        assert counted >= 1

    def test_fibers_never_decompose(self, decompositions, capsys):
        for path in _fixture_files():
            cli.run(["fibers", "--file", str(path)])
            capsys.readouterr()
        assert decompositions == []


class TestUncertified:
    @pytest.mark.parametrize(
        "command, name",
        [
            (("zariski",), "fixtureC.cfg"),
            (("classify",), "fixtureC.cfg"),
            (("blowup", "--node", "1"), "fixtureC.cfg"),
            (("contract",), "fixtureD.cfg"),
            (("adim",), "fixtureC-nonconstant.cfg"),
            (("intnums", "--rho", "1"), "fixtureC.cfg"),
            (("fixed", "--rho", "1"), "fixtureC.cfg"),
        ],
    )
    def test_wrong_chain_solve_exits_four(self, command, name, monkeypatch, capsys):
        def wrong(s, rhs, support):
            return [-1] * len(s), 1

        monkeypatch.setattr(cycles, "_solve_chain", wrong)
        code = cli.run([*command, "--file", fixture_path(name)])
        captured = capsys.readouterr()
        assert code == cli.EXIT_UNCERTIFIED == 4
        assert captured.out == "error: negative part is not effective\n"
        assert "Traceback" not in captured.err

    def test_singular_chain_solve_exits_four(self, monkeypatch, capsys):
        monkeypatch.setattr(cycles, "_solve_chain", lambda s, rhs, support: None)
        code = cli.run(["zariski", "--file", fixture_path("fixtureC.cfg")])
        captured = capsys.readouterr()
        assert code == cli.EXIT_UNCERTIFIED == 4
        assert captured.out == "error: singular support system on components [2, 4]\n"
        assert "Traceback" not in captured.err

    def test_indefinite_support_exits_four(self, monkeypatch, capsys):
        def indefinite(config, support):
            return False

        monkeypatch.setattr(cycles, "_negative_definite_support", indefinite)
        code = cli.run(["zariski", "--file", fixture_path("fixtureC.cfg")])
        captured = capsys.readouterr()
        assert code == cli.EXIT_UNCERTIFIED == 4
        assert captured.out == "error: support of N is not negative definite\n"
        assert "Traceback" not in captured.err


class TestExitCodeTable:
    """A library input error leaves every file subcommand as one ``invalid:`` line."""

    @pytest.mark.parametrize(
        "error", [ValueError, twistor.InvariantViolation, cycles.OracleError]
    )
    @pytest.mark.parametrize(
        "command, name, call",
        [
            (("zariski",), "fixtureC.cfg", "zariski_decompose"),
            (("classify",), "fixtureC.cfg", "classify_kodaira"),
            (("blowup", "--node", "1"), "fixtureA.cfg", "blow_up_node"),
            (("blowdown", "--component", "1"), "fixtureC.cfg", "blow_down"),
            (("contract",), "fixtureD.cfg", "contract_to_nef_model"),
            (("fibers",), "fixtureC.cfg", "reducible_fibers"),
            (("intnums", "--rho", "1"), "fixtureC.cfg", "m_class_intersections"),
            (("fixed", "--rho", "1"), "fixtureC.cfg", "prove_E_fixed"),
            (("adim",), "fixtureC-nonconstant.cfg", "algebraic_dimension"),
            (("oracle-check",), "fixtureC.cfg", "zariski_oracle"),
        ],
    )
    def test_library_error_exits_two(
        self, command, name, call, error, monkeypatch, capsys
    ):
        def failing(*args, **kwargs):
            raise error("boom")

        monkeypatch.setattr(cli, call, failing)
        code = cli.run([*command, "--file", fixture_path(name)])
        captured = capsys.readouterr()
        assert code == cli.EXIT_INVALID == 2
        assert captured.out == "invalid: boom\n"
        assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "command",
    [("fibers",), ("intnums", "--rho", "1"), ("fixed", "--rho", "1"), ("adim",)],
)
def test_each_validation_issue_is_one_line(command, tmp_path, capsys):
    bad = tmp_path / "two-issues.cfg"
    bad.write_text(
        "base = cycle\nn = 3\nk = 2\nself = [-1, -4]\nfamily = const unity 1/6\n"
    )
    code = cli.run([*command, "--file", str(bad)])
    captured = capsys.readouterr()
    assert code == cli.EXIT_INVALID == 2
    assert captured.out == (
        "invalid: twistor pencils require n >= 4\n"
        "invalid: C^2 = -2 but 8 - 2n = 2\n"
    )
    assert "Traceback" not in captured.err


def test_fixed_nu_proves_once(monkeypatch, capsys):
    calls = []
    real = twistor.prove_E_fixed

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for module in (twistor, cli):
        monkeypatch.setattr(module, "prove_E_fixed", counting)
    code, out = run_cli(
        capsys,
        "fixed",
        "--file",
        fixture_path("fixtureC-constfinite.cfg"),
        "--nu",
        "1",
    )
    assert code == 0
    assert "pluri_dim: 0" in out
    assert len(calls) == 1


def test_adim_validates_once(monkeypatch, capsys):
    calls = []
    real = twistor.validate_pencil

    def counting(pencil):
        calls.append(pencil)
        return real(pencil)

    for module in (twistor, cli):
        monkeypatch.setattr(module, "validate_pencil", counting)
    validated = 0
    for path in _fixture_files():
        calls.clear()
        cli.run(["adim", "--file", str(path)])
        capsys.readouterr()
        assert len(calls) <= 1, path.name
        validated += len(calls)
    assert validated >= 5


@pytest.mark.parametrize(
    "argv",
    [
        ("adim", "--file", "fixtureC-constfinite.cfg", "--json"),
        ("zariski", "--file", "fixtureC.cfg"),
        ("zariski", "--file", "missing.cfg"),
        ("fixtures", "--seed", "1", "--count", "50"),
        ("-h",),
    ],
)
@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_closed_stdout_exits_quietly(argv, unbuffered):
    """A reader that closed the pipe before the child started: no traceback,
    nothing on standard error, and the documented exit code, whether the
    report fails in ``print`` (unbuffered) or in the final flush.  Unbuffered
    help is the exception: argparse drops its own write error and exits 0."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(src)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    args = [fixture_path(a) if a.endswith(".cfg") else a for a in argv]
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        completed = subprocess.run(
            [sys.executable, "-m", "anticycle.cli", *args],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            timeout=60,
        )
    finally:
        os.close(write_end)
    code = 0 if argv == ("-h",) and unbuffered else cli.EXIT_BROKEN_PIPE
    assert (completed.returncode, completed.stderr) == (code, b"")
    assert cli.EXIT_BROKEN_PIPE == 141


def test_module_entry_point():
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    completed = subprocess.run(
        [
            sys.executable,
            "-m",
            "anticycle.cli",
            "blowdown",
            "--component",
            "1",
            "--file",
            fixture_path("fixtureD.cfg"),
        ],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert completed.returncode == 2
    assert completed.stdout == (
        "invalid: component 1 has self-intersection -3, not -1\n"
    )
    assert "Traceback" not in completed.stderr


#: Argv lists that reach each branch of ``cli._parse``: the option table,
#: and the full parser on every form the table leaves to it.
PARSE_CASES = [
    [],
    ["-h"],
    ["--help"],
    *([name, "-h"] for name in cli.build_parser().commands),
    ["frobnicate"],
    ["frobnicate", "--file", "x.cfg"],
    ["zariski"],
    ["zariski", "--file"],
    ["zariski", "--file", "x.cfg"],
    ["zariski", "--file", "x.cfg", "--bogus"],
    ["zariski", "--file", "x.cfg", "stray"],
    ["blowup", "--node", "x", "--file", "x.cfg"],
    ["blowup", "--node", "-1", "--file", "x.cfg"],
    ["--", "zariski", "--file", "x.cfg"],
    ["zariski", "--", "--file", "x.cfg"],
    ["zariski", "--file", "x.cfg", "--"],
    ["zariski", "--file=x.cfg"],
    ["zariski", "--fi", "x.cfg"],
    ["zariski", "--file", "x.cfg", "--json", "--json"],
    ["zariski", "--h"],
    ["--json", "zariski", "--file", "x.cfg"],
    ["fixed", "--file", "x.cfg", "--rho", "1", "--nu", "2"],
    ["blowdown", "--file", "x.cfg", "--component", "2", "--drop-reality"],
    ["intnums", "--file", "x.cfg", "--rho", "1", "--r", "-2"],
    ["oracle-check"],
    ["fixtures", "--seed", "1", "--count", "2"],
    ["fixtures", "--seed", "1", "--count", "2", "--seed", "3"],
    ["fixtures", "--count", "2"],
    ["zariski", "--file", "x.cfg", "--file"],
    ["zariski", "--file", "-"],
    ["zariski", "--file", ""],
    ["zariski", "--file", "-x"],
    ["zariski", "-", "--file", "x.cfg"],
    *(
        ["intnums", "--file", "x.cfg", "--rho", value]
        for value in ("-1", "-1.5", "-x", "", " 3", "1_0", "-٣", "-²")
    ),
]


@pytest.mark.parametrize("argv", PARSE_CASES, ids=" ".join)
def test_parse_matches_the_full_parser(argv):
    assert parse_outcome(cli._parse, argv) == parse_outcome(
        cli.build_parser().parse_args, argv
    )


def test_parse_matches_the_full_parser_on_the_argv_corpus():
    corpus = argv_corpus()
    assert len(corpus) >= 20_000
    # both sides of ``cli._parse`` are exercised
    assert 0.2 < sum(map(takes_table, corpus)) / len(corpus) < 0.8
    assert mismatches(corpus) == []


def test_module_entry_point_matches_transcript_and_run(capsys):
    """``python -m anticycle.cli`` parses ``sys.argv``; its stdout and exit
    code match the golden transcript, or the in-process run."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    transcript = Path(__file__).parent / "golden" / "cli_transcript.json"
    recorded = {
        tuple(entry["argv"]): entry
        for entry in json.loads(transcript.read_text(encoding="utf-8"))
    }
    golden = [
        recorded[argv]
        for argv in (
            ("zariski", "--file", "fixtureC.cfg"),
            ("fixed", "--rho", "1", "--file", "fixtureC-constfinite.cfg", "--json"),
            ("adim", "--file", "fixtureC-constfinite.cfg"),
        )
    ]
    assert [entry["exit"] for entry in golden] == [0, 0, 3]
    cases = [
        ([fixture_path(a) if a.endswith(".cfg") else a for a in entry["argv"]], entry)
        for entry in golden
    ]
    cases += [(["-h"], None), (["frobnicate"], None)]
    # started together: each pays the interpreter's start-up; every child is
    # read to the end before the first assertion, so a failing case leaves
    # no pipe open to surface later as another test's ResourceWarning
    processes = [
        subprocess.Popen(
            [sys.executable, "-m", "anticycle.cli", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        for argv, _ in cases
    ]
    outputs = [process.communicate(timeout=60) for process in processes]
    for (argv, entry), process, (stdout, stderr) in zip(cases, processes, outputs):
        if entry is None:
            with pytest.raises(SystemExit) as exited:
                cli.run(argv)
            captured = capsys.readouterr()
            expected = (exited.value.code, captured.out, captured.err)
        else:
            expected = (entry["exit"], entry["stdout"], "")
        assert (process.returncode, stdout, stderr) == expected
