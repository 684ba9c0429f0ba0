"""End-to-end tests of the command-line interface."""

from __future__ import annotations

import dataclasses
import json
import random
from fractions import Fraction

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

F = Fraction


def run_cli(capsys, *argv: str) -> tuple[int, str]:
    code = cli.run(list(argv))
    return code, capsys.readouterr().out


class TestParsing:
    def test_round_trip_all_fixture_files(self):
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
                data = parse_config(handle.read())
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

    def test_requires_source(self, capsys):
        code, out = run_cli(capsys, "oracle-check")
        assert code == 2

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
            assert len(decompositions) == 1 + len(blow_downs), path.name
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
        ],
    )
    def test_wrong_chain_solve_exits_four(self, command, name, monkeypatch, capsys):
        def wrong(s, rhs, support):
            return [F(-1)] * len(s)

        monkeypatch.setattr(cycles, "_solve_chain", wrong)
        code = cli.run([*command, "--file", fixture_path(name)])
        captured = capsys.readouterr()
        assert code == cli.EXIT_UNCERTIFIED == 4
        assert captured.out == "error: negative part is not effective\n"
        assert "Traceback" not in captured.err


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
