import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iqy_dirac import cli, dirac_iqy, oracle, reference_tables
from iqy_dirac.cli import (
    CSV_HEADER,
    RunConfig,
    build_config,
    build_parser,
    cmd_crosscheck,
    cmd_reproduce_tables,
    cmd_spectrum,
    cmd_wavefunction,
    fmt_float,
    load_config_file,
    main,
)
from iqy_dirac.dirac_iqy import PSPIN, SPIN
from iqy_dirac.errors import ConfigError
from test_golden import GOLDEN


def run_main(argv):
    return main(argv)


class TestConfig:
    def test_defaults_valid(self):
        cfg = RunConfig()
        cfg.validate()

    def test_empty_kappa_rejected(self):
        cfg = RunConfig(kappas=[])
        with pytest.raises(ConfigError):
            cfg.validate()

    def test_zero_kappa_rejected(self):
        cfg = RunConfig(kappas=[0])
        with pytest.raises(ConfigError):
            cfg.validate()

    def test_bad_range(self):
        cfg = RunConfig(n_min=3, n_max=1)
        with pytest.raises(ConfigError):
            cfg.validate()

    def test_file_plus_flag_override(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# comment line\n"
            "symmetry = spin\n"
            "mass = 4.0\n"
            "kappa = -2,1\n"
            "tensor_h = 0,5\n"
            "format = json\n"
        )
        parser = build_parser()
        args = parser.parse_args(
            ["spectrum", "--config", str(path), "--mass", "5.0"]
        )
        cfg = build_config(args)
        assert cfg.symmetry == "spin"
        assert cfg.mass == 5.0  # flag wins
        assert cfg.kappas == [-2, 1]
        assert cfg.tensor_h == [0.0, 5.0]
        assert cfg.fmt == "json"

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("masss = 4.0\n")
        with pytest.raises(ConfigError):
            load_config_file(str(path))

    def test_bad_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("just words\n")
        with pytest.raises(ConfigError):
            load_config_file(str(path))

    def test_byte_order_mark_is_skipped(self, tmp_path, capsys):
        path = tmp_path / "bom.cfg"
        path.write_bytes(b"\xef\xbb\xbfmass = 4.0\nkappa = -1\n")
        assert run_main(["spectrum", "--config", str(path)]) == 0
        with_bom = capsys.readouterr()
        assert run_main(["spectrum", "--mass", "4.0", "--kappa", "-1"]) == 0
        assert with_bom == capsys.readouterr()

    def test_window_parsing(self):
        parser = build_parser()
        argv = cli._join_list_flags(
            ["spectrum", "--kappa", "-1", "--window", "-4.9,-0.6"]
        )
        cfg = build_config(parser.parse_args(argv))
        assert cfg.window == (-4.9, -0.6)
        assert cfg.kappas == [-1]

    def test_fmt_float(self):
        assert fmt_float(None) == "nan"
        assert fmt_float(float("nan")) == "nan"
        assert fmt_float(-0.491129) == "-0.491129"
        assert fmt_float(123456789.123) == "123456789"


# Every common option: config key -> (a value, a different value).
OPTION_VALUES = {
    "symmetry": ("spin", "pspin"),
    "mass": ("4.5", "6"),
    "v0": ("0.8", "1.5"),
    "screening": ("0.1", "0.02"),
    "tensor_h": ("0,5", "2"),
    "cs": ("5.0", "7"),
    "cps": ("-4.0", "-3"),
    "n_min": ("1", "0"),
    "n_max": ("3", "4"),
    "kappa": ("-2,1", "3"),
    "window": ("1.0,1.2", "-2,-1"),
    "tol": ("1e-10", "1e-11"),
    "out": ("a.csv", "b.csv"),
    "format": ("json", "csv"),
}
NUMERIC_KEYS = ["mass", "v0", "screening", "cs", "cps", "n_min", "n_max", "tol"]


def flag(key):
    return "--" + key.replace("_", "-")


def config_from(argv):
    return build_config(build_parser().parse_args(cli._join_list_flags(argv)))


def write_config(tmp_path, values):
    path = tmp_path / "run.cfg"
    path.write_text("".join(f"{key} = {value}\n" for key, value in values.items()))
    return str(path)


class TestOptionTable:
    def test_values_cover_every_option(self):
        assert set(OPTION_VALUES) == set(cli._OPTIONS)

    def test_file_equals_flags(self, tmp_path):
        values = {key: first for key, (first, _) in OPTION_VALUES.items()}
        from_file = config_from(["spectrum", "--config", write_config(tmp_path, values)])
        argv = ["spectrum", "--tensor-h", "0", "--tensor-h", "5"]
        for key, value in values.items():
            if key != "tensor_h":
                argv += [flag(key), value]
        from_flags = config_from(argv)
        assert from_file == from_flags
        assert from_file == RunConfig(
            symmetry="spin", mass=4.5, v0=0.8, screening=0.1, tensor_h=[0.0, 5.0],
            c_spin=5.0, c_pspin=-4.0, n_min=1, n_max=3, kappas=[-2, 1],
            window=(1.0, 1.2), tol=1e-10, out="a.csv", fmt="json",
        )

    @pytest.mark.parametrize("key", list(OPTION_VALUES))
    def test_flag_overrides_key(self, key, tmp_path):
        path = write_config(tmp_path, {k: first for k, (first, _) in OPTION_VALUES.items()})
        from_file = config_from(["spectrum", "--config", path])
        value = OPTION_VALUES[key][1]
        overridden = config_from(["spectrum", "--config", path, flag(key), value])
        field = cli._OPTIONS[key][0]
        assert getattr(overridden, field) == getattr(config_from(["spectrum", flag(key), value]), field)
        assert getattr(overridden, field) != getattr(from_file, field)
        assert replace(overridden, **{field: getattr(from_file, field)}) == from_file

    def test_tensor_h_comma_list_equals_repeated_flag(self):
        repeated = config_from(["spectrum", "--tensor-h", "0", "--tensor-h", "0.5"])
        assert config_from(["spectrum", "--tensor-h", "0,0.5"]) == repeated
        assert repeated.tensor_h == [0.0, 0.5]

    @pytest.mark.parametrize("key", NUMERIC_KEYS)
    def test_bad_value_from_file_exits_2(self, key, tmp_path, capsys):
        code = run_main(["spectrum", "--config", write_config(tmp_path, {key: "abc"})])
        assert code == 2
        assert capsys.readouterr().err == f"error: bad value for {key}: 'abc'\n"

    @pytest.mark.parametrize("key", NUMERIC_KEYS)
    def test_bad_value_from_flag_exits_2(self, key, capsys):
        assert run_main(["spectrum", flag(key), "abc"]) == 2
        assert capsys.readouterr().err == f"error: bad value for {key}: 'abc'\n"

    @pytest.mark.parametrize(
        "key, text",
        [("kappa", "1,x"), ("tensor_h", "0,x"), ("window", "1"), ("window", "1,2,3"), ("window", "1,x")],
    )
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_bad_list_value_exits_2(self, key, text, source, tmp_path, capsys):
        if source == "flag":
            argv = [flag(key), text]
        else:
            argv = ["--config", write_config(tmp_path, {key: text})]
        assert run_main(["spectrum", *argv]) == 2
        assert capsys.readouterr().err == f"error: bad value for {key}: {text!r}\n"

    def test_negative_exponent_form_after_a_space(self, tmp_path, capsys):
        # argparse takes '-5.5e0' for an option unless it is folded into the flag
        outputs = []
        for value in (["--cps", "-5.5e0"], ["--cps=-5.5e0"], ["--cps", "-5.5"]):
            assert run_main(["spectrum", *value]) == 0
            outputs.append(capsys.readouterr().out)
        path = write_config(tmp_path, {"cps": "-5.5e0"})
        assert run_main(["spectrum", "--config", path]) == 0
        outputs.append(capsys.readouterr().out)
        assert outputs[0] and all(out == outputs[0] for out in outputs)
        assert config_from(["spectrum", "--cs", "-1e1"]).c_spin == -10.0

    @pytest.mark.parametrize("command", ["spectrum", "reproduce-tables", "crosscheck", "wavefunction"])
    def test_help_lists_every_flag(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            run_main([command, "--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        flags = ["--config", *map(flag, OPTION_VALUES)]
        if command == "wavefunction":
            flags += ["--n", "--single-kappa"]
        for name in flags:
            assert f" {name} " in text


class TestSpectrum:
    def test_table_shaped_sweep(self, tmp_path):
        out = tmp_path / "table.csv"
        code = run_main(
            [
                "spectrum",
                "--symmetry", "pspin",
                "--n-min", "1", "--n-max", "2",
                "--kappa", "-4,-3,-2,-1,2,3,4,5",
                "--tensor-h", "0", "--tensor-h", "5",
                "--out", str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + 2 * 8 * 2
        assert out.read_text().endswith("\n")
        assert "\r" not in out.read_text()

    def test_rerun_byte_identical(self, tmp_path):
        argv = [
            "spectrum", "--symmetry", "pspin", "--n-min", "1", "--n-max", "1",
            "--kappa", "-2,-1,2", "--tensor-h", "0", "--tensor-h", "5",
        ]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_main(argv + ["--out", str(out1)]) == 0
        assert run_main(argv + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_duplicate_kappa_and_h_rows(self, capsys):
        # each listed (kappa, H) is its own state, even when values repeat
        assert run_main(["spectrum", "--kappa", "-1,-1", "--tensor-h", "0,0"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert len(rows) == 3 * 4
        for n in range(3):
            block = rows[4 * n : 4 * n + 4]
            assert block[0].startswith(f"pspin,{n},")
            assert block == [block[0]] * 4

    def test_json_mirrors_csv(self, tmp_path):
        argv = [
            "spectrum", "--symmetry", "spin", "--n-min", "0", "--n-max", "0",
            "--kappa", "-2,1", "--tensor-h", "0",
        ]
        csv_path, json_path = tmp_path / "x.csv", tmp_path / "x.json"
        assert run_main(argv + ["--format", "csv", "--out", str(csv_path)]) == 0
        assert run_main(argv + ["--format", "json", "--out", str(json_path)]) == 0
        rows = json_path.read_text()
        payload = json.loads(rows)
        csv_rows = csv_path.read_text().splitlines()[1:]
        assert len(payload) == len(csv_rows)
        for row, line in zip(payload, csv_rows):
            fields = line.split(",")
            assert row["symmetry"] == fields[0]
            assert str(row["n_nu"]) == fields[1]
            assert str(row["kappa"]) == fields[3]
            assert row["label"] == fields[4]
            assert fmt_float(row["E"]) == fields[6]
            assert ("true" if row["strict_valid"] else "false") == fields[9]

    def test_empty_kappa_exits_2(self, tmp_path):
        cfg_file = tmp_path / "r.cfg"
        cfg_file.write_text("kappa =\n")
        assert run_main(["spectrum", "--config", str(cfg_file)]) == 2

    @pytest.mark.parametrize("command", ["spectrum", "wavefunction"])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_negative_zero_h_prints_as_zero(self, command, fmt, capsys):
        # -0 passed the nonnegative check and printed as -0 (CSV), -0.0 (JSON)
        outputs = []
        for h in ("0", "-0", "-0.0"):
            assert run_main([command, "--n-min", "1", "--kappa", "-1,2", "--tensor-h", h, "--format", fmt]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[1] == outputs[2] == outputs[0]

    def test_partner_rows_equal_at_h0(self, tmp_path):
        out = tmp_path / "pairs.csv"
        run_main(
            [
                "spectrum", "--symmetry", "pspin", "--n-min", "1", "--n-max", "1",
                "--kappa", "-1,2", "--tensor-h", "0", "--out", str(out),
            ]
        )
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        energies = {row[3]: row[6] for row in rows}
        assert energies["-1"] == energies["2"]

    def test_strict_valid_false_where_the_naive_sign_rounds(self, capsys):
        # the relaxed root here has a numeric sign flag that reads valid
        # (gamma*V0 + P^2 cancels to 0); strict_valid follows the proof
        code = run_main(
            [
                "spectrum", "--symmetry", "pspin", "--mass", "475331604.6317678",
                "--v0", "7.512088796728115e+23", "--screening", "1.5584049792948822",
                "--cs", "414797259.09713894", "--cps", "315190603.42978406",
                "--n-min", "0", "--n-max", "0", "--kappa", "2",
            ]
        )
        assert code == 0
        rows = capsys.readouterr().out.splitlines()
        assert len(rows) == 2
        assert rows[1].startswith("pspin,0,-1,2,")
        assert rows[1].endswith(",false")


class TestRepeatedCalls:
    """Calls of main in one process share one parser; each prints what the
    same argv prints in a fresh interpreter."""

    @staticmethod
    def in_process(argv, capsys):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
        out, err = capsys.readouterr()
        return code, out, err

    @staticmethod
    def fresh_process(argv, env):
        done = subprocess.run(
            [sys.executable, "-m", "iqy_dirac.cli", *argv], capture_output=True, text=True, env=env,
        )
        return done.returncode, done.stdout, done.stderr

    def test_sequence_equals_fresh_processes(self, tmp_path, capsys, monkeypatch):
        # argparse wraps usage text to COLUMNS; both sides read the same value
        monkeypatch.setenv("COLUMNS", "80")
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        config = tmp_path / "run.cfg"
        config.write_text("symmetry = spin\nkappa = -2,1\ntensor_h = 0.5\n")
        sequence = [
            ["spectrum", "--tensor-h", "0", "--tensor-h", "5"],
            ["spectrum", "--tensor-h", "5"],  # the appended list starts empty again
            ["wavefunction", "--n", "1", "--single-kappa", "-1"],
            ["spectrum"],
            ["spectrum", "--config", str(config)],
            ["spectrum"],
            ["spectrum", "--format", "json"],
            ["spectrum"],
            ["spectrum", "--bogus"],
            ["spectrum", "--n-max", "0"],
        ]
        results = [self.in_process(argv, capsys) for argv in sequence]
        assert [code for code, _, _ in results] == [0] * 8 + [2, 0]
        for argv, result in zip(sequence, results):
            assert result == self.fresh_process(argv, env), argv
        assert cli._cached_parser.cache_info().misses == 1


class TestWavefunction:
    def test_dump_contract(self, tmp_path):
        out = tmp_path / "wf.csv"
        code = run_main(
            [
                "wavefunction", "--symmetry", "pspin", "--n-min", "1",
                "--kappa", "-1", "--out", str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        header = [line for line in lines if line.startswith("#")]
        assert any("nodes=1" in line for line in header)
        data_start = lines.index("r,s,F,G") + 1
        rows = np.array([[float(x) for x in line.split(",")] for line in lines[data_start:]])
        g = rows[:, 3]
        assert abs(g[0]) < 1e-6 * np.max(np.abs(g))
        assert abs(g[-1]) < 1e-6 * np.max(np.abs(g))

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_one_closed_form_evaluation_per_dump(self, fmt, tmp_path, monkeypatch):
        # a dump is built from one Jacobi evaluation of the closed form; the
        # finite-difference self-check is the tests' reference, not the dump's
        calls = {"jacobi": 0, "first_order_residual": 0}
        for module, name in ((dirac_iqy, "jacobi"), (cli, "first_order_residual")):
            def counted(*args, _name=name, _inner=getattr(module, name)):
                calls[_name] += 1
                return _inner(*args)

            monkeypatch.setattr(module, name, counted)
        argv = ["wavefunction", "--symmetry", "pspin", "--n-min", "1", "--kappa", "-1"]
        assert run_main(argv + ["--format", fmt, "--out", str(tmp_path / "wf")]) == 0
        assert calls == {"jacobi": 1, "first_order_residual": 0}

    def test_note_names_the_unread_kappa_and_h(self, tmp_path, capsys):
        argv = ["wavefunction", "--tensor-h", "0", "--tensor-h", "5", "--kappa", "-1,2"]
        alone = tmp_path / "alone.csv"
        assert run_main(["wavefunction", "--kappa", "-1", "--out", str(alone)]) == 0
        assert capsys.readouterr().err == ""
        assert run_main(argv) == 0
        out, err = capsys.readouterr()
        assert err == "note: the dump reads kappa=-1 H=0; not read: kappa 2, H 5\n"
        assert out == alone.read_text()

    @pytest.mark.parametrize("name", sorted(name for name in GOLDEN if name.startswith("wavefunction")))
    def test_golden_argv_write_no_note(self, name, tmp_path, capsys):
        assert run_main(GOLDEN[name] + ["--out", str(tmp_path / name)]) == 0
        assert capsys.readouterr().err == ""

    def test_rerun_identical(self, tmp_path):
        argv = ["wavefunction", "--symmetry", "spin", "--n-min", "0", "--kappa", "-2"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_main(argv + ["--out", str(a)])
        run_main(argv + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_nonfinite_companion_exits_2(self, tmp_path, capsys, monkeypatch):
        # an energy 1e-9 inside the threshold, where the companion's
        # derivative divides by an underflowed s: rejected, not dumped as nan
        # (mass + cps of the defaults is -0.5); the dump reads only sol.e
        sol = dirac_iqy.EnergySolution(e=-0.5 - 1e-9, residual=0.0, beta_sq=0.0)
        monkeypatch.setattr(cli, "solve_energies", lambda *args, **kwargs: [sol])
        out = tmp_path / "wf.csv"
        code = run_main(["wavefunction", "--n-min", "1", "--kappa", "-1", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err == "error: 1952 of 2001 upper samples are not finite at e = -0.500000001\n"
        assert not out.exists()

    def test_no_root_exits_2(self, tmp_path):
        # a window clipped away from every relaxed root
        code = run_main(
            [
                "wavefunction", "--symmetry", "pspin", "--n-min", "1",
                "--kappa", "-1", "--window", "-3.0,-2.0",
                "--out", str(tmp_path / "w.csv"),
            ]
        )
        assert code == 2


# Cells where the block formatter could part from the per-cell formatters:
# non-finite values, signed zeros, subnormals, the exponent extremes,
# integer-valued floats, [1e9, 1e16) (where %g and repr disagree on
# notation), the fixed/exponent edge at 1e-4, and values %.9g rounds to it.
# Then cells on both sides of each bound of the JSON mask: values %.9g
# rounds to a whole number or not (0.99999999949 prints as 0.999999999,
# 0.9999999995 as 1), the notation edges at 1e9 and 1e16, the smallest
# normal, 2.3e-308, and whole numbers times 1 +- 1e-9 (inside the mask's
# 1e-8 relative slack, still printed whole) and 1 +- 2e-8 (outside it below
# 5e7, where no longer printed whole).
WHOLE = [1.0, 7.0, 20.0, 123.0, 99999.0, 5e7, 123456789.0]
SPECIAL_CELLS = [
    math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324,
    1e300, -1e300, 1e-300, -1e-300, 1.0, 20.0, -1.0, 123456789.0, 99999999.95,
    1e9, 1234567890.0, -123456789012.0, 1.23456789e11, 9.99999999e15, 1e16,
    1e-4, np.nextafter(1e-4, 0.0), 9.9999999e-5, 9.99999999949e-5, -0.000123,
    0.99999999949, 0.9999999995, 1.0000000049, 1.000000005, -0.9999999995,
    999999999.4, 999999999.5, 9.9999999949e15, 9.999999995e15,
    2.2250738585072014e-308, np.nextafter(2.2250738585072014e-308, 0.0),
    np.nextafter(2.2250738585072014e-308, 1.0), 2.3e-308, np.nextafter(2.3e-308, 0.0),
    *(w * f for w in WHOLE for f in (1.0 - 1e-9, 1.0 + 1e-9, 1.0 - 2e-8, 1.0 + 2e-8)),
]


def sample_table(rows):
    rng = np.random.default_rng(rows)
    values = np.where(
        rng.random(rows * 4) < 0.5,
        rng.choice(SPECIAL_CELLS, rows * 4),
        rng.choice([-1.0, 1.0], rows * 4) * 10.0 ** rng.uniform(-320.0, 308.0, rows * 4),
    )
    values[: len(SPECIAL_CELLS)] = SPECIAL_CELLS[: rows * 4]
    return values.reshape(rows, 4)


def csv_reference(table):
    return "\n".join(",".join(fmt_float(x) for x in row) for row in table.tolist())


def json_reference(table):
    items = [dict(zip("rsFG", map(cli._round9, row))) for row in table.tolist()]
    return json.dumps({"samples": items}, indent=2)


def json_dump(table):
    return '{\n  "samples": [\n' + cli._json_samples(table) + "\n  ]\n}"


# any 64-bit pattern: NaN payloads, infinities, subnormals and both zeros
any_float = st.integers(min_value=0, max_value=2**64 - 1).map(
    lambda bits: float(np.uint64(bits).view(np.float64))
)


class TestSampleTable:
    # the block formatter against the per-cell formatters it replaces, across
    # the block seams
    SIZES = [1, cli._SAMPLE_BLOCK - 1, cli._SAMPLE_BLOCK, cli._SAMPLE_BLOCK + 1, 2001]

    @pytest.mark.parametrize("rows", SIZES)
    def test_csv_cells_equal_fmt_float(self, rows):
        table = sample_table(rows)
        assert cli._csv_samples(table) == csv_reference(table)

    @pytest.mark.parametrize("rows", SIZES)
    def test_json_items_equal_json_dumps(self, rows):
        table = sample_table(rows)
        assert json_dump(table) == json_reference(table)

    @pytest.mark.parametrize("x", SPECIAL_CELLS)
    def test_special_cell(self, x):
        table = np.full((1, 4), x)
        assert cli._csv_samples(table) == csv_reference(table)
        assert json_dump(table) == json_reference(table)

    @given(
        st.integers(min_value=1, max_value=cli._SAMPLE_BLOCK + 2).flatmap(
            lambda rows: st.lists(any_float, min_size=4 * rows, max_size=4 * rows)
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_any_bits(self, cells):
        table = np.array(cells).reshape(-1, 4)
        assert cli._csv_samples(table) == csv_reference(table)
        assert json_dump(table) == json_reference(table)

    @given(any_float)
    @settings(max_examples=2000, deadline=None)
    def test_unpicked_cell_prints_as_json(self, x):
        # the mask's claim, one cell at a time
        if not cli._json_picks(np.array([x]))[0]:
            assert "%.9g" % x == json.dumps(cli._round9(x))


class TestSampleDumps:
    @staticmethod
    def _counted_json_number(monkeypatch):
        calls = []
        json_number = cli._json_number

        def counted(x):
            calls.append(x)
            return json_number(x)

        monkeypatch.setattr(cli, "_json_number", counted)
        return calls

    @pytest.mark.parametrize("screening", [0.03, 0.12])
    def test_criterion_7_dumps_pick_no_cell(self, monkeypatch, tmp_path, screening):
        # acceptance criterion 7's states at both ends of the bench's
        # screening range: every sample cell goes through the one % fill
        calls = self._counted_json_number(monkeypatch)
        states = [("pspin", n, k) for n, k in ((0, -1), (1, -1), (2, -2), (1, 2))]
        states += [("spin", n, k) for n, k in ((0, -2), (1, 1))]
        out = tmp_path / "wf.json"
        for symmetry, n, kappa in states:
            for h in ("0", "5"):
                argv = [
                    "wavefunction", "--symmetry", symmetry, "--mass", "5", "--v0", "1",
                    "--cs", "6", "--cps", "-5.5", "--screening", str(screening),
                    "--tensor-h", h, "--n", str(n), "--single-kappa", str(kappa),
                    "--format", "json", "--out", str(out),
                ]
                assert main(argv) == 0
                assert len(json.loads(out.read_text())["samples"]) == 2001
        assert calls == []

    @pytest.mark.parametrize("name", sorted(n for n in GOLDEN if n.startswith("wavefunction")))
    def test_json_samples_equal_csv_rows(self, tmp_path, name):
        argv = [a for a in GOLDEN[name] if a not in ("--format", "json")]
        csv_out, json_out = tmp_path / "wf.csv", tmp_path / "wf.json"
        assert main(argv + ["--out", str(csv_out)]) == 0
        assert main(argv + ["--format", "json", "--out", str(json_out)]) == 0
        lines = csv_out.read_text().splitlines()
        rows = [[float(x) for x in line.split(",")] for line in lines[lines.index("r,s,F,G") + 1 :]]
        samples = json.loads(json_out.read_text())["samples"]
        assert [[s[key] for key in "rsFG"] for s in samples] == rows


class TestCrosscheck:
    def test_passes_by_default(self, tmp_path):
        out = tmp_path / "cc.txt"
        code = run_main(
            [
                "crosscheck", "--symmetry", "pspin", "--n-min", "0", "--n-max", "2",
                "--kappa", "-1", "--out", str(out),
            ]
        )
        assert code == 0
        text = out.read_text()
        assert "# failures=0" in text
        assert "coulomb anchor" in text
        assert text.count("no bound state on either route") == 3

    def test_corrupted_residual_fails(self, tmp_path, monkeypatch):
        closed = cli.coulomb_energy
        monkeypatch.setattr(cli, "coulomb_energy", lambda *args: closed(*args) + 1e-3)
        cfg = RunConfig(symmetry="pspin", n_min=0, n_max=0, kappas=[-1])
        cfg.out = str(tmp_path / "cc.txt")
        assert cmd_crosscheck(cfg) == 3

    def test_configured_shooting_root_fails(self, tmp_path, monkeypatch):
        # the strict closed-form set is empty, so one shooting root in the
        # family that n = 0, 1, 2 share is a failure on each of their lines
        monkeypatch.setattr(oracle, "scan_eigenvalues", lambda *args, **kwargs: [(-3.0, 0)])
        out = tmp_path / "cc.txt"
        argv = ["crosscheck", "--symmetry", "pspin", "--n-min", "0", "--n-max", "2",
                "--kappa", "-1", "--out", str(out)]
        assert run_main(argv) == 3
        lines = out.read_text().splitlines()
        fails = [line for line in lines if "FAIL" in line]
        assert fails == [f"n={n} kappa=-1 H=0 FAIL: 0 closed-form vs 1 shooting roots" for n in range(3)]
        assert lines[-1] == "# failures=3"

    @pytest.mark.parametrize(
        "argv,scans",
        [
            # anchors: one scan for kappa = 1 (n = 0, 1), one for kappa = 2;
            # then one spin Numerov march for the configured kappa
            (["--symmetry", "spin", "--n-min", "0", "--n-max", "0", "--kappa", "-2"], 3),
            # n = 0, 1, 2 share the kappa = -1 family and its scan
            (["--symmetry", "spin"], 3),
            (["--symmetry", "spin", "--kappa", "-2,-1", "--tensor-h", "0,0.3"], 6),
        ],
    )
    def test_one_scan_per_family(self, argv, scans, tmp_path, monkeypatch):
        calls = []
        match_vec = oracle._match_vec

        def counted(*args):
            calls.append(args[0].label)
            return match_vec(*args)

        monkeypatch.setattr(oracle, "_match_vec", counted)
        assert run_main(["crosscheck", *argv, "--out", str(tmp_path / "cc.txt")]) == 0
        assert len(calls) == scans
        assert len(set(calls)) == scans

    def test_quality_column_shrinks(self, tmp_path):
        out = tmp_path / "cc.txt"
        run_main(["crosscheck", "--kappa", "-1", "--n-min", "0", "--n-max", "0", "--out", str(out)])
        rels = [
            float(line.split("rel_error=")[1])
            for line in out.read_text().splitlines()
            if "rel_error=" in line
        ]
        assert len(rels) == 3
        assert rels[0] > rels[1] > rels[2]


class TestReproduceTables:
    def test_report_contents(self, tmp_path):
        out = tmp_path / "report.txt"
        code = run_main(["reproduce-tables", "--out", str(out)])
        assert code == 0
        text = out.read_text()
        values = [
            float(line.split("beta_sq=")[1])
            for line in text.splitlines()
            if "anchor" in line and "beta_sq=" in line
        ]
        assert values[0] == pytest.approx(-0.0399982, abs=1e-6)
        assert values[1] == pytest.approx(-0.0224915, abs=1e-6)
        assert "fit infeasible" in text
        assert text.count("PASS") == 6
        assert "FAIL" not in text
        assert "# pattern_failures=0" in text

    def test_pattern_failures_exit_3(self, tmp_path, monkeypatch):
        # a spin row whose H = 0 partners differ and a pseudospin row whose
        # H = 5 aligned member is the higher one: one failed check each
        monkeypatch.setitem(reference_tables.SPIN_ROWS[0].e_aligned, 0.0, "0.994386")
        monkeypatch.setitem(reference_tables.PSPIN_ROWS[0].e_aligned, 5.0, "-0.480000")
        out = tmp_path / "report.txt"
        assert run_main(["reproduce-tables", "--out", str(out)]) == 3
        lines = out.read_text().splitlines()
        assert [line for line in lines if line.startswith("pattern")] == [
            "pattern pspin H=0 pairs equal (8): PASS",
            "pattern spin H=0 pairs equal (8): FAIL",
            "pattern pspin H=5 pairs split (8): PASS",
            "pattern spin H=5 pairs split (8): PASS",
            "pattern pspin H=5 aligned member lower: FAIL",
            "pattern spin H=5 aligned member higher: PASS",
        ]
        assert lines[-1] == "# pattern_failures=2"

    def test_rerun_identical(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        run_main(["reproduce-tables", "--out", str(a)])
        run_main(["reproduce-tables", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestScreeningBound:
    """The screening-fit line states the bound of the proof in
    ``solve_energies``: t > 0 forces beta^2 > 0 at every relaxed root, so no
    root at any screening comes closer to the anchor entry, whose beta^2 is
    negative, than its distance to the strict window."""

    ANCHOR_E, N, KAPPA = reference_tables.ANCHOR_PSPIN

    @staticmethod
    def printed_bound(tmp_path):
        out = tmp_path / "report.txt"
        assert run_main(["reproduce-tables", "--out", str(out)]) == 0
        (line,) = [line for line in out.read_text().splitlines() if "relaxed-branch approach" in line]
        return float(line.split(" above ")[1].split(",")[0])

    def test_report_solves_no_state(self, tmp_path, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("reproduce-tables solved a state")

        monkeypatch.setattr(cli, "solve_batch", no_solve)
        monkeypatch.setattr(cli, "solve_energies", no_solve)
        assert self.printed_bound(tmp_path) == 0.008871

    def test_printed_bound_is_the_infimum(self, tmp_path):
        bound = self.printed_bound(tmp_path)
        _, hi = dirac_iqy.strict_window(cli._CAPTION, PSPIN)
        states = [
            (replace(cli._CAPTION, screening=float(alpha)), self.N, self.KAPPA)
            for alpha in np.geomspace(1e-6, 2.0, 400)
        ]
        roots = [sol.e for sols in dirac_iqy.solve_batch(states, PSPIN, mode="relaxed") for sol in sols]
        assert len(roots) >= 400
        assert hi == -0.5 and all(e < hi for e in roots)
        gaps = [abs(e - float(self.ANCHOR_E)) for e in roots]
        assert all(gap > bound for gap in gaps)
        assert min(gaps) - bound < 1e-9

    @pytest.mark.parametrize("alpha", [1e-3, 1e-4, 1e-5])
    def test_upper_root_tends_to_the_threshold(self, alpha):
        # the anchor entry's state has |lambda - 1/2| = n + 1/2, so its
        # condition is beta^2 = 9 alpha^2, whose upper root is
        # -0.5 - 2 alpha^2 - (8/9) alpha^4 - O(alpha^6)
        tol = 1e-12
        params = replace(cli._CAPTION, screening=alpha)
        upper = dirac_iqy.solve_energies(params, self.N, self.KAPPA, PSPIN, tol=tol, mode="relaxed")[-1].e
        assert abs(upper - (-0.5 - 2.0 * alpha**2)) <= alpha**4 + tol


class TestTableEncoding:
    """The published H = 5 columns hold the H = 0 energy at kappa + 1, the
    condition at H = 1, and never that at the caption's H = 5: kappa + 5, or
    its mirror -4 - kappa (pseudospin) and -kappa - 6 (spin)."""

    # the H = 0 kappas sharing (lambda - 1/2)^2 with (kappa, H), written out
    PARTNERS = {
        (PSPIN, 1.0): lambda kappa: (kappa + 1, -kappa),
        (SPIN, 1.0): lambda kappa: (kappa + 1, -kappa - 2),
        (PSPIN, 5.0): lambda kappa: (kappa + 5, -4 - kappa),
        (SPIN, 5.0): lambda kappa: (kappa + 5, -kappa - 6),
    }
    ROWS = {PSPIN: reference_tables.PSPIN_ROWS, SPIN: reference_tables.SPIN_ROWS}

    def counts(self, symmetry, partner_kappas):
        at_h0, at_h5 = {}, []
        for row in self.ROWS[symmetry]:
            for kappa, energies in ((row.kappa_aligned, row.e_aligned), (row.kappa_unaligned, row.e_unaligned)):
                at_h0[row.n, kappa] = energies[0.0]
                at_h5.append((row.n, kappa, energies[5.0]))
        matched = testable = 0
        for n, kappa, text in at_h5:
            partners = [at_h0[n, k] for k in partner_kappas(kappa) if (n, k) in at_h0]
            testable += bool(partners)
            matched += text in partners
        return matched, testable

    @pytest.mark.parametrize("symmetry", [PSPIN, SPIN])
    def test_counts(self, symmetry):
        assert self.counts(symmetry, lambda kappa: (kappa + 1,)) == (12, 12)
        assert self.counts(symmetry, self.PARTNERS[symmetry, 1.0]) == (12, 12)
        assert self.counts(symmetry, self.PARTNERS[symmetry, 5.0]) == (0, 6)
        for acting_h in (1.0, 5.0):
            assert cli._partner_matches(self.ROWS[symmetry], symmetry, acting_h) == self.counts(
                symmetry, self.PARTNERS[symmetry, acting_h]
            )

    def test_report_lines(self, tmp_path):
        out = tmp_path / "report.txt"
        assert run_main(["reproduce-tables", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        start = lines.index("## tensor strength the published H=5 columns encode")
        assert lines[start + 1 : start + 5] == [
            f"{symmetry} H=5 entries equal to the H=0 entry of their H={h:g} partner: "
            + "%d of %d" % self.counts(symmetry, self.PARTNERS[symmetry, h])
            for h in (1.0, 5.0)
            for symmetry in (PSPIN, SPIN)
        ]


class TestExitCodes:
    def test_unwritable_path_exits_4(self):
        code = run_main(
            [
                "spectrum", "--kappa", "-1", "--n-min", "0", "--n-max", "0",
                "--out", "/nonexistent-dir/spec.csv",
            ]
        )
        assert code == 4

    @pytest.mark.parametrize(
        "flag",
        [
            ["--v0", "nan"],
            ["--screening", "inf"],
            ["--tensor-h", "nan"],
            ["--cps", "nan"],
            ["--tol", "nan"],
            ["--window", "nan,0"],
        ],
        ids=lambda flag: flag[0].lstrip("-"),
    )
    def test_non_finite_input_exits_2(self, flag, capsys):
        code = run_main(["spectrum", "--kappa", "-1", "--n-min", "0", "--n-max", "0", *flag])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["crosscheck", "--screening", "1e-300"],
            ["spectrum", "--screening", "1e300"],
            ["crosscheck", "--screening", "1e200", "--n-max", "0"],
            ["crosscheck", "--mass", "1e150"],
            ["crosscheck", "--mass", "1e300"],
            ["wavefunction", "--tensor-h", "1e308"],
            ["spectrum", "--mass", "1e308"],
            ["wavefunction", "--mass", "1e200"],
            ["wavefunction", "--v0", "1e308"],
            # the grid end at the outermost node of a degree n >= 1 dump
            ["wavefunction", "--v0", "1e150", "--n", "1"],
            ["wavefunction", "--mass", "1e153", "--n", "3"],
        ],
        ids=lambda argv: "-".join(arg.lstrip("-") for arg in argv),
    )
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_extreme_finite_input_exits_2(self, argv, tmp_path, capsys):
        # finite inputs whose arithmetic overflows, underflows to a zero
        # divisor, rounds beta^2 to -0.0, puts the grid start at r = inf or
        # marches the oracle into non-finite samples;
        # a numpy warning on the way would be a second stderr line
        out = tmp_path / "out.txt"
        code = run_main([*argv, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_residual_warns_nothing(self, tmp_path, capsys):
        # gamma * V0 overflows on most of the scan grid; stderr stays empty
        out = tmp_path / "out.csv"
        code = run_main(["spectrum", "--v0", "1e308", "--out", str(out)])
        assert code == 0
        assert capsys.readouterr().err == ""
        assert out.exists()

    @pytest.mark.parametrize("command", ["spectrum", "crosscheck", "wavefunction"])
    def test_window_outside_strict_domain_exits_2(self, command, tmp_path, capsys):
        out = tmp_path / "out.txt"
        code = run_main([command, "--symmetry", "spin", "--window", "4,5.5", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ")
        assert "Traceback" not in err
        assert not out.exists()

    def test_empty_window_names_the_state(self, capsys):
        argv = ["--symmetry", "spin", "--kappa", "-1,1", "--tensor-h", "0", "--window", "3.5,4"]
        assert run_main(["spectrum", *argv]) == 2
        assert capsys.readouterr().err == (
            "error: window (3.5, 4.0) outside the scan interval (1.0, 1.25) of spin kappa=-1 H=0.0\n"
        )

    @pytest.mark.parametrize(
        "flag", [["--n=-1"], ["--single-kappa=0"]], ids=lambda flag: flag[0].lstrip("-")
    )
    def test_single_state_flags_validated(self, flag, tmp_path, capsys):
        out = tmp_path / "wf.csv"
        code = run_main(["wavefunction", "--symmetry", "pspin", *flag, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ")
        assert "Traceback" not in err
        assert not out.exists()

    def test_n_above_degree_cap_exits_2(self, tmp_path, capsys):
        # n = 65 has a root here; its Jacobi polynomial is above the cap
        argv = ["wavefunction", "--screening", "0.01", "--single-kappa", "-1"]
        out = tmp_path / "wf.csv"
        assert run_main(argv + ["--n", "65", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == "error: n = 65 is above the Jacobi degree cap 64\n"
        assert not out.exists()
        assert run_main(argv + ["--n", "64", "--out", str(out)]) == 0
        assert out.read_text().startswith("# symmetry=pspin n=64 kappa=-1 H=0\n")

    @pytest.mark.parametrize("command", ["spectrum", "crosscheck", "wavefunction"])
    @pytest.mark.parametrize(
        "bad", [["--window", "-1,-2"], ["--window", "-3,-3"], "tensor_h =\n"],
        ids=["window_reversed", "window_empty", "tensor_h_empty"],
    )
    def test_invalid_window_or_tensor_list_exits_2(self, command, bad, tmp_path, capsys):
        if isinstance(bad, str):
            cfg_file = tmp_path / "r.cfg"
            cfg_file.write_text(bad)
            bad = ["--config", str(cfg_file)]
        out = tmp_path / "out.txt"
        code = run_main([command, "--n-max", "0", *bad, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ")
        assert "Traceback" not in err
        assert not out.exists()

    def test_non_utf8_config_exits_2(self, tmp_path, capsys):
        cfg_file = tmp_path / "r.cfg"
        cfg_file.write_bytes(b"mass = 5\xff\n")
        code = run_main(["spectrum", "--config", str(cfg_file)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ")
        assert "UTF-8" in err

    def test_empty_out_in_config_exits_2(self, tmp_path, capsys):
        cfg_file = tmp_path / "r.cfg"
        cfg_file.write_text("out =\n")
        code = run_main(["spectrum", "--config", str(cfg_file), "--kappa", "-1", "--n-max", "0"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: out ")
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["crosscheck", "reproduce-tables"])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_json_format_on_text_report_exits_2(self, command, source, tmp_path, capsys):
        argv = ["--format", "json"]
        if source == "config":
            cfg_file = tmp_path / "r.cfg"
            cfg_file.write_text("format = json\n")
            argv = ["--config", str(cfg_file)]
        out = tmp_path / "out.txt"
        code = run_main([command, *argv, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err == f"error: {command} writes a text report; --format json is not supported\n"
        assert not out.exists()

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_unknown_format_exits_2(self, source, tmp_path, capsys):
        argv = ["--format", "xml"]
        if source == "config":
            argv = ["--config", write_config(tmp_path, {"format": "xml"})]
        out = tmp_path / "out.txt"
        assert run_main(["spectrum", *argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: format must be csv or json, got 'xml'\n"
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["missing", "directory"])
    def test_unreadable_config_exits_4(self, kind, tmp_path, capsys):
        path = tmp_path / "missing.cfg" if kind == "missing" else tmp_path
        assert run_main(["spectrum", "--config", str(path)]) == 4
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: cannot read config {path}: ")
        assert captured.err.count("\n") == 1 and captured.out == ""

    def test_bad_symmetry_in_config_exits_2(self, tmp_path):
        cfg_file = tmp_path / "r.cfg"
        cfg_file.write_text("symmetry = sideways\n")
        assert run_main(["spectrum", "--config", str(cfg_file), "--kappa", "-1"]) == 2
