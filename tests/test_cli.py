import argparse
import dataclasses
import errno
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import threading
import warnings
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arnoldgas import cli, gas, kinetics, maps, spectral, tree


SRC = Path(__file__).resolve().parents[1] / "src"


def run(args):
    return cli.main(args)


def read_summary(path):
    return json.loads(path.read_text())


def snapshot(root):
    """{relative path: bytes} of every file under root; a directory maps to None."""
    return {path.relative_to(root).as_posix(): path.read_bytes() if path.is_file() else None
            for path in root.rglob("*")}


def outputs_of_a_fresh_process(directory, argv, variable, value):
    """{file name: bytes} of `argv --out o.csv` run by a new interpreter in
    `directory`, with the environment variable set to value, or unset for None."""
    env = {k: v for k, v in os.environ.items() if k not in (variable, cli.OUTDIR_ENV)}
    env["PYTHONPATH"] = str(SRC)
    if value is not None:
        env[variable] = value
    directory.mkdir()
    result = subprocess.run([sys.executable, "-m", "arnoldgas.cli", *argv, "--out", "o.csv"],
                            cwd=directory, env=env, capture_output=True, text=True,
                            timeout=120)
    assert result.returncode == 0, result.stderr
    return {path.name: path.read_bytes() for path in sorted(directory.iterdir())}


DISPATCH_ARGV = {
    "gas": ["gas", "--particles", "4096", "--steps", "14", "--pairing", "tree",
            "--twin", "on", "--modes", "2", "--threads", "1"],
    "tree": ["tree", "--stages", "14"],
}


@pytest.fixture(scope="module")
def dispatch_outputs(tmp_path_factory):
    """Per DISPATCH_ARGV command, its files with numpy's default CPU dispatch
    and with every target from X86_V3 (AVX2, FMA3) up disabled."""
    root = tmp_path_factory.mktemp("dispatch")
    return {command: [outputs_of_a_fresh_process(root / f"{command}-{level}", argv,
                                                 "NPY_DISABLE_CPU_FEATURES", disabled)
                      for level, disabled in [
                          ("default", None),
                          ("no-avx2", "AVX512_SPR AVX512_ICL X86_V4 X86_V3")]]
            for command, argv in DISPATCH_ARGV.items()}


def assert_refused_before_writing(tmp_path, capsys, argv, message):
    """`argv --out <tmp_path>/o.csv` exits 1 with one `error:` line that holds
    message and names --epsilon, warns of nothing and changes no file."""
    before = snapshot(tmp_path)
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run([*argv, "--out", str(tmp_path / "o.csv")]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert message in captured.err and "--epsilon" in captured.err
    assert captured.out == ""
    assert snapshot(tmp_path) == before


def csv_body(path):
    # everything after the one-line JSON manifest comment
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# ")
    json.loads(lines[0][2:])  # manifest must be valid JSON
    return "\n".join(lines[1:])


class TestParams:
    def test_defaults_print_reference_quintet(self, capsys):
        assert run(["params"]) == 0
        payload = json.loads(capsys.readouterr().out)
        derived = payload["derived"]
        assert derived["n_particles"] == pytest.approx(2.5e19, rel=0.05)
        assert derived["mean_free_path_m"] == pytest.approx(2e-7, rel=1e-12)
        assert derived["mean_speed_m_per_s"] == pytest.approx(400.0, rel=1e-12)
        assert derived["mean_free_time_s"] == pytest.approx(5e-10, rel=1e-12)
        assert derived["collision_rate_per_s"] == pytest.approx(2e9, rel=1e-12)

    def test_double_pressure_doubles_n(self, capsys):
        run(["params"])
        base = json.loads(capsys.readouterr().out)["derived"]["n_particles"]
        run(["params", "--pressure", "2e5"])
        doubled = json.loads(capsys.readouterr().out)["derived"]["n_particles"]
        assert doubled == pytest.approx(2 * base, rel=1e-12)

    def test_zero_temperature_usage_error(self, capsys):
        assert run(["params", "--temperature", "0"]) == 1

    @pytest.mark.parametrize("argv,name", [
        (["--length", "1e200"], "n_particles"),
        (["--length", "1e100"], "n_particles"),
        (["--diameter", "1e-200"], "mean_free_path"),
        (["--temperature", "1e-320"], "n_particles"),
        (["--pressure", "1e-320"], "n_particles"),
        (["--temperature", "1e300", "--pressure", "1e-300"], "n_particles"),
    ], ids=["length-cubed-overflows", "count-overflows", "diameter-squared-underflows",
            "kt-underflows", "pressure-underflows", "count-underflows"])
    def test_derived_value_out_of_range_usage_error(self, capsys, argv, name):
        assert run(["params", *argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert f"derived {name} " in captured.err


class TestDefaults:
    """Each default of the command line is the library's."""

    @pytest.mark.parametrize("argv", [["tree", "--stages", "1"],
                                      ["gas", "--particles", "2", "--steps", "1"]])
    def test_collision_defaults(self, argv):
        args = cli.build_parser().parse_args(argv)
        assert args.epsilon == gas.RunConfig.epsilon
        assert args.seed == gas.RunConfig.seed
        assert cli._parse_matrix(args.matrix) == [list(row) for row in maps.DEFAULT_CAT_MATRIX]

    @pytest.mark.parametrize("argv", [["tree", "--stages", "1"],
                                      ["gas", "--particles", "2", "--steps", "1"]],
                             ids=["tree", "gas"])
    def test_short_matrix_refused_before_writing(self, tmp_path, capsys, argv):
        for matrix in ["1,2,3", "a,b,c,d", "1.5,1,1,2", "1,1,1,2,", "0_1, +1,1 ,2"]:
            assert run([*argv, "--matrix", matrix, "--out", str(tmp_path / "m.csv")]) == 1
            err = capsys.readouterr().err
            assert err == "error: matrix must be four comma-separated integers a,b,c,d\n"
            assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [["tree", "--stages", "1"],
                                      ["gas", "--particles", "2", "--steps", "1"]],
                             ids=["tree", "gas"])
    def test_matrix_entry_outside_int64_refused_before_writing(self, tmp_path, capsys, argv):
        # the last one has det 1 and would wrap to det 0 in an int64 cast
        for matrix, entry in [("100000000000000000000,1,99999999999999999999,1",
                               "100000000000000000000"),
                              ("-9223372036854775808,1,-9223372036854775809,1",
                               "-9223372036854775809"),
                              ("9223372036854775808,1,9223372036854775807,1",
                               "9223372036854775808")]:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert run([*argv, f"--matrix={matrix}", "--out", str(tmp_path / "m.csv")]) == 1
            err = capsys.readouterr().err
            assert err == f"error: collision matrix entries must lie in [-2**63, 2**63), got {entry}\n"
            assert list(tmp_path.iterdir()) == []

    def test_gas_run_defaults(self):
        args = cli.build_parser().parse_args(["gas", "--particles", "2", "--steps", "1"])
        assert args.pairing == gas.RunConfig.pairing
        assert (args.twin == "on") is gas.RunConfig.twin

    def test_params_defaults(self, capsys):
        defaults = kinetics.KineticParams()
        args = cli.build_parser().parse_args(["params"])
        assert {name: getattr(args, name) for name in vars(defaults)} == vars(defaults)
        assert run(["params"]) == 0
        assert json.loads(capsys.readouterr().out)["inputs"] == {
            "temperature_K": defaults.temperature, "pressure_Pa": defaults.pressure,
            "length_m": defaults.length, "diameter_m": defaults.diameter,
            "mass_kg": defaults.mass}


class TestManifest:
    @pytest.mark.parametrize("argv", [
        ["tree", "--stages", "3", "--aggregate-only"],
        ["gas", "--particles", "8", "--steps", "2", "--modes", "1", "--threads", "1"],
    ], ids=["tree", "gas"])
    def test_params_are_every_option_not_excluded(self, tmp_path, argv):
        # an option added to the parser lands in the manifest unless it is
        # put in NOT_PARAMS on purpose
        parser = cli.build_parser()
        commands = next(action for action in parser._actions
                        if isinstance(action, argparse._SubParsersAction)).choices
        options = {action.dest for action in commands[argv[0]]._actions} - {"help"}
        argv = [*argv, "--out", str(tmp_path / "o.csv")]
        args = parser.parse_args(argv)
        assert run(argv) == 0
        manifest = read_summary(tmp_path / "o.summary.json")["manifest"]
        assert manifest["command"] == argv[0]
        assert manifest["params"] == {name: getattr(args, name)
                                      for name in options - cli.NOT_PARAMS}
        assert manifest["seed"] == args.seed
        assert manifest["model"] == cli._parse_matrix(args.matrix)


class TestTree:
    def test_four_stages(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        assert run(["tree", "--stages", "4", "--out", str(out)]) == 0
        rows = csv_body(out).splitlines()
        assert rows[0] == "stage,n1,n2,dx,dp,norm"
        assert len(rows) == 1 + 16
        summary = read_summary(tmp_path / "t.summary.json")["summary"]
        assert summary["gas_dilation"] == pytest.approx(15.4217, abs=1e-3)
        assert summary["gas_dilation_bound"] == pytest.approx(4.0)
        assert summary["bound_satisfied"]

    def test_zero_stages_single_row(self, tmp_path):
        out = tmp_path / "t0.csv"
        assert run(["tree", "--stages", "0", "--out", str(out)]) == 0
        assert len(csv_body(out).splitlines()) == 2

    def test_leaves_with_the_same_n1_are_one_line(self, tmp_path):
        # K+ and K- commute, so a leaf's displacement depends on its n1 alone
        out = tmp_path / "t.csv"
        assert run(["tree", "--stages", "10", "--out", str(out)]) == 0
        lines = {}
        for line in csv_body(out).splitlines()[1:]:
            lines.setdefault(int(line.split(",")[1]), []).append(line)
        assert sorted(lines) == list(range(11))
        for n1, same in lines.items():
            assert same == [same[0]] * math.comb(10, n1)

    @pytest.mark.parametrize("stages,message", [
        ("-1", "--stages must be >= 0, got -1"),
        ("5000", "--stages 5000 is too large"),
    ])
    @pytest.mark.parametrize("extra", [[], ["--aggregate-only"]])
    def test_bad_stages_refused_before_writing(self, tmp_path, capsys, stages, message,
                                               extra):
        assert run(["tree", "--stages", stages, *extra,
                    "--out", str(tmp_path / "s.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert message in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("extra", [[], ["--aggregate-only"]])
    def test_negative_seed_refused_before_writing(self, tmp_path, capsys, extra):
        assert run(["tree", "--stages", "3", "--seed", "-1", *extra,
                    "--out", str(tmp_path / "s.csv")]) == 1
        assert "seed must be >= 0, got -1" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_budget_refusal(self, tmp_path):
        assert run(["tree", "--stages", "40", "--out", str(tmp_path / "c" / "x.csv")]) == 2
        assert list(tmp_path.iterdir()) == []  # not even the output directory

    def test_aggregate_only_allows_large_stage(self, tmp_path):
        out = tmp_path / "big.csv"
        assert run(["tree", "--stages", "40", "--aggregate-only", "--out", str(out)]) == 0
        assert not out.exists()
        summary = read_summary(tmp_path / "big.summary.json")["summary"]
        assert summary["gas_dilation_closed"] >= 2 ** 20

    @pytest.mark.parametrize("argv", [
        ["tree", "--stages", "12"],
        ["gas", "--particles", "4096", "--steps", "12", "--pairing", "tree",
         "--twin", "on", "--modes", "2", "--threads", "1", "--seed", "1"],
    ], ids=["tree", "gas"])
    def test_bytes_independent_of_blas_kernel(self, tmp_path, argv):
        # OPENBLAS_CORETYPE picks OpenBLAS's kernel for one process; every
        # product behind an output is written as multiply-adds and the growth
        # fit is closed-form, so no kernel can change a byte of any file
        outputs = [outputs_of_a_fresh_process(tmp_path / name, argv,
                                              "OPENBLAS_CORETYPE", coretype)
                   for name, coretype in [("default", None), ("prescott", "Prescott")]]
        assert len(outputs[0]) >= 2
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("command,name", [("gas", "o.csv"), ("tree", "o.csv"),
                                              ("tree", "o.summary.json")])
    def test_bytes_independent_of_cpu_dispatch(self, dispatch_outputs, command, name):
        """The trajectory CSV, the tree CSV and the tree summary are the same
        with numpy's AVX2 and AVX-512 loops disabled.  On a host without
        AVX2 both runs take the same loops, so this passes vacuously."""
        default, no_avx2 = dispatch_outputs[command]
        assert default[name] == no_avx2[name]

    @pytest.mark.xfail(strict=False, reason=(
        "ROADMAP item 3, the same spectrum on every x86-64 host: numpy picks the SIMD loop "
        "of complex multiply "
        "at import, and the spectrum and the fits of its columns use it"))
    @pytest.mark.parametrize("name", ["o.spectrum.csv", "o.summary.json"])
    def test_gas_spectrum_and_fits_independent_of_cpu_dispatch(self, dispatch_outputs,
                                                               name):
        default, no_avx2 = dispatch_outputs["gas"]
        assert default[name] == no_avx2[name]

    @pytest.mark.parametrize("epsilon,rel", [
        ("5e-324", 1e-12), ("1e-323", 1e-12), ("3e-323", 1e-12), ("1e-320", 1e-12),
        ("1e-160", 1e-12), ("1e-200", 1e-12), ("1e-300", 1e-12), ("1e305", 1e-12)])
    def test_tiny_epsilon_dilations_match_closed_forms(self, tmp_path, capsys, epsilon, rel):
        # the dilations come from the unit tree, so they are the same bits at every
        # epsilon; at 1e-320 and below the written leaf cells are subnormal or zero
        summaries = {}
        for eps in (epsilon, "1e-9"):
            out = tmp_path / eps / "t.csv"
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert run(["tree", "--stages", "12", "--epsilon", eps, "--out", str(out)]) == 0
            summaries[eps] = read_summary(out.with_suffix(".summary.json"))["summary"]
        assert capsys.readouterr().err == ""
        summary = summaries[epsilon]
        for name in ("gas_dilation", "geometric_mean_dilation", "arithmetic_mean_dilation"):
            assert summary[name] == pytest.approx(summary[f"{name}_closed"], rel=rel)
            assert summary[name].hex() == summaries["1e-9"][name].hex()
        for line in csv_body(tmp_path / epsilon / "t.csv").splitlines()[1:]:
            dx, dp, norm = map(float, line.split(",")[3:])
            if min(abs(dx), abs(dp)) >= sys.float_info.min:
                assert norm == pytest.approx(math.hypot(dx, dp), rel=1e-15, abs=0)

    @pytest.mark.parametrize("epsilon,overflows", [
        # the written norms of that many leaves overflow, with no warning
        pytest.param("1e306", 79, marks=pytest.mark.filterwarnings("error")),
        pytest.param("1e308", 3797, marks=pytest.mark.filterwarnings("error"))])
    def test_written_norm_overflow_refused_before_writing(self, tmp_path, capsys, epsilon,
                                                          overflows):
        out = tmp_path / "t.csv"
        assert run(["tree", "--stages", "12", "--out", str(out)]) == 0
        before = {path: path.read_bytes() for path in tmp_path.iterdir()}
        capsys.readouterr()
        assert run(["tree", "--stages", "12", "--epsilon", epsilon, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert f"{overflows} leaves have a norm" in captured.err
        assert "--epsilon" in captured.err and "--stages" in captured.err
        assert captured.out == ""
        assert {path: path.read_bytes() for path in tmp_path.iterdir()} == before
        # the closed forms alone need no leaf
        assert run(["tree", "--stages", "12", "--epsilon", epsilon, "--aggregate-only",
                    "--out", str(out)]) == 0

    def test_outdir_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.OUTDIR_ENV, str(tmp_path))
        assert run(["tree", "--stages", "2", "--out", "rel.csv"]) == 0
        assert (tmp_path / "rel.csv").exists()

    @pytest.mark.parametrize("extra", [[], ["--aggregate-only"]])
    @pytest.mark.parametrize("option", [["--epsilon=nan"], ["--epsilon=inf"], ["--epsilon=0"],
                                        ["--epsilon=-1e-9"], ["--epsilon", "-1e-9"]],
                             ids=["nan", "inf", "0", "-1e-9", "spaced-1e-9"])
    def test_non_finite_epsilon_refused_before_writing(self, tmp_path, capsys, option,
                                                       extra):
        assert run(["tree", "--stages", "3", *option, *extra,
                    "--out", str(tmp_path / "e.csv")]) == 1
        assert "epsilon must be finite" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestGas:
    def test_tree_pairing_saturates_at_log2n(self, tmp_path):
        out = tmp_path / "g.csv"
        assert run(["gas", "--particles", "1024", "--steps", "15",
                    "--pairing", "tree", "--modes", "0", "--out", str(out)]) == 0
        summary = read_summary(tmp_path / "g.summary.json")["summary"]
        assert summary["saturation_step"] == 10

    def test_identical_seed_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["gas", "--particles", "64", "--steps", "8", "--seed", "7", "--modes", "2"]
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b), "--threads", "1"]) == 0
        assert csv_body(a) == csv_body(b)
        assert csv_body(tmp_path / "a.spectrum.csv") == csv_body(tmp_path / "b.spectrum.csv")
        da = read_summary(tmp_path / "a.summary.json")
        db = read_summary(tmp_path / "b.summary.json")
        assert da["summary"] == db["summary"]
        assert list(da["output_digests"].values()) == list(db["output_digests"].values())

    def test_mode_count(self, tmp_path):
        out = tmp_path / "m.csv"
        assert run(["gas", "--particles", "64", "--steps", "8", "--modes", "4",
                    "--out", str(out)]) == 0
        summary = read_summary(tmp_path / "m.summary.json")["summary"]
        assert len(summary["modes"]) == 80

    def test_twin_runs_above_2_16_particles(self, tmp_path):
        out = tmp_path / "x.csv"
        assert run(["gas", "--particles", str(2**17), "--steps", "2",
                    "--twin", "on", "--modes", "0", "--out", str(out)]) == 0
        rows = [line.split(",") for line in csv_body(out).splitlines()[1:]]
        assert len(rows) == 3
        for row in rows:
            norm, twin_dist = float(row[2]), float(row[5])
            assert twin_dist / norm == pytest.approx(1.0, abs=1e-4)

    def test_tiny_epsilon_norm(self, tmp_path):
        # eps^2 underflows to 0; the norms are scaled by powers of two first
        out = tmp_path / "g.csv"
        assert run(["gas", "--particles", "64", "--steps", "4", "--epsilon", "1e-200",
                    "--modes", "0", "--out", str(out)]) == 0
        norms = [float(line.split(",")[2]) for line in csv_body(out).splitlines()[1:]]
        assert norms[0] == pytest.approx(1e-200, rel=1e-12, abs=0)
        assert all(norm > 1e-200 for norm in norms[1:])

    def test_odd_particles_warns(self, tmp_path, capsys):
        assert run(["gas", "--particles", "7", "--steps", "2", "--modes", "0",
                    "--out", str(tmp_path / "o.csv")]) == 0
        assert "odd particle count" in capsys.readouterr().err

    @pytest.mark.parametrize("particles,code,warned", [("3", 0, True), ("-1", 1, False)])
    def test_odd_count_warns_only_for_a_valid_run(self, tmp_path, capsys, particles, code,
                                                  warned):
        assert run(["gas", f"--particles={particles}", "--steps", "2", "--modes", "0",
                    "--out", str(tmp_path / "o.csv")]) == code
        assert ("warning" in capsys.readouterr().err) == warned

    def test_trajectory_columns(self, tmp_path):
        out = tmp_path / "c.csv"
        run(["gas", "--particles", "16", "--steps", "3", "--modes", "0", "--out", str(out)])
        rows = csv_body(out).splitlines()
        assert rows[0] == "t,affected,norm,max_disp,median_disp,twin_dist"
        assert len(rows) == 1 + 4

    def test_zero_steps_with_modes_refused_before_writing(self, tmp_path, capsys):
        out = tmp_path / "z.csv"
        assert run(["gas", "--particles", "16", "--steps", "0", "--modes", "1",
                    "--out", str(out)]) == 1
        assert "--steps >= 1" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("epsilon", ["nan", "inf", "0", "-1e-9"])
    def test_non_finite_epsilon_refused_before_writing(self, tmp_path, capsys, epsilon):
        assert run(["gas", "--particles", "16", "--steps", "3", "--epsilon", epsilon,
                    "--out", str(tmp_path / "e.csv")]) == 1
        assert "epsilon must be finite" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_norm_overflow_refused_before_writing(self, tmp_path, capsys):
        assert_refused_before_writing(tmp_path, capsys,
                                      ["gas", "--particles", "64", "--steps", "20",
                                       "--epsilon", "1e305", "--modes", "0"],
                                      "a root sum of squares of the displacements overflows")

    def test_tangent_overflow_refused_before_writing(self, tmp_path, capsys):
        # with two particles a tangent overflows to inf before the norm does
        assert_refused_before_writing(tmp_path, capsys,
                                      ["gas", "--particles", "2", "--steps", "40",
                                       "--epsilon", "1e300", "--modes", "0"],
                                      "a displacement overflows a float")

    def test_mode_row_overflow_refused_before_writing(self, tmp_path, capsys):
        # the norms fit a float, but k.v of the tangents in a pool worker does not
        assert_refused_before_writing(tmp_path, capsys,
                                      ["gas", "--particles", "64", "--steps", "10",
                                       "--epsilon", "1e305"],
                                      "a displacement overflows a float")

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_twin_below_its_resolution_refused_before_writing(self, tmp_path, capsys,
                                                              threads):
        # particle 0's twin point rounds to its point: twin_dist would read 0
        # at every step and no mode could be fitted
        argv = ["gas", "--particles", "256", "--steps", "8", "--pairing", "tree", "--twin",
                "on", "--epsilon", "1e-17", "--modes", "1", "--threads", threads]
        assert_refused_before_writing(tmp_path, capsys, argv, "--twin on resolves")
        assert not (tmp_path / "o.csv").exists()

    def test_negative_seed_refused_before_writing(self, tmp_path, capsys):
        assert run(["gas", "--particles", "64", "--steps", "3", "--seed", "-1", "--modes", "1",
                    "--out", str(tmp_path / "s.csv")]) == 1
        assert "seed must be >= 0, got -1" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_negative_steps_refused_before_writing(self, tmp_path, capsys):
        assert run(["gas", "--particles", "16", "--steps", "-1", "--modes", "0",
                    "--out", str(tmp_path / "n.csv")]) == 1
        assert "steps must be >= 0" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_negative_modes_refused_before_writing(self, tmp_path, capsys):
        assert run(["gas", "--particles", "16", "--steps", "3", "--modes", "-1",
                    "--out", str(tmp_path / "n.csv")]) == 1
        assert "--modes must be >= 0" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_negative_threads_refused_before_writing(self, tmp_path, capsys, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("the gas ran before --threads was checked")

        monkeypatch.setattr(gas, "evolve", never)
        assert run(["gas", "--particles", "16", "--steps", "3", "--threads", "-1",
                    "--out", str(tmp_path / "n.csv")]) == 1
        assert "--threads must be >= 0" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_zero_steps_without_modes_runs(self, tmp_path):
        out = tmp_path / "z.csv"
        assert run(["gas", "--particles", "16", "--steps", "0", "--modes", "0",
                    "--out", str(out)]) == 0
        assert len(csv_body(out).splitlines()) == 1 + 1

    def test_each_mode_series_computed_once(self, tmp_path, monkeypatch):
        mode_calls = []
        original = spectral.delta_series

        def counting(*args, **kwargs):
            mode_calls.append(list(args[1]))
            return original(*args, **kwargs)

        monkeypatch.setattr(spectral, "delta_series", counting)
        assert run(["gas", "--particles", "64", "--steps", "6", "--modes", "2",
                    "--threads", "2", "--out", str(tmp_path / "s.csv")]) == 0
        assert len(mode_calls) == 1
        assert sorted(mode_calls[0]) == sorted(spectral.enumerate_modes(2))
        assert len(mode_calls[0]) == 24

    def test_zero_threads_counts_the_cpus_this_process_may_run_on(self, tmp_path,
                                                                  monkeypatch):
        threads = []
        original = spectral.delta_series

        def recording(states, modes, threads_given=1):
            threads.append(threads_given)
            return original(states, modes, threads_given)

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(spectral, "delta_series", recording)
        assert run(["gas", "--particles", "64", "--steps", "4", "--modes", "1",
                    "--threads", "0", "--out", str(tmp_path / "c.csv")]) == 0
        assert threads == [1]

    @pytest.mark.parametrize("cpus", [1, 2, 8])
    def test_zero_threads_leaves_one_cpu_to_the_gas(self, tmp_path, monkeypatch, capsys,
                                                    cpus):
        threads = []

        def recording(config, model, modes, threads_given=1):
            threads.append(threads_given)
            raise ValueError("stopped before the gas ran")

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)
        monkeypatch.setattr(spectral, "analyse_gas", recording)
        assert run(["gas", "--particles", "64", "--steps", "4", "--modes", "1",
                    "--threads", "0", "--out", str(tmp_path / "c.csv")]) == 1
        assert threads == [max(1, cpus - 1)]
        assert "stopped before the gas ran" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_exponent_estimate_matches_affected_wave_oracle(self, tmp_path, model):
        out = tmp_path / "x.csv"
        # random pairing has not yet affected every particle at the window end
        assert run(["gas", "--particles", "256", "--steps", "10", "--seed", "3",
                    "--modes", "1", "--out", str(out)]) == 0
        summary = read_summary(tmp_path / "x.summary.json")["summary"]
        states = list(gas.evolve(gas.RunConfig(n_particles=256, steps=10, seed=3), model))
        t = summary["fit_window"][1]
        assert states[t].n_affected < 256
        pts = states[t].points[:states[t].n_affected]
        term2 = spectral.exponent_term2(model)
        for report in summary["modes"]:
            kvec = 2 * math.pi * np.array([report["m1"], report["m2"]], dtype=float)
            phase_sum = np.exp(-1j * (pts @ kvec)).sum() / 256 * (kvec @ model.xi_plus)
            term1 = math.log(abs(phase_sum)) / t
            assert report["term1"] == pytest.approx(term1, rel=1e-12)
            assert report["lambda_"] == pytest.approx(term1 + term2, rel=1e-12)

    def test_failed_mode_analysis_writes_nothing(self, tmp_path, monkeypatch, capsys):
        def out_of_memory(*args, **kwargs):
            raise MemoryError("mode analysis ran out of memory")

        monkeypatch.setattr(spectral, "delta_series", out_of_memory)
        assert run(["gas", "--particles", "64", "--steps", "6", "--modes", "2",
                    "--out", str(tmp_path / "f.csv")]) == 2
        assert "refused" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_memory_error_without_text_says_what_ran_out(self, tmp_path, monkeypatch,
                                                         capsys):
        def out_of_memory(max_order):
            raise MemoryError()

        monkeypatch.setattr(spectral, "enumerate_modes", out_of_memory)
        assert run(["gas", "--particles", "64", "--steps", "3", "--modes", "100000",
                    "--out", str(tmp_path / "m.csv")]) == 2
        assert capsys.readouterr().err == "refused: out of memory\n"
        assert list(tmp_path.iterdir()) == []


class TestOutputSet:
    """A run owns out, its .spectrum.csv and its .summary.json: a successful
    rerun removes the files of that set it did not write."""

    def test_rerun_without_modes_removes_the_old_spectrum(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        assert run(["gas", "--particles", "16", "--steps", "2", "--modes", "1",
                    "--out", str(out)]) == 0
        assert run(["gas", "--particles", "16", "--steps", "2", "--modes", "0",
                    "--seed", "4", "--out", str(out)]) == 0
        assert f"removed {tmp_path / 's.spectrum.csv'}" in capsys.readouterr().out
        assert sorted(path.name for path in tmp_path.iterdir()) == ["s.csv", "s.summary.json"]
        assert list(read_summary(tmp_path / "s.summary.json")["output_digests"]) == ["s.csv"]

    def test_aggregate_only_rerun_removes_the_old_leaves(self, tmp_path):
        out = tmp_path / "t.csv"
        assert run(["tree", "--stages", "3", "--out", str(out)]) == 0
        assert run(["tree", "--stages", "3", "--aggregate-only", "--out", str(out)]) == 0
        assert sorted(path.name for path in tmp_path.iterdir()) == ["t.summary.json"]

    def test_a_directory_in_the_set_is_left_alone(self, tmp_path):
        (tmp_path / "s.spectrum.csv").mkdir()
        assert run(["gas", "--particles", "16", "--steps", "2", "--modes", "0",
                    "--out", str(tmp_path / "s.csv")]) == 0
        assert (tmp_path / "s.spectrum.csv").is_dir()

    def test_failed_rerun_removes_nothing(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "s.csv"
        assert run(["gas", "--particles", "16", "--steps", "2", "--modes", "1",
                    "--out", str(out)]) == 0
        before = snapshot(tmp_path)

        def full_disk(path, *args, **kwargs):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(cli, "_write_summary", full_disk)
        assert run(["gas", "--particles", "16", "--steps", "2", "--modes", "0",
                    "--out", str(out)]) == 1
        assert "removed" not in capsys.readouterr().out
        assert snapshot(tmp_path) == before


class TestUnwritableOutput:
    """A write that fails exits 1, names the output path and leaves every
    output path as it was."""

    def refused(self, tmp_path, capsys, argv, path):
        before = snapshot(tmp_path)
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: cannot write {path}: ")
        assert ".tmp" not in captured.err
        assert "wrote" not in captured.out
        assert snapshot(tmp_path) == before

    def test_gas_out_is_a_directory(self, tmp_path, capsys):
        out = tmp_path / "D"
        out.mkdir()
        self.refused(tmp_path, capsys, ["gas", "--particles", "16", "--steps", "2",
                                        "--modes", "0", "--out", str(out)], out)

    def test_gas_spectrum_path_is_a_directory(self, tmp_path, capsys):
        spectrum = tmp_path / "spec" / "x.spectrum.csv"
        spectrum.mkdir(parents=True)
        self.refused(tmp_path, capsys, ["gas", "--particles", "16", "--steps", "2",
                                        "--modes", "1", "--out",
                                        str(tmp_path / "spec" / "x.csv")], spectrum)

    def test_failed_rerun_keeps_previous_outputs(self, tmp_path, capsys):
        out = tmp_path / "spec" / "x.csv"
        argv = ["gas", "--particles", "16", "--steps", "2", "--out", str(out)]
        assert run(argv + ["--modes", "0"]) == 0
        spectrum = tmp_path / "spec" / "x.spectrum.csv"
        spectrum.mkdir()
        capsys.readouterr()
        # the rerun's trajectory CSV and summary are complete before its
        # spectrum CSV fails, and must not replace the first run's files
        self.refused(tmp_path, capsys, argv + ["--modes", "1"], spectrum)

    def test_failed_write_removes_the_temporaries(self, tmp_path, capsys, monkeypatch):
        def full_disk(path, *args, **kwargs):
            path.write_bytes(b"partial")
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        # the trajectory and spectrum CSVs are complete when the summary fails
        monkeypatch.setattr(cli, "_write_summary", full_disk)
        self.refused(tmp_path, capsys, ["gas", "--particles", "16", "--steps", "2",
                                        "--modes", "1", "--out", str(tmp_path / "x.csv")],
                     tmp_path / "x.summary.json")

    def test_failed_body_write_removes_the_temporary_and_the_hasher(self, tmp_path, capsys,
                                                                    monkeypatch):
        real_open = open

        class FullDisk:
            """A file whose fifth write (the third chunk of the body) fails."""

            def __init__(self, path, mode):
                self.fh = real_open(path, mode)
                self.writes = 0

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                self.writes += 1
                if self.writes == 5:
                    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
                return self.fh.write(data)

        monkeypatch.setattr(cli, "CSV_CHUNK_ROWS", 64)
        monkeypatch.setattr(cli, "open", FullDisk, raising=False)
        threads = threading.active_count()
        out = tmp_path / "t.csv"
        self.refused(tmp_path, capsys, ["tree", "--stages", "10", "--out", str(out)], out)
        assert threading.active_count() == threads
        # the traceback keeps the failed call's frame, so a helper that were
        # left to the garbage collector would still be running here
        with pytest.raises(OSError) as failed:
            cli._write_csv(tmp_path / "direct.csv", {}, ["t"], [(0,)], [0] * 1000)
        assert failed.value.errno == errno.ENOSPC
        assert threading.active_count() == threads

    def test_tree_out_parent_is_a_file(self, tmp_path, capsys):
        (tmp_path / "F").write_text("")
        out = tmp_path / "F" / "t.csv"
        self.refused(tmp_path, capsys, ["tree", "--stages", "2", "--out", str(out)], out)

    def test_spectrum_out_is_a_directory(self, tmp_path, capsys):
        assert run(["gas", "--particles", "16", "--steps", "4", "--modes", "1",
                    "--out", str(tmp_path / "g.csv")]) == 0
        capsys.readouterr()
        out = tmp_path / "D"
        out.mkdir()
        self.refused(tmp_path, capsys, ["spectrum", "--in", str(tmp_path / "g.spectrum.csv"),
                                        "--out", str(out)], out)


# Edge inputs for the all-or-nothing property.  Sizes stay small, and
# --threads stays at 0..2 so that no example starts many threads.  Each value
# comes from its valid range about half the time (the first branch of each
# one_of), so that many runs succeed.
EDGE_EPSILONS = st.one_of(st.just("1e-9"), st.sampled_from(["1e-9", "0", "-1", "nan", "inf"]))
EDGE_GAS_ARGV = st.builds(
    lambda n, steps, modes, eps, threads, pairing, twin: [
        "gas", f"--particles={n}", f"--steps={steps}", f"--modes={modes}",
        f"--epsilon={eps}", f"--threads={threads}", f"--pairing={pairing}", f"--twin={twin}"],
    st.one_of(st.integers(2, 64), st.integers(-1, 64)),
    st.one_of(st.integers(1, 6), st.integers(-1, 6)),
    st.one_of(st.integers(0, 2), st.integers(-1, 2)), EDGE_EPSILONS, st.integers(0, 2),
    st.sampled_from(["random", "tree"]), st.sampled_from(["on", "off"]))
EDGE_TREE_ARGV = st.builds(
    lambda stages, eps, aggregate: ["tree", f"--stages={stages}", f"--epsilon={eps}"]
    + ["--aggregate-only"] * aggregate,
    # 25 stages is over the leaf budget: exit 2 unless --aggregate-only
    st.one_of(st.integers(0, 10), st.sampled_from([-1, 25])), EDGE_EPSILONS, st.booleans())


def quiet_run(argv):
    """Exit code, stdout and stderr of one in-process CLI run."""
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


def previous_run(root, modes="1"):
    out = root / "r.csv"
    assert quiet_run(["gas", "--particles", "8", "--steps", "2", "--modes", modes,
                      "--out", str(out)])[0] == 0
    return out


def make_dir(path):
    path.mkdir()
    return path


def under_a_file(root):
    (root / "F").write_text("")
    return root / "F" / "r.csv"


def spectrum_sibling_is_a_directory(root):
    out = previous_run(root, modes="0")  # a failed rerun must keep these files
    make_dir(root / "r.spectrum.csv")
    return out


# each prepares a fresh directory and returns the --out path
OUT_TARGETS = {
    "fresh": lambda root: root / "sub" / "r.csv",
    "existing directory": lambda root: make_dir(root / "r.csv"),
    "under a file": under_a_file,
    "spectrum sibling is a directory": spectrum_sibling_is_a_directory,
    "previous run": previous_run,
}


@settings(max_examples=100, deadline=None)
@given(argv=st.one_of(EDGE_GAS_ARGV, EDGE_TREE_ARGV), target=st.sampled_from(sorted(OUT_TARGETS)))
def test_edge_inputs_write_complete_outputs_or_nothing(argv, target):
    """Any argv exits 0 with every output complete, or exits 1 or 2 with its
    output directory unchanged."""
    with tempfile.TemporaryDirectory() as name:
        root = Path(name)
        out = OUT_TARGETS[target](root)
        before = snapshot(root)
        code, stdout, stderr = quiet_run(argv + ["--out", str(out)])
        if code != 0:
            assert code in (1, 2), stderr
            assert "wrote" not in stdout
            assert snapshot(root) == before
            return
        wrote = [Path(line.removeprefix("wrote ")) for line in stdout.splitlines()
                 if line.startswith("wrote ")]
        assert all(path.is_file() for path in wrote)
        summary = out.with_suffix(".summary.json")
        assert summary in wrote
        digests = read_summary(summary)["output_digests"]
        assert sorted(digests) == sorted(path.name for path in wrote if path != summary)
        for csv_name, digest in digests.items():
            data = (summary.parent / csv_name).read_bytes()
            assert hashlib.sha256(data[data.index(b"\n") + 1:]).hexdigest() == digest
        # no file of an earlier run is left beside this run's outputs
        outputs = {path.name for path in out.parent.glob(f"{out.stem}.*") if path.is_file()}
        assert outputs == set(digests) | {summary.name}
        assert not any(".tmp" in path for path in snapshot(root))


class TestSpectrum:
    def test_refit_from_saved_csv(self, tmp_path, capsys):
        out = tmp_path / "g.csv"
        run(["gas", "--particles", "256", "--steps", "10", "--pairing", "tree",
             "--modes", "1", "--out", str(out)])
        capsys.readouterr()
        assert run(["spectrum", "--in", str(tmp_path / "g.spectrum.csv"),
                    "--window", "2", "8"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["modes"]) == 8
        slopes = [m["slope"] for m in payload["modes"] if "slope" in m]
        assert slopes and all(math.isfinite(s) for s in slopes)

    @pytest.mark.parametrize("window", [("2", "100"), ("-3", "3")])
    def test_window_outside_series_is_fit_error(self, tmp_path, capsys, window):
        src = tmp_path / "s.csv"
        src.write_text("# {}\nt,m1,m2,delta_twin,delta_linear\n" + "".join(
            f"{t},{m1},0,nan,{2.0 ** t}\n" for m1 in (1, -1) for t in range(4)))
        assert run(["spectrum", "--in", str(src), "--window", *window]) == 0
        modes = json.loads(capsys.readouterr().out)["modes"]
        assert len(modes) == 2
        assert all("outside the series" in m["fit_error"] for m in modes)

    def test_default_window_needs_the_manifest_params(self, tmp_path, capsys):
        src = tmp_path / "s.csv"
        src.write_text('# {"command": "gas"}\nt,m1,m2,delta_twin,delta_linear\n' + "".join(
            f"{t},1,0,nan,{2.0 ** t}\n" for t in range(6)))
        assert run(["spectrum", "--in", str(src)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "--window" in captured.err
        assert captured.out == ""
        assert run(["spectrum", "--in", str(src), "--window", "1", "5"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["fit_window"] == [1, 5]
        assert payload["modes"][0]["slope"] == pytest.approx(math.log(2.0))

    def test_default_window_needs_int_manifest_params(self, tmp_path, capsys):
        src = tmp_path / "s.csv"
        src.write_text('# {"command": "gas", "params": {"particles": 64.0, "steps": 5}}\n'
                       "t,m1,m2,delta_twin,delta_linear\n"
                       + "".join(f"{t},1,0,nan,{2.0 ** t}\n" for t in range(6)))
        assert run(["spectrum", "--in", str(src)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "--window" in captured.err
        assert captured.out == ""

    def test_blank_lines_skipped(self, tmp_path, capsys):
        rows = [f"{t},1,0,nan,{2.0 ** t}\n" for t in range(6)]
        fits = []
        for name, body in [("plain", rows), ("blank", ["\n", *rows[:3], "\n\n", *rows[3:]])]:
            src = tmp_path / f"{name}.csv"
            src.write_text("# {}\nt,m1,m2,delta_twin,delta_linear\n" + "".join(body))
            assert run(["spectrum", "--in", str(src), "--window", "1", "5"]) == 0
            fits.append(json.loads(capsys.readouterr().out)["modes"])
        assert fits[0] == fits[1]
        assert fits[0][0]["slope"] == pytest.approx(math.log(2.0))

    def test_missing_input_file_is_usage_error(self, tmp_path, capsys):
        assert run(["spectrum", "--in", str(tmp_path / "nope.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read ")
        assert "nope.csv" in err
        assert "Traceback" not in err

    def test_missing_manifest_rejected(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("t,m1,m2\n0,1,0\n")
        assert run(["spectrum", "--in", str(bad)]) == 1

    @pytest.mark.parametrize("text,message", [
        ("# {}\n", "has no column line"),
        ("# {}\nt,m1,m2,delta_twin,delta_linear\n", "has no data rows"),
        ("# {}\nt,m1,m2,delta_twin,delta_linear\n0,1\n", "line 3 has 2 cells, expected 5"),
        ("# {}\nt,m1,m2,delta_twin,delta_linear\n0,1,0,nan,1\n1,1,0,nan,x\n",
         "line 4: could not convert string to float: 'x'"),
        ("# {}\nt,m1,m2,delta_twin,delta_linear\n0,1.5,0,nan,1\n",
         "line 3: invalid integer: '1.5'"),
        ("# {}\nt,m1,m2,delta_twin,delta_linear\n 0,1,0,nan,1\n",
         "line 3: invalid integer: ' 0'"),
        ("# {}\nt,m1,m2,delta_twin,delta_linear\n0,0_1,0,nan,1\n",
         "line 3: invalid integer: '0_1'"),
        ("# {not json\nt,m1,m2,delta_twin,delta_linear\n0,1,0,nan,1\n",
         "line 1: Expecting property name"),
        ("# {}\nt,m1,m2,delta_linear\n0,1,0,1\n", "is missing column 'delta_twin'"),
    ], ids=["cut-after-manifest", "cut-after-columns", "short-row", "bad-float", "bad-int",
            "spaced-int", "underscored-int", "bad-manifest", "no-twin-column"])
    def test_truncated_file_is_usage_error(self, tmp_path, capsys, text, message):
        bad = tmp_path / "bad.csv"
        bad.write_text(text)
        assert run(["spectrum", "--in", str(bad)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert f"{bad} {message}" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("rows,message", [
        ("0,1,0,nan,1\n1,1,0,nan,2\n-1,1,0,nan,1e-30\n",
         "line 5 has t = -1, outside 0..2"),
        ("0,1,0,nan,1\n1,1,0,nan,2\n1,1,0,nan,3\n",
         "line 5 repeats mode (1, 0) at t = 1"),
        ("0,1,0,nan,1\n1,1,0,nan,2\n3,1,0,nan,8\n",
         "line 5 has t = 3, outside 0..2"),
    ], ids=["negative-t", "repeated-row", "t-past-row-count"])
    def test_bad_time_row_is_usage_error(self, tmp_path, capsys, rows, message):
        bad = tmp_path / "bad.csv"
        bad.write_text("# {}\nt,m1,m2,delta_twin,delta_linear\n" + rows)
        assert run(["spectrum", "--in", str(bad), "--window", "0", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert message in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("rows,message", [
        ("0,1,0,nan,1\n1,1,0,nan,2\n0,-1,0,nan,1\n2,1,0,nan,4\n2,-1,0,nan,4\n",
         "no row for mode (-1, 0) at t = 1; every mode needs t = 0..2"),
        ("0,1,0,nan,1\n1,1,0,nan,2\n2,1,0,nan,4\n0,-1,0,nan,1\n1,-1,0,nan,2\n",
         "no row for mode (-1, 0) at t = 2; every mode needs t = 0..2"),
    ], ids=["gap", "short-mode"])
    def test_missing_time_row_is_usage_error(self, tmp_path, capsys, rows, message):
        bad = tmp_path / "bad.csv"
        bad.write_text("# {}\nt,m1,m2,delta_twin,delta_linear\n" + rows)
        out = tmp_path / "fit.json"
        assert run(["spectrum", "--in", str(bad), "--window", "0", "3",
                    "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert message in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_gas_output_missing_a_row_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "g.csv"
        run(["gas", "--particles", "64", "--steps", "8", "--modes", "1",
             "--twin", "on", "--out", str(out)])
        capsys.readouterr()
        spectrum = tmp_path / "g.spectrum.csv"
        lines = spectrum.read_text().splitlines(keepends=True)
        spectrum.write_text("".join(line for line in lines if not line.startswith("4,-1,-1,")))
        assert run(["spectrum", "--in", str(spectrum), "--use", "twin"]) == 1
        captured = capsys.readouterr()
        assert "no row for mode (-1, -1) at t = 4" in captured.err
        assert captured.out == ""

    def test_non_finite_delta_is_fit_error(self, tmp_path, capsys):
        src = tmp_path / "s.csv"
        src.write_text("# {}\nt,m1,m2,delta_twin,delta_linear\n" + "".join(
            f"{t},1,0,nan,{'nan' if t == 2 else 2.0 ** t}\n" for t in range(6)))
        assert run(["spectrum", "--in", str(src), "--window", "0", "5"]) == 0
        [mode] = json.loads(capsys.readouterr().out)["modes"]
        assert "non-finite" in mode["fit_error"]

    def test_twin_refit_without_twin_data_refused(self, tmp_path, capsys):
        out = tmp_path / "g.csv"
        run(["gas", "--particles", "64", "--steps", "8", "--modes", "1",
             "--twin", "off", "--out", str(out)])
        capsys.readouterr()
        assert run(["spectrum", "--in", str(tmp_path / "g.spectrum.csv"),
                    "--use", "twin"]) == 1
        captured = capsys.readouterr()
        assert "--twin on" in captured.err
        assert captured.out == ""

    def test_twin_refit_with_twin_data(self, tmp_path, capsys):
        out = tmp_path / "g.csv"
        run(["gas", "--particles", "256", "--steps", "10", "--pairing", "tree",
             "--modes", "1", "--twin", "on", "--out", str(out)])
        capsys.readouterr()
        assert run(["spectrum", "--in", str(tmp_path / "g.spectrum.csv"),
                    "--use", "twin", "--window", "2", "8"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["use"] == "twin"
        assert all("slope" in m for m in payload["modes"])


def expected_body(columns, n_integer, rows):
    """The CSV body of `rows`: the first `n_integer` cells as integers, the rest
    with 17 significant digits."""
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(str(int(v)) if i < n_integer else format(float(v), ".17g")
                              for i, v in enumerate(row)))
    return "\n".join(lines)


class TestCellFormat:
    """Each CSV body against the library arrays it prints, formatted here."""

    @pytest.mark.parametrize("chunk_rows", [2, cli.CSV_CHUNK_ROWS])
    def test_repeated_rows_in_any_order(self, tmp_path, monkeypatch, chunk_rows):
        monkeypatch.setattr(cli, "CSV_CHUNK_ROWS", chunk_rows)
        # rows 0 and 1 differ only in the sign of zero, rows 2 and 3 are equal
        rows = [(1, 0.0, 0.5), (1, -0.0, 0.5), (2, math.nan, -1e-300),
                (2, math.nan, -1e-300), (3, 1 / 3, math.inf)]
        order = [4, 1, 1, 0, 2, 4, 3, 0, 1]
        columns = ["t", "x", "y"]
        out = tmp_path / "r.csv"
        digest = cli._write_csv(out, {}, columns, rows, order)
        body = out.read_text().split("\n", 1)[1]
        assert body == "t,x,y\n" + "".join("%d,%.17g,%.17g\n" % rows[k] for k in order)
        assert body.splitlines()[2:5] == ["1,-0,0.5", "1,-0,0.5", "1,0,0.5"]
        assert digest == hashlib.sha256(body.encode()).hexdigest()

    @pytest.mark.parametrize("chunk_rows", [3, cli.CSV_CHUNK_ROWS])
    def test_order_as_list_range_or_int_array(self, tmp_path, monkeypatch, chunk_rows):
        monkeypatch.setattr(cli, "CSV_CHUNK_ROWS", chunk_rows)
        rows = [(k, k / 3) for k in range(8)]
        written = set()
        for k, order in enumerate([list(range(8)), range(8), np.arange(8),
                                   np.arange(8, dtype=np.int32)]):
            out = tmp_path / f"{k}.csv"
            digest = cli._write_csv(out, {}, ["t", "x"], rows, order)
            written.add((out.read_bytes(), digest))
        assert len(written) == 1
        (data, digest), = written
        body = data.split(b"\n", 1)[1]
        assert body == b"t,x\n" + b"".join(b"%d,%.17g\n" % row for row in rows)
        assert digest == hashlib.sha256(body).hexdigest()

    @pytest.mark.parametrize("order", [[], range(0), np.zeros(0, dtype=np.intp)])
    def test_empty_order_writes_the_column_line_alone(self, tmp_path, order):
        out = tmp_path / "e.csv"
        digest = cli._write_csv(out, {}, ["t", "x"], [(1, 0.5)], order)
        assert out.read_bytes().split(b"\n", 1)[1] == b"t,x\n"
        assert digest == hashlib.sha256(b"t,x\n").hexdigest()

    def test_tree_cells(self, tmp_path, model):
        out = tmp_path / "t.csv"
        assert run(["tree", "--stages", "3", "--out", str(out)]) == 0
        # leaf_records writes epsilon times each unit row and its norm
        leaves = tree.run_tree(model, 3)
        unit = leaves.distinct[leaves.n1]
        displacements = 1e-9 * unit
        norms = 1e-9 * np.linalg.norm(unit, axis=1)
        rows = [(3, leaves.n1[i], 3 - leaves.n1[i], *displacements[i], norms[i])
                for i in range(leaves.n1.size)]
        assert out.read_text().endswith("\n")
        assert csv_body(out) == expected_body(cli.TREE_CSV_COLUMNS, 3, rows)

    def test_gas_and_spectrum_cells(self, tmp_path, model):
        out = tmp_path / "g.csv"
        assert run(["gas", "--particles", "16", "--steps", "4", "--seed", "3",
                    "--twin", "off", "--modes", "1", "--threads", "1",
                    "--out", str(out)]) == 0
        config = gas.RunConfig(n_particles=16, steps=4, seed=3)
        traj = gas.run_paired(config, model)
        rows = [(t, traj.affected_count[t], traj.norm[t], traj.max_disp[t],
                 traj.median_disp[t], traj.twin_dist[t]) for t in range(5)]
        body = csv_body(out)
        assert body == expected_body(cli.GAS_CSV_COLUMNS, 2, rows)
        assert [line.split(",")[-1] for line in body.splitlines()[1:]] == ["nan"] * 5

        rows = [(t, s.mode.m1, s.mode.m2, s.values[t].real, s.values[t].imag,
                 math.nan, abs(s.deltas_linear[t]))
                for s in spectral.delta_series(gas.evolve(config, model),
                                               spectral.enumerate_modes(1))
                for t in range(5)]
        body = csv_body(tmp_path / "g.spectrum.csv")
        assert body == expected_body(cli.SPECTRUM_CSV_COLUMNS, 3, rows)


def test_readme_lists_the_frozen_csv_schemas():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("Frozen CSV schemas:")[1].strip().split("\n\n")[0]
    listed = re.findall(r"^\|[^|]+\| `([^`]+)` \|$", table, re.MULTILINE)
    assert listed == [",".join(columns) for columns in (
        cli.TREE_CSV_COLUMNS, cli.GAS_CSV_COLUMNS, cli.SPECTRUM_CSV_COLUMNS)]


class TestVerify:
    def test_all_checks_pass(self, capsys):
        assert run(["verify"]) == 0
        out = capsys.readouterr().out
        assert "PASS lambda-plus" in out
        assert "FAIL" not in out
        assert "all 17 checks passed" in out

    def test_corrupt_hook_names_failure(self, capsys, monkeypatch):
        exact = tree.gas_dilation
        monkeypatch.setattr(tree, "gas_dilation", lambda run: 1.001 * exact(run))
        assert run(["verify"]) == 3
        out = capsys.readouterr().out
        assert "FAIL gas-dilation:" in out
        assert out.count("FAIL") == 2  # the failing line plus the summary
        assert "all 17 checks passed" not in out
        assert out.count("PASS ") == 16  # every other check still runs

    @pytest.mark.parametrize("path", ["kernel", "step", "saturation"])
    def test_broken_product_path_fails_its_check(self, path, capsys, monkeypatch):
        # each check runs the code that the outputs come from, so breaking
        # that code fails the check
        def unit_wave(x):  # one ulp off at negative turns
            wave = exact(x)
            negative = np.asarray(x) < 0
            wave.real[negative] = np.nextafter(wave.real[negative], 2.0)
            return wave

        def collide_linear(model, x0, x1, out=None):  # nudges its first output
            y0, y1 = exact(model, x0, x1, out=out)
            y0 += 1e-9
            return y0, y1

        def analyse_gas(config, *args):  # runs random pairing
            return exact(dataclasses.replace(config, pairing="random"), *args)

        module, broken, check = {
            "kernel": (spectral, unit_wave, "fourier-symmetry"),
            "step": (gas, collide_linear, "pair-sum-conservation"),
            "saturation": (spectral, analyse_gas, "tree-pairing-saturation"),
        }[path]
        exact = getattr(module, broken.__name__)
        monkeypatch.setattr(module, broken.__name__, broken)
        assert run(["verify"]) == 3
        assert f"FAIL {check}:" in capsys.readouterr().out


def test_pairing_choices_are_the_pairing_table():
    subcommands = next(action for action in cli.build_parser()._actions
                       if action.dest == "command")
    pairing = next(action for action in subcommands.choices["gas"]._actions
                   if action.dest == "pairing")
    assert pairing.choices == sorted(gas.PAIRINGS)


def test_usage_error_exit_code(tmp_path):
    assert cli.build_parser().prog == "arnoldgas"
    # int() reads the last four, but each integer option takes [+-]?[0-9]+ only
    for option in [["--particles", "not-a-number"], ["--particles", "1_024"],
                   ["--particles", " 64"], ["--seed", "1_0"], ["--modes", " 1"]]:
        with pytest.raises(SystemExit) as exc:
            cli.main(["gas", "--particles", "64", "--steps", "2", *option,
                      "--out", str(tmp_path / "u.csv")])
        assert exc.value.code == 1
