import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from arnoldgas import cli, gas, spectral, tree


SRC = Path(__file__).resolve().parents[1] / "src"


def run(args):
    return cli.main(args)


def read_summary(path):
    return json.loads(path.read_text())


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
        outputs = []
        for name, coretype in [("default", None), ("prescott", "Prescott")]:
            env = {k: v for k, v in os.environ.items()
                   if k not in ("OPENBLAS_CORETYPE", cli.OUTDIR_ENV)}
            env["PYTHONPATH"] = str(SRC)
            if coretype:
                env["OPENBLAS_CORETYPE"] = coretype
            (tmp_path / name).mkdir()
            result = subprocess.run([sys.executable, "-m", "arnoldgas.cli", *argv,
                                     "--out", "o.csv"],
                                    cwd=tmp_path / name, env=env, capture_output=True,
                                    text=True, timeout=120)
            assert result.returncode == 0, result.stderr
            outputs.append({path.name: path.read_bytes()
                            for path in sorted((tmp_path / name).iterdir())})
        assert len(outputs[0]) >= 2
        assert outputs[0] == outputs[1]

    def test_outdir_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.OUTDIR_ENV, str(tmp_path))
        assert run(["tree", "--stages", "2", "--out", "rel.csv"]) == 0
        assert (tmp_path / "rel.csv").exists()

    @pytest.mark.parametrize("extra", [[], ["--aggregate-only"]])
    @pytest.mark.parametrize("epsilon", ["nan", "inf"])
    def test_non_finite_epsilon_refused_before_writing(self, tmp_path, capsys, epsilon,
                                                       extra):
        assert run(["tree", "--stages", "3", "--epsilon", epsilon, *extra,
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

    def test_odd_particles_warns(self, tmp_path, capsys):
        assert run(["gas", "--particles", "7", "--steps", "2", "--modes", "0",
                    "--out", str(tmp_path / "o.csv")]) == 0
        assert "odd particle count" in capsys.readouterr().err

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

    @pytest.mark.parametrize("epsilon", ["nan", "inf"])
    def test_non_finite_epsilon_refused_before_writing(self, tmp_path, capsys, epsilon):
        assert run(["gas", "--particles", "16", "--steps", "3", "--epsilon", epsilon,
                    "--out", str(tmp_path / "e.csv")]) == 1
        assert "epsilon must be finite" in capsys.readouterr().err
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

    def test_exponent_estimate_matches_affected_wave_oracle(self, tmp_path, model):
        out = tmp_path / "x.csv"
        # random pairing has not yet affected every particle at the window end
        assert run(["gas", "--particles", "256", "--steps", "10", "--seed", "3",
                    "--modes", "1", "--out", str(out)]) == 0
        summary = read_summary(tmp_path / "x.summary.json")["summary"]
        states = list(gas.evolve(gas.RunConfig(n_particles=256, steps=10, seed=3), model))
        t = summary["fit_window"][1]
        assert np.count_nonzero(states[t].affected) < 256
        pts = states[t].points[states[t].affected]
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


class TestUnwritableOutput:
    """A write that fails exits 1, names the output path and leaves no file behind."""

    def refused(self, tmp_path, capsys, argv, path):
        before = sorted(tmp_path.rglob("*"))
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: cannot write {path}: ")
        assert ".tmp" not in captured.err
        assert "wrote" not in captured.out
        assert sorted(tmp_path.rglob("*")) == before

    def test_gas_out_is_a_directory(self, tmp_path, capsys):
        out = tmp_path / "D"
        out.mkdir()
        self.refused(tmp_path, capsys, ["gas", "--particles", "16", "--steps", "2",
                                        "--modes", "0", "--out", str(out)], out)

    def test_gas_spectrum_path_is_a_directory(self, tmp_path, capsys):
        spectrum = tmp_path / "spec" / "x.spectrum.csv"
        spectrum.mkdir(parents=True)
        # the trajectory CSV is written first and must be removed again
        self.refused(tmp_path, capsys, ["gas", "--particles", "16", "--steps", "2",
                                        "--modes", "1", "--out",
                                        str(tmp_path / "spec" / "x.csv")], spectrum)

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
        ("# {}\nt,m1,m2,delta_twin,delta_linear\n0,1\n", "line 3 has 2 cells, expected 5"),
        ("# {}\nt,m1,m2,delta_twin,delta_linear\n0,1,0,nan,1\n1,1,0,nan,x\n",
         "line 4: could not convert string to float: 'x'"),
        ("# {}\nt,m1,m2,delta_twin,delta_linear\n0,1.5,0,nan,1\n",
         "line 3: invalid literal for int()"),
        ("# {not json\nt,m1,m2,delta_twin,delta_linear\n0,1,0,nan,1\n",
         "line 1: Expecting property name"),
    ], ids=["cut-after-manifest", "short-row", "bad-float", "bad-int", "bad-manifest"])
    def test_truncated_file_is_usage_error(self, tmp_path, capsys, text, message):
        bad = tmp_path / "bad.csv"
        bad.write_text(text)
        assert run(["spectrum", "--in", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert f"{bad} {message}" in err

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

    def test_tree_cells(self, tmp_path, model):
        out = tmp_path / "t.csv"
        assert run(["tree", "--stages", "3", "--out", str(out)]) == 0
        leaves = tree.run_tree(model, 3, 1e-9)
        displacements = leaves.distinct[leaves.leaf]
        norms = np.linalg.norm(displacements, axis=1)
        rows = [(3, leaves.n1[i], 3 - leaves.n1[i], *displacements[i], norms[i])
                for i in range(leaves.leaf.size)]
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


def test_usage_error_exit_code():
    assert cli.build_parser().prog == "arnoldgas"
    with pytest.raises(SystemExit) as exc:
        cli.main(["gas", "--particles", "not-a-number"])
    assert exc.value.code == 1
