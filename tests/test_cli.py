"""End-to-end command-line tests: files, manifests, exit codes, config."""

import ast
import builtins
import hashlib
import importlib
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import memdomain
from memdomain.bessel import sph_j, sph_y
from memdomain.cli import _COMMANDS, main
from memdomain.lifetime import recording_window
from memdomain.memory import CodeEntry, MemoryCode, MemoryRegistry
from memdomain.oscillator import (
    ModeIndex,
    SystemParams,
    closed_form_state,
    closed_form_trajectory,
    integrate_pair,
)

from _oracles import full_cli_parser

P = SystemParams(L=1.0, c=1.0)


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def write_spectrum(path, *triples):
    doc = {
        "components": [
            {"k": k, "n": n, "intensity": w} for k, n, w in triples
        ]
    }
    path.write_text(json.dumps(doc))
    return path


class TestBessel:
    def test_prints_one_value_per_line(self, capsys):
        assert main(["bessel", "--kind", "j", "--order", "2",
                     "--z", "0.5", "1.0", "5.0"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == [f"{sph_j(2, z):.17g}" for z in (0.5, 1.0, 5.0)]

    def test_second_kind(self, capsys):
        assert main(["bessel", "--kind", "y", "--order", "1", "--z", "2.0"]) == 0
        assert capsys.readouterr().out.strip() == f"{sph_y(1, 2.0):.17g}"

    def test_csv_output(self, tmp_path):
        out = tmp_path / "j.csv"
        assert main(["bessel", "--kind", "j", "--order", "0",
                     "--z", "1.0", "2.0", "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["z", "value"]
        assert [r[0] for r in rows] == ["1", "2"]
        assert float(rows[0][1]) == sph_j(0, 1.0)
        manifest = json.loads((tmp_path / "j.csv.manifest.json").read_text())
        assert manifest["command"] == "bessel"
        assert manifest["config"]["order"] == 0

    def test_tiny_argument(self, capsys):
        # z * z underflows to 0 here
        assert main(["bessel", "--kind", "j", "--order", "1", "--z", "1e-300"]) == 0
        value = float(capsys.readouterr().out)
        assert value == pytest.approx(1e-300 / 3, rel=1e-15)

    def test_second_kind_past_the_float_range(self, capsys):
        # y_1(1e-300) is about -1e600: z * z underflows to 0 and the value
        # passes the float range, which prints as -inf, not a crash (exit 1)
        assert main(["bessel", "--kind", "y", "--order", "1",
                     "--z", "1e-300"]) == 0
        assert main(["bessel", "--kind", "y", "--order", "4",
                     "--z", "1e-120"]) == 0
        assert capsys.readouterr().out.split() == ["-inf", "-inf"]

    @pytest.mark.parametrize("z", ["1e20", "1e308"])
    def test_first_kind_at_huge_z(self, capsys, z):
        # no z limit: the upward recurrence takes n steps at any finite z
        assert main(["bessel", "--kind", "j", "--order", "3", "--z", z]) == 0
        assert float(capsys.readouterr().out) == sph_j(3, float(z))

    def test_singular_point_is_validation_error(self, capsys):
        assert main(["bessel", "--kind", "y", "--order", "0", "--z", "0.0"]) == 2
        assert "singular" in capsys.readouterr().err

    def test_bad_kind_and_missing_option(self, capsys):
        assert main(["bessel", "--kind", "q", "--order", "0", "--z", "1"]) == 2
        assert main(["bessel", "--kind", "j", "--z", "1"]) == 2
        assert "--order" in capsys.readouterr().err

    def test_unknown_flag(self):
        assert main(["bessel", "--kind", "j", "--order", "0", "--z", "1",
                     "--frobnicate"]) == 2

    def test_unknown_command(self):
        assert main(["transmogrify"]) == 2


class TestEvolve:
    def _run(self, tmp_path, *extra):
        out = tmp_path / "traj.csv"
        code = main(["evolve", "--L", "1", "--k", "2", "--n", "1",
                     "--t-max", "3", "--points", "60", "--out", str(out),
                     "--no-timestamp", *extra])
        return code, out

    def test_closed_form_columns(self, tmp_path):
        code, out = self._run(tmp_path)
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["t", "u", "v", "r", "omega", "Omega"]
        assert len(rows) == 60
        assert float(rows[0][0]) == 0.0
        assert float(rows[-1][0]) == 3.0
        u0, _, v0, _ = closed_form_state(P, ModeIndex(k=2.0, n=1), 0.0)
        assert float(rows[0][1]) == pytest.approx(u0, rel=1e-15)
        assert float(rows[0][2]) == pytest.approx(v0, rel=1e-15)
        assert float(rows[0][4]) == 2.0
        assert float(rows[0][5]) == pytest.approx(math.sqrt(3.75), rel=1e-15)

    def test_pair_product_identity(self, tmp_path):
        _, out = self._run(tmp_path)
        for row in read_csv(out)[1]:
            u, v, r = (float(x) for x in row[1:4])
            assert u * v == pytest.approx(r * r / 2, abs=1e-14)

    def test_both_writes_sibling_and_deviation(self, tmp_path):
        code, out = self._run(tmp_path, "--method", "both")
        assert code == 0
        sibling = tmp_path / "traj.ode.csv"
        assert sibling.exists()
        assert read_csv(sibling)[0] == ["t", "u", "v", "r", "omega", "Omega"]
        manifest = json.loads((tmp_path / "traj.csv.manifest.json").read_text())
        assert manifest["results"]["max_abs_deviation"] < 1e-8
        assert sorted(manifest["outputs"]) == ["traj.csv", "traj.ode.csv"]

    def test_both_reports_line_deviations_and_solver_stats(self, tmp_path):
        assert self._run(tmp_path, "--method", "both")[0] == 0
        results = json.loads((tmp_path / "traj.csv.manifest.json").read_text())["results"]
        mode = ModeIndex(k=2.0, n=1)
        grid = np.linspace(0.0, 3.0, 60)
        closed = closed_form_trajectory(P, mode, grid)
        ode = integrate_pair(P, mode, closed_form_state(P, mode, 0.0), grid, 1e-10)
        rel = {
            name: float(np.max(np.abs(getattr(closed, name) - getattr(ode, name)))
                        / np.max(np.abs(getattr(closed, name))))
            for name in ("u", "v", "r")
        }
        assert results["max_rel_deviation"] == rel
        assert results["ode"] == ode.meta
        # a closed-form start: only v is integrated, u is derived from it
        assert sorted(results["ode"]) == ["rel_tol", "u", "v"]
        assert results["ode"]["u"] is None
        stats = results["ode"]["v"]
        # 1 + 12 per accepted and 11 per rejected step, as on the grid's ends
        # alone, and 2 more per step that holds one of the 58 times between
        ends = integrate_pair(P, mode, closed_form_state(P, mode, 0.0), [0.0, 3.0]).meta["v"]
        assert ends["nfev"] == 1 + 12 * ends["accepted"] + 11 * ends["rejected"]
        assert (ends["accepted"], ends["rejected"]) == (stats["accepted"], stats["rejected"])
        held, odd = divmod(stats["nfev"] - ends["nfev"], 2)
        assert odd == 0 and 0 < held <= min(stats["accepted"], 58)
        assert 0 < stats["h_min"] <= stats["h_max"] <= 3.0

    def test_both_large_mode_radius_deviation(self, tmp_path):
        # r taken from an integrated damped line deviated by 8.7e-3 here
        out = tmp_path / "big.csv"
        assert main(["evolve", "--L", "1", "--k", "55", "--n", "9", "--t-max", "30",
                     "--points", "500", "--method", "both", "--out", str(out),
                     "--no-timestamp"]) == 0
        results = json.loads((tmp_path / "big.csv.manifest.json").read_text())["results"]
        assert results["max_rel_deviation"]["r"] <= 1e-6

    def test_ode_method_alone(self, tmp_path):
        code, out = self._run(tmp_path, "--method", "ode")
        assert code == 0
        closed_rows = None
        _, rows = read_csv(out)
        assert len(rows) == 60

    def test_ode_span_below_the_step_floor(self, tmp_path):
        # the whole 1e-14 span is one landing step, not StepSizeUnderflow
        out = tmp_path / "x.csv"
        assert main(["evolve", "--L", "1", "--k", "2", "--n", "1", "--t-max", "1e-14",
                     "--points", "2", "--method", "ode", "--out", str(out)]) == 0
        assert [float(row[0]) for row in read_csv(out)[1]] == [0.0, 1e-14]

    def test_ode_phase_above_the_limit(self, tmp_path, capsys):
        # the phase of w over [0, 1e-3] is 9.995e5 rad, above the 1e5 the
        # integrator takes: refused before the first step, nothing written
        out = tmp_path / "x.csv"
        assert main(["evolve", "--L", "1", "--k", "1e9", "--n", "0", "--t-max", "1e-3",
                     "--points", "3", "--method", "ode", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "is 999500 rad" in err and "limit 100000" in err
        assert list(tmp_path.iterdir()) == []

    def test_ode_step_underflow_is_a_computation_error(self, tmp_path, capsys):
        # a phase of 100 rad over 1e-12: the first step falls below the floor
        out = tmp_path / "x.csv"
        assert main(["evolve", "--L", "1", "--k", "1e14", "--n", "0", "--t-max", "1e-12",
                     "--points", "3", "--method", "ode", "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "computation error: step 5.000e-15 below resolution floor at t = 0\n")
        assert list(tmp_path.iterdir()) == []

    def test_momentum_frequency_consistency(self, tmp_path, capsys):
        # a mode is named by --k alone and its frequency is c*k, so no
        # second spelling can contradict it: --omega0 is not an option
        out = tmp_path / "x.csv"
        assert main(["evolve", "--L", "1", "--omega0", "2", "--k", "3",
                     "--n", "1", "--t-max", "1", "--out", str(out)]) == 2
        assert "unrecognized arguments: --omega0 2" in capsys.readouterr().err
        assert not out.exists()
        assert main(["evolve", "--L", "1", "--k", "2",
                     "--n", "1", "--t-max", "1", "--out", str(out)]) == 0

    def test_momentum_required(self, tmp_path):
        assert main(["evolve", "--L", "1", "--n", "1", "--t-max", "1",
                     "--out", str(tmp_path / "x.csv")]) == 2

    def test_window_guard(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        window = recording_window(P, ModeIndex(k=2.0, n=1))
        assert main(["evolve", "--L", "1", "--k", "2", "--n", "1",
                     "--t-max", "5", "--out", str(out)]) == 2
        assert f"{window:.12g}"[:8] in capsys.readouterr().err
        assert main(["evolve", "--L", "1", "--k", "0.4", "--n", "1",
                     "--t-max", "1", "--out", str(out)]) == 2

    @pytest.mark.parametrize(
        "extra",
        [("--t-max", "-1"), ("--t-max", "nan"), ("--points", "1"),
         ("--rel-tol", "1"), ("--rel-tol", "nan")],
    )
    def test_range_validation(self, tmp_path, extra):
        args = ["evolve", "--L", "1", "--k", "2", "--n", "1",
                "--t-max", "1", "--out", str(tmp_path / "x.csv")]
        i = args.index(extra[0]) if extra[0] in args else None
        if i is not None:
            args[i + 1] = extra[1]
        else:
            args += list(extra)
        assert main(args) == 2

    def test_past_the_float_range_inside_the_window(self, tmp_path, capsys):
        # T = 401 ln 400 = 2402.6, but e^(Lt/2) overflows from t = 1419.6
        out = tmp_path / "x.csv"
        assert main(["evolve", "--L", "1", "--k", "200", "--n", "200", "--t-max", "1500",
                     "--points", "3", "--out", str(out)]) == 2
        assert "float range for t in [0, 1500]" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_determinism(self, tmp_path):
        _, out = self._run(tmp_path)
        manifest = tmp_path / "traj.csv.manifest.json"
        csv_first, man_first = out.read_bytes(), manifest.read_bytes()
        self._run(tmp_path)
        assert out.read_bytes() == csv_first
        assert manifest.read_bytes() == man_first


class TestGoldenBytes:
    """Output digests pinned from earlier implementations, so a last-digit
    change in any closed-form, integrated, lifetime or squeeze value fails
    here. Manifests are pinned too; they name the outputs relative to the
    working directory, so those runs write into it."""

    EVOLVE_SHA256 = "b93f773dc31a44f01be8e6ae7e929ae506ce6adba335006179626e7dc79d0ab7"
    FIGURES_SHA256 = {
        "fig1.csv": "944619a363f047ae4ff62cc6608dc55e0123b63df911c59fef4f6236146bdfe4",
        "fig2.csv": "937e217980b6dbeb5c13d0681ca75357508feeade19a520c3bda48071f074ea9",
        "fig3.csv": "3798e99496dacae7d5cce83daa96823029e9a8eab5ba01f015fd5e3bad64474f",
        "fig4.csv": "9daa0e79db42331bc653a4bb232f517d714b03f9265fddd60d66b3e16490ca2b",
    }

    EVOLVE_BOTH_SHA256 = {
        "traj.csv": EVOLVE_SHA256,
        "traj.csv.manifest.json":
            "ae093bf5e7cab728d862a5c033defc9adedbf2f304a5db02c642249aa015f996",
        "traj.ode.csv": "b5c49691ad8faf1343eaabb5559e0ca9cbb44f4a034701335e111f76acea246e",
    }
    SQUEEZE_SHA256 = {
        "state.json": "a65f7d326e639708e1a9cf2ce285be39adca1f3e5dee742b7dc59967f481a4af",
        "state.json.manifest.json":
            "98363dedd8db42cc990807735c4f6e2a66fc46b77a4e24b19cde9e9dff8c137d",
    }

    @staticmethod
    def _sha256(path):
        return hashlib.sha256(path.read_bytes()).hexdigest()

    def _digests(self, directory):
        return {p.name: self._sha256(p) for p in sorted(directory.iterdir())}

    def test_evolve_closed_form(self, tmp_path):
        out = tmp_path / "traj.csv"
        assert main(["evolve", "--L", "1", "--k", "55", "--n", "9", "--t-max", "30",
                     "--method", "closed", "--no-timestamp", "--out", str(out)]) == 0
        assert self._sha256(out) == self.EVOLVE_SHA256

    def test_evolve_both(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["evolve", "--L", "1", "--k", "55", "--n", "9", "--t-max", "30",
                     "--points", "500", "--method", "both", "--no-timestamp",
                     "--out", "traj.csv"]) == 0
        assert self._digests(tmp_path) == self.EVOLVE_BOTH_SHA256

    def test_squeeze(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["squeeze", "--gamma", "0.5", "--t", "2", "--no-timestamp",
                     "--out", "state.json"]) == 0
        assert self._digests(tmp_path) == self.SQUEEZE_SHA256

    def test_figures_all(self, tmp_path):
        assert main(["figures", "--which", "all", "--no-timestamp",
                     "--out", str(tmp_path)]) == 0
        digests = {p.name: self._sha256(p) for p in sorted(tmp_path.glob("*.csv"))}
        assert digests == self.FIGURES_SHA256


class TestLifetimes:
    def test_stdout_table(self, capsys):
        assert main(["lifetimes", "--L", "1", "--k", "2", "--n", "1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "k,n,window,lambda,threshold,domain"
        cells = lines[1].split(",")
        assert cells[:2] == ["2", "1"]
        assert float(cells[2]) == pytest.approx(3 * math.log(4), rel=1e-15)
        assert float(cells[3]) == 0.0
        assert float(cells[4]) == 0.5
        assert float(cells[5]) == pytest.approx(4 * math.pi, rel=1e-15)

    def test_file_output_with_manifest(self, tmp_path):
        out = tmp_path / "life.csv"
        assert main(["lifetimes", "--L", "1", "--k", "2", "6", "--n", "1", "2",
                     "--t", "0.5", "--out", str(out), "--no-timestamp"]) == 0
        header, rows = read_csv(out)
        assert [(r[0], r[1]) for r in rows] == [
            ("2", "1"), ("2", "2"), ("6", "1"), ("6", "2")
        ]
        assert (tmp_path / "life.csv.manifest.json").exists()

    def test_never_recordable_explained(self, capsys):
        assert main(["lifetimes", "--L", "1", "--n", "1", "--k", "0.4"]) == 2
        assert "never" in capsys.readouterr().err

    def test_underflowed_lambda(self, capsys):
        # exp(-2 Lambda) ~ e^-1000 is below the floats; Lambda is ~500
        assert main(["lifetimes", "--L", "1", "--k", "1e307", "--n", "0",
                     "--t", "500"]) == 0
        cells = capsys.readouterr().out.splitlines()[1].split(",")
        assert float(cells[3]) == pytest.approx(500.0, rel=1e-12)

    def test_mode_dead_at_requested_time(self):
        assert main(["lifetimes", "--L", "1", "--k", "2", "--n", "1",
                     "--t", "9"]) == 2

    @pytest.mark.parametrize("L,k", [("5e-324", "2"), ("1", "1e308")])
    def test_parameters_past_the_float_range(self, capsys, L, k):
        # k0 = L/2 underflows to 0; 2 c k / L overflows
        assert main(["lifetimes", "--L", L, "--k", k, "--n", "1", "--t", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")

    def test_duplicate_momenta_deduped(self, capsys):
        assert main(["lifetimes", "--L", "1", "--k", "2", "2", "--n", "1"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 2


class TestFigures:
    def test_fig1_defaults(self, tmp_path):
        out = tmp_path / "figs"
        assert main(["figures", "--which", "fig1", "--out", str(out),
                     "--points", "50", "--no-timestamp"]) == 0
        header, rows = read_csv(out / "fig1.csv")
        assert header == ["curve_id", "t", "lambda"]
        ids = sorted({r[0] for r in rows})
        assert ids == ["k0.6_n1", "k0.8_n1", "k6_n1", "k8_n1"]
        spec = json.loads((out / "fig1.spec.json").read_text())
        assert spec["figure"] == "fig1"
        assert spec["points"] == 50
        assert spec["ceiling"] == 10.0
        assert spec["modes"] == [[0.6, 1], [0.8, 1], [6.0, 1], [8.0, 1]]
        manifest = json.loads((out / "manifest.json").read_text())
        assert sorted(manifest["outputs"]) == ["fig1.csv", "fig1.spec.json"]

    def test_curves_end_at_their_window(self, tmp_path):
        # the blow-up abscissa of each curve is its own window end, within
        # grid resolution
        points = 200
        out = tmp_path / "figs"
        main(["figures", "--which", "fig1", "--out", str(out),
              "--points", str(points), "--no-timestamp"])
        _, rows = read_csv(out / "fig1.csv")
        last_t = {}
        for cid, t, _ in rows:
            last_t[cid] = float(t)
        modes = {"k0.6_n1": 0.6, "k0.8_n1": 0.8, "k6_n1": 6.0, "k8_n1": 8.0}
        for cid, k in modes.items():
            window = recording_window(P, ModeIndex(k=k, n=1))
            assert window * (1 - 2 / points) <= last_t[cid] < window

    def test_all_expands(self, tmp_path):
        out = tmp_path / "figs"
        assert main(["figures", "--which", "all", "--out", str(out),
                     "--points", "20", "--no-timestamp"]) == 0
        names = sorted(p.name for p in out.iterdir())
        assert names == [
            "fig1.csv", "fig1.spec.json", "fig2.csv", "fig2.spec.json",
            "fig3.csv", "fig3.spec.json", "fig4.csv", "fig4.spec.json",
            "manifest.json",
        ]

    def test_damping_override_can_kill_modes(self, tmp_path):
        assert main(["figures", "--which", "fig1", "--out",
                     str(tmp_path / "f"), "--L", "20"]) == 2

    @pytest.mark.parametrize("extra", [
        # --ordinate-scale is gone, so any value of it is an unknown argument
        ("--ordinate-scale", "nan", "unrecognized arguments: --ordinate-scale=nan"),
        ("--ordinate-scale", "inf", "unrecognized arguments: --ordinate-scale=inf"),
        ("--ordinate-scale", "-inf", "unrecognized arguments: --ordinate-scale=-inf"),
        ("--ceiling", "nan", "--ceiling must be finite or inf, got nan"),
        ("--ceiling", "-inf", "--ceiling must be finite or inf, got -inf"),
    ])
    def test_non_numeric_scale_or_ceiling_refused(self, tmp_path, capsys, extra):
        flag, value, message = extra
        out = tmp_path / "figs"
        assert main(["figures", "--which", "fig1", "--out", str(out),
                     "--points", "20", f"{flag}={value}"]) == 2
        assert message in capsys.readouterr().err
        assert not list(tmp_path.rglob("*.csv"))

    def test_infinite_ceiling_means_none(self, tmp_path):
        out = tmp_path / "figs"
        assert main(["figures", "--which", "fig1", "--out", str(out),
                     "--points", "20", "--ceiling", "inf", "--no-timestamp"]) == 0
        assert json.loads((out / "fig1.spec.json").read_text())["ceiling"] == math.inf

    def test_out_collision(self, tmp_path):
        stray = tmp_path / "occupied"
        stray.write_text("not a directory")
        assert main(["figures", "--which", "fig1", "--out", str(stray)]) == 2

    def test_determinism(self, tmp_path):
        args = ["figures", "--which", "fig2", "--out", str(tmp_path / "f"),
                "--points", "25", "--no-timestamp"]
        main(args)
        first = {
            name: (tmp_path / "f" / name).read_bytes()
            for name in ("fig2.csv", "fig2.spec.json", "manifest.json")
        }
        main(args)
        for name, data in first.items():
            assert (tmp_path / "f" / name).read_bytes() == data


class TestSqueeze:
    def _squeeze(self, tmp_path, *extra):
        """(exit code, output document, manifest) of a squeeze into tmp_path."""
        out = tmp_path / "sq.json"
        code = main(["squeeze", *extra, "--out", str(out), "--no-timestamp"])
        if code:
            return code, None, None
        manifest = tmp_path / "sq.json.manifest.json"
        return code, json.loads(out.read_text()), json.loads(manifest.read_text())

    def test_default_cutoff_and_observables(self, tmp_path):
        code, doc, manifest = self._squeeze(tmp_path, "--gamma", "0.5", "--t", "2")
        assert code == 0
        assert doc["cutoff"] == 51
        assert doc["gamma_t"] == 1.0
        assert len(doc["coefficients"]) == 52
        assert doc["coefficients"][0] == pytest.approx(1 / math.cosh(1.0), rel=1e-14)
        assert doc["occupation"] == pytest.approx(math.sinh(1.0) ** 2, abs=1e-10)
        assert abs(doc["normalization"] - 1.0) <= 1e-12
        assert "oracle_max_deviation" not in doc and "oracle_cutoff" not in doc
        # the applied cutoff is a result, not a setting
        assert "cutoff" not in manifest["config"]
        assert manifest["results"] == {"cutoff": 51}

    def test_oracle_deviation_reported(self, tmp_path):
        code, doc, manifest = self._squeeze(tmp_path, "--gamma", "0.5", "--t", "2",
                                            "--oracle")
        assert code == 0
        # the oracle runs at 1.5 times the cutoff, so its own truncation
        # stays far below the deviation over the first 52 coefficients
        assert doc["oracle_cutoff"] == 77
        assert 0.0 < doc["oracle_max_deviation"] < 1e-12
        assert manifest["results"] == {"cutoff": 51, "oracle_cutoff": 77}

    @pytest.mark.parametrize("gamma_t", [0.01, 0.3, 1.0, 1.8, 2.1, 2.15, 2.152, 2.29])
    def test_padded_oracle_agrees_to_round_off(self, tmp_path, gamma_t):
        # at the closed form's own cutoff the two routes agreed only to the
        # truncated dynamics' error (2.25e-7 at gamma t = 2.1); 2.152 is the
        # last gamma t an unpadded oracle under a 512 limit served, 2.29
        # needs a padded cutoff of 1011
        code, doc, _ = self._squeeze(tmp_path, "--gamma", "1", "--t", repr(gamma_t),
                                     "--oracle")
        assert code == 0
        assert doc["oracle_cutoff"] == math.ceil(1.5 * doc["cutoff"])
        assert doc["oracle_max_deviation"] <= 1e-12

    def test_oracle_at_a_small_cutoff(self, tmp_path):
        # the smallest default cutoff, 8, pads to 12
        code, doc, _ = self._squeeze(tmp_path, "--gamma", "0.001", "--t", "1",
                                     "--oracle")
        assert code == 0
        assert (doc["cutoff"], doc["oracle_cutoff"]) == (8, 12)
        assert 0.0 <= doc["oracle_max_deviation"] < 1e-14

    def test_cutoff_is_not_an_option(self, tmp_path, capsys):
        # the cutoff follows from gamma t; neither a flag nor a config key sets it
        out = tmp_path / "x.json"
        assert main(["squeeze", "--gamma", "0.5", "--t", "2", "--cutoff", "100",
                     "--out", str(out)]) == 2
        assert "unrecognized arguments: --cutoff 100" in capsys.readouterr().err
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[squeeze]\ncutoff = 100\n")
        assert main(["squeeze", "--config", str(cfg), "--gamma", "0.5", "--t", "2",
                     "--out", str(out)]) == 2
        assert "unknown key 'cutoff' in config section [squeeze]" in capsys.readouterr().err
        assert not out.exists()
        assert all(opt.name != "cutoff" for opt in _COMMANDS["squeeze"])

    def test_clamped_default_cutoff_names_real_requirement(self, tmp_path, capsys):
        # the default cutoff is the full tail requirement up to the 1e5
        # limit: tanh(4) needs 20592 levels and gets them, tanh(5) needs
        # 152154 and is refused with that number, before anything is written
        out = tmp_path / "x.json"
        assert main(["squeeze", "--gamma", "1", "--t", "4", "--out", str(out),
                     "--no-timestamp"]) == 0
        assert json.loads(out.read_text())["cutoff"] == 20592
        refused = tmp_path / "refused"
        assert main(["squeeze", "--gamma", "1", "--t", "5",
                     "--out", str(refused / "y.json")]) == 2
        assert "needs cutoff 152154" in capsys.readouterr().err
        assert not refused.exists()

    def test_saturated_squeeze_is_validation_error(self, tmp_path, capsys):
        assert main(["squeeze", "--gamma", "20", "--t", "1",
                     "--out", str(tmp_path / "x.json")]) == 2
        assert "rounds to 1" in capsys.readouterr().err

    def test_negative_time(self, tmp_path):
        assert main(["squeeze", "--gamma", "0.5", "--t", "-1",
                     "--out", str(tmp_path / "x.json")]) == 2

    @pytest.mark.parametrize("extra,limit", [
        (("--t", "5"), "100000"), (("--t", "2.3", "--oracle"), "1024"),
    ])
    def test_cutoff_above_its_limit(self, tmp_path, capsys, extra, limit):
        # refused before the coefficients or the paired block are allocated;
        # past gamma t = 2.296 the oracle's padded cutoff is above the block
        # limit, and the message names gamma t and both cutoffs
        assert main(["squeeze", "--gamma", "1", *extra,
                     "--out", str(tmp_path / "x.json")]) == 2
        assert capsys.readouterr().err == {
            "100000": "error: gamma_t = 5 needs cutoff 152154 to keep the tail below "
                      "1e-12, above the limit 100000\n",
            "1024": "error: --oracle at gamma t = 2.3 pads the cutoff 688 to 1032: "
                    "cutoff must be in [1, 1024], got 1032\n",
        }[limit]
        assert list(tmp_path.iterdir()) == []


class TestRegistryFlow:
    def _record(self, tmp_path, *, t="1", name="reg.json"):
        reg = tmp_path / name
        spec = write_spectrum(
            tmp_path / "stim.json", (2.0, 1, 1.0), (6.0, 1, 2.0), (0.4, 1, 1.0)
        )
        code = main(["record", "--registry", str(reg), "--spectrum", str(spec),
                     "--t", t, "--L", "1", "--no-timestamp"])
        return code, reg

    def test_record_creates_registry(self, tmp_path, capsys):
        code, reg = self._record(tmp_path)
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["code"] == "code000001"
        (rej,) = report["rejections"]
        assert rej["reason"] == "BelowThreshold"
        assert rej["k"] == 0.4
        loaded = MemoryRegistry.load(reg)
        assert sorted(loaded.codes["code000001"].entries) == [2.0, 6.0]
        manifest = json.loads((tmp_path / "reg.json.manifest.json").read_text())
        assert "stim.json" in " ".join(manifest["inputs"])
        assert manifest["outputs"] == {
            "reg.json": "sha256:" + hashlib.sha256(reg.read_bytes()).hexdigest()
        }

    def test_record_all_rejected_is_refusal_not_crash(self, tmp_path, capsys):
        reg = tmp_path / "reg.json"
        spec = write_spectrum(tmp_path / "stim.json", (0.4, 1, 1.0))
        assert main(["record", "--registry", str(reg), "--spectrum", str(spec),
                     "--t", "0", "--L", "1", "--no-timestamp"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["code"] is None
        assert MemoryRegistry.load(reg).codes == {}

    def test_recall_outcomes(self, tmp_path, capsys):
        _, reg = self._record(tmp_path)
        capsys.readouterr()
        sig = write_spectrum(tmp_path / "sig.json", (2.0, 1, 1.0), (6.0, 1, 2.0))
        base = ["recall", "--registry", str(reg), "--signal", str(sig),
                "--t", "1", "--L", "1"]
        assert main(base + ["--energy", "5"]) == 0
        assert json.loads(capsys.readouterr().out)["outcome"] == "Recalled"
        assert main(base + ["--energy", "0"]) == 0
        assert json.loads(capsys.readouterr().out)["outcome"] == (
            "DifficultyRecalling"
        )
        orthogonal = write_spectrum(tmp_path / "orth.json", (3.0, 1, 1.0))
        assert main(["recall", "--registry", str(reg), "--signal",
                     str(orthogonal), "--t", "1", "--L", "1",
                     "--energy", "5"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc == {"matched": None, "outcome": "NoMatch", "score": 0.0}

    def test_recall_auto_decays_view_only(self, tmp_path, capsys):
        _, reg = self._record(tmp_path)
        capsys.readouterr()
        before = reg.read_bytes()
        sig = write_spectrum(tmp_path / "sig.json", (6.0, 1, 2.0))
        assert main(["recall", "--registry", str(reg), "--signal", str(sig),
                     "--t", "5", "--L", "1", "--energy", "9"]) == 0
        # at t=5 the k=2 entry is dead, so the degraded remnant is the match
        doc = json.loads(capsys.readouterr().out)
        assert doc["outcome"] == "Recalled"
        assert doc["matched"] == "code000001"
        assert reg.read_bytes() == before

    def test_recall_result_file(self, tmp_path, capsys):
        _, reg = self._record(tmp_path)
        capsys.readouterr()
        sig = write_spectrum(tmp_path / "sig.json", (2.0, 1, 1.0), (6.0, 1, 2.0))
        out = tmp_path / "res.json"
        assert main(["recall", "--registry", str(reg), "--signal", str(sig),
                     "--t", "1", "--L", "1", "--energy", "5",
                     "--out", str(out), "--no-timestamp"]) == 0
        assert json.loads(out.read_text()) == json.loads(capsys.readouterr().out)
        assert (tmp_path / "res.json.manifest.json").exists()

    def test_recall_behind_registry_clock(self, tmp_path, capsys):
        _, reg = self._record(tmp_path)
        main(["forget-sweep", "--registry", str(reg), "--t", "2", "--L", "1",
              "--no-timestamp"])
        sig = write_spectrum(tmp_path / "sig.json", (2.0, 1, 1.0))
        base = ["recall", "--registry", str(reg), "--signal", str(sig),
                "--L", "1", "--energy", "5"]
        assert main(base + ["--t", "1"]) == 2
        assert "behind the registry clock" in capsys.readouterr().err
        # at the clock's own time the decay is a no-op
        assert main(base + ["--t", "2"]) == 0

    def test_recall_missing_registry(self, tmp_path):
        sig = write_spectrum(tmp_path / "sig.json", (2.0, 1, 1.0))
        assert main(["recall", "--registry", str(tmp_path / "none.json"),
                     "--signal", str(sig), "--t", "1", "--L", "1",
                     "--energy", "5"]) == 2

    def test_forget_sweep_missing_registry(self, tmp_path, capsys):
        # refused before the lock file is made: nothing is left behind
        assert main(["forget-sweep", "--registry", str(tmp_path / "none.json"),
                     "--t", "1", "--L", "1"]) == 2
        assert "registry file not found" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_forget_sweep(self, tmp_path, capsys):
        _, reg = self._record(tmp_path)
        capsys.readouterr()
        assert main(["forget-sweep", "--registry", str(reg), "--t", "5",
                     "--L", "1", "--no-timestamp"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report == {
            "codes": 1, "degraded": 1, "forgotten": 0, "intact": 0, "t": 5.0
        }
        first = reg.read_bytes()
        assert main(["forget-sweep", "--registry", str(reg), "--t", "5",
                     "--L", "1", "--no-timestamp"]) == 0
        assert reg.read_bytes() == first
        loaded = MemoryRegistry.load(reg)
        assert loaded.last_decay_t == 5.0

    def test_sweep_backwards_in_time(self, tmp_path):
        _, reg = self._record(tmp_path)
        main(["forget-sweep", "--registry", str(reg), "--t", "5", "--L", "1",
              "--no-timestamp"])
        assert main(["forget-sweep", "--registry", str(reg), "--t", "1",
                     "--L", "1", "--no-timestamp"]) == 2

    def test_record_after_sweep_respects_clock(self, tmp_path):
        _, reg = self._record(tmp_path)
        main(["forget-sweep", "--registry", str(reg), "--t", "2", "--L", "1",
              "--no-timestamp"])
        spec = write_spectrum(tmp_path / "late.json", (6.0, 1, 1.0))
        assert main(["record", "--registry", str(reg), "--spectrum", str(spec),
                     "--t", "1", "--L", "1", "--no-timestamp"]) == 2
        assert main(["record", "--registry", str(reg), "--spectrum", str(spec),
                     "--t", "3", "--L", "1", "--no-timestamp"]) == 0

    def test_malformed_spectrum(self, tmp_path):
        reg = tmp_path / "reg.json"
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["record", "--registry", str(reg), "--spectrum", str(bad),
                     "--t", "1", "--L", "1"]) == 2
        bad.write_text(json.dumps({"components": [{"k": 1.0}]}))
        assert main(["record", "--registry", str(reg), "--spectrum", str(bad),
                     "--t", "1", "--L", "1"]) == 2


    def test_spectrum_components_not_a_list(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"components": 5}))
        assert main(["record", "--registry", str(tmp_path / "reg.json"),
                     "--spectrum", str(bad), "--t", "1", "--L", "1"]) == 2
        assert "components" in capsys.readouterr().err

    # valid JSON of the wrong shape, one level down each
    @pytest.mark.parametrize("codes", [
        [],
        {"code000001": {"status": "Intact", "entries": {"2.0": 5}}},
        {"code000001": {"status": "Intact", "entries": []}},
    ])
    def test_malformed_registry(self, tmp_path, capsys, codes):
        reg = tmp_path / "reg.json"
        reg.write_text(json.dumps(
            {"schema": 1, "last_decay_t": 0.0, "next_id": 2, "codes": codes}))
        spec = write_spectrum(tmp_path / "stim.json", (2.0, 1, 1.0))
        assert main(["recall", "--registry", str(reg), "--signal", str(spec),
                     "--t", "1", "--L", "1", "--energy", "5"]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("name,key", [("registry", "code000001"), ("spectrum", "k")])
    def test_duplicate_json_key_keeps_the_file(self, tmp_path, capsys, name, key):
        # json.loads keeps the last value of a key given twice, so a code or
        # a component's momentum would be replaced without a word
        code = '"code000001": {"status": "Intact", "entries": ' \
               '{"2.0": {"weight": 1.0, "n": 1, "t_rec": 0.0}}}'
        texts = {
            "registry": f'{{"schema": 1, "last_decay_t": 0.0, "next_id": 2, "codes": {{{code}}}}}',
            "spectrum": '{"components": [{"k": 6.0, "n": 1, "intensity": 1.0}]}',
        }
        texts[name] = {
            "registry": texts["registry"].replace(code, f"{code}, {code}"),
            "spectrum": '{"components": [{"k": 6.0, "n": 1, "intensity": 1.0, "k": 2.0}]}',
        }[name]
        for which, text in texts.items():
            (tmp_path / f"{which}.json").write_text(text)
        assert main(["record", "--registry", str(tmp_path / "registry.json"),
                     "--spectrum", str(tmp_path / "spectrum.json"),
                     "--t", "0.5", "--L", "1"]) == 2
        assert capsys.readouterr().err == f"error: JSON object names key '{key}' twice\n"
        assert {which: (tmp_path / f"{which}.json").read_text() for which in texts} == texts
        assert not (tmp_path / "registry.json.manifest.json").exists()

    def test_two_keys_for_one_momentum_keep_the_file(self, tmp_path, capsys):
        # loading kept the last of "2" and "2.0", and record then rewrote the
        # file without the other entry
        entry = {"weight": 1.0, "n": 1, "t_rec": 0.0}
        reg = tmp_path / "reg.json"
        reg.write_text(json.dumps({"schema": 1, "last_decay_t": 0.0, "next_id": 2, "codes": {
            "code000001": {"status": "Intact", "entries": {"2": entry, "2.0": entry}}}}))
        before = reg.read_bytes()
        spec = write_spectrum(tmp_path / "stim.json", (6.0, 1, 1.0))
        assert main(["record", "--registry", str(reg), "--spectrum", str(spec),
                     "--t", "0.5", "--L", "1"]) == 2
        assert "code000001 entry key '2.0' names momentum 2.0 twice" in capsys.readouterr().err
        assert reg.read_bytes() == before


class TestConfig:
    def test_config_supplies_and_cli_overrides(self, tmp_path):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(
            "[memdomain]\nL = 1\nno-timestamp = true\n"
            "[evolve]\nk = 2\nn = 1\nt-max = 2.0\npoints = 20\n"
        )
        out = tmp_path / "a.csv"
        assert main(["evolve", "--config", str(cfg), "--out", str(out)]) == 0
        assert len(read_csv(out)[1]) == 20
        manifest = json.loads((tmp_path / "a.csv.manifest.json").read_text())
        assert "timestamp" not in manifest
        out2 = tmp_path / "b.csv"
        assert main(["evolve", "--config", str(cfg), "--out", str(out2),
                     "--points", "30"]) == 0
        assert len(read_csv(out2)[1]) == 30

    def test_config_read_once(self, tmp_path, monkeypatch):
        # the bytes parsed are the bytes the manifest digests: one read
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[memdomain]\nL = 1\n[lifetimes]\nk = 2\nn = 1\n")
        reads = []

        def counted(read):
            def wrapper(file, *args, **kwargs):
                if str(file) == str(cfg):
                    reads.append(read)
                return read(file, *args, **kwargs)
            return wrapper

        monkeypatch.setattr(builtins, "open", counted(builtins.open))
        monkeypatch.setattr(Path, "read_bytes", counted(Path.read_bytes))
        out = tmp_path / "life.csv"
        assert main(["lifetimes", "--config", str(cfg), "--out", str(out)]) == 0
        assert len(reads) == 1
        manifest = json.loads((tmp_path / "life.csv.manifest.json").read_text())
        digest = hashlib.sha256(cfg.read_bytes()).hexdigest()
        assert manifest["inputs"] == {str(cfg): "sha256:" + digest}

    def test_command_section_beats_global(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[memdomain]\nL = 2\n[lifetimes]\nL = 1\n")
        assert main(["lifetimes", "--config", str(cfg), "--k", "2",
                     "--n", "1"]) == 0
        row = capsys.readouterr().out.splitlines()[1].split(",")
        assert float(row[2]) == pytest.approx(3 * math.log(4), rel=1e-15)

    def test_multi_valued_keys(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[lifetimes]\nL = 1\nk = 2, 6\nn = 1 2\n")
        assert main(["lifetimes", "--config", str(cfg)]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 5

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[evolve]\ntmax = 2\n")
        assert main(["evolve", "--config", str(cfg), "--L", "1", "--k",
                     "2", "--n", "1", "--t-max", "1",
                     "--out", str(tmp_path / "x.csv")]) == 2
        assert "tmax" in capsys.readouterr().err

    def test_seed_is_unknown(self, tmp_path, capsys):
        # seed seeded nothing and is gone, as a flag and as a config key
        args = ["lifetimes", "--L", "1", "--k", "2", "--n", "1"]
        assert main([*args, "--seed", "7"]) == 2
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[memdomain]\nseed = 7\n")
        assert main([*args, "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments: --seed 7" in err
        assert "unknown key 'seed' in config section [memdomain]" in err

    @pytest.mark.parametrize("command,key,args", [
        ("evolve", "omega0", ["--L", "1", "--k", "2", "--n", "1", "--t-max", "1",
                              "--out", "x.csv"]),
        ("lifetimes", "omega0", ["--L", "1", "--k", "2", "--n", "1"]),
        ("figures", "ordinate-scale", ["--which", "fig1", "--points", "20",
                                       "--out", "figs"]),
    ])
    def test_removed_options_are_unknown(self, tmp_path, monkeypatch, capsys,
                                         command, key, args):
        # --omega0 spelled k a second way and --ordinate-scale multiplied
        # Lambda under a header that names Lambda; both are gone, as flags
        # and as config keys
        monkeypatch.chdir(tmp_path)
        assert main([command, *args, f"--{key}", "2"]) == 2
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(f"[{command}]\n{key} = 2\n")
        assert main([command, *args, "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert f"unrecognized arguments: --{key} 2" in err
        assert f"unknown key '{key}' in config section [{command}]" in err
        assert list(tmp_path.iterdir()) == [cfg]

    def test_unknown_section_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[evolv]\npoints = 3\n")
        assert main(["evolve", "--config", str(cfg), "--L", "1", "--k",
                     "2", "--n", "1", "--t-max", "1",
                     "--out", str(tmp_path / "x.csv")]) == 2
        assert "evolv" in capsys.readouterr().err

    def test_global_key_must_be_global(self, tmp_path):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[memdomain]\npoints = 20\n")
        assert main(["evolve", "--config", str(cfg), "--L", "1", "--k",
                     "2", "--n", "1", "--t-max", "1",
                     "--out", str(tmp_path / "x.csv")]) == 2

    def test_missing_config_file(self, tmp_path):
        assert main(["lifetimes", "--config", str(tmp_path / "none.ini"),
                     "--L", "1", "--k", "2", "--n", "1"]) == 2

    def test_default_section_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[DEFAULT]\nL = 1\n[lifetimes]\nk = 2\nn = 1\n")
        assert main(["lifetimes", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("section,key,value", [
        ("evolve", "t-max", "nan"),
        ("evolve", "points", "1"),
        ("evolve", "method", "euler"),
        ("figures", "ceiling", "nan"),
        ("figures", "which", "fig1 fig9"),
        ("squeeze", "t", "-1"),
    ])
    def test_config_value_outside_its_range(self, tmp_path, capsys, section, key, value):
        # the option table's range applies to config values as to flags
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(f"[{section}]\n{key} = {value}\n")
        flags = {
            "evolve": {"L": "1", "k": "2", "n": "1", "t-max": "1"},
            "figures": {"which": "fig1"},
            "squeeze": {"gamma": "0.5", "t": "1"},
        }[section]
        args = [x for name, val in flags.items() if name != key
                for x in (f"--{name}", val)]
        out = tmp_path / "out"
        assert main([section, "--config", str(cfg), "--out", str(out), *args]) == 2
        assert f"--{key} must be" in capsys.readouterr().err
        assert not out.exists()

    def test_no_section_header(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("L = 1\n")
        assert main(["lifetimes", "--config", str(cfg), "--k", "2", "--n", "1"]) == 2
        assert "File contains no section headers" in capsys.readouterr().err

    def test_false_boolean(self, tmp_path):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[memdomain]\nno-timestamp = off\n")
        out = tmp_path / "x.csv"
        assert main(["lifetimes", "--config", str(cfg), "--L", "1", "--k", "2",
                     "--n", "1", "--out", str(out)]) == 0
        manifest = json.loads((tmp_path / "x.csv.manifest.json").read_text())
        assert manifest["config"]["no-timestamp"] is False
        assert "timestamp" in manifest

    def test_empty_list(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[lifetimes]\nk = ,\n")
        assert main(["lifetimes", "--config", str(cfg), "--L", "1", "--n", "1"]) == 2
        assert "config key 'k': empty list" in capsys.readouterr().err

    def test_bad_boolean(self, tmp_path):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[memdomain]\nno-timestamp = maybe\n")
        assert main(["lifetimes", "--config", str(cfg), "--L", "1",
                     "--k", "2", "--n", "1"]) == 2


def _tree(root):
    """Every path under root, with a file's bytes (None for a directory)."""
    return {
        str(p.relative_to(root)): p.read_bytes() if p.is_file() else None
        for p in root.rglob("*")
    }


_FIGURES_ALL = ["figures", "--which", "all", "--points", "20", "--out", "d"]
_RECALL = ["recall", "--registry", "reg.json", "--signal", "stim.json", "--t", "1",
           "--L", "1", "--energy", "5", "--out", "o.json"]

# (argv, the destination made a directory first; None: the computation fails)
_REFUSALS = [
    *((["bessel", "--kind", "j", "--order", "1", "--z", "1", "--out", "b.csv"], taken)
      for taken in ("b.csv", "b.csv.manifest.json")),
    *((["evolve", "--L", "1", "--k", "2", "--n", "1", "--t-max", "1", "--points", "20",
        "--method", "both", "--out", "traj.csv"], taken)
      for taken in ("traj.csv", "traj.ode.csv", "traj.csv.manifest.json")),
    *((["lifetimes", "--L", "1", "--k", "2", "--n", "1", "--out", "l.csv"], taken)
      for taken in ("l.csv", "l.csv.manifest.json")),
    *((_FIGURES_ALL, f"d/{fig}{ext}")
      for fig in ("fig1", "fig2", "fig3", "fig4") for ext in (".csv", ".spec.json")),
    (_FIGURES_ALL, "d/manifest.json"),
    # fig3's k = 0.55 mode has a degenerate window at L = 1.1
    (["figures", "--which", "all", "--L", "1.1", "--points", "50", "--out", "d"], None),
    *((["squeeze", "--gamma", "0.5", "--t", "1", "--out", "sq.json"], taken)
      for taken in ("sq.json", "sq.json.manifest.json")),
    (["record", "--registry", "new.json", "--spectrum", "stim.json", "--t", "1",
      "--L", "1"], "new.json"),
    (["forget-sweep", "--registry", "new.json", "--t", "1", "--L", "1"], "new.json"),
    *((_RECALL, taken) for taken in ("o.json", "o.json.manifest.json")),
]


def _recall_to(out, signal="stim.json", *extra):
    return ["recall", "--registry", "reg.json", "--signal", signal, "--t", "1",
            "--L", "1", "--energy", "5", "--out", out, *extra]


# argv naming an input again as a destination; config files hold an empty
# [memdomain] section, spectra the stimulus of stim.json, and link.json is a
# symlink to reg.json
_OVERWRITES = {
    "recall-out-registry": _recall_to("reg.json"),
    "recall-out-signal": _recall_to("stim.json"),
    "recall-out-registry-link": _recall_to("link.json"),
    "recall-manifest-signal": _recall_to("sig", "sig.manifest.json"),
    "recall-out-config": _recall_to("cfg", "stim.json", "--config", "cfg"),
    "record-manifest-spectrum": ["record", "--registry", "sig", "--spectrum",
                                 "sig.manifest.json", "--t", "1", "--L", "1"],
    "record-manifest-config": ["record", "--registry", "cfg", "--spectrum", "stim.json",
                               "--t", "1", "--L", "1", "--config", "cfg.manifest.json"],
    "sweep-manifest-config": ["forget-sweep", "--registry", "reg.json", "--t", "1",
                              "--L", "1", "--config", "reg.json.manifest.json"],
    "bessel-out-config": ["bessel", "--kind", "j", "--order", "1", "--z", "1",
                          "--out", "cfg", "--config", "cfg"],
    "evolve-sibling-config": ["evolve", "--L", "1", "--k", "2", "--n", "1", "--t-max", "1",
                              "--points", "20", "--method", "both", "--out", "cfg.csv",
                              "--config", "cfg.ode.csv"],
    "lifetimes-out-config": ["lifetimes", "--L", "1", "--k", "2", "--n", "1",
                             "--out", "cfg", "--config", "cfg"],
    "figures-manifest-config": ["figures", "--which", "all", "--points", "20",
                                "--out", ".", "--config", "manifest.json"],
    "squeeze-out-config": ["squeeze", "--gamma", "0.5", "--t", "1", "--out", "cfg",
                           "--config", "cfg"],
}


class TestPathErrors:
    """A path that cannot be used as the request names it exits 2, names the
    path, and leaves no temp file and no new lock file behind."""

    @pytest.mark.parametrize("case", sorted(_OVERWRITES))
    def test_output_may_not_overwrite_an_input(self, tmp_path, monkeypatch, capsys,
                                               case):
        # refused before anything is written or printed; only record and
        # forget-sweep rewrite the one input they update, their registry
        monkeypatch.chdir(tmp_path)
        write_spectrum(tmp_path / "stim.json", (2.0, 1, 1.0))
        write_spectrum(tmp_path / "sig.manifest.json", (2.0, 1, 1.0))
        assert main(["record", "--registry", "reg.json", "--spectrum", "stim.json",
                     "--t", "0", "--L", "1"]) == 0
        (tmp_path / "link.json").symlink_to("reg.json")
        argv = _OVERWRITES[case]
        config = argv[argv.index("--config") + 1] if "--config" in argv else None
        if config is not None:
            (tmp_path / config).write_text("[memdomain]\n")
        capsys.readouterr()
        before = _tree(tmp_path)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "an output may not overwrite an input" in captured.err
        # the lock file a record takes may outlive its refusal (cli docstring)
        after = _tree(tmp_path)
        if argv[0] == "record":
            after.pop(argv[2] + ".lock")
        assert after == before

    @pytest.fixture
    def files(self, tmp_path):
        reg = tmp_path / "reg.json"
        spec = write_spectrum(tmp_path / "stim.json", (2.0, 1, 1.0))
        assert main(["record", "--registry", str(reg), "--spectrum", str(spec),
                     "--t", "0", "--L", "1", "--no-timestamp"]) == 0
        (tmp_path / "dir").mkdir()
        (tmp_path / "file").write_text("")
        return reg, spec

    @pytest.mark.parametrize("case", [
        "squeeze-out", "evolve-out", "lifetimes-out", "bessel-out", "recall-out",
        "record-registry", "recall-registry", "sweep-registry", "record-spectrum",
        "recall-signal", "config", "out-under-file", "registry-under-file",
        "figures-under-file",
    ])
    def test_exits_2_without_temp_files(self, tmp_path, capsys, files, case):
        reg, spec = (str(p) for p in files)
        d, f = str(tmp_path / "dir"), str(tmp_path / "file")
        argv, named = {
            "squeeze-out": (["squeeze", "--gamma", "0.5", "--t", "1", "--out", d], d),
            "evolve-out": (["evolve", "--L", "1", "--k", "2", "--n", "1",
                            "--t-max", "1", "--out", d], d),
            "lifetimes-out": (["lifetimes", "--L", "1", "--k", "2", "--n", "1",
                               "--out", d], d),
            "bessel-out": (["bessel", "--kind", "j", "--order", "1", "--z", "1",
                            "--out", d], d),
            "recall-out": (["recall", "--registry", reg, "--signal", spec, "--t", "1",
                            "--L", "1", "--energy", "5", "--out", d], d),
            "record-registry": (["record", "--registry", d, "--spectrum", spec,
                                 "--t", "1", "--L", "1"], d),
            "recall-registry": (["recall", "--registry", d, "--signal", spec,
                                 "--t", "1", "--L", "1", "--energy", "5"], d),
            "sweep-registry": (["forget-sweep", "--registry", d, "--t", "1",
                                "--L", "1"], d),
            "record-spectrum": (["record", "--registry", reg, "--spectrum", d,
                                 "--t", "1", "--L", "1"], d),
            "recall-signal": (["recall", "--registry", reg, "--signal", d,
                               "--t", "1", "--L", "1", "--energy", "5"], d),
            "config": (["lifetimes", "--config", d, "--L", "1", "--k", "2",
                        "--n", "1"], d),
            "out-under-file": (["squeeze", "--gamma", "0.5", "--t", "1",
                                "--out", f + "/x/sq.json"], f),
            "registry-under-file": (["record", "--registry", f + "/reg.json",
                                     "--spectrum", spec, "--t", "1", "--L", "1"], f),
            "figures-under-file": (["figures", "--which", "fig1", "--points", "20",
                                    "--out", f + "/figs"], f),
        }[case]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err, err
        assert not list(tmp_path.rglob("*.tmp.*"))
        # only the lock of the registry the fixture recorded into
        assert [p.name for p in tmp_path.rglob("*.lock")] == ["reg.json.lock"]
        assert not list((tmp_path / "dir").iterdir())

    @pytest.mark.parametrize("case", ["record-spectrum", "recall-signal",
                                      "recall-registry", "config"])
    def test_non_utf8_input_names_its_file(self, tmp_path, capsys, files, case):
        # an input whose bytes are not UTF-8 exits 2 with a message that
        # names the file, and the registry a record was reading is kept
        reg, spec = files
        before = reg.read_bytes()
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff{}")
        argv = {
            "record-spectrum": ["record", "--registry", str(reg), "--spectrum", str(bad)],
            "recall-signal": ["recall", "--registry", str(reg), "--signal", str(bad),
                              "--energy", "5"],
            "recall-registry": ["recall", "--registry", str(bad), "--signal", str(spec),
                                "--energy", "5"],
            "config": ["forget-sweep", "--config", str(bad), "--registry", str(reg)],
        }[case]
        capsys.readouterr()
        assert main([*argv, "--t", "1", "--L", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {bad}: not UTF-8 text (invalid start byte at byte 0)\n"
        assert reg.read_bytes() == before

    @pytest.mark.parametrize(
        "argv,taken", _REFUSALS,
        ids=[f"{argv[0]}:{taken or 'fails'}" for argv, taken in _REFUSALS],
    )
    def test_refused_request_changes_nothing(self, tmp_path, monkeypatch, capsys,
                                             argv, taken):
        # exit 2 with nothing on stdout and the directory tree as it was
        monkeypatch.chdir(tmp_path)
        write_spectrum(tmp_path / "stim.json", (2.0, 1, 1.0))
        assert main(["record", "--registry", "reg.json", "--spectrum", "stim.json",
                     "--t", "0", "--L", "1"]) == 0
        if taken is not None:
            (tmp_path / taken).mkdir(parents=True)
        capsys.readouterr()
        before = _tree(tmp_path)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")
        assert _tree(tmp_path) == before

    @pytest.mark.parametrize("taken", ["traj", "traj.ode", "traj.manifest.json"])
    def test_refused_evolve_writes_nothing(self, tmp_path, capsys, taken):
        # a directory at any destination of --method both refuses the run
        # before its first write: no orphan .ode sibling, no manifest
        (tmp_path / taken).mkdir()
        assert main(["evolve", "--L", "1", "--k", "2", "--n", "1", "--t-max", "1",
                     "--points", "20", "--method", "both",
                     "--out", str(tmp_path / "traj")]) == 2
        assert capsys.readouterr().err == f"error: {tmp_path / taken}: Is a directory\n"
        assert [p.name for p in tmp_path.iterdir()] == [taken]
        assert not list((tmp_path / taken).iterdir())

    def test_refused_record_keeps_the_registry(self, tmp_path, files):
        # the registry is not replaced when its manifest cannot be written
        reg, spec = files
        before = reg.read_bytes()
        reg.with_name("reg.json.manifest.json").unlink()
        reg.with_name("reg.json.manifest.json").mkdir()
        assert main(["record", "--registry", str(reg), "--spectrum", str(spec),
                     "--t", "1", "--L", "1", "--no-timestamp"]) == 2
        assert reg.read_bytes() == before
        assert not list(tmp_path.rglob("*.tmp.*"))

    def test_other_os_errors_stay_computation_errors(self, tmp_path, capsys,
                                                      monkeypatch):
        # a full disk is not the request's fault; the temp file still goes
        def no_space(fd):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(os, "fsync", no_space)
        assert main(["lifetimes", "--L", "1", "--k", "2", "--n", "1",
                     "--out", str(tmp_path / "l.csv")]) == 1
        assert "No space left" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestEnvironmentAndManifest:
    def test_timestamp_toggle(self, tmp_path):
        out = tmp_path / "l.csv"
        main(["lifetimes", "--L", "1", "--k", "2", "--n", "1",
              "--out", str(out)])
        with_ts = json.loads((tmp_path / "l.csv.manifest.json").read_text())
        assert "timestamp" in with_ts
        assert with_ts["timestamp"].endswith("Z")
        main(["lifetimes", "--L", "1", "--k", "2", "--n", "1",
              "--out", str(out), "--no-timestamp"])
        without = json.loads((tmp_path / "l.csv.manifest.json").read_text())
        assert "timestamp" not in without

    def test_input_digests_verifiable(self, tmp_path):
        reg = tmp_path / "reg.json"
        spec = write_spectrum(tmp_path / "stim.json", (2.0, 1, 1.0))
        main(["record", "--registry", str(reg), "--spectrum", str(spec),
              "--t", "1", "--L", "1", "--no-timestamp"])
        manifest = json.loads((tmp_path / "reg.json.manifest.json").read_text())
        digest = "sha256:" + hashlib.sha256(spec.read_bytes()).hexdigest()
        assert manifest["inputs"][str(spec)] == digest

    def test_csv_dialect(self, tmp_path):
        out = tmp_path / "l.csv"
        main(["lifetimes", "--L", "1", "--k", "2", "--n", "1", "--t", "0.1",
              "--out", str(out), "--no-timestamp"])
        data = out.read_bytes()
        assert data.endswith(b"\n")
        assert b"\r" not in data
        lam = float(data.decode().splitlines()[1].split(",")[3])
        assert f"{lam:.17g}".encode() in data


# A child interpreter that imports memdomain from this tree: the process
# start is what these tests measure, and in this process numpy is loaded.
_SRC = str(Path(memdomain.__file__).resolve().parents[1])


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
    )
    return env


def _child(code):
    """Last stdout line of code run in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", code], env=_child_env(),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


class TestFreshProcess:
    def test_import_loads_no_numeric_module(self):
        assert _child(
            "import sys, memdomain.cli; "
            "print(sorted(m for m in ('numpy', 'scipy') if m in sys.modules))"
        ) == "[]"

    def test_record_loads_no_scipy(self, tmp_path):
        spec = write_spectrum(tmp_path / "stim.json", (2.0, 1, 1.0))
        argv = ["record", "--registry", str(tmp_path / "reg.json"),
                "--spectrum", str(spec), "--t", "1", "--L", "1"]
        assert _child(
            f"import sys; from memdomain.cli import main; rc = main({argv!r}); "
            "print(rc, 'scipy' in sys.modules)"
        ) == "0 False"

    def test_squeeze_oracle_loads_no_scipy_linalg(self, tmp_path):
        # the oracle evolves the paired block with numpy.linalg alone; no
        # scipy module loads, which would add about a tenth of a second to
        # every squeeze --oracle start
        argv = ["squeeze", "--gamma", "0.5", "--t", "2", "--oracle",
                "--out", str(tmp_path / "sq.json")]
        assert _child(
            f"import sys; from memdomain.cli import main; rc = main({argv!r}); "
            "print(rc, sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))"
        ) == "0 []"

    def test_every_command_runs_without_scipy(self, tmp_path):
        # the package depends on numpy alone: with scipy unimportable, every
        # command, squeeze --oracle included, exits 0 and writes its output
        spec = write_spectrum(tmp_path / "stim.json", (2.0, 1, 1.5))
        reg, out = str(tmp_path / "reg.json"), tmp_path / "out"
        runs = [
            ["lifetimes", "--L", "1", "--k", "2", "--n", "1", "--out", f"{out}.l.csv"],
            ["bessel", "--kind", "j", "--order", "3", "--z", "1e20", "--out", f"{out}.b.csv"],
            ["evolve", "--L", "1", "--k", "2", "--n", "1", "--t-max", "1", "--points", "5",
             "--method", "both", "--out", f"{out}.e.csv"],
            ["squeeze", "--gamma", "0.5", "--t", "2", "--oracle", "--out", f"{out}.s.json"],
            ["figures", "--which", "fig1", "--out", f"{out}.figs"],
            ["record", "--L", "1", "--registry", reg, "--spectrum", str(spec), "--t", "1"],
            ["forget-sweep", "--L", "1", "--registry", reg, "--t", "5"],
            ["recall", "--L", "1", "--registry", reg, "--signal", str(spec), "--energy", "2",
             "--t", "5", "--out", f"{out}.r.json"],
        ]
        assert sorted({argv[0] for argv in runs}) == sorted(_COMMANDS)
        assert _child(
            "import sys; sys.modules['scipy'] = None; from memdomain.cli import main; "
            f"print([main(argv) for argv in {runs!r}])"
        ) == str([0] * len(runs))
        assert "oracle_max_deviation" in json.loads(Path(f"{out}.s.json").read_text())
        for suffix in (".l.csv", ".b.csv", ".e.csv", ".figs", ".r.json"):
            assert Path(f"{out}{suffix}").exists()

    @pytest.mark.parametrize("module", ["memdomain.errors", "memdomain.lifetime",
                                        "memdomain.memory"])
    def test_scalar_model_loads_no_numeric_module(self, module):
        assert _child(
            f"import sys, {module}; "
            "print(sorted(m for m in ('numpy', 'scipy') if m in sys.modules))"
        ) == "[]"

    @pytest.mark.parametrize("command", ["record", "recall", "forget-sweep", "lifetimes",
                                         "figures", "bessel", "squeeze"])
    def test_scalar_command_loads_no_numeric_module(self, tmp_path, command):
        reg = tmp_path / "reg.json"
        spec = write_spectrum(tmp_path / "stim.json", (2.0, 1, 1.0))
        assert main(["record", "--registry", str(reg), "--spectrum", str(spec),
                     "--t", "0", "--L", "1", "--no-timestamp"]) == 0
        argv = {
            "record": ["record", "--registry", str(reg), "--spectrum", str(spec),
                       "--t", "1", "--L", "1"],
            "recall": ["recall", "--registry", str(reg), "--signal", str(spec),
                       "--energy", "10", "--t", "1", "--L", "1",
                       "--out", str(tmp_path / "recall.json")],
            "forget-sweep": ["forget-sweep", "--registry", str(reg), "--t", "1",
                             "--L", "1"],
            "lifetimes": ["lifetimes", "--L", "1", "--k", "2", "--n", "1",
                          "--out", str(tmp_path / "l.csv")],
            "figures": ["figures", "--which", "fig1", "--out", str(tmp_path / "figs")],
            "bessel": ["bessel", "--kind", "y", "--order", "3", "--z", "0.5", "2", "1e20",
                       "--out", str(tmp_path / "b.csv")],
            "squeeze": ["squeeze", "--gamma", "0.5", "--t", "2",
                        "--out", str(tmp_path / "sq.json")],
        }[command]
        assert _child(
            f"import sys; from memdomain.cli import main; rc = main({argv!r}); "
            "print(rc, sorted(m for m in ('numpy', 'scipy') if m in sys.modules))"
        ) == "0 []"

    def test_concurrent_records_all_land(self, tmp_path):
        # each writer loads, records into and rewrites a few-hundred-code
        # file; without the lock, writers that overlap lose each other's code
        reg = tmp_path / "reg.json"
        MemoryRegistry(
            codes={
                f"code{i:06d}": MemoryCode(id=f"code{i:06d}", entries={
                    0.6 + j: CodeEntry(weight=1.0 + i, n=1, t_rec=0.0)
                    for j in range(8)
                })
                for i in range(1, 301)
            },
            next_id=301,
        ).save(reg)
        procs = [
            subprocess.Popen(
                [sys.executable, "-m", "memdomain.cli", "record",
                 "--registry", str(reg), "--t", "0", "--L", "1",
                 "--spectrum", str(write_spectrum(
                     tmp_path / f"stim{i}.json", (2.0 + i, 1, 1.0)))],
                env=_child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            )
            for i in range(8)
        ]
        try:
            outs = [proc.communicate(timeout=120) for proc in procs]
        finally:
            for proc in procs:
                proc.kill()
                proc.wait()
        assert [proc.returncode for proc in procs] == [0] * 8, outs
        new = {json.loads(out)["code"] for out, _ in outs}
        codes = MemoryRegistry.load(reg).codes
        assert len(new) == 8 and new <= set(codes) and len(codes) == 308
        assert (tmp_path / "reg.json.lock").exists()


class TestParser:
    """The parser adds arguments only to the command argv names; what it
    prints and how it exits stay those of the parser with every command's
    arguments (_oracles.full_cli_parser)."""

    @pytest.mark.parametrize("argv,code,pinned", [
        (["-h"], 0, "{bessel,evolve,lifetimes,figures,squeeze,record,recall,forget-sweep}"),
        (["record", "-h"], 0, "--registry REGISTRY"),
        (["recrd"], 2, "invalid choice: 'recrd'"),
        (["--L", "1", "recall", "-h"], 2, "invalid choice: '1'"),
        (["recall", "--L", "1", "--spectrum", "s.json"], 2, "unrecognized arguments: --spectrum"),
    ])
    def test_output_and_exit_code_as_with_every_command_built(self, argv, code, pinned, capsys):
        assert main(argv) == code
        got = capsys.readouterr()
        try:
            full_cli_parser().parse_args(argv)
        except SystemExit as exc:
            assert (exc.code or 0) == code
        want = capsys.readouterr()
        assert (got.out, got.err) == (want.out, want.err)
        assert pinned in got.out + got.err


ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


class TestPackaging:
    def test_script_and_version_match_pyproject(self):
        # the tests run from the source tree, so nothing else checks the
        # metadata an installed package is built from
        tomllib = pytest.importorskip("tomllib")  # Python 3.11+
        project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
        module, _, name = project["project"]["scripts"]["memdomain"].partition(":")
        assert getattr(importlib.import_module(module), name) is main
        assert project["project"]["version"] == memdomain.__version__


def _readme_section(section):
    """The text of the README's `## section`."""
    body = README.read_text(encoding="utf-8").split(f"\n## {section}\n", 1)[1]
    return body.split("\n## ", 1)[0]


def _readme_block(section, lang):
    """The first fenced `lang` block of the README's `## section`."""
    return _readme_section(section).split(f"```{lang}\n", 1)[1].split("\n```", 1)[0]


def _unused_public_names():
    """module.name of each public top-level function, class or constant of
    the package that no other code of the package refers to, by name,
    attribute or import."""
    package = Path(memdomain.__file__).parent
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(package.glob("*.py"))}

    def refers(node, name):
        return any(
            (isinstance(sub, ast.Name) and sub.id == name and isinstance(sub.ctx, ast.Load))
            or (isinstance(sub, ast.Attribute) and sub.attr == name)
            or (isinstance(sub, ast.alias) and sub.name == name)
            for sub in ast.walk(node)
        )

    unused = set()
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            # the rest of the package: other modules whole, this one but the definition
            rest = [other for name, t in trees.items()
                    for other in (t.body if name == module else [t]) if other is not node]
            unused.update(f"{module}.{name}" for name in names
                          if not name.startswith("_")
                          and not any(refers(other, name) for other in rest))
    return unused


class TestReadme:
    """The README's examples run as written."""

    def test_cli_block(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        for name in ("stimulus.json", "probe.json"):
            write_spectrum(tmp_path / name, (2.0, 1, 1.5), (6.0, 1, 1.0))
        lines = _readme_block("CLI", "sh").replace("\\\n", " ").splitlines()
        commands = [shlex.split(line) for line in lines
                    if line.strip() and not line.startswith("#")]
        assert len(commands) >= 9
        for argv in commands:
            assert argv[0] == "memdomain", argv
            assert main(argv[1:]) == 0, (argv, capsys.readouterr().err)

    def test_library_example(self):
        exec(compile(_readme_block("Library example", "python"), str(README), "exec"), {})

    def test_library_api_lists_every_public_name_the_package_leaves_unused(self):
        # a public name no command or package function reaches is either
        # kept on purpose, and listed, or dead code
        listed = set(re.findall(r"`(\w+\.\w+)`", _readme_section("Library API")))
        assert _unused_public_names() <= listed
        for entry in sorted(listed):
            module, name = entry.split(".")
            assert not name.startswith("_"), entry
            assert hasattr(importlib.import_module(f"memdomain.{module}"), name), entry
