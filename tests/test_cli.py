"""End-to-end command-line tests: files, manifests, exit codes, config."""

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import memdomain
from memdomain.bessel import sph_j, sph_y
from memdomain.cli import main
from memdomain.lifetime import recording_window
from memdomain.memory import CodeEntry, MemoryCode, MemoryRegistry
from memdomain.oscillator import (
    ModeIndex,
    SystemParams,
    closed_form_state,
    closed_form_trajectory,
    integrate_pair,
)

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
        code = main(["evolve", "--L", "1", "--omega0", "2", "--n", "1",
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
        assert stats["nfev"] == 1 + 6 * (stats["accepted"] + stats["rejected"])
        assert 0 < stats["h_min"] <= stats["h_max"] <= 3.0

    def test_both_large_mode_radius_deviation(self, tmp_path):
        # r taken from an integrated damped line deviated by 1.2e-3 here
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

    def test_momentum_frequency_consistency(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert main(["evolve", "--L", "1", "--omega0", "2", "--k", "3",
                     "--n", "1", "--t-max", "1", "--out", str(out)]) == 2
        assert "inconsistent" in capsys.readouterr().err
        assert main(["evolve", "--L", "1", "--omega0", "2", "--k", "2",
                     "--n", "1", "--t-max", "1", "--out", str(out)]) == 0

    def test_momentum_required(self, tmp_path):
        assert main(["evolve", "--L", "1", "--n", "1", "--t-max", "1",
                     "--out", str(tmp_path / "x.csv")]) == 2

    def test_window_guard(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        window = recording_window(P, ModeIndex(k=2.0, n=1))
        assert main(["evolve", "--L", "1", "--omega0", "2", "--n", "1",
                     "--t-max", "5", "--out", str(out)]) == 2
        assert f"{window:.12g}"[:8] in capsys.readouterr().err
        assert main(["evolve", "--L", "1", "--omega0", "0.4", "--n", "1",
                     "--t-max", "1", "--out", str(out)]) == 2

    @pytest.mark.parametrize(
        "extra",
        [("--t-max", "-1"), ("--t-max", "nan"), ("--points", "1"),
         ("--rel-tol", "1"), ("--rel-tol", "nan")],
    )
    def test_range_validation(self, tmp_path, extra):
        args = ["evolve", "--L", "1", "--omega0", "2", "--n", "1",
                "--t-max", "1", "--out", str(tmp_path / "x.csv")]
        i = args.index(extra[0]) if extra[0] in args else None
        if i is not None:
            args[i + 1] = extra[1]
        else:
            args += list(extra)
        assert main(args) == 2

    def test_determinism(self, tmp_path):
        _, out = self._run(tmp_path)
        manifest = tmp_path / "traj.csv.manifest.json"
        csv_first, man_first = out.read_bytes(), manifest.read_bytes()
        self._run(tmp_path)
        assert out.read_bytes() == csv_first
        assert manifest.read_bytes() == man_first


class TestGoldenBytes:
    """CSV digests pinned from the per-point implementation, so a last-digit
    change in any closed-form or lifetime value fails here."""

    EVOLVE_SHA256 = "f3085b0f34695c1c8fb8309cb172913a033a74ceb5ed48517085bf9baadac4c7"
    FIGURES_SHA256 = {
        "fig1.csv": "0d3e0d8fa615197069fb00ead6ef33ff2676004f66d17ef957e25f3accc903b3",
        "fig2.csv": "810b80e9b48392d8e4b6a6121629de6ea5774eed8763ca0e32edcf572958bb6a",
        "fig3.csv": "792a42a7f7981d2def5b58e1fbc7fc57af34f8279b3fbb9deb31f6b13b3657d2",
        "fig4.csv": "79ab1b13f262cda6bbff8bb55104d1e299ce80af2d4039d6812c4b93856b6a32",
    }

    @staticmethod
    def _sha256(path):
        return hashlib.sha256(path.read_bytes()).hexdigest()

    def test_evolve_closed_form(self, tmp_path):
        out = tmp_path / "traj.csv"
        assert main(["evolve", "--L", "1", "--k", "55", "--n", "9", "--t-max", "30",
                     "--method", "closed", "--no-timestamp", "--out", str(out)]) == 0
        assert self._sha256(out) == self.EVOLVE_SHA256

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
        assert main(["lifetimes", "--L", "1", "--omega0", "0.4", "--n", "1",
                     "--k", "0.4"]) == 2
        assert "never" in capsys.readouterr().err

    def test_mode_dead_at_requested_time(self):
        assert main(["lifetimes", "--L", "1", "--k", "2", "--n", "1",
                     "--t", "9"]) == 2

    def test_list_length_mismatch(self):
        assert main(["lifetimes", "--L", "1", "--k", "2", "6",
                     "--omega0", "2", "--n", "1"]) == 2

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
        ("--ordinate-scale", "nan"), ("--ordinate-scale", "inf"),
        ("--ordinate-scale", "-inf"), ("--ceiling", "nan"),
    ])
    def test_non_numeric_scale_or_ceiling_refused(self, tmp_path, capsys, extra):
        out = tmp_path / "figs"
        assert main(["figures", "--which", "fig1", "--out", str(out),
                     "--points", "20", "=".join(extra)]) == 2
        assert f"{extra[0]} must be" in capsys.readouterr().err
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
    def test_default_cutoff_and_observables(self, tmp_path):
        out = tmp_path / "sq.json"
        assert main(["squeeze", "--gamma", "0.5", "--t", "2",
                     "--out", str(out), "--no-timestamp"]) == 0
        doc = json.loads(out.read_text())
        assert doc["cutoff"] == 51
        assert doc["gamma_t"] == 1.0
        assert len(doc["coefficients"]) == 52
        assert doc["coefficients"][0] == pytest.approx(1 / math.cosh(1.0), rel=1e-14)
        assert doc["occupation"] == pytest.approx(math.sinh(1.0) ** 2, abs=1e-10)
        assert abs(doc["normalization"] - 1.0) <= 1e-12
        assert "oracle_max_deviation" not in doc

    def test_oracle_deviation_reported(self, tmp_path):
        out = tmp_path / "sq.json"
        assert main(["squeeze", "--gamma", "0.5", "--t", "2", "--oracle",
                     "--out", str(out), "--no-timestamp"]) == 0
        doc = json.loads(out.read_text())
        # truncation back-reaction at the boundary coefficients dominates
        assert 0.0 < doc["oracle_max_deviation"] < 1e-5

    def test_explicit_cutoff_too_small(self, tmp_path, capsys):
        assert main(["squeeze", "--gamma", "0.5", "--t", "2", "--cutoff", "40",
                     "--out", str(tmp_path / "x.json")]) == 2
        assert "cutoff" in capsys.readouterr().err

    def test_clamped_default_cutoff_names_real_requirement(self, tmp_path, capsys):
        # the default cutoff stops at 256; tanh(2) needs 378 levels
        assert main(["squeeze", "--gamma", "2", "--t", "1",
                     "--out", str(tmp_path / "x.json")]) == 2
        assert "need cutoff >= 378" in capsys.readouterr().err

    def test_saturated_squeeze_is_validation_error(self, tmp_path, capsys):
        assert main(["squeeze", "--gamma", "20", "--t", "1",
                     "--out", str(tmp_path / "x.json")]) == 2
        assert "rounds to 1" in capsys.readouterr().err

    def test_negative_time(self, tmp_path):
        assert main(["squeeze", "--gamma", "0.5", "--t", "-1",
                     "--out", str(tmp_path / "x.json")]) == 2


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


class TestConfig:
    def test_config_supplies_and_cli_overrides(self, tmp_path):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(
            "[memdomain]\nL = 1\nseed = 7\nno-timestamp = true\n"
            "[evolve]\nomega0 = 2\nn = 1\nt-max = 2.0\npoints = 20\n"
        )
        out = tmp_path / "a.csv"
        assert main(["evolve", "--config", str(cfg), "--out", str(out)]) == 0
        assert len(read_csv(out)[1]) == 20
        manifest = json.loads((tmp_path / "a.csv.manifest.json").read_text())
        assert manifest["config"]["seed"] == 7
        assert "timestamp" not in manifest
        out2 = tmp_path / "b.csv"
        assert main(["evolve", "--config", str(cfg), "--out", str(out2),
                     "--points", "30"]) == 0
        assert len(read_csv(out2)[1]) == 30

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
        assert main(["evolve", "--config", str(cfg), "--L", "1", "--omega0",
                     "2", "--n", "1", "--t-max", "1",
                     "--out", str(tmp_path / "x.csv")]) == 2
        assert "tmax" in capsys.readouterr().err

    def test_unknown_section_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[evolv]\npoints = 3\n")
        assert main(["evolve", "--config", str(cfg), "--L", "1", "--omega0",
                     "2", "--n", "1", "--t-max", "1",
                     "--out", str(tmp_path / "x.csv")]) == 2
        assert "evolv" in capsys.readouterr().err

    def test_global_key_must_be_global(self, tmp_path):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[memdomain]\npoints = 20\n")
        assert main(["evolve", "--config", str(cfg), "--L", "1", "--omega0",
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
        ("figures", "ordinate-scale", "inf"),
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

    def test_bad_boolean(self, tmp_path):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[memdomain]\nno-timestamp = maybe\n")
        assert main(["lifetimes", "--config", str(cfg), "--L", "1",
                     "--k", "2", "--n", "1"]) == 2


class TestPathErrors:
    """A path that cannot be used as the request names it exits 2, names the
    path, and leaves no temp file behind."""

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
        assert not list((tmp_path / "dir").iterdir())

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
    def test_thread_cap_validation(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MEMDOMAIN_THREADS", "abc")
        assert main(["lifetimes", "--L", "1", "--k", "2", "--n", "1"]) == 2
        monkeypatch.setenv("MEMDOMAIN_THREADS", "-1")
        assert main(["lifetimes", "--L", "1", "--k", "2", "--n", "1"]) == 2

    def test_thread_cap_recorded(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MEMDOMAIN_THREADS", "2")
        out = tmp_path / "l.csv"
        assert main(["lifetimes", "--L", "1", "--k", "2", "--n", "1",
                     "--out", str(out), "--no-timestamp"]) == 0
        manifest = json.loads((tmp_path / "l.csv.manifest.json").read_text())
        assert manifest["threads"] == 2
        import os

        assert os.environ["OMP_NUM_THREADS"] == "2"

    def test_zero_means_auto(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MEMDOMAIN_THREADS", "0")
        out = tmp_path / "l.csv"
        assert main(["lifetimes", "--L", "1", "--k", "2", "--n", "1",
                     "--out", str(out), "--no-timestamp"]) == 0
        manifest = json.loads((tmp_path / "l.csv.manifest.json").read_text())
        assert manifest["threads"] == "auto"

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

# The thread count read back from the OpenBLAS numpy loaded (None for another
# BLAS), as source for a child interpreter.
_BLAS_THREADS = """
import ctypes

def blas_threads():
    with open("/proc/self/maps") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None
"""


def _child_env(**overrides):
    env = dict(os.environ, **overrides)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
    )
    return env


def _child(code, env=None):
    """Last stdout line of code run in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env or _child_env(),
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

    @pytest.mark.parametrize("module", ["memdomain.lifetime", "memdomain.memory"])
    def test_scalar_model_loads_no_numeric_module(self, module):
        assert _child(
            f"import sys, {module}; "
            "print(sorted(m for m in ('numpy', 'scipy') if m in sys.modules))"
        ) == "[]"

    @pytest.mark.parametrize("command", ["record", "recall", "forget-sweep", "lifetimes",
                                         "figures"])
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
        }[command]
        assert _child(
            f"import sys; from memdomain.cli import main; rc = main({argv!r}); "
            "print(rc, sorted(m for m in ('numpy', 'scipy') if m in sys.modules))"
        ) == "0 []"

    def test_thread_cap_reaches_openblas(self, tmp_path):
        env = _child_env(MEMDOMAIN_THREADS="1")
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
            env.pop(var, None)
        argv = ["evolve", "--L", "1", "--k", "2", "--n", "1", "--t-max", "1",
                "--points", "20", "--out", str(tmp_path / "e.csv")]
        threads = _child(
            _BLAS_THREADS + "from memdomain.cli import main\n"
            f"rc = main({argv!r})\nprint(rc, blas_threads())\n",
            env,
        )
        if threads == "0 None":
            pytest.skip("numpy is not linked against OpenBLAS")
        assert threads == "0 1"

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
