import dataclasses
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from blowuplab import __version__, _kernels, moments, renorm
from blowuplab.cli import main


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def _config_with(**items):
    """An edit of an iterate manifest that sets `config` items."""
    return lambda m: {**m, "config": {**m["config"], **items}}


def _map_with(**items):
    """An edit of an iterate manifest that sets `config.map` items."""
    return lambda m: {**m, "config": {**m["config"], "map": {**m["config"]["map"], **items}}}


class TestMoments:
    def test_zero_delta_row(self, capsys):
        code, out = run(capsys, ["moments", "--n", "3", "--delta", "0"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("n,delta_1,B,")
        b_val = float(lines[1].split(",")[2])
        assert b_val == pytest.approx(-6.2831853, abs=1e-6)

    def test_mc_check_agrees(self, capsys):
        code, out = run(
            capsys,
            [
                "moments",
                "--n",
                "4",
                "--delta",
                "1e-3,0",
                "--mc-check",
                "100000",
                "--seed",
                "7",
            ],
        )
        assert code == 0
        report = json.loads(out[out.index("{") :])
        assert report["mc_check"][0]["max_abs_z"] <= 3.0

    def test_validation_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["moments", "--n", "1", "--delta", ""])
        assert exc.value.code == 2

    @pytest.mark.parametrize("n, delta", [(3, "1e-2"), (4, "1e-2,0"), (5, "1e-2,0,0")])
    def test_order_below_two_exit_2(self, capsys, n, delta):
        # moments take no node count since 0.10.0, so --order is unknown
        with pytest.raises(SystemExit) as exc:
            main(["moments", "--n", str(n), "--delta", delta, "--order", "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --order 1" in capsys.readouterr().err

    def test_writes_csv_and_manifest(self, capsys, tmp_path):
        out_path = tmp_path / "mom.csv"
        code, _ = run(
            capsys,
            ["moments", "--n", "3", "--delta", "0", "--delta", "1e-3", "-o", str(out_path)],
        )
        assert code == 0
        assert out_path.exists()
        manifest = json.loads((tmp_path / "mom.manifest.json").read_text())
        assert manifest["command"] == "moments"


class TestIterate:
    def test_converged_fixed_point(self, capsys):
        code, out = run(
            capsys,
            [
                "iterate", "--n", "3", "--tau0", "10", "--delta0", "0",
                "--steps", "50", "--c-gamma", "0",
            ],
        )
        assert code == 0
        summary = json.loads(out[out.index("{") :])
        assert summary["classification"]["kind"] == "converged"
        assert max(abs(d) for d in summary["classification"]["delta_inf"]) < 1e-12

    def test_deterministic_outputs(self, capsys, tmp_path):
        argv = [
            "iterate", "--n", "4", "--tau0", "10", "--delta0", "1e-3,0",
            "--steps", "10", "--c-gamma", "0", "--seed", "5",
        ]
        code1, _ = run(capsys, argv + ["-o", str(tmp_path / "a")])
        code2, _ = run(capsys, argv + ["-o", str(tmp_path / "b")])
        assert code1 == code2 == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_manifest_replay_byte_identical(self, capsys, tmp_path):
        argv = [
            "iterate", "--n", "3", "--tau0", "10", "--delta0", "0",
            "--steps", "15", "--c-gamma", "0",
            "-o", str(tmp_path / "orig"),
        ]
        run(capsys, argv)
        code = main(
            [
                "iterate",
                "--manifest",
                str(tmp_path / "orig.manifest.json"),
                "-o",
                str(tmp_path / "replay"),
            ],
        )
        assert code == 0
        assert capsys.readouterr().err == ""  # same environment: no warning
        assert (tmp_path / "orig.csv").read_bytes() == (
            tmp_path / "replay.csv"
        ).read_bytes()

    def _replay_with(self, capsys, tmp_path, edit):
        """Iterate, edit the written manifest, replay it; (stderr, csv pair)."""
        argv = [
            "iterate", "--n", "3", "--tau0", "10", "--delta0", "0",
            "--steps", "5", "--c-gamma", "0",
            "-o", str(tmp_path / "orig"),
        ]
        run(capsys, argv)
        path = tmp_path / "orig.manifest.json"
        manifest = json.loads(path.read_text())
        edit(manifest)
        path.write_text(json.dumps(manifest))
        code = main(["iterate", "--manifest", str(path), "-o", str(tmp_path / "replay")])
        err = capsys.readouterr().err
        assert code == 0
        return err, (tmp_path / "orig.csv").read_bytes(), (tmp_path / "replay.csv").read_bytes()

    def test_manifest_records_environment(self, capsys, tmp_path):
        run(capsys, ["iterate", "--n", "3", "--steps", "2",
                     "-o", str(tmp_path / "r")])
        env = json.loads((tmp_path / "r.manifest.json").read_text())["environment"]
        assert env["backend"] == _kernels.backend_name()
        assert env["numpy"] == np.__version__
        assert env["package"] == __version__
        assert set(env) == {"backend", "package", "python", "numpy"}

    def test_replay_warns_on_other_backend(self, capsys, tmp_path):
        # "compiled": as written by a 0.5.0 install that built the Cython kernel
        for backend in ("other", "compiled"):
            def edit(m):
                m["environment"]["backend"] = backend

            err, orig, replay = self._replay_with(capsys, tmp_path, edit)
            assert err.count("\n") == 1
            assert f"backend '{backend}'" in err and "byte-identical" in err
            assert "numpy" not in err
            assert orig == replay

    def test_replay_warns_on_other_package_version(self, capsys, tmp_path):
        # as written by 0.1.0: the version only at the top, not in the stamp
        def edit(m):
            del m["environment"]["package"]
            m["package_version"] = "0.1.0"

        err, orig, replay = self._replay_with(capsys, tmp_path, edit)
        assert err.count("\n") == 1
        assert f"package '0.1.0' != '{__version__}'" in err and "byte-identical" in err
        assert "backend" not in err
        assert orig == replay

    def test_replay_without_output_prints_and_keeps_manifest(self, capsys, tmp_path):
        run(capsys, ["iterate", "--n", "3", "--steps", "5",
                     "--c-gamma", "0", "-o", str(tmp_path / "orig")])
        path = tmp_path / "orig.manifest.json"
        manifest = json.loads(path.read_text())
        manifest["environment"]["backend"] = "other"
        path.write_text(json.dumps(manifest))
        code, out = run(capsys, ["iterate", "--manifest", str(path)])
        assert code == 0
        assert json.loads(path.read_text())["environment"]["backend"] == "other"
        csv_text = (tmp_path / "orig.csv").read_text()
        assert out[: out.index("{")] == csv_text

    def test_replay_warns_without_stamp(self, capsys, tmp_path):
        err, orig, replay = self._replay_with(capsys, tmp_path, lambda m: m.pop("environment"))
        assert err.count("\n") == 1
        assert "no environment stamp" in err and "byte-identical" in err
        assert orig == replay

    @pytest.mark.parametrize("version", [None, "0.9.0"])
    def test_replay_of_order_warns_once(self, capsys, tmp_path, version):
        # iterate manifests written before 0.10.0 carry the map's `order`,
        # which no longer selects anything: the replay drops it with one
        # warning, and a 0.9.0 stamp adds only its version line
        def edit(m):
            m["config"]["map"]["order"] = 64
            if version:
                m["environment"]["package"] = m["package_version"] = version

        err, orig, replay = self._replay_with(capsys, tmp_path, edit)
        lines = err.splitlines()
        assert len(lines) == (2 if version else 1)
        assert sum("'order'" in line for line in lines) == 1
        assert "sets 'order', which no longer selects anything" in lines[-1]
        if version:
            assert f"package '{version}' != '{__version__}'" in lines[0]
        assert orig == replay

    def test_order_below_two_exit_2(self, capsys):
        # --order is unknown since 0.10.0: a usage error before any step
        with pytest.raises(SystemExit) as exc:
            main(["iterate", "--n", "4", "--tau0", "10", "--delta0", "1e-3,0", "--order", "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --order 1" in capsys.readouterr().err

    def test_missing_manifest_is_usage_error(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["iterate", "--manifest", str(tmp_path / "missing.json")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "missing.json" in err

    @pytest.mark.parametrize(
        "edit, message",
        [
            (None, "was written by 'sweep', not 'iterate'"),
            (lambda m: {k: v for k, v in m.items() if k != "config"}, "has no 'config'"),
            (lambda m: {**m, "config": {k: v for k, v in m["config"].items() if k != "tau0"}},
             "has no 'tau0' in its 'config'"),
            (lambda m: [m], "is not a JSON object"),
            # a value is parsed as the flag it records, and a key must be a flag
            (_config_with(tau0="abc"), "records argument --tau0: invalid float value: 'abc'"),
            (_config_with(steps=2.5), "records argument --steps: invalid int value: '2.5'"),
            (_map_with(colour=1), "has 'colour' in its 'map', not a MapConfig field"),
            (_map_with(n="x"), "records argument --n: invalid int value: 'x'"),
            (_config_with(map=[1]), "has a 'map' that is not a JSON object"),
        ],
        ids=["sweep", "no-config", "no-tau0", "list", "tau0-text", "steps-float",
             "unknown-key", "n-text", "map-list"],
    )
    def test_non_iterate_manifest_is_usage_error(self, capsys, tmp_path, edit, message):
        # the basin manifest of a sweep, or an iterate manifest without a
        # key the replay reads or with a value its flag refuses, ends in one
        # line and exit 2, not a KeyError or TypeError
        if edit is None:
            run(capsys, ["sweep", "--n", "3", "--tau0-range", "10:10:1", "--delta0-range",
                         "0:0:1", "--steps", "2", "--workers", "1",
                         "-o", str(tmp_path / "orig")])
        else:
            run(capsys, ["iterate", "--n", "3", "--steps", "2",
                         "-o", str(tmp_path / "orig")])
        path = tmp_path / "orig.manifest.json"
        if edit is not None:
            path.write_text(json.dumps(edit(json.loads(path.read_text()))))
        with pytest.raises(SystemExit) as exc:
            main(["iterate", "--manifest", str(path), "-o", str(tmp_path / "replay")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and str(path) in err and message in err
        assert not (tmp_path / "replay.csv").exists()

    @pytest.mark.parametrize("flag", [["--steps", "1"], ["--n", "6"], ["--tau0=20"], ["--steps", "2"],
                                      ["--seed", "3"], ["--delta0=-0.01"]])
    def test_replay_refuses_other_flags(self, capsys, tmp_path, flag):
        # the manifest fixes every flag of the run, so another flag beside
        # -o would be silently overridden, even one equal to the manifest's
        run(capsys, ["iterate", "--n", "3", "--steps", "2", "-o", str(tmp_path / "orig")])
        path = tmp_path / "orig.manifest.json"
        with pytest.raises(SystemExit) as exc:
            main(["iterate", "--manifest", str(path), *flag, "-o", str(tmp_path / "replay")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        name = flag[0].partition("=")[0]
        assert err.count("\n") == 1 and str(path) in err and f"so {name} cannot be given" in err
        assert not (tmp_path / "replay.csv").exists()

    @pytest.mark.parametrize("text", ["not json", "", b"\xff\xfe"])
    def test_non_json_manifest_is_usage_error(self, capsys, tmp_path, text):
        path = tmp_path / "m.json"
        if isinstance(text, bytes):
            path.write_bytes(text)
        else:
            path.write_text(text)
        with pytest.raises(SystemExit) as exc:
            main(["iterate", "--manifest", str(path)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"manifest {path} is not JSON" in err

    # a non-default value for every MapConfig field: a field added without a
    # flag has no case here, or no flag to set, and fails the replay test
    _FIELD_VALUES = {
        "n": [6],
        "gamma": [0.05],
        "alpha": [0.1],
        "c_noise": [0.002],
        "noise": list(renorm.NOISE_MODES),
        "seed": [2**64 - 1],
        "C_gamma": [0.0, None],
        "kappa0": [0.5],
        "tol_conv": [1e-300],
    }

    @pytest.mark.parametrize(
        "field, value", [(f, v) for f, values in _FIELD_VALUES.items() for v in values]
    )
    def test_replay_round_trips_every_map_field(self, capsys, tmp_path, field, value):
        assert set(self._FIELD_VALUES) == {f.name for f in dataclasses.fields(renorm.MapConfig)}
        n = value if field == "n" else 4
        argv = [
            "iterate", "--n", str(n), "--tau0", "10", "--steps", "12",
            f"--delta0={','.join(['-0.01'] + ['0.004'] * (n - 3))}",
            "--noise", "random", "--c-noise", "0.001", "--seed", "3",
        ]
        if value is not None:
            argv.append(f"--{field.lower().replace('_', '-')}={value}")
        code, out = run(capsys, [*argv, "-o", str(tmp_path / "orig")])
        assert code == 0
        orig = json.loads((tmp_path / "orig.manifest.json").read_text())["config"]["map"]
        assert orig[field] == value
        code, replay_out = run(capsys, ["iterate", "--manifest", str(tmp_path / "orig.manifest.json"),
                                        "-o", str(tmp_path / "replay")])
        assert code == 0 and replay_out == out
        assert json.loads((tmp_path / "replay.manifest.json").read_text())["config"]["map"] == orig
        assert (tmp_path / "orig.csv").read_bytes() == (tmp_path / "replay.csv").read_bytes()

    def test_escape_classification(self, capsys):
        code, out = run(
            capsys,
            [
                "iterate", "--n", "4", "--tau0", "10", "--delta0", "0.05,0",
                "--steps", "250", "--gamma", "0.1", "--c-gamma", "0",
            ],
        )
        assert code == 0
        summary = json.loads(out[out.index("{") :])
        assert summary["classification"]["kind"] == "escaped"


class TestMap:
    def test_reports_escape(self, capsys):
        code, out = run(capsys, ["map", "--n", "4", "--tau", "1.1", "--delta", "0.1999,0"])
        assert code == 0
        assert json.loads(out)["escaped"] is True
        code, out = run(capsys, ["map", "--n", "4", "--tau", "10", "--delta", "0.05,0",
                                 "--c-gamma", "0"])
        assert code == 0
        assert json.loads(out)["escaped"] is False


class TestSweep:
    def test_grid_csv(self, capsys, tmp_path):
        code, _ = run(
            capsys,
            [
                "sweep", "--n", "3", "--tau0-range", "10:20:2",
                "--delta0-range", "0:0.05:2", "--steps", "10",
                "--c-gamma", "0", "--workers", "1", "-o", str(tmp_path / "sw"),
            ],
        )
        assert code == 0
        lines = (tmp_path / "sw.csv").read_text().splitlines()
        assert lines[0] == "tau0,delta0_1,classification,step,final_tau,final_ratio"
        assert len(lines) == 5
        assert json.loads((tmp_path / "sw.manifest.json").read_text())["command"] == "sweep"

    def test_n2_runs_each_tau0_once(self, capsys):
        # delta has no entries at n = 2, so a --delta0-range count other
        # than 1 would only repeat every cell; it is a usage error
        code, out = run(capsys, ["sweep", "--n", "2", "--tau0-range", "5:50:3",
                                 "--delta0-range", "0:0:1", "--steps", "5", "--workers", "1"])
        assert code == 0
        assert len(out.splitlines()) == 4
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--n", "2", "--tau0-range", "5:50:3", "--delta0-range", "0:0.1:20"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and "--delta0-range count must be 1 at n=2" in err

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_workers_below_one_exit_2(self, capsys, tmp_path, workers):
        # 0 is not "all CPUs": the worker count has one spelling, --workers N >= 1
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--n", "3", "--tau0-range", "10:20:2", "--delta0-range", "0:0.05:2",
                  "--workers", workers, "-o", str(tmp_path / "sw")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and "workers must be >= 1" in err
        assert not (tmp_path / "sw.csv").exists()


class TestFourier2D:
    def test_report(self, capsys):
        code, out = run(capsys, ["fourier2d", "--max-degree", "40", "--frame", "rotated"])
        assert code == 0
        report = json.loads(out)
        assert report["max_degree"] == 40
        assert report["reconstruction_max_err"] < report["tail_bound"]
        # q off-diagonal is -1/(2 pi)
        assert report["q_matrix"][1] == pytest.approx(-0.15915494, abs=1e-8)


class TestProjectGrid:
    def test_synthetic_half_step(self, capsys):
        code, out = run(
            capsys,
            [
                "project-grid", "--synthetic", "p0-plus-ztilde", "--tau0", "10",
                "--h", "0.0078125", "--r", "1.0", "--half-step",
            ],
        )
        assert code == 0
        report = json.loads(out)
        assert "r=1" in report and "r=0.5" in report
        tau_half = report["r=0.5"]["tau"]
        assert tau_half == pytest.approx(10.0 + 0.1103178, abs=1e-3)

    def test_field_file_round_trip(self, capsys, tmp_path):
        from blowuplab import gridproj

        field = gridproj.SampledField.from_function(
            lambda x: x[:, 0] ** 2 - x[:, 1] ** 2, 2, 1 / 16, 0.6
        )
        field.save(tmp_path / "f.bin")
        code, out = run(
            capsys, ["project-grid", "--input", str(tmp_path / "f.json"), "--r", "0.4"]
        )
        assert code == 0
        report = json.loads(out)
        assert report["r=0.4"]["tau"] == pytest.approx(1.0, abs=1e-9)

    def test_csv_input(self, capsys, tmp_path):
        from blowuplab import gridproj

        field = gridproj.SampledField.from_function(
            lambda x: x[:, 0] ** 2 - x[:, 1] ** 2, 2, 1 / 16, 0.6
        )
        field.save(tmp_path / "f.csv")
        code, out = run(
            capsys, ["project-grid", "--input", str(tmp_path / "f.csv"), "--r", "0.4"]
        )
        assert code == 0
        report = json.loads(out)
        assert report["r=0.4"]["tau"] == pytest.approx(1.0, abs=1e-9)
        assert report["r=0.4"]["points_used"] == gridproj.project(field, 0.4).points_used

    @pytest.mark.parametrize(
        "defect, message",
        [("nan", "field values must be finite"),
         ("radius", "radius 3 exceeds the lattice's half-width 1.375")],
    )
    def test_refused_field_file_is_one_error_line(self, capsys, tmp_path, defect, message):
        # each used to exit 0: a NaN printed "tau": NaN, which is not JSON, and
        # an overstated R projected the whole box as the ball
        from blowuplab import gridproj

        field = gridproj.SampledField.from_function(
            lambda x: x[:, 0] ** 2 - x[:, 1] ** 2, 2, 0.125, 1.375
        )
        field.save(tmp_path / "f.bin")
        if defect == "nan":
            values = field.values.copy()
            values[11, 11] = np.nan
            values.tofile(tmp_path / "f.bin")
        else:
            header = json.loads((tmp_path / "f.json").read_text())
            (tmp_path / "f.json").write_text(json.dumps({**header, "R": 3.0}))
        with pytest.raises(SystemExit) as exc:
            main(["project-grid", "--input", str(tmp_path / "f.bin"), "--r", "2"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.count("blowuplab: error:") == 1 and message in err

    def test_missing_input_is_usage_error(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["project-grid", "--input", str(tmp_path / "missing.csv")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "missing.csv" in err

    def test_output_writes_manifest(self, capsys, tmp_path):
        out_path = tmp_path / "pg.json"
        code, _ = run(
            capsys,
            ["project-grid", "--synthetic", "p0-plus-ztilde", "--h", "0.0625", "-o", str(out_path)],
        )
        assert code == 0
        assert "r=1" in json.loads(out_path.read_text())
        manifest = json.loads((tmp_path / "pg.manifest.json").read_text())
        assert manifest["command"] == "project-grid"
        assert manifest["outputs"] == [str(out_path)]
        assert manifest["config"] == {
            "input": None, "synthetic": "p0-plus-ztilde", "tau0": 10.0, "h": 0.0625,
            "radius": None, "r": 1.0, "half_step": False,
        }


@pytest.mark.parametrize(
    "argv, message",
    [
        (["sweep", "--n", "3", "--tau0-range", "5:50", "--delta0-range", "0:0.1:2"],
         "range must be lo:hi:count"),
        (["project-grid"], "--input FILE or --synthetic NAME"),
        (["fourier2d", "--points", "0"], "points must be >= 1"),
        (["sweep", "--n", "4", "--tau0-range", "5:50:x", "--delta0-range", "0:0.1:2"],
         "range must be lo:hi:count, got '5:50:x': count 'x' is not an integer"),
        (["sweep", "--n", "4", "--tau0-range", "0:1:2", "--delta0-range", "0:x:3"],
         "range must be lo:hi:count, got '0:x:3': hi 'x' is not a number"),
        (["map", "--n", "4", "--tau", "10", "--order", "64"], "unrecognized arguments: --order"),
        (["sweep", "--n", "4", "--tau0-range", "10:10:1", "--delta0-range", "0:0:1",
          "--order", "64"], "unrecognized arguments: --order"),
        (["verify", "--filter", "A5", "--order", "64"], "unrecognized arguments: --order"),
        # a sweep cell with tau0 <= 1 can take no step; iterate rejects it too
        (["sweep", "--n", "4", "--tau0-range", "0.5:10:2", "--delta0-range", "0:0.1:2"],
         "tau0 must be > 1; --tau0-range 0.5:10:2 reaches 0.5"),
        (["sweep", "--n", "3", "--tau0-range", "10:1:3", "--delta0-range", "0:0:1"],
         "tau0 must be > 1; --tau0-range 10:1:3 reaches 1"),
        # the step's moments need |delta| < 1/2, so the ball may not be wider
        (["iterate", "--n", "4", "--kappa0", "0.9", "--delta0", "0.6,0"],
         "kappa0 must lie in (0, 1/2]"),
        (["iterate", "--n", "4", "--kappa0", "-1"], "kappa0 must lie in (0, 1/2]"),
        (["sweep", "--n", "4", "--tau0-range", "5:50:2", "--delta0-range", "0:0.1:2",
          "--kappa0", "0.6"], "kappa0 must lie in (0, 1/2]"),
        (["map", "--n", "4", "--tau", "10", "--kappa0", "0"], "kappa0 must lie in (0, 1/2]"),
        (["iterate", "--n", "4", "--tau0", "1"], "tau0 must be > 1"),
        (["moments", "--n", "4", "--delta", "0.1"], "delta must have 2 entries for n=4, got 1"),
        (["sweep", "--n", "4", "--tau0-range", "5:50:0", "--delta0-range", "0:0.1:2"],
         "range count must be >= 1"),
        (["fourier2d", "--max-degree", "1"], "max-degree must be >= 2"),
        (["project-grid", "--synthetic", "ztilde", "--h", "0"], "h must be positive"),
    ],
)
def test_usage_error_names_the_problem(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and message in err


_SEED = "seed must be an integer in [0, 2^64), got -1"


@pytest.mark.parametrize(
    "argv, message",
    [
        # the library's own checks, met through the commands; each of these
        # used to exit 0 (NaN rows, "escaped") or end in a traceback
        (["map", "--n", "4", "--tau", "10", "--seed", "-1"], _SEED),
        (["iterate", "--n", "4", "--steps", "3", "--seed", "-1"], _SEED),
        (["moments", "--n", "3", "--delta", "0", "--mc-check", "1000", "--seed", "-1"], _SEED),
        (["fourier2d", "--seed", "-1"], _SEED),
        (["iterate", "--n", "4", "--steps", "3", "--tau0", "nan"], "tau must be positive and finite"),
        (["iterate", "--n", "4", "--steps", "3", "--delta0", "nan,0"],
         "delta must have length n-2 = 2 and finite entries"),
        (["sweep", "--n", "4", "--steps", "3", "--tau0-range", "5:inf:2", "--delta0-range", "0:0.1:2"],
         "tau must be positive and finite"),
        (["moments", "--n", "4", "--delta", "nan,0"], "compute_moments requires |delta| < 1/2"),
        # the commands checked these themselves; the line is now the library's
        (["moments", "--n", "4", "--delta", "0.4,0.4"], "compute_moments requires |delta| < 1/2"),
        (["map", "--n", "1", "--tau", "10"], "n must be >= 2"),
        (["iterate", "--n", "1"], "n must be >= 2"),
        (["sweep", "--n", "1", "--tau0-range", "5:50:2", "--delta0-range", "0:0:1"], "n must be >= 2"),
        # a NaN C_gamma used to print "threshold": NaN, which is not JSON
        (["map", "--n", "4", "--tau", "10", "--delta", "0.05,0", "--c-gamma", "nan"],
         "C_gamma must be finite or None"),
    ],
)
def test_refused_input_is_one_error_line(capsys, argv, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no warning may precede the error line
        with pytest.raises(SystemExit) as exc:
            main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.count("blowuplab: error:") == 1 and message in err


def _off_by_1e_6(monkeypatch):
    """Make every moment set's B 1e-6 off, which A2 (tol 1e-8) must report."""
    compute = moments.compute_moments

    def off(*args, **kwargs):
        m = compute(*args, **kwargs)
        return dataclasses.replace(m, B=m.B * (1.0 + 1e-6))

    monkeypatch.setattr(moments, "compute_moments", off)


class TestVerify:
    def test_filter_runs_subset(self, capsys):
        code, out = run(capsys, ["verify", "--filter", "fixed point"])
        assert "A7" in out
        assert "A1" not in out
        assert code == 0

    def test_fourier2d_filter(self, capsys):
        code, out = run(capsys, ["verify", "--filter", "fourier2d"])
        assert "A3" in out and "A7" not in out

    def test_induced_failure_names_criterion(self, capsys, monkeypatch):
        _off_by_1e_6(monkeypatch)
        code, out = run(capsys, ["verify", "--filter", "zero-delta"])
        assert code == 1
        assert "FAIL A2" in out

    def test_text_lines(self, capsys):
        code, out = run(capsys, ["verify", "--filter", "A5"])
        lines = out.splitlines()
        assert code == 0
        assert len(lines) == 2
        assert lines[0].startswith("PASS A5 quartic moment matrix: ")
        assert lines[0].endswith("s]")
        assert lines[1] == "1/1 criteria passed"

    def test_json_list(self, capsys):
        code, out = run(capsys, ["verify", "--filter", "A5", "--json"])
        assert code == 0
        (entry,) = json.loads(out)
        assert set(entry) == {"name", "passed", "detail", "seconds"}
        assert entry["name"] == "A5 quartic moment matrix"
        assert entry["passed"] is True
        assert entry["detail"] and entry["seconds"] >= 0.0

    def test_json_keeps_failure_exit_code(self, capsys, monkeypatch):
        _off_by_1e_6(monkeypatch)
        code, out = run(capsys, ["verify", "--filter", "zero-delta", "--json"])
        assert code == 1
        (entry,) = json.loads(out)
        assert entry["name"].startswith("A2") and entry["passed"] is False

    def test_unknown_filter_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--filter", "no-such-criterion"])
        assert exc.value.code == 2
